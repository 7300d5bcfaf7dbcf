"""Sieve tables, primes in progressions, floor-sequence membership."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psexp import sieve
from psexp.errors import BoundaryError, PreconditionError, ScaleError

PI_KNOWN = {100: 25, 10 ** 4: 1229, 10 ** 6: 78498}


# ---------------------------------------------------------------------------
# plain and segmented sieving

def test_prime_counts_match_tables():
    for x, count in PI_KNOWN.items():
        assert len(sieve.primes_up_to(x)) == count


def test_sieve_cap_raises_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the sieve allocated past its cap")

    monkeypatch.setattr(sieve.np, "ones", no_allocation)
    for n in (sieve.SIEVE_CAP + 1, 10 ** 30):
        with pytest.raises(ScaleError):
            sieve.primes_up_to(n)
    with pytest.raises(ScaleError):
        sieve.primes_in_ap(1e30, 3, 1)
    assert sieve.SIEVE_CAP > 10 ** 9


def test_first_primes():
    assert list(sieve.primes_up_to(11)) == [2, 3, 5, 7, 11]
    assert sieve.primes_up_to(1).size == 0


def test_sieve_range_matches_whole_interval():
    whole = sieve.sieve_range(0, 3000)
    ps = set(sieve.primes_up_to(3000).tolist())
    assert set(whole.n_values()[whole.is_prime].tolist()) == ps
    # index i holds n = lo + 1 + i
    assert whole.n_values()[0] == 1 and whole.n_values()[-1] == 3000


def test_sieve_range_offset_window():
    t = sieve.sieve_range(100, 200)
    expect = [p for p in sieve.primes_up_to(200) if p > 100]
    assert list(t.n_values()[t.is_prime]) == expect


def test_sieve_range_rejects_bad_bounds():
    with pytest.raises(PreconditionError):
        sieve.sieve_range(10, 10)
    with pytest.raises(PreconditionError):
        sieve.sieve_range(-1, 10)
    with pytest.raises(PreconditionError, match="integer"):
        sieve.sieve_range(0, 100.5)


def test_von_mangoldt_small_values():
    t = sieve.sieve_range(0, 30)
    lam = {int(n): v for n, v in zip(t.n_values(), t.lam)}
    assert lam[1] == 0.0
    assert lam[8] == pytest.approx(math.log(2), abs=1e-15)
    assert lam[27] == pytest.approx(math.log(3), abs=1e-15)
    assert lam[13] == pytest.approx(math.log(13), abs=1e-15)
    assert lam[12] == 0.0 and lam[30] == 0.0


@given(st.integers(min_value=2, max_value=400))
def test_lambda_sums_to_log_over_divisors(n):
    t = sieve.sieve_range(0, n)
    total = sum(float(t.lam[d - 1]) for d in range(1, n + 1) if n % d == 0)
    assert total == pytest.approx(math.log(n), abs=1e-9)


def test_segments_concatenate_to_whole_range():
    parts = list(sieve.iter_segments(0, 10000, segment=977))
    assert parts[0].lo == 0 and parts[-1].hi == 10000
    whole = sieve.sieve_range(0, 10000)
    assert np.array_equal(np.concatenate([p.is_prime for p in parts]),
                          whole.is_prime)
    assert np.max(np.abs(np.concatenate([p.lam for p in parts]) - whole.lam)) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2000),
       st.integers(min_value=2, max_value=997))
def test_segment_split_invariance(lo, seg):
    hi = lo + 1500
    parts = list(sieve.iter_segments(lo, hi, segment=seg))
    got = np.concatenate([p.is_prime for p in parts])
    assert np.array_equal(got, sieve.sieve_range(lo, hi).is_prime)


def test_iter_segments_rejects_tiny_segment():
    with pytest.raises(PreconditionError):
        list(sieve.iter_segments(0, 10, segment=1))


def _reference_primes(n):
    """Primes <= n from a plain list sieve, independent of psexp.sieve."""
    mark = [k >= 2 for k in range(n + 1)]
    for p in range(2, math.isqrt(n) + 1):
        if mark[p]:
            for m in range(p * p, n + 1, p):
                mark[m] = False
    return [k for k in range(n + 1) if mark[k]]


_CLASSES = ((1, 0), (2, 1), (3, 1), (3, 2), (4, 3), (5, 2), (7, 2), (10, 7),
            (12, 5), (30, 1))          # 2 lies in (1, 0), (3, 2), (5, 2), (7, 2)


def _window_edges(lo, d, segment):
    """hi on and next to the segment edges lo + j segment of a window from lo.

    One before, on, one after and one class step m = lcm(2, d) after each
    edge: the sieve cuts (lo, hi] into segments of `segment` integers.
    """
    m = d if d % 2 == 0 else 2 * d
    return sorted({lo + j * segment + i for j in (1, 2, 3) for i in (-1, 0, 1, m)})


@pytest.mark.parametrize("segment", [2, 977])
def test_slices_match_a_plain_sieve_at_slice_edges(monkeypatch, segment):
    # windows (lo, hi] with hi on and next to the integer edges lo + j
    # segment: from lo = 0 and next to 2, and from lo that puts a class
    # prime p on an edge (p - segment), just inside the window (p - 1) or
    # just outside it (p); at segment 2 every n >= 9 ends in a segment
    # shorter than its largest base prime
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", segment)
    sizes = []
    cross_off = sieve._cross_off

    def recording(lo, hi, m, *args):
        sizes.append((m, hi - lo))
        return cross_off(lo, hi, m, *args)

    monkeypatch.setattr(sieve, "_cross_off", recording)
    ns = sorted({k * segment + j for k in (1, 2, 3, 150) for j in (-1, 0, 1, 5)})
    ref = np.array(_reference_primes(154 * segment + 1000), dtype=np.int64)
    for n in ns:
        assert sieve.primes_up_to(n).tolist() == ref[ref <= n].tolist(), n
    for d, a in _CLASSES:
        cls = ref[ref % d == a % d]
        for n in ns:
            got = sieve.primes_in_ap(n + 0.5, d, a)
            assert got.dtype == np.int64
            assert got.tolist() == cls[cls <= n].tolist(), (n, d, a)
        p = int(cls[np.searchsorted(cls, 150 * segment)])
        for lo in (0, 1, 2, 3, p - segment, p - 1, p):
            for hi in _window_edges(lo, d, segment):
                blocks = list(sieve.iter_primes_in_ap(lo, hi, d, a))
                got = np.concatenate([np.zeros(0, dtype=np.int64), *blocks])
                assert all(b.dtype == np.int64 for b in blocks)
                assert np.all(np.diff(got) > 0), (lo, hi, d, a)   # ascending, disjoint
                want = cls[(cls > lo) & (cls <= hi)]
                assert got.tolist() == want.tolist(), (lo, hi, d, a)
                # one block per segment of integers, each its own segment's primes
                assert len(blocks) == (-(-(hi - lo) // segment) if hi >= 2 else 0)
                for j, b in enumerate(blocks):
                    e = lo + j * segment
                    assert b.tolist() == want[(want > e) & (want <= e + segment)].tolist()
                if lo < 2 <= hi and cls[0] == 2:
                    assert blocks[0][0] == 2
    # a segment of `segment` integers holds at most ceil(segment / m) values of k
    assert all(k <= -(-segment // m) for m, k in sizes)
    assert max(k for m, k in sizes if m == 2) == -(-segment // 2)


def test_iter_primes_in_ap_checks_before_sieving(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the sieve allocated")

    monkeypatch.setattr(sieve.np, "ones", no_allocation)
    with pytest.raises(ScaleError):
        sieve.iter_primes_in_ap(0, sieve.EXACT_CAP + 1, 3, 1)
    with pytest.raises(ScaleError):
        sieve.lambda_in_ap(0, sieve.EXACT_CAP + 1, 3, 1)
    with pytest.raises(PreconditionError):
        sieve.iter_primes_in_ap(0, 100, 6, 3)
    with pytest.raises(PreconditionError):
        sieve.iter_primes_in_ap(-1, 100, 3, 1)
    with pytest.raises(PreconditionError, match="integer"):
        sieve.iter_primes_in_ap(0, 100.5, 3, 1)
    assert list(sieve.iter_primes_in_ap(50, 50, 3, 1)) == []


def test_sieve_entries_take_d_and_a_by_the_integer_rule(monkeypatch):
    # a float d or a raised a bare TypeError; a NumPy one raised it from pow()
    # once the base primes were sieved
    for call in (lambda: sieve.primes_in_ap(100, 3.0, 1),
                 lambda: sieve.primes_in_ap(100, 3, 1.0),
                 lambda: sieve.lambda_in_ap(0, 100, 3, 1.0),
                 lambda: sieve.iter_primes_in_ap(0, 100, 3.0, 1)):
        with pytest.raises(PreconditionError, match="must be an integer in"):
            call()
    d, a = np.int64(3), np.int64(2)
    want = sieve.primes_in_ap(10 ** 4, 3, 2)
    assert sieve.primes_in_ap(10 ** 4, d, a).tobytes() == want.tobytes()
    for (n, lam), (n_int, lam_int) in zip(sieve.lambda_in_ap(np.int64(0), 10 ** 4, d, a),
                                          sieve.lambda_in_ap(0, 10 ** 4, 3, 2)):
        assert n.tobytes() == n_int.tobytes() and lam.tobytes() == lam_int.tobytes()


def test_iter_segments_names_its_segment():
    for segment in (2.5, 1, True):
        with pytest.raises(PreconditionError, match=r"segment must be an integer in \[2, inf\)"):
            list(sieve.iter_segments(0, 100, segment))
    tables = list(sieve.iter_segments(0, 100, np.int64(40)))
    assert [(t.lo, t.hi) for t in tables] == [(0, 40), (40, 80), (80, 100)]


def test_sieve_range_checks_the_cap_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("sieve_range allocated its table past the cap")

    monkeypatch.setattr(sieve.np, "zeros", no_allocation)
    with pytest.raises(ScaleError, match="exceeds the cap"):
        sieve.sieve_range(0, sieve.EXACT_CAP + 2)


def test_windows_past_the_sieve_cap_run():
    # only primes_in_ap, which holds every block at once, stops at SIEVE_CAP;
    # a window across it sieves as one below it does, 2^32 = 2^32 included
    lo, hi = sieve.SIEVE_CAP - 1000, sieve.SIEVE_CAP + 1000
    t = sieve.sieve_range(lo, hi)
    n = t.n_values()
    composite = np.zeros(n.size, dtype=bool)
    for p in _reference_primes(math.isqrt(hi)):
        composite |= n % p == 0
    assert np.array_equal(t.is_prime, ~composite)
    assert t.lam[sieve.SIEVE_CAP - lo - 1] == math.log(2)
    got = np.concatenate(list(sieve.iter_primes_in_ap(lo, hi, 3, 2)))
    assert got.tolist() == n[t.is_prime & (n % 3 == 2)].tolist()
    with pytest.raises(ScaleError):
        sieve.primes_in_ap(hi, 3, 2)


# ---------------------------------------------------------------------------
# primes in progressions

def test_primes_in_ap_matches_filter():
    got = sieve.primes_in_ap(100, 4, 1)
    want = [p for p in sieve.primes_up_to(100) if p % 4 == 1]
    assert list(got) == want
    assert list(sieve.primes_in_ap(10, 1, 0)) == [2, 3, 5, 7]
    with pytest.raises(PreconditionError):
        sieve.primes_in_ap(100, 6, 3)


# ---------------------------------------------------------------------------
# floor-sequence membership

def test_gamma_one_accepts_everything():
    assert sieve.is_ps_prime(17, 1.0)
    assert sieve.ps_mask(np.arange(1, 50), 1.0).all()
    member, f0, f1, delta = sieve.ps_floor(np.arange(1, 50), 1.0)
    assert member.all() and not f0.any() and not f1.any() and (delta == 1.0).all()


@pytest.mark.parametrize("gamma, root", [(0.5, 2), (0.75, 4)])
def test_ps_floor_matches_mpmath(gamma, root):
    # exact powers (certified, f0 = 0), their neighbours (f1 = 0 just below
    # one) and integers near 2^52, against 40-digit mpmath
    import mpmath as mp

    top = {2: [2 ** 26 - 1, 2 ** 26], 4: [2 ** 12 + 1, 2 ** 13]}[root]   # up to 2^52
    m = np.concatenate([np.arange(2, 40), top]).astype(np.int64) ** root
    near = 2 ** 52 - np.array([0, 1, 2, 3, 1000, 12345, 2 ** 20])
    n = np.unique(np.concatenate([m - 1, m, m + 1, near]))
    member, f0, f1, delta = sieve.ps_floor(n, gamma)
    with mp.workdps(40):
        g = mp.mpf(gamma)
        for i, k in enumerate(n.tolist()):
            y0, y1 = mp.mpf(k) ** g, mp.mpf(k + 1) ** g
            assert member[i] == (mp.ceil(y1) - mp.ceil(y0) >= 1), k
            for got, y in ((f0[i], y0), (f1[i], y1)):
                want = float(y - mp.floor(y))
                if want == 0.0:
                    assert got == 0.0, k
                else:
                    assert min(abs(got - want), 1 - abs(got - want)) <= 1e-12, k
            want = y1 - y0
            assert abs(mp.mpf(float(delta[i])) - want) <= 4 * np.spacing(float(want)), k


def test_membership_matches_forward_enumeration():
    # the floor-sequence {[n^(1/g)]} built directly at 50 digits must produce
    # exactly the accepted set; gamma means its exact dyadic float value here
    # as everywhere else in the package
    import mpmath as mp

    N, g = 500, 0.8
    with mp.workdps(50):
        inv_g = 1 / mp.mpf(g)
        members = set()
        n = 1
        while True:
            p = int(mp.floor(mp.mpf(n) ** inv_g))
            if p > N:
                break
            members.add(p)
            n += 1
    for p in range(1, N + 1):
        assert sieve.is_ps_prime(p, g) == (p in members), p


def test_mask_agrees_with_scalar_path():
    n = sieve.primes_up_to(20000)
    mask = sieve.ps_mask(n, 0.9)
    scattered = n[::97]
    for p in scattered:
        assert sieve.is_ps_prime(int(p), 0.9) == bool(mask[np.searchsorted(n, p)])


def test_membership_count_matches_frozen_oracle(oracles):
    ref = oracles["ps_count"]
    gamma = float(ref["gamma"])
    ps = sieve.primes_up_to(ref["x"])
    assert int(sieve.ps_mask(ps, gamma).sum()) == ref["count"]


def test_membership_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        sieve.is_ps_prime(0, 0.9)
    with pytest.raises(PreconditionError):
        sieve.is_ps_prime(5, 1.5)
    with pytest.raises(PreconditionError):
        sieve.ps_mask(np.array([0, 3]), 0.9)
    for gamma in (0.0, -0.5, 1.5):
        with pytest.raises(PreconditionError, match=r"gamma must be a finite real in \(0, 1\]"):
            sieve.ps_floor(np.array([5]), gamma)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_membership_scalar_vector_agreement(p):
    assert sieve.ps_mask(np.array([p]), 0.95)[0] == sieve.is_ps_prime(p, 0.95)


def test_uncertifiable_floor_raises_boundary_error_on_both_paths(monkeypatch):
    # 4^gamma = 2 + 3.2e-10: near an integer but not one, so the vector kernel
    # (as {(n+1)^gamma} at n = 3 and as {n^gamma} at n = 4) and the scalar
    # test certify it; with a one-step 16-bit ladder that cannot succeed
    gamma = 0.5 + 2.0 ** -33
    assert sieve._certified_floor_frac(4, gamma)[0] == 2
    monkeypatch.setattr(sieve, "_CERTIFY_BITS", (16,))
    with pytest.raises(BoundaryError):
        sieve.ps_mask(np.array([3]), gamma)
    with pytest.raises(BoundaryError):
        sieve.ps_floor(np.array([4]), gamma)
    with pytest.raises(BoundaryError):
        sieve.is_ps_prime(4, gamma)


def root_by_bisection(m, den):
    """The largest r >= 1 with r^den <= m, by bisection on exact integers."""
    def at_most_m(r):
        # r >= 2^(bits - 1), so r^den > m once (bits - 1) den > bit length of m
        return (r.bit_length() - 1) * den <= m.bit_length() and r ** den <= m
    lo, hi = 1, 2 ** (m.bit_length() // den + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if at_most_m(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("gamma", [0.5, 0.75, 0.625, 0.9375, 63 / 64, 129 / 256,
                                   1 - 2.0 ** -52])
def test_exact_integer_power_matches_bisection(gamma):
    # integer arithmetic only: perfect 2^s-th powers up to and past 2^53, their
    # neighbours, and small and random m, for s = 1 .. 8 and 52
    num, den = gamma.as_integer_ratio()
    top = root_by_bisection(2 ** 53, den)
    roots = {r for r in (1, 2, 3, top - 1, top, top + 1, top + 2)
             if r >= 1 and (r - 1).bit_length() * den <= 1024}     # no 2^(2^52)
    ms = {r ** den + e for r in roots for e in (-1, 0, 1)}
    ms |= set(range(1, 300)) | set(np.random.default_rng(7).integers(1, 2 ** 53, 50).tolist())
    for m in sorted(v for v in ms if v >= 1):
        r = root_by_bisection(m, den)
        want = r ** num if r ** den == m else None
        assert sieve._exact_integer_power(m, gamma) == want, m
