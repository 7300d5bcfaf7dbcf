"""The fused anchored kernel dd_scaled_frac against dd_pow_int and mpmath."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psexp import ddmath as dm
from psexp import sieve
from psexp.errors import PreconditionError
from psexp.numerics import PHASE_BUDGET, PHASE_CAP, T_CAP


def circle_gap(a, b):
    """Distance between the fractional parts of two pairs, on the circle."""
    (ahi, alo), (bhi, blo) = dm.dd_frac(*a), dm.dd_frac(*b)
    d = np.abs((ahi + alo) - (bhi + blo))
    return np.minimum(d, 1.0 - d)


def oracle(n, c, t):
    return dm.dd_mul_d(*dm.dd_pow_int(np.asarray(n, dtype=np.int64), c), t)


def scaled(n, c, t, **kw):
    """The kernel's {t n^c} pair, without its peak."""
    return dm.dd_scaled_frac(n, c, t, **kw)[:2]


def mp_gap(n, c, t, pair):
    """Distance from {t n^c} at 60 digits to the fractional part of the pair."""
    with mpmath.workdps(60):
        exact = mpmath.mpf(t) * mpmath.mpf(int(n)) ** mpmath.mpf(c)
        got = mpmath.mpf(float(pair[0])) + mpmath.mpf(float(pair[1]))
        d = abs(float((got - exact) - mpmath.nint(got - exact)))
    return d


@settings(max_examples=80, deadline=None)
@given(size=st.floats(min_value=0.0, max_value=69.9), c=st.floats(min_value=0.05, max_value=2.0),
       t=st.floats(min_value=1e-3, max_value=T_CAP), sign=st.sampled_from([1.0, -1.0]))
def test_agrees_with_dd_pow_int(size, c, t, sign):
    # 200 consecutive n from the one where |t n^c| ~ 2^size
    n0 = int(2.0 ** min(max((size - math.log2(t)) / c, 0.0), 52.0))
    ns = np.arange(n0, n0 + 200, dtype=np.int64)
    top = t * float(ns[-1]) ** c
    assume(top < PHASE_CAP)
    gap = float(np.max(circle_gap(scaled(ns, c, sign * t), oracle(ns, c, sign * t))))
    assert gap <= (1e-12 if top <= 2.0 ** 53 else PHASE_BUDGET)


@pytest.mark.parametrize("c", [0.5, 0.75, 0.995, 1.05, 1.45, 1.99])
def test_powers_of_two_are_anchors(c):
    # n = 2^k keeps its own bits as anchor: the value is dd_pow_int's, bit for bit
    n = 2 ** np.arange(0, 40, dtype=np.int64)
    n = n[0.5 * n.astype(float) ** c < PHASE_CAP]
    hi, lo = scaled(n, c, 0.5)
    ohi, olo = dm.dd_frac(*oracle(n, c, 0.5))
    assert np.array_equal(hi, ohi) and np.array_equal(lo, olo)
    near = np.concatenate([n[2:] - 1, n[2:] + 1])
    gap = circle_gap(scaled(near, c, 0.5), oracle(near, c, 0.5))
    small = 0.5 * near.astype(float) ** c <= 2.0 ** 53
    assert np.max(gap[small]) <= 1e-12 and np.max(gap) <= PHASE_BUDGET


@pytest.mark.parametrize("c", [0.5, 0.75, 0.995, 1.0])
def test_near_two_to_the_52(c):
    n = 2 ** 52 - np.array([1, 2, 3, 1000, 123457, 2 ** 26 + 5], dtype=np.int64)
    pair = scaled(n, c, 1.5)
    assert np.max(circle_gap(pair, oracle(n, c, 1.5))) <= 1e-12
    for i in (0, 3, 5):
        assert mp_gap(n[i], c, 1.5, (pair[0][i], pair[1][i])) <= 1e-12


@pytest.mark.parametrize("t", [T_CAP, -T_CAP])
@pytest.mark.parametrize("c", [0.75, 1.05, 1.4])
def test_at_the_t_cap(t, c):
    top = min((PHASE_CAP / T_CAP) ** (1.0 / c) / 2, 2.0 ** 52)
    n = np.unique(np.geomspace(2, top, 300).astype(np.int64))
    *pair, peak = dm.dd_scaled_frac(n, c, t)
    assert peak < PHASE_CAP
    assert np.max(circle_gap(pair, oracle(n, c, t))) <= PHASE_BUDGET
    assert mp_gap(n[-1], c, t, (pair[0][-1], pair[1][-1])) <= PHASE_BUDGET


def test_mpmath_at_the_documented_limit():
    # the docstring's claim: n up to 2^52, and ~1e-10 with |t n^c| up to 2^69.9
    rng = np.random.default_rng(7)
    cases = [(2 ** 52 - int(k), 1.34, 1.0) for k in rng.integers(1, 2 ** 30, 4)]
    cases += [(int(k), 1.9, T_CAP) for k in rng.integers(8 * 10 ** 7, 8.3 * 10 ** 7, 4)]
    for n, c, t in cases:
        *pair, peak = dm.dd_scaled_frac(np.array([n]), c, t)
        assert peak > 2.0 ** 69
        assert mp_gap(n, c, t, (pair[0][0], pair[1][0])) <= 1e-10


def test_sqrt_pair_matches_mpmath_and_is_exact_at_squares():
    rng = np.random.default_rng(11)
    n = np.concatenate([rng.integers(1, 2 ** 53, 40), [1, 2, 3, 2 ** 52 - 1, 2 ** 53 - 1]])
    hi, lo = dm.dd_sqrt_int(n)
    with mpmath.workdps(60):
        for v, a, b in zip(n, hi, lo):
            exact = mpmath.sqrt(int(v))
            assert abs(mpmath.mpf(float(a)) + float(b) - exact) <= 2.0 ** -104 * exact
    m = np.concatenate([np.arange(1, 5000), [2 ** 26 - 1, 94906265]]).astype(np.int64)
    hi, lo = dm.dd_sqrt_int(m * m)
    assert np.array_equal(hi, m.astype(np.float64)) and not lo.any()
    fhi, flo, peak = dm.dd_scaled_frac(m * m, 0.5, 3.0)
    assert not fhi.any() and not flo.any() and peak == 3.0 * float(m.max())


@pytest.mark.parametrize("gamma, root", [(0.5, 2), (0.75, 4)])
def test_exact_powers_stay_certified(gamma, root):
    # m^root has an integer gamma-th power; its neighbours sit just off one
    m = np.arange(2, 3000, dtype=np.int64)
    centre = m ** root
    centre = centre[centre < 2 ** 52]
    n = np.unique(np.concatenate([centre - 1, centre, centre + 1]))
    num, den = (1, 2) if gamma == 0.5 else (3, 4)

    def ceil_pow(v):
        r = sieve._exact_integer_power(int(v), gamma)
        if r is not None:
            return r
        y = int(v) ** num
        floor = math.isqrt(math.isqrt(y)) if den == 4 else math.isqrt(y)
        return floor + 1

    want = [ceil_pow(v + 1) - ceil_pow(v) >= 1 for v in n]
    assert sieve.ps_mask(n, gamma).tolist() == want
    member, f0, f1, _ = sieve.ps_floor(n, gamma)
    assert member.tolist() == want
    assert not f0[np.isin(n, centre)].any()         # {centre^gamma} = 0 exactly
    assert not f1[np.isin(n + 1, centre)].any()
    assert f0[~np.isin(n, centre)].all()


@settings(max_examples=40, deadline=None)
@given(ns=st.lists(st.integers(min_value=1, max_value=2 ** 36), min_size=1, max_size=40),
       c=st.floats(min_value=0.05, max_value=1.5), t=st.floats(min_value=-1e3, max_value=1e3),
       cut=st.integers(min_value=0, max_value=40),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_each_value_depends_only_on_its_own_n(ns, c, t, cut, seed):
    n = np.array(ns, dtype=np.int64)
    cut = min(cut, n.size)
    whole = scaled(n, c, t)
    alone = [scaled(n[i:i + 1], c, t) for i in range(n.size)]
    perm = np.random.default_rng(seed).permutation(n.size)
    shuffled = scaled(n[perm], c, t)
    split = [np.concatenate(parts) for parts in zip(scaled(n[:cut], c, t), scaled(n[cut:], c, t))]
    for part in (0, 1):
        assert np.array_equal(whole[part], [a[part][0] for a in alone])
        assert np.array_equal(whole[part][perm], shuffled[part])
        assert np.array_equal(whole[part], split[part])


def test_chunking_does_not_change_values(monkeypatch):
    n = np.arange(10 ** 6, 10 ** 6 + 3 * dm._CHUNK + 17, dtype=np.int64)
    whole = scaled(n, 1.05, 0.5)
    monkeypatch.setattr(dm, "_CHUNK", 1000)
    again = scaled(n, 1.05, 0.5)
    assert np.array_equal(whole[0], again[0]) and np.array_equal(whole[1], again[1])


def _bytes(out):
    hi, lo, peak = out
    return hi.tobytes() + lo.tobytes(), peak


@pytest.mark.parametrize("size", [0, 1, dm._CHUNK - 1, dm._CHUNK, dm._CHUNK + 1,
                                  3 * dm._CHUNK + 5])
def test_splits_are_byte_equal(size):
    # any split of n gives the concatenated values and the larger of the peaks
    rng = np.random.default_rng(size)
    base = np.sort(rng.integers(1, 2 ** 40, size))
    for n in (base, rng.permutation(base), np.repeat(base[: size // 3 + 1], 3)[:size]):
        whole = _bytes(dm.dd_scaled_frac(n, 1.05, 0.5))
        for cut in {0, 1, size // 2, dm._CHUNK, size}:
            a, b = dm.dd_scaled_frac(n[:cut], 1.05, 0.5), dm.dd_scaled_frac(n[cut:], 1.05, 0.5)
            joined = (np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1]]), max(a[2], b[2]))
            assert _bytes(joined) == whole


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 0.995, 1.05, 1.45])
@pytest.mark.parametrize("t, t_max", [(0.5, None), (1.0, None), (-3.0, None), (1.0, 32.0),
                                      (0.25, 1000.0)])
def test_table_path_is_the_per_call_path(c, t, t_max):
    n_max = 3 * 10 ** 6
    table = dm.anchor_table(n_max, c, t, t_max)
    if c in (0.5, 1.0, 2.0):
        assert table is None                             # every n is its own anchor
    elif t_max is None:
        assert table is not None and table.n0.size < n_max // 64
    rng = np.random.default_rng(5)
    n = np.concatenate([np.arange(1, 600), np.sort(rng.integers(1, n_max + 1, 3 * dm._CHUNK)),
                        rng.integers(1, n_max + 1, 500), [n_max]]).astype(np.int64)
    for part in (n, n[:3], n[-700:], n[600:]):
        want = _bytes(dm.dd_scaled_frac(part, c, t, t_max))
        assert _bytes(dm.dd_scaled_frac(part, c, t, t_max, table=table)) == want


def test_a_table_serves_only_its_own_parameters():
    table = dm.anchor_table(10 ** 6, 1.05, 0.5)
    assert table.n0[0] == 1 and table.n0[-1] <= 10 ** 6
    assert np.all(np.diff(table.n0) > 0)
    dm.dd_scaled_frac(np.array([10 ** 6]), 1.05, 0.5, table=table)
    for n, c, t, t_max in [(10 ** 6 + 1, 1.05, 0.5, None), (10 ** 4, 1.06, 0.5, None),
                           (10, 1.05, 0.25, None), (10, 1.05, 0.5, 2.0)]:
        with pytest.raises(PreconditionError):
            dm.dd_scaled_frac(np.array([n]), c, t, t_max, table=table)
    for n_max in (2 ** 53, 2 ** 64):                 # past the kernel's n < 2^53
        with pytest.raises(PreconditionError):
            dm.anchor_table(n_max, 1.05, 0.5)


def pair_path_frac(xhi, xlo):
    """{x} by the pair subtraction x - floor(x) for every element: dd_frac as it
    was before its one-step path, less the hi-only range guards, kept here as an
    independent oracle."""
    fhi = np.floor(xhi)
    flo = np.where(xhi == fhi, np.floor(xlo), 0.0)
    fhi, flo = dm.quick_two_sum(fhi, flo)
    s1, s2 = dm.two_sum(xhi, -fhi)
    t1, t2 = dm.two_sum(xlo, -flo)
    s1, s2 = dm.quick_two_sum(s1, s2 + t1)
    return dm.quick_two_sum(s1, s2 + t2)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _frac_grid():
    """Kernel outputs, an edge grid and random pairs: (hi, lo) arrays."""
    rng = np.random.default_rng(3)
    pairs = [oracle(rng.integers(1, 2 ** 40, 20_000), c, t)
             for c, t in [(1.05, 0.5), (0.995, -1.0), (1.45, -3.0), (0.75, 1e-3), (1.9, 1e4),
                          (0.5, -2.0), (1.0, -0.5)]]
    # integral hi, hi in (-1, 0), lo = +-0.0, |hi| near 2^52, hi below |lo| (whose sum
    # is negative on the one-step path), each against lo of either sign
    edge_hi = [0.0, -0.0, 1.0, -1.0, 5.0, -5.0, 2.0 ** 52, -2.0 ** 52, 2.0 ** 52 - 0.5,
               -(2.0 ** 52 - 0.5), 2.0 ** 53, 2.0 ** 51 + 0.5, -0.5, -1e-300,
               -0.9999999999999999, 0.9999999999999999, 0.25, -1.5, 1.5, 2.0 ** -60,
               -2.0 ** -60]
    edge_lo = [0.0, -0.0, 1e-17, -1e-17, 2.0 ** -60, -2.0 ** -60, 5e-324, -5e-324]
    grid = np.meshgrid(edge_hi, edge_lo)
    hi = np.concatenate([p[0] for p in pairs] + [grid[0].ravel(), rng.uniform(-3, 3, 5000)])
    lo = np.concatenate([p[1] for p in pairs]
                        + [grid[1].ravel(), rng.uniform(-1, 1, 5000) * 2.0 ** -54])
    return hi, lo


def test_frac_is_the_pair_subtraction_bit_for_bit():
    hi, lo = _frac_grid()
    want, got = pair_path_frac(hi, lo), dm.dd_frac(hi, lo)
    assert _same_bits(got[0], want[0])
    assert _same_bits(got[1], want[1])
    assert _same_bits(dm.dd_frac(0.25, -0.0)[1], 0.0)          # lo's -0.0 comes out +0.0
    for h, l in [(2.5, 0.0), (-0.25, 1e-18), (3.0, -1e-17),     # scalars and broadcasts too
                 (np.array([1.5, 2.0, -0.5, -1.0]), 0.0), (2.0, np.array([1e-20, -1e-20]))]:
        want = np.broadcast_arrays(*pair_path_frac(h, l))
        assert all(_same_bits(a, b) for a, b in zip(dm.dd_frac(h, l), want))


@pytest.mark.parametrize("c, t, t_max", [(1.05, 0.5, None), (0.995, 1.0, None),
                                         (1.45, -3.0, None), (0.75, 1.0, 32.0)])
def test_rows_are_found_by_arithmetic(c, t, t_max):
    n_max = 3 * 10 ** 6 + 7
    table = dm.anchor_table(n_max, c, t, t_max)
    shifts = dm._anchor_shifts(c, t if t_max is None else t_max, dm._binomials(c))
    edges = [v for L in range(1, n_max.bit_length() + 1)
             for v in ((1 << L) - 1, 1 << L, (1 << L) + 1)]
    n = np.array(sorted({v for v in edges if v <= n_max} | {n_max}), dtype=np.int64)
    n0, rows = dm._anchors(n, shifts, table.offset)
    assert np.array_equal(rows, np.searchsorted(table.n0, n0))   # the search, as oracle
    assert np.array_equal(table.n0[rows], n0)


def test_split_product_is_two_prod():
    table = dm.anchor_table(10 ** 7, 1.05, 0.5)
    rng = np.random.default_rng(9)
    j = rng.integers(0, table.n0.size, 5000)
    k = np.concatenate([[0, 1, 2 ** 26 - 1], rng.integers(0, 2 ** 26, 4997)]).astype(np.float64)
    want = dm.dd_mul_d(table.d_hi[j], table.d_lo[j], k)      # two_prod with its own split
    got = dm._d1_times(table, j, k)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def _edge_floats():
    """+-0, subnormals, values near overflow and random values of every binade."""
    rng = np.random.default_rng(11)
    fmax = np.finfo(np.float64).max
    edges = [0.0, 5e-324, 1e-320, 2.0 ** -1022, 2.0 ** -1000, 1.0, 1.5, 3.0, 2.0 ** 26 + 1,
             2.0 ** 27 - 1, 2.0 ** 52 + 1, 2.0 ** 511, 2.0 ** 512, 1e154, 1e200, 2.0 ** 996,
             2.0 ** 997, 1e300, fmax / 2 ** 27, fmax, np.inf]
    wide = rng.uniform(1.0, 2.0, 20_000) * 2.0 ** rng.integers(-1074, 1024, 20_000)
    return np.concatenate([edges, np.negative(edges), wide, -wide[:5000]])


def test_pair_square_is_dd_mul_bit_for_bit():
    # the square formula dd_mul took over: two_prod(hi, hi), then e + 2 (hi lo)
    x = _edge_floats()
    grid = np.meshgrid(x[:42], x[:42])
    rng = np.random.default_rng(12)
    small = x[42:] * rng.uniform(-1, 1, x.size - 42) * 2.0 ** -53
    hi = np.concatenate([grid[0].ravel(), x[42:], x[42:]])
    lo = np.concatenate([grid[1].ravel(), small, rng.permutation(x[42:])])
    with np.errstate(all="ignore"):
        p, e = dm.two_prod(hi, hi)
        want = dm.quick_two_sum(p, e + 2.0 * (hi * lo))
        got = dm.dd_mul(hi, lo, hi, lo)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def test_split_is_the_dekker_split_two_prod_wrote_inline():
    a = _edge_floats()
    b = np.random.default_rng(13).permutation(a)
    with np.errstate(all="ignore"):
        def split(v):
            vv = 134217729.0 * v                    # 2^27 + 1
            v_hi = vv - (vv - v)
            return v_hi, v - v_hi

        got = dm._split(a)
        (ahi, alo), (bhi, blo) = split(a), split(b)
        p = a * b
        e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
        prod = dm.two_prod(a, b)
    assert _same_bits(got[0], ahi) and _same_bits(got[1], alo)
    assert _same_bits(prod[0], p) and _same_bits(prod[1], e)
    table = dm.anchor_table(10 ** 7, 1.05, 0.5)
    assert all(_same_bits(u, v) for u, v in zip(table.d_split, split(table.d_hi)))


def test_frac_value_is_exact_and_in_the_unit_interval():
    # for pairs (hi = fl(hi + lo)): the exact value is x - floor(x) to 2^-104 and lies
    # in [0, 1); hi lies in [0, 1], and reaches 1.0 only with a negative lo
    rng = np.random.default_rng(8)
    wide = rng.uniform(-4.0, 4.0, 4000) * 2.0 ** rng.integers(-60, 52, 4000)
    near = np.rint(wide[:2000])                      # just below and above integers
    grid_hi, grid_lo = _frac_grid()
    hi = np.concatenate([grid_hi, wide, near])
    lo = np.concatenate([grid_lo, rng.uniform(-0.5, 0.5, 4000) * np.spacing(wide),
                         rng.uniform(-0.5, 0.5, 2000) * 2.0 ** -60])
    keep = hi + lo == hi
    hi, lo = hi[keep], lo[keep]
    fhi, flo = dm.dd_frac(hi, lo)
    assert np.all((fhi >= 0.0) & (fhi <= 1.0)) and np.all(flo[fhi == 1.0] < 0.0)
    for xh, xl, rh, rl in zip(hi.tolist(), lo.tolist(), fhi.tolist(), flo.tolist()):
        x, value = Fraction(xh) + Fraction(xl), Fraction(rh) + Fraction(rl)
        assert 0 <= value < 1 and abs(value - (x - math.floor(x))) <= Fraction(1, 2 ** 104)
    assert dm.dd_frac(2.0, -1e-20) == (1.0, -1e-20)
    assert dm.dd_frac(-1e-300, 0.0) == (1.0, -1e-300)


def test_anchor_width_is_capped_at_the_split():
    # c over (0, 2] and |t_max| from 1e-6 to T_CAP: every k = n - n0 stays below 2^26
    widest = {int(dm._anchor_shifts(c, w, dm._binomials(c)).max())
              for c in np.linspace(0.01, 2.0, 200).tolist() + [0.995, 1.05]
              for w in np.concatenate([np.geomspace(1e-6, T_CAP, 25), [-1e-3, -T_CAP]])}
    assert max(widest) == dm._SPLIT_BITS == 26


@pytest.mark.parametrize("c, t", [(1.05, 0.5), (0.995, 1e-3), (0.75, -1e-3)])
def test_a_wide_n_moves_no_other_bits_and_stays_accurate_near_2_52(c, t):
    # n up to 2^24 alone and with one n near 2^52, where the anchor width reaches its
    # 2^26 cap; the values near 2^52 against dd_pow_int and mpmath
    shifts = dm._anchor_shifts(c, t, dm._binomials(c))
    assert shifts[52] == dm._SPLIT_BITS
    rng = np.random.default_rng(4)
    small = np.sort(rng.integers(1, 2 ** 24, 3 * dm._CHUNK + 11))
    wide = np.append(small, 2 ** 52 - 12345)
    assert all(_same_bits(a, b[:-1]) for a, b in zip(scaled(small, c, t), scaled(wide, c, t)))
    far = 2 ** 52 - np.arange(1, 2000, 7, dtype=np.int64)
    pair = scaled(far, c, t)
    assert np.max(circle_gap(pair, oracle(far, c, t))) <= 1e-12
    for i in (0, 100, far.size - 1):
        assert mp_gap(far[i], c, t, (pair[0][i], pair[1][i])) <= 1e-12
