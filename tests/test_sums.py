"""Prime sums, the two-term decomposition, main terms, trend machinery.

High-precision reference values live in data/sum_oracles.json; the script
tools/gen_sum_oracles.py regenerates them without importing this package.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from psexp import ddmath as dm
from psexp import heathbrown as hb
from psexp import numerics, sieve, sums
from psexp.errors import PreconditionError, ScaleError
from psexp.numerics import (Parameters, e_of, e_of_frac_vec, phase_mod1,
                            phase_mod1_vec, psi)

from conftest import as_complex


def params_from(ref, **extra):
    """Parameters out of an oracle record (strings are exact decimals)."""
    kw = dict(x=float(ref["x"]), c=float(ref.get("c", "1.1")),
              gamma=float(ref.get("gamma", "0.9")), t=float(ref.get("t", 0)),
              d=int(ref.get("d", 1)), a=int(ref.get("a", 0)))
    kw.update(extra)
    return Parameters(**kw)


# ---------------------------------------------------------------------------
# accumulator and report plumbing

def test_accumulator_matches_fsum():
    rng = np.random.default_rng(3)
    zs = (rng.normal(size=4000) + 1j * rng.normal(size=4000)) * 10.0 ** rng.integers(-8, 8, 4000)
    acc = sums.ComplexAccumulator()
    acc.add_array(np.asarray(zs, dtype=np.complex128))
    want = complex(math.fsum(z.real for z in zs), math.fsum(z.imag for z in zs))
    assert abs(acc.value - want) <= 1e-9 * (1 + abs(want))


def test_accumulator_tracks_term_count():
    acc = sums.ComplexAccumulator()
    acc.add(1 + 1j)
    acc.add_array(np.ones(5, dtype=np.complex128))
    assert acc.count == 6
    assert acc.value == 6 + 1j


def test_sum_report_invariant():
    rep = sums.SumReport(value=3 + 4j, n_terms=10, phase_error_bound=1e-6)
    assert rep.invariant_ok
    bad = sums.SumReport(value=20 + 0j, n_terms=10, phase_error_bound=1e-6)
    assert not bad.invariant_ok


# ---------------------------------------------------------------------------
# plain prime sums

def test_pi_sum_counts_primes_when_phase_is_trivial():
    p = Parameters(x=1000.0, c=1.1, gamma=0.9, t=0.0, d=3, a=1)
    rep = sums.pi_sum(p)
    want = len(sieve.primes_in_ap(1000.0, 3, 1))
    assert rep.value == complex(want)
    assert rep.n_terms == want
    assert rep.invariant_ok


def test_pi_sum_matches_frozen_oracle(oracles):
    ref = oracles["pi_sum"]
    rep = sums.pi_sum(params_from(ref))
    assert rep.n_terms == ref["n_terms"]
    assert abs(rep.value - as_complex(ref["value"])) <= rep.phase_error_bound


def test_pi_sum_is_deterministic(oracles):
    ref = oracles["pi_sum"]
    a = sums.pi_sum(params_from(ref)).value
    b = sums.pi_sum(params_from(ref)).value
    assert a == b


def test_pi_sum_order_independence(oracles):
    # a direct unordered resummation must land within the recorded bound
    ref = oracles["pi_sum"]
    p = params_from(ref)
    rep = sums.pi_sum(p)
    ps = [int(q) for q in sieve.primes_in_ap(p.x, p.d, p.a)]
    random.Random(11).shuffle(ps)
    direct = sum(complex(e_of(phase_mod1(p.t, q, p.c_float))) for q in ps)
    assert abs(direct - rep.value) <= rep.phase_error_bound + 1e-10


def test_pi_gamma_sum_matches_frozen_oracle(oracles):
    ref = oracles["pi_gamma_sum"]
    rep = sums.gamma_decomposition(params_from(ref)).pi_gamma
    assert rep.n_terms == ref["n_terms"]
    assert abs(rep.value - as_complex(ref["value"])) <= rep.phase_error_bound


def test_pi_gamma_counts_membership_when_phase_is_trivial(oracles):
    ref = oracles["pi_gamma_sum"]
    p = params_from(ref, t=0.0)
    rep = sums.gamma_decomposition(p).pi_gamma
    assert rep.value == complex(ref["n_terms"])


# ---------------------------------------------------------------------------
# the two-term decomposition

def test_decomposition_identity_small(oracles):
    ref = oracles["gamma12"]
    p = Parameters(x=float(ref["x"]), c=1.1, gamma=float(ref["gamma"]), t=0.0)
    dec = sums.gamma_decomposition(p)
    assert dec.mask_mismatches == 0
    assert dec.identity_ok
    assert dec.identity_gap <= 1e-12
    assert dec.pi_gamma.value == complex(ref["pi_gamma"])
    assert abs(dec.gamma1 - float(ref["gamma1"])) <= 1e-9
    assert abs(dec.gamma2 - float(ref["gamma2"])) <= 1e-9


def test_decomposition_identity_with_phases():
    p = Parameters(x=10 ** 4, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    dec = sums.gamma_decomposition(p)
    assert dec.mask_mismatches == 0
    assert dec.identity_gap <= 1e-10            # far below the contract bound
    assert dec.identity_gap <= dec.tolerance
    assert dec.tolerance == 1e-8 * (1.0 + dec.weight_sum)


@pytest.mark.parametrize("gamma", [0.9, 0.995])
def test_pass_membership_matches_is_ps_prime(gamma):
    # a checkpoint at every prime: successive pi_gamma term counts are the
    # decomposition side's own indicator, prime by prime
    ps = sieve.primes_in_ap(2e4, 1, 0)
    p = Parameters(x=2e4, c=1.05, gamma=gamma, t=0.5)
    (reps,) = sums._walk(p, ps.astype(float), lambda top: [sums._decomposition_side(p, top)])
    kept = np.diff([0] + [r.pi_gamma.n_terms for r in reps])
    assert kept.tolist() == [int(sieve.is_ps_prime(int(q), gamma)) for q in ps]
    assert all(r.mask_mismatches == 0 and r.identity_ok for r in reps)


def test_decomposition_degenerates_at_gamma_one():
    p = Parameters(x=3000.0, c=1.1, gamma=1.0, t=0.25, d=1, a=0)
    dec = sums.gamma_decomposition(p)
    pi = sums.pi_sum(p)
    assert dec.gamma2 == 0.0 + 0.0j
    assert dec.gamma1 == dec.pi_gamma.value
    assert abs(dec.pi_gamma.value - pi.value) <= 1e-12


# ---------------------------------------------------------------------------
# main term

def test_rhs_main_matches_frozen_oracle(oracles):
    ref = oracles["rhs_main"]
    pair = sums.rhs_main(params_from(ref))
    want = as_complex(ref["value"])
    assert abs(pair.closed_form - want) <= 1e-8 * (1 + abs(want))
    assert pair.rel_gap <= 1e-6
    assert not pair.flagged
    assert pair.value == pair.closed_form


def test_rhs_main_dual_routes_agree_tightly():
    for c, g, t, d, a in ((1.05, 0.995, 0.5, 3, 1), (1.2, 0.9, -2.0, 1, 0),
                          (1.1, 0.5, 0.0, 4, 3)):
        p = Parameters(x=10 ** 4, c=c, gamma=g, t=t, d=d, a=a)
        pair = sums.rhs_main(p)
        assert pair.rel_gap <= 1e-9, (c, g, t)


def test_rhs_main_empty_progression():
    p = Parameters(x=2.0, c=1.1, gamma=0.9, t=0.5, d=3, a=1)
    pair = sums.rhs_main(p)
    assert pair.closed_form == 0j and pair.quadrature == 0j
    assert not pair.flagged


def test_rhs_main_degenerate_gamma_one():
    # gamma = 1: the weight (x^(g-1) etc.) collapses and both routes give
    # exactly the number of primes when t = 0
    p = Parameters(x=500.0, c=1.1, gamma=1.0, t=0.0, d=1, a=0)
    pair = sums.rhs_main(p)
    count = len(sieve.primes_up_to(500))
    assert abs(pair.closed_form - count) <= 1e-9
    assert pair.rel_gap <= 1e-9


@pytest.mark.parametrize("x", [13, 10007, 1000003])
def test_rhs_main_at_a_prime_x(x):
    # x itself is the last prime: its term is in pi(x) though the tail
    # piece [x, x] of the step function has length zero
    p = Parameters(x=float(x), c=1.05, gamma=0.995, t=0.5, d=1, a=0)
    assert sieve.primes_in_ap(p.x, 1, 0)[-1] == x
    pair = sums.rhs_main(p)
    assert pair.rel_gap <= 1e-9
    assert not pair.flagged


@pytest.mark.parametrize("gamma", [0.5, 0.9995, 1.0])
@pytest.mark.parametrize("lo, hi", [(2.0, 3.0), (1_000_003.0, 1_000_033.0),
                                    (9_999_991.0, 9_999_991.5), (2.0, 1e7),
                                    (7.0, 7.0)])
def test_step_integral_matches_mpmath(gamma, lo, hi):
    mpmath = pytest.importorskip("mpmath")
    got = sums._step_integral(np.array([lo]), hi, gamma, np.power([lo], gamma - 1.0))[0]
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        pts = [mpmath.mpf(lo)] + [mpmath.mpf(10) ** k for k in range(1, 8)
                                  if lo < 10 ** k < hi] + [mpmath.mpf(hi)]
        want = mpmath.quad(lambda y: y ** (g - 2), pts)
    assert abs(got - float(want)) <= 1e-14 * abs(float(want))


# ---------------------------------------------------------------------------
# theorem-facing reports

def test_theorem_check_region_gate():
    outside = Parameters(x=1000.0, c=1.3, gamma=0.8, t=0.0)
    assert not outside.region_ok
    with pytest.raises(PreconditionError):
        sums.theorem_trend(outside, [outside.x])
    rep = sums.theorem_trend(outside, [outside.x], allow_outside=True).rows[0]
    assert rep.abs_err == abs(rep.lhs - rep.main)


def test_theorem_report_fields():
    p = Parameters(x=10 ** 4, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    rep = sums.theorem_trend(p, [p.x]).rows[0]
    assert rep.x == p.x
    assert 0.973 < rep.claimed_exponent < 0.974
    assert rep.ratio_err_main == rep.abs_err / abs(rep.main)
    assert rep.err_over_x_gamma == rep.abs_err / p.x ** p.gamma_float
    assert rep.log_err_over_log_x == math.log(rep.abs_err) / math.log(p.x)


def _row_values(dec, pair):
    """Every computed field of one x, without the wall-clock ones."""
    pg = dec.pi_gamma
    return (pg.value, pg.n_terms, pg.phase_error_bound, dec.gamma1, dec.gamma2,
            dec.identity_gap, dec.weight_sum, dec.mask_mismatches,
            pair.quadrature, pair.closed_form, pair.rel_gap, pair.flagged)


@pytest.mark.parametrize("seed", range(3))
def test_trend_rows_are_bitwise_one_point_runs(monkeypatch, seed):
    # a 16-prime block puts checkpoints on, just before and just after block
    # edges; x = 5 has no prime = 1 (mod 3) at all
    monkeypatch.setattr(sums, "BLOCK", 16)
    p = Parameters(x=2000.0, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    ps = sieve.primes_in_ap(2000.0, 3, 1)
    rng = random.Random(seed)
    pool = ([5.0] + [float(ps[k]) for k in (15, 16, 31, 47)]
            + [float(ps[k]) + 0.5 for k in (15, 32)] + [2000.0])
    xs = [rng.choice(pool) for _ in range(4)] + [rng.uniform(2.0, 2000.0)
                                                  for _ in range(3)]
    xs += xs[:2]                     # duplicates, and the order is not sorted
    trend = sums.theorem_trend(p, xs)
    assert [r.x for r in trend.rows] == xs
    for r, x in zip(trend.rows, xs):
        one = sums.theorem_trend(p, [x]).rows[0]
        px = replace(p, x=x)
        want = _row_values(sums.gamma_decomposition(px), sums.rhs_main(px))
        assert _row_values(r.decomposition, r.main_term) == want
        assert _row_values(one.decomposition, one.main_term) == want
        assert (r.lhs, r.main, r.err) == (one.lhs, one.main, one.err)
        assert r.params == px


def test_trend_sieves_once(monkeypatch):
    # one pass of the progression sieve over the class 1 (mod 6) up to 1e5,
    # one kernel call per 5000 integers (e, e + 5000] on the k with
    # e < 1 + 6 k <= e + 5000; the base primes up to sqrt(1e5) come from the
    # odd class 1 (mod 2) and do not count as a second sieve
    calls = []
    cross_off = sieve._cross_off

    def counting(lo, hi, m, r, *args):
        calls.append((m, r, lo, hi))
        return cross_off(lo, hi, m, r, *args)

    monkeypatch.setattr(sieve, "_cross_off", counting)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 5000)
    p = Parameters(x=1e4, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    sums.theorem_trend(p, sums.geometric_schedule(1e3, 1e5))
    assert [c for c in calls if c[:2] != (2, 1)] == [
        (6, 1, -(-e // 6), (e + 4999) // 6 + 1) for e in range(0, 100_000, 5000)]
    assert all(1 + 2 * (hi - 1) <= 316 for m, r, lo, hi in calls if (m, r) == (2, 1))


def test_slices_recut_blocks_exactly(monkeypatch):
    # sieve blocks of every awkward length: empty, shorter than a slice,
    # exactly one slice, and ending so that exactly one slice is left over
    monkeypatch.setattr(sums, "BLOCK", 4)
    ps = np.arange(100, 130, dtype=np.int64)
    cuts = np.cumsum([0, 3, 4, 0, 1, 9, 4, 1, 4, 4])
    got = list(sums._slices(ps[a:b] for a, b in zip(cuts, cuts[1:])))
    want = [(ps[i:i + 4], ps[i + 4] if i + 4 < ps.size else math.inf)
            for i in range(0, ps.size, 4)]
    assert [(b.tolist(), e) for (b,), e in got] == [(b.tolist(), e) for b, e in want]
    assert list(sums._slices(iter([ps[:0]]))) == []


@pytest.mark.parametrize("segment", [50, 64, 97, 128, 1000])
def test_fold_units_recut_blocks_exactly(monkeypatch, segment):
    # sieve segments that divide the 64-integer fold unit, equal it, do not
    # divide it, and hold several units: the units are the blocks that a
    # 64-integer sieve segment cuts, each with its top; windows open and
    # close on and off the unit edges
    monkeypatch.setattr(sums, "FOLD", 64)
    for lo, hi, d, a in ((0, 1000, 3, 1), (100, 900, 1, 0), (127, 1024, 4, 3), (5, 6, 1, 0)):
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 64)
        want = list(sieve.lambda_in_ap(lo, hi, d, a))
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", segment)
        got = list(sums._fold_units(lo, hi, d, a))
        assert [top for _, top in got] == [min(e + 64, hi) for e in range(lo, hi, 64)]
        assert [(n.tolist(), lam.tobytes()) for (n, lam), _ in got] == [
            (n.tolist(), lam.tobytes()) for n, lam in want]


def test_trend_rows_straddle_segment_edges(monkeypatch):
    # 16-prime slices re-cut from sieve segments of 50 k (300 integers at
    # d = 3): checkpoints sit on, just before and just after both kinds of
    # edge, and every row is bitwise the row of the unpatched sieve and of a
    # one-point run
    monkeypatch.setattr(sums, "BLOCK", 16)
    p = Parameters(x=2000.0, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    ps = sieve.primes_in_ap(2000.0, 3, 1)
    cuts = np.searchsorted(ps, [1 + 6 * 50 * k for k in (1, 2, 3, 4, 5, 6)])
    xs = sorted({float(ps[i + j]) + h for i in cuts for j in (-1, 0, 1) for h in (0.0, 0.5)}
                | {float(ps[k]) for k in (15, 16, 31, 32)} | {2000.0})
    want = [_row_values(r.decomposition, r.main_term)
            for r in sums.theorem_trend(p, xs).rows]
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 50)
    rows = sums.theorem_trend(p, xs[::-1]).rows[::-1]
    assert [_row_values(r.decomposition, r.main_term) for r in rows] == want
    for x, w in zip(xs, want):
        one = sums.theorem_trend(p, [x]).rows[0]
        assert _row_values(one.decomposition, one.main_term) == w


@pytest.mark.parametrize("segment", [977, sieve.DEFAULT_SEGMENT])
def test_lambda_window_is_the_class_of_the_table(monkeypatch, segment):
    # block by block and bitwise: the Lambda-window of the progression sieve
    # against the sieve_range table of the whole window, kept to n = a (mod d)
    # and Lambda(n) != 0 and cut at the DEFAULT_SEGMENT edges of the integers
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", segment)
    # 1024 = 2^10 and 2187 = 3^7 open windows, 4096 = 2^12 and 3125 = 5^5 close them
    for lo, hi in ((0, 5000), (2500, 5000), (1023, 4097), (1024, 4096), (2187, 3125)):
        table = sieve.sieve_range(lo, hi)
        ns = table.n_values()
        for d, a in ((1, 0), (2, 1), (3, 1), (3, 2), (4, 3), (10, 7)):
            got = list(sieve.lambda_in_ap(lo, hi, d, a))
            edges = list(range(lo, hi, segment))
            assert len(got) == len(edges)
            for (n, lam), e in zip(got, edges):
                keep = ((ns > e) & (ns <= e + segment) & (ns % d == a % d)
                        & (table.lam != 0.0))
                assert n.tolist() == ns[keep].tolist(), (lo, hi, d, a, e)
                assert lam.tobytes() == table.lam[keep].tobytes(), (lo, hi, d, a, e)


def test_trend_phases_once(monkeypatch):
    # one walk: e(t p^c) is formed once per prime for both sides together
    p = Parameters(x=1e4, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    elems = []
    phase = sums.phase_mod1_vec

    def counting(t, n, c, table=None):
        if c == p.c_float:
            elems.append(np.size(n))
        return phase(t, n, c, table=table)

    monkeypatch.setattr(sums, "phase_mod1_vec", counting)
    monkeypatch.setattr(sums, "BLOCK", 256)      # checkpoints fall inside slices
    xs = sums.geometric_schedule(1e3, 2e4)
    sums.theorem_trend(p, xs)
    assert sum(elems) == sieve.primes_in_ap(max(xs), p.d, p.a).size


def test_trend_powers_anchors_once_per_walk(monkeypatch):
    # one dd_pow_int call for the (c, t) anchors and one for the (gamma, 1)
    # anchors, however many slices the walk cuts
    p = Parameters(x=1e6, c=1.05, gamma=0.995, t=0.5, d=1, a=0)
    pow_int, calls = dm.dd_pow_int, []

    def counting(n, c):
        calls.append(c)
        return pow_int(n, c)

    monkeypatch.setattr(dm, "dd_pow_int", counting)
    monkeypatch.setattr(sums, "BLOCK", 4096)     # twenty slices
    sums.theorem_trend(p, sums.geometric_schedule(1e5, 1e6))
    assert sorted(calls) == [p.gamma_float, p.c_float]


def _slice_by_slice(p, x, term):
    """A plain loop over the class primes <= x in BLOCK slices, one
    accumulator, no anchor table: the sums before they became sides."""
    acc = sums.ComplexAccumulator()
    ps = sieve.primes_in_ap(x, p.d, p.a)
    for i in range(0, ps.size, sums.BLOCK):
        acc.add_array(term(ps[i:i + sums.BLOCK]))
    return acc


def _pi_term(p):
    return lambda blk: e_of_frac_vec(phase_mod1_vec(p.t, blk, p.c_float))


def _gamma3_term(p):
    def term(blk):
        _, f0, f1, _ = sieve.ps_floor(blk, p.gamma_float)
        w = np.where(f1 > 0.0, 0.5 - f1, -0.5) - np.where(f0 > 0.0, 0.5 - f0, -0.5)
        return np.log(blk.astype(np.float64)) * w * _pi_term(p)(blk)
    return term


@pytest.mark.parametrize("c, g, t, d, a", [(1.05, 0.995, 0.5, 3, 1), (1.2, 0.9, -2.0, 1, 0),
                                           (1.1, 0.5, 0.25, 4, 3), (1.0, 1.0, 0.5, 3, 2)])
def test_walked_sums_are_bitwise_slice_by_slice(monkeypatch, c, g, t, d, a):
    # pi_sum and gamma3_sum as sides of the walk, against the plain slice
    # loop, at x on, next to and between slice edges and past the last prime
    monkeypatch.setattr(sums, "BLOCK", 512)
    p = Parameters(x=3e4, c=c, gamma=g, t=t, d=d, a=a)
    ps = sieve.primes_in_ap(p.x, d, a)
    for x in (float(ps[511]), float(ps[512]), float(ps[1023]) + 0.5, 777.0, 3e4):
        px = replace(p, x=x)
        rep = sums.pi_sum(px)
        want = _slice_by_slice(px, x, _pi_term(px))
        assert (rep.value, rep.n_terms) == (want.value, want.count), x
        assert sums.gamma3_sum(x, px) == _slice_by_slice(px, x, _gamma3_term(px)).value, x


def test_walked_sums_power_anchors_once(monkeypatch):
    # past one slice, pi_sum powers only the (c, t) anchors and gamma3_sum
    # those and the (gamma, 1) anchors, each in one dd_pow_int call
    p = Parameters(x=1e6, c=1.05, gamma=0.995, t=0.5, d=1, a=0)
    pow_int, calls = dm.dd_pow_int, []

    def counting(n, c):
        calls.append(c)
        return pow_int(n, c)

    monkeypatch.setattr(dm, "dd_pow_int", counting)
    monkeypatch.setattr(sums, "BLOCK", 4096)     # twenty slices
    sums.pi_sum(p)
    assert calls == [p.c_float]
    calls.clear()
    sums.gamma3_sum(p.x, p)
    assert sorted(calls) == [p.gamma_float, p.c_float]


def test_window_sums_hold_one_block(monkeypatch):
    # Gamma_11, Gamma_5 and Gamma_10 over windows of ~200 fold units of 1024
    # integers read them one unit at a time: the traced peak stays well below
    # the window's own bytes (a list of the window peaks at about three times
    # them); with FOLD unpatched, each window would be one unit, held whole
    import tracemalloc

    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 1024)
    monkeypatch.setattr(sums, "FOLD", 1024)
    p = Parameters(x=4e5, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    for run, d, a in ((lambda: sums.gamma11_sum(p.x, 2, p), p.d, p.a),
                      (lambda: sums.gamma5_sum(p.x, p), p.d, p.a),
                      (lambda: sums.gamma10_sum(p.x, 1, p, 1), 1, 0)):
        blocks = list(sieve.lambda_in_ap(int(p.x // 2), int(p.x), d, a))
        assert len(blocks) > 150
        window = sum(n.nbytes + lam.nbytes for n, lam in blocks)
        del blocks
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < window / 2, (d, peak, window)


def _window_values(p):
    """Every Lambda-window sum at p, as exact reprs."""
    return [repr(v) for v in (sums.gamma4_sum(p.x * 0.6, p), sums.gamma5_sum(p.x, p),
                              sums.gamma10_sum(p.x, 2, p, 1), sums.gamma10_sum(p.x * 0.7, 1, p, 3),
                              sums.gamma11_sum(p.x, 3, p),
                              *sums.gamma5_schedule(p).values)]


@pytest.mark.parametrize("segment", [1024, 1000, 3000, 4096 * 3 + 5, 50_000])
def test_window_sums_do_not_depend_on_the_segment(monkeypatch, segment):
    # the windows fold in units of FOLD integers from their lo, whatever the
    # sieve segment: ones that divide the unit, do not divide it, and span
    # several units give the values of segment = unit bitwise
    monkeypatch.setattr(sums, "FOLD", 4096)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 4096)
    p = Parameters(x=5e4, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    want = _window_values(p)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", segment)
    assert _window_values(p) == want


def test_rhs_main_builds_no_gamma_table(monkeypatch):
    p = Parameters(x=1e5, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    built = []

    def recording(n_max, c, t, t_max=None):
        built.append((c, t))
        return dm.anchor_table(n_max, c, t, t_max)

    monkeypatch.setattr(sums, "anchor_table", recording)
    sums.rhs_main(p)
    assert built == [(p.c_float, p.t)]
    built.clear()
    sums.gamma_decomposition(p)
    assert sorted(built) == [(p.gamma_float, 1.0), (p.c_float, p.t)]


def test_geometric_schedule_endpoints():
    xs = sums.geometric_schedule(1e5, 1e7)
    assert len(xs) == 5
    assert xs[0] == 1e5 and xs[-1] == 1e7
    for a, b in zip(xs, xs[1:]):
        assert b / a == pytest.approx(math.sqrt(10.0), rel=1e-9)
    with pytest.raises(PreconditionError):
        sums.geometric_schedule(1e7, 1e5)
    with pytest.raises(PreconditionError):
        sums.geometric_schedule(1e5, 1e7, factor=1.0)


def test_trend_report_machinery(tmp_path):
    p = Parameters(x=10 ** 4, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    trend = sums.theorem_trend(p, [10 ** 3, 3.0 * 10 ** 3, 10 ** 4])
    assert len(trend.rows) == 3
    assert [r.x for r in trend.rows] == [1e3, 3e3, 1e4]
    assert all(r.abs_err >= 0 for r in trend.rows)
    assert trend.ratios == [r.ratio_err_main for r in trend.rows]
    path = tmp_path / "trend.csv"
    trend.write_csv(str(path), header_comments=("one", "two"))
    lines = path.read_text().splitlines()
    assert lines[0] == "# one" and lines[1] == "# two"
    assert lines[2] == ("x,re_lhs,im_lhs,re_main,im_main,abs_err,"
                        "ratio_err_main,log_err_over_log_x")
    assert len(lines) == 3 + 3
    row = lines[3].split(",")
    assert float(row[0]) == 1e3
    # floats are written with repr: the round trip is exact
    assert float(row[5]) == trend.rows[0].abs_err
    assert sums.theorem_trend(p, []).rows == []


def test_monotone_flag():
    p = Parameters(x=100.0, c=1.05, gamma=0.995)
    rows_up = [sums.TheoremReport(complex(0), complex(1), complex(10.0 ** i),
                                  100.0, p, 0.9)
               for i in range(1, 4)]
    rows_down = list(reversed(rows_up))
    assert sums.TrendReport(rows_up, p).monotone_increasing
    assert not sums.TrendReport(rows_down, p).monotone_increasing
    assert not sums.TrendReport(rows_up[:1], p).monotone_increasing


# ---------------------------------------------------------------------------
# log-weighted family

def test_gamma3_gamma4_match_frozen_oracles(oracles):
    ref = oracles["gamma34"]
    p = params_from(ref)
    g3 = sums.gamma3_sum(p.x, p)
    g4 = sums.gamma4_sum(p.x, p)
    assert abs(g3 - as_complex(ref["gamma3"])) <= 1e-7
    assert abs(g4 - as_complex(ref["gamma4"])) <= 1e-7
    rep = sums.gamma34_gap(p.x, p)
    assert rep.gap == pytest.approx(float(ref["gap"]), abs=1e-7)
    assert rep.within
    assert rep.bound == pytest.approx(3.0 * math.sqrt(p.x) * math.log(p.x))


def test_gamma5_matches_frozen_oracle(oracles):
    ref = oracles["gamma5"]
    p = params_from(ref)
    got = sums.gamma5_sum(p.x, p)
    assert abs(got - as_complex(ref["value"])) <= 1e-7


def test_gamma5_window_is_half_open():
    # x/2 = 53 is prime, so the lower edge matters; 101 checks the upper edge
    p = Parameters(x=106.0, c=1.1, gamma=0.95, t=0.5, d=1, a=0)
    table = sieve.sieve_range(50, 106)

    def direct(lo, hi):
        want = 0j
        for n, lam in zip(table.n_values(), table.lam):
            if lam and lo < n <= hi:
                w = psi(-((n + 1.0) ** 0.95)) - psi(-(n ** 0.95))
                fr = phase_mod1(0.5, int(n), 1.1)
                want += lam * w * complex(e_of(fr))
        return want

    got = sums.gamma5_sum(106.0, p)
    want = direct(53, 106)
    # including 53 would shift the sum by |Lambda(53) w(53)| ~ 0.9
    assert abs(got - want) <= 1e-9 * (1 + abs(want))
    got = sums.gamma5_sum(101.0, p)
    assert abs(got - direct(50, 101)) <= 1e-9
    with pytest.raises(PreconditionError):
        sums.gamma5_sum(3.0, p)


def test_gamma5_schedule_is_a_dyadic_ladder(tmp_path):
    p = Parameters(x=1000.0, c=1.1, gamma=0.95, t=0.5, d=3, a=1)
    sched = sums.gamma5_schedule(p)
    assert len(sched.xs) == 8
    assert sched.xs[0] == 1000.0 and sched.xs[-1] == 7.8125
    for a, b in zip(sched.xs, sched.xs[1:]):
        assert b == a / 2.0
    for x, v in zip(sched.xs, sched.values):
        assert v == sums.gamma5_sum(x, p)
    path = tmp_path / "ladder.csv"
    sched.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,abs_gamma5,claimed_bound"
    assert len(lines) == 9
    given = sums.gamma5_schedule(p, [250.0, 7.8125])
    assert given.xs == [250.0, 7.8125]
    assert given.values == [sched.values[2], sched.values[-1]]
    assert given.claimed == [sched.claimed[2], sched.claimed[-1]]


def test_gamma11_matches_frozen_oracle(oracles):
    ref = oracles["gamma11"]
    p = Parameters(x=float(ref["x"]), c=1.1, gamma=float(ref["gamma"]),
                   t=0.0, d=int(ref["d"]), a=int(ref["a"]))
    got = sums.gamma11_sum(p.x, ref["H"], p)
    assert got == pytest.approx(float(ref["value"]), abs=1e-7)
    assert sums.gamma11_sum(p.x, 0, p) == 0.0
    with pytest.raises(PreconditionError):
        sums.gamma11_sum(p.x, -1, p)


def test_weighted_expsum_matches_frozen_oracle(oracles):
    ref = oracles["weighted_lambda"]
    p = params_from(ref, a=1)    # the sum itself carries no congruence
    got = sums.weighted_lambda_expsum(float(ref["x1"]), int(ref["h"]), p,
                                      int(ref["k"]))
    assert abs(got - as_complex(ref["value"])) <= 1e-7


def test_weighted_expsum_reduces_to_chebyshev():
    # t = 0, h = 0, k = d: every phase vanishes, leaving sum of Lambda
    # over the whole window (the additive character replaces a congruence)
    p = Parameters(x=4000.0, c=1.1, gamma=0.9, t=0.0, d=3, a=1)
    got = sums.weighted_lambda_expsum(4000.0, 0, p, 3)
    table = sieve.sieve_range(2000, 4000)
    want = sum(float(v) for n, v in zip(table.n_values(), table.lam)
               if v and n > 2000)
    assert abs(got - want) <= 1e-9 * (1 + abs(want))
    assert abs(got.imag) <= 1e-12


def test_weighted_expsum_validates_window():
    p = Parameters(x=1000.0, c=1.1, gamma=0.9, t=0.5, d=3, a=1)
    with pytest.raises(PreconditionError):
        sums.weighted_lambda_expsum(2000.0, 1, p, 1)


def test_gamma10_is_the_sum_of_moduli():
    p = Parameters(x=600.0, c=1.1, gamma=0.9, t=0.5, d=3, a=1)
    H, k = 3, 2
    total = sums.gamma10_sum(600.0, H, p, k)
    parts = 0.0
    for h in range(1, H + 1):
        parts += abs(sums.weighted_lambda_expsum(600.0, h, p, k))
        parts += abs(sums.weighted_lambda_expsum(600.0, -h, p, k))
    assert total == pytest.approx(parts, abs=1e-12)


@pytest.mark.parametrize("twisted", [False, True])
def test_h_sums_are_bitwise_the_h_outer_loop(monkeypatch, twisted):
    # units outside and h inside: each h of the walk's h-side still adds the
    # same unit sums in the same order as a loop over h of loops over the
    # held window, cut into 700-integer units from a 300-integer sieve segment
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 700)
    monkeypatch.setattr(sums, "FOLD", 700)
    p = Parameters(x=2e4, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    base = (lambda n: sums.twisted_phase(n, p, 2)) if twisted else None
    hs = [0, 3, -3, 1, 7, -5]
    window = list(sieve.lambda_in_ap(10_000, 20_000, p.d, p.a))
    assert len(window) > 10
    want = []
    for h in hs:
        acc = sums.ComplexAccumulator()
        for n, w in window:
            fr = numerics.frac_times(numerics.frac_pair(n, p.gamma_float, 7), h) if h else 0.0
            if base is not None:
                fr = np.mod(base(n) + fr, 1.0)
            acc.add(numerics.weighted_e_sum(w, fr), w.size)
        want.append(acc.value)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 300)
    got = sums._window(10_000, 20_000, p.d, p.a, sums._h_side(hs, p.gamma_float),
                       base or (lambda n: None))
    assert got == want


def count_sieves(monkeypatch):
    """(m, r, first n, last n) of each progression-sieve segment, in order."""
    calls = []
    cross_off = sieve._cross_off

    def counting(lo, hi, m, r, *args):
        calls.append((m, r, r + m * lo, r + m * (hi - 1)))
        return cross_off(lo, hi, m, r, *args)

    monkeypatch.setattr(sieve, "_cross_off", counting)
    return calls


@pytest.mark.parametrize("H", [1, 4, 9])
def test_h_sums_sieve_their_window_once(monkeypatch, H):
    # one kernel pass per window, the class 1 (mod 6) over (3000, 6000] for
    # Gamma_11 and the odd n over (3000, 5000] for Gamma_10, after one sieve
    # of the base primes up to sqrt(hi) (itself on base primes up to 8 and 2)
    p = Parameters(x=6000.0, c=1.1, gamma=0.9, t=0.5, d=3, a=1)
    calls = count_sieves(monkeypatch)
    sums.gamma11_sum(p.x, H, p)
    assert calls == [(2, 1, 1, 1), (2, 1, 1, 7), (2, 1, 1, 77), (6, 1, 3001, 5995)]
    calls.clear()
    sums.gamma10_sum(5000.0, np.int64(H), p, 2)
    assert calls == [(2, 1, 1, 1), (2, 1, 1, 7), (2, 1, 1, 69), (2, 1, 3001, 4999)]


def test_zero_height_returns_before_sieving(monkeypatch):
    p = Parameters(x=6000.0, c=1.1, gamma=0.9, t=0.5, d=3, a=1)
    calls = count_sieves(monkeypatch)
    assert sums.gamma11_sum(p.x, 0, p) == 0.0
    assert sums.gamma10_sum(p.x, np.int64(0), p, 1) == 0.0
    assert calls == []
    with pytest.raises(PreconditionError):
        sums.gamma10_sum(p.x, -1, p, 1)
    for x1, k in ((p.x, 0), (p.x, 1.5), (p.x, 4), (2 * p.x, 1)):     # checked before H = 0
        with pytest.raises(PreconditionError):
            sums.gamma10_sum(x1, 0, p, k)
    with pytest.raises(PreconditionError):
        sums.gamma11_sum(p.x, 1.5, p)


def test_h_sums_check_their_height_before_work(monkeypatch):
    # numerics.check_height refuses H past T_CAP = 1e6 in each h-sum, naming H,
    # before a sieve segment or a {n^gamma} pair is formed; |h| in the one-h case
    def refuse(*args):
        raise AssertionError("a pair was formed before H was checked")

    monkeypatch.setattr(sums, "frac_pair", refuse)
    calls = count_sieves(monkeypatch)
    p = Parameters(x=6000.0, c=1.1, gamma=0.9, t=0.5, d=3, a=1)
    box = hb.DyadicBox(50, 100, 50, 100)
    for call in (lambda H: sums.gamma11_sum(p.x, H, p),
                 lambda H: sums.gamma10_sum(p.x, H, p, 1),
                 lambda H: hb.type_sums(box, H, p, 1)):
        for H in (2_000_000, np.int64(10 ** 6 + 1)):
            with pytest.raises(PreconditionError, match=r"H must be an integer in \[0, 1e\+06\]"):
                call(H)
    for h in (2_000_000, -2_000_000, 1.5):
        with pytest.raises(PreconditionError, match=r"h must be an integer in \[-1e\+06, 1e"):
            sums.weighted_lambda_expsum(p.x, h, p, 1)
    assert calls == []


def test_h_sums_share_one_k_and_x1_rule(monkeypatch):
    # sums.twisted_window holds the rule of Gamma_10, its one-h case and the
    # Type I/II sums alike: 1 <= k <= d, then x/2 <= x1 <= x, before a sieve
    p = Parameters(x=3000.0, c=1.1, gamma=0.9, t=0.5, d=3, a=1)
    box = hb.DyadicBox(20, 40, 30, 60)
    entries = [lambda x1, k: sums.gamma10_sum(x1, 2, p, k),
               lambda x1, k: sums.weighted_lambda_expsum(x1, 1, p, k),
               lambda x1, k: hb.type_sums(box, 2, p, k, x1=x1)]
    calls = count_sieves(monkeypatch)
    for call in entries:
        for k in (0, 4, -2, 1.5):
            with pytest.raises(PreconditionError, match=r"k must be an integer in \[1, 3\]"):
                call(p.x, k)
        for x1 in (1499.0, 100.0, 3001.0):
            with pytest.raises(PreconditionError,
                               match=r"x1 must be a finite real in \[1500, 3000\]"):
                call(x1, 1)
    assert calls == []
    assert sums.twisted_window(p, 1500.0, 3) == (1500, 1500)
    assert sums.twisted_window(p, 2999.5, 1) == (1500, 2999)
    assert sums.twisted_window(replace(p, x=3001.5), 1500.75, 2) == (1500, 1500)
    assert sums.gamma10_sum(1500.0, 2, p, 1) == 0.0
    assert sums.weighted_lambda_expsum(1500.0, 1, p, 1) == 0j
    assert hb.type_sums(box, 2, p, 1, x1=1500.0) == 0.0


def test_gamma11_pairs_conjugate_heights():
    # Lambda is real: the inner sums at h and -h have equal moduli, so
    # gamma11_sum is twice the sum over positive h of the direct inner sums
    p = Parameters(x=5000.0, c=1.1, gamma=0.9, t=0.0, d=4, a=3)
    table = sieve.sieve_range(2500, 5000)
    keep = (table.lam != 0) & (table.n_values() % 4 == 3)
    n, lam = table.n_values()[keep], table.lam[keep]
    want = 0.0
    for h in (1, 2, 3, -1, -2, -3):
        want += abs(np.sum(lam * np.exp(-2j * math.pi * phase_mod1_vec(float(h), n, 0.9))))
    assert sums.gamma11_sum(p.x, 3, p) == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# entry checks

def _x_entries(p, x):
    """The entries that take x (or x1) from the caller, at x, with H = 1, k = 1."""
    return {"gamma3_sum": lambda: sums.gamma3_sum(x, p),
            "gamma4_sum": lambda: sums.gamma4_sum(x, p),
            "gamma34_gap": lambda: sums.gamma34_gap(x, p),
            "gamma5_sum": lambda: sums.gamma5_sum(x, p),
            "gamma5_schedule": lambda: sums.gamma5_schedule(p, [x]),
            "gamma11_sum": lambda: sums.gamma11_sum(x, 1, p),
            "gamma10_sum": lambda: sums.gamma10_sum(x, 1, p, 1),
            "weighted_lambda_expsum": lambda: sums.weighted_lambda_expsum(x, 1, p, 1),
            "theorem_trend": lambda: sums.theorem_trend(p, [x]),
            "primes_in_ap": lambda: sieve.primes_in_ap(x, p.d, p.a)}


@pytest.mark.parametrize("x", [2.0 ** 52 + 2, 1e16, 1e30])
def test_every_entry_checks_the_cap_before_powering(monkeypatch, x):
    def refuse(*args, **kwargs):
        raise AssertionError("an anchor was powered before the sieve checked its cap")

    monkeypatch.setattr(sums, "anchor_table", refuse)
    monkeypatch.setattr(dm, "dd_pow_int", refuse)
    calls = count_sieves(monkeypatch)
    p = Parameters(x=x, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    entries = {"pi_sum": lambda: sums.pi_sum(p),
               "gamma_decomposition": lambda: sums.gamma_decomposition(p),
               "rhs_main": lambda: sums.rhs_main(p), **_x_entries(p, x),
               "gamma11_sum H=0": lambda: sums.gamma11_sum(x, 0, p),    # before the shortcut
               "gamma10_sum H=0": lambda: sums.gamma10_sum(x, 0, p, 1)}
    for call in entries.values():
        with pytest.raises(ScaleError, match="exceeds the cap"):
            call()
    assert calls == []


@pytest.mark.parametrize("x", [0.0, -1.0, 0.5, 1.5])
def test_gamma34_gap_refuses_x_below_two(monkeypatch, x):
    # its bound 3 sqrt(x) log x is undefined at 0 and negative below 1
    calls = count_sieves(monkeypatch)
    p = Parameters(x=1e4, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    with pytest.raises(PreconditionError,
                       match=r"gamma34_gap x must be a finite real in \[2, inf\)"):
        sums.gamma34_gap(x, p)
    assert calls == []


def test_gamma5_schedule_checks_every_x_before_the_first_rung(monkeypatch):
    calls = count_sieves(monkeypatch)
    p = Parameters(x=1e6, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    with pytest.raises(PreconditionError, match="finite"):
        sums.gamma5_schedule(p, [1e6, math.nan])
    assert calls == []


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_every_entry_refuses_a_nonfinite_x(x):
    p = Parameters(x=1e4, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    for call in _x_entries(p, x).values():
        with pytest.raises(PreconditionError, match="finite"):
            call()
