"""Divisor identity, window machinery, box classification, bilinear sums."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psexp import heathbrown as hb
from psexp import sieve
from psexp.errors import PreconditionError, ScaleError
from psexp.numerics import Parameters


def lambda_table(limit):
    t = sieve.sieve_range(0, limit)
    return {int(n): float(v) for n, v in zip(t.n_values(), t.lam)}


# ---------------------------------------------------------------------------
# the identity itself

def test_identity_known_values():
    assert hb.hb_identity_value(1, 3, 2.0) == 0.0
    assert hb.hb_identity_value(8, 3, 2.0) == pytest.approx(math.log(2), abs=1e-12)
    assert hb.hb_identity_value(97, 3, 97 ** (1 / 3)) == pytest.approx(
        math.log(97), abs=1e-9)
    assert hb.hb_identity_value(10, 3, 10 ** (1 / 3)) == pytest.approx(0.0, abs=1e-12)


def test_identity_at_perfect_cubes():
    # 64^(1/3) rounds below 4 in floats; the cutoff must still include 4
    assert hb.hb_identity_value(64, 3, 64 ** (1 / 3)) == pytest.approx(
        math.log(2), abs=1e-10)
    assert hb.hb_identity_value(4913, 3, 4913 ** (1 / 3)) == pytest.approx(
        math.log(17), abs=1e-9)
    assert hb.hb_identity_value(1000, 3, 1000 ** (1 / 3)) == pytest.approx(
        0.0, abs=1e-9)


def test_identity_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        hb.hb_identity_value(0, 3, 2.0)
    with pytest.raises(PreconditionError):
        hb.hb_identity_value(2.5, 3, 2.0)
    with pytest.raises(PreconditionError):
        hb.hb_identity_value(10, 4, 2.0)
    with pytest.raises(PreconditionError):
        hb.hb_identity_value(100, 3, 2.0)    # 2^3 < 100
    with pytest.raises(PreconditionError):
        hb.hb_identity_value(7, 3, math.nan)  # nan^3 < 7 is False too


def test_identity_refuses_a_float_j():
    # 2.0 passed `J not in (2, 3)` and then raised a bare TypeError
    for J in (2.0, 3.0, np.float64(2.0)):
        with pytest.raises(PreconditionError, match=r"J must be an integer in \[2, 3\]"):
            hb.hb_identity_value(12, J, 4)
    assert hb.hb_identity_value(12, np.int64(3), 4) == hb.hb_identity_value(12, 3, 4)


def test_identity_sweep_j3():
    lam = lambda_table(2000)
    worst = 0.0
    for n in range(1, 2001):
        got = hb.hb_identity_value(n, 3, n ** (1 / 3))
        worst = max(worst, abs(got - lam[n]) / (1.0 + math.log(n)))
    assert worst <= 1e-9


def test_identity_sweep_j2():
    lam = lambda_table(400)
    for n in range(1, 401):
        got = hb.hb_identity_value(n, 2, math.sqrt(n))
        assert got == pytest.approx(lam[n], abs=1e-9 * (1 + math.log(n)))


def test_identity_sweep_reports_the_worst_n():
    worst, worst_n = hb.identity_sweep(500)
    assert 0.0 <= worst <= hb.SWEEP_TOL and 1 <= worst_n <= 500
    want = abs(hb.hb_identity_value(worst_n, 3, worst_n ** (1 / 3))
               - sieve.sieve_range(0, 500).lam[worst_n - 1]) / (1 + math.log(worst_n))
    assert worst == want
    assert hb.identity_sweep(1) == (0.0, 1)


def test_identity_with_oversized_cutoff():
    # z beyond n^(1/J) is allowed; the identity still collapses to Lambda
    assert hb.hb_identity_value(12, 3, 12.0) == pytest.approx(0.0, abs=1e-10)
    assert hb.hb_identity_value(9, 2, 9.0) == pytest.approx(math.log(3), abs=1e-10)
    # a z whose J-th power overflows a float is still past every n
    assert hb.hb_identity_value(9, 3, 1e200) == hb.hb_identity_value(9, 3, 9.0)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=3000))
def test_identity_equals_von_mangoldt(n):
    t = sieve.sieve_range(max(0, n - 1), n)
    want = float(t.lam[-1])
    got = hb.hb_identity_value(n, 3, n ** (1 / 3))
    assert abs(got - want) <= 1e-9 * (1.0 + math.log(n))


# ---------------------------------------------------------------------------
# windows

def test_windows_reject_out_of_range_inputs():
    with pytest.raises(PreconditionError):
        hb.uvz_windows(2 ** 20, 1.0)
    with pytest.raises(PreconditionError):
        hb.uvz_windows(2 ** 20, 28 / 19)
    with pytest.raises(PreconditionError):
        hb.uvz_windows(1.0, 1.2)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_windows_reject_a_nonfinite_x(x):
    for entry in (hb.uvz_preconditions, hb.classification_map):
        with pytest.raises(PreconditionError, match=r"x must be a finite real in \[2, inf\)"):
            entry(x, 1.1)


def test_window_values_at_the_reference_point():
    w = hb.uvz_windows(2 ** 40, 1.2)
    assert w.U == pytest.approx(2.0 ** (-10 + 40 * (56 - 38 * 1.2) / 171), rel=1e-12)
    assert w.V == pytest.approx(2.0 ** (7 + 40 / 3), rel=1e-12)
    assert w.Z == pytest.approx(2.0 ** (40 * (38 * 1.2 + 115) / 342), rel=1e-12)
    assert w.U < 1.0 < w.Z < w.V


def test_exponent_identities_hold_in_rationals():
    idents = hb.uvz_exponent_identities()
    assert set(idents) == {"u_plus_2z", "v_cubed", "z_minus_2u"}
    for name, (ok, form) in idents.items():
        assert ok, name


def test_preconditions_at_reference_point():
    rep = hb.uvz_preconditions(2 ** 40, 1.2)
    assert rep.identities_ok
    for name, (holds, slack) in rep.conditions.items():
        assert holds and slack > 1.0, name
    # the two identity-driven margins are exactly a factor 8
    assert rep.conditions["uzz_le_x"][1] == pytest.approx(8.0, rel=1e-9)
    assert rep.conditions["v_cubed_ge_x"][1] == pytest.approx(8.0, rel=1e-9)
    assert rep.conditions["u_sq_le_z"][1] > 1e10
    # U has not yet reached 2, so the full dyadic chain is still open
    assert not rep.chain_ok
    assert rep.ordering == "U <= Z <= V"


def test_chain_thresholds_are_ordered_sensibly():
    rep = hb.uvz_preconditions(2 ** 40, 1.2)
    th = rep.thresholds
    assert th["z_le_half_x"] < 16
    assert 2.0 ** 51 < th["v_le_z"] < 2.0 ** 52
    assert 2.0 ** 180 < th["u_ge_2"] < 2.0 ** 181


def test_u_threshold_overflows_to_inf_near_the_top_of_the_c_range():
    # 56 - 38c -> 0 as c -> 28/19, so the exponent 11 * 171 / (56 - 38c) of the
    # u_ge_2 threshold passes 307 decimal digits once c > 1.42514
    assert math.isfinite(hb.uvz_preconditions(1e6, 1.425).thresholds["u_ge_2"])
    for c in (1.4252, 1.47, math.nextafter(28 / 19, 0.0)):
        th = hb.uvz_preconditions(1e6, c).thresholds
        assert th["u_ge_2"] == math.inf
        assert 1.0 < th["z_le_half_x"] < th["v_le_z"] < math.inf


# ---------------------------------------------------------------------------
# box classification

def test_dyadic_box_validation():
    hb.DyadicBox(4, 8, 10, 20)
    with pytest.raises(PreconditionError):
        hb.DyadicBox(4, 9, 10, 20)       # more than one doubling
    with pytest.raises(PreconditionError):
        hb.DyadicBox(8, 4, 10, 20)
    with pytest.raises(PreconditionError):
        hb.DyadicBox(4, 8, 10, 20.0)


def test_classification_windows():
    w = hb.uvz_windows(2 ** 40, 1.2)
    assert hb.classify_box(hb.DyadicBox(1, 1, 2 ** 19, 2 ** 20), w) == "type_ii"
    assert hb.classify_box(hb.DyadicBox(1, 1, 2 ** 21, 2 ** 22), w) == "type_i"


def test_unclassified_gap_opens_at_larger_scale():
    # V < Z first happens near 2^51; at 2^60 the dyadic L = 2^28 sits between
    w = hb.uvz_windows(2 ** 60, 1.2)
    assert w.V < w.Z
    assert hb.classify_box(hb.DyadicBox(1, 1, 2 ** 28, 2 ** 29), w) == "unclassified"


def test_classification_map_covers_all_dyadic_levels():
    rows = hb.classification_map(2 ** 40, 1.2)
    assert len(rows) == 41
    kinds = {r[-1] for r in rows}
    assert kinds == {"type_i", "type_ii"}
    # monotone: type_ii window first, then type_i after Z
    labels = [r[-1] for r in rows]
    assert labels[0] == "type_ii" and labels[-1] == "type_i"


def test_classification_csv(tmp_path):
    path = tmp_path / "map.csv"
    hb.write_classification_csv(str(path), hb.classification_map(2 ** 20, 1.1))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,c,U,V,Z,L_lo,L_hi,kind"
    assert len(lines) == 22


# ---------------------------------------------------------------------------
# bilinear sums over a box

BOX = hb.DyadicBox(20, 40, 30, 60)
PARAMS = Parameters(x=3000.0, c=1.1, gamma=0.9, t=0.5, d=5, a=1)


def naive_type_sum(box, H, params, k, variant, a_coeffs, b_coeffs, x1):
    """Plain-float reimplementation, double loops, independent phase path."""
    x = params.x
    x1 = x if x1 is None else x1
    total = 0.0
    for h in range(1, H + 1):
        for hh in (h, -h):
            acc = 0.0 + 0.0j
            for i, m in enumerate(range(box.M + 1, box.M1 + 1)):
                inner = 0.0 + 0.0j
                for j, l in enumerate(range(box.L + 1, box.L1 + 1)):
                    n = m * l
                    if not x / 2 < n <= x1:
                        continue
                    if variant == "SI":
                        w = 1.0
                    elif variant == "SIprime":
                        w = math.log(l)
                    else:
                        w = b_coeffs[j]
                    y = (params.t * n ** params.c_float
                         + hh * n ** params.gamma_float
                         + (k * n % params.d) / params.d)
                    inner += w * cmath.exp(2j * math.pi * (y % 1.0))
                acc += a_coeffs[i] * inner
            total += abs(acc)
    return total


@pytest.mark.parametrize("variant", ["SI", "SIprime", "SII"])
def test_type_sums_match_naive_evaluation(variant):
    rng = np.random.default_rng(42)
    a = rng.uniform(0.2, 1.0, BOX.M1 - BOX.M)
    b = rng.uniform(0.2, 1.0, BOX.L1 - BOX.L)
    got = hb.type_sums(BOX, 3, PARAMS, k=2, variant=variant,
                       a_coeffs=a, b_coeffs=b if variant == "SII" else None)
    want = naive_type_sum(BOX, 3, PARAMS, 2, variant, a, b, None)
    assert abs(got - want) <= 1e-6 * (1.0 + abs(want))


def test_type_sums_respects_upper_window():
    rng = np.random.default_rng(43)
    a = rng.uniform(0.2, 1.0, BOX.M1 - BOX.M)
    got = hb.type_sums(BOX, 2, PARAMS, k=1, variant="SI", a_coeffs=a, x1=2000.0)
    want = naive_type_sum(BOX, 2, PARAMS, 1, "SI", a, None, 2000.0)
    assert abs(got - want) <= 1e-6 * (1.0 + abs(want))
    assert got != pytest.approx(
        hb.type_sums(BOX, 2, PARAMS, k=1, variant="SI", a_coeffs=a), abs=1e-6)


def test_type_sums_degenerate_exponent_is_exact():
    # gamma = 1, t = 0, k = d: every phase is an integer, so each inner sum
    # just counts windowed pairs and the total is 2H times that count
    p = Parameters(x=3000.0, c=1.1, gamma=1.0, t=0.0, d=5, a=1)
    pairs = sum(1 for m in range(21, 41) for l in range(31, 61)
                if 1500 < m * l <= 3000)
    got = hb.type_sums(BOX, 4, p, k=p.d, variant="SI")
    assert got == float(2 * 4 * pairs)


def test_type_sums_validates_input():
    d = PARAMS.d
    with pytest.raises(PreconditionError):
        hb.type_sums(BOX, -1, PARAMS, k=d)
    with pytest.raises(PreconditionError):
        hb.type_sums(BOX, 2, PARAMS, k=d, variant="SIII")
    with pytest.raises(PreconditionError):
        hb.type_sums(BOX, 2, PARAMS, k=d, a_coeffs=np.ones(3))
    with pytest.raises(PreconditionError):
        hb.type_sums(BOX, 2, PARAMS, k=d, variant="SII", b_coeffs=np.ones(3))
    with pytest.raises(PreconditionError):
        hb.type_sums(BOX, 2, PARAMS, k=d, x1=100.0)
    with pytest.raises(PreconditionError):
        hb.type_sums(BOX, 2, PARAMS, k=1.5)             # int(k) would take k = 1
    assert hb.type_sums(BOX, 0, PARAMS, k=d) == 0.0
    # checked before the H = 0 and empty-window shortcuts
    for kw in ({"a_coeffs": np.ones(3)}, {"variant": "SII", "b_coeffs": np.ones(3)},
               {"x1": 100.0}, {"k": 1.5}):
        with pytest.raises(PreconditionError):
            hb.type_sums(BOX, 0, PARAMS, **{"k": d, **kw})
    far = Parameters(x=1e4, c=1.1, gamma=0.9, t=0.5, d=3, a=1)
    with pytest.raises(PreconditionError):
        hb.type_sums(hb.DyadicBox(5, 10, 100, 200), 1, far, k=far.d, a_coeffs=np.ones(3))


def test_type_sums_scale_cap():
    big = hb.DyadicBox(4000, 8000, 4000, 8000)
    p = Parameters(x=6.4e7, c=1.1, gamma=0.9, t=0.5, d=1, a=0)
    with pytest.raises(ScaleError):
        hb.type_sums(big, 1, p, k=p.d)


def test_type_sums_empty_window_is_zero():
    # box products all exceed x: nothing survives the (x/2, x1] window
    p = Parameters(x=100.0, c=1.1, gamma=0.9, t=0.5, d=5, a=1)
    assert hb.type_sums(BOX, 3, p, k=p.d) == 0.0


def exact_type_sum(box, H, params, k, a_coeffs, b_coeffs, x1):
    """S_II as a plain double loop over (m, l), phases from 30-digit mpmath."""
    import mpmath

    total = 0.0
    with mpmath.workdps(30):
        c, g, t = (mpmath.mpf(v) for v in (params.c_float, params.gamma_float, params.t))
        phases = {}
        for m in range(box.M + 1, box.M1 + 1):
            for l in range(box.L + 1, box.L1 + 1):
                n = m * l
                if params.x / 2 < n <= x1:
                    phases[n] = (t * mpmath.mpf(n) ** c, mpmath.mpf(n) ** g)
        for h in range(1, H + 1):
            for hh in (h, -h):
                acc = 0j
                for i, m in enumerate(range(box.M + 1, box.M1 + 1)):
                    for j, l in enumerate(range(box.L + 1, box.L1 + 1)):
                        if m * l not in phases:
                            continue
                        tc, ng = phases[m * l]
                        y = tc + hh * ng + mpmath.mpf(k * m * l % params.d) / params.d
                        y = float(y - mpmath.floor(y))
                        acc += a_coeffs[i] * b_coeffs[j] * cmath.exp(2j * math.pi * y)
                total += abs(acc)
    return total


def test_type_sums_match_an_exact_double_loop():
    rng = np.random.default_rng(44)
    a = rng.uniform(-1.0, 1.0, BOX.M1 - BOX.M)
    b = rng.uniform(-1.0, 1.0, BOX.L1 - BOX.L)
    got = hb.type_sums(BOX, np.int64(3), PARAMS, k=2, variant="SII",
                       a_coeffs=a, b_coeffs=b, x1=2600.0)
    want = exact_type_sum(BOX, 3, PARAMS, 2, a, b, 2600.0)
    assert abs(got - want) <= 1e-9


def test_type_sums_accepts_numpy_heights():
    d = PARAMS.d
    assert hb.type_sums(BOX, np.int64(2), PARAMS, k=d) == hb.type_sums(BOX, 2, PARAMS, k=d)
    assert hb.type_sums(BOX, np.int64(0), PARAMS, k=d) == 0.0
    with pytest.raises(PreconditionError):
        hb.type_sums(BOX, np.int64(-1), PARAMS, k=d)
