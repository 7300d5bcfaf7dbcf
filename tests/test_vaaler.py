"""Sawtooth approximation: coefficient caps, pointwise inequality, majorant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psexp import vaaler
from psexp.errors import PreconditionError


def sawtooth(x):
    x = np.asarray(x, dtype=np.float64)
    return (x - np.floor(x)) - 0.5


# ---------------------------------------------------------------------------
# coefficients

def test_build_rejects_bad_degree():
    for H in (0, -3, 2.5, 10 ** 9):
        with pytest.raises(PreconditionError):
            vaaler.build_coefficients(H)


def test_fejer_series_reject_bad_degree():
    for H in (0, -1, 2.5, 10 ** 9):
        with pytest.raises(PreconditionError, match=r"H must be an integer in \[1, 1000000\]"):
            vaaler.fejer_closed_form(0.3, H)
        with pytest.raises(PreconditionError, match=r"H must be an integer in \[1, 1000000\]"):
            vaaler.naive_fejer_psi(0.3, H)


def test_coefficient_shapes_and_b0():
    for H in (1, 7, 64):
        co = vaaler.build_coefficients(H)
        assert co.a.shape == (H,) and co.b.shape == (H + 1,)
        assert co.b[0] == pytest.approx(1.0 / (H + 1), abs=1e-16)
        assert np.all(co.b > 0)


def test_damping_endpoints_and_midpoint():
    assert vaaler.phi_damping(0.0) == 1.0
    assert vaaler.phi_damping(0.5) == pytest.approx(0.5, abs=1e-15)
    # decreasing toward 0 at the right edge
    ts = np.linspace(0.0, 0.999, 200)
    vals = [vaaler.phi_damping(float(t)) for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.01
    with pytest.raises(PreconditionError):
        vaaler.phi_damping(1.0)
    with pytest.raises(PreconditionError):
        vaaler.phi_damping(-0.1)


@pytest.mark.parametrize("H", [1, 10, 100, 1000])
def test_coefficient_caps(H):
    co = vaaler.build_coefficients(H)
    assert co.a_abs_cap() <= 1.0
    assert float(np.max(co.b)) * H <= 4.0


# ---------------------------------------------------------------------------
# pointwise inequality |psi - psi*| <= M

@pytest.mark.parametrize("H", [1, 10, 100])
def test_pointwise_inequality_on_grid(H):
    co = vaaler.build_coefficients(H)
    xs = np.concatenate([
        np.linspace(0.0, 1.0, 2001),
        np.random.default_rng(7).uniform(0.0, 1.0, 500),
        np.array([1e-12, 1.0 - 1e-12, 0.5, 2.0, -3.25]),
    ])
    worst, _ = vaaler.pointwise_check(xs, co)
    assert worst <= 1e-10


def test_batch_values_are_bitwise_one_point_values():
    co = vaaler.build_coefficients(100)
    xs = np.random.default_rng(11).uniform(-2.0, 3.0, 2000)
    for fn in (lambda x: vaaler.approx_psi(x, co), lambda x: vaaler.majorant(x, co),
               lambda x: vaaler.naive_fejer_psi(x, 100)):
        batch = fn(xs)
        assert batch.tolist() == [fn(float(x)) for x in xs]


@pytest.mark.parametrize("elems", [1, 250, 1000])
def test_row_chunks_keep_one_point_values(monkeypatch, elems):
    # one row per chunk, then 2 and 10 rows per chunk with a last chunk of 1
    co = vaaler.build_coefficients(100)
    xs = np.random.default_rng(12).uniform(-2.0, 3.0, 301)
    fns = (lambda x: vaaler.approx_psi(x, co), lambda x: vaaler.majorant(x, co),
           lambda x: vaaler.naive_fejer_psi(x, 100))
    whole = [fn(xs).tolist() for fn in fns]
    monkeypatch.setattr(vaaler, "TABLE_ELEMS", elems)
    for fn, want in zip(fns, whole):
        assert fn(xs).tolist() == want
        assert [fn(float(x)) for x in xs] == want


def test_large_degree_table_stays_bounded():
    # the whole 2001 x 4000 angle table would take 64 MB
    import tracemalloc

    co = vaaler.build_coefficients(4000)
    xs = np.linspace(0.0, 1.0, 2001)
    tracemalloc.start()
    try:
        vaaler.pointwise_check(xs, co)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * vaaler.TABLE_ELEMS + (1 << 20)


def test_grid_check_reports_gap_caps_and_verdict():
    co = vaaler.build_coefficients(10)
    worst, worst_x, a_cap, b_cap, ok = vaaler.grid_check(co, np.random.default_rng(3), 1e-10)
    assert ok and worst <= 1e-10 and 0.0 <= worst_x <= 1.0
    assert a_cap == co.a_abs_cap() and b_cap == float(np.max(co.b)) * 10
    again = vaaler.grid_check(co, np.random.default_rng(3), -1.0)
    assert again[:4] == (worst, worst_x, a_cap, b_cap) and again[4] is False


def test_error_shrinks_with_degree():
    xs = np.linspace(0.013, 0.987, 400)
    errs = []
    for H in (5, 50, 500):
        co = vaaler.build_coefficients(H)
        errs.append(float(np.max(np.abs(sawtooth(xs) - vaaler.approx_psi(xs, co)))))
    assert errs[0] > errs[1] > errs[2]


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-100.0, max_value=100.0,
                 allow_nan=False, allow_infinity=False))
def test_pointwise_inequality_at_random_points(x):
    co = vaaler.build_coefficients(25)
    err = abs(float(sawtooth(x)) - vaaler.approx_psi(x, co))
    assert err <= vaaler.majorant(x, co) + 1e-10


# ---------------------------------------------------------------------------
# majorant against its closed form (two independent routes)

def test_majorant_matches_closed_form():
    for H in (1, 4, 33, 200):
        co = vaaler.build_coefficients(H)
        xs = np.concatenate([
            np.linspace(0.0, 2.0, 1501),
            np.array([1e-9, 1.0 - 1e-9, 1.0 + 1e-9, 0.25, 1.0 / 3.0]),
        ])
        gap = np.abs(vaaler.majorant(xs, co) - vaaler.fejer_closed_form(xs, H))
        assert float(np.max(gap)) < 1e-9


def test_majorant_is_one_at_integers():
    co = vaaler.build_coefficients(40)
    for x in (0.0, 1.0, -2.0, 17.0):
        assert vaaler.majorant(x, co) == pytest.approx(1.0, abs=1e-12)
        assert vaaler.fejer_closed_form(x, 40) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0,
                 allow_nan=False, allow_infinity=False))
def test_majorant_is_nonnegative(x):
    assert vaaler.majorant(x, vaaler.build_coefficients(30)) >= -1e-12


def test_majorant_mass_is_one():
    # integral over a period equals b(0) = 1/(H+1)... times (H+1) Fejer
    # normalization: the mean of M over [0,1) is b(0)
    co = vaaler.build_coefficients(12)
    xs = (np.arange(5000) + 0.5) / 5000
    assert float(np.mean(vaaler.majorant(xs, co))) == pytest.approx(
        co.b[0], abs=1e-6)


# ---------------------------------------------------------------------------
# the undamped foil

def test_naive_partial_sum_violates_the_inequality():
    # without the damping the same Fejer weights overshoot near integers: the
    # comparison stays a foil, it must NOT satisfy the pointwise bound
    H = 100
    xs = np.linspace(0.0, 1.0, 20001)
    err = np.abs(sawtooth(xs) - vaaler.naive_fejer_psi(xs, H))
    gap = err - vaaler.fejer_closed_form(xs, H)
    assert float(np.max(gap)) > 1e-3


def test_naive_and_damped_agree_mid_interval():
    # away from the wrap the two partial sums are close for moderate degree
    xs = np.linspace(0.3, 0.7, 101)
    co = vaaler.build_coefficients(200)
    gap = np.abs(vaaler.approx_psi(xs, co) - vaaler.naive_fejer_psi(xs, 200))
    assert float(np.max(gap)) < 0.05


# ---------------------------------------------------------------------------
# CSV dump

def test_coefficient_dump_round_trips(tmp_path):
    co = vaaler.build_coefficients(9)
    path = tmp_path / "coeffs.csv"
    vaaler.dump_coefficients_csv(co, str(path), header=["H=9", "check"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# H=9" and lines[1] == "# check"
    assert lines[2] == "h,re_a,im_a,b"
    rows = [ln.split(",") for ln in lines[3:]]
    assert len(rows) == 10
    assert float(rows[0][3]) == co.b[0]
    for i, row in enumerate(rows[1:], start=1):
        assert int(row[0]) == i
        assert float(row[2]) == co.a[i - 1].imag
        assert float(row[3]) == co.b[i]
