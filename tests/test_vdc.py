"""Derivative-test bounds, the shift (square-out) inequality, the sweep."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psexp import vdc
from psexp.errors import PreconditionError


# ---------------------------------------------------------------------------
# bound formulas

def test_bound_formulas_are_the_stated_expressions():
    assert vdc.second_derivative_bound(100.0, 0.04) == pytest.approx(
        100.0 * 0.2 + 5.0, rel=1e-15)
    assert vdc.third_derivative_bound(64.0, 1e-6) == pytest.approx(
        64.0 * 1e-1 + 1e2, rel=1e-12)


def test_bounds_reject_degenerate_lambda():
    for fn in (vdc.second_derivative_bound, vdc.third_derivative_bound):
        with pytest.raises(PreconditionError):
            fn(10.0, 0.0)
        with pytest.raises(PreconditionError):
            fn(10.0, -1.0)
        for length in (-1.0, math.nan, math.inf):
            with pytest.raises(PreconditionError):
                fn(length, 0.5)


# ---------------------------------------------------------------------------
# phase functions

def test_monomial_phase_reports_exact_derivatives():
    pf = vdc.monomial_phase(0.3, 2.5, 10.0, 20.0)
    n = np.array([12.0, 17.0])
    assert np.allclose(pf.d2(n), 0.3 * 2.5 * 1.5 * n ** 0.5, rtol=1e-15)
    assert np.allclose(pf.d3(n), 0.3 * 2.5 * 1.5 * 0.5 * n ** -0.5, rtol=1e-15)
    lo, hi = pf.bracket(2)
    assert lo <= 0.3 * 2.5 * 1.5 * math.sqrt(12.0) <= hi
    with pytest.raises(PreconditionError, match="order 4 not supplied"):
        pf.bracket(4)


def test_phase_function_validates_interval():
    with pytest.raises(PreconditionError):
        vdc.PhaseFunction(lambda n: n, 5.0, 5.0)
    with pytest.raises(PreconditionError):
        vdc.monomial_phase(0.0, 2.0, 1.0, 10.0)


def test_n_values_covers_integers_in_half_open_interval():
    pf = vdc.PhaseFunction(lambda n: n, 3.5, 9.0)
    assert list(pf.n_values()) == [4, 5, 6, 7, 8, 9]


def test_empirical_sum_of_constant_phase():
    pf = vdc.PhaseFunction(lambda n: np.full_like(n, 0.37), 0.0, 100.0)
    assert vdc.empirical_sum(pf) == pytest.approx(100.0, abs=1e-9)


def test_empirical_sum_geometric_cancellation():
    # f(n) = n/2 alternates signs: the sum telescopes to 0 or 1 terms
    pf = vdc.PhaseFunction(lambda n: 0.5 * n, 0.0, 100.0)
    assert vdc.empirical_sum(pf) <= 1.0 + 1e-12


def test_empirical_sum_empty_interval():
    assert vdc.empirical_sum(vdc.PhaseFunction(lambda n: n, 3.1, 3.9)) == 0.0


def test_compare_flags_vanishing_curvature():
    # power 1: f'' = 0 identically
    pf = vdc.monomial_phase(0.3, 1.0, 1.0, 50.0)
    with pytest.raises(PreconditionError):
        vdc.compare(pf, "second")
    with pytest.raises(PreconditionError):
        vdc.compare(pf, "fourth")


def test_compare_produces_consistent_report():
    pf = vdc.monomial_phase(0.001, 2.0, 100.0, 400.0)
    rep = vdc.compare(pf, "second")
    assert rep.kind == "second"
    # constant curvature: bracket collapses and lam is exactly |f''|
    assert rep.lam == pytest.approx(0.002, rel=1e-12)
    assert rep.empirical == pytest.approx(vdc.empirical_sum(pf), abs=1e-12)
    assert rep.ratio == rep.empirical / rep.bound
    assert rep.ratio <= 10.0


# ---------------------------------------------------------------------------
# square-out inequality

def rng_sequences(seed, trials):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(8, 257))
        mode = rng.integers(0, 3)
        if mode == 0:
            z = np.exp(2j * math.pi * rng.random(n))        # unimodular
        elif mode == 1:
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
        else:
            theta = rng.random()
            z = np.exp(2j * math.pi * theta * np.arange(n) ** 1.5)
        yield z


def test_square_out_holds_across_shift_caps():
    violations = 0
    for z in rng_sequences(12345, 250):
        for Q in (1, 5, 50, len(z)):
            lhs, rhs, ok, imag = vdc.square_out_check(z, Q)
            assert imag < 1e-6 * max(1.0, rhs)
            violations += not ok
    assert violations == 0


def test_square_out_exact_for_constant_sequence():
    z = np.ones(64, dtype=complex)
    lhs, rhs, ok, imag = vdc.square_out_check(z, 1)
    # lhs = N^2, correlation at shift 0 is N, rhs = (1 + N) N
    assert lhs == pytest.approx(64.0 ** 2, rel=1e-12)
    assert rhs == pytest.approx(65.0 * 64.0, rel=1e-12)
    assert ok and imag < 1e-9


def test_square_out_validates_input():
    z = np.ones(8, dtype=complex)
    with pytest.raises(PreconditionError):
        vdc.square_out_check(z, 0)
    with pytest.raises(PreconditionError):
        vdc.square_out_check(z, 2.5)
    assert vdc.square_out_check(np.zeros(0, dtype=complex), 5) == (0.0, 0.0, True, 0.0)
    for Q in (0, -1, 2.5):                 # checked before the empty-z shortcut
        with pytest.raises(PreconditionError):
            vdc.square_out_check(np.zeros(0, dtype=complex), Q)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=64),
       st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                min_size=1, max_size=64))
def test_square_out_never_violated_on_unimodular_input(Q, fracs):
    z = np.exp(2j * math.pi * np.asarray(fracs))
    lhs, rhs, ok, _ = vdc.square_out_check(z, Q)
    assert ok, (lhs, rhs)


# ---------------------------------------------------------------------------
# the standard sweep

def test_standard_sweep_shape_and_ratios():
    reports = vdc.standard_sweep()
    assert len(reports) == 42
    kinds = {r.kind for r in reports}
    assert kinds == {"second", "third"}
    for r in reports:
        assert r.bound > 0
        assert r.label
        assert 0.0 <= r.ratio <= 10.0


def test_sweep_is_deterministic():
    a = vdc.standard_sweep()
    b = vdc.standard_sweep()
    assert [(r.label, r.empirical, r.bound) for r in a] == \
           [(r.label, r.empirical, r.bound) for r in b]


def test_square_out_trials_is_a_seeded_thousand():
    first = vdc.square_out_trials(np.random.default_rng(5))
    assert first == (1000, 0)
    assert vdc.square_out_trials(np.random.default_rng(5)) == first
