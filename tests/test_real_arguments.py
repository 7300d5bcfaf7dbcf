"""Every real scalar argument goes through numerics.check_real: one test per site.

Each site refuses a bool, a string, None, NaN, +-inf and a value just outside
its span with PreconditionError in the one message form, and takes int,
NumPy and Fraction values to the result their float gives.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from psexp import heathbrown, numerics, sieve, sums, vaaler, vdc
from psexp.errors import PreconditionError
from psexp.numerics import Parameters

P = Parameters(x=1e4, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
W = Parameters(x=3000.0, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
N = np.arange(1, 200)
UP, DOWN = math.inf, -math.inf


def _params(**kw):
    p = Parameters(**{"x": 1e4, "c": 1.05, "gamma": 0.995, **kw})
    return p.x, p.c_float, p.gamma_float, p.t, p.region_ok


def _phase(**kw):
    pf = vdc.PhaseFunction(lambda n: 1e-3 * n ** 2, **{"a": 1.0, "b": 50.0, **kw})
    return pf.a, pf.b, vdc.empirical_sum(pf)


def _trend(x):
    return [(r.x, r.lhs, r.main) for r in sums.theorem_trend(P, [x]).rows]


def _monomial(theta):
    pf = vdc.monomial_phase(theta, 2.0, 1000.0, 1100.0)
    return pf.label, vdc.empirical_sum(pf)


# id: (call, name, span, an int in the span or None, a real in it, the values just
# outside each finite end)
SITES = {
    "Parameters.x": (lambda v: _params(x=v), "x", "(0, inf)", 5000, 1e4 + 0.5, (0.0,)),
    "Parameters.gamma": (lambda v: _params(gamma=v), "gamma", "(0, 1]", 1, 0.9,
                         (0.0, math.nextafter(1.0, UP))),
    "Parameters.c": (lambda v: _params(c=v), "c", "[1, 2]", 2, 1.05,
                     (math.nextafter(1.0, DOWN), math.nextafter(2.0, UP))),
    "Parameters.t": (lambda v: _params(t=v), "t", "[-1e+06, 1e+06]", -3, 0.5,
                     (math.nextafter(-1e6, DOWN), math.nextafter(1e6, UP))),
    "phase_mod1.t": (lambda v: numerics.phase_mod1(v, 10, 1.5), "t", "[-1e+06, 1e+06]", 3, 0.5,
                     (math.nextafter(-1e6, DOWN), math.nextafter(1e6, UP))),
    "phase_mod1_vec.t": (lambda v: numerics.phase_mod1_vec(v, N, 1.05), "t",
                         "[-1e+06, 1e+06]", 3, 0.25,
                         (math.nextafter(-1e6, DOWN), math.nextafter(1e6, UP))),
    "phase_mod1_vec.c": (lambda v: numerics.phase_mod1_vec(0.5, N, v), "c", "(0, 2]", 2, 1.05,
                         (0.0, math.nextafter(2.0, UP))),
    "frac_pair.c": (lambda v: numerics.frac_pair(N, v, 3), "c", "(0, 2]", 1, 0.75,
                    (0.0, math.nextafter(2.0, UP))),
    "frac.y": (numerics.frac, "y", "(-inf, inf)", 3, 2.5, ()),
    "is_ps_prime.gamma": (lambda v: sieve.is_ps_prime(8, v), "gamma", "(0, 1]", 1,
                          Fraction(1, 3), (0.0, math.nextafter(1.0, UP))),
    "ps_floor.gamma": (lambda v: sieve.ps_floor(N, v), "gamma", "(0, 1]", 1, 0.5,
                       (0.0, math.nextafter(1.0, UP))),
    "primes_in_ap.x": (lambda v: sieve.primes_in_ap(v, 3, 1), "x", "(-inf, inf)", 100, 100.5,
                       ()),
    "gamma3_sum.x": (lambda v: sums.gamma3_sum(v, P), "gamma3_sum x", "(-inf, inf)", 100,
                     100.5, ()),
    "gamma5_sum.x": (lambda v: sums.gamma5_sum(v, P), "gamma5_sum x", "[4, inf)", 100, 100.5,
                     (math.nextafter(4.0, DOWN),)),
    "theorem_trend.x": (_trend, "schedule x", "[2, inf)", 100, 100.5,
                        (math.nextafter(2.0, DOWN),)),
    "geometric_schedule.x_lo": (lambda v: sums.geometric_schedule(v, 1e3, 2.0), "x_lo",
                                "[2, inf)", 10, 10.5, (math.nextafter(2.0, DOWN),)),
    "geometric_schedule.x_hi": (lambda v: sums.geometric_schedule(10.0, v, 2.0), "x_hi",
                                "[10, inf)", 1000, 1000.5, (math.nextafter(10.0, DOWN),)),
    "geometric_schedule.factor": (lambda v: sums.geometric_schedule(10.0, 1e3, v), "factor",
                                  "(1, inf)", 2, 3.5, (1.0,)),
    "twisted_window.x1": (lambda v: sums.twisted_window(W, v, 1), "x1", "[1500, 3000]", 2000,
                          2000.5, (math.nextafter(1500.0, DOWN), math.nextafter(3000.0, UP))),
    "uvz_windows.c": (lambda v: heathbrown.uvz_windows(1e6, v), "c", f"(1, {28 / 19!r})", None,
                      1.2, (1.0, 28 / 19)),
    "uvz_windows.x": (lambda v: heathbrown.uvz_windows(v, 1.2), "x", "[2, inf)", 10 ** 6,
                      1e6 + 0.5, (math.nextafter(2.0, DOWN),)),
    "hb_identity_value.z": (lambda v: heathbrown.hb_identity_value(12, 2, v), "z", "(0, inf)",
                            4, 4.5, (0.0,)),
    "second_derivative_bound.lam": (lambda v: vdc.second_derivative_bound(10.0, v), "lam",
                                    "(0, inf)", 2, 0.25, (0.0,)),
    "second_derivative_bound.length": (lambda v: vdc.second_derivative_bound(v, 0.25), "length",
                                       "[0, inf)", 10, 10.5, (math.nextafter(0.0, DOWN),)),
    "third_derivative_bound.lam": (lambda v: vdc.third_derivative_bound(10.0, v), "lam",
                                   "(0, inf)", 2, 0.25, (0.0,)),
    "third_derivative_bound.length": (lambda v: vdc.third_derivative_bound(v, 0.25), "length",
                                      "[0, inf)", 10, 10.5, (math.nextafter(0.0, DOWN),)),
    "PhaseFunction.a": (lambda v: _phase(a=v), "a", "(-inf, inf)", 2, 1.5, ()),
    "PhaseFunction.b": (lambda v: _phase(b=v), "b", "(1, inf)", 40, 40.5, (1.0,)),
    "monomial_phase.theta": (_monomial, "theta", "(-inf, inf)", -1, 1e-3, ()),
    "phi_damping.t": (vaaler.phi_damping, "t", "[0, 1)", 0, 0.25,
                      (math.nextafter(0.0, DOWN), 1.0)),
}


def _plain(r):
    """A site's result with arrays made lists, so that == compares values."""
    if isinstance(r, np.ndarray):
        return r.tolist()
    if isinstance(r, (tuple, list)):
        return [_plain(v) for v in r]
    return r


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_real_argument_takes_the_one_rule(site):
    call, name, span, as_int, real, outside = SITES[site]
    bad = [True, "0.5", None, math.nan, math.inf, -math.inf]
    for v in bad + list(outside):
        with pytest.raises(PreconditionError) as exc:
            call(v)
        assert str(exc.value) == f"{name} must be a finite real in {span}, got {v!r}"
    good = [np.float32(real), np.float64(real), Fraction(real)]
    if as_int is not None:
        good += [as_int, np.int64(as_int)]
    for v in good:
        assert _plain(call(v)) == _plain(call(float(v))), (site, v)
