"""Derivative-test bounds and the Weyl shift ("square-out") inequality.

For a real phase f on an interval (a, b] the classical bounds read

    second derivative: |sum e(f(n))| <= C ((b-a) lam^(1/2) + lam^(-1/2)),
    third derivative:  |sum e(f(n))| <= C ((b-a) lam^(1/6) + lam^(-1/3)),

valid when |f''| (resp. |f'''|) is comparable to lam throughout.  compare()
samples the derivative at 1000 points of the interval, takes lam as the
geometric mean of the sampled bracket, and reports the empirical-to-bound
ratio with C = _C = 1; a ratio at most RATIO_CEILING = 10 across standard_sweep is
the desk-scale sanity that the formulas are transcribed right.

square_out_check verifies the unconditional inequality

    |sum_{n in I} z_n|^2 <= (1 + X/Q) sum_{|q|<Q} (1-|q|/Q) sum_n z_{n+q} conj(z_n)

(X = |I|; the exact Cauchy-Schwarz factor is (|I|+Q-1)/Q, so the
stated factor is slightly generous and the inequality holds for every complex
sequence, which makes it a sharp self-test of the correlation bookkeeping).
square_out_trials runs it on 250 random unit-modulus sequences at four shift
caps each; `psexp vdc` and `psexp suite` both run that one check.

Real arguments (lam, length, a, b, theta, power) go through numerics.check_real and
are used as its float; square_out_check's Q goes through numerics.check_int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError
from .numerics import check_int, check_real

_C = 1.0                    # the derivative tests' constant
_BRACKET_SAMPLES = 1000     # sample points of a derivative bracket
RATIO_CEILING = 10.0        # largest empirical/bound ratio standard_sweep accepts
REL_TOL = 1e-6              # relative slack of square_out_check's inequality


@dataclass
class PhaseFunction:
    """A phase f on (a, b] with optional second/third derivative callables."""

    f: Callable[[np.ndarray], np.ndarray]
    a: float
    b: float
    d2: Callable[[np.ndarray], np.ndarray] | None = None
    d3: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""

    def __post_init__(self):
        self.a = check_real(self.a, "a")
        self.b = check_real(self.b, "b", self.a, ends="()")

    def n_values(self) -> np.ndarray:
        return np.arange(math.floor(self.a) + 1, math.floor(self.b) + 1, dtype=np.int64)

    def bracket(self, order: int) -> tuple[float, float]:
        """(min, max) of |f''| or |f'''| over a uniform sample of [a, b]."""
        fn = self.d2 if order == 2 else self.d3 if order == 3 else None
        if fn is None:
            raise PreconditionError(f"derivative of order {order} not supplied")
        ys = np.abs(np.asarray(fn(np.linspace(self.a, self.b, _BRACKET_SAMPLES))))
        return float(np.min(ys)), float(np.max(ys))


@dataclass
class BoundReport:
    kind: str                 # "second" or "third"
    interval: tuple[float, float]
    lam: float
    bound: float
    empirical: float
    ratio: float
    label: str = ""


def _bound_args(length, lam) -> tuple:
    """(length, lam) by check_real, lam in (0, inf) first, then length in [0, inf)."""
    lam = check_real(lam, "lam", 0, ends="()")
    return check_real(length, "length", 0), lam


def second_derivative_bound(length: float, lam: float) -> float:
    """C ((b-a) sqrt(lam) + 1/sqrt(lam)); needs lam > 0."""
    length, lam = _bound_args(length, lam)
    return _C * (length * math.sqrt(lam) + 1.0 / math.sqrt(lam))


def third_derivative_bound(length: float, lam: float) -> float:
    """C ((b-a) lam^(1/6) + lam^(-1/3)); needs lam > 0."""
    length, lam = _bound_args(length, lam)
    return _C * (length * lam ** (1.0 / 6.0) + lam ** (-1.0 / 3.0))


def empirical_sum(pf: PhaseFunction) -> float:
    """|sum_{a < n <= b} e(f(n))| by direct evaluation."""
    n = pf.n_values()
    if n.size == 0:
        return 0.0
    r = np.mod(np.asarray(pf.f(n.astype(np.float64))), 1.0)
    z = np.exp((2j * math.pi) * r)
    return float(abs(z.sum()))


def compare(pf: PhaseFunction, kind: str = "second") -> BoundReport:
    """Empirical |sum e(f(n))| against the derivative-test bound.

    lam is the geometric mean of the sampled |f''| (or |f'''|) bracket; a
    degenerate bracket (vanishing derivative somewhere) is a precondition
    failure since the tests assume one-signed curvature.
    """
    if kind not in ("second", "third"):
        raise PreconditionError(f"kind must be 'second' or 'third', got {kind!r}")
    order = 2 if kind == "second" else 3
    lo, hi = pf.bracket(order)
    if lo <= 0.0:
        raise PreconditionError(
            f"|f^({order})| vanishes on the interval (bracket [{lo}, {hi}])")
    lam = math.sqrt(lo * hi)
    length = pf.b - pf.a
    bound = (second_derivative_bound(length, lam) if order == 2
             else third_derivative_bound(length, lam))
    emp = empirical_sum(pf)
    return BoundReport(kind, (pf.a, pf.b), lam, bound, emp, emp / bound, pf.label)


def square_out_check(z: np.ndarray, Q: int):
    """Check the shift inequality for one sequence and shift cap Q >= 1.

    Returns (lhs, rhs, ok, imag_residual): lhs = |sum z|^2, rhs the weighted
    autocorrelation bound, ok = lhs <= rhs * (1 + REL_TOL); imag_residual is
    the size of the imaginary part of the symmetrized correlation sum, which
    is zero in exact arithmetic.
    """
    Q = check_int(Q, "Q", 1)
    z = np.asarray(z, dtype=np.complex128)
    N = z.size
    if N == 0:
        return 0.0, 0.0, True, 0.0

    lhs = abs(z.sum()) ** 2
    # full autocorrelation: corr[N-1+q] = sum_n z[n+q] conj(z[n])
    corr = np.correlate(z, z, mode="full")
    qs = np.arange(-(N - 1), N)
    w = np.clip(1.0 - np.abs(qs) / Q, 0.0, None)
    acc = complex((w * corr).sum())
    rhs = (1.0 + N / Q) * acc.real
    ok = lhs <= rhs * (1.0 + REL_TOL) + 1e-12
    return float(lhs), float(rhs), bool(ok), abs(acc.imag)


def square_out_trials(rng: np.random.Generator):
    """square_out_check on 250 sequences e(u_n), u_n uniform, of random length
    16 <= N <= 256, at Q = 1, 5, 50 and N.  Returns (trials, violations).
    """
    trials = violations = 0
    for _ in range(250):
        N = int(rng.integers(16, 257))
        z = np.exp(2j * math.pi * rng.uniform(0.0, 1.0, N))
        for Q in (1, 5, 50, N):
            trials += 1
            violations += not square_out_check(z, Q)[2]
    return trials, violations


def monomial_phase(theta: float, power: float, a: float, b: float) -> PhaseFunction:
    """f(n) = theta * n^power with exact symbolic derivatives."""
    theta, power = check_real(theta, "theta"), check_real(power, "power")
    if theta == 0:
        raise PreconditionError(f"need nonzero theta, got {theta}")

    def f(n):
        return theta * n ** power

    def d2(n):
        return theta * power * (power - 1.0) * n ** (power - 2.0)

    def d3(n):
        return theta * power * (power - 1.0) * (power - 2.0) * n ** (power - 3.0)

    pf = PhaseFunction(f, a, b, d2, d3)
    pf.label = f"{theta:g}*n^{power:g} on ({pf.a:g},{pf.b:g}]"
    return pf


def standard_sweep() -> list[BoundReport]:
    """The desk-scale (phase, interval) sweep used by the acceptance gate.

    Monomial families theta*n^2 (second test), theta*n^3 (third test) and
    theta*n^1.5 (both tests), 42 pairs in total.
    """
    reports = []
    for theta in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1):
        for N in (1000.0, 3000.0):
            reports.append(compare(monomial_phase(theta, 2.0, N, 2 * N), "second"))
            reports.append(compare(monomial_phase(theta / N, 3.0, N, 2 * N), "third"))
    for theta in (1e-3, 1e-2, 1e-1):
        for N in (1000.0, 5000.0):
            pf = monomial_phase(theta, 1.5, N, 2 * N)
            reports.append(compare(pf, "second"))
            reports.append(compare(pf, "third"))
    for theta in (0.5e-3, 2e-3):
        reports.append(compare(monomial_phase(theta, 1.5, 1000.0, 2000.0), "second"))
    return reports
