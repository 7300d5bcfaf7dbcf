"""Trigonometric approximation of psi(x) = {x} - 1/2 with a Fejer majorant.

The degree-H approximant is

    psi*(x) = sum_{1 <= |h| <= H} a(h) e(hx),
    a(h)    = i * Phi(|h|/(H+1)) / (2 pi h),
    Phi(t)  = pi t (1 - t) cot(pi t) + t,

i.e. psi*(x) = -(1/pi) sum_{h=1}^{H} (Phi(h/(H+1))/h) sin(2 pi h x).  The
Phi damping is what makes the pointwise error controllable: psi* interpolates
psi at the Fejer-kernel zeros k/(H+1), and

    |psi(x) - psi*(x)| <= M(x) = sum_{|h| <= H} b(h) e(hx),
    b(h) = (1 - |h|/(H+1)) / (H+1),

where M is (1/(H+1)) times the Fejer kernel, hence nonnegative with mean
1/(H+1).  This b is twice the sharp choice; the factor-two slack keeps the
inequality strict at integer x where the sharp version is an equality.
Dropping Phi (plain Fejer smoothing of the psi series) breaks the bound near
integers by a factor ~ H * dist(x, Z), which the tests demonstrate.

The three series (approx_psi, majorant, naive_fejer_psi) are reduced by
_trig_series, an in-place weight and a row sum, not by a matrix product: a
BLAS gemv sums in an order that follows the thread count and the batch
shape, while numpy's row sum gives every x bitwise the value of a one-point
call.  The rows go in chunks of at most TABLE_ELEMS table entries, so memory
stays bounded at any H up to H_MAX.  grid_check is the one check of the
approximation that `psexp vaaler` and `psexp suite` run: the pointwise
inequality on a fixed grid plus random points, and the caps
max |a(h) h| <= A_CAP, max b(h) H <= B_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ddmath as dm
from .numerics import check_int, check_real

H_MAX = 10 ** 6
A_CAP = 1.0 + 1e-12      # max |a(h) h| = max Phi / (2 pi) <= 1 / (2 pi)
B_CAP = 4.0 + 1e-12      # max b(h) H = H / (H+1) < 1
TABLE_ELEMS = 1 << 18    # largest angle table _trig_series forms: 2 MiB of float64


@dataclass(frozen=True)
class VaalerCoefficients:
    """Coefficients for degree H: a[h-1] = a(h) for h = 1..H; b[h] for 0..H.

    a(-h) = conj(a(h)) is implied; b is even in h.
    """

    H: int
    a: np.ndarray
    b: np.ndarray

    def a_abs_cap(self) -> float:
        """max over h of |a(h)| * |h| (must stay <= 1/(2 pi) * kappa)."""
        return float(np.max(np.abs(self.a) * np.arange(1, self.H + 1)))


def phi_damping(t: float) -> float:
    """Phi(t) = pi t (1-t) cot(pi t) + t on [0, 1); Phi(0) = 1, Phi(1-) = 0."""
    t = check_real(t, "t", 0, 1, "[)")
    if t == 0.0:
        return 1.0
    return math.pi * t * (1.0 - t) / math.tan(math.pi * t) + t


def _check_degree(H) -> int:
    """H as an int for a degree-H series: an integer 1 <= H <= H_MAX."""
    return check_int(H, "H", 1, H_MAX)


def build_coefficients(H: int) -> VaalerCoefficients:
    H = _check_degree(H)
    h = np.arange(1, H + 1, dtype=np.float64)
    phi = np.array([phi_damping(v) for v in h / (H + 1.0)])
    a = 1j * phi / (2.0 * math.pi * h)
    b = (1.0 - np.arange(0, H + 1, dtype=np.float64) / (H + 1.0)) / (H + 1.0)
    return VaalerCoefficients(H, a, b)


def _trig_series(trig, x, w: np.ndarray):
    """sum_{h=1}^{len(w)} w[h-1] trig(2 pi h {x}), one row sum per x.

    The x are taken in chunks of max(1, TABLE_ELEMS // len(w)) rows, so the
    angle table holds at most TABLE_ELEMS entries (or one row) whatever H.
    """
    x = np.asarray(x, dtype=np.float64)
    r = (x - np.floor(x)).reshape(-1)
    h = np.arange(1, w.size + 1, dtype=np.float64)
    rows = max(1, TABLE_ELEMS // w.size)
    out = np.empty(r.size)
    for i in range(0, r.size, rows):
        T = trig(2.0 * math.pi * np.multiply.outer(r[i:i + rows], h))
        T *= w
        out[i:i + rows] = T.sum(axis=-1)
    return out.reshape(x.shape)


def approx_psi(x, coeffs: VaalerCoefficients):
    """psi*(x); scalar or ndarray x, reduced mod 1 before the sine series."""
    s = _trig_series(np.sin, x, 2.0 * coeffs.a.imag)      # Phi_h / (pi h)
    return -s if s.shape else float(-s)


def majorant(x, coeffs: VaalerCoefficients):
    """M(x) = sum_{|h|<=H} b(h) e(hx), evaluated from the coefficients.

    Scaled Fejer kernel; the closed form is available separately as an
    independent oracle (fejer_closed_form).
    """
    m = coeffs.b[0] + 2.0 * _trig_series(np.cos, x, coeffs.b[1:])
    return m if m.shape else float(m)


def fejer_closed_form(x, H: int):
    """(sin(pi(H+1)x) / ((H+1) sin(pi x)))^2, = 1 at integers; oracle for M.

    |sin(pi y)| is evaluated as sin(pi * min({y}, 1-{y})) so the value stays
    accurate when {y} is close to 0 or 1.  H as for build_coefficients.
    """
    H = _check_degree(H)
    x = np.asarray(x, dtype=np.float64)

    def abs_sin_pi_pair(yhi, ylo):
        # distance of y to the nearest integer, at pair accuracy
        rhi, rlo = dm.dd_frac(yhi, ylo)
        d = np.minimum(rhi + rlo, (1.0 - rhi) - rlo)
        return np.sin(math.pi * d)

    s = abs_sin_pi_pair(x, np.zeros_like(x))
    num = abs_sin_pi_pair(*dm.two_prod(float(H + 1), x))
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(s == 0.0, 1.0, (num / ((H + 1) * np.where(s == 0.0, 1.0, s))) ** 2)
    return v if v.shape else float(v)


def naive_fejer_psi(x, H: int):
    """Undamped comparison: Fejer-weighted partial sum of the psi series.

    -(1/pi) sum (1 - h/(H+1)) sin(2 pi h x)/h.  Kept as a foil: it fails the
    pointwise inequality against M near integers.  H as for build_coefficients.
    """
    H = _check_degree(H)
    h = np.arange(1, H + 1, dtype=np.float64)
    s = _trig_series(np.sin, x, (1.0 - h / (H + 1.0)) / h)
    return (-s / math.pi) if s.shape else float(-s / math.pi)


def pointwise_check(xs: np.ndarray, coeffs: VaalerCoefficients):
    """max over xs of |psi - psi*| - M, <= 0 up to rounding where the bound holds.

    Returns (worst_violation, worst_x).
    """
    xs = np.asarray(xs, dtype=np.float64)
    psi_vals = (xs - np.floor(xs)) - 0.5
    err = np.abs(psi_vals - approx_psi(xs, coeffs))
    gap = err - majorant(xs, coeffs)
    i = int(np.argmax(gap))
    return float(gap[i]), float(xs[i])


def grid_check(coeffs: VaalerCoefficients, rng: np.random.Generator, tol: float):
    """The check of degree-H coeffs on 10,001 grid points of [0, 1] and 1000 random x.

    Returns (worst_gap, worst_x, a_cap, b_cap, ok): the pointwise_check pair,
    max |a(h) h| and max b(h) H, and ok when the gap is <= tol and both caps
    hold.
    """
    xs = np.concatenate([np.linspace(0.0, 1.0, 10_001), rng.uniform(0.0, 1.0, 1000)])
    worst, worst_x = pointwise_check(xs, coeffs)
    a_cap = coeffs.a_abs_cap()
    b_cap = float(np.max(coeffs.b) * coeffs.H)
    return worst, worst_x, a_cap, b_cap, worst <= tol and a_cap <= A_CAP and b_cap <= B_CAP


def dump_coefficients_csv(coeffs: VaalerCoefficients, path: str,
                          header: list[str] | None = None) -> None:
    """CSV of (h, re_a, im_a, b) for h = 0..H (a(0) = 0 by convention)."""
    with open(path, "w", newline="") as fh:
        for line in header or []:
            fh.write(f"# {line}\n")
        fh.write("h,re_a,im_a,b\n")
        fh.write(f"0,{0.0!r},{0.0!r},{float(coeffs.b[0])!r}\n")
        for i in range(coeffs.H):
            fh.write(f"{i+1},{float(coeffs.a[i].real)!r},{float(coeffs.a[i].imag)!r},"
                     f"{float(coeffs.b[i+1])!r}\n")
