"""Combinatorial decomposition of the von Mangoldt weight and dyadic box algebra.

hb_identity_value evaluates the J-fold identity for Lambda(n) by direct
divisor walks, identity_sweep checks it against the sieved Lambda for every
n up to a limit (the one check behind `psexp hb` and `psexp suite`),
uvz_windows/uvz_preconditions handle the U, V, Z cutoffs that steer the
Type I / Type II split, classify_box applies the split to a dyadic box, and
type_sums evaluates the resulting bilinear sums directly at desk
scale.  Identities about exponents are checked in exact rationals; sums are
double precision on top of the pair-arithmetic phase path.  type_sums
gathers the (m, l) pairs of its window into one block and takes its h-sums
from sums.weighted_h_sums, which the h-side of Gamma_10 and Gamma_11 folds unit
by unit: e((ml)^gamma) once, then one complex multiply per 1 <= h <= H for +-h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np

from . import numerics, sieve, sums
from .errors import PreconditionError, ScaleError
from .exponents import AffineExponent

ML_CAP = 10 ** 7
SWEEP_TOL = 1e-9      # largest scaled identity_sweep error accepted

# x-exponents of the three windows; the 2-power prefactors live outside
_EXP_U = AffineExponent(F(56, 171), F(-38, 171), 0)
_EXP_V = AffineExponent(F(1, 3), 0, 0)
_EXP_Z = AffineExponent(F(115, 342), F(19, 171), 0)


def _factorize(n):
    """Trial-division factorization, fine at desk scale."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def hb_identity_value(n, J, z):
    """Value of the J-fold divisor identity at n; equals Lambda(n) for n <= z^J.

    Sum over j <= J of (-1)^(j-1) C(J,j) sum over m_1..m_j <= z with
    m_1...m_j n_1...n_j = n of mu(m_1)...mu(m_j) log n_1.  Grouping the m-side
    by its product M and using that the ordered factorizations of r = n/M
    carry total log weight log(r) tau_j(r) / j reduces it to one divisor walk.

    A float z is treated as the rounding of an exact cutoff: the truncation
    m <= z and the validity test n <= z^J carry 1e-12 relative slack toward
    inclusion, so z = 64**(1/3) (float 3.999...) truncates at 4, not 3.
    """
    n, J = numerics.check_int(n, "n", 1), numerics.check_int(J, "J", 2, 3)
    z = numerics.check_real(z, "z", 0, ends="()")
    zf = z * (1.0 + 1e-12)
    if not (zf >= n or zf ** J >= n):        # z >= n needs no power that could overflow
        raise PreconditionError(
            f"precondition: identity needs n <= z^J, got n={n}, z^{J}={z**J:g}"
        )
    if n == 1:
        return 0.0
    factors = _factorize(n)
    pattern = {1: ()}
    for p, e in factors:
        pattern = {d * p ** k: v + (k,)
                   for d, v in pattern.items() for k in range(e + 1)}
    divs = sorted(pattern)
    mu = {d: (0 if any(k > 1 for k in v) else (-1) ** sum(v))
          for d, v in pattern.items()}
    small_sf = [d for d in divs if d <= zf and mu[d]]

    g_prev = {d: (mu[d] if d <= zf else 0) for d in divs}  # j = 1
    def tau_j(m, j):
        out = 1
        for k in pattern[m]:
            out *= math.comb(k + j - 1, j - 1)
        return out

    total = 0.0
    logn = math.log(n)
    for j in range(1, J + 1):
        if j > 1:
            g = {}
            for m in divs:
                acc = 0
                for d in small_sf:
                    if m % d == 0:
                        acc += mu[d] * g_prev[m // d]
                g[m] = acc
            g_prev = g
        sign = 1 if j % 2 == 1 else -1
        coeff = sign * math.comb(J, j)
        part = 0.0
        for m in divs:
            gm = g_prev[m]
            if gm == 0:
                continue
            r = n // m
            if r > 1:
                part += gm * (logn - math.log(m)) * tau_j(r, j) / j
        total += coeff * part
    return total


def identity_sweep(limit: int):
    """Worst |identity - Lambda(n)| / (1 + log n) over n <= limit, J = 3,
    z = n^(1/3).  Returns (worst, worst_n).
    """
    tab = sieve.sieve_range(0, limit)
    worst, worst_n = 0.0, 1
    for n in range(1, limit + 1):
        v = hb_identity_value(n, 3, n ** (1.0 / 3.0))
        ref = tab.lam[n - 1] if n > 1 else 0.0
        err = abs(v - ref) / (1.0 + math.log(n))
        if err > worst:
            worst, worst_n = err, n
    return worst, worst_n


@dataclass(frozen=True)
class UVZWindows:
    """Numeric cutoffs at scale x: U = 2^-10 x^eU, V = 2^7 x^(1/3), Z = x^eZ."""

    x: float
    c: float
    U: float
    V: float
    Z: float


def uvz_windows(x, c):
    c = numerics.check_real(c, "c", 1, 28 / 19, "()")
    x = numerics.check_real(x, "x", 2)
    u = 2.0 ** -10 * x ** ((56 - 38 * c) / 171)
    v = 2.0 ** 7 * x ** (1 / 3)
    zz = x ** ((38 * c + 115) / 342)
    return UVZWindows(x, c, u, v, zz)


def uvz_exponent_identities():
    """Exact-rational window identities, independent of the numeric point.

    The x-exponents satisfy eU + 2 eZ = 1 (so 128 U Z^2 = x/8 identically),
    3 eV = 1 (so V^3 = 2^21 x), and eZ - 2 eU = (190c - 109)/342, positive on
    the whole c range, which is why U^2 <= Z never fails for x >= 1.
    """
    one = AffineExponent(1)
    return {
        "u_plus_2z": (_EXP_U + _EXP_Z.scale(2) == one, _EXP_U + _EXP_Z.scale(2)),
        "v_cubed": (_EXP_V.scale(3) == one, _EXP_V.scale(3)),
        "z_minus_2u": (_EXP_Z - _EXP_U.scale(2) == AffineExponent(F(-109, 342), F(190, 342), 0),
                       _EXP_Z - _EXP_U.scale(2)),
    }


@dataclass
class UVZReport:
    windows: UVZWindows
    identities_ok: bool
    conditions: dict      # name -> (holds, slack ratio > 1 when it holds)
    chain_ok: bool        # 2 <= U < V <= Z <= x/2 at this (x, c)
    thresholds: dict      # name -> minimal x making that link hold
    ordering: str


def uvz_preconditions(x, c):
    """Margins for the three decomposition preconditions at (x, c).

    The preconditions are U^2 <= Z, 128 U Z^2 <= x, and 2^18 x <= V^3; the
    last two are exact identities with ratio 8.  Also reports the chain
    2 <= U < V <= Z <= x/2 needed before any dyadic L in [2, x/2] is covered:
    each link's minimal x is returned, since at desk scale the first link is
    astronomically far away and that fact is data, not a failure.
    """
    w = uvz_windows(x, c)
    idents = uvz_exponent_identities()
    identities_ok = all(ok for ok, _ in idents.values())
    conditions = {
        "u_sq_le_z": (w.U ** 2 <= w.Z, w.Z / w.U ** 2),
        "uzz_le_x": (128 * w.U * w.Z ** 2 <= w.x, w.x / (128 * w.U * w.Z ** 2)),
        "v_cubed_ge_x": (2 ** 18 * w.x <= w.V ** 3, w.V ** 3 / (2 ** 18 * w.x)),
    }
    def pow2_or_inf(e):                  # e > 0 on the whole c range of uvz_windows
        return math.inf if e * math.log10(2) > 307 else 2.0 ** e
    thresholds = {
        "u_ge_2": pow2_or_inf(11 * 171 / (56 - 38 * w.c)),
        "v_le_z": pow2_or_inf(7 * 342 / (38 * w.c + 1)),
        "z_le_half_x": pow2_or_inf(342 / (227 - 38 * w.c)),
    }
    chain_ok = (w.U >= 2 and w.U < w.V and w.V <= w.Z and w.Z <= w.x / 2)
    names = sorted((("U", w.U), ("V", w.V), ("Z", w.Z)), key=lambda kv: kv[1])
    ordering = " <= ".join(k for k, _ in names)
    return UVZReport(w, identities_ok, conditions, chain_ok, thresholds, ordering)


@dataclass(frozen=True)
class DyadicBox:
    """Half-open index box (M, M1] x (L, L1] with at most one doubling per side."""

    M: int
    M1: int
    L: int
    L1: int

    def __post_init__(self):
        for edge in ("M", "M1", "L", "L1"):
            object.__setattr__(self, edge, numerics.check_int(getattr(self, edge), edge))
        for lo, hi, side in ((self.M, self.M1, "M"), (self.L, self.L1, "L")):
            if not 1 <= lo <= hi <= 2 * lo:
                raise PreconditionError(
                    f"precondition: need 1 <= {side} <= {side}1 <= 2{side}"
                )


def classify_box(box, windows):
    """'type_ii' when U <= L <= V, else 'type_i' when L >= Z, else 'unclassified'.

    Both windows can contain L; the narrower Type II window wins then, which
    is a convention of this package, not a requirement of the decomposition.
    """
    L = box.L
    if windows.U <= L <= windows.V:
        return "type_ii"
    if L >= windows.Z:
        return "type_i"
    return "unclassified"


def classification_map(x, c):
    """Sweep dyadic boxes L = 2^j covering [1, x] and classify each."""
    w = uvz_windows(x, c)
    rows = []
    L = 1
    while L <= int(w.x):
        box = DyadicBox(1, 1, L, min(2 * L, max(int(w.x), 1)))
        rows.append((w.x, w.c, w.U, w.V, w.Z, box.L, box.L1, classify_box(box, w)))
        L *= 2
    return rows


def write_classification_csv(path, rows, header_comments=()):
    numerics.write_csv(path, header_comments, ["x", "c", "U", "V", "Z", "L_lo", "L_hi", "kind"],
                       ([repr(v) if isinstance(v, float) else v for v in r] for r in rows))


def type_sums(box, H, params, k, variant="SII", a_coeffs=None, b_coeffs=None,
              x1=None):
    """Direct evaluation of a bilinear sum over the box, windowed to (x/2, x1].

    Sum over 1 <= |h| <= H of |sum_m a(m) sum_l w(l) e(t(ml)^c + h(ml)^g
    + k ml / d)| with w(l) = 1 for 'SI', log l for 'SIprime', b(l) for 'SII'.
    H, the required k and x1 (x by default) take sums.gamma10_sum's rules, and
    the window comes from sums.twisted_window.  Every argument is checked
    before the H = 0 and empty-window shortcuts.  The (m, l) pairs with n = ml
    in the window are gathered once, with weights a(m) w(l), into one block
    for sums.weighted_h_sums with the base phase sums.twisted_phase, in the h
    order of sums.gamma10_sum.
    """
    if variant not in ("SI", "SIprime", "SII"):
        raise PreconditionError(f"precondition: unknown variant {variant!r}")
    H = numerics.check_height(H)
    n_lo, n_hi = sums.twisted_window(params, params.x if x1 is None else x1, k)
    if box.M1 * box.L1 > ML_CAP:
        raise ScaleError(f"scale: box {box.M1} x {box.L1} exceeds the direct cap {ML_CAP:g}")
    ms = np.arange(box.M + 1, box.M1 + 1, dtype=np.int64)
    a_coeffs = np.ones(len(ms)) if a_coeffs is None else np.asarray(a_coeffs, dtype=float)
    if len(a_coeffs) != len(ms):
        raise PreconditionError("precondition: a(m) length must match the box")
    ls_all = np.arange(box.L + 1, box.L1 + 1, dtype=np.int64)
    if variant == "SII":
        w_l = np.ones(len(ls_all)) if b_coeffs is None else np.asarray(b_coeffs, float)
        if len(w_l) != len(ls_all):
            raise PreconditionError("precondition: b(l) length must match the box")
    elif variant == "SIprime":
        w_l = np.log(ls_all.astype(float))
    else:
        w_l = np.ones(len(ls_all))
    n_lo = max(n_lo, (box.M + 1) * (box.L + 1) - 1)     # exclusive
    n_hi = min(n_hi, box.M1 * box.L1)                   # inclusive
    if H == 0 or n_hi <= n_lo:
        return 0.0

    # per m, the l-range whose products fall in the n-window, flattened
    l_lo = np.maximum(box.L + 1, n_lo // ms + 1)
    count = np.maximum(np.minimum(box.L1, n_hi // ms) - l_lo + 1, 0)
    row = np.repeat(np.arange(ms.size), count)
    ls = l_lo[row] + np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    ns = ms[row] * ls
    weight = a_coeffs[row] * w_l[ls - box.L - 1]

    hs = [s * h for h in range(1, H + 1) for s in (1, -1)]
    inner = sums.weighted_h_sums(ns, weight, hs, params.gamma_float,
                                 sums.twisted_phase(ns, params, int(k)))
    return float(sum(abs(v) for v in inner))
