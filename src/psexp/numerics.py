"""Shared numeric kernel: parameter bundle, {x}, psi, e(x), and {t n^c}.

Notation follows the classical conventions: e(y) = exp(2*pi*i*y), psi(y) =
{y} - 1/2, and the phase of interest is the fractional part of t * n^c for
integer n.  The fractional part is the only thing trig functions ever see, so
large arguments never reach sin/cos.  phase_mod1_vec (and phase_mod1, its
one-element case) take {t * n^c} as a pair from the fused kernel
ddmath.dd_scaled_frac: one double-double power per sparse anchor, then a
local binomial expansion per element, with the anchor width set by the error
budget and |t| n^c, reduced mod 1 chunk by chunk.  A walk passes the
ddmath.anchor_table it built once for its whole range, so it powers each
anchor once; a call without one powers the anchors of its own n.  Every n
must be an integer 1 <= n < 2^53 (check_n).  The documented per-phase error
is PHASE_BUDGET = 1e-9 while |t n^c| < 2^70; the kernel stays within ~1e-12
of mpmath while |t n^c| <= 2^53 and within ~1e-10 up to the cap (measured:
9e-14 and 1.4e-11).  The h-loops (1 <= |h| <= H) take one pair {n^c} from
frac_pair, with anchors sized for |t| = H, and form each {h n^c} by
frac_times: one multiply and one floor per h, error |h| times the pair's
error plus |h| 2^-53.

The package's arguments meet two rules with one message form: check_int for
integers, check_real for real scalars (finite, in a span, used as a float),
as Parameters' x, c, gamma, t and the phase entries' t and c are.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Union

import numpy as np

from . import ddmath as dm
from .errors import PrecisionError, PreconditionError

PHASE_CAP = 2.0 ** 70       # |t * n^c| must stay under this
N_CAP = 2 ** 53             # n must stay under this
PHASE_BUDGET = 1e-9         # documented |{t n^c}| error per phase evaluation
T_CAP = 1.0e6               # |t| cap for phase evaluation

Real = Union[float, Fraction, int]


def _as_fraction(v: Real) -> Fraction:
    if isinstance(v, numbers.Rational):
        return Fraction(v)
    return Fraction(*v.as_integer_ratio())


@dataclass(frozen=True)
class Parameters:
    """Immutable run parameters (x; c, gamma; t; progression a mod d).

    c and gamma may be passed as Fraction for exact region arithmetic; floats
    are converted to their exact dyadic values, so region_ok is always an
    exact rational statement about the numbers actually used.
    """

    x: float
    c: Real
    gamma: Real
    t: float = 0.0
    d: int = 1
    a: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", check_real(self.x, "x", 0, ends="()"))
        check_real(self.gamma, "gamma", 0, 1, "(]")
        check_real(self.c, "c", 1, 2)
        object.__setattr__(self, "d", check_int(self.d, "d", 1))
        object.__setattr__(self, "a", check_int(self.a, "a"))
        if math.gcd(self.a, self.d) != 1:
            raise PreconditionError(f"need gcd(a, d) = 1, got gcd({self.a}, {self.d})")
        object.__setattr__(self, "t", check_real(self.t, "t", -T_CAP, T_CAP))

    @property
    def c_float(self) -> float:
        return float(self.c)

    @property
    def gamma_float(self) -> float:
        return float(self.gamma)

    @property
    def region_ok(self) -> bool:
        """Exact test of 19(c - 1) + 171(1 - gamma) < 9."""
        c, g = _as_fraction(self.c), _as_fraction(self.gamma)
        return 19 * (c - 1) + 171 * (1 - g) < 9

    def claimed_exponent(self) -> Fraction:
        """Error exponent c/18 + gamma/2 + 143/342 (delta excluded)."""
        c, g = _as_fraction(self.c), _as_fraction(self.gamma)
        return c / 18 + g / 2 + Fraction(143, 342)


def frac(y) -> float:
    """Fractional part {y} in [0, 1) of a real y; frac(-0.25) = 0.75, exact at integers."""
    yf = check_real(y, "y")
    v = yf - math.floor(yf)
    # y - floor(y) rounds up to 1.0 when y sits just below an integer
    return 0.0 if v >= 1.0 else v


def psi(y) -> float:
    """Sawtooth psi(y) = {y} - 1/2."""
    return frac(y) - 0.5


def e_of(y) -> complex:
    """e(y) = exp(2 pi i y), with the argument reduced mod 1 before trig."""
    r = frac(y)
    return complex(math.cos(2.0 * math.pi * r), math.sin(2.0 * math.pi * r))


def check_int(v, name: str, lo=None, hi=None) -> int:
    """v as an int, the package's one integer rule: a Python or NumPy integer,
    not a bool, with lo <= v <= hi for each bound given.  Else PreconditionError
    names the argument, its range and repr(v), as in
    "H must be an integer in [0, 1e+06], got 2.5"."""
    if (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            and (lo is None or lo <= v) and (hi is None or v <= hi)):
        return int(v)
    raise PreconditionError(f"{name} must be an integer in {_span(lo, hi)}, got {v!r}")


def check_real(v, name: str, lo=None, hi=None, ends: str = "[]") -> float:
    """v as a float, the package's one rule for a real scalar: a numbers.Real
    (Python or NumPy int or float, Fraction), not a bool, whose float is
    finite and lies in the span from lo to hi, each end closed or open as
    ends[0] is '[' or '(' and ends[1] is ']' or ')'; a bound of None leaves
    that side open.  Else PreconditionError in check_int's form, as in
    "gamma must be a finite real in (0, 1], got 1.5"."""
    # a float skips the ~0.5 us numbers.Real test, paid per h by vaaler.build_coefficients
    if isinstance(v, float) or (isinstance(v, numbers.Real) and not isinstance(v, bool)):
        try:
            f = float(v)
        except OverflowError:               # an int or Fraction past the float range
            f = math.inf
        if (math.isfinite(f) and (lo is None or lo < f or (lo == f and ends[0] == "["))
                and (hi is None or f < hi or (f == hi and ends[1] == "]"))):
            return f
    raise PreconditionError(
        f"{name} must be a finite real in {_span(lo, hi, ends)}, got {v!r}")


def _span(lo, hi, ends: str = "[]") -> str:
    """The span of check_int and check_real, as "[0, 1e+06]" or "(0, inf)"."""
    def show(b):            # a float bound with :g where that reads back exactly
        return f"{b:g}" if isinstance(b, float) and float(f"{b:g}") == b else str(b)
    return (f"{'(-inf' if lo is None else ends[0] + show(lo)}, "
            f"{'inf)' if hi is None else show(hi) + ends[1]}")


def phase_mod1(t: float, n: int, c: float) -> float:
    """{t * n^c} for integer n >= 1: phase_mod1_vec on one element.

    Raises PrecisionError once |t| * n^c reaches 2^70, where the pair can no
    longer pin the fractional part to the documented 1e-9.
    """
    n = check_int(n, "n", 1, N_CAP - 1)
    try:
        return float(phase_mod1_vec(t, np.array([n], dtype=np.int64), c)[0])
    except PrecisionError as exc:
        raise PrecisionError(f"{exc} for t={t}, n={n}, c={c}") from None


def check_n(n) -> np.ndarray:
    """n as an int64 array for the phase kernel: integers 1 <= n < N_CAP = 2^53.

    Float arrays must hold integers (nothing is truncated), bool arrays are
    refused; past 2^53 the kernel's float64 n and its anchors stop being exact.
    """
    n = np.asarray(n)
    if n.dtype.kind not in "iuf":
        raise PreconditionError(f"n must be an integer array, got dtype {n.dtype}")
    if n.dtype.kind == "f" and not np.all(n == np.floor(n)):
        raise PreconditionError("n must hold integers, got non-integral values")
    if n.size and np.min(n) < 1:
        raise PreconditionError("n must contain positive integers only")
    if n.size and np.max(n) >= N_CAP:
        raise PreconditionError(f"n must stay below 2^53, got max n = {int(np.max(n))}")
    return n.astype(np.int64, copy=False)


def phase_mod1_vec(t: float, n: np.ndarray, c: float, table=None) -> np.ndarray:
    """{t * n^c} over an integer array n, from the fused anchored kernel.

    Each element is within PHASE_BUDGET of the exact value (see
    ddmath.dd_scaled_frac for the budget actually spent) and does not depend
    on the other elements, nor on table, a ddmath.anchor_table for (c, t)
    covering n that a walk builds once.  n goes through check_n.  Raises
    PrecisionError once max |t| * n^c reaches PHASE_CAP = 2^70.
    """
    t, c = check_real(t, "t", -T_CAP, T_CAP), check_real(c, "c", 0, 2, "(]")
    n = check_n(n)
    fhi, flo, peak = dm.dd_scaled_frac(n, c, t, table=table)
    if peak >= PHASE_CAP:
        raise PrecisionError(f"precision: max |t * n^c| ~ {peak:.3e} >= 2^70")
    out = np.add(fhi, flo, out=fhi)
    out[out >= 1.0] = 0.0                    # fhi + flo rounds to 1.0 within 2^-54 of it
    return out


def check_height(H) -> int:
    """H as an int for the h-loops 1 <= |h| <= H: an integer 0 <= H <= T_CAP, the |t| cap."""
    return check_int(H, "H", 0, T_CAP)


def frac_pair(n: np.ndarray, c: float, H: int):
    """{n^c} as a pair (f_hi, f_lo), from which frac_times forms {h n^c}, |h| <= H.

    One ddmath.dd_scaled_frac call at t = 1 with the anchors sized for
    |t| = H, so the float64 remainder of each element stays below 2^11 / H
    and h times the pair's error is at most what a direct phase_mod1_vec(h,
    n, c) spends; H goes through check_height.  Raises PrecisionError once
    H * max n^c reaches PHASE_CAP = 2^70, as that direct call at h = H would.
    """
    H, c = check_height(H), check_real(c, "c", 0, 2, "(]")      # H is the anchors' |t|
    fhi, flo, peak = dm.dd_scaled_frac(check_n(n), c, 1.0, t_max=float(H))
    if float(H) * peak >= PHASE_CAP:
        raise PrecisionError(f"precision: H * max n^c ~ {float(H) * peak:.3e} >= 2^70")
    return fhi, flo


def frac_times(pair, h: int) -> np.ndarray:
    """{h y} in [0, 1) for an integer h, from the pair (f_hi, f_lo) of {y}.

    y = h f_hi + h f_lo in float64, then y - floor(y).  Error budget: |h|
    times the pair's error plus |h| 2^-53 for the two roundings; with the
    pair from frac_pair(n, c, H) and |h| <= H that is within PHASE_BUDGET
    for every H up to T_CAP (|h| 2^-53 <= 1.2e-10).  Measured against
    40-digit mpmath for |h| <= 10^3, n < 2^45 and c in {0.5, 0.75, 0.9,
    0.995}: within 1.3e-13 (tests/test_numerics.py).  Exact 0 where h y is
    an integer pair, as at perfect squares for c = 1/2.
    """
    fhi, flo = pair
    h = float(h)
    y = h * fhi + h * flo
    out = y - np.floor(y)
    return np.where(out >= 1.0, 0.0, out)


def e_of_frac_vec(fracs: np.ndarray) -> np.ndarray:
    """complex128 e(y) from precomputed fractional parts in [0, 1).

    cos and sin are written straight into the real and imaginary parts of
    one complex array: bitwise cos + 1j sin, without its three temporaries.
    """
    ang = (2.0 * math.pi) * np.asarray(fracs)
    z = np.empty(ang.shape, dtype=np.complex128)
    np.cos(ang, out=z.real)
    np.sin(ang, out=z.imag)
    return z


def weighted_e_sum(w: np.ndarray, fracs: np.ndarray) -> complex:
    """sum of w e(y) for real weights w, from fractional parts in [0, 1).

    Two real sums of products (no complex temporaries, and no BLAS dot,
    whose threaded reduction order would follow the thread count).
    """
    ang = (2.0 * math.pi) * np.asarray(fracs)
    return complex(np.sum(w * np.cos(ang)), np.sum(w * np.sin(ang)))


# ---------------------------------------------------------------------------
# reference fixture and output files
# ---------------------------------------------------------------------------

def write_csv(path: str, header_comments, columns, rows) -> None:
    """One '# line' per header comment (ending in \\n), then the header row
    and the data rows from csv.writer (ending in \\r\\n); cells are written
    as given, so callers pass floats as repr."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in header_comments)
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(rows)


def write_json(path: str, obj) -> None:
    """obj as JSON with indent 2, then a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def default_fixture_path() -> str:
    return str(resources.files("psexp").joinpath("data/phase_reference.csv"))


def verify_phase_fixture(path: str | None = None, tol: float = 1e-9):
    """Compare phase_mod1 against the stored high-precision table.

    Returns (n_rows, worst_error, failures) where failures lists
    (t, n, c, expected, got) for rows off by more than tol, measured on the
    circle (wraparound-aware).
    """
    path = path or default_fixture_path()
    failures = []
    worst = 0.0
    n_rows = 0
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if row[0].strip() == "t":
                continue
            t, n, c, expect = float(row[0]), int(row[1]), float(row[2]), float(row[3])
            n_rows += 1
            got = phase_mod1(t, n, c)
            err = abs(got - expect)
            err = min(err, 1.0 - err)
            worst = max(worst, err)
            if err > tol:
                failures.append((t, n, c, expect, got))
    if n_rows == 0:
        raise PreconditionError(f"fixture {path} contains no data rows")
    return n_rows, worst, failures
