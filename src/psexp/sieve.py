"""Segmented sieves and the Piatetski-Shapiro membership test.

Tables are produced over half-open ranges (lo, hi]: a PrimeTable carries
primality, von Mangoldt Lambda, and Moebius mu for every n in the range.
Membership in the Piatetski-Shapiro sequence for exponent gamma is the
indicator [-n^gamma] - [-(n+1)^gamma], i.e. whether [y1, y2) with
y1 = n^gamma, y2 = (n+1)^gamma contains an integer; the fast path decides it
in pair arithmetic and anything within 1e-9 of an integer goes through an
escalating-precision certification that never guesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ddmath as dm
from .errors import BoundaryError, PreconditionError

DEFAULT_SEGMENT = 1 << 22
_NEAR_INT = 1e-9


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as int64, by a plain boolean sieve."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


@dataclass
class PrimeTable:
    """Primality / Lambda / mu over (lo, hi]; index i holds n = lo + 1 + i."""

    lo: int
    hi: int
    is_prime: np.ndarray
    lam: np.ndarray
    mu: np.ndarray | None

    def n_values(self) -> np.ndarray:
        return np.arange(self.lo + 1, self.hi + 1, dtype=np.int64)

    def primes(self) -> np.ndarray:
        return self.lo + 1 + np.flatnonzero(self.is_prime).astype(np.int64)


def sieve_range(lo: int, hi: int, mobius: bool = True) -> PrimeTable:
    """Sieve the half-open range (lo, hi].

    Cost is O((hi - lo) log log hi) plus one pass per base prime for mu; the
    range is materialized in full, so callers wanting bounded memory should
    go through iter_segments.
    """
    if not (0 <= lo < hi):
        raise PreconditionError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    if hi > (1 << 52):
        raise PreconditionError(f"hi = {hi} too large for exact float indexing")
    size = hi - lo
    base = primes_up_to(math.isqrt(hi))
    n0 = lo + 1

    is_p = np.ones(size, dtype=bool)
    if n0 == 1:
        is_p[0] = False
    for p in base:
        p = int(p)
        start = max(p * p, ((n0 + p - 1) // p) * p)
        if start <= hi:
            is_p[start - n0:: p] = False
    # base primes inside the range were knocked out by their own squares only
    # if p*p <= hi; re-mark p itself when it lies in (lo, hi]
    for p in base:
        if lo < p <= hi:
            is_p[int(p) - n0] = True

    n = np.arange(n0, hi + 1, dtype=np.int64)
    lam = np.where(is_p, np.log(n.astype(np.float64)), 0.0)
    for p in base:
        p = int(p)
        pk = p * p
        while pk <= hi:
            if pk > lo:
                lam[pk - n0] = math.log(p)
            pk *= p

    mu = None
    if mobius:
        mu = np.ones(size, dtype=np.int8)
        residual = n.copy()
        for p in base:
            p = int(p)
            start = ((n0 + p - 1) // p) * p
            if start <= hi:
                sl = slice(start - n0, None, p)
                mu[sl] = -mu[sl]
                residual[sl] //= p
            p2 = p * p
            start2 = ((n0 + p2 - 1) // p2) * p2
            if start2 <= hi:
                mu[start2 - n0:: p2] = 0
        big = residual > 1          # exactly one prime factor > sqrt(hi) left
        mu = np.where(big & (mu != 0), -mu, mu).astype(np.int8)
        if n0 == 1:
            mu[0] = 1
    return PrimeTable(lo, hi, is_p, lam, mu)


def iter_segments(lo: int, hi: int, segment: int = DEFAULT_SEGMENT,
                  mobius: bool = False):
    """Yield PrimeTables covering (lo, hi] in slices of at most `segment`."""
    if segment < 2:
        raise PreconditionError(f"segment size must be >= 2, got {segment}")
    a = lo
    while a < hi:
        b = min(a + segment, hi)
        yield sieve_range(a, b, mobius=mobius)
        a = b


def primes_in_ap(x: float, d: int, a: int) -> np.ndarray:
    """Primes p <= x with p = a (mod d); gcd(a, d) = 1 required."""
    if d < 1 or math.gcd(a, d) != 1:
        raise PreconditionError(f"need d >= 1 and gcd(a, d) = 1, got a={a}, d={d}")
    ps = primes_up_to(int(math.floor(x)))
    return ps[ps % d == a % d] if d > 1 else ps


# ---------------------------------------------------------------------------
# Piatetski-Shapiro membership
# ---------------------------------------------------------------------------

def _gamma_as_dyadic(gamma: float) -> Fraction:
    return Fraction(*float(gamma).as_integer_ratio())


def _exact_integer_power(m: int, gamma: float):
    """Return m^gamma as an exact int if it is one, else None.

    For dyadic gamma = k/2^s in lowest terms (k odd), m^gamma is an integer
    iff m is a perfect 2^s-th power; then m^gamma = root^k.
    """
    g = _gamma_as_dyadic(gamma)
    s = g.denominator.bit_length() - 1     # denominator is 2^s, numerator odd
    if s == 0:
        return m ** g.numerator
    if s > 6:
        # a perfect 2^s-th power is >= 2^(2^s) >= 2^128, beyond any table
        return 1 if m == 1 else None
    root = round(m ** (1.0 / 2 ** s))
    for r in (root - 1, root, root + 1):
        if r >= 1 and r ** (2 ** s) == m:
            return r ** g.numerator
    return None


_CERTIFY_BITS = (80, 160, 320, 640, 1280, 2048)     # mpmath precision ladder


def _certified_floor_frac(m: int, gamma: float):
    """(floor(m^gamma), {m^gamma}), certified; escalates precision near integers.

    {m^gamma} is 0.0 exactly when m^gamma is an integer.  Raises BoundaryError
    when m^gamma is still too close to an integer to decide at the last step.
    """
    import mpmath

    exact = _exact_integer_power(m, gamma)
    if exact is not None:
        return exact, 0.0
    for prec in _CERTIFY_BITS:
        with mpmath.workprec(prec):
            y = mpmath.mpf(m) ** mpmath.mpf(gamma)
            fl = mpmath.floor(y)
            f = y - fl
            err = abs(y) * mpmath.mpf(2.0) ** (8 - prec)
            if f > err and (1 - f) > err:
                return int(fl), float(f)
    raise BoundaryError(
        f"boundary: cannot certify floor({m}^{gamma}) at {_CERTIFY_BITS[-1]} bits")


def is_ps_prime(p: int, gamma: float) -> bool:
    """Whether p = [n^(1/gamma)] for some integer n.

    Equals the indicator [-p^gamma] - [-(p+1)^gamma], i.e. whether the
    interval [p^gamma, (p+1)^gamma) contains an integer.  Exact at gamma = 1.
    The name follows usage: p is typically prime, but any integer >= 1 works.
    """
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise PreconditionError(f"need integer p >= 1, got {p!r}")
    if not (0.0 < gamma <= 1.0):
        raise PreconditionError(f"need 0 < gamma <= 1, got {gamma}")
    if gamma == 1.0:
        return True
    fl0, f0 = _certified_floor_frac(int(p), gamma)
    fl1, f1 = _certified_floor_frac(int(p) + 1, gamma)
    return (fl1 + (f1 > 0.0)) - (fl0 + (f0 > 0.0)) >= 1


def ps_mask(n: np.ndarray, gamma: float) -> np.ndarray:
    """Vectorized is_ps_prime over an int array.

    Pair arithmetic settles every n whose endpoint fractional parts are
    farther than 1e-9 from an integer; the rare rest go through the certified
    scalar path.
    """
    n = np.asarray(n, dtype=np.int64)
    if n.size == 0:
        return np.zeros(0, dtype=bool)
    if np.any(n < 1):
        raise PreconditionError("ps_mask needs n >= 1")
    if not (0.0 < gamma <= 1.0):
        raise PreconditionError(f"need 0 < gamma <= 1, got {gamma}")
    if gamma == 1.0:
        return np.ones(n.shape, dtype=bool)

    y1h, y1l = dm.dd_scaled_pow(n, gamma, 1.0)
    y2h, y2l = dm.dd_scaled_pow(n + 1, gamma, 1.0)
    f1h, f1l = dm.dd_frac(y1h, y1l)
    f2h, f2l = dm.dd_frac(y2h, y2l)
    d1 = np.minimum(f1h + f1l, 1.0 - (f1h + f1l))
    d2 = np.minimum(f2h + f2l, 1.0 - (f2h + f2l))
    fl1 = dm.dd_to_float(*dm.dd_floor(y1h, y1l))
    fl2 = dm.dd_to_float(*dm.dd_floor(y2h, y2l))
    out = (fl2 - fl1) >= 1.0            # ceil difference for non-integer ends

    risky = np.flatnonzero((d1 <= _NEAR_INT) | (d2 <= _NEAR_INT))
    for i in risky:
        out[i] = is_ps_prime(int(n[i]), gamma)
    return out
