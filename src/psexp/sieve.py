"""Segmented sieves and the Piatetski-Shapiro membership test.

Tables are produced over half-open ranges (lo, hi]: a PrimeTable carries
primality, von Mangoldt Lambda, and Moebius mu for every n in the range.
Membership in the Piatetski-Shapiro sequence for exponent gamma is the
indicator [-n^gamma] - [-(n+1)^gamma], i.e. whether [y1, y2) with
y1 = n^gamma, y2 = (n+1)^gamma contains an integer.  One kernel, ps_floor,
decides it from a single power: {n^gamma} from the phase kernel and
delta = y2 - y1 < 1 from float64 give the indicator [{n^gamma} + delta >= 1]
and {y2}; anything within 1e-9 of an integer goes through an
escalating-precision certification that never guesses.  ps_mask, the
decomposition pass and the psi-weights of sums all use it; is_ps_prime is
the scalar, certified-only oracle.  primes_up_to holds a byte per integer
and raises ScaleError past SIEVE_CAP = 2^32 before allocating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numerics
from .errors import BoundaryError, PreconditionError, ScaleError

DEFAULT_SEGMENT = 1 << 22
SIEVE_CAP = 1 << 32         # primes_up_to holds a byte per integer: 4 GiB at the cap
_NEAR_INT = 1e-9


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as int64, by a plain boolean sieve.

    Raises ScaleError, before allocating anything, once n exceeds SIEVE_CAP.
    """
    if n > SIEVE_CAP:
        raise ScaleError(f"scale: sieve bound {n} exceeds the cap 2^32 = {SIEVE_CAP}")
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
    return _certified_row(int(p), gamma)[0]


def _certified_row(m: int, gamma: float):
    """(member, {m^gamma}, {(m+1)^gamma}), all from _certified_floor_frac."""
    fl0, f0 = _certified_floor_frac(m, gamma)
    fl1, f1 = _certified_floor_frac(m + 1, gamma)
    return (fl1 + (f1 > 0.0)) - (fl0 + (f0 > 0.0)) >= 1, f0, f1


def ps_floor(n: np.ndarray, gamma: float):
    """(member, f0, f1, delta) for each n >= 1: the floor identity's pieces.

    f0 = {n^gamma} comes from one numerics.phase_mod1_vec element and
    delta = (n+1)^gamma - n^gamma = n^gamma expm1(gamma log1p(1/n)) from
    float64, so member = [-n^gamma] - [-(n+1)^gamma] = [f0 + delta >= 1] and
    f1 = {(n+1)^gamma} = f0 + delta - member need no second power.  Rows with
    f0 or f1 within 1e-9 of an integer (exact powers and their neighbours
    among them) take f0, f1 and member from the certified path at n and
    n + 1 (_certified_row, as is_ps_prime does); delta stays the float64
    value.  At gamma = 1 every n is a member, f0 = f1 = 0 and delta = 1.

    Error budget, measured against 40-digit mpmath for n < 2^52 and gamma in
    {0.5, 0.75, 0.9, 0.995}: delta within 4 ulp (3.7 ulp, 4.5e-16 relative);
    f0 within the phase kernel's error (1.2e-13; PHASE_BUDGET = 1e-9 is the
    documented bound) and f1 within that plus a few ulp of delta.  Since a
    row is certified whenever f0 or f1 lies within 1e-9 of an integer, member
    never rests on a value that close to the decision boundary.
    """
    n = np.asarray(n, dtype=np.int64)
    if np.any(n < 1):
        raise PreconditionError("ps_floor needs n >= 1")
    if not (0.0 < gamma <= 1.0):
        raise PreconditionError(f"need 0 < gamma <= 1, got {gamma}")
    if gamma == 1.0:
        return (np.ones(n.shape, dtype=bool), np.zeros(n.shape), np.zeros(n.shape),
                np.ones(n.shape))

    f0 = numerics.phase_mod1_vec(1.0, n, gamma)
    nf = n.astype(np.float64)
    delta = np.power(nf, gamma) * np.expm1(gamma * np.log1p(1.0 / nf))
    s = f0 + delta
    member = s >= 1.0
    f1 = s - member
    risky = np.flatnonzero((np.minimum(f0, 1.0 - f0) <= _NEAR_INT)
                           | (np.minimum(f1, 1.0 - f1) <= _NEAR_INT))
    for i in risky:
        member[i], f0[i], f1[i] = _certified_row(int(n[i]), gamma)
    return member, f0, f1, delta


def ps_mask(n: np.ndarray, gamma: float) -> np.ndarray:
    """Vectorized is_ps_prime over an int array: the member part of ps_floor."""
    return ps_floor(n, gamma)[0]
