"""One progression sieve and the Piatetski-Shapiro membership test.

Every sieve goes through one kernel, _cross_off, the progression sieve of
Bays and Hudson (BIT 17, 1977).  The primes p = a (mod d) other than 2 lie
in one class r (mod m), m = lcm(2, d), with r = a (mod d) odd and prime to
m; the kernel marks the primes among the n = r + m k of one range of k.
Each base prime p up to sqrt(hi) that does not divide m strikes one numpy
slice per range: the k = -r m^-1 (mod p), from the first with n >= p^2.
A window (lo, hi] is cut at integer edges into segments
(lo + j S, lo + (j+1) S], S = DEFAULT_SEGMENT, one kernel call on each
segment's range of k.  iter_primes_in_ap yields the primes of a window one
segment at a time (2 inside the first, when it lies in the class), so its
memory budget is at most S / m bytes of marks, the int64 primes of that
segment, and the base primes with their roots -r m^-1 (mod p) and one
start index each.  primes_in_ap concatenates those blocks over (0, x], and
primes_up_to is its d = 1 case, an odd-only sieve.  lambda_in_ap merges the
class prime powers p^k, k >= 2, from the same base primes into each
segment's primes, giving the (n, Lambda(n)) blocks of the Lambda-weighted
sums, and sieve_range builds its table of primality and von Mangoldt Lambda
over (lo, hi] from them.  Every sieve takes lo, hi, d and a by
numerics.check_int and raises ScaleError before allocating once hi passes
EXACT_CAP = 2^52, where float64 stops holding every n exactly;
primes_in_ap, which holds all its blocks at once, raises it already past
SIEVE_CAP = 2^32.

Membership in the Piatetski-Shapiro sequence for exponent gamma is the
indicator [-n^gamma] - [-(n+1)^gamma], i.e. whether [y1, y2) with
y1 = n^gamma, y2 = (n+1)^gamma contains an integer.  One kernel, ps_floor,
decides it from a single power: {n^gamma} from the phase kernel and
delta = y2 - y1 < 1 from float64 give the indicator [{n^gamma} + delta >= 1]
and {y2}; anything within 1e-9 of an integer goes through a certification
that never guesses: an exact power by integer arithmetic alone (s
math.isqrt steps for gamma = k/2^s), else an escalating mpmath precision.
ps_mask, the decomposition pass and the psi-weights of sums all use it;
is_ps_prime is the scalar, certified-only oracle.  Both take gamma by
numerics.check_real, a real in (0, 1], and use its float; primes_in_ap takes
x by it, any finite real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numerics
from .errors import BoundaryError, PreconditionError, ScaleError

DEFAULT_SEGMENT = 1 << 22
SIEVE_CAP = 1 << 32         # the primes up to the cap fill 1.6 GB as int64
EXACT_CAP = 1 << 52         # every n, p^2 and p^k of a window exact in float64
_NEAR_INT = 1e-9


def _cross_off(lo: int, hi: int, m: int, r: int, base: np.ndarray,
               first: np.ndarray) -> np.ndarray:
    """The primes among n = r + m k, k in [lo, hi), as ascending int64.

    base holds the primes up to sqrt(r + m (hi - 1)) that do not divide m,
    ascending, and first[i] the least k whose n is a multiple of base[i] and
    at least base[i]^2.  Each strikes every base[i]-th k from there on, so a
    base prime inside the range keeps its mark.  Exact: integer arithmetic
    only, in int64 for n <= EXACT_CAP.
    """
    if hi <= lo:
        return np.zeros(0, dtype=np.int64)
    is_p = np.ones(hi - lo, dtype=bool)
    if lo == 0 and r == 1:
        is_p[0] = False                     # n = 1
    live = np.searchsorted(base, math.isqrt(r + m * (hi - 1)), side="right")
    p, k = base[:live], first[:live]
    start = np.maximum(k, lo + (k - lo) % p) - lo
    for step, s in zip(p.tolist(), start.tolist()):
        is_p[s::step] = False
    ns = np.flatnonzero(is_p)
    ns += lo
    ns *= m
    ns += r                                 # n = r + m k, in place
    return ns


def _class_blocks(lo: int, hi: int, d: int, a: int, base: np.ndarray):
    """The class primes of each segment (e, min(e + S, hi)], e = lo, lo + S, ..."""
    m = d if d % 2 == 0 else 2 * d          # lcm(2, d)
    r = a % d if (a % d) % 2 else a % d + d  # odd, = a (mod d): the class mod m
    base = base[m % base != 0]
    roots = np.array([-r * pow(m, -1, p) % p for p in base.tolist()], dtype=np.int64)
    k_sq = -(-(base * base - r) // m)       # the first k with n >= p^2
    first = k_sq + (roots - k_sq) % base    # and the first from there with p | n
    for e in range(lo, hi, DEFAULT_SEGMENT):
        top = min(e + DEFAULT_SEGMENT, hi)
        ps = _cross_off(max(0, -(-(e + 1 - r) // m)), (top - r) // m + 1,
                        m, r, base, first)      # the k with e < r + m k <= top
        yield np.insert(ps, 0, 2) if e < 2 <= top and (2 - a) % d == 0 else ps


def check_cap(hi: int) -> int:
    """hi, or ScaleError if a sieve to hi would pass EXACT_CAP."""
    if hi > EXACT_CAP:
        raise ScaleError(f"scale: sieve bound {hi} exceeds the cap 2^52 = {EXACT_CAP}")
    return hi


def _base_primes(lo: int, hi: int, d: int, a: int):
    """(lo, hi, d, a) checked and made ints, and the primes up to sqrt(hi), or
    None for them if the window (lo, hi] holds no n >= 2."""
    d, a = numerics.check_int(d, "d", 1), numerics.check_int(a, "a")
    if math.gcd(a, d) != 1:
        raise PreconditionError(f"need gcd(a, d) = 1, got a={a}, d={d}")
    lo, hi = numerics.check_int(lo, "lo", 0), check_cap(numerics.check_int(hi, "hi"))
    return (lo, hi, d, a), primes_up_to(math.isqrt(hi)) if hi > max(lo, 1) else None


def iter_primes_in_ap(lo: int, hi: int, d: int, a: int):
    """Ascending int64 blocks of the primes p in (lo, hi] with p = a (mod d).

    gcd(a, d) = 1 required.  One block per segment of DEFAULT_SEGMENT
    integers, (lo, lo + S], (lo + S, lo + 2 S], ..., the last cut at hi.
    The arguments and EXACT_CAP are checked here, before anything is
    allocated.
    """
    args, base = _base_primes(lo, hi, d, a)
    return iter(()) if base is None else _class_blocks(*args, base)


def lambda_in_ap(lo: int, hi: int, d: int, a: int):
    """(n, Lambda(n)) blocks over (lo, hi], n = a (mod d), Lambda(n) != 0.

    One block per segment of iter_primes_in_ap, from one base sieve: the
    class primes with Lambda = np.log(p), and the class prime powers p^k,
    k >= 2, of the segment merged in ascending order with Lambda =
    math.log(p).  Checked before anything is allocated, as iter_primes_in_ap.
    """
    args, base = _base_primes(lo, hi, d, a)
    return iter(()) if base is None else _lambda_blocks(*args, base)


def _lambda_blocks(lo: int, hi: int, d: int, a: int, base: np.ndarray):
    p, q = base, base * base
    qs, ps = [], []
    while p.size:
        sel = (q > lo) & (q % d == a % d)
        qs.append(q[sel])
        ps.append(p[sel])
        keep = q <= hi // p                 # so that q p <= hi cannot overflow
        p, q = p[keep], q[keep] * p[keep]
    q, p = _concat(qs), _concat(ps)
    order = np.argsort(q)
    q = q[order]
    lam = np.array([math.log(v) for v in p[order].tolist()], dtype=np.float64)
    for e, blk in zip(range(lo, hi, DEFAULT_SEGMENT), _class_blocks(lo, hi, d, a, base)):
        i, j = np.searchsorted(q, [e, e + DEFAULT_SEGMENT], side="right")
        at = np.searchsorted(blk, q[i:j])
        yield (np.insert(blk, at, q[i:j]),
               np.insert(np.log(blk.astype(np.float64)), at, lam[i:j]))


def _concat(blocks) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype=np.int64), *blocks])


def primes_in_ap(x: float, d: int, a: int) -> np.ndarray:
    """Primes p <= x with p = a (mod d), as int64; gcd(a, d) = 1 required.

    The blocks of iter_primes_in_ap over (0, x], concatenated: the one
    sieve that holds every block, so the one that raises ScaleError, before
    allocating anything, once x exceeds SIEVE_CAP.  x is any finite real
    (numerics.check_real).
    """
    n = math.floor(numerics.check_real(x, "x"))
    if n > SIEVE_CAP:
        raise ScaleError(f"scale: sieve bound {n} exceeds the cap 2^32 = {SIEVE_CAP}")
    return _concat(iter_primes_in_ap(0, n, d, a))


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as int64: primes_in_ap(n, 1, 0)."""
    return primes_in_ap(n, 1, 0)


@dataclass
class PrimeTable:
    """Primality and Lambda over (lo, hi]; index i holds n = lo + 1 + i."""

    lo: int
    hi: int
    is_prime: np.ndarray
    lam: np.ndarray

    def n_values(self) -> np.ndarray:
        return np.arange(self.lo + 1, self.hi + 1, dtype=np.int64)


def sieve_range(lo: int, hi: int) -> PrimeTable:
    """Sieve the half-open range (lo, hi].

    Lambda and primality come from the blocks of lambda_in_ap.  The range
    is materialized in full, so callers wanting bounded memory should go
    through iter_segments.
    """
    if not (0 <= lo < hi):
        raise PreconditionError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    blocks = lambda_in_ap(lo, hi, 1, 0)     # checks the cap before the table is allocated
    n0 = lo + 1
    is_p = np.zeros(hi - lo, dtype=bool)
    lam = np.zeros(hi - lo)
    for n, w in blocks:
        lam[n - n0] = w
        is_p[n - n0] = w > 0.75 * np.log(n.astype(np.float64))  # Lambda(p^k) = log(p^k) / k
    return PrimeTable(lo, hi, is_p, lam)


def iter_segments(lo: int, hi: int, segment: int = DEFAULT_SEGMENT):
    """Yield PrimeTables covering (lo, hi] in slices of at most `segment`."""
    segment = numerics.check_int(segment, "segment", 2)
    a = lo
    while a < hi:
        b = min(a + segment, hi)
        yield sieve_range(a, b)
        a = b


# ---------------------------------------------------------------------------
# Piatetski-Shapiro membership
# ---------------------------------------------------------------------------

def _exact_integer_power(m: int, gamma: float):
    """Return m^gamma as an exact int if it is one, else None.

    For dyadic gamma = k/2^s in lowest terms (k odd), m^gamma is an integer
    iff m is a perfect 2^s-th power; then m^gamma = root^k.  The root comes
    from s exact math.isqrt steps, each of which must meet a perfect square.
    """
    g = Fraction(float(gamma))
    root = m
    for _ in range(g.denominator.bit_length() - 1):     # denominator is 2^s
        q = math.isqrt(root)
        if q * q != root:
            return None
        root = q
    return root ** g.numerator


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
    p, gamma = numerics.check_int(p, "p", 1), numerics.check_real(gamma, "gamma", 0, 1, "(]")
    if gamma == 1.0:
        return True
    return _certified_row(p, gamma)[0]


def _certified_row(m: int, gamma: float):
    """(member, {m^gamma}, {(m+1)^gamma}), all from _certified_floor_frac."""
    fl0, f0 = _certified_floor_frac(m, gamma)
    fl1, f1 = _certified_floor_frac(m + 1, gamma)
    return (fl1 + (f1 > 0.0)) - (fl0 + (f0 > 0.0)) >= 1, f0, f1


def ps_floor(n: np.ndarray, gamma: float, table=None):
    """(member, f0, f1, delta) for each n >= 1: the floor identity's pieces.

    n goes through numerics.check_n (integers 1 <= n < 2^53).  f0 = {n^gamma}
    comes from one numerics.phase_mod1_vec element (table, a walk's
    ddmath.anchor_table for (gamma, 1), is passed on to it) and
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
    n, gamma = numerics.check_n(n), numerics.check_real(gamma, "gamma", 0, 1, "(]")
    if gamma == 1.0:
        return (np.ones(n.shape, dtype=bool), np.zeros(n.shape), np.zeros(n.shape),
                np.ones(n.shape))

    f0 = numerics.phase_mod1_vec(1.0, n, gamma, table=table)
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
