"""Double-width ("double-double") floating point, vectorized over numpy arrays.

A value is carried as an unevaluated pair (hi, lo) of float64 with
hi = fl(hi + lo) and |lo| <= ulp(hi)/2, giving roughly 106 significant bits.
That is enough to resolve {t * n^c} to well below 1e-9 while the integer part
of t * n^c stays under the 2^70 working cap: the fractional part of a pair of
magnitude 2^70 is still known to ~2^-35.

All kernels below are branch-free elementwise operations, so they accept and
return numpy arrays (or scalars) of matching shape.  Error-free transforms:

    two_sum   Knuth/Moller, exact for any ordering of magnitudes
    two_prod  Dekker (no fma on this platform), exact absent overflow, on
              _split, the one Dekker split, which the anchor tables share

The transcendental layer, dd_pow_int, computes n^c = 2^W exp2(f) from
log2 n = k + log2 m with the mantissa m normalized into [sqrt(1/2), sqrt(2))
so |z| <= 0.1716 and a 22-term odd atanh series reaches 2^-107; c k is split
exactly into the integer W and a small f, and exp2 applies a 27-term Taylor
series of exp on |u| <= ln(2)/2.  Powers of two round-trip exactly.  It costs
~5 us per element.

dd_scaled_frac, the fused kernel every phase goes through, calls dd_pow_int
only at sparse anchors n0 (n with its low s bits cleared) and reaches each n
by a local binomial expansion: the constant and linear terms in pair
arithmetic, the small remainder A g(r) in float64 (Odlyzko-Schonhage style
local expansion).  In the same pass over chunks of _CHUNK elements it
reduces each chunk's t n^c pair to the fraction pair {t n^c}, so no
full-size t n^c pair is held, and it returns max |t n^c| for the 2^70 cap.
The anchor width s grows with the bit length of n and shrinks with |t| n^c,
so that the remainder stays <= 2^11 and its truncation <= 2^-45; see
dd_scaled_frac for the error budget, which the fusion leaves as it was.
The powers at the anchors form an AnchorTable: a walk builds one for every
n up to its end (anchor_table, one dd_pow_int call) and passes it to each
call, and a call without one builds it from its own n; either way the values
are the same, bit for bit.  No anchor is searched for: a walk's table
holds, per bit length L, the anchors 2^(L-1) + i 2^s(L), so n's row is
offset[L] + (n >> s(L)), and a call's own table indexes its rows as it
builds them.  No anchor is wider than 2^26, so each k = n - n0 is its own
Dekker half and the exact D1_hi k takes D1_hi's split from the table.
dd_frac's value is {x} in [0, 1): one quick_two_sum where hi - floor(hi) is
exact (Sterbenz), the pair path only where hi is integral or in (-1, 0),
and no range guard after either.  Passing t_max sizes the anchors for a
larger |t|, so one pair {t n^c} serves every multiple h t n^c with
|h t| <= |t_max| (numerics.frac_pair).  c = 1/2 takes dd_sqrt_int, a
correctly rounded square root with one exact Newton residual, exact at
perfect squares.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError

_SPLITTER = 134217729.0            # 2^27 + 1, Dekker
_SQRT_HALF = 0.7071067811865476

# ln 2 and 1/ln 2 as double-double constants (hi + lo, correctly rounded).
LN2_HI, LN2_LO = 0.6931471805599453, 2.3190468138462996e-17
INV_LN2_HI, INV_LN2_LO = 1.4426950408889634, 2.0355273740931033e-17


def two_sum(a, b):
    """Exact sum: returns (s, e) with s = fl(a+b), s + e = a + b."""
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    return s, e


def quick_two_sum(a, b):
    # requires |a| >= |b| (or a == 0); one branch cheaper than two_sum
    s = a + b
    e = b - (s - a)
    return s, e


def _split(a):
    """Dekker's split: (hi, lo) with hi + lo = a exactly, each half of 26 bits."""
    aa = _SPLITTER * a
    hi = aa - (aa - a)
    return hi, a - hi


def two_prod(a, b):
    """Exact product: (p, e) with p = fl(a*b), p + e = a*b."""
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


# ---------------------------------------------------------------------------
# pair arithmetic
# ---------------------------------------------------------------------------

def dd_add(xhi, xlo, yhi, ylo):
    s1, s2 = two_sum(xhi, yhi)
    t1, t2 = two_sum(xlo, ylo)
    s2 = s2 + t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 = s2 + t2
    return quick_two_sum(s1, s2)


def dd_add_d(xhi, xlo, d):
    s1, s2 = two_sum(xhi, d)
    s2 = s2 + xlo
    return quick_two_sum(s1, s2)


def dd_neg(xhi, xlo):
    return -xhi, -xlo


def dd_mul(xhi, xlo, yhi, ylo):
    p, e = two_prod(xhi, yhi)
    e = e + (xhi * ylo + xlo * yhi)
    return quick_two_sum(p, e)


def dd_mul_d(xhi, xlo, d):
    p, e = two_prod(xhi, d)
    e = e + xlo * d
    return quick_two_sum(p, e)


def dd_div(xhi, xlo, yhi, ylo):
    """Quotient with three corrections (QD-style), ~1 ulp of the pair."""
    q1 = xhi / yhi
    rhi, rlo = dd_add(xhi, xlo, *dd_neg(*dd_mul_d(yhi, ylo, q1)))
    q2 = rhi / yhi
    rhi, rlo = dd_add(rhi, rlo, *dd_neg(*dd_mul_d(yhi, ylo, q2)))
    q3 = rhi / yhi
    s1, s2 = quick_two_sum(q1, q2)
    return dd_add_d(s1, s2, q3)


def dd_floor(xhi, xlo):
    """Componentwise floor of the pair; exact."""
    fhi = np.floor(xhi)
    hi_is_int = xhi == fhi
    # where hi is already integral the fractional information lives in lo
    flo = np.where(hi_is_int, np.floor(xlo), 0.0)
    return quick_two_sum(fhi, flo)


def dd_frac(xhi, xlo):
    """{x} of a pair x (hi = fl(hi + lo)) as a pair whose value lies in [0, 1),
    with hi in [0, 1]; exact 0.0 for integer pairs.  The floor is exact, so hi
    reaches 1.0 only where the value lies within 2^-54 of 1, and then lo < 0:
    dd_frac(2.0, -1e-20) is (1.0, -1e-20).  No guard acts on hi alone.

    Where hi is not an integer and hi >= 0 or hi <= -1, f = hi - floor(hi)
    is exact: floor(hi) is 0 or lies within a factor 2 of hi (Sterbenz).
    The pair subtraction x - floor(x) then sums hi and -floor(hi) with an
    error of +0.0 and lo and -0.0 to lo + 0.0, so it comes down to
    quick_two_sum(f, lo + 0.0), bit for bit (+ 0.0 turns a lo of -0.0 into
    the +0.0 the subtraction gives; f, hi itself or a nonzero multiple of
    ulp(hi), is at least 2 |lo|).  Integral hi, whose fraction lives in lo,
    and hi in (-1, 0), where hi + 1 rounds, keep the pair subtraction.
    """
    xhi, xlo = np.asarray(xhi, dtype=np.float64), np.asarray(xlo, dtype=np.float64)
    fl = np.floor(xhi)
    rhi, rlo = (np.asarray(v) for v in quick_two_sum(xhi - fl, xlo + 0.0))
    pair = np.broadcast_to((xhi == fl) | (fl == -1.0), rhi.shape)
    if pair.any():
        phi, plo = (np.broadcast_to(v, rhi.shape)[pair] for v in (xhi, xlo))
        rhi[pair], rlo[pair] = dd_add(phi, plo, *dd_neg(*dd_floor(phi, plo)))
    return rhi, rlo


def dd_from_int(n: np.ndarray):
    """Exact pair for an int64 array (or 0-d array) with |n| < 2^62."""
    hi = n.astype(np.float64)
    lo = (n - hi.astype(np.int64)).astype(np.float64)
    return quick_two_sum(hi, lo)


# ---------------------------------------------------------------------------
# log2 / exp2
# ---------------------------------------------------------------------------

def _inv_odd_coeffs(jmax):
    # 1/(2j+1) as pairs, via pair division of exact integers
    out = []
    for j in range(jmax + 1):
        hi, lo = dd_div(1.0, 0.0, float(2 * j + 1), 0.0)
        out.append((float(hi), float(lo)))
    return out


def _inv_fact_coeffs(kmax):
    out = [(1.0, 0.0), (1.0, 0.0)]
    hi, lo = 1.0, 0.0
    for k in range(2, kmax + 1):
        hi, lo = dd_div(hi, lo, float(k), 0.0)
        out.append((float(hi), float(lo)))
    return out


_ATANH_C = _inv_odd_coeffs(21)      # z^43 / 0.1716^43 ~ 2^-109
_EXP_C = _inv_fact_coeffs(26)       # 0.347^26/26! ~ 1e-38


def dd_log2_int(n):
    """log2 of positive integers (int64 array / scalar) as (k, hi, lo).

    log2 n = k + (hi + lo) with k integral (float64) and |hi| <= 1/2:
    n = m * 2^k with m in [sqrt(1/2), sqrt(2)); log(m) = 2 atanh(z),
    z = (m-1)/(m+1).  Both m-1 (Sterbenz) and m+1 (two_sum) are exact.
    """
    nf = np.asarray(n, dtype=np.float64)
    m, k = np.frexp(nf)                      # m in [0.5, 1)
    shift = m < _SQRT_HALF
    m = np.where(shift, 2.0 * m, m)          # exact scaling
    k = (k - shift).astype(np.float64)

    num_hi, num_lo = m - 1.0, np.zeros_like(m)
    den_hi, den_lo = two_sum(m, 1.0)
    zhi, zlo = dd_div(num_hi, num_lo, den_hi, den_lo)
    z2hi, z2lo = dd_mul(zhi, zlo, zhi, zlo)

    phi, plo = np.full_like(m, _ATANH_C[-1][0]), np.full_like(m, _ATANH_C[-1][1])
    for chi, clo in _ATANH_C[-2::-1]:
        phi, plo = dd_mul(phi, plo, z2hi, z2lo)
        phi, plo = dd_add(phi, plo, chi, clo)
    lnm_hi, lnm_lo = dd_mul(zhi, zlo, phi, plo)
    lnm_hi, lnm_lo = 2.0 * lnm_hi, 2.0 * lnm_lo          # exact
    lg_hi, lg_lo = dd_mul(lnm_hi, lnm_lo, INV_LN2_HI, INV_LN2_LO)
    return (k, lg_hi, lg_lo)


def dd_exp2(whi, wlo):
    """2^w for a pair w; |w| up to ~1000.  Exact when w is an integer pair."""
    W = np.rint(whi)
    fhi, flo = dd_add_d(whi, wlo, -W)        # |f| <= 0.5 + eps
    uhi, ulo = dd_mul(fhi, flo, LN2_HI, LN2_LO)

    ehi = np.full_like(np.asarray(whi, dtype=np.float64), _EXP_C[-1][0])
    elo = np.full_like(ehi, _EXP_C[-1][1])
    for chi, clo in _EXP_C[-2::-1]:
        ehi, elo = dd_mul(ehi, elo, uhi, ulo)
        ehi, elo = dd_add(ehi, elo, chi, clo)
    Wi = W.astype(np.int64)
    return np.ldexp(ehi, Wi), np.ldexp(elo, Wi)          # exact scaling


def dd_sqrt_int(n):
    """sqrt(n) as a pair for integers 1 <= n < 2^53; exact at perfect squares.

    hi = fl(sqrt(n)) is correctly rounded and n - hi^2 is exact (two_prod,
    then Sterbenz), so one Newton step lo = (n - hi^2) / (2 hi) leaves
    ~2^-105 relative error and lo = 0 when n is a square.
    """
    nf = np.asarray(n, dtype=np.float64)
    hi = np.sqrt(nf)
    p, e = two_prod(hi, hi)
    return quick_two_sum(hi, ((nf - p) - e) / (2.0 * hi))


def dd_pow_int(n, c):
    """n^c as a pair, n positive integer array/scalar, c float64.

    Computed as 2^W * exp2(f) with c log2 n = W + f, W an integer: c k is an
    exact pair (two_prod), so W comes off before anything is rounded at the
    scale of c log2 n (up to ~70), and the result keeps the pair's relative
    accuracy, ~2^-104, up to the 2^70 phase cap.  c = 1 and c = 2
    short-circuit to exact pairs so that degenerate parameter choices stay
    exact, and c = 1/2 to dd_sqrt_int, exact at perfect squares.
    """
    if c == 1.0:
        return dd_from_int(np.asarray(n, dtype=np.int64))
    if c == 2.0:
        return dd_mul(*dd_from_int(np.asarray(n, dtype=np.int64)) * 2)     # the pair, twice
    if c == 0.5:
        return dd_sqrt_int(n)
    k, lg_hi, lg_lo = dd_log2_int(n)
    p, e = two_prod(c, k)
    W = np.rint(p)
    # p - W is exact; adding it and e one at a time keeps f to ~2^-106
    fhi, flo = dd_add_d(*dd_add_d(*dd_mul_d(lg_hi, lg_lo, c), p - W), e)
    ehi, elo = dd_exp2(fhi, flo)
    Wi = W.astype(np.int64)
    return np.ldexp(ehi, Wi), np.ldexp(elo, Wi)


# ---------------------------------------------------------------------------
# anchored t * n^c
# ---------------------------------------------------------------------------

_CORR_BITS = 11          # |A g(r)| <= 2^11: float64 part of an element
_TRUNC_BITS = -45        # |A| * (tail of g beyond r^J) <= 2^-45
_TAYLOR_J = 8            # g(r) keeps binom(c, j) r^j for j = 2 .. J
_CHUNK = 1 << 13         # elements per correction pass: temporaries stay in cache
_TABLE_SPAN = 64         # anchor_table: at most one anchor per this many integers
_SPLIT_BITS = 26         # k < 2^26 is its own high half in Dekker's split


def _log2(v: float) -> float:
    return math.log2(v) if v > 0.0 else -math.inf


def _binomials(c: float) -> list:
    """binom(c, j) for j = 2 .. J + 1."""
    out = [c * (c - 1.0) / 2.0]
    for j in range(2, _TAYLOR_J + 1):
        out.append(out[-1] * (c - j) / (j + 1))
    return out


def _anchor_shifts(c: float, t: float, binom: list) -> np.ndarray:
    """Anchor width s for each bit length L = 0 .. 64 of n.

    With n < 2^L, n0 = n with its low s <= L - 2 bits cleared and k = n - n0,
    r = k / n0 < 2^(s - L + 1) <= 1/2 and |A| = |t| n0^c < |t| 2^(cL).  For
    0 < c <= 2 the |binom(c, j)| do not increase with j >= 2, so any tail of
    g from r^j on is at most 2 |binom(c, j)| r^j.  s is the largest width with
    |A g(r)| <= 2^_CORR_BITS and |A| * tail <= 2^_TRUNC_BITS, and at most
    _SPLIT_BITS = 26, so that k < 2^26 is its own high half in Dekker's split
    (_d1_times).  Both bounds grow with L (slopes 1 - c/2 and 1 - c/9), so s
    never decreases with L.  For c = 1/2, 1 or 2 dd_pow_int has a cheap path
    exact at perfect powers, and s = 0.
    """
    bits = np.arange(65.0)
    if c in (0.5, 1.0, 2.0):
        return np.zeros(bits.size, dtype=np.int64)
    at = abs(t)
    head = bits - 1.0 + (_CORR_BITS - _log2(2.0 * abs(binom[0]) * at) - c * bits) / 2.0
    tail = (bits - 1.0 + (_TRUNC_BITS - _log2(2.0 * abs(binom[-1]) * at) - c * bits)
            / (_TAYLOR_J + 1))
    s = np.minimum(np.minimum(head, tail), np.clip(bits - 2.0, 0.0, _SPLIT_BITS))
    return np.maximum(np.floor(s), 0.0).astype(np.int64)


class AnchorTable(NamedTuple):
    """t n0^c (A) and c t n0^(c-1) (D1) as pairs at sorted anchors n0.

    Built for one (c, t, width) and every n <= n_max: anchor_table for a
    whole walk, or dd_scaled_frac from the n of one call.  d_split holds
    Dekker's halves of d_hi (two_prod's split of its first factor), which
    every product D1 k uses, k being below 2^26.  In a walk's table the
    anchors of bit length L run from 2^(L-1) in steps of 2^s(L), so n of bit
    length L finds its row at offset[L] + (n >> s(L)); a call's own table has
    no offset (None), its rows being indexed by the call.
    """

    c: float
    t: float
    width: float
    n_max: int
    n0: np.ndarray
    a_hi: np.ndarray
    a_lo: np.ndarray
    d_hi: np.ndarray
    d_lo: np.ndarray
    d_split: tuple
    offset: np.ndarray | None


def _table(anchors: np.ndarray, c: float, t: float, width: float, n_max: int,
           offset: np.ndarray | None) -> AnchorTable:
    # one dd_pow_int call; the anchors are exact in float64, their low s bits being zero
    a_hi, a_lo = dd_mul_d(*dd_pow_int(anchors, c), t)
    d_hi, d_lo = dd_div(*dd_mul_d(a_hi, a_lo, c), anchors.astype(np.float64), 0.0)
    return AnchorTable(c, t, width, n_max, anchors, a_hi, a_lo, d_hi, d_lo,
                       _split(d_hi), offset)


def anchor_table(n_max: int, c: float, t: float, t_max: float | None = None):
    """The AnchorTable of every 1 <= n <= n_max < 2^53, from one dd_pow_int call.

    Its anchors are those of dd_scaled_frac(n, c, t, t_max) for each such n,
    so a walk that powers them once gets, from every call given the table,
    the values a call without it gives, bit for bit.  None when the anchors
    are denser than one per _TABLE_SPAN integers (every n is its own anchor
    for c = 1/2, 1 or 2, and for large |t_max| n^c); calls then power the
    anchors of their own n.
    """
    c, t = float(c), float(t)
    width = t if t_max is None else float(t_max)
    n_max = int(n_max)
    if n_max >= 1 << 53:
        raise PreconditionError(f"anchor table needs n_max < 2^53, got {n_max}")
    shifts = _anchor_shifts(c, width, _binomials(c))
    edges = [(1 << (L - 1), min((1 << L) - 1, n_max), int(shifts[L]))
             for L in range(1, max(n_max, 0).bit_length() + 1)]
    counts = [((hi - lo) >> s) + 1 for lo, hi, s in edges]
    if n_max < 1 or sum(counts) > n_max // _TABLE_SPAN:
        return None
    # n's row = (rows below bit length L) + ((n - 2^(L-1)) >> s), so offset[L] folds in
    # the -(2^(L-1) >> s)
    offset = np.zeros(shifts.size, dtype=np.int64)
    offset[1:len(edges) + 1] = np.cumsum([0] + counts[:-1]) - [lo >> s for lo, _, s in edges]
    anchors = np.concatenate([np.arange(lo, hi + 1, 1 << s, dtype=np.int64)
                              for lo, hi, s in edges])
    return _table(anchors, c, t, width, n_max, offset)


def _anchors(m: np.ndarray, shifts: np.ndarray, offset: np.ndarray | None):
    """(n0, row): each m's anchor, m with its low s(L) bits cleared, and, given
    a walk table's offset, the anchor's row offset[L] + (m >> s(L)), else None.

    L is the bit length of m, one scalar when min(m) and max(m) share it.
    """
    bits = int(m.min()).bit_length()
    if bits != int(m.max()).bit_length():
        bits = np.frexp(m.astype(np.float64))[1]
    s = shifts[bits]
    q = m >> s
    return q << s, (None if offset is None else offset[bits] + q)


def _own_table(flat: np.ndarray, shifts: np.ndarray, c: float, t: float, width: float,
               top: int):
    """(the AnchorTable of flat's distinct anchors, each element's row in it).

    On ascending anchors the row is the running count of new anchors, else
    np.unique's inverse.
    """
    anchors = _anchors(flat, shifts, None)[0]
    if np.all(anchors[1:] >= anchors[:-1]):
        new = np.concatenate(([True], anchors[1:] != anchors[:-1]))
        return _table(anchors[new], c, t, width, top, None), np.cumsum(new) - 1
    distinct, rows = np.unique(anchors, return_inverse=True)
    return _table(distinct, c, t, width, top, None), rows


def _d1_times(table: AnchorTable, j: np.ndarray, k: np.ndarray):
    """D1 k at rows j as a pair, bit for bit dd_mul_d(d_hi, d_lo, k).

    Every k is an integer below 2^_SPLIT_BITS and so its own high half in
    Dekker's split: two_prod(d_hi, k) takes d_hi's halves from the table,
    and its terms with k's low half, products with 0.0, are dropped, which
    leaves every bit as it was: the partial sums they join are never -0.0
    (x - x rounds to +0.0), and adding a zero to such a sum changes nothing.
    """
    p = table.d_hi[j] * k
    e = (table.d_split[0][j] * k - p) + table.d_split[1][j] * k
    return quick_two_sum(p, e + table.d_lo[j] * k)


def dd_scaled_frac(n, c: float, t: float, t_max: float | None = None,
                   table: AnchorTable | None = None):
    """({t n^c} as a pair (f_hi, f_lo), max |t n^c|), for 1 <= n < 2^53, 0 < c <= 2.

    Each n is expanded around the anchor n0 = n with its low s bits cleared,
    where s depends only on the bit length of n, c and t_max (_anchor_shifts;
    t_max defaults to t, and a larger |t_max| gives the narrower anchors a
    pair needs when it is later scaled by up to |t_max / t|):

        t n^c = A + D1 k + A g(r),   A = t n0^c,  D1 = c A / n0,
        k = n - n0,  r = k / n0,  g(r) = sum_{j>=2} binom(c, j) r^j.

    A comes from dd_pow_int once per anchor and D1 from dd_div, both rows of
    an AnchorTable: the given table (anchor_table, for a whole walk) or one
    built from the distinct anchors of this call's n.  Each _CHUNK elements
    find their rows by arithmetic: in a walk's table, offset[L] + (n >> s);
    in the call's own table, the running count of new anchors on ascending
    n, else np.unique's inverse.  With a table given, the chunk is all that
    is held besides the two outputs.  The constant and linear terms are pair
    arithmetic (D1 k is exact up to the pair's rounding; s is at most 26, so
    k is its own Dekker half and two_prod(D1_hi, k) takes D1_hi's halves
    from the table), only A_hi g(r) with j <= J = 8 is float64
    Horner, and the chunk's t n^c pair goes straight to dd_frac, one
    quick_two_sum for all but integral or (-1, 0) hi, so no full-size t n^c
    pair is held.  The second value is max |t n^c| (its hi part), for the
    callers' 2^70 cap.  When every s is 0 (c = 1/2, 1 or 2, small n, or
    large |t_max|) each element is t * dd_pow_int(n, c); elements whose n is
    its own anchor equal that bit for bit in any case, and no value depends
    on the other elements, on the chunking or on whether a table was given.

    Error budget, beyond dd_pow_int's own ~2^-104 |t n^c| at n0: the
    float64 remainder is at most 2^11 |t / t_max|, so its rounding (Horner,
    r, r^2 and the product with A_hi) stays below ~17 ulp(2^10 |t / t_max|),
    2^-37.9 ~ 4e-12 at t_max = t; the dropped tail is at most
    2^-45 |t / t_max| ~ 3e-14; the pair additions add ~2^-105 |t n^c|.
    Scaled by h with |h t| <= |t_max|, each of these stays within what a
    direct call at h t spends.  Checked against mpmath at 60 digits for n up
    to 2^52 and |t n^c| up to 2^69.9 (tests/test_ddmath.py): worst 9e-14 on
    {t n^c} while |t n^c| <= 2^53 and 1.4e-11 near 2^70.
    """
    c, t = float(c), float(t)
    width = t if t_max is None else float(t_max)
    n = np.asarray(n, dtype=np.int64)
    flat = n.ravel()
    fhi, flo = np.empty(flat.size), np.empty(flat.size)
    peak = 0.0
    if not flat.size:
        return fhi.reshape(n.shape), flo.reshape(n.shape), peak
    binom = _binomials(c)
    shifts = _anchor_shifts(c, width, binom)
    top = int(flat.max())
    if table is not None and ((table.c, table.t, table.width) != (c, t, width)
                              or top > table.n_max):
        raise PreconditionError(f"anchor table for (c, t, t_max) = {table[:3]}, "
                                f"n <= {table.n_max} does not serve ({c}, {t}, {width}), "
                                f"n <= {top}")
    anchored = shifts[top.bit_length()] > 0          # s grows with L: some s > 0
    rows = None
    if anchored and table is None:
        table, rows = _own_table(flat, shifts, c, t, width, top)
    for i in range(0, flat.size, _CHUNK):
        part = slice(i, i + _CHUNK)
        m = flat[part]
        if anchored:
            n0, j = _anchors(m, shifts, table.offset)
            j = rows[part] if j is None else j
            ah = table.a_hi[j]
            k = (m - n0).astype(np.float64)              # exact, < 2^s
            r = k / n0.astype(np.float64)
            g = binom[_TAYLOR_J - 2]
            for b in binom[_TAYLOR_J - 3::-1]:
                g = g * r + b
            lin_hi, lin_lo = dd_add_d(*_d1_times(table, j, k), ah * (g * r * r))
            hi, lo = dd_add(ah, table.a_lo[j], lin_hi, lin_lo)
        else:
            hi, lo = dd_mul_d(*dd_pow_int(m, c), t)
        peak = max(peak, float(np.max(np.abs(hi))))
        fhi[part], flo[part] = dd_frac(hi, lo)
    return fhi.reshape(n.shape), flo.reshape(n.shape), peak
