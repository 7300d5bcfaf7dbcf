"""Sum evaluators: pi, pi_gamma, the Gamma family, and trend reports.

Everything here is a finite complex sum over primes or integers with phases
e(t n^c + h n^gamma + k n / d).  The fractional parts come from numerics
(anchored pair arithmetic, within PHASE_BUDGET per term), accumulation is
Neumaier-compensated, and ranges are folded in fixed units combined in index
order, so repeated runs are bit-identical.

Every sum over a sieve stream is one walk of one engine, _checkpointed, over
one of two streams: the primes p = a (mod d) of sieve.iter_primes_in_ap
re-cut to slices of BLOCK primes (_slices), or the (n, Lambda(n)) blocks of
sieve.lambda_in_ap re-cut to units of FOLD integers from the window's lo
(_fold_units).  BLOCK and FOLD are the rounding units, so no digit depends
on the sieve's segment, and a walk holds one sieve segment and one slice.
Per slice the walk forms its phase once (e(t p^c) from the (c, t) anchors
powered once per walk, ddmath.anchor_table; e(t n^c) on a window; the
twisted {t n^c} + k n / d of Gamma_10) and hands it to each of its sides,
reporting every side at every checkpoint x bitwise as a walk to that x
alone would.  Each entry takes its x through _floor_x (finite, at least what
the sum needs, and within the sieve's cap, before any shortcut) and its H
through numerics.check_height (an integer 0 <= H <= T_CAP); Gamma_10 and
heathbrown.type_sums take their required k and their x1 through
twisted_window, which also gives their window (x/2, x1].  The sieve checks
its cap before a walk powers an anchor, so a failed check builds nothing.
The prime walk's sides are the decomposition (pi_gamma, Gamma_1, Gamma_2),
the main term and a _sum_side of one term per prime (pi_sum); theorem_trend
walks once with the first two.  The psi-side adds w(n) (psi(-(n+1)^gamma) -
psi(-n^gamma)) z: Gamma_3 with w = log p, and the Lambda-windows of Gamma_4
and Gamma_5 with w = Lambda(n).  The h-side (one accumulator per h) gives
Gamma_10 (gamma10_sum, weighted_lambda_expsum its one-h case) and Gamma_11
(gamma11_sum); heathbrown.type_sums takes the h-sums of its one gathered
block from the same weighted_h_sums.

The decomposition side takes every per-prime value of the bracket identity

    [-p^g] - [-(p+1)^g] = ((p+1)^g - p^g) + (psi(-(p+1)^g) - psi(-p^g))

from one sieve.ps_floor call per slice: the indicator, delta = (p+1)^g - p^g
(the Gamma_1 weight) and {p^g}, {(p+1)^g} (the Gamma_2 weight), all from a
single power of p.  The identity then holds term by term up to a few
roundings, which is what makes the decomposition check a meaningful 1e-8
assertion at a million terms.  The psi-weights come from the same kernel.

Per unit, weighted_h_sums forms e({n^gamma}) once from one numerics.frac_pair
sized for the largest |h| and steps to each further |h| by one complex
multiply, both signs from the same four real sums; its docstring has the budget.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import sieve
from .ddmath import anchor_table
from .errors import PreconditionError
from .numerics import (PHASE_BUDGET, T_CAP, Parameters, check_height, check_int, check_real,
                       e_of_frac_vec, frac_pair, frac_times, phase_mod1_vec, write_csv)

BLOCK = 1 << 16
FOLD = 1 << 22


class ComplexAccumulator:
    """Neumaier-compensated complex sum, deterministic for a fixed add order."""

    __slots__ = ("_re", "_im", "_cre", "_cim", "count")

    def __init__(self):
        self._re = self._im = self._cre = self._cim = 0.0
        self.count = 0

    @staticmethod
    def _step(s, c, x):
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        return t, c

    def add(self, z: complex, terms: int = 1):
        self._re, self._cre = self._step(self._re, self._cre, z.real)
        self._im, self._cim = self._step(self._im, self._cim, z.imag)
        self.count += terms

    def add_array(self, zs: np.ndarray):
        if zs.size:
            self.add(complex(np.sum(zs)), zs.size)

    @property
    def value(self) -> complex:
        return complex(self._re + self._cre, self._im + self._cim)


@dataclass
class SumReport:
    """A finished sum of unit-modulus terms: value, term count, precision budget.

    The triangle inequality |value| <= n_terms + phase_error_bound is checked
    by invariant_ok.
    """

    value: complex
    n_terms: int
    phase_error_bound: float

    @property
    def invariant_ok(self) -> bool:
        return abs(self.value) <= self.n_terms + self.phase_error_bound + 1e-9


def _phase_bound(n_terms: int) -> float:
    # |e(y+eps) - e(y)| <= 2 pi |eps|, one budget per phase evaluation
    return 2.0 * math.pi * PHASE_BUDGET * float(n_terms)


# ---------------------------------------------------------------------------
# the one walk engine, its two streams, and pi
# ---------------------------------------------------------------------------

def _floor_x(x: float, least, name: str) -> int:
    """floor(x) for a caller's x, a finite real >= least (check_real; None for no
    bound), then the sieve's ScaleError if floor(x) passes its cap (sieve.check_cap)."""
    return sieve.check_cap(math.floor(check_real(x, name, least)))


def _slices(blocks):
    """((blk,), end) over the ascending prime blocks, re-cut to exact BLOCK slices.

    end is the prime after the slice; one prime of lookahead is held, so it
    is missing (end = inf) only at the very end.  At most one sieve block and
    one slice are held at a time.
    """
    buf = np.zeros(0, dtype=np.int64)
    for b in blocks:
        buf = np.concatenate([buf, b]) if buf.size else b
        while buf.size > BLOCK:
            yield (buf[:BLOCK],), buf[BLOCK]
            buf = buf[BLOCK:]
    if buf.size:
        yield (buf,), math.inf


def _fold_units(lo: int, hi: int, d: int, a: int):
    """((n, Lambda(n)), top) over (lo, hi], n = a (mod d), in fold units.

    The blocks of sieve.lambda_in_ap are re-cut at lo + j FOLD, so unit j is
    (lo + j FOLD, top], top = min(lo + (j+1) FOLD, hi), whatever the sieve's
    segment S.  Sieve block j covers (lo + j S, lo + (j+1) S], so a unit is
    yielded once the block that reaches its top is read; a unit that is
    exactly one block is that block, uncopied.
    """
    seg, held, top = sieve.DEFAULT_SEGMENT, [], min(lo + FOLD, hi)
    for j, (n, lam) in enumerate(sieve.lambda_in_ap(lo, hi, d, a)):
        while top <= min(lo + (j + 1) * seg, hi):      # this block reaches the top
            i = int(np.searchsorted(n, top, side="right"))
            held.append((n[:i], lam[:i]))
            yield held[0] if len(held) == 1 else tuple(map(np.concatenate, zip(*held))), top
            held, n, lam = [], n[i:], lam[i:]
            top = hi + 1 if top == hi else min(top + FOLD, hi)
        if n.size:
            held.append((n, lam))


def _checkpointed(slices, xs, sides, phase) -> list:
    """For each side, one report per x of the ascending xs, from one walk.

    slices streams ascending (cols, end): the primes (blk,) of _slices or the
    (n, Lambda(n)) units of _fold_units; end is the first n after the slice,
    so the slice lies past x when end <= x.  Each slice's phase(cols[0]) is
    formed once and handed to every side.  A side is a namespace of terms,
    fold, state and finish.  terms(cols, end, z) evaluates one slice per
    element; fold(state, arrays, k, x) adds the first k elements to the
    state, x is None for a whole slice, or the checkpoint when the slice
    holds the last n <= x.  Each checkpoint folds its slice into a copy of
    every state, so its report is bitwise the one a walk to that x alone
    gives.
    """
    def slice_terms(cols, end):
        z = phase(cols[0])
        return [side.terms(cols, end, z) for side in sides]

    stop = ((np.zeros(0, dtype=np.int64),), math.inf)
    cols, end = next(slices, stop)
    reports = [[] for _ in sides]
    arrays = None
    for x in xs:
        while end <= x:                             # x lies past this slice
            for side, arr in zip(sides, arrays or slice_terms(cols, end)):
                side.fold(side.state, arr, cols[0].size, None)
            arr = None                              # freed before the next unit is sieved
            (cols, end), arrays = next(slices, stop), None
        snaps = copy.deepcopy([side.state for side in sides])
        k = int(np.searchsorted(cols[0], x, side="right"))
        if k:
            arrays = arrays or slice_terms(cols, end)
            for side, snap, arr in zip(sides, snaps, arrays):
                side.fold(snap, arr, k, x)
        for side, snap, out in zip(sides, snaps, reports):
            out.append(side.finish(snap, x))
    return reports


def _walk(params: Parameters, xs, sides) -> list:
    """_checkpointed over the primes p <= top = floor(max(xs)), p = a (mod d),
    for the sides(top), with the phase e(t p^c): in this order, the sieve
    checks top (sieve.iter_primes_in_ap raises before anything is built), the
    (c, t) anchors are powered once for the walk (ddmath.anchor_table up to
    top), and then the sides are built, so a side's own table waits for the
    check too."""
    top = math.floor(max(xs, default=0.0))
    blocks = sieve.iter_primes_in_ap(0, top, params.d, params.a)
    table = anchor_table(top, params.c_float, params.t)
    return _checkpointed(_slices(blocks), xs, sides(top), lambda blk: e_of_frac_vec(
        phase_mod1_vec(params.t, blk, params.c_float, table=table)))


def _window(lo: int, hi: int, d: int, a: int, side, phase):
    """The report of one side over the window (lo, hi], n = a (mod d), Lambda(n) != 0."""
    return _checkpointed(_fold_units(lo, hi, d, a), [hi], [side], phase)[0][0]


def _sum_side(term) -> SimpleNamespace:
    """The walk's side that adds up term(cols, z); it reports the ComplexAccumulator."""
    return SimpleNamespace(terms=lambda cols, end, z: term(cols, z), state=ComplexAccumulator(),
                           fold=lambda acc, arr, k, x: acc.add_array(arr[:k]),
                           finish=lambda acc, x: acc)


def pi_sum(params: Parameters) -> SumReport:
    """pi(x,d,a,t,c) = sum over primes p <= x, p = a (mod d) of e(t p^c)."""
    acc = _walk(params, [params.x], lambda top: [_sum_side(lambda cols, z: z)])[0][0]
    return SumReport(acc.value, acc.count, _phase_bound(acc.count))


# ---------------------------------------------------------------------------
# the pi_gamma = Gamma_1 + Gamma_2 decomposition
# ---------------------------------------------------------------------------

def _psi_of_minus(f: np.ndarray) -> np.ndarray:
    """psi(-y) from f = {y}: equals 1/2 - f, except -1/2 at integer y."""
    return np.where(f > 0.0, 0.5 - f, -0.5)


def _psi_side(gamma: float, table) -> SimpleNamespace:
    """The walk's side adding w(n) (psi(-(n+1)^gamma) - psi(-n^gamma)) z per n,
    the psi-weights from one sieve.ps_floor call (table: a (gamma, 1)
    anchor_table, or None); w = Lambda(n) on the (n, Lambda) units of a
    window, log p on the primes (p,) of the walk."""
    def term(cols, z):
        n = cols[0]
        w = cols[1] if len(cols) > 1 else np.log(n.astype(np.float64))
        _, f0, f1, _ = sieve.ps_floor(n, gamma, table=table)
        return w * (_psi_of_minus(f1) - _psi_of_minus(f0)) * z

    return _sum_side(term)


@dataclass
class DecompositionReport:
    """pi_gamma, Gamma_1, Gamma_2 from one walk, plus the identity residue.

    mask_mismatches is 0 by construction: the pass takes its indicator from
    sieve.ps_floor, which ps_mask also returns, so no second membership
    route is left to disagree with.  The field stays for its readers.
    """

    pi_gamma: SumReport
    gamma1: complex
    gamma2: complex
    identity_gap: float
    weight_sum: float
    mask_mismatches: int

    @property
    def tolerance(self) -> float:
        return 1e-8 * (1.0 + self.weight_sum)

    @property
    def identity_ok(self) -> bool:
        return self.identity_gap <= self.tolerance


def _decomposition_side(params: Parameters, top: int) -> SimpleNamespace:
    """The walk's side that gives a DecompositionReport at each x of a walk to top.

    One sieve.ps_floor call per block gives the indicator, the Gamma_1 weight
    delta = (p+1)^g - p^g and both psi arguments, so mask_mismatches is 0 by
    construction.  The anchors of p^g are powered once, up to top.
    """
    gf = params.gamma_float
    table = anchor_table(top, gf, 1.0)

    def terms(cols, end, z):
        member, f0, f1, delta = sieve.ps_floor(cols[0], gf, table=table)
        w2 = _psi_of_minus(f1) - _psi_of_minus(f0)
        return z, delta, w2, member

    def fold(st, arrays, k, x):
        z, w1, w2, member = (a[:k] for a in arrays)
        kept = int(np.count_nonzero(member))
        st.pg.add_array(z[member])
        st.g1.add_array(w1 * z)
        st.g2.add_array(w2 * z)
        st.weight_sum += float(np.sum(np.abs(w1)) + np.sum(np.abs(w2)) + kept)

    def finish(st, x):
        pg = SumReport(st.pg.value, st.pg.count, _phase_bound(st.pg.count))
        gap = abs(pg.value - st.g1.value - st.g2.value)
        return DecompositionReport(pg, st.g1.value, st.g2.value, gap, st.weight_sum, 0)

    state = SimpleNamespace(pg=ComplexAccumulator(), g1=ComplexAccumulator(),
                            g2=ComplexAccumulator(), weight_sum=0.0)
    return SimpleNamespace(terms=terms, fold=fold, state=state, finish=finish)


def gamma_decomposition(params: Parameters) -> DecompositionReport:
    """Evaluate pi_gamma = Gamma_1 + Gamma_2 at params.x (one checkpoint)."""
    return _walk(params, [params.x], lambda top: [_decomposition_side(params, top)])[0][0]


# ---------------------------------------------------------------------------
# the main term, over the step function and in closed form
# ---------------------------------------------------------------------------

@dataclass
class MainTermPair:
    """The theorem's main term both ways; they must agree to ~1e-6 relative."""

    quadrature: complex
    closed_form: complex
    rel_gap: float
    flagged: bool

    @property
    def value(self) -> complex:
        return self.closed_form


def _step_integral(lo: np.ndarray, hi, gamma: float, lo_pow: np.ndarray) -> np.ndarray:
    """Integral of y^(gamma-2) over [lo, hi], elementwise, given lo_pow = lo^(gamma-1).

    The antiderivative y^(gamma-1) / (gamma-1) taken as
    lo^(gamma-1) expm1((gamma-1) log1p((hi-lo)/lo)) / (gamma-1), which does
    not cancel on short pieces or as gamma -> 1, and is log1p((hi-lo)/lo)
    at gamma = 1.  Within 1e-14 relative of mpmath on short and long pieces.
    """
    log_ratio = np.log1p((hi - lo) / lo)
    if gamma == 1.0:
        return log_ratio
    e = gamma - 1.0
    return lo_pow * np.expm1(e * log_ratio) / e


def _main_term_side(params: Parameters) -> SimpleNamespace:
    """The walk's side that gives a MainTermPair at each x.

    gamma x^(gamma-1) pi(x) + gamma(1-gamma) integral of y^(gamma-2) pi(y),
    two ways.  The quadrature route integrates the step function pi(y)
    piece by piece ([p, next p), then [last p, x]) with _step_integral.  The
    closed form exchanges sum and integral: gamma * sum of p^(gamma-1) e(t p^c).
    """
    gf = params.gamma_float

    def terms(cols, end, z):
        lo = cols[0].astype(np.float64)
        hi = np.append(lo[1:], lo[-1] if end == math.inf else end)
        lo_pow = np.power(lo, gf - 1.0)
        return z, gf * lo_pow * z, lo, _step_integral(lo, hi, gf, lo_pow)

    def fold(st, arrays, k, x):
        z, closed, lo, piece = (a[:k] for a in arrays)
        if x is not None:                           # the tail piece ends at x
            piece = piece.copy()
            piece[-1] = _step_integral(lo[-1:], x, gf, np.power(lo[-1:], gf - 1.0))[0]
        pi_y = z.copy()                             # pi(y) on each piece
        pi_y[0] += st.pi_y
        pi_y = np.cumsum(pi_y)
        st.pi_y = pi_y[-1]
        st.closed.add_array(closed)
        st.integral.add_array(pi_y * piece)

    def finish(st, x):
        closed = st.closed.value
        quad = gf * x ** (gf - 1.0) * st.pi_y + gf * (1.0 - gf) * st.integral.value
        top = max(abs(quad), abs(closed))
        gap = float(abs(quad - closed) / top) if top > 0 else 0.0
        return MainTermPair(complex(quad), closed, gap, gap > 1e-6)

    state = SimpleNamespace(closed=ComplexAccumulator(), integral=ComplexAccumulator(),
                            pi_y=0j)
    return SimpleNamespace(terms=terms, fold=fold, state=state, finish=finish)


def rhs_main(params: Parameters) -> MainTermPair:
    """The main term at params.x (one checkpoint), by quadrature and closed form."""
    return _walk(params, [params.x], lambda top: [_main_term_side(params)])[0][0]


# ---------------------------------------------------------------------------
# theorem reports and the trend table
# ---------------------------------------------------------------------------

@dataclass
class TheoremReport:
    """One x: left side pi_gamma, main term, and their difference."""

    lhs: complex
    main: complex
    err: complex
    x: float
    params: Parameters
    claimed_exponent: float
    decomposition: DecompositionReport = None
    main_term: MainTermPair = None

    @property
    def abs_err(self) -> float:
        return abs(self.err)

    @property
    def ratio_err_main(self) -> float:
        return self.abs_err / abs(self.main) if self.main != 0 else math.inf

    @property
    def err_over_x_gamma(self) -> float:
        return self.abs_err / self.x ** self.params.gamma_float

    @property
    def log_err_over_log_x(self) -> float:
        if self.abs_err == 0.0:
            return -math.inf
        return math.log(self.abs_err) / math.log(self.x)


def geometric_schedule(x_lo: float, x_hi: float, factor: float = math.sqrt(10.0)):
    """x_lo, x_lo*factor, ... climbing past x_hi's lower neighbor, ending at x_hi."""
    x_lo = check_real(x_lo, "x_lo", 2)
    x_hi, factor = check_real(x_hi, "x_hi", x_lo), check_real(factor, "factor", 1, ends="()")
    xs = [x_lo]
    while xs[-1] * factor < x_hi * (1.0 - 1e-12):
        xs.append(xs[-1] * factor)
    if xs[-1] < x_hi:
        xs.append(x_hi)
    return xs


@dataclass
class TrendReport:
    """The theorem's comparison along a schedule, with the |err|/|main| trajectory."""

    rows: list
    params: Parameters

    @property
    def ratios(self):
        return [r.ratio_err_main for r in self.rows]

    @property
    def err_over_x_gamma(self):
        return [r.err_over_x_gamma for r in self.rows]

    @property
    def monotone_increasing(self) -> bool:
        r = self.ratios
        return len(r) >= 2 and all(b > a for a, b in zip(r, r[1:]))

    def write_csv(self, path: str, header_comments=()):
        write_csv(path, header_comments, ["x", "re_lhs", "im_lhs", "re_main", "im_main",
                                          "abs_err", "ratio_err_main", "log_err_over_log_x"],
                  ([repr(v) for v in (r.x, r.lhs.real, r.lhs.imag, r.main.real, r.main.imag,
                                      r.abs_err, r.ratio_err_main, r.log_err_over_log_x)]
                   for r in self.rows))


def theorem_trend(params: Parameters, xs, allow_outside: bool = False) -> TrendReport:
    """lhs = pi_gamma, main (closed form) and err = lhs - main at each x.

    One sieve to max(xs) and one walk with the decomposition and main-term
    sides serve the whole schedule; rows keep the order of xs (duplicates
    included), and each is bitwise the row a one-point schedule at that x gives.
    """
    if not params.region_ok and not allow_outside:
        raise PreconditionError(
            f"region: 19(c-1) + 171(1-gamma) < 9 fails at c={params.c_float}, "
            f"gamma={params.gamma_float}; pass --allow-outside to run anyway")
    xs = list(xs)
    for x in xs:
        _floor_x(x, 2, "schedule x")
    xs = [float(x) for x in xs]
    grid = sorted(set(xs))
    at = dict(zip(grid, zip(*_walk(params, grid, lambda top: [
        _decomposition_side(params, top), _main_term_side(params)]))))
    expo = float(params.claimed_exponent())
    rows = []
    for x in xs:
        dec, pair = at[x]
        lhs, main = dec.pi_gamma.value, pair.closed_form
        rows.append(TheoremReport(lhs, main, lhs - main, x, replace(params, x=x),
                                  expo, dec, pair))
    return TrendReport(rows, params)


# ---------------------------------------------------------------------------
# the Gamma_3 .. Gamma_5 family and the dyadic window sums
# ---------------------------------------------------------------------------

def gamma3_sum(x: float, params: Parameters) -> complex:
    """log-weighted psi-difference sum over primes <= x in the progression;
    a side of the walk with its own (gamma, 1) anchors, as the decomposition's."""
    _floor_x(x, None, "gamma3_sum x")
    gf = params.gamma_float
    acc = _walk(params, [float(x)], lambda top: [_psi_side(gf, anchor_table(top, gf, 1.0))])[0][0]
    return acc.value


def _psi_sum(lo: int, hi: int, params: Parameters) -> complex:
    """sum of Lambda(n) (psi(-(n+1)^gamma) - psi(-n^gamma)) e(t n^c) over
    lo < n <= hi, n = a (mod d); the psi-weights are certified near integers."""
    return _window(lo, hi, params.d, params.a, _psi_side(params.gamma_float, None),
                   lambda n: e_of_frac_vec(phase_mod1_vec(params.t, n, params.c_float))).value


def gamma4_sum(x: float, params: Parameters) -> complex:
    """Lambda-weighted psi-difference sum over n <= x in the progression."""
    return _psi_sum(0, _floor_x(x, None, "gamma4_sum x"), params)


@dataclass
class Gamma34Report:
    """|Gamma_3 - Gamma_4| against the prime-power budget 3 sqrt(x) log x."""

    gamma3: complex
    gamma4: complex
    x: float

    @property
    def gap(self) -> float:
        return abs(self.gamma3 - self.gamma4)

    @property
    def bound(self) -> float:
        return 3.0 * math.sqrt(self.x) * math.log(self.x)

    @property
    def within(self) -> bool:
        return self.gap <= self.bound


def gamma34_gap(x: float, params: Parameters) -> Gamma34Report:
    """Reportable comparison at x >= 2; callers should record, not fail, on a breach."""
    _floor_x(x, 2, "gamma34_gap x")
    return Gamma34Report(gamma3_sum(x, params), gamma4_sum(x, params), float(x))


def gamma5_sum(x: float, params: Parameters) -> complex:
    """Lambda-weighted psi-difference sum over the window (x/2, x].

    Identically zero at gamma = 1, where both psi arguments are integers.
    """
    hi = _floor_x(x, 4, "gamma5_sum x")
    return _psi_sum(hi // 2, hi, params)


@dataclass
class Gamma5Schedule:
    """|Gamma_5| at each x of a schedule against the claimed bound x^e."""

    xs: list
    values: list
    claimed: list

    def write_csv(self, path: str, header_comments=()):
        write_csv(path, header_comments, ["x", "abs_gamma5", "claimed_bound"],
                  ([repr(x), repr(abs(v)), repr(b)]
                   for x, v, b in zip(self.xs, self.values, self.claimed)))


def gamma5_schedule(params: Parameters, xs=None) -> Gamma5Schedule:
    """Evaluate gamma5_sum at each x of xs; by default down the dyadic ladder
    params.x, params.x/2, params.x/4, ... (stops below 4).  Every x is checked
    before the first rung is summed."""
    if xs is None:
        xs, x = [], params.x
        while x >= 4:
            xs.append(x)
            x = x / 2.0
    xs = list(xs)
    for x in xs:
        _floor_x(x, 4, "gamma5_sum x")
    xs = [float(x) for x in xs]
    expo = float(params.claimed_exponent())
    return Gamma5Schedule(xs, [gamma5_sum(x, params) for x in xs],
                          [x ** expo for x in xs])


# ---------------------------------------------------------------------------
# Gamma_10 / Gamma_11 window sums
# ---------------------------------------------------------------------------

def weighted_h_sums(n, w, hs, gamma: float, base=None) -> list:
    """[sum of w(n) e(base(n) + h n^gamma) over the block n] for each h of hs.

    base is the block's phase array {base(n)}, or None for none.  u = w e(base)
    is formed once, in place.  The heights m = |h| go up from one pair {n^gamma}
    (numerics.frac_pair) sized for the largest: v_m = e(m y), y = {n^gamma}, is
    v_(m-1) v_1 by one in-place complex multiply when m - 1 was the last height
    and 1 is a height, else e(frac_times(pair, m)); the pair goes before the
    e(.) after which only steps are left.  With A, B, C, D the np.sum
    (no BLAS dot, whose order follows the thread count) of ur vr, ui vi, ur vi
    and ui vr, F(h) = A - B + i (C + D) and F(-h) = A + B + i (D - C).  Error
    budget: for a pair error eps, |v_1 - e(y)| <= 2 pi eps + 20 2^-53
    (frac_times, the angle, and cos and sin to 4 ulp), and each multiply adds
    sqrt(5) 2^-53 (Brent, Percival and Zimmermann, Math. Comp. 2007), so
    |v_h - e(h y)| <= |h| (2 pi eps + 23 2^-53), frac_times' form: 2.6e-12 of
    rounding at |h| = 10^3 and 2.6e-9 at T_CAP, within 2 pi PHASE_BUDGET while
    |h| eps <= 5.8e-10.
    """
    heights = sorted({abs(h) for h in hs} - {0})
    pair = frac_pair(n, gamma, heights[-1]) if heights else None
    u = w if base is None else np.multiply(z := e_of_frac_vec(np.mod(base, 1.0)), w, out=z)
    ur, ui = (u, None) if base is None else (u.real, u.imag)
    out, v1, v = {}, None, None
    for i, m in enumerate(heights):
        if v1 is not None and heights[i - 1] == m - 1:  # v1 is set at i = 0, m = 1
            np.multiply(v, v1, out=v)
        else:
            y = frac_times(pair, m)
            if heights[0] == 1 and heights[-1] - m == len(heights) - 1 - i:
                pair = None                         # only steps are left
            v = e_of_frac_vec(y)
            del y
            v1 = v.copy() if m == 1 else v1
        a, c = np.sum(ur * v.real), np.sum(ur * v.imag)
        b, d = (0.0, 0.0) if ui is None else (np.sum(ui * v.imag), np.sum(ui * v.real))
        out[m], out[-m] = complex(a - b, c + d), complex(a + b, d - c)
    if 0 in hs:
        out[0] = complex(np.sum(ur), 0.0 if ui is None else np.sum(ui))
    return [out[h] for h in hs]


def _h_side(hs, gamma: float) -> SimpleNamespace:
    """The walk's side of the h-sums of a window, one accumulator per h of hs,
    each adding weighted_h_sums over the units in order; z is the base phase."""
    def fold(accs, arrays, k, x):
        n, w, b = (a if a is None else a[:k] for a in arrays)
        for acc, v in zip(accs, weighted_h_sums(n, w, hs, gamma, b)):
            acc.add(v, k)

    return SimpleNamespace(terms=lambda cols, end, z: (*cols, z), fold=fold,
                           state=[ComplexAccumulator() for _ in hs],
                           finish=lambda accs, x: [acc.value for acc in accs])


def twisted_phase(n: np.ndarray, params: Parameters, k: int) -> np.ndarray:
    """{t n^c} + (k n mod d) / d, in [0, 2); the rational part is exact."""
    fr = phase_mod1_vec(params.t, n, params.c_float)
    d = params.d
    return fr + ((k % d) * (n % d) % d) / float(d) if d > 1 else fr


def gamma11_sum(x: float, H: int, params: Parameters) -> float:
    """Sum over 1 <= |h| <= H of |sum of Lambda(n) e(-h n^gamma)| on (x/2, x].

    Lambda is real, so the inner sums at h and -h are complex conjugates:
    twice the sum over h = 1 .. H.
    """
    H = check_height(H)
    hi = _floor_x(x, 4, "gamma11_sum x")
    if H == 0:
        return 0.0
    inner = _window(hi // 2, hi, params.d, params.a,
                    _h_side(range(1, H + 1), params.gamma_float), lambda n: None)
    return 2.0 * float(sum(abs(v) for v in inner))


def twisted_window(params: Parameters, x1: float, k: int) -> tuple:
    """(floor(x) // 2, floor(x1)), the window x/2 < n <= x1 of Gamma_10 and type_sums,
    once the one rule passes: k an integer 1 <= k <= d, x1 a real x/2 <= x1 <= x
    (check_real), floor(x1) within the sieve's cap."""
    check_int(k, "k", 1, params.d)
    x1 = check_real(x1, "x1", params.x / 2, params.x)
    return math.floor(params.x) // 2, sieve.check_cap(math.floor(x1))


def _twisted_sums(x1: float, hs, params: Parameters, k: int) -> list:
    """weighted_lambda_expsum(x1, h, params, k) for each h of hs, from one sieve."""
    lo, hi = twisted_window(params, x1, k)
    if hi <= lo or not hs:
        return [0j] * len(hs)
    return _window(lo, hi, 1, 0, _h_side(hs, params.gamma_float),
                   lambda n: twisted_phase(n, params, int(k)))


def weighted_lambda_expsum(x1: float, h: int, params: Parameters, k: int) -> complex:
    """sum over x/2 < n <= x1 of Lambda(n) e(t n^c + h n^gamma + k n / d).

    No congruence restriction: the character e(k n / d) replaces it.  The
    rational phase (k n mod d) / d is exact.  The one-h case of gamma10_sum.
    """
    return _twisted_sums(x1, [check_int(h, "h", -T_CAP, T_CAP)], params, k)[0]


def gamma10_sum(x1: float, H: int, params: Parameters, k: int) -> float:
    """Sum over 1 <= |h| <= H of |weighted_lambda_expsum(x1, h, ., k)|, one sieve."""
    hs = [s * h for h in range(1, check_height(H) + 1) for s in (1, -1)]
    return float(sum(abs(v) for v in _twisted_sums(x1, hs, params, k)))
