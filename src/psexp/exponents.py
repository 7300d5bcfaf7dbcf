"""Exact-rational algebra over bound catalogues coef * H^f * x^(u + a*c + b*g).

The error cascade in :mod:`psexp.sums` is controlled by catalogues of monomial
bounds whose x-exponents are affine in the shape parameters c and g (written
``g`` here, ``gamma`` elsewhere).  This module stores those catalogues, crosses
them with the one-free-parameter optimization lemma, prunes dominated terms,
and maps the admissible (c, g) region where the final bound beats the trivial
one.  Everything is Fraction arithmetic end to end; floats are rejected at the
boundary so every check is an exact statement rather than an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, lcm

from .errors import PreconditionError
from .numerics import write_csv

F = Fraction

# Closure corners of the admissible open triangle
#   1 < c < 28/19,  g < 1,  19(c-1) + 171(1-g) < 9.
_VERTICES = ((F(1), F(18, 19)), (F(1), F(1)), (F(28, 19), F(1)))

C_LO = F(1)
C_HI = F(28, 19)


def _rat(value, what="value"):
    """Coerce to Fraction, rejecting floats (this module is float-free)."""
    if isinstance(value, float):
        raise PreconditionError(
            f"precondition: {what} must be an exact rational, got float"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"precondition: bad rational {what}: {value!r}") from exc


def _fmt_coeff(q, symbol):
    # 1/18 -> "c/18", -1 -> "-c", 7/13 -> "7g/13"
    num, den = q.numerator, q.denominator
    s = symbol if abs(num) == 1 else f"{abs(num)}{symbol}"
    if den != 1:
        s = f"{s}/{den}"
    return ("-" if num < 0 else "") + s


@dataclass(frozen=True)
class AffineExponent:
    """Exponent u + alpha*c + beta*g with exact rational fields."""

    u: Fraction = F(0)
    alpha: Fraction = F(0)
    beta: Fraction = F(0)

    def __post_init__(self):
        object.__setattr__(self, "u", _rat(self.u, "u"))
        object.__setattr__(self, "alpha", _rat(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _rat(self.beta, "beta"))

    def __add__(self, other):
        return AffineExponent(self.u + other.u, self.alpha + other.alpha,
                              self.beta + other.beta)

    def __sub__(self, other):
        return AffineExponent(self.u - other.u, self.alpha - other.alpha,
                              self.beta - other.beta)

    def scale(self, q):
        q = _rat(q, "scale factor")
        return AffineExponent(self.u * q, self.alpha * q, self.beta * q)

    def at(self, c, gamma):
        """Exact value at a rational point (c, gamma)."""
        return self.u + self.alpha * _rat(c, "c") + self.beta * _rat(gamma, "gamma")

    def is_zero(self):
        return not (self.u or self.alpha or self.beta)

    def __str__(self):
        parts = []
        if self.alpha:
            parts.append(_fmt_coeff(self.alpha, "c"))
        if self.beta:
            parts.append(_fmt_coeff(self.beta, "g"))
        if self.u or not parts:
            parts.append(str(self.u))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


@dataclass(frozen=True)
class MonomialTerm:
    """One catalogue entry coef * H^h_exp * x^x_exp.

    coef carries numeric instances of the optimization lemma; in the symbolic
    catalogues it is always 1 and comparisons ignore it (constants are
    absorbed).  label records provenance through the pipeline ("A3 x B2").
    """

    x_exp: AffineExponent = field(default_factory=AffineExponent)
    h_exp: Fraction = F(0)
    coef: Fraction = F(1)
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "h_exp", _rat(self.h_exp, "h_exp"))
        object.__setattr__(self, "coef", _rat(self.coef, "coef"))
        if self.coef <= 0:
            raise PreconditionError("precondition: coefficient must be positive")

    def key(self):
        return (self.x_exp, self.h_exp, self.coef)

    def numeric_value(self):
        """Value of a fully collapsed term (no H, no x dependence)."""
        if self.h_exp or not self.x_exp.is_zero():
            raise PreconditionError("precondition: term is not numeric")
        return self.coef

    def relabel(self, label):
        return MonomialTerm(self.x_exp, self.h_exp, self.coef, label)

    def __str__(self):
        parts = []
        if self.coef != 1:
            parts.append(str(self.coef))
        if self.h_exp == 1:
            parts.append("H")
        elif self.h_exp:
            parts.append(f"H^({self.h_exp})")
        if self.x_exp == AffineExponent(1):
            parts.append("x")
        elif not self.x_exp.is_zero():
            parts.append(f"x^({self.x_exp})")
        return " ".join(parts) if parts else "1"


def term(u, alpha=0, beta=0, h=0, coef=1, label=""):
    """Shorthand constructor used by the catalogue tables."""
    return MonomialTerm(AffineExponent(u, alpha, beta), h, coef, label)


class TermSet:
    """Ordered collection of terms, unique by (x_exp, h_exp, coef).

    Adding a term already present merges the provenance labels.  In the
    symbolic catalogues every coefficient is 1, so uniqueness there is by
    (x_exp, h_exp) as the invariant asks; numeric term sets additionally keep
    distinct coefficients apart instead of collapsing them.
    """

    def __init__(self, terms=()):
        self._terms = {}            # key -> term, in first-added order
        for t in terms:
            self.add(t)

    def add(self, t):
        old = self._terms.get(t.key())
        if old is not None:
            label = old.label
            if t.label and t.label not in label.split("; "):
                label = f"{label}; {t.label}" if label else t.label
            t = old.relabel(label)
        self._terms[t.key()] = t

    def terms(self):
        return list(self._terms.values())

    def find(self, x_exp, h_exp=0):
        """The first term with this (x_exp, h_exp), or None."""
        h_exp = _rat(h_exp, "h_exp")
        return next((t for t in self if t.x_exp == x_exp and t.h_exp == h_exp), None)

    def __iter__(self):
        return iter(self._terms.values())

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, TermSet):
            return NotImplemented
        return self._terms.keys() == other._terms.keys()

    def __repr__(self):
        return f"TermSet({len(self._terms)} terms)"


def _int_nthroot(n, k):
    """(r, exact) with r = floor(n^(1/k)) by integer Newton iteration."""
    if n < 0:
        raise PreconditionError("precondition: root of negative integer")
    if n < 2 or k == 1:
        return n, True
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x, x ** k == n


def _rational_power(q, e):
    """q**e for Fraction q > 0 and Fraction e, exact or PreconditionError."""
    if q == 1 or e == 0:
        return F(1)
    base = q ** e.numerator
    k = e.denominator
    if k == 1:
        return base
    rn, okn = _int_nthroot(base.numerator, k)
    rd, okd = _int_nthroot(base.denominator, k)
    if not (okn and okd):
        raise PreconditionError(
            f"precondition: {q}^({e}) is not rational; numeric instances of the"
            " optimization lemma must stay exact"
        )
    return F(rn, rd)


def _at_endpoint(t, endpoint, tag):
    """Evaluate t's H-power at an endpoint term (h_exp must be 0 there)."""
    coef = t.coef * _rational_power(endpoint.coef, t.h_exp)
    x_exp = t.x_exp + endpoint.x_exp.scale(t.h_exp)
    label = f"{t.label} @ {tag}" if t.label else tag
    return MonomialTerm(x_exp, F(0), coef, label)


def cross_term(t_inc, t_dec):
    """Balance an H-increasing term against an H-decreasing one.

    At the crossing H the common value is (A^b B^a)^(1/(a+b)) with a = t_inc's
    H-power and b = -t_dec's; the x-exponent combines the same way.
    """
    a, b = t_inc.h_exp, -t_dec.h_exp
    if a <= 0 or b <= 0:
        raise PreconditionError("precondition: cross needs one rising, one falling term")
    x_exp = (t_inc.x_exp.scale(b) + t_dec.x_exp.scale(a)).scale(1 / (a + b))
    # (A^b * B^a)^(1/(a+b)) in one exact root: clear denominators of a and b
    d = lcm(a.denominator, b.denominator)
    pa, pb = int(a * d), int(b * d)
    coef = _rational_power(t_inc.coef ** pb * t_dec.coef ** pa, F(1, pa + pb))
    label = f"{t_inc.label} x {t_dec.label}".strip()
    return MonomialTerm(x_exp, F(0), coef, label)


def srinivasan_candidates(terms, h1, h2):
    """Raw candidate list before set-merging: endpoints, crosses, passthrough."""
    for h in (h1, h2):
        if h.h_exp:
            raise PreconditionError(
                "precondition: optimization endpoints must not depend on H"
            )
    rising = [t for t in terms if t.h_exp > 0]
    falling = [t for t in terms if t.h_exp < 0]
    free = [t for t in terms if t.h_exp == 0]
    out = [_at_endpoint(t, h1, h1.label or "H1") for t in rising]
    out += [_at_endpoint(t, h2, h2.label or "H2") for t in falling]
    out += [cross_term(ta, tb) for ta in rising for tb in falling]
    out += free
    return out


def srinivasan_optimize(terms, h1, h2):
    """Optimal-H bound for a mixed catalogue: min over H in [H1, H2] of the max.

    Rising terms A*H^a enter at H1, falling terms B*H^-b at H2, and every
    rising/falling pair contributes its crossing value; H-free terms pass
    through.  Output terms all have h_exp 0 and the result is independent of
    input order (canonically sorted, merged by exponent).
    """
    out = TermSet()
    def keyf(t):
        e = t.x_exp
        return (e.alpha, e.beta, e.u, t.coef, t.label)
    for t in sorted(srinivasan_candidates(terms, h1, h2), key=keyf):
        out.add(t)
    return out


# --------------------------------------------------------------------------
# Reference catalogues.  These lists are transcription data: the published
# estimates the derivation machinery is checked against, entered term by term
# with per-catalogue provenance labels.  Do not "fix" entries here; if a
# derived term disagrees, derive_gamma5_catalogue reports it as a finding.

def reference_catalogues():
    """Named TermSets for every stage of the bound cascade."""
    type_i = TermSet([
        term(F(569, 684), F(1, 9), 0, h=1, label="I1"),
        term(F(569, 684), F(-1, 18), F(1, 6), h=F(7, 6), label="I2"),
        term(1, 0, F(-1, 3), h=1, label="I3"),
    ])
    type_ii = TermSet([
        term(F(7, 12), F(1, 4), 0, h=1, label="II1"),
        term(F(7, 12), 0, F(1, 4), h=F(5, 4), label="II2"),
        term(F(143, 171), F(1, 9), 0, h=1, label="II3"),
        term(1, 0, F(-1, 4), h=1, label="II4"),
        term(F(13, 18), F(1, 6), 0, h=1, label="II5"),
        term(F(13, 18), 0, F(1, 6), h=F(7, 6), label="II6"),
        term(F(5, 6), 0, 0, h=F(9, 8), label="II7"),
        term(F(5, 6), F(1, 8), F(-1, 8), h=F(7, 8), label="II8"),
    ])
    gamma10_imported = TermSet([
        term(F(3, 4), 0, F(1, 6), h=F(7, 6), label="G1"),
        term(F(5, 8), 0, F(1, 4), h=F(5, 4), label="G2"),
        term(1, 0, F(-1, 4), h=F(3, 4), label="G3"),
        term(F(22, 25), 0, 0, h=1, label="G4"),
    ])
    gamma11 = TermSet([t.relabel("E" + t.label[1:]) for t in gamma10_imported])
    gamma10_decomposed = TermSet(
        [t for t in type_ii if t.label != "II8"]
        + [type_i.find(AffineExponent(F(569, 684), F(-1, 18), F(1, 6)), F(7, 6))]
        + [type_ii.find(AffineExponent(F(5, 6), F(1, 8), F(-1, 8)), F(7, 8))]
    )
    gamma10 = TermSet([
        term(F(7, 12), F(1, 4), 0, h=1, label="M1"),
        term(F(5, 8), 0, F(1, 4), h=F(5, 4), label="M2"),
        term(F(143, 171), F(1, 9), 0, h=1, label="M3"),
        term(1, 0, F(-1, 4), h=1, label="M4"),
        term(F(13, 18), F(1, 6), 0, h=1, label="M5"),
        term(F(3, 4), 0, F(1, 6), h=F(7, 6), label="M6"),
        term(F(5, 6), 0, 0, h=F(9, 8), label="M7"),
        term(F(569, 684), F(-1, 18), F(1, 6), h=F(7, 6), label="M8"),
        term(F(5, 6), F(1, 8), F(-1, 8), h=F(7, 8), label="M9"),
    ])
    # gamma6 = gamma10 shifted by x^(g-1), relabeled A1..A9: the first block
    # of the pre-optimization list.
    shift = AffineExponent(-1, 0, 1)
    gamma6 = TermSet([
        MonomialTerm(t.x_exp + shift, t.h_exp, t.coef, f"A{i}")
        for i, t in enumerate(gamma10, start=1)
    ])
    gamma7 = TermSet([
        term(1, 0, 0, h=-1, label="P1"),
        term(F(3, 4), 0, F(1, 6), h=F(1, 6), label="P2"),
        term(F(5, 8), 0, F(1, 4), h=F(1, 4), label="P3"),
        term(1, 0, F(-1, 4), h=F(-1, 4), label="P4"),
        term(F(22, 25), 0, 0, h=0, label="P5"),
    ])
    gamma5_pre = TermSet(
        gamma6.terms() + [
            term(F(3, 4), 0, F(1, 6), h=F(1, 6), label="A10"),
            term(F(5, 8), 0, F(1, 4), h=F(1, 4), label="A11"),
            term(1, 0, F(-1, 4), h=F(-1, 4), label="B1"),
            term(1, 0, 0, h=-1, label="B2"),
            term(F(22, 25), 0, 0, h=0, label="C1"),
        ]
    )
    gamma5_final = TermSet([
        term(F(-5, 12), F(1, 4), 1, label="T1"),
        term(F(-3, 8), 0, F(5, 4), label="T2"),
        term(F(-28, 171), F(1, 9), 1, label="T3"),
        term(0, 0, F(3, 4), label="T4"),
        term(F(-5, 18), F(1, 6), 1, label="T5"),
        term(F(-1, 4), 0, F(7, 6), label="T6"),
        term(F(-1, 6), 0, 1, label="T7"),
        term(F(-115, 684), F(-1, 18), F(7, 6), label="T8"),
        term(F(-1, 6), F(1, 8), F(7, 8), label="T9"),
        term(F(3, 4), 0, F(1, 6), label="T10"),
        term(F(5, 8), 0, F(1, 4), label="T11"),
        term(F(22, 25), 0, 0, label="T12"),
        term(F(43, 60), F(1, 20), 0, label="T13"),
        term(F(37, 48), 0, 0, label="T14"),
        term(F(656, 855), F(1, 45), 0, label="T15"),
        term(F(4, 5), 0, F(-1, 20), label="T16"),
        term(F(67, 90), F(1, 30), 0, label="T17"),
        term(F(53, 68), 0, 0, label="T18"),
        term(F(26, 33), 0, F(-1, 44), label="T19"),
        term(F(20768, 26163), F(-1, 102), 0, label="T20"),
        term(F(20, 27), F(1, 36), 0, label="T21"),
        term(F(17, 20), 0, 0, label="T22"),
        term(F(13, 16), 0, 0, label="T23"),
        term(F(7, 24), F(1, 8), F(1, 2), label="T24"),
        term(F(7, 18), 0, F(5, 9), label="T25"),
        term(F(143, 342), F(1, 18), F(1, 2), label="T26"),
        term(F(1, 2), 0, F(3, 8), label="T27"),
        term(F(13, 36), F(1, 12), F(1, 2), label="T28"),
        term(F(11, 26), 0, F(7, 13), label="T29"),
        term(F(23, 51), 0, F(8, 17), label="T30"),
        term(F(683, 1482), F(-1, 39), F(7, 13), label="T31"),
        term(F(17, 45), F(1, 15), F(7, 15), label="T32"),
        term(F(11, 14), 0, F(1, 7), label="T33"),
        term(F(7, 10), 0, F(1, 5), label="T34"),
    ])
    return {
        "type_i": type_i,
        "type_ii": type_ii,
        "gamma10_imported": gamma10_imported,
        "gamma10_decomposed": gamma10_decomposed,
        "gamma10": gamma10,
        "gamma11": gamma11,
        "gamma6": gamma6,
        "gamma7": gamma7,
        "gamma5_pre": gamma5_pre,
        "gamma5_final": gamma5_final,
    }


# The term whose exponent is the advertised final bound (T26 above).
CLAIMED_X_EXPONENT = AffineExponent(F(143, 342), F(1, 18), F(1, 2))


def dominates(t1, t2):
    """t1 >= t2 as bounds for H >= 1, x >= 1, on the whole region.

    Exponent-level comparison: coefficients are ignored, H-powers compare
    directly.  The x-exponents are affine in (c, gamma) and the region is the
    triangle _VERTICES, so t1 >= t2 holds on it exactly when it holds at the
    three vertices.
    """
    if t1.h_exp < t2.h_exp:
        return False
    d = t1.x_exp - t2.x_exp
    return all(d.at(c, g) >= 0 for c, g in _VERTICES)


def dominant_exponent(cat, c, gamma):
    """(max exponent value, labels attaining it) at an exact point.

    Requires an H-free catalogue and (c, gamma) inside the open parameter box
    (1, 28/19) x (0, 1).
    """
    c, gamma = _rat(c, "c"), _rat(gamma, "gamma")
    if not (C_LO < c < C_HI and 0 < gamma < 1):
        raise PreconditionError(
            f"precondition: (c, gamma) = ({c}, {gamma}) outside the open box"
        )
    best = None
    labels = []
    for t in cat:
        if t.h_exp:
            raise PreconditionError("precondition: catalogue still depends on H")
        v = t.x_exp.at(c, gamma)
        if best is None or v > best:
            best, labels = v, [t.label]
        elif v == best:
            labels.append(t.label)
    if best is None:
        raise PreconditionError("precondition: empty catalogue")
    return best, tuple(labels)


# --------------------------------------------------------------------------
# Derivation report: rebuild the final catalogue from the pre-optimization
# list and compare against the reference transcription.

@dataclass
class CatalogueReport:
    """Outcome of re-deriving the final catalogue from the pre-optimization list."""

    computed: TermSet
    matched: list
    reference_dominated: list
    reference_unmatched: list
    computed_extra: list
    pruned: list
    notes: list

    def findings(self):
        out = []
        for ref_label, via, t in self.matched:
            out.append({"term": str(t), "status": "matched",
                        "reference": ref_label, "via": via,
                        "witness_point": None})
        for ref_label, t, by, wit, gap in self.reference_dominated:
            out.append({"term": str(t), "status": "dominated",
                        "reference": ref_label, "dominated_by": by,
                        "witness_point": {"c": str(wit[0]), "gamma": str(wit[1])},
                        "gap_at_witness": str(gap)})
        for ref_label, t in self.reference_unmatched:
            out.append({"term": str(t), "status": "unmatched",
                        "reference": ref_label, "witness_point": None})
        for lab, t, by in self.computed_extra:
            out.append({"term": str(t), "status": "computed-extra", "via": lab,
                        "dominated_by": by, "witness_point": None})
        for lab, t, by in self.pruned:
            out.append({"term": str(t), "status": "pruned", "via": lab,
                        "dominated_by": by, "witness_point": None})
        for note in self.notes:
            out.append({"term": None, "status": "note", "detail": note,
                        "witness_point": None})
        return out


H2_EXPONENT = 10             # the optimization window is [1, x^H2_EXPONENT]


def derive_gamma5_catalogue():
    """Re-derive the final catalogue and reconcile it with the transcription.

    The optimization window is [1, x^H2_EXPONENT]: the bound holds for every
    real H >= 1, so the upper endpoint is a surrogate large enough to push
    every falling term below the rest of the catalogue on the region; the
    pruning step removes those and records that it did.  Matching is exact
    field-wise equality of x-exponents; reference terms nobody reproduces are
    reported (dominated or unmatched), never patched.  Dominance is decided
    at the region's vertices (dominates); a dominated reference term's
    witness is the vertex of largest gap.
    """
    cats = reference_catalogues()
    pre, ref = cats["gamma5_pre"], cats["gamma5_final"]
    h1 = term(0, label="H1")
    h2 = term(H2_EXPONENT, label="H2")
    candidates = srinivasan_optimize(pre, h1, h2)

    pruned, kept = [], TermSet()
    for t in candidates:
        by = next((o.label for o in candidates if o is not t and dominates(o, t)), None)
        if by is not None and ref.find(t.x_exp) is None:
            pruned.append((t.label, t, by))
        else:
            kept.add(t)

    matched, ref_dominated, ref_unmatched = [], [], []
    for rt in ref:
        hit = kept.find(rt.x_exp)
        if hit is not None:
            matched.append((rt.label, hit.label, rt))
            continue
        # not reproduced: is some computed term at least as large everywhere?
        cover = next((t for t in kept if dominates(t, rt)), None)
        if cover is None:
            ref_unmatched.append((rt.label, rt))
            continue
        d = cover.x_exp - rt.x_exp
        gap, i = max((d.at(c, g), i) for i, (c, g) in enumerate(_VERTICES))
        ref_dominated.append((rt.label, rt, cover.label, _VERTICES[i], gap))

    computed_extra = []
    for t in kept:
        if ref.find(t.x_exp) is None:
            by = next((rt.label for rt in ref if dominates(rt, t)), None)
            computed_extra.append((t.label, t, by))

    notes = [
        f"optimization window [1, x^{H2_EXPONENT}]; falling terms at the upper"
        " endpoint were pruned as dominated",
        "reference list transcribed as printed; its final entry closes the"
        " bracket irregularly in the source",
    ]
    return CatalogueReport(kept, matched, ref_dominated, ref_unmatched,
                           computed_extra, pruned, notes)


# --------------------------------------------------------------------------
# Region map.

def region_equivalence():
    """Exact proof that claimed-bound < g is the advertised linear condition.

    Both sides reduce to the same affine form: 342*(g - claimed exponent) and
    9 - (19(c-1) + 171(1-g)) expand, term by term in exact rationals, to
    -143 - 19c + 171g.  Returns (ok, left form, right form).
    """
    g = AffineExponent(0, 0, 1)
    left = (g - CLAIMED_X_EXPONENT).scale(342)
    one9 = AffineExponent(9)
    right = one9 - (AffineExponent(-19, 19, 0) + AffineExponent(171, 0, -171))
    return left == right, left, right


@dataclass
class RegionRow:
    c: Fraction
    gamma: Fraction
    condition: bool
    dominant_value: Fraction
    dominant_labels: tuple
    matches_claim: bool
    dominant_lt_gamma: bool


@dataclass
class RegionReport:
    grid_step: Fraction
    equivalence_ok: bool
    equivalence_form: str
    rows: list
    condition_mismatches: list   # condition truth vs claimed-bound < gamma
    dominance_failures: list     # condition holds but dominant >= gamma
    label_mismatches: list       # condition holds but maximizer is not the claim

    def write_csv(self, path, header_comments=()):
        write_csv(path, header_comments,
                  ["c", "gamma", "cond_1_3", "dominant_value_num",
                   "dominant_value_den", "dominant_label", "matches_claim"],
                  ([r.c, r.gamma, int(r.condition), r.dominant_value.numerator,
                    r.dominant_value.denominator, ";".join(r.dominant_labels),
                    int(r.matches_claim)] for r in self.rows))

    def findings(self):
        out = []
        for c, g in self.condition_mismatches:
            out.append({"term": "claimed-bound < gamma", "status": "mismatch",
                        "witness_point": {"c": str(c), "gamma": str(g)}})
        for c, g, v in self.dominance_failures:
            out.append({"term": "dominant < gamma", "status": "failed",
                        "witness_point": {"c": str(c), "gamma": str(g)},
                        "dominant_value": str(v)})
        for c, g, labels in self.label_mismatches:
            out.append({"term": "dominant label", "status": "differs",
                        "witness_point": {"c": str(c), "gamma": str(g)},
                        "labels": list(labels)})
        return out


def region_report(grid_step=F(1, 200)):
    """Scan the open parameter box on a rational grid.

    Per point: the linear condition, the exact dominant term of the final
    catalogue, whether the claimed term is the unique maximizer, and whether
    the dominant exponent beats g.  All comparisons are integer arithmetic on
    a common denominator, so the report is exact at every grid point.
    """
    step = _rat(grid_step, "grid_step")
    if step <= 0:
        raise PreconditionError("precondition: grid_step must be positive")
    cat = reference_catalogues()["gamma5_final"].terms()
    claimed = next(i for i, t in enumerate(cat) if t.x_exp == CLAIMED_X_EXPONENT)

    # integer scaling: with c = nc*step, gamma = ng*step, every exponent value
    # times M/step is U + A*nc + B*ng for the integers below
    M = lcm(*(lcm(t.x_exp.u.denominator, t.x_exp.alpha.denominator,
                  t.x_exp.beta.denominator) for t in cat))
    p, q = step.numerator, step.denominator
    scaled = [(int(t.x_exp.u * M) * q, int(t.x_exp.alpha * M) * p,
               int(t.x_exp.beta * M) * p, t.label) for t in cat]
    scale = M * q

    rows, cond_mism, dom_fail, lab_mism = [], [], [], []
    # the grid points strictly inside C_LO < c < C_HI and 0 < gamma < 1
    for nc in range(int(C_LO / step) + 1, ceil(C_HI / step)):
        c = nc * step
        for ng in range(1, ceil(1 / step)):
            g = ng * step
            # condition margin times q: 9q - 19(nc*p - q) - 171(q - ng*p)
            cond = 9 * q - 19 * (nc * p - q) - 171 * (q - ng * p) > 0
            vals = [u + a * nc + b * ng for u, a, b, _ in scaled]
            best = max(vals)
            labels = [row[3] for v, row in zip(vals, scaled) if v == best]
            g_scaled = M * ng * p
            if (vals[claimed] < g_scaled) != cond:
                cond_mism.append((c, g))
            dom_lt = best < g_scaled
            matches = labels == [scaled[claimed][3]]
            if cond and not dom_lt:
                dom_fail.append((c, g, Fraction(best, scale)))
            if cond and not matches:
                lab_mism.append((c, g, tuple(labels)))
            rows.append(RegionRow(c, g, cond, Fraction(best, scale),
                                  tuple(labels), matches, dom_lt))

    ok, left, right = region_equivalence()
    return RegionReport(step, ok, str(left), rows, cond_mism, dom_fail, lab_mism)
