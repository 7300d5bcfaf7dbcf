"""Exact exponent algebra, the optimization lemma, catalogues, region scan."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psexp import exponents as ex
from psexp.errors import PreconditionError
from psexp.numerics import write_json


# ---------------------------------------------------------------------------
# affine exponents

def test_affine_arithmetic_is_exact():
    e = ex.AffineExponent(F(1, 2), F(1, 3), F(1, 6))
    assert e.at(F(3, 2), F(1, 2)) == F(13, 12)
    assert (e + e).at(F(3, 2), F(1, 2)) == F(13, 6)
    assert (e - e).is_zero()
    assert e.scale(6) == ex.AffineExponent(3, 2, 1)


def test_affine_is_float_free():
    with pytest.raises(PreconditionError):
        ex.AffineExponent(0.5)
    with pytest.raises(PreconditionError):
        ex.term(F(1, 2), h=0.25)
    # string rationals pass through Fraction unchanged
    assert ex.AffineExponent("1/2") == ex.AffineExponent(F(1, 2))
    with pytest.raises(PreconditionError, match="bad rational"):
        ex.AffineExponent("1/x")


def test_term_string_forms():
    assert str(ex.term(0)) == "1"
    assert "H" in str(ex.term(0, h=1))
    t = ex.term(F(1, 2), h=F(-1, 4), coef=3)
    s = str(t)
    assert "3" in s and "x^" in s


def test_term_rejects_nonpositive_coefficient():
    with pytest.raises(PreconditionError):
        ex.term(0, coef=0)
    with pytest.raises(PreconditionError):
        ex.term(0, coef=-2)


# ---------------------------------------------------------------------------
# term sets

def test_term_set_merges_duplicate_keys():
    a = ex.term(F(1, 2), h=1, label="X")
    b = ex.term(F(1, 2), h=1, label="Y")
    s = ex.TermSet([a, b])
    assert len(s) == 1
    assert [t.label for t in s] == ["X; Y"]


def test_term_set_distinguishes_numeric_coefficients():
    s = ex.TermSet([ex.term(0, coef=2), ex.term(0, coef=3)])
    assert len(s) == 2


def test_term_set_find_by_exponent():
    cats = ex.reference_catalogues()
    final = cats["gamma5_final"]
    hit = final.find(ex.CLAIMED_X_EXPONENT)
    assert hit is not None and hit.label == "T26"
    assert final.find(ex.AffineExponent(F(999))) is None


def test_term_set_equality_and_sorting():
    a = ex.TermSet([ex.term(1, h=1, label="p"), ex.term(0, label="q")])
    b = ex.TermSet([ex.term(0, label="q2"), ex.term(1, h=1, label="p2")])
    assert a == b
    assert (a == 3) is False
    assert repr(a) == "TermSet(2 terms)"


def test_numeric_value_refuses_a_term_that_still_depends_on_x_or_h():
    assert ex.term(0, coef=3).numeric_value() == 3
    for t in (ex.term(0, h=1), ex.term(F(1, 2))):
        with pytest.raises(PreconditionError, match="not numeric"):
            t.numeric_value()


def test_int_nthroot_refuses_a_negative_integer():
    assert ex._int_nthroot(27, 3) == (3, True)
    with pytest.raises(PreconditionError, match="negative"):
        ex._int_nthroot(-8, 3)


# ---------------------------------------------------------------------------
# optimization lemma

def test_numeric_instantiation_of_the_lemma():
    # 2H rising, 8/H falling, window [1, 4]: endpoint values 2 and 2, cross 4
    terms = ex.TermSet([ex.term(0, h=1, coef=2, label="R"),
                        ex.term(0, h=-1, coef=8, label="F")])
    h1 = ex.term(0, coef=1, label="H1")
    h2 = ex.term(0, coef=4, label="H2")
    raw = ex.srinivasan_candidates(terms, h1, h2)
    assert sorted(t.numeric_value() for t in raw) == [2, 2, 4]
    merged = ex.srinivasan_optimize(terms, h1, h2)
    assert sorted(t.numeric_value() for t in merged) == [2, 4]


def test_cross_term_balances_exactly():
    r = ex.term(0, h=1, coef=2)
    f = ex.term(0, h=-1, coef=8)
    cross = ex.cross_term(r, f)
    assert cross.h_exp == 0 and cross.numeric_value() == 4
    with pytest.raises(PreconditionError):
        ex.cross_term(r, r)
    with pytest.raises(PreconditionError):
        # sqrt(2) is not rational: numeric instances must stay exact
        ex.cross_term(ex.term(0, h=1, coef=2), ex.term(0, h=-1, coef=1))


def test_symbolic_crosses_reproduce_catalogue_entries():
    pre = ex.reference_catalogues()["gamma5_pre"]
    by_label = {t.label: t for t in pre}
    a1, b1, b2 = by_label["A1"], by_label["B1"], by_label["B2"]

    t24 = ex.cross_term(a1, b2)
    assert t24.x_exp == ex.AffineExponent(F(7, 24), F(1, 8), F(1, 2))
    t13 = ex.cross_term(a1, b1)
    assert t13.x_exp == ex.AffineExponent(F(43, 60), F(1, 20), F(0))

    final = ex.reference_catalogues()["gamma5_final"]
    assert final.find(t24.x_exp).label == "T24"
    assert final.find(t13.x_exp).label == "T13"


def test_optimize_validates_endpoints():
    terms = ex.TermSet([ex.term(0, h=1, coef=2)])
    with pytest.raises(PreconditionError):
        ex.srinivasan_optimize(terms, ex.term(0, h=1), ex.term(0, coef=4))


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(range(14))))
def test_optimize_is_order_independent(order):
    pre = ex.reference_catalogues()["gamma5_pre"].terms()
    shuffled = ex.TermSet([pre[i] for i in order])
    h1 = ex.term(0, label="H1")
    h2 = ex.term(10, label="H2")
    base = ex.srinivasan_optimize(ex.TermSet(pre), h1, h2)
    got = ex.srinivasan_optimize(shuffled, h1, h2)
    assert [t.key() for t in got] == [t.key() for t in base]


# ---------------------------------------------------------------------------
# reference catalogues

def test_catalogue_sizes():
    cats = ex.reference_catalogues()
    sizes = {name: len(s) for name, s in cats.items()}
    assert sizes == {
        "type_i": 3, "type_ii": 8, "gamma10_imported": 4,
        "gamma10_decomposed": 9, "gamma10": 9, "gamma11": 4,
        "gamma6": 9, "gamma7": 5, "gamma5_pre": 14, "gamma5_final": 34,
    }


def test_first_block_is_the_merged_list_shifted():
    cats = ex.reference_catalogues()
    shift = ex.AffineExponent(-1, 0, 1)
    for i, (a_t, m_t) in enumerate(zip(cats["gamma6"], cats["gamma10"]), start=1):
        assert a_t.label == f"A{i}"
        assert a_t.x_exp == m_t.x_exp + shift
        assert a_t.h_exp == m_t.h_exp


def test_relabeled_import_keeps_exponents():
    cats = ex.reference_catalogues()
    assert cats["gamma11"] == cats["gamma10_imported"]
    assert [t.label for t in cats["gamma11"]] == ["E1", "E2", "E3", "E4"]


def test_pre_optimization_list_covers_both_sources():
    # every term of the absolute-value block reappears in the combined list
    cats = ex.reference_catalogues()
    pre = cats["gamma5_pre"]
    for t in cats["gamma7"]:
        assert pre.find(t.x_exp, t.h_exp) is not None, t.label
    for t in cats["gamma6"]:
        assert pre.find(t.x_exp, t.h_exp) is not None, t.label


# ---------------------------------------------------------------------------
# region predicates

def test_dominates_on_simple_pairs():
    hi = ex.term(1)
    lo = ex.term(0)
    assert ex.dominates(hi, lo)
    assert not ex.dominates(lo, hi)
    # an H power can never be beaten by an H-free term
    assert not ex.dominates(hi, ex.term(0, h=F(1, 8)))


def test_dominant_exponent_interior_point():
    cat = ex.reference_catalogues()["gamma5_final"]
    c, g = F(101, 100), F(999, 1000)
    value, labels = ex.dominant_exponent(cat, c, g)
    assert labels == ("T26",)
    assert value == ex.CLAIMED_X_EXPONENT.at(c, g)
    assert value < g


def test_region_report_dominant_matches_the_fraction_oracle():
    # dominant_exponent is the independent Fraction route to what
    # region_report finds by integer scaling: same value, same labels, on
    # the whole 1/20 grid, on the 1/200 line gamma = 33/50, where T12 and
    # T33 tie for the maximum, and on the last gamma line of the 3/500 grid,
    # whose c and gamma bounds are both off the grid (28/19 and 1 are not
    # multiples of 3/500)
    final = ex.reference_catalogues()["gamma5_final"]
    rows = ex.region_report(F(1, 20)).rows
    assert len(rows) == 9 * 19
    tied = [r for r in ex.region_report(F(1, 200)).rows if r.gamma == F(33, 50)]
    assert len(tied) == 94 and all(r.dominant_labels == ("T12", "T33") for r in tied)
    odd = ex.region_report(F(3, 500)).rows
    assert len(odd) == 79 * 166 and sum(r.condition for r in odd) == 333
    assert (odd[0].c, odd[0].gamma, odd[-1].c, odd[-1].gamma) == (
        F(501, 500), F(3, 500), F(147, 100), F(249, 250))
    last = [r for r in odd if r.gamma == F(249, 250)]
    assert len(last) == 79
    for r in rows + tied + last:
        assert (r.dominant_value, r.dominant_labels) == ex.dominant_exponent(
            final, r.c, r.gamma), (r.c, r.gamma)


def test_dominant_exponent_validates_input():
    cats = ex.reference_catalogues()
    with pytest.raises(PreconditionError):
        ex.dominant_exponent(cats["gamma5_final"], F(3, 2), F(1, 2))
    with pytest.raises(PreconditionError):
        ex.dominant_exponent(cats["gamma5_pre"], F(11, 10), F(99, 100))
    with pytest.raises(PreconditionError):
        ex.dominant_exponent(ex.TermSet(), F(11, 10), F(99, 100))


# ---------------------------------------------------------------------------
# equivalence and the grid scan

def test_region_equivalence_is_an_identity():
    ok, left, right = ex.region_equivalence()
    assert ok and left == right
    assert left == ex.AffineExponent(-143, -19, 171)


def test_region_report_on_a_coarse_grid():
    rep = ex.region_report(F(1, 40))
    assert rep.equivalence_ok
    assert len(rep.rows) == 18 * 39
    assert rep.condition_mismatches == []
    assert rep.dominance_failures == []
    assert rep.label_mismatches == []
    inside = [r for r in rep.rows if r.condition]
    assert inside and all(r.dominant_lt_gamma and r.matches_claim for r in inside)
    # outside the condition the dominant exponent may reach gamma
    outside = [r for r in rep.rows if not r.condition]
    assert any(not r.dominant_lt_gamma for r in outside)


def _final_catalogue(monkeypatch, terms):
    """Make reference_catalogues() return its own sets with gamma5_final = terms."""
    cats = dict(ex.reference_catalogues(), gamma5_final=ex.TermSet(terms))
    monkeypatch.setattr(ex, "reference_catalogues", lambda: cats)


def test_region_report_flags_a_catalogue_that_breaks_the_claim(monkeypatch):
    # x^1 beats gamma everywhere: inside the condition it is the dominant term, so
    # each inside point is a dominance failure and a label mismatch
    final = ex.reference_catalogues()["gamma5_final"].terms()
    _final_catalogue(monkeypatch, final + [ex.term(1, label="Z1")])
    rep = ex.region_report(F(1, 40))
    inside = [(r.c, r.gamma) for r in rep.rows if r.condition]
    assert inside and rep.condition_mismatches == []
    assert rep.dominance_failures == [(c, g, F(1)) for c, g in inside]
    assert rep.label_mismatches == [(c, g, ("Z1",)) for c, g in inside]
    found = rep.findings()
    assert [f["status"] for f in found] == ["failed"] * len(inside) + ["differs"] * len(inside)
    assert found[0]["dominant_value"] == "1" and found[-1]["labels"] == ["Z1"]
    # a claimed exponent other than the condition's: the two disagree
    monkeypatch.setattr(ex, "CLAIMED_X_EXPONENT", final[0].x_exp)
    rep = ex.region_report(F(1, 40))
    assert not rep.equivalence_ok and rep.condition_mismatches
    mismatch = rep.findings()[0]
    c, g = rep.condition_mismatches[0]
    assert mismatch == {"term": "claimed-bound < gamma", "status": "mismatch",
                        "witness_point": {"c": str(c), "gamma": str(g)}}


def test_region_report_rejects_bad_step():
    with pytest.raises(PreconditionError):
        ex.region_report(0)


def test_region_csv_layout(tmp_path):
    rep = ex.region_report(F(1, 10))
    path = tmp_path / "region.csv"
    rep.write_csv(str(path), header_comments=("alpha", "beta"))
    lines = path.read_text().splitlines()
    assert lines[0] == "# alpha" and lines[1] == "# beta"
    assert lines[2] == ("c,gamma,cond_1_3,dominant_value_num,"
                        "dominant_value_den,dominant_label,matches_claim")
    assert len(lines) == 3 + len(rep.rows)
    first = lines[3].split(",")
    assert F(first[0]) and 0 < F(first[1]) < 1
    assert first[2] in ("0", "1")


# ---------------------------------------------------------------------------
# catalogue derivation

@pytest.fixture(scope="module")
def derivation():
    return ex.derive_gamma5_catalogue()


def test_derivation_reconciles_the_reference(derivation):
    rep = derivation
    assert len(rep.matched) == 33
    assert len(rep.reference_dominated) == 1
    assert rep.reference_unmatched == []
    assert len(rep.pruned) == 3
    total = len(rep.matched) + len(rep.reference_dominated) + len(rep.reference_unmatched)
    assert total == 34


def test_derivation_flags_the_one_unreproduced_entry(derivation):
    ((ref_label, t, by, witness, gap),) = derivation.reference_dominated
    assert ref_label == "T20"
    assert "A8" in by
    assert gap > 0


def test_derivation_findings_are_serializable(derivation, tmp_path):
    import json
    path = tmp_path / "findings.json"
    write_json(str(path), derivation.findings())
    data = json.loads(path.read_text())
    statuses = [d["status"] for d in data]
    assert statuses.count("matched") == 33
    assert statuses.count("dominated") == 1
    assert statuses.count("pruned") == 3
    assert statuses.count("note") == len(derivation.notes)
    dominated = next(d for d in data if d["status"] == "dominated")
    assert dominated["reference"] == "T20"
    assert dominated["witness_point"] is not None


def test_derivation_reports_unmatched_and_extra_terms(monkeypatch):
    # drop the claimed term T26 from the reference and add x^2, which nothing computed
    # reaches: T26's computed twin is extra, dominated by x^2, and x^2 is unmatched
    final = ex.reference_catalogues()["gamma5_final"].terms()
    big = ex.term(2, label="Z1")
    _final_catalogue(monkeypatch, [t for t in final if t.label != "T26"] + [big])
    rep = ex.derive_gamma5_catalogue()
    assert rep.reference_unmatched == [("Z1", big)]
    ((via, extra, by),) = rep.computed_extra
    assert extra.x_exp == ex.CLAIMED_X_EXPONENT and by == "Z1"
    found = rep.findings()
    assert {"term": str(big), "status": "unmatched", "reference": "Z1",
            "witness_point": None} in found
    assert {"term": str(extra), "status": "computed-extra", "via": via, "dominated_by": "Z1",
            "witness_point": None} in found
