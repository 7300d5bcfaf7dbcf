"""Exact-rational bookkeeping for the error-term exponents.

Every bound in the analysis is a power x^(u + alpha c + beta gamma), possibly
carrying a power of the truncation degree H.  This module keeps the whole
catalogue in Fractions: optimizing over H, taking cross terms, comparing
exponents on a parameter grid, and checking the advertised feasibility
region are all exact, so a reported mismatch is a finding, never roundoff.
"""

from fractions import Fraction as F

from psexp import exponents as ex
from psexp.numerics import Parameters

# the optimization lemma on a toy catalogue: 2H rising, 8/H falling, H in [1, 4]
terms = ex.TermSet([ex.term(0, h=1, coef=2, label="rise"),
                    ex.term(0, h=-1, coef=8, label="fall")])
raw = ex.srinivasan_candidates(terms, ex.term(0, coef=1), ex.term(0, coef=4))
print("toy optimization, candidates at the endpoints and the crossing:",
      sorted(t.numeric_value() for t in raw))
print()

# the claimed exponent and the feasibility region, exactly
ok, left, right = ex.region_equivalence()
print(f"claimed bound < gamma  <=>  19(c-1) + 171(1-gamma) < 9: {ok}")
print(f"both sides reduce to {left}")
c, g = F(21, 20), F(199, 200)
print(f"19(c-1) + 171(1-gamma) < 9 at (c, gamma) = ({c}, {g}): "
      f"{Parameters(x=1e6, c=c, gamma=g).region_ok}")
print()

# which catalogue entry dominates at that point, and by how much
final = ex.reference_catalogues()["gamma5_final"]
value, labels = ex.dominant_exponent(final, c, g)
print(f"dominant exponent among {len(list(final))} terms: {value} "
      f"(= {float(value):.6f}) attained by {labels}")
print(f"claimed exponent c/18 + gamma/2 + 143/342 = "
      f"{ex.CLAIMED_X_EXPONENT.at(c, g)} "
      f"(= {float(ex.CLAIMED_X_EXPONENT.at(c, g)):.6f})")
print()

# re-derive the final catalogue from the imported pieces and reconcile;
# dominance between affine exponents is decided at the region's three vertices
rep = ex.derive_gamma5_catalogue()
print(f"derivation: {len(rep.matched)} matched, "
      f"{len(rep.reference_dominated)} dominated, "
      f"{len(rep.reference_unmatched)} unmatched, "
      f"{len(rep.pruned)} pruned duplicates")
for ref_label, t, by, witness, gap in rep.reference_dominated:
    print(f"  {ref_label} is strictly dominated by {by}; at "
          f"(c, gamma) = ({witness[0]}, {witness[1]}) the gap is {gap}")
for note in rep.notes:
    print(f"  note: {note}")
