"""The two-term split of the twisted floor-sequence prime count.

pi_gamma(x, d, a, t, c) equals Gamma_1 + Gamma_2 exactly, term by term:
the indicator of [n^(1/gamma)] membership is a difference of floors, which
splits into a smooth derivative-like factor plus a sawtooth difference.
Nothing is estimated here; the gap below is pure rounding.
"""

from psexp import sums
from psexp.numerics import Parameters

for x in (1e4, 1e5, 1e6):
    p = Parameters(x=x, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
    dec = sums.gamma_decomposition(p)
    print(f"x = {x:<8g} pi_gamma = {dec.pi_gamma.value:.6f}")
    print(f"{'':11}Gamma_1  = {dec.gamma1:.6f}")
    print(f"{'':11}Gamma_2  = {dec.gamma2:.6f}")
    print(f"{'':11}identity gap {dec.identity_gap:.3e} "
          f"(tolerance {dec.tolerance:.3e}, {dec.pi_gamma.n_terms} primes)")

# the main term of the Theorem, computed two independent ways
p = Parameters(x=1e5, c=1.05, gamma=0.995, t=0.5, d=3, a=1)
pair = sums.rhs_main(p)
print()
print(f"main term, integral over the step function: {pair.quadrature:.8f}")
print(f"main term, closed form                    : {pair.closed_form:.8f}")
print(f"relative gap {pair.rel_gap:.3e} (flagged: {pair.flagged})")
