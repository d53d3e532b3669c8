"""The functional Poisson bracket and its finite-difference oracle.

Functionals of the field pair (rho, s) form a Lie algebra under
{A, B} = integral [dA/drho dB/ds - dB/drho dA/ds].  The dilatation
generator S = integral(rho s) rotates the Hamiltonian pair into itself:
{S, h_q} = k_q and {S, k_q} = h_q.  Every closed-form derivative field
used in these brackets is cross-checked by bumping single grid samples
and re-evaluating the functional, with no knowledge of the closed forms.
"""

from qrel import (
    FunctionalTag,
    GaussianParams,
    Grid,
    generator_check,
    h_q,
    jacobi_defect,
    k_q,
    make_gaussian,
    poisson_bracket,
)
from qrel.suites import oracle_field_gap

T = FunctionalTag
grid = Grid(n=512, length=40.0)
state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)

print("=" * 70)
print("1. The dilatation generator rotates the Hamiltonian pair")
print("=" * 70)
print(f"  {{S, H_q}} = {poisson_bracket(T.S_GEN, T.H_Q, state):+.10f}"
      f"   vs k_q = {k_q(state):+.10f}")
print(f"  {{S, K_q}} = {poisson_bracket(T.S_GEN, T.K_Q, state):+.10f}"
      f"   vs h_q = {h_q(state):+.10f}")
print(f"  {{P, H_q}} = {poisson_bracket(T.P_TRANSLATION, T.H_Q, state):+.2e}"
      "   (translations commute with the free Hamiltonian)")

print()
print("=" * 70)
print("2. Derivative fields vs the bump oracle")
print("=" * 70)
for tag, comp in ((T.H_Q, "rho"), (T.H_Q, "s"), (T.S_GEN, "s")):
    err = oracle_field_gap(tag, state, comp)
    print(f"  d({tag.value})/d({comp}):  relative field error {err:.2e} on rho > 1e-10")
print("  the oracle only ever evaluates the functionals themselves")

print()
print("=" * 70)
print("3. Infinitesimal dilatation of the momentum dispersion")
print("=" * 70)
for dalpha in (1e-3, 5e-4, 1e-4):
    chk = generator_check(state, dalpha=dalpha)
    print(f"  dalpha={dalpha:7.1e}:  bracket {chk.bracket_closed_form:.8f}   "
          f"centered rate {chk.rate_finite_difference:.8f}   residual {chk.residual:.2e}")
print("  residuals shrink by 4x per halving: the centered scheme is order 2")

print()
print("=" * 70)
print("4. Jacobi identity on the generator triple")
print("=" * 70)
defect, inner = jacobi_defect(state)
print(f"  {{H_q, K_q}} = {inner:+.6f} (a genuine third algebra element)")
print(f"  cyclic sum reduces to {{S, {{H_q, K_q}}}} = {defect:+.2e}")
print("  the triple closes: S generates a symmetry of {H_q, K_q}")
