"""Contraction dynamics: the Lyapunov functional and the collapse-like rates.

Along the tau-flow the dilatation generator s_gen = integral(rho s) can
only grow, at the rate h_q >= 0, so it is a Lyapunov function of the
companion equation.  At the same time the product of the uncertainty
rates is nonpositive: position sharpens while momentum disperses (or
vice versa), a collapse-like exchange that the t-flow never exhibits.
A contracting packet eventually outruns any fixed grid; the integrator
stops at its certified window and says so, rather than degrading.
"""

import numpy as np

from qrel import (
    GaussianParams,
    Grid,
    evolve_tau,
    inner_product,
    make_gaussian,
    measured_rates,
    run_trajectory,
    to_wave,
    uncertainty_rates,
)

grid = Grid(n=512, length=40.0)

print("=" * 70)
print("1. The Lyapunov functional along a tau-run")
print("=" * 70)
w0 = to_wave(make_gaussian(GaussianParams(sigma2=1.0), grid))
traj = run_trajectory(w0, "tau", 1e-3, 500)
s_gen = traj.column("s_gen")
h_q = traj.column("h_q")
print(f"  {'tau':>5} {'s_gen':>12} {'h_q':>10}")
for r in traj.records[::100]:
    print(f"  {r.time:5.2f} {r.s_gen:12.8f} {r.h_q:10.6f}")
print(f"  s_gen increments: min {np.diff(s_gen).min():.2e} (never negative)")
rate = measured_rates(s_gen, traj.step)
rel = np.abs((rate - h_q[2:-2]) / h_q[2:-2]).max()
print(f"  measured d(s_gen)/dtau matches h_q within {rel:.2e} relative")

print()
print("=" * 70)
print("2. Uncertainty rates: the collapse-like signature")
print("=" * 70)
print(f"  {'state':>22} {'d(dx2)/dtau':>12} {'d(dp2)/dtau':>12} {'product':>10}")
for b in (-1.0, -0.5, 0.0, 0.5, 1.0):
    state = make_gaussian(GaussianParams(sigma2=1.0, b=b), grid)
    ddx2, ddp2 = uncertainty_rates(state, "tau")
    print(f"  sigma2=1, b={b:+.1f}        {ddx2:12.6f} {ddp2:12.6f} {ddx2 * ddp2:10.6f}")
print("  one uncertainty always pays for the other: the product stays <= 0,")
print("  with equality exactly at the minimal (b=0) packet")

print()
print("=" * 70)
print("3. A contracting packet runs into the guards")
print("=" * 70)
w = to_wave(make_gaussian(GaussianParams(sigma2=0.5, b=-1.0), grid))
traj = run_trajectory(w, "tau", 1e-3, 500)
print(f"  requested 500 steps; certified {traj.last_valid_step} records")
print(f"  reason: {traj.guard_reason}")
print(f"  delta_x2 fell from {traj.records[0].delta_x2:.4f} to {traj.records[-1].delta_x2:.4f}")
print("  the approach to the contraction is measured; the singular endpoint is not")

print()
print("=" * 70)
print("4. Norm-preserving yet nonunitary")
print("=" * 70)
a0 = to_wave(make_gaussian(GaussianParams(sigma2=1.0), grid))
b0 = to_wave(make_gaussian(GaussianParams(sigma2=1.0, x0=1.5), grid))
overlap0 = inner_product(a0, b0)
a1 = evolve_tau(a0, 1e-3, 300)
b1 = evolve_tau(b0, 1e-3, 300)
print(f"  norms after 300 steps: {a1.norm:.12f}, {b1.norm:.12f}")
print(f"  |overlap| before: {abs(overlap0):.8f}   after: {abs(inner_product(a1, b1)):.8f}")
print("  each state keeps its norm, but the flow does not preserve inner")
print("  products between different states: it is not a unitary map")
