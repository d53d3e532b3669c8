"""Two time directions: exact Schroedinger flow and its nonlinear companion.

The Hamiltonian functional h_q generates ordinary Schroedinger evolution
in t (here: a free packet, propagated exactly in Fourier space).  Its
companion k_q, which differs only by the sign of the quantum-potential
term, generates a second flow in its own time variable tau.  The tau-flow
is nonlinear but norm-preserving, and on the Gaussian family it reduces
to parameter ODEs whose closed form serves as an independent oracle.
"""

import numpy as np

from qrel import (
    GaussianParams,
    Grid,
    evolve_t,
    evolve_tau,
    gaussian_flow,
    make_gaussian,
    run_trajectory,
    sigma_x2,
    to_wave,
)
from qrel.functionals import wave_delta_p2_q

grid = Grid(n=512, length=40.0)
w0 = to_wave(make_gaussian(GaussianParams(sigma2=1.0), grid))

print("=" * 70)
print("1. t-flow: free-packet spreading against the textbook law")
print("=" * 70)
print(f"  {'t':>5} {'sigma_x2 (flow)':>16} {'sigma_x2 (law)':>15} {'delta_p2_q':>12} {'norm-1':>10}")
for t in (0.0, 1.0, 2.0, 4.0):
    wt = evolve_t(w0, t)
    print(f"  {t:5.1f} {sigma_x2(wt):16.10f} {gaussian_flow(1.0, 0.0, 0.0, 't', t)[0]:15.10f} "
          f"{wave_delta_p2_q(wt):12.8f} {abs(wt.norm - 1.0):10.1e}")
print("  position spread grows, momentum dispersion and norm are frozen")

print()
print("=" * 70)
print("2. tau-flow vs the closed-form Gaussian flow")
print("=" * 70)
taus = np.linspace(0.0, 0.5, 6)
sigma2_exact, b_exact, _ = gaussian_flow(1.0, 0.0, 0.0, "tau", taus)
print(f"  {'tau':>5} {'sigma2 (PDE)':>14} {'sigma2 (exact)':>14} {'b (exact)':>10}")
w = w0
for i, tau in enumerate(taus):
    if i > 0:
        w = evolve_tau(w, 1e-3, 100)
    print(f"  {tau:5.2f} {sigma_x2(w):14.9f} {sigma2_exact[i]:14.9f} {b_exact[i]:10.6f}")
print("  the packet contracts in tau: the flow runs toward sharper position")

print()
print("=" * 70)
print("3. A trajectory table (the same columns the CLI writes to CSV)")
print("=" * 70)
traj = run_trajectory(w0, "tau", 1e-3, 400)
print(f"  {'step':>5} {'h_q':>10} {'k_q':>10} {'s_gen':>10} {'delta_x2':>10} {'resid':>9}")
for r in traj.records[::80]:
    print(f"  {r.step:5d} {r.h_q:10.6f} {r.k_q:10.6f} {r.s_gen:10.6f} "
          f"{r.delta_x2:10.6f} {r.continuity_residual:9.1e}")
print(f"  k_q (the flow's own generator) drifts by "
      f"{abs(traj.column('k_q') - traj.records[0].k_q).max():.2e} over the run")
