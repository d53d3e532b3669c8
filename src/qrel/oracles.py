"""Independent oracles for the dynamics tests.

The Gaussian family rho = N(x0, sigma2), s = b x^2/2 + p0 x + c is closed
under both flows; substituting it into the continuity and (sign-flipped)
Hamilton-Jacobi equations gives ordinary differential equations for the
parameters:

    d(sigma2)/dtheta = 2 b sigma2 / m
    db/dtheta        = -b^2/m + sign * hbar^2 / (4 m sigma2^2)
    dc/dtheta        = -sign * hbar^2 / (4 m sigma2)

with sign = +1 for the Schroedinger flow in t and -1 for the companion
flow in tau.  Both flows solve them in closed form (:func:`gaussian_flow`),
which is what the suites and the demos read: in t the width parameter
A = 1/(4 sigma2) - i b/(2 hbar) of psi ~ exp(-A x^2) evolves as the free
propagator's A/(1 + 2i hbar A t/m); in tau the coefficients
a+- = 1/(4 sigma2) -+ b/(2 hbar) of the heat pair sqrt(rho) exp(+-s/hbar)
of Euclidean quantum mechanics each obey a Riccati law of their own; in t
a minimal packet (b = 0) spreads by the law sigma2 + (hbar t/2m)^2/sigma2.
The ODEs are kept, integrated at tolerance 1e-12
(:func:`integrate_gaussian_ode`), as the closed forms' cross-check in the
tests and the benchmark's gate; scipy is imported only then.  Neither
oracle touches the PDE integrators it checks.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussianOdeState:
    """Gaussian-family parameters along a flow."""

    sigma2: float
    b: float
    c: float = 0.0


def _flow_sign(flow: str) -> float:
    if flow == "t":
        return 1.0
    if flow == "tau":
        return -1.0
    raise ValueError(f"flow must be 't' or 'tau', got {flow!r}")


def gaussian_flow(sigma2, b, c, flow: str, theta, hbar: float = 1.0, mass: float = 1.0) -> tuple:
    """(sigma2, b, c) of the Gaussian at flow time ``theta``: the parameter ODEs in closed form.

    ``theta`` may be an array of times (a float array each then).  The
    tau-flow blows up where 1 - 4 a+ D tau or 1 + 4 a- D tau reaches 0
    (D = hbar/2m); a time at or past that is refused with ValueError.
    """
    _flow_sign(flow)  # refuses an unknown flow
    theta = np.asarray(theta, dtype=float)
    if flow == "t":
        A = 1.0 / (4.0 * sigma2) - 0.5j * b / hbar
        f = 1.0 + 2j * hbar * A * theta / mass
        At = A / f
        return 1.0 / (4.0 * At.real), -2.0 * hbar * At.imag, c - 0.5 * hbar * np.angle(f)
    D = 0.5 * hbar / mass
    a_plus = 1.0 / (4.0 * sigma2) - 0.5 * b / hbar
    a_minus = 1.0 / (4.0 * sigma2) + 0.5 * b / hbar
    f_plus = 1.0 - 4.0 * a_plus * D * theta
    f_minus = 1.0 + 4.0 * a_minus * D * theta
    if not (np.all(f_plus > 0) and np.all(f_minus > 0)):
        raise ValueError(f"the tau-flow of the Gaussian (sigma2={sigma2!r}, b={b!r}) blows up before tau={theta!r}")
    a_plus, a_minus = a_plus / f_plus, a_minus / f_minus
    return (1.0 / (2.0 * (a_plus + a_minus)), hbar * (a_minus - a_plus),
            c - 0.25 * hbar * (np.log(f_plus) - np.log(f_minus)))


def gaussian_ode_rhs(theta, y, flow: str, hbar: float = 1.0, mass: float = 1.0):
    sigma2, b, _ = y
    sign = _flow_sign(flow)
    return [
        2.0 * b * sigma2 / mass,
        -b * b / mass + sign * hbar**2 / (4.0 * mass * sigma2**2),
        -sign * hbar**2 / (4.0 * mass * sigma2),
    ]


def integrate_gaussian_ode(initial: GaussianOdeState, flow: str, times,
                           hbar: float = 1.0, mass: float = 1.0):
    """Parameter trajectories at ``times`` (tolerance-1e-12 integration)."""
    from scipy.integrate import solve_ivp  # only here: scipy's import is most of a cold start

    times = np.atleast_1d(np.asarray(times, dtype=float))
    span = (0.0, float(times[-1])) if times[-1] > 0 else (0.0, 0.0)
    if span[1] == 0.0:
        y = np.tile([[initial.sigma2], [initial.b], [initial.c]], (1, len(times)))
        return times, y
    sol = solve_ivp(gaussian_ode_rhs, span, [initial.sigma2, initial.b, initial.c],
                    t_eval=times, args=(flow, hbar, mass),
                    method="DOP853", rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"Gaussian ODE oracle failed: {sol.message}")
    return sol.t, sol.y


def gaussian_observables(sigma2: float, b: float, c: float = 0.0,
                         hbar: float = 1.0, mass: float = 1.0, p0: float = 0.0) -> dict:
    """Closed-form functional values on the Gaussian family."""
    fisher_int = 1.0 / (4.0 * sigma2)
    kin = b * b * sigma2 + p0 * p0
    return {
        "sigma_x2": sigma2,
        "delta_x2": sigma2,
        "fisher": 2.0 * fisher_int,
        "delta_p2_cl": kin,
        "delta_p2_q": kin + hbar**2 * fisher_int,
        "h_cl": kin / (2.0 * mass),
        "h_q": (kin + hbar**2 * fisher_int) / (2.0 * mass),
        "k_q": (kin - hbar**2 * fisher_int) / (2.0 * mass),
        "s_gen": 0.5 * b * sigma2 + c,
    }

