"""Scalar functionals of the field pair and their variational derivatives.

Conventions
-----------
* ``fisher_information`` returns F = 2 * integral |grad sqrt(rho)|^2.
* ``delta_x2`` is the self-consistent dispersion
  1 / (4 * integral |grad sqrt(rho)|^2), which makes the dilatation
  transformation law an identity and saturates the minimal-Gaussian
  product at hbar^2/4.  The historical factor-2 reading,
  ``convention="paper-literal"``, is kept purely for documenting the
  discrepancy.  A convention is only a way of reporting: ``delta_x2``,
  ``uncertainty_pair`` and the trajectory table (``qrel.report``) convert
  the consistent value by :func:`in_convention`, and everything else,
  the records of a trajectory too, is consistent.
* The Fisher integral, integral |grad sqrt(rho)|^2 (|grad |psi||^2 on
  the wave route), is ``Grid.gradient_energy``: the spectral gradient's
  squared integral by Parseval on the rfftn half spectrum, one forward
  transform per field or stack.
* Gradients of the phase field use the one centred stencil of
  ``Grid.fd_gradient`` and ``Grid.fd_divergence``; amplitude fields (rho,
  sqrt(rho), psi) use spectral calculus.  Phase fields are generally not
  periodic on the box, and the density weight suppresses the wrap cells,
  so this split keeps every functional accurate for the localized test
  family (including dilated and small-hbar states, where psi oscillates
  past Nyquist and a phase gradient taken from psi aliases).

The derivative rules returned by :func:`variational_derivative` are the
closed forms evaluated with the same discrete operators that the
functional evaluations use, so the finite-difference oracle in the
bracket engine reproduces them to its own noise floor.  Minus the rho
derivatives of H_q and K_q are the phase equations of the t- and tau-flows
(:func:`qrel.dynamics.hydro_rhs` reads them here).
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError
from .states import RHO_FLOOR, HydroState, WaveField, check_nodeless_interior, phase_gradient, reduced_current

CONVENTIONS = ("consistent", "paper-literal")


class FunctionalTag(enum.Enum):
    """Identity of a functional with evaluation and derivative rules."""

    H_CL = "h_cl"
    H_Q = "h_q"
    K_Q = "k_q"
    S_GEN = "s_gen"
    FISHER = "fisher"
    DELTA_X2 = "delta_x2"
    DELTA_P2_CL = "delta_p2_cl"
    DELTA_P2_Q = "delta_p2_q"
    SIGMA_X2 = "sigma_x2"
    P_TRANSLATION = "p_translation"


@dataclass(frozen=True)
class UncertaintyPair:
    """The (delta_x2, delta_p2) pair transformed by the relativity group."""

    dx2: float
    dp2: float

    def __post_init__(self):
        if not self.dx2 > 0:
            raise DegenerateStateError(f"dx2 must be positive, got {self.dx2!r}")

    @property
    def product(self) -> float:
        return self.dx2 * self.dp2


def _fisher_dispersion(integral):
    """The consistent delta_x2 = 1 / (4 * integral); a vanishing integral (the uniform density's) is degenerate."""
    if np.any(integral <= 1e-12):
        raise DegenerateStateError("Fisher integral vanishes; delta_x2 undefined for this state")
    return 1.0 / (4.0 * integral)


def in_convention(dx2, convention: str):
    """A consistent delta_x2 as ``convention`` reports it, refusing an unknown one.

    Paper-literal is twice it, bit for bit, since the factor is a power of two.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return dx2 if convention == "consistent" else 2.0 * dx2


# ---------------------------------------------------------------------------
# building blocks
#
# Each block is computed once per HydroState and kept on it, read-only, as
# ``sqrt_rho`` is kept: every functional and derivative field of one state
# reads the same Fisher integral, kinetic integral, |grad s|^2, curvature
# quotient and div(rho grad s).  Only public functions hand arrays out, and
# they hand out copies.


def _kept(reads: str = None):
    """Decorate ``block`` as ``block(state)``, computed on first use and kept in the state's ``__dict__`` as a
    cached property is.

    ``reads`` names the one component ("rho" or "s") the block reads, if it
    reads only one: a state that holds that component of a base state
    (``HydroState._adopt``) keeps the base's value, computed once on the base.
    """
    def decorate(block):
        key = block.__name__

        @functools.wraps(block)
        def kept(state: HydroState):
            cache = vars(state)
            if key not in cache:
                base = state._base_holding(reads) if reads else None
                value = block(state) if base is None else kept(base)
                if isinstance(value, np.ndarray):
                    value.setflags(write=False)
                cache[key] = value
            return cache[key]

        return kept

    return decorate


def _owned(value):
    # a kept block as a public function returns it: an array the caller may write
    return value.copy() if isinstance(value, np.ndarray) else value


@_kept("rho")
def _fisher(state: HydroState):
    return state.grid.gradient_energy(state.sqrt_rho)


def fisher_integral(state: HydroState) -> float:
    """integral |grad sqrt(rho)|^2 (the quantum term of every functional)."""
    return _owned(_fisher(state))


def _curvature_quotient(grid, u: np.ndarray) -> np.ndarray:
    # laplacian(u)/u for an amplitude u, with u floored at sqrt(RHO_FLOOR): the
    # quantum potential's quotient, shared by the functionals and both flows;
    # divided in place into the floored copy of u, a new array the caller owns
    floored = np.maximum(u, math.sqrt(RHO_FLOOR))
    return np.divide(grid.laplacian(u), floored, out=floored)


@_kept("rho")
def _curvature(state: HydroState) -> np.ndarray:
    check_nodeless_interior(state)
    return _curvature_quotient(state.grid, state.sqrt_rho)


def sqrt_density_curvature(state: HydroState) -> np.ndarray:
    """Field laplacian(sqrt rho)/sqrt(rho), regularized below RHO_FLOOR.

    Raises a degenerate-state error for densities with interior nodes,
    where the ratio is meaningless on the support itself.
    """
    return _owned(_curvature(state))


def _sum_of_squares(parts: list) -> np.ndarray:
    # the sum of the squares of fresh real arrays, each squared in place and added in place to
    # the first: the bits of sum(p**2 for p in parts), whose start 0 adds exactly
    total = np.square(parts[0], out=parts[0])
    for p in parts[1:]:
        total += np.square(p, out=p)
    return total


@_kept("s")
def _grad_s_squared(state: HydroState) -> np.ndarray:
    return _sum_of_squares(phase_gradient(state))


@_kept()
def _kinetic(state: HydroState):
    return state.grid.quadrature(state.rho * _grad_s_squared(state))


def kinetic_integral(state: HydroState) -> float:
    """integral rho |grad s|^2 (raw second moment of the momentum field)."""
    return _owned(_kinetic(state))


@_kept()
def _ds_divergence(state: HydroState) -> np.ndarray:
    # div(rho * grad s) with the same centered-difference operators the
    # evaluations use, so summation by parts holds exactly.
    grads = phase_gradient(state)
    return state.grid.fd_divergence([state.rho * g for g in grads])


# ---------------------------------------------------------------------------
# scalar functionals on HydroState
#
# Every evaluator also takes a stacked state (see HydroState) and returns
# one value per member; the bracket oracle evaluates its bumps this way.


def _per_member(value, grid):
    # a stack's per-member values, shaped to broadcast against its fields
    return value.reshape(value.shape + (1,) * grid.dim) if np.ndim(value) else value


def fisher_information(state: HydroState) -> float:
    """Fisher information F = 2 * integral |grad sqrt(rho)|^2."""
    return 2.0 * _fisher(state)


def delta_x2(state: HydroState, convention: str = "consistent") -> float:
    """Fisher dispersion 1 / (4 * integral |grad sqrt(rho)|^2) of the position distribution, in ``convention``.

    A vanishing Fisher integral and an unknown convention are refused
    (:func:`_fisher_dispersion`, :func:`in_convention`).
    """
    return in_convention(_fisher_dispersion(_fisher(state)), convention)


def sigma_x2(state) -> float:
    """Position variance quadrature(rho |x - mean|^2), summed over axes.

    With m0, m1 (one per axis) and m2 the integrals of rho against 1, x
    and |x|^2, one matrix product per member (``Grid._position_moments``),
    and the mean m1, this is m2 - 2 |m1|^2 + m0 |m1|^2, so it stays the
    centred moment of a density a little off unit mass.  The tau-flow's
    resolution guard reads it every step.  Reads only the grid and the
    density, so ``state`` may be a :class:`HydroState` or a
    :class:`WaveField`; a stack gives one value per member, each bit for
    bit its lone value.
    """
    return _position_variance(state.grid, state.rho)


def _position_variance(grid, rho: np.ndarray):
    # sigma_x2 of the density ``rho`` (or a stack of densities) on ``grid``
    m = grid._position_moments(rho)
    mean2 = (m[..., 1:-1] ** 2).sum(axis=-1)
    return grid._integral_value(rho, m[..., -1] - (2.0 - m[..., 0]) * mean2)


def delta_p2_cl(state: HydroState) -> float:
    """Classical momentum dispersion quadrature(rho |grad s|^2)."""
    return kinetic_integral(state)


def delta_p2_q(state: HydroState) -> float:
    """Momentum dispersion with the Fisher term restoring the group law."""
    return _kinetic(state) + state.hbar**2 * _fisher(state)


def h_cl(state: HydroState) -> float:
    """Classical Hamiltonian functional, kinetic energy of the ensemble."""
    return _kinetic(state) / (2.0 * state.mass)


def h_q(state: HydroState) -> float:
    """Quantum Hamiltonian: classical part plus the Fisher term."""
    return (_kinetic(state) + state.hbar**2 * _fisher(state)) / (2.0 * state.mass)


def k_q(state: HydroState) -> float:
    """Companion generator: classical part minus the Fisher term."""
    return (_kinetic(state) - state.hbar**2 * _fisher(state)) / (2.0 * state.mass)


def s_gen(state: HydroState) -> float:
    """Dilatation generator quadrature(rho * s)."""
    return state.grid.quadrature(state.rho * state.s)


def p_translation(state: HydroState) -> float:
    """Translation generator quadrature(rho * grad s), first axis."""
    return state.grid.quadrature(state.rho * phase_gradient(state)[0])


def uncertainty_pair(state: HydroState, convention: str = "consistent") -> UncertaintyPair:
    return UncertaintyPair(dx2=delta_x2(state, convention), dp2=delta_p2_q(state))


_EVALUATORS = {
    FunctionalTag.H_CL: h_cl,
    FunctionalTag.H_Q: h_q,
    FunctionalTag.K_Q: k_q,
    FunctionalTag.S_GEN: s_gen,
    FunctionalTag.FISHER: fisher_information,
    FunctionalTag.DELTA_X2: delta_x2,
    FunctionalTag.SIGMA_X2: sigma_x2,
    FunctionalTag.DELTA_P2_CL: delta_p2_cl,
    FunctionalTag.DELTA_P2_Q: delta_p2_q,
    FunctionalTag.P_TRANSLATION: p_translation,
}


def evaluate(tag: FunctionalTag, state: HydroState) -> float:
    """Evaluate the tagged functional on ``state`` (DELTA_X2 in the consistent convention)."""
    return _EVALUATORS[tag](state)


# ---------------------------------------------------------------------------
# variational derivatives (closed forms, discretely consistent)


def variational_derivative(tag: FunctionalTag, state: HydroState, component: str) -> np.ndarray:
    """Closed-form functional derivative field delta(tag)/delta(component).

    ``component`` is ``"rho"`` or ``"s"``, and DELTA_X2 is taken in the
    consistent convention.  Derivatives with respect to rho are the
    unconstrained ones; restricting to normalized densities leaves
    them defined only up to an additive constant, which comparisons must
    mod out (the bracket engine's oracle does).  A stacked state gives
    one field per member; a field that cannot differ between members may
    come back unstacked and broadcasts against the others.
    """
    if component not in ("rho", "s"):
        raise ValueError(f"component must be 'rho' or 's', got {component!r}")
    m, hb = state.mass, state.hbar
    zero = np.zeros(state.grid.shape)

    if tag is FunctionalTag.S_GEN:
        return state.s.copy() if component == "rho" else state.rho.copy()

    if tag is FunctionalTag.FISHER:
        return -2.0 * _curvature(state) if component == "rho" else zero

    if tag is FunctionalTag.DELTA_X2:
        if component == "s":
            return zero
        # d(1/(4 I))/drho with dI/drho = -laplacian(sqrt rho)/sqrt(rho): the curvature times delta_x2 / I
        integral = _per_member(_fisher(state), state.grid)
        return _curvature(state) * (_fisher_dispersion(integral) / integral)

    if tag is FunctionalTag.SIGMA_X2:
        if component == "s":
            return zero
        out = np.zeros(state.rho.shape)
        for xc in state.grid.coords:
            mean = _per_member(state.grid.quadrature(state.rho * xc), state.grid)
            out += xc**2 - 2.0 * mean * xc
        return out

    if tag is FunctionalTag.P_TRANSLATION:
        if component == "rho":
            return phase_gradient(state)[0]
        return -state.grid.fd_gradient(state.rho)[0]

    if tag is FunctionalTag.DELTA_P2_CL:
        if component == "rho":
            return _grad_s_squared(state).copy()
        return -2.0 * _ds_divergence(state)

    if tag is FunctionalTag.DELTA_P2_Q:
        if component == "rho":
            return _grad_s_squared(state) - hb**2 * _curvature(state)
        return -2.0 * _ds_divergence(state)

    if tag in (FunctionalTag.H_CL, FunctionalTag.H_Q, FunctionalTag.K_Q):
        if component == "s":
            return -_ds_divergence(state) / m
        base = _grad_s_squared(state) / (2.0 * m)
        if tag is FunctionalTag.H_CL:
            return base
        sign = -1.0 if tag is FunctionalTag.H_Q else 1.0
        return base + sign * (hb**2 / (2.0 * m)) * _curvature(state)

    raise ValueError(f"no derivative rule for {tag!r}")


# ---------------------------------------------------------------------------
# wave-field routes
#
# Trajectory observables are computed directly from psi: the spectral
# momentum integral hbar^2 |grad psi|^2 is conserved exactly by the free
# propagator, which keeps the conservation columns of trajectory records
# at the rounding floor.  The gradients of psi are the field's cached ones;
# the Fisher integral of |psi| costs one forward transform
# (Grid.gradient_energy), so a record computes it once
# (_record_observables).  A stacked field gives one value per member.


def wave_fisher_integral(w: WaveField) -> float:
    return w.grid.gradient_energy(np.abs(w.psi))


def wave_delta_p2_q(w: WaveField) -> float:
    return w.hbar**2 * w.grid.quadrature(_sum_of_squares([np.abs(g) for g in w.grad_psi]))


def wave_h_q(w: WaveField) -> float:
    return wave_delta_p2_q(w) / (2.0 * w.mass)


def _companion(h, integral, w: WaveField):
    # K_Q from H_Q and the Fisher integral: the classical part minus the Fisher term
    return h - w.hbar**2 * integral / w.mass


def wave_k_q(w: WaveField) -> float:
    return _companion(wave_h_q(w), wave_fisher_integral(w), w)


def wave_delta_x2(w: WaveField) -> float:
    return _fisher_dispersion(wave_fisher_integral(w))


def _record_observables(w: WaveField) -> dict:
    """h_q, k_q, delta_x2 and delta_p2_q of ``w`` from one delta_p2_q and one Fisher integral.

    Each value is bit for bit the one its ``wave_*`` function gives.
    """
    dp2, integral = wave_delta_p2_q(w), wave_fisher_integral(w)
    h = dp2 / (2.0 * w.mass)
    return {"h_q": h, "k_q": _companion(h, integral, w),
            "delta_x2": _fisher_dispersion(integral), "delta_p2_q": dp2}


def wave_s_gen(w: WaveField) -> float:
    return w.grid.quadrature(w.rho * w.s)


def wave_p_translation(w: WaveField) -> float:
    return w.hbar * w.grid.quadrature(reduced_current(w)[0])
