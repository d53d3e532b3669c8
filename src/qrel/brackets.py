"""Functional Poisson bracket and its finite-difference oracle.

The bracket of two tagged functionals is

    {A, B} = integral [ dA/drho * dB/ds - dB/drho * dA/ds ]

evaluated with the closed-form derivative fields.  An independent oracle
recovers any derivative field by bumping single grid samples and
re-evaluating the functional itself, never touching the closed forms.

Oracle conditioning
-------------------
Bumps in the phase component act on the samples directly; every tagged
functional is at most quadratic in s, so centered quotients are exact up
to rounding.  Bumps in the density act on the square-root samples with
the exact chain rule d/drho = (d/du) / (2u), u = sqrt(rho): a bump of
rho itself cannot stay positive and resolve the derivative at
rho ~ 1e-10 in double precision, while the square-root bump keeps the
quadratic functionals exact for any bump size below u.  One sweep serves
both components, and one sweep at one bump size makes each oracle field;
the oracle returns the field alone, with no error estimate.

Stacked evaluation
------------------
The sweep evaluates its functional once per stack of bumped states, not
once per sample: the plus and minus bumps of up to ``STACK_SAMPLES`` grid
samples become the C-contiguous rows of one stacked :class:`HydroState`,
which keeps them without a copy (``HydroState._adopt``).  The unbumped
component is one single-row long-double base state per sweep, which every
stack holds and broadcasts against its rows; the blocks of that component
alone (sqrt(rho), the Fisher integral and the curvature quotient on an
s-sweep, |grad s|^2 on a rho-sweep) are computed once, on the base, and
only if the functional reads them.  A rho-stack keeps its bumped
amplitude rows as its sqrt(rho).  Every grid operator treats each row as
it treats a lone field, so each member's value, and hence every quotient,
is bit for bit the one a lone bumped state would give.

Derivatives with respect to rho are unconstrained; restricted to
normalized densities they carry an additive-constant gauge, so field
comparisons subtract the density-weighted mean of both sides.  Bracket
values always use the raw fields (subtracting constants is not harmless
when one argument is the dilatation generator, whose ds-derivative is
rho itself).
"""

from dataclasses import dataclass

import numpy as np

from .functionals import FunctionalTag, delta_p2_q, delta_x2, evaluate, variational_derivative
from .group import dilate
from .states import HydroState

#: Comparison region default: below this density the oracle quotient is
#: noise-dominated and the derivative fields carry no weight.
ORACLE_RHO_CUTOFF = 1e-12


@dataclass(frozen=True)
class GeneratorCheck:
    """Both sides of the infinitesimal dilatation identity and their residual."""

    bracket_closed_form: float
    rate_finite_difference: float
    residual: float


def bracket_of_fields(grid, da_rho, da_s, db_rho, db_s) -> float:
    """integral [da_rho * db_s - db_rho * da_s]; antisymmetric by construction."""
    return grid.quadrature(da_rho * db_s - db_rho * da_s)


def subtract_rho_mean(field: np.ndarray, state: HydroState, where: np.ndarray) -> np.ndarray:
    """Remove the additive-constant gauge of a d/drho field.

    The density weight is restricted to the comparison region ``where``,
    so a masked oracle field and an unmasked closed form receive the same
    gauge constant.
    """
    weight = state.rho * where
    mean = state.grid.quadrature(weight * field) / state.grid.quadrature(weight)
    return field - mean


def poisson_bracket(a: FunctionalTag, b: FunctionalTag, state: HydroState,
                    method: str = "closed-form") -> float:
    """Value of {a, b} on ``state`` (DELTA_X2 in the consistent convention).

    ``method="closed-form"`` uses the derivative rules and also takes a
    stacked state, with one value per member.
    ``method="finite-difference-oracle"`` rebuilds all four derivative
    fields with the bump oracle, one sweep at its default bump size each.
    """
    if method == "closed-form":
        derive = lambda tag, comp: variational_derivative(tag, state, comp)
    elif method == "finite-difference-oracle":
        derive = lambda tag, comp: fd_functional_derivative(tag, state, comp)
    else:
        raise ValueError(f"unknown bracket method {method!r}")
    return bracket_of_fields(state.grid, derive(a, "rho"), derive(a, "s"), derive(b, "rho"), derive(b, "s"))


# ---------------------------------------------------------------------------
# finite-difference oracle


# The sweep evaluates the functional in extended precision: the quotient
# resolves changes of order eps * cell_volume * d/drho in a value of order
# one, and double-precision rounding alone would cap the accuracy near the
# low-density edge of the comparison region.

#: Grid samples per stack of bumped states, plus and minus rows together:
#: 2**14 is 16 bumps at n = 512.  Each stack holds at least one bump.
STACK_SAMPLES = 2**14


def _bumped_rows(flat, idx, values, shape):
    # one row per value, each ``flat`` with one sample set: row i (of 2k) has sample
    # idx[i % k] set to values[i]
    rows = np.tile(flat, (values.size, 1))
    rows[np.arange(values.size), np.tile(idx, 2)] = values
    return rows.reshape((values.size,) + shape)


def _fd_sweep(func, state, component, eps, mask):
    # Bumps act on s itself, or on u = sqrt(rho) with d/drho = (d/du) / (2u).
    grid = state.grid
    cell = grid.cell_volume
    out = np.zeros(grid.shape)
    # the unbumped state as one member in long double: each stack holds its unbumped
    # component, and reads its blocks of that component alone, computed here once
    base = HydroState(grid, state.rho.astype(np.longdouble)[np.newaxis],
                      state.s.astype(np.longdouble)[np.newaxis], state.hbar, state.mass)
    on_s = component == "s"
    # u as |u|: a -0.0 sample (the root of a -0.0 density) bumps as +0.0, the root of its square
    flat = (base.s if on_s else np.abs(state.sqrt_rho.astype(np.longdouble))).ravel()
    square = None if on_s else flat**2
    eps = np.longdouble(eps)
    index = np.flatnonzero(mask.ravel())
    # bump below the local amplitude so sqrt(rho) keeps its sign; u = 0 has no such bump
    bump = np.full(index.size, eps) if on_s else np.minimum(eps, 0.5 * flat[index])
    index, bump = index[bump > 0.0], bump[bump > 0.0]
    per_stack = max(1, STACK_SAMPLES // (2 * grid.size))
    for start in range(0, index.size, per_stack):
        idx, e = index[start:start + per_stack], bump[start:start + per_stack]
        k = idx.size
        plus = flat[idx] + e
        bumped = np.concatenate([plus, plus - 2.0 * e])  # u + e, then (u + e) - 2e
        # the stack keeps its fresh rows, uncopied.  A rho-stack's density rows are the squares
        # of its amplitude rows, and it keeps those as its sqrt(rho), which they are bit for bit:
        # sqrt(u**2) = |u| in binary floating point with round to nearest while u**2 stays
        # normal (Boldo 2015), as the squares of double samples do in long double
        rows = _bumped_rows(flat, idx, bumped, grid.shape)
        if on_s:
            stack = HydroState._adopt(base, s=rows)
        else:
            stack = HydroState._adopt(base, rho=_bumped_rows(square, idx, bumped**2, grid.shape), sqrt_rho=rows)
        # a functional blind to the bumped component gives one value for the stack
        values = np.broadcast_to(func(stack), (2 * k,))
        quotient = (values[:k] - values[k:]) / (2.0 * e * cell)
        out.ravel()[idx] = quotient if on_s else quotient / (2.0 * flat[idx])
    return out


def fd_functional_derivative(tag, state: HydroState, component: str = "rho",
                             epsilon: float = 5e-6, where: np.ndarray = None) -> np.ndarray:
    """Oracle derivative field of ``tag`` (or any callable of a state).

    One sweep of centered quotients of single-sample bumps of size
    ``epsilon``, normalized by the cell volume; a tag is evaluated as
    :func:`evaluate` does (DELTA_X2 in the consistent convention).  Points
    outside ``where`` (default: rho > 1e-12) are returned as zero.  A callable receives a
    stacked :class:`HydroState` of bumped states (long double, one member
    per bump direction and sample) and must return one value per member,
    computed for each member as for a lone state; every tagged functional
    does.
    """
    if component not in ("rho", "s"):
        raise ValueError(f"component must be 'rho' or 's', got {component!r}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    func = tag if callable(tag) else (lambda st: evaluate(tag, st))
    if where is None:
        where = state.rho > ORACLE_RHO_CUTOFF
    return _fd_sweep(func, state, component, epsilon, where)


# ---------------------------------------------------------------------------
# derived checks


def generator_check(state: HydroState, dalpha: float = 1e-4) -> GeneratorCheck:
    """Infinitesimal dilatation of the momentum dispersion vs its bracket.

    Compares the centered rate of delta_p2_q under dilatation with the
    closed-form bracket -delta_p2_q + hbar^2 / (2 delta_x2), delta_x2 in
    the consistent convention; the centered scheme converges at second
    order in ``dalpha``.
    """
    dp2 = delta_p2_q(state)
    dx2 = delta_x2(state)
    closed = -dp2 + 0.5 * state.hbar**2 / dx2
    rate = (delta_p2_q(dilate(state, dalpha)) - delta_p2_q(dilate(state, -dalpha))) / (2.0 * dalpha)
    return GeneratorCheck(bracket_closed_form=closed, rate_finite_difference=rate,
                          residual=abs(rate - closed))


def jacobi_defect(state: HydroState) -> tuple:
    """Spot check of the Jacobi identity on (S, H_q, K_q).

    Given the verified pair identities {S, H_q} = K_q and {S, K_q} = H_q,
    the cyclic sum collapses to {S, {H_q, K_q}}, which must vanish because
    {H_q, K_q} is invariant under the dilatation flow.  The inner bracket
    is a composite scalar, so its derivative fields come from the oracle,
    which evaluates it on stacks of bumped states, one value per member,
    with bumps of 5e-7.

    Returns (defect, inner_bracket_value).
    """
    inner = lambda st: poisson_bracket(FunctionalTag.H_Q, FunctionalTag.K_Q, st)
    d_rho = fd_functional_derivative(inner, state, "rho", epsilon=5e-7)
    d_s = fd_functional_derivative(inner, state, "s", epsilon=5e-7)
    ds_rho = variational_derivative(FunctionalTag.S_GEN, state, "rho")
    ds_s = variational_derivative(FunctionalTag.S_GEN, state, "s")
    defect = bracket_of_fields(state.grid, ds_rho, ds_s, d_rho, d_s)
    return defect, inner(state)
