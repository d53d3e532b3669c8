"""The uncertainty-relativity group.

A single real parameter ``alpha`` labels the transformations; composition
is additive (T_alpha . T_beta = T_{alpha+beta}).  Three faces of the same
group live here:

* pure arithmetic on (delta_x2, delta_p2) pairs and on their product,
* the exact dilatation action on states, implemented by grid-metadata
  rescaling so the group law and consistency checks carry no resampling
  error,
* the hyperbolic mixing of the (H_q, K_q) generator pair and of the two
  time variables.

Sign orientation: parameter flows are taken as dA/dalpha = {A, S}, which
reproduces the infinitesimal momentum-dispersion transformation and makes
``mix_hk`` the exponential of the measured brackets {S, H_q} = K_q,
{S, K_q} = H_q.
"""

import functools
import math

from .functionals import UncertaintyPair
from .grid import Grid
from .states import HydroState


def transform_uncertainty(u: UncertaintyPair, alpha: float, hbar: float = 1.0) -> UncertaintyPair:
    """Apply the group element ``alpha`` to an uncertainty pair (``UncertaintyPair`` refuses dx2 <= 0)."""
    ea, ema = math.exp(alpha), math.exp(-alpha)
    dx2 = ema * u.dx2
    dp2 = ema * u.dp2 + 0.25 * hbar**2 * (ea - ema) / u.dx2
    return UncertaintyPair(dx2=dx2, dp2=dp2)


def product_law(prod: float, alpha: float, hbar: float = 1.0) -> float:
    """Transformation of the product dx2*dp2; hbar^2/4 is its fixed point."""
    e2 = math.exp(-2.0 * alpha)
    return e2 * prod + 0.25 * hbar**2 * (1.0 - e2)


def dilate(state: HydroState, alpha: float) -> HydroState:
    """Exact dilatation of a state by grid-metadata rescaling.

    The sample arrays are rescaled in place of any interpolation: the new
    grid spacing is exp(-alpha/2) h, density samples pick up the factor
    exp(dim*alpha/2) forced by normalization, and phase samples scale by
    exp(-alpha).  Composition of dilatations is therefore exact up to
    floating-point rounding.
    """
    scale = math.exp(-0.5 * alpha)
    # alpha = 0 keeps the state's own grid, and with it the tables that grid has built
    new_grid = state.grid if scale == 1.0 else _grid(state.grid.n, scale * state.grid.length, state.grid.dim)
    rho = math.exp(0.5 * state.grid.dim * alpha) * state.rho
    s = math.exp(-alpha) * state.s
    return HydroState(grid=new_grid, rho=rho, s=s, hbar=state.hbar, mass=state.mass)


@functools.lru_cache(maxsize=1)
def _grid(n: int, length: float, dim: int) -> Grid:
    # the box of the last dilatation, so that states dilated onto one box one after another
    # share a Grid and the tables it builds; keeping more boxes would keep their tables too,
    # tens of MiB each for a 3-D grid at n = 128
    return Grid(n=n, length=length, dim=dim)


def mix_hk(h: float, k: float, alpha: float) -> tuple:
    """Hyperbolic mixing of the generator pair; preserves h^2 - k^2."""
    ch, sh = math.cosh(alpha), math.sinh(alpha)
    return (ch * h - sh * k, -sh * h + ch * k)


def mix_times(t: float, tau: float, alpha: float) -> tuple:
    """Lorentz-like mixing of the two time variables; preserves t^2 - tau^2."""
    ch, sh = math.cosh(alpha), math.sinh(alpha)
    return (ch * t + sh * tau, sh * t + ch * tau)

