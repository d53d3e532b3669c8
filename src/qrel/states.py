"""Field states: the canonical density/phase pair and the wave function.

A :class:`HydroState` carries the density ``rho`` and phase ``s`` samples
together with the constants hbar and mass; a :class:`WaveField` carries
``psi = sqrt(rho) * exp(i s / hbar)``.  Conversions preserve normalization
to machine precision.  Phase reconstruction from a wave field sums the
principal phase increments between neighbouring samples outward from the
box center, since the phase of a localized packet need not be periodic
while ``psi`` itself decays, and at the box edge ``psi`` is at the
rounding floor.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DegenerateStateError, GridMismatchError
from .grid import Grid

#: Density regularizer used in every division by rho or |psi|^2.  Small
#: enough to perturb integrals far below test tolerances, large enough to
#: avoid NaN in negligible-density regions.
RHO_FLOOR = 1e-30

#: Localized states must decay below this amplitude at the box boundary.
TAIL_TOLERANCE = 1e-12


def _read_only(a: np.ndarray, kind: str) -> np.ndarray:
    # float64 by default; longdouble inputs keep their precision so the
    # bracket oracle can evaluate functionals above double rounding
    a = np.asarray(a)
    if kind == "real":
        dtype = np.longdouble if a.dtype == np.longdouble else np.float64
    else:
        dtype = np.clongdouble if a.dtype in (np.clongdouble, np.longdouble) else np.complex128
    # C order, so that each member of a stack is summed as it is alone (Grid.quadrature)
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HydroState:
    """Canonical field pair (rho, s) with units.

    Invariants: rho >= 0 everywhere and quadrature(rho) = 1 (constructors
    normalize to ~1e-15; construction rejects fields off by more than
    1e-4).  Instances are immutable and safe to share across threads.

    ``rho`` and ``s`` may be stacks (see :class:`Grid`) whose leading
    shapes broadcast against each other; the state then holds one member
    per entry of the broadcast stack, and the invariants hold for every
    member.  The bracket oracle evaluates its bumped states this way.

    ``sqrt_rho`` is computed once on first use and kept read-only; so are
    the functional building blocks of :mod:`qrel.functionals` (the Fisher
    and kinetic integrals, |grad s|^2, the curvature quotient and
    div(rho grad s)), which every functional of the state shares.

    The oracle's stacks are made by :meth:`_adopt`, not by the
    constructor: a stack keeps its fresh bumped rows without a copy and
    holds the other component of one unbumped base state, whose blocks of
    that component alone it reads instead of computing them again.  Both
    ways of making a state check the same invariants.
    """

    grid: Grid
    rho: np.ndarray
    s: np.ndarray
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "rho", _read_only(self.grid.bind(self.rho), "real"))
        object.__setattr__(self, "s", _read_only(self.grid.bind(self.s), "real"))
        _check_hydro(self)

    @cached_property
    def sqrt_rho(self) -> np.ndarray:
        base = self._base_holding("rho")
        if base is not None:
            return base.sqrt_rho
        u = np.sqrt(self.rho)
        u.setflags(write=False)
        return u

    @property
    def norm(self) -> float:
        return self.grid.quadrature(self.rho)

    def _base_holding(self, component: str):
        """The state whose ``component`` this one holds as its own (see :meth:`_adopt`), or None."""
        shared = self.__dict__.get("_shared")
        return shared[1] if shared is not None and shared[0] == component else None

    @classmethod
    def _adopt(cls, base: "HydroState", rho: np.ndarray = None, s: np.ndarray = None,
               sqrt_rho: np.ndarray = None) -> "HydroState":
        """A state that keeps the one fresh component it is given itself, made read-only, and holds ``base``'s other.

        Exactly one of ``rho`` and ``s`` is given: a fresh C-ordered float64
        or long double array (or a view of one) that this package has just
        made and hands to no one else.  The state has ``base``'s grid and
        units, holds ``base``'s other component, and reads ``base``'s kept
        value of every block of that component alone (``sqrt_rho`` here,
        the blocks :func:`qrel.functionals._kept` marks in
        :mod:`qrel.functionals`), so each is computed once, on ``base``.
        ``sqrt_rho``, if given with ``rho``, is kept as its square root: a
        fresh array holding sqrt(rho) bit for bit.  The invariants are
        checked as at construction.
        """
        if (rho is None) == (s is None) or (sqrt_rho is not None and rho is None):
            raise TypeError("exactly one of rho and s is adopted, and sqrt_rho only with rho")
        for a in (x for x in (rho, s, sqrt_rho) if x is not None):
            if a.dtype not in (np.float64, np.longdouble) or not a.flags.c_contiguous:
                raise TypeError(f"only a C-ordered float64 or long double array is adopted, got a {a.dtype} array"
                                f"{'' if a.flags.c_contiguous else ' that is not C-ordered'}")
            a.setflags(write=False)
        h = object.__new__(cls)
        h.__dict__.update(grid=base.grid, rho=base.rho if rho is None else base.grid.bind(rho),
                          s=base.s if s is None else base.grid.bind(s), hbar=base.hbar, mass=base.mass,
                          _shared=("rho", base) if rho is None else ("s", base))
        if sqrt_rho is not None:
            h.__dict__["sqrt_rho"] = sqrt_rho
        _check_hydro(h)
        return h


def _check_hydro(state: HydroState):
    """Refuse a state whose fields do not broadcast, whose units are not positive, or whose rho is
    negative somewhere or off unit mass by more than 1e-4 (its worst member, for a stack)."""
    if state.rho.shape != state.s.shape:
        try:
            np.broadcast_shapes(state.rho.shape, state.s.shape)
        except ValueError:
            raise GridMismatchError(f"rho stack {state.rho.shape} and s stack {state.s.shape} "
                                    "do not broadcast") from None
    if not state.hbar > 0:
        raise ConfigurationError(f"hbar must be positive, got {state.hbar!r}")
    if not state.mass > 0:
        raise ConfigurationError(f"mass must be positive, got {state.mass!r}")
    if (state.rho < 0.0).any():
        raise DegenerateStateError("rho has negative samples")
    # Loose safety net only: constructors normalize to ~1e-15, and the
    # bracket oracle's bumped states sit within ~1e-6 of unit mass.
    norm = state.grid.quadrature(state.rho)
    if np.ndim(norm):  # a stack: its worst member decides
        norm = norm.flat[np.argmax(np.abs(norm - 1.0))]
    if abs(norm - 1.0) > 1e-4:
        raise DegenerateStateError(f"rho is not normalized: quadrature(rho) = {norm!r}")


@dataclass(frozen=True)
class WaveField:
    """Wave function psi with units; quadrature(|psi|^2) = 1.

    The density, the phase, the transform of psi and the spectral
    gradient of psi are computed once on first use and kept read-only,
    so every observable and integrator step that reads the same field
    shares them.

    ``psi`` may be a stack (see :class:`Grid`): the caches then hold one
    member per entry of the stack, each bit for bit its lone value, and
    every wave-field observable returns one value per member.  The
    stacked tau-runner marches its members this way.
    """

    grid: Grid
    psi: np.ndarray
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "psi", _read_only(self.grid.bind(self.psi), "complex"))
        if not self.hbar > 0:
            raise ConfigurationError(f"hbar must be positive, got {self.hbar!r}")
        if not self.mass > 0:
            raise ConfigurationError(f"mass must be positive, got {self.mass!r}")

    @cached_property
    def rho(self) -> np.ndarray:
        r = np.abs(self.psi) ** 2
        r.setflags(write=False)
        return r

    @cached_property
    def s(self) -> np.ndarray:
        """Phase hbar * arg(psi), summed from increments outward from the box center.

        Anchored so s(center) = hbar * arg psi(center).  Along the first
        grid axis, with the others at their centers, each sample adds the
        principal increment arg(psi[j+1] conj psi[j]) to its inner
        neighbour's phase; then each further axis carries the phase on
        outward from the line or plane before it.  Where |psi| matters the
        phase changes by far less than pi per cell, so the sum is the
        unwrapped phase: on the 1-D Gaussian battery it is the phase the
        states were made with to 4.4e-16, where ``np.unwrap`` from the box
        edge is off by up to 1.3e-13.  A wrong multiple of 2 pi can only
        arise where |psi| is negligible, never reaches a sample inward of
        it, and is harmless there because every use of s carries a rho
        weight.
        """
        s = _phase_from_center(self.psi, self.grid.dim)
        s *= self.hbar
        s.setflags(write=False)
        return s

    @cached_property
    def psi_hat(self) -> np.ndarray:
        """The transform of psi over the grid axes."""
        h = self.grid._fftn(self.psi)
        h.setflags(write=False)
        return h

    @cached_property
    def grad_psi(self) -> tuple:
        """Per-axis spectral gradient of psi, built from :attr:`psi_hat`."""
        return _read_only_all(self.grid.gradient(self.psi, self.psi_hat))

    @property
    def norm(self) -> float:
        return self.grid.quadrature(self.rho)

    def take(self, index) -> "WaveField":
        """Members of a stack, as a new field with no cache computed yet.

        A boolean mask ``index`` selects a stack of members; an integer
        gives that member as a lone field.  Each cache is computed on first
        use, bit for bit the value the stack holds for the member.
        """
        return WaveField(grid=self.grid, psi=self.psi[index], hbar=self.hbar, mass=self.mass)

    @classmethod
    def _adopt(cls, like: "WaveField", psi: np.ndarray, rho: np.ndarray = None) -> "WaveField":
        """A field on ``like``'s grid and units that keeps ``psi`` itself, made read-only.

        Only for a fresh C-ordered complex128 array (or a view of one) that
        this package has just made, with ``like``'s grid axes last, and hands
        to no one else; an array a caller passes is copied (``_read_only``),
        since a read-only flag alone promises nothing about who else may
        write to it.  ``rho``, if given, is kept as the density cache: a
        read-only array holding |psi|^2 bit for bit.
        """
        if psi.dtype != np.complex128 or not psi.flags.c_contiguous:
            raise TypeError(f"only a C-ordered complex128 array is adopted, got a {psi.dtype} array"
                            f"{'' if psi.flags.c_contiguous else ' that is not C-ordered'}")
        psi.setflags(write=False)
        w = object.__new__(cls)
        w.__dict__.update(grid=like.grid, psi=psi, hbar=like.hbar, mass=like.mass)
        if rho is not None:
            w.__dict__["rho"] = rho
        return w


def _read_only_all(arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return tuple(arrays)


@dataclass(frozen=True)
class GaussianParams:
    """Parameters of the Gaussian test-state family.

    The density is a normalized Gaussian of variance ``sigma2`` centered
    at ``x0`` (along the first axis); the phase is
    ``b*r^2/2 + p0*(x - x0) + c`` with r measured from the center.
    """

    sigma2: float = 1.0
    b: float = 0.0
    c: float = 0.0
    p0: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ConfigurationError(f"sigma2 must be positive, got {self.sigma2!r}")


def _check_faces(rho: np.ndarray, grid: Grid, packet: str):
    """Refuse a density whose amplitude on a face (first or last sample) of any axis exceeds TAIL_TOLERANCE.

    A larger one breaks the periodicity the spectral substrate assumes.  The
    message names ``grid.length``, the field that widens the box, and ``packet``.
    """
    tail = max(float(np.sqrt(np.take(rho, [0, -1], axis=ax)).max()) for ax in range(grid.dim))
    if tail > TAIL_TOLERANCE:
        raise ConfigurationError(
            f"grid.length: {grid.length!r} leaves a packet tail {tail:.3e} above {TAIL_TOLERANCE:g} "
            f"at the box boundary ({packet})"
        )


def make_gaussian(params: GaussianParams, grid: Grid, hbar: float = 1.0, mass: float = 1.0) -> HydroState:
    """Build the Gaussian test state for ``params`` on ``grid``.

    Raises
    ------
    ConfigurationError
        If the packet's tail reaches the box faces (see :func:`_check_faces`).
    """
    offsets = [grid.coords[0] - params.x0] + [grid.coords[ax] for ax in range(1, grid.dim)]
    r2 = sum(o**2 for o in offsets)
    rho = np.exp(-r2 / (2.0 * params.sigma2))
    rho /= grid.quadrature(rho)
    _check_faces(rho, grid, f"sigma2={params.sigma2!r}, x0={params.x0!r}")
    s = 0.5 * params.b * r2 + params.p0 * offsets[0] + params.c
    return HydroState(grid=grid, rho=rho, s=s, hbar=hbar, mass=mass)


def make_double_gaussian(offset: float, sigma2: float, grid: Grid, hbar: float = 1.0, mass: float = 1.0) -> HydroState:
    """Symmetric two-bump density (equal-weight Gaussians at +-offset), s = 0; faces checked as by make_gaussian."""
    x = grid.coords[0]
    r2m = (x + offset) ** 2 + sum(grid.coords[ax] ** 2 for ax in range(1, grid.dim))
    r2p = (x - offset) ** 2 + sum(grid.coords[ax] ** 2 for ax in range(1, grid.dim))
    rho = np.exp(-r2m / (2.0 * sigma2)) + np.exp(-r2p / (2.0 * sigma2))
    rho /= grid.quadrature(rho)
    _check_faces(rho, grid, f"offset={offset!r}, sigma2={sigma2!r}")
    return HydroState(grid=grid, rho=rho, s=np.zeros(grid.shape), hbar=hbar, mass=mass)


def to_wave(state: HydroState) -> WaveField:
    """Polar composition psi = sqrt(rho) * exp(i s / hbar)."""
    psi = state.sqrt_rho * np.exp(1j * state.s / state.hbar)
    return WaveField(grid=state.grid, psi=psi, hbar=state.hbar, mass=state.mass)


def _increments_from_center(line: np.ndarray) -> np.ndarray:
    # sum of the principal increments arg(psi[j+1] conj psi[j]) along the last axis, outward
    # from its center index, where the sum is 0.  The product is taken over full contiguous
    # rows of n samples (the row rolled by one sample, as np.roll(line, -1, axis=-1) makes it,
    # and the conjugate are new C-ordered arrays), never over two strided views of n - 1
    # samples: under numpy 2.4 the bits of that product depend on the stack's total size
    # ((1, 18, 511) gave each row's lone bits, (3, 18, 511) and (64, 1, 511) did not).  On full
    # rows each stack gives each row its lone bits, so a record's phase does not depend on the
    # block of records it is written in.  The rolled row is the product's temporary left
    # operand: numpy writes a large product into a temporary right operand by swapping the
    # operands, and the swap moves the product's bits.
    c = line.shape[-1] // 2
    steps = np.angle(np.concatenate((line[..., 1:], line[..., :1]), axis=-1) * np.conj(line))[..., :-1]
    out = np.empty(line.shape, dtype=steps.dtype)
    out[..., c] = 0.0
    np.cumsum(steps[..., c:], axis=-1, out=out[..., c + 1:])
    left = out[..., c - 1::-1]  # a view: indices c-1 down to 0
    np.cumsum(steps[..., c - 1::-1], axis=-1, out=left)
    np.negative(left, out=left)
    return out


def _phase_from_center(psi: np.ndarray, dim: int) -> np.ndarray:
    # arg psi along a path from the center: along the first grid axis with the others at
    # their centers, then along the second with the rest at their centers, and so on; only
    # the trailing ``dim`` axes are grid axes, never a stack axis
    # each leg's increments are a new array at least the shape of the phase so far, so the
    # phase is added into them in place
    center = tuple(n // 2 for n in psi.shape[-dim:])
    phase = np.angle(psi[(...,) + center])[(...,) + (np.newaxis,) * dim]
    for leg in range(dim):
        line = psi[(...,) + (slice(None),) * (leg + 1) + center[leg + 1:]]
        increments = _increments_from_center(line)[(...,) + (np.newaxis,) * (dim - 1 - leg)]
        phase = np.add(increments, phase, out=increments)
    return phase


def from_wave(w: WaveField) -> HydroState:
    """Polar decomposition of a wave field into its density and phase ``w.s``.

    The fields that divide by sqrt(rho) refuse interior nodes (:func:`check_nodeless_interior`).
    """
    return HydroState(grid=w.grid, rho=w.rho, s=w.s, hbar=w.hbar, mass=w.mass)


def check_nodeless_interior(state):
    """Reject densities with (near-)nodes inside their support, in any dimension.

    Quantum-potential fields divide by sqrt(rho); exterior tails are
    harmless (every use carries a density weight) but an interior dip
    below 1e-15 of the peak makes those fields meaningless where they
    matter.  Along every grid line of every axis, a line's interior runs
    from its first body sample (above 1e-6 of its member's peak) to its
    last; a line with no body sample has none, and a 1-D density is one
    line.  Each member of a stack is checked.  Reads only the grid and the
    density, so ``state`` may be a :class:`HydroState` or a :class:`WaveField`.
    """
    _refuse_nodal(_nodal_members(state.grid, state.rho))


def _refuse_nodal(nodal: np.ndarray):
    """Raise the degenerate-state error where any flag of ``nodal`` (see :func:`_nodal_members`) is set."""
    if nodal.any():
        raise DegenerateStateError("density has an interior node; quantum-potential fields undefined")


def _nodal_members(grid: Grid, rho: np.ndarray) -> np.ndarray:
    """One flag per member of the density stack ``rho``, in C order: whether it has an interior node.

    The test is :func:`check_nodeless_interior`'s, made of comparisons
    alone, so each member's flag is the one it gets alone.
    """
    n = grid.n
    rho = rho.reshape((-1,) + grid.shape)  # one member axis
    peak = rho.reshape(len(rho), -1).max(axis=1).astype(np.float64, copy=False)  # the peak and the dip test in double
    nodal = np.zeros(len(rho), dtype=bool)
    for axis in range(1, rho.ndim):
        # the lines along this axis, by member: the last axis's are a view of the density
        lines = rho.swapaxes(axis, -1).reshape(len(rho), -1, n)
        body = (lines > (1e-6 * peak)[:, None, None]).reshape(-1, n)
        # each line's interior runs from its first body sample to its last, a body sample
        # itself: so one reduction over the flattened lines finds each line's dip as the
        # minimum from its first body sample up to its last (the odd segments lie between)
        bounds = np.empty((len(body), 2), dtype=np.intp)
        bounds[:, 0] = body.argmax(axis=1)
        np.subtract(n - 1, body[:, ::-1].argmax(axis=1), out=bounds[:, 1])
        bounds += np.arange(0, lines.size, n)[:, None]
        dips = np.minimum.reduceat(lines.ravel(), bounds.ravel())[0::2].reshape(len(rho), -1)
        deep = dips.astype(np.float64, copy=False) < 1e-15 * peak[:, None]
        # a line with no body sample spans its bounds and has no interior, so no node
        if deep.any():
            nodal |= (deep & body.reshape(deep.shape + (n,)).any(axis=-1)).any(axis=1)
    return nodal


def reduced_current(w: WaveField) -> list:
    """Per-axis Im(conj(psi) grad psi) = rho grad(s) / hbar: the probability current times m / hbar."""
    return [np.imag(np.conj(w.psi) * g) for g in w.grad_psi]


def phase_gradient(state: HydroState) -> list:
    """Per-axis grad(s) of a :class:`HydroState`, by the centred differences of :meth:`Grid.fd_gradient`.

    Exact for the polynomial phases of the test family away from the wrap
    cells, which carry negligible density.  Anything else is a ``TypeError``:
    a wave field's rho grad(s) is ``hbar * reduced_current(w)``, with no division by rho.
    """
    if not isinstance(state, HydroState):
        raise TypeError(f"expected a HydroState, got {type(state).__name__}")
    return state.grid.fd_gradient(state.s)
