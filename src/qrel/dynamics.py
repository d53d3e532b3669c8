"""Dual-time dynamics: the linear flow in t and its nonlinear companion in tau.

The t-flow is free Schroedinger evolution, applied exactly in Fourier
space; every t-trajectory record is produced by a single propagator
application from the initial field, so conservation columns sit at the
rounding floor.

The tau-flow integrates

    i hbar d(psi)/dtau = -(hbar^2/2m) lap(psi) + (hbar^2/m) psi lap|psi|/|psi|

with Strang splitting: half kinetic step in Fourier space, full pointwise
phase rotation by the real potential W = (hbar^2/m) lap|psi|/|psi|
(recomputed each step, floored and clamped), half kinetic step.  W is
real, so the splitting conserves the norm by construction and is second
order in the step.

Stability regularization
------------------------
Linearizing the tau-equation about any smooth background gives frequencies
omega = +-i hbar k^2 / 2m: off-manifold perturbations at relative
wavenumber k grow like exp(hbar k^2 tau / 2m).  On a spectral grid this
amplifies roundoff at the highest modes catastrophically, even though the
smooth solution itself is benign.  The integrator therefore projects each
step onto the band |k - kbar| <= k_c actually occupied by the solution
(kbar and the momentum dispersion are measured spectrally, and
k_c^2 = BAND_WIDTH_FACTOR * dk^2; for Gaussian spectra this keeps
truncation at the 1e-14 level, but not for others: see BAND_WIDTH_FACTOR),
and it accrues a noise budget B = sum (hbar k_c^2 / 2m) |dtau|, the log of
the worst-case amplification inside the band; a backward march (the sign
of its dtau is its direction) spends the budget as a forward one does.
Runs stop at NOISE_BUDGET_MAX, where the measured gap to the closed-form
Gaussian flow (:func:`qrel.oracles.gaussian_flow`) is about 1e-6, below
the 1e-5 acceptance tolerances; contracting
packets also stop at the resolution guard sigma_x2 > RESOLUTION_CELLS *
spacing^2.
Both guards mark the trajectory rather than silently degrading it.

Trajectories
------------
:func:`run_trajectories` marches a stack of fields (see :class:`Grid`)
as one: every transform, guard and record acts on all live members at
once, and each member gets bit for bit the trajectory its lone run
gives.  A member that trips a guard leaves the stack, and the others
march on.  :func:`run_trajectory` is the stack-of-one call.  The runner
consumes the fields of a run as a stream and keeps only the five of the
current stencil window alive; each field caches its transform and
gradients, which the integrator step and the record share.  Records are
written row by row into one float64 column per :class:`TrajectoryRecord`
field, and a :class:`Trajectory` reads its columns back as rows.  One
stream of a flow's fields around the initial one serves the runner and
both probes that differentiate along a flow: the uncertainty rates and
the cross-flow defect.  :func:`evolve_tau` and the probes take stacks
too, with the same discipline: each member's result is bit for bit its
lone result, and where guards trip, the first member to trip raises.
"""

import collections
import collections.abc
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import GridMismatchError, ResolutionGuardError
from .functionals import (
    _curvature_quotient,
    _per_member,
    sigma_x2,
    wave_delta_p2_q,
    wave_delta_x2,
    wave_h_q,
    wave_k_q,
    wave_s_gen,
)
from .states import HydroState, WaveField, check_nodeless_interior, phase_gradient, to_wave

#: k_c^2 in units of the measured momentum dispersion.  For a Gaussian
#: spectrum exp(-128/4) ~ 1e-14 of the spectral amplitude is discarded at
#: the band edge (1.6e-14 of the peak for sigma2=1, b=0.5, p0=2).  That
#: bound holds for Gaussian spectra only: on the two-component mixture
#: state of ROADMAP item 1 (non-Gaussian tau-flow oracle) k_c = 4.34, and
#: |psi_hat| at the sample nearest the edge is still 6.3e-5 of its peak,
#: with no guard flagging the loss.  Choosing k_c from the measured
#: spectral tail is ROADMAP item 1's work.
BAND_WIDTH_FACTOR = 128.0

#: Maximum accrued noise budget before the stability guard trips.
#: Measured on the 18-state Gaussian battery (dtau = 1e-3, tau <= 0.5): at
#: the last record of each run, the worst relative gap of delta_x2,
#: delta_p2_q, h_q and k_q to the closed-form Gaussian flow is 1.15e-6
#: (sigma2 = 0.5, b = 0, untripped), and 1.13e-6 where the guard trips
#: (sigma2 = 0.5, b = -1, at tau = 0.231); there the chirp b of the last
#: valid field is off by 2.2e-6.  The cap is a cliff, not slack: with a
#: cap of 40 the same run goes on to tau = 0.348 and b is off by 1.5e-5.
#: The dynamics suite asserts the gap on every certified battery record.
NOISE_BUDGET_MAX = 20.0

#: Clamp for the self-consistent potential, with a diagnostic counter.
W_MAX = 1e6

#: Resolution guard: sigma_x2 must stay above this many squared cells.
RESOLUTION_CELLS = 25.0


@dataclass(frozen=True)
class TrajectoryRecord:
    """One observed point of a flow, as written to trajectory tables."""

    step: int
    time: float
    h_q: float
    k_q: float
    s_gen: float
    delta_x2: float
    delta_p2_q: float
    norm: float
    continuity_residual: float


_RECORD_FIELDS = tuple(f.name for f in fields(TrajectoryRecord))


class _Rows(collections.abc.Sequence):
    """A trajectory's columns read as a sequence of :class:`TrajectoryRecord` rows."""

    def __init__(self, columns: dict):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns["step"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        row = {name: float(self._columns[name][index]) for name in _RECORD_FIELDS}
        return TrajectoryRecord(**{**row, "step": int(row["step"])})


@dataclass(frozen=True)
class Trajectory:
    """Records plus guard/clamp diagnostics for one run, stored by column.

    ``columns`` maps each :class:`TrajectoryRecord` field to a read-only
    float64 array with one entry per record; :attr:`records` reads them
    as rows.  ``final`` is the field of the last record, bit for bit the
    field that marching the initial one :attr:`last_valid_step` steps gives.
    """

    flow: str
    step: float
    columns: dict
    requested_steps: int
    guard_tripped: bool = False
    guard_reason: str = ""
    clamp_events: int = 0
    final: WaveField = None

    @property
    def records(self) -> _Rows:
        return _Rows(self.columns)

    @property
    def last_valid_step(self) -> int:
        return len(self.records) - 1

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


def _kinetic_phase(grid, hbar, mass, dt):
    return np.exp(-0.5j * hbar * grid.k_squared * dt / mass)


def evolve_t(w: WaveField, dt: float) -> WaveField:
    """Exact free propagator: each mode times exp(-i hbar k^2 dt / 2m)."""
    if dt == 0.0:
        return w
    psi = w.grid._ifftn(_kinetic_phase(w.grid, w.hbar, w.mass, dt) * w.psi_hat)
    return WaveField(grid=w.grid, psi=psi, hbar=w.hbar, mass=w.mass)


def _spectral_band(grid, psi_hat):
    """The mean wavenumber along each axis and the momentum dispersion, per member."""
    axes = grid._trailing_axes
    weights = np.abs(psi_hat) ** 2
    total = weights.sum(axis=axes)
    kbar = []
    dk2 = 0.0
    for k_ax in grid._axis_wavenumbers:
        mean = (k_ax * weights).sum(axis=axes) / total
        kbar.append(mean)
        dk2 += (((k_ax - _per_member(mean, grid)) ** 2) * weights).sum(axis=axes) / total
    return kbar, dk2


def _one_field(w: WaveField) -> WaveField:
    if w.psi.shape != w.grid.shape:
        raise GridMismatchError(f"expected one field of shape {w.grid.shape}, got psi of shape {w.psi.shape}")
    return w


def _members(w: WaveField) -> np.ndarray:
    """The indices of the members of ``w``; a lone field is a stack of one."""
    if w.psi.ndim > w.grid.dim + 1:
        raise GridMismatchError(f"a stack has one member axis, got psi of shape {w.psi.shape}")
    return np.arange(len(w.psi) if w.psi.ndim > w.grid.dim else 1)


def _raise_first(stopped: dict):
    """Raise the error of the first member a guard stopped, if any."""
    if stopped:
        raise stopped[min(stopped)]


class _TauMarcher:
    """Stateful stepper for the companion flow of a stack, with guards and diagnostics.

    ``field`` is the stack of live members and ``members`` their indices
    in the stack the marcher started from; a lone field is a stack of one
    without a member axis, so that its per-member values are scalars.  A
    member that trips a guard leaves the stack unstepped; every other
    member steps on, bit for bit as it would alone.  The guards, the
    step's transform and every observer of the field read its cache, so
    each field of a run is transformed once.  The sign of ``dtau`` is the
    direction of the march: ``_TauMarcher(w, -step)`` steps backward, and
    the noise budget accrues ``|dtau|`` either way.
    """

    def __init__(self, w: WaveField, dtau: float):
        self.grid = w.grid
        self.hbar = w.hbar
        self.mass = w.mass
        self.dtau = dtau
        if w.psi.dtype != np.complex128:
            w = WaveField(grid=w.grid, psi=w.psi.astype(complex), hbar=w.hbar, mass=w.mass)
        self.field = w
        self.members = _members(w)
        self.stacked = w.psi.ndim > w.grid.dim
        self.noise_budget = np.zeros(w.psi.shape[:1] if self.stacked else ())
        self.clamp_events = np.zeros(len(self.members), dtype=int)  # by starting index
        self.steps_done = 0
        self._guard_floor = RESOLUTION_CELLS * self.grid.spacing**2
        self._kc2_floor = 9.0 * (2.0 * math.pi / self.grid.length) ** 2
        # unmasked exp(-i hbar k^2 dtau / 4m); the band mask changes every step
        self._half_kinetic = np.exp(-0.25j * self.hbar * self.grid.k_squared * dtau / self.mass)

    def _guard_trips(self) -> dict:
        """Guard messages of the live members that trip, by position in the stack."""
        spread = sigma_x2(self.field)
        unresolved = spread <= self._guard_floor
        spent = self.noise_budget > NOISE_BUDGET_MAX
        if not (unresolved | spent).any():
            return {}
        trips = {}
        for i in np.flatnonzero(unresolved):
            trips[i] = (f"resolution guard: sigma_x2 fell to {np.ravel(spread)[i]:.3e} <= "
                        f"{self._guard_floor:.3e} after {self.steps_done} steps")
        for i in np.flatnonzero(spent):
            trips.setdefault(i, f"stability guard: noise budget {np.ravel(self.noise_budget)[i]:.1f} "
                                f"exceeded {NOISE_BUDGET_MAX:g} after {self.steps_done} steps")
        return trips

    def step(self) -> dict:
        """One Strang step of size dtau for every live member, guards checked first.

        Returns the members the guards stopped, by starting index, each
        with the :class:`ResolutionGuardError` its lone run raises.  A
        member with an interior node raises for the whole stack.
        """
        stopped = {}
        trips = self._guard_trips()
        if trips:
            keep = np.ones(len(self.members), dtype=bool)
            keep[list(trips)] = False
            for i, message in trips.items():
                member = int(self.members[i])
                stopped[member] = ResolutionGuardError(
                    message, steps_completed=self.steps_done, member=member,
                    wavefield=self.field.take(i) if self.stacked else self.field)
            self.members = self.members[keep]
            if not self.members.size:
                return stopped
            self.field = self.field.take(keep)
            self.noise_budget = self.noise_budget[keep]
        check_nodeless_interior(self.field)

        half_kin = self._band_half_kinetic()
        psi = self._rotate(self.grid._ifftn(self.field.psi_hat * half_kin))
        psi = self.grid._ifftn(self.grid._fftn(psi) * half_kin)
        self.field = WaveField(grid=self.grid, psi=psi, hbar=self.hbar, mass=self.mass)
        self.steps_done += 1
        return stopped

    def _band_half_kinetic(self) -> np.ndarray:
        """The half kinetic step on each member's band |k - kbar| <= k_c, zero outside.

        Accrues each member's noise budget for the band.  (The helpers of
        :meth:`step` keep its temporaries alive no longer than they are used.)
        """
        kbar, dk2 = _spectral_band(self.grid, self.field.psi_hat)
        kc2 = np.maximum(BAND_WIDTH_FACTOR * dk2, self._kc2_floor)
        kc2 = np.minimum(kc2, (0.95 * math.pi / self.grid.spacing) ** 2)
        krel2 = sum((k - _per_member(mean, self.grid)) ** 2
                    for k, mean in zip(self.grid._axis_wavenumbers, kbar, strict=True))
        self.noise_budget += 0.5 * self.hbar * kc2 * abs(self.dtau) / self.mass
        return self._half_kinetic * (krel2 <= _per_member(kc2, self.grid))

    def _rotate(self, psi: np.ndarray) -> np.ndarray:
        """The pointwise phase rotation by the clamped potential W, counting clamp events."""
        W = (self.hbar**2 / self.mass) * _curvature_quotient(self.grid, np.abs(psi))
        clipped = np.abs(W) > W_MAX
        if clipped.any():
            self.clamp_events[self.members] += clipped.sum(axis=self.grid._trailing_axes)
            W = np.clip(W, -W_MAX, W_MAX)
        return psi * np.exp(-1j * W * self.dtau / self.hbar)


def evolve_tau(w: WaveField, dtau: float, steps: int = 1) -> WaveField:
    """Integrate the companion flow for ``steps`` Strang steps of ``dtau``.

    ``w`` is one field or a stack with one member axis; the members march
    as one, each bit for bit as it would alone.  A negative ``dtau``
    integrates backward, under the same guards.

    Raises :class:`ResolutionGuardError` when a guard trips for any
    member: the first to trip (the lowest index among those tripping at
    once) raises the error its lone run raises, which carries the
    completed step count, the member's last valid field and its index.
    """
    if dtau == 0.0 or steps == 0:
        return w
    marcher = _TauMarcher(w, dtau)
    for _ in range(steps):
        _raise_first(marcher.step())
    return marcher.field


# ---------------------------------------------------------------------------
# hydrodynamic form


def _check_flow(flow: str):
    if flow not in ("t", "tau"):
        raise ValueError(f"flow must be 't' or 'tau', got {flow!r}")


def hydro_rhs(state: HydroState, flow: str) -> tuple:
    """Continuity and (quantum) Hamilton-Jacobi right-hand sides.

    Both flows share d(rho) = -div(rho grad s / m); the phase equation is
    d(s) = -|grad s|^2/2m + sign (hbar^2/2m) lap(sqrt rho)/sqrt(rho) with
    sign +1 for the t-flow and -1 for the tau-flow (the companion flow
    differs only by the sign of the quantum potential).
    """
    _check_flow(flow)
    grads = phase_gradient(state)
    flux = [state.rho * g / state.mass for g in grads]
    drho = -state.grid.divergence(flux)
    sign = 1.0 if flow == "t" else -1.0
    ds = -sum(g**2 for g in grads) / (2.0 * state.mass) \
        + sign * (state.hbar**2 / (2.0 * state.mass)) * _curvature_quotient(state.grid, state.sqrt_rho)
    return drho, ds


# ---------------------------------------------------------------------------
# trajectories


#: Fields a record needs: its own and two on each side for the stencil.
_STENCIL_WIDTH = 5


def _centered_rate(window, step: float):
    """4th-order centered d/dtheta at the middle of five samples ``step`` apart."""
    return (-window[4] + 8.0 * window[3] - 8.0 * window[1] + window[0]) / (12.0 * step)


def _stencil_residual(rhos, w, dstep):
    """4th-order centered d(rho)/dtheta plus div(flux) at ``w``, max-normalized per member.

    ``rhos`` are the densities of the five stencil fields, ``w`` the middle one.
    """
    drho = _centered_rate(rhos, dstep)
    flux = [w.hbar * np.imag(np.conj(w.psi) * g) / w.mass for g in w.grad_psi]
    resid = drho + w.grid.divergence(flux)
    axes = w.grid._trailing_axes
    return np.abs(resid).max(axis=axes) / w.rho.max(axis=axes)


def _flow_fields(w0: WaveField, flow: str, step: float, back: int, ahead: int):
    """Stacked fields of a flow at indices -back..ahead, and the forward tau-marcher.

    The stream yields (field, stopped) pairs: ``stopped`` maps the
    starting index of each member a guard stopped just before this field
    to its error, and the field holds the members still live.  Each
    t-flow field is one propagator application from w0, no member stops,
    and the marcher is None.  The backward tau-steps run at once, so a
    guard trip there raises from this call; the forward fields are
    generated lazily, and the stream ends early once no member is left.
    A flow name other than "t" or "tau" is refused.
    """
    _check_flow(flow)
    if flow == "t":
        return ((evolve_t(w0, step * j), {}) for j in range(-back, ahead + 1)), None
    # a field of the run's own, so that its caches stay off the caller's w0; the
    # stream holds each field only until it has been yielded
    w0 = WaveField(grid=w0.grid, psi=w0.psi, hbar=w0.hbar, mass=w0.mass)
    behind = _TauMarcher(w0, -step)
    earlier = [(w0, {})]
    for _ in range(back):
        _raise_first(behind.step())
        earlier.append((behind.field, {}))
    marcher = _TauMarcher(w0, step)

    def stream():
        while earlier:
            yield earlier.pop()
        for _ in range(ahead):
            stopped = marcher.step()
            yield marcher.field, stopped
            if not marcher.members.size:
                return

    return stream(), marcher


def _probe_fields(w: WaveField, flow: str, step: float, probe: str) -> tuple:
    """The fields one step before and one step after ``w`` along a flow, for a probe of ``w``.

    ``w`` may be a stack.  A guard trip, on either side, is raised in one
    shape: a :class:`ResolutionGuardError` naming the probe, with no
    completed steps, and the first member to trip with its field as it
    was given (``w`` itself for a lone field).
    """
    try:
        stream, _ = _flow_fields(w, flow, step, 1, 1)
        out = []
        for field, stopped in stream:
            _raise_first(stopped)
            out.append(field)
        return out[0], out[2]
    except ResolutionGuardError as err:
        raise ResolutionGuardError(f"guard tripped while probing {probe}: {err}", steps_completed=0,
                                   wavefield=w.take(err.member) if w.psi.ndim > w.grid.dim else w,
                                   member=err.member) from err


def _write_record(columns: dict, where, j: int, step: float, rhos, w: WaveField, convention: str):
    """Row ``j`` of every live member's observable columns, from the fields ``w`` at index j.

    ``rhos`` are the densities of the stencil around ``w``.  The step and
    time columns follow from the row index and are built once a run ends.
    """
    row = {
        "h_q": wave_h_q(w),
        "k_q": wave_k_q(w),
        "s_gen": wave_s_gen(w),
        "delta_x2": wave_delta_x2(w, convention),
        "delta_p2_q": wave_delta_p2_q(w),
        "norm": w.norm,
        "continuity_residual": _stencil_residual(rhos, w, step),
    }
    for name, value in row.items():
        columns[name][where, j] = value


def run_trajectories(w0: WaveField, flow: str, step: float, steps: int,
                     convention: str = "consistent") -> list:
    """Integrate every member of the stack ``w0`` and return one trajectory per member.

    ``w0`` holds one member axis before the grid axes, or none: a lone
    field is a stack of one.  The members march as one stack, and each
    member's trajectory equals, bit for bit, the one
    :func:`run_trajectory` gives it alone.  The runner integrates two
    helper steps beyond each end of the reporting window so every emitted
    record carries a 4th-order centered continuity residual.  Fields are
    consumed as a stream: a row of records is written as soon as its
    window of five fields is complete, and only the densities of those
    five, with the fields from the middle one on, are kept alive.  If a
    tau-flow guard trips for a member, that member's window shrinks to
    its certified part, its trajectory is marked, and it leaves the
    stack.  A member that trips before its first record raises the error
    its lone run raises; where several do, the first to trip (the lowest
    index among those tripping at once) decides.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step!r}")
    count = len(_members(w0))
    columns = {name: np.empty((count, steps + 1)) for name in _RECORD_FIELDS if name not in ("step", "time")}
    finals = np.empty((count, *w0.grid.shape), dtype=complex)  # the field of each member's last record
    lengths = np.zeros(count, dtype=int)  # records written per member
    rows = 0
    reasons = [""] * count
    live = np.arange(count)
    where = slice(None)  # the live members' rows of the columns: all of them until a trip
    fields, marcher = _flow_fields(w0, flow, step, 2, steps + 2)
    # the window: the densities of the stencil, and the fields from its middle on,
    # each dropped once its record is written
    rhos = collections.deque(maxlen=_STENCIL_WIDTH)
    pending = collections.deque(maxlen=_STENCIL_WIDTH // 2 + 1)
    for w, stopped in fields:
        if stopped:
            for i, err in sorted(stopped.items()):
                if not lengths[i]:
                    raise ResolutionGuardError(
                        f"guard tripped before any record could be certified: {err}",
                        steps_completed=err.steps_completed, wavefield=err.wavefield, member=i) from err
                reasons[i] = str(err)
            keep = ~np.isin(live, list(stopped))
            live = where = live[keep]
            if not live.size:
                break
            rhos = collections.deque((r[keep] for r in rhos), maxlen=rhos.maxlen)
            pending = collections.deque((f.take(keep) for f in pending), maxlen=pending.maxlen)
        rhos.append(w.rho)
        pending.append(w)
        if len(rhos) == _STENCIL_WIDTH:
            middle = pending.popleft()
            _write_record(columns, where, rows, step, rhos, middle, convention)
            finals[where] = middle.psi
            rows += 1
            lengths[where] = rows
    clamps = marcher.clamp_events if marcher else np.zeros(count, dtype=int)
    trajectories = []
    for i, length in enumerate(lengths):
        index = np.arange(length, dtype=float)
        member = {"step": index, "time": index * step, **{name: block[i, :length] for name, block in columns.items()}}
        for column in member.values():
            column.setflags(write=False)
        trajectories.append(Trajectory(flow=flow, step=step, requested_steps=steps,
                                       columns={name: member[name] for name in _RECORD_FIELDS},
                                       guard_tripped=bool(reasons[i]), guard_reason=reasons[i],
                                       clamp_events=int(clamps[i]),
                                       final=WaveField(grid=w0.grid, psi=finals[i], hbar=w0.hbar, mass=w0.mass)))
    return trajectories


def run_trajectory(w0: WaveField, flow: str, step: float, steps: int,
                   convention: str = "consistent") -> Trajectory:
    """Integrate one field and return per-step records: :func:`run_trajectories` of a stack of one."""
    return run_trajectories(_one_field(w0), flow, step, steps, convention)[0]


def measured_rates(values, step: float) -> np.ndarray:
    """4th-order centered d/dtheta of a record column (interior points)."""
    v = np.asarray(values, dtype=float)
    return _centered_rate([v[j:j - 4 or None] for j in range(5)], step)


# ---------------------------------------------------------------------------
# derived probes


def _as_wave(obj) -> WaveField:
    return obj if isinstance(obj, WaveField) else to_wave(obj)


def uncertainty_rates(state, flow: str, dstep: float = 1e-4) -> tuple:
    """Centered rates of (delta_x2, delta_p2_q) along a flow.

    One Richardson refinement of the centered difference (steps dstep and
    dstep/2) absorbs the leading truncation term.  A lone state gives two
    floats; a stack gives two arrays with one rate per member, each bit for
    bit the member's lone rate.
    """
    w = _as_wave(state)

    def centered(d):
        minus, plus = _probe_fields(w, flow, d, "uncertainty rates")
        return ((wave_delta_x2(plus) - wave_delta_x2(minus)) / (2.0 * d),
                (wave_delta_p2_q(plus) - wave_delta_p2_q(minus)) / (2.0 * d))

    coarse, fine = centered(dstep), centered(0.5 * dstep)
    return tuple((4.0 * f - c) / 3.0 for f, c in zip(fine, coarse, strict=True))


def cross_flow_defect(state, dstep: float = 2e-4) -> tuple:
    """d(k_q)/dt along the t-flow plus d(h_q)/dtau along the tau-flow.

    The holomorphy of the generator pair in the combined time plane makes
    the sum vanish; returns (dk_dt, dh_dtau, defect), per member for a stack.
    """
    w = _as_wave(state)
    tm, tp = _probe_fields(w, "t", dstep, "the cross-flow defect")
    dk_dt = (wave_k_q(tp) - wave_k_q(tm)) / (2.0 * dstep)
    um, up = _probe_fields(w, "tau", dstep, "the cross-flow defect")
    dh_dtau = (wave_h_q(up) - wave_h_q(um)) / (2.0 * dstep)
    return dk_dt, dh_dtau, dk_dt + dh_dtau


def inner_product(w1: WaveField, w2: WaveField) -> complex:
    """quadrature(conj(psi1) psi2): the nonunitarity probe of the tau-flow."""
    return w1.grid.quadrature(np.conj(w1.psi) * w2.psi)
