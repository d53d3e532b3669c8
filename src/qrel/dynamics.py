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

The march (:func:`_tau_fields`) is one generator.  A step's band and
first half kick come from the band-limited spectrum the previous step
ended with (the transform of the starting field before the first step),
and one inverse transform call makes both the field, from that spectrum,
and the next step's first half kick back in position space.  So a step
makes four transforms: the pair for the Laplacian of |psi| in W, the
forward one after the rotation, and that joint inverse (the first step
of a march makes one more, for its own first half kick).  The band's
moments and the resolution guard's sigma_x2 are each one matrix product
per member against a table the grid caches.  The march runs ahead of its
caller in blocks of fields, each marched into the rows of one buffer
with its densities in one array, so that sigma_x2 and the nodeless check
each read a whole block's densities in one call.  A record's phase
(``WaveField.s``, which s_gen reads) is summed from the principal
increments between neighbouring samples outward from the box center, so
no 2 pi jump enters where psi is at the rounding floor.

Trajectories
------------
:func:`run_trajectories` marches a stack of fields (see :class:`Grid`)
as one: every transform, guard and record acts on all live members at
once, and each member gets bit for bit the trajectory its lone run
gives.  A member that trips a guard leaves the stack, and the others
march on.  :func:`run_trajectory` is the stack-of-one call.  The runner
consumes the fields of a run as a stream and builds records in blocks:
once the stencils of a block of consecutive fields are complete, their
records are evaluated at once on the C-contiguous stack of those fields
(a record axis before the member axis), each row bit for bit the record
its field gives alone.  A block holds RECORD_BLOCK_FIELDS fields, fewer
where that would pass RECORD_BLOCK_SAMPLES samples, and at least one:
16 fields for a lone run at n = 512, 7 while all 18 battery members are
live, one for a 2-D field at n = 256, stacked on its record axis all the
same.  Every operator a record applies treats each row of the stack as
it treats a lone field (the phase increments too: see
``states._increments_from_center``), so a block's size never moves a
record's bits.  Records are written
block by block into one float64 column per :class:`TrajectoryRecord`
field, and a :class:`Trajectory` builds its rows from the columns once,
when they are first read.  A record's ``delta_x2`` is the self-consistent
dispersion; the trajectory table (:func:`qrel.report.trajectory_csv`)
chooses how to report it.  The probes that differentiate along a flow
(the uncertainty rates and the cross-flow defect) march one step each
way with :func:`evolve_t` or :func:`evolve_tau`.
:func:`evolve_tau` and the probes take stacks too, with the same
discipline: each member's result is bit for bit its lone result, and
where guards trip, the first member to trip raises.
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import GridMismatchError, ResolutionGuardError
from .functionals import (
    FunctionalTag,
    _curvature_quotient,
    _per_member,
    _position_variance,
    _record_observables,
    variational_derivative,
    wave_delta_p2_q,
    wave_delta_x2,
    wave_h_q,
    wave_k_q,
    wave_s_gen,
)
from .states import HydroState, WaveField, _nodal_members, _refuse_nodal, phase_gradient, reduced_current, to_wave

#: k_c^2 in units of the measured momentum dispersion.  For a Gaussian
#: spectrum exp(-128/4) ~ 1e-14 of the spectral amplitude is discarded at
#: the band edge (1.6e-14 of the peak for sigma2=1, b=0.5, p0=2).  That
#: bound holds for Gaussian spectra only: on the two-component mixture
#: state of ROADMAP item 2 (non-Gaussian tau-flow oracle) k_c = 4.34, and
#: |psi_hat| at the sample nearest the edge is still 6.3e-5 of its peak,
#: with no guard flagging the loss.  Choosing k_c from the measured
#: spectral tail is ROADMAP item 2's work.
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


@dataclass(frozen=True)
class Trajectory:
    """Records plus guard/clamp diagnostics for one run, stored by column.

    ``columns`` maps each :class:`TrajectoryRecord` field, in field order,
    to a read-only float64 array with one entry per record; :attr:`records`
    is the tuple of their rows, built on first read.  ``final`` is the
    field of the last record, bit for bit the field that marching the
    initial one :attr:`last_valid_step` steps gives.
    """

    flow: str
    step: float
    columns: dict
    requested_steps: int
    guard_reason: str
    clamp_events: int
    final: WaveField

    @property
    def guard_tripped(self) -> bool:
        return bool(self.guard_reason)

    @cached_property
    def records(self) -> tuple:
        return tuple(TrajectoryRecord(int(step), *rest)
                     for step, *rest in zip(*(self.columns[name].tolist() for name in _RECORD_FIELDS)))

    @property
    def last_valid_step(self) -> int:
        return len(self.columns["step"]) - 1

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


def _tau_fields(w: WaveField, dtau: float, steps: int, clamp_events=None):
    """The companion flow of ``w``, ``steps`` Strang steps of ``dtau``, as (field, stopped) pairs.

    ``w`` is one field or a stack with one member axis.  Each pair holds
    the field after one more step, over the members still live, and
    ``stopped``, which maps the starting index of each member a guard
    stopped before that step to the :class:`ResolutionGuardError` its lone
    run raises.  The guards check each field before it is stepped: a
    member that trips leaves the stack unstepped, and every other member
    steps on, bit for bit as it would alone.  The march ends after
    ``steps`` pairs, or after the pair that stops the last live member,
    whose field is the one handed out before; a live member with an
    interior node raises for the whole stack.  The sign of ``dtau`` is the
    direction of the march, and the noise budget accrues ``|dtau|`` either
    way.  ``clamp_events``, if given, gains each step's clamp events by
    starting index.

    The march runs in blocks of min(RECORD_BLOCK_FIELDS, max(1,
    RECORD_BLOCK_SAMPLES // (live members * grid.size))) steps, no more
    than are left, and a step that takes a member's noise budget past
    NOISE_BUDGET_MAX ends its block; a block from which every live
    member's spent budget stops it at once is not marched, and its guards
    read only the density it would start from.  A block is marched into
    one C-ordered buffer of count + 1 rows: row j holds step j's first
    half kick, then its spectrum, and one inverse transform call turns
    rows j and j + 1 into step j's field and the next step's first half
    kick.  The block's densities are one array whose first row is the
    density of the field before the block: the resolution guard and the
    nodeless check each read its first count rows in one call, and each
    field keeps its own row as its ``rho``.  Whatever a block marched past
    a member's stop (its fields, clamp events and budget) is dropped.  A
    field's own ``psi_hat`` cache stays the transform of its psi, computed
    only if an observer reads it, so records match fresh fields bit for
    bit.
    """
    grid = w.grid
    if w.psi.dtype != np.complex128:
        w = WaveField(grid=grid, psi=w.psi.astype(complex), hbar=w.hbar, mass=w.mass)
    members = _members(w)
    budget = np.zeros(w.psi.shape[:w.psi.ndim - grid.dim])  # by live member
    floor = RESOLUTION_CELLS * grid.spacing**2
    rate = 0.5 * w.hbar * abs(dtau) / w.mass
    # the free propagator over half a step, unmasked; the band mask changes every step
    half_kinetic = _kinetic_phase(grid, w.hbar, w.mass, 0.5 * dtau)
    # the first step's first half kick, back in position space, with its band mask and k_c^2
    half_kin, kc2 = _band_half_kinetic(grid, w.psi_hat, half_kinetic)
    kick = w.psi_hat * half_kin
    grid._ifftn(kick, out=kick)
    field, rho_before, done = w, w.rho, 0
    while done < steps:
        live = members.size
        count = min(RECORD_BLOCK_FIELDS, max(1, RECORD_BLOCK_SAMPLES // (live * grid.size)), steps - done)
        budgets, clamps = [budget], []
        if (budget > NOISE_BUDGET_MAX).all():
            # every live member's spent budget stops it at the field the block starts from:
            # the guards read that field's density, and no step is marched
            count, rho = 1, rho_before[np.newaxis]
        else:
            buf = np.empty((count + 1,) + kick.shape, dtype=complex)
            for j in range(count):
                budgets.append(budgets[-1] + rate * kc2)
                clamps.append(_rotate(w, kick, dtau, out=buf[j]))
                spectrum = grid._fftn(buf[j], out=buf[j])
                spectrum *= half_kin
                if done + j + 1 < steps:
                    half_kin, kc2 = _band_half_kinetic(grid, spectrum, half_kinetic)
                    np.multiply(spectrum, half_kin, out=buf[j + 1])
                    grid._ifftn(buf[j:j + 2], out=buf[j:j + 2])
                else:
                    grid._ifftn(spectrum, out=spectrum)
                kick = buf[j + 1]
                if (budgets[-1] > NOISE_BUDGET_MAX).any():
                    count = j + 1
                    break
            rho = np.empty((count + 1,) + rho_before.shape)
            rho[0] = rho_before
            np.square(np.abs(buf[:count], out=rho[1:]), out=rho[1:])
            rho.setflags(write=False)
        # the guards' verdicts on the field each step of the block starts from
        spread = np.reshape(_position_variance(grid, rho[:count]), (count, live))
        budgets = np.array(budgets)  # the budget before each step, and after the last step marched
        unresolved = spread <= floor
        spent = np.reshape(budgets[:count], (count, live)) > NOISE_BUDGET_MAX
        nodal = _nodal_members(grid, rho[:count]).reshape(count, live)
        events = (unresolved | spent | nodal).any(axis=1).tolist()
        alive, everyone = np.ones(live, dtype=bool), True
        for j in range(count):
            stopped = {}
            if events[j]:
                trips = alive & (unresolved[j] | spent[j])
                for i in np.flatnonzero(trips):
                    member = int(members[i])
                    if unresolved[j, i]:
                        message = (f"resolution guard: sigma_x2 fell to {spread[j, i]:.3e} <= "
                                   f"{floor:.3e} after {done} steps")
                    else:
                        message = (f"stability guard: noise budget {np.ravel(budgets[j])[i]:.17g} "
                                   f"exceeded {NOISE_BUDGET_MAX:g} after {done} steps")
                    stopped[member] = ResolutionGuardError(message, steps_completed=done, member=member)
                alive &= ~trips
                everyone = bool(alive.all())
                if not alive.any():
                    yield field, stopped
                    return
                _refuse_nodal(nodal[j] & alive)
            if everyone:
                field = WaveField._adopt(field, buf[j], rho[j + 1])
            else:
                field = WaveField._adopt(field, buf[j][alive], rho[j + 1][alive])
            if clamp_events is not None and clamps[j] is not None:
                clamp_events[members[alive]] += clamps[j][alive]
            done += 1
            yield field, stopped
        budget, rho_before = budgets[count], rho[count]
        if not everyone:
            members, budget, rho_before = members[alive], budget[alive], rho_before[alive]
            kick, half_kin, kc2 = kick[alive], half_kin[alive], kc2[alive]


def _band_half_kinetic(grid, spectrum: np.ndarray, half_kinetic: np.ndarray) -> tuple:
    """The half kinetic step ``half_kinetic`` on each member's band |k - kbar| <= k_c, zero outside, and k_c^2.

    kbar and the momentum dispersion dk2 come from the moments of
    |spectrum|^2 against 1, k and |k|^2.
    """
    parts = spectrum.view(np.float64)
    m = grid._moments(parts * parts, grid._spectral_moment_table)
    m = m / m[..., :1]
    kbar = m[..., 1:-1]
    dk2 = m[..., -1] - (kbar * kbar).sum(axis=-1)
    kc2_floor = 9.0 * (2.0 * math.pi / grid.length) ** 2
    kc2_cap = (0.95 * math.pi / grid.spacing) ** 2
    kc2 = np.minimum(np.maximum(BAND_WIDTH_FACTOR * dk2, kc2_floor), kc2_cap)
    return half_kinetic * (_distance2(grid, kbar) <= _per_member(kc2, grid)), kc2


def _rotate(w: WaveField, psi: np.ndarray, dtau: float, out: np.ndarray):
    """Rotate the phase of ``psi`` pointwise by the clamped potential W, into ``out``.

    ``w`` gives the grid and units.  Returns each member's clamp events, or
    None where no sample was clamped.
    """
    W = (w.hbar**2 / w.mass) * _curvature_quotient(w.grid, np.abs(psi))
    clipped = np.abs(W) > W_MAX
    events = None
    if clipped.any():
        events = np.ravel(clipped.sum(axis=w.grid._trailing_axes))
        W = np.clip(W, -W_MAX, W_MAX)
    # exp(-i W dtau / hbar), from the cosine and sine of the real angle
    angle = W * (-dtau / w.hbar)
    rotation = np.empty(psi.shape, dtype=complex)
    np.cos(angle, out=rotation.real)
    np.sin(angle, out=rotation.imag)
    np.multiply(psi, rotation, out=out)
    return events


def _distance2(grid, kbar: np.ndarray) -> np.ndarray:
    """|k - kbar|^2 on every mode of ``grid``, for each member's mean wavenumber ``kbar`` (one per axis).

    Summed axis by axis from the grid's per-axis wavenumbers, first axis
    first, as a sum over a trailing axis of the dim differences adds them,
    so no table of every mode's wavenumber vector is built.
    """
    total = 0.0
    for ax, k in enumerate(grid._axis_wavenumbers):
        d = k - _per_member(kbar[..., ax], grid)
        total = total + d * d
    return total


def _check_steps(steps):
    # a count of steps: an integer (not a bool), and 0 or more
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError(f"steps must be a non-negative integer, got {steps!r}")


def evolve_tau(w: WaveField, dtau: float, steps: int = 1) -> WaveField:
    """Integrate the companion flow for ``steps`` Strang steps of ``dtau``.

    ``w`` is one field or a stack with one member axis; the members march
    as one, each bit for bit as it would alone.  A negative ``dtau``
    integrates backward, under the same guards.  A negative or
    non-integer ``steps`` is refused with a ``ValueError``.

    Raises :class:`ResolutionGuardError` when a guard trips for any
    member: the first to trip (the lowest index among those tripping at
    once) raises the error its lone run raises, which carries the
    completed step count and the member's index.
    """
    _check_steps(steps)
    if dtau == 0.0 or steps == 0:
        return w
    for w, stopped in _tau_fields(w, dtau, steps):
        _raise_first(stopped)
    return w


# ---------------------------------------------------------------------------
# hydrodynamic form


#: The flow names, each with the functional that generates it: H_q the t-flow, K_q the tau-flow.
FLOWS = {"t": FunctionalTag.H_Q, "tau": FunctionalTag.K_Q}


def _check_flow(flow: str):
    if flow not in FLOWS:
        raise ValueError(f"flow must be 't' or 'tau', got {flow!r}")


def hydro_rhs(state: HydroState, flow: str) -> tuple:
    """Continuity and (quantum) Hamilton-Jacobi right-hand sides.

    Both flows share d(rho) = -div(rho grad s / m), with the spectral
    divergence.  The phase equation is Hamilton's, d(s) = -delta G/delta rho
    (:func:`~qrel.functionals.variational_derivative`) for the flow's
    generator G = ``FLOWS[flow]``, so it refuses an interior node as that does.
    """
    _check_flow(flow)
    ds = -variational_derivative(FLOWS[flow], state, "rho")
    drho = -state.grid.divergence([state.rho * g / state.mass for g in phase_gradient(state)])
    return drho, ds


# ---------------------------------------------------------------------------
# trajectories


#: Fields a record needs: its own and two on each side for the stencil.
_STENCIL_WIDTH = 5

#: Fields and samples a block of records holds: the runner evaluates the
#: records of min(RECORD_BLOCK_FIELDS, max(1, RECORD_BLOCK_SAMPLES //
#: (live members * grid.size))) consecutive fields at once, and the
#: tau-march runs ahead by the same rule (:func:`_tau_fields`).  Records
#: are bound by per-call overhead on small arrays, so longer blocks are faster
#: until the gain levels off, while every buffered field costs memory.
#: Measured on the 18 lone 500-step tau-runs of a seeded battery at n = 512
#: (2-core Xeon VM, numpy 2.4, medians of three interleaved passes): about
#: 1,600, 2,400, 2,600, 2,550 and 2,600 records/s at 1, 8, 16, 32 and 64
#: fields per block; the traced peak of one run was 0.14, 0.78, 1.43, 2.68
#: and 5.20 MiB.  The dynamics suite's stacked march of the 18-member
#: battery (500 steps, same VM, min of 5 in process, traced peak of one):
#:
#:     fields per block     1        3        7        14
#:     march time           0.668 s  0.572 s  0.546 s  0.563 s
#:     traced peak          3.1 MiB  5.5 MiB  9.9 MiB  17.8 MiB
#:
#: So a lone run at n = 512 takes 16 fields, where its gain has levelled
#: off, and the battery takes 7 while all its members are live: the sample
#: cap keeps its traced peak near 10 MiB, and 14 fields gain no more.
RECORD_BLOCK_FIELDS = 16
RECORD_BLOCK_SAMPLES = 2**16


def _centered_rate(window, step: float):
    """4th-order centered d/dtheta at the middle of five samples ``step`` apart."""
    return (-window[4] + 8.0 * window[3] - 8.0 * window[1] + window[0]) / (12.0 * step)


def _stencil_residual(rhos, w, dstep):
    """4th-order centered d(rho)/dtheta plus div(flux) at ``w``, max-normalized per member.

    ``rhos`` are the densities of the five stencil fields and ``w`` the
    middle one; for a block of records, five blocks of densities one field
    apart and the block of middle fields.
    """
    drho = _centered_rate(rhos, dstep)
    flux = [w.hbar * j / w.mass for j in reduced_current(w)]
    resid = drho + w.grid.divergence(flux)
    axes = w.grid._trailing_axes
    return np.abs(resid).max(axis=axes) / w.rho.max(axis=axes)


def _flow_fields(w0: WaveField, flow: str, step: float, ahead: int):
    """Stacked fields of a flow at indices -2..ahead (the runner's stencil), and each member's clamp events.

    The stream yields (field, stopped) pairs: ``stopped`` maps the
    starting index of each member a guard stopped just before this field
    to its error, and the field holds the members still live.  Each
    t-flow field is one propagator application from w0, no member stops,
    and no clamp is counted.  The backward tau-steps run at once, so a
    guard trip there raises from this call; the forward fields are
    generated lazily (see :func:`_tau_fields`), and the stream ends early
    once no member is left.  The clamp events, by starting index, count
    the forward steps the stream has handed out.  A flow name other than
    "t" or "tau" is refused.
    """
    _check_flow(flow)
    back = _STENCIL_WIDTH // 2
    clamps = np.zeros(len(_members(w0)), dtype=int)
    if flow == "t":
        return ((evolve_t(w0, step * j), {}) for j in range(-back, ahead + 1)), clamps
    # a field of the run's own, so that its caches stay off the caller's w0
    w0 = WaveField(grid=w0.grid, psi=w0.psi, hbar=w0.hbar, mass=w0.mass)
    earlier = [w0]
    for w, stopped in _tau_fields(w0, -step, back):
        _raise_first(stopped)
        earlier.append(w)
    return chain(((w, {}) for w in reversed(earlier)), _tau_fields(w0, step, ahead, clamps)), clamps


def _probe_fields(w: WaveField, flow: str, step: float, probe: str) -> tuple:
    """The fields one step before and one step after ``w`` along a flow, for a probe of ``w``.

    ``w`` may be a stack.  A guard trip, on either side, is raised in one
    shape: a :class:`ResolutionGuardError` naming the probe, with no
    completed steps, and the index of the first member to trip.
    """
    _check_flow(flow)
    march = evolve_t if flow == "t" else evolve_tau
    try:
        return march(w, -step), march(w, step)
    except ResolutionGuardError as err:
        raise ResolutionGuardError(f"guard tripped while probing {probe}: {err}", steps_completed=0,
                                   member=err.member) from err


def _write_records(columns: dict, live, row: int, step: float, rhos: list, fields: list):
    """Rows ``row`` on of the ``live`` members' observable columns, one for each of ``fields``.

    ``fields`` are consecutive fields of a run and ``rhos`` the densities
    from two fields before the first to two after the last.  Their records
    are evaluated at once on the C-contiguous stack of the fields, one
    record axis before the member axis (a block of one field too), so each
    row is bit for bit the record its field gives alone; the stack's
    density is the fields' rows of the stacked ``rhos``, not computed
    again.  The step and time columns follow from the row index and are
    built once a run ends.
    """
    k = len(fields)
    densities = np.stack(rhos)
    densities.setflags(write=False)
    back = _STENCIL_WIDTH // 2
    w = WaveField._adopt(fields[0], np.stack([f.psi for f in fields]), densities[back:back + k])
    window = [densities[d:d + k] for d in range(_STENCIL_WIDTH)]
    values = {
        **_record_observables(w),
        "s_gen": wave_s_gen(w),
        "norm": w.norm,
        "continuity_residual": _stencil_residual(window, w, step),
    }
    for name, value in values.items():
        columns[name][live, row:row + k] = np.reshape(value, (k, -1)).T


def run_trajectories(w0: WaveField, flow: str, step: float, steps: int) -> list:
    """Integrate every member of the stack ``w0`` and return one trajectory per member.

    ``w0`` holds one member axis before the grid axes, or none: a lone
    field is a stack of one.  The members march as one stack, and each
    member's trajectory equals, bit for bit, the one
    :func:`run_trajectory` gives it alone.  The runner integrates two
    helper steps beyond each end of the reporting window so every emitted
    record carries a 4th-order centered continuity residual.  Fields are
    consumed as a stream and buffered until the stencils of a block of
    consecutive fields (see RECORD_BLOCK_FIELDS) are complete; the block's
    records are then written at once, and only the fields from the next
    record's on, with the densities of the two before, are kept alive.
    If a tau-flow guard trips for a member, the records whose stencils
    are complete are written first, so that member's window shrinks to its
    certified part; its trajectory is marked, and it leaves the stack.  A
    member that trips before its first record raises the error its lone
    run raises; where several do, the first to trip (the lowest index
    among those tripping at once) decides.
    A nonpositive ``step`` and a negative or non-integer ``steps`` are
    refused with a ``ValueError``.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step!r}")
    _check_steps(steps)
    count = len(_members(w0))
    columns = {name: np.empty((count, steps + 1)) for name in _RECORD_FIELDS}
    finals = np.empty((count, *w0.grid.shape), dtype=complex)  # the field of each member's last record
    lengths = np.zeros(count, dtype=int)  # records written per member
    rows = 0
    reasons = [""] * count
    live = np.arange(count)
    back = _STENCIL_WIDTH // 2
    fields, clamps = _flow_fields(w0, flow, step, steps + 2)
    # the buffer: the fields from the next record's on, and their densities from two fields before
    pending, rhos = [], []

    def flush():
        # write the records whose stencils are complete, as one block
        nonlocal rows
        k = len(pending) - back
        if k <= 0:
            return
        _write_records(columns, live, rows, step, rhos[:k + 2 * back], pending[:k])
        finals[live] = pending[k - 1].psi
        rows += k
        lengths[live] = rows
        del pending[:k], rhos[:k]

    for j, (w, stopped) in enumerate(fields, start=-back):
        if stopped:
            flush()  # while the tripping members are still in the stack
            for i, err in sorted(stopped.items()):
                if not lengths[i]:
                    raise ResolutionGuardError(
                        f"guard tripped before any record could be certified: {err}",
                        steps_completed=err.steps_completed, member=i) from err
                reasons[i] = str(err)
            keep = ~np.isin(live, list(stopped))
            live = live[keep]
            if not live.size:
                break
            pending[:] = [f.take(keep) for f in pending]
            rhos[:] = [r[keep] for r in rhos]
        rhos.append(w.rho)
        if j >= 0:
            pending.append(w)
        block = min(RECORD_BLOCK_FIELDS, max(1, RECORD_BLOCK_SAMPLES // (live.size * w0.grid.size)))
        if len(pending) - back >= block:
            flush()
    flush()
    columns["step"][:] = np.arange(steps + 1)
    np.multiply(columns["step"], step, out=columns["time"])
    trajectories = []
    for i, length in enumerate(lengths):
        member = {name: block[i, :length] for name, block in columns.items()}
        for column in member.values():
            column.setflags(write=False)
        trajectories.append(Trajectory(flow=flow, step=step, columns=member, requested_steps=steps,
                                       guard_reason=reasons[i], clamp_events=int(clamps[i]),
                                       final=WaveField(grid=w0.grid, psi=finals[i], hbar=w0.hbar, mass=w0.mass)))
    return trajectories


def run_trajectory(w0: WaveField, flow: str, step: float, steps: int) -> Trajectory:
    """Integrate one field and return per-step records: :func:`run_trajectories` of a stack of one."""
    return run_trajectories(_one_field(w0), flow, step, steps)[0]


def measured_rates(values, step: float) -> np.ndarray:
    """4th-order centered d/dtheta of a record column (interior points)."""
    v = np.asarray(values, dtype=float)
    return _centered_rate([v[j:j - 4 or None] for j in range(5)], step)


# ---------------------------------------------------------------------------
# derived probes


def _as_wave(obj) -> WaveField:
    return obj if isinstance(obj, WaveField) else to_wave(obj)


#: Probe steps: the coarse step of the rates' Richardson pair, and the cross-flow defect's.
RATE_STEP = 1e-4
CROSS_FLOW_STEP = 2e-4


def uncertainty_rates(state, flow: str) -> tuple:
    """Centered rates of (delta_x2, delta_p2_q) along a flow.

    One Richardson refinement of the centered difference (steps RATE_STEP
    and RATE_STEP/2) absorbs the leading truncation term.  A lone state
    gives two floats; a stack gives two arrays with one rate per member,
    each bit for bit the member's lone rate.
    """
    w = _as_wave(state)

    def centered(d):
        minus, plus = _probe_fields(w, flow, d, "uncertainty rates")
        return ((wave_delta_x2(plus) - wave_delta_x2(minus)) / (2.0 * d),
                (wave_delta_p2_q(plus) - wave_delta_p2_q(minus)) / (2.0 * d))

    coarse, fine = centered(RATE_STEP), centered(0.5 * RATE_STEP)
    return tuple((4.0 * f - c) / 3.0 for f, c in zip(fine, coarse, strict=True))


def cross_flow_defect(state) -> tuple:
    """d(k_q)/dt along the t-flow plus d(h_q)/dtau along the tau-flow.

    The holomorphy of the generator pair in the combined time plane makes
    the sum vanish; returns (dk_dt, dh_dtau, defect), per member for a stack.
    """
    w = _as_wave(state)
    tm, tp = _probe_fields(w, "t", CROSS_FLOW_STEP, "the cross-flow defect")
    dk_dt = (wave_k_q(tp) - wave_k_q(tm)) / (2.0 * CROSS_FLOW_STEP)
    um, up = _probe_fields(w, "tau", CROSS_FLOW_STEP, "the cross-flow defect")
    dh_dtau = (wave_h_q(up) - wave_h_q(um)) / (2.0 * CROSS_FLOW_STEP)
    return dk_dt, dh_dtau, dk_dt + dh_dtau


def inner_product(w1: WaveField, w2: WaveField) -> complex:
    """quadrature(conj(psi1) psi2): the nonunitarity probe of the tau-flow."""
    return w1.grid.quadrature(np.conj(w1.psi) * w2.psi)
