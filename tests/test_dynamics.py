"""Dual-time dynamics: exact t-flow, nonlinear tau-flow, guards, probes."""

import math

import numpy as np
import pytest

from qrel import (
    DegenerateStateError,
    GaussianParams,
    Grid,
    GridMismatchError,
    HydroState,
    ResolutionGuardError,
    TrajectoryRecord,
    WaveField,
    cross_flow_defect,
    evolve_t,
    evolve_tau,
    from_wave,
    gaussian_flow,
    hydro_rhs,
    inner_product,
    make_gaussian,
    measured_rates,
    phase_gradient,
    run_trajectories,
    run_trajectory,
    sigma_x2,
    to_wave,
    uncertainty_rates,
)
from qrel import dynamics
from qrel.functionals import (
    _curvature_quotient,
    wave_delta_p2_q,
    wave_delta_x2,
    wave_h_q,
    wave_k_q,
    wave_p_translation,
    wave_s_gen,
)
from qrel.oracles import gaussian_ode_rhs
from qrel.report import TRAJECTORY_HEADER, table_csv, trajectory_csv
from qrel.states import RHO_FLOOR
from qrel.suites import battery_params, gaussian_fit, subjects, tau_record_gap


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that grows by one entry for every call of one of the four ``Grid`` transforms."""
    calls = []
    for name in ("_fftn", "_ifftn", "_rfftn", "_irfftn"):
        def counted(*args, _original=getattr(Grid, name), **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(Grid, name, counted)
    return calls


class TestTFlow:
    def test_zero_step_is_identity(self, minimal_wave):
        assert evolve_t(minimal_wave, 0.0) is minimal_wave

    def test_plane_wave_keeps_modulus(self, grid):
        k = 2 * np.pi * 3 / grid.length
        psi = np.exp(1j * k * grid.coords[0]) / np.sqrt(grid.length)
        w = WaveField(grid=grid, psi=psi)
        out = evolve_t(w, 0.7)
        assert np.abs(np.abs(out.psi) - np.abs(psi)).max() < 1e-14
        phase = np.angle(out.psi / psi)
        assert np.abs(phase - phase[0]).max() < 1e-12

    def test_packet_spreading(self, minimal_wave):
        out = evolve_t(minimal_wave, 2.0)
        assert abs(sigma_x2(out) - gaussian_flow(1.0, 0.0, 0.0, "t", 2.0)[0]) < 1e-8

    def test_conservation(self, minimal_wave):
        dp0 = wave_delta_p2_q(minimal_wave)
        for t in (0.5, 2.0, 4.0):
            out = evolve_t(minimal_wave, t)
            assert abs(out.norm - 1.0) < 1e-14
            assert abs(wave_delta_p2_q(out) - dp0) < 1e-12


class TestHydroRhs:
    def test_uniform_state_is_stationary(self, grid):
        state = HydroState(grid=grid, rho=np.full(grid.shape, 1.0 / grid.length),
                           s=np.zeros(grid.shape))
        for flow in ("t", "tau"):
            drho, ds = hydro_rhs(state, flow)
            assert np.abs(drho).max() < 1e-12
            assert np.abs(ds).max() < 1e-12

    def test_minimal_gaussian_phase_rate(self, minimal, grid):
        # ds/dt = +(hbar^2/2m) lap(sqrt rho)/sqrt rho = (1/2)(x^2/4 - 1/2)
        x = grid.coords[0]
        _, ds = hydro_rhs(minimal, "t")
        expected = 0.5 * (x**2 / 4.0 - 0.5)
        mask = minimal.rho > 1e-12
        assert np.abs((ds - expected)[mask]).max() < 1e-8

    def test_tau_flow_flips_quantum_potential(self, minimal):
        _, ds_t = hydro_rhs(minimal, "t")
        _, ds_tau = hydro_rhs(minimal, "tau")
        mask = minimal.rho > 1e-12
        assert np.abs((ds_t + ds_tau)[mask]).max() < 1e-12

    def test_euler_step_matches_wave_propagator(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)
        dt = 1e-4
        drho, _ = hydro_rhs(state, "t")
        rho_euler = state.rho + dt * drho
        rho_exact = evolve_t(to_wave(state), dt).rho
        assert np.abs(rho_euler - rho_exact).max() < 1e-7

    def test_flow_validation(self, minimal):
        with pytest.raises(ValueError):
            hydro_rhs(minimal, "sideways")

    @pytest.mark.parametrize("flow", ["t", "tau"])
    def test_phase_rate_is_the_quantum_hamilton_jacobi_formula(self, battery, flow):
        # the reference: -|grad s|^2/2m + sign (hbar^2/2m) lap(sqrt rho)/sqrt rho, with sign
        # +1 for t and -1 for tau, written out; hydro_rhs reads it off the generator bit for bit
        sign = 1.0 if flow == "t" else -1.0
        for label, state in battery:
            grads = phase_gradient(state)
            expected = -sum(g**2 for g in grads) / (2.0 * state.mass) \
                + sign * (state.hbar**2 / (2.0 * state.mass)) * _curvature_quotient(state.grid, state.sqrt_rho)
            _, ds = hydro_rhs(state, flow)
            assert ds.tobytes() == expected.tobytes(), label

    @pytest.mark.parametrize("flow", ["t", "tau"])
    def test_interior_node_refused(self, grid, flow):
        # rho ~ x^2 exp(-x^2/2) vanishes at x = 0, where the quantum potential is undefined
        x = grid.coords[0]
        rho = x**2 * np.exp(-0.5 * x**2)
        state = HydroState(grid=grid, rho=rho / grid.quadrature(rho), s=np.zeros(grid.shape))
        with pytest.raises(DegenerateStateError, match="interior node"):
            hydro_rhs(state, flow)

    @pytest.mark.parametrize("flow", ["t", "tau"])
    def test_interior_node_refused_in_2d(self, flow):
        # rho ~ x^2 exp(-(x^2+y^2)/2) vanishes on the line x = 0; ds used to reach 3.5e15 there
        grid = Grid(128, 20.0, 2)
        x, y = grid.coords
        rho = x**2 * np.exp(-0.5 * (x**2 + y**2))
        state = HydroState(grid=grid, rho=rho / grid.quadrature(rho), s=np.zeros(grid.shape))
        with pytest.raises(DegenerateStateError, match="interior node"):
            hydro_rhs(state, flow)


class TestTauFlow:
    def test_zero_step_is_identity(self, minimal_wave):
        assert evolve_tau(minimal_wave, 0.0, 5) is minimal_wave
        assert evolve_tau(minimal_wave, 1e-3, 0) is minimal_wave

    @pytest.mark.parametrize("steps", [-1, -3, 2.5, True])
    def test_steps_must_be_a_non_negative_integer(self, minimal_wave, steps):
        with pytest.raises(ValueError, match="^steps must be a non-negative integer"):
            evolve_tau(minimal_wave, 1e-3, steps)

    def test_initial_contraction_rate(self, minimal_wave):
        # db/dtau = -(b^2 + 1/4 sigma^4) = -0.25 at the minimal Gaussian
        out = evolve_tau(minimal_wave, 1e-3, 20)
        _, b = gaussian_fit(out)
        assert b == pytest.approx(-0.25 * 0.02, rel=1e-3)

    def test_norm_conserved(self, grid):
        w = to_wave(make_gaussian(GaussianParams(sigma2=0.5, b=1.0), grid))
        out = evolve_tau(w, 1e-3, 400)
        assert abs(out.norm - 1.0) < 1e-10

    def test_translation_generator_conserved(self, grid):
        w = to_wave(make_gaussian(GaussianParams(sigma2=1.0, p0=2.0), grid))
        out = evolve_tau(w, 1e-3, 300)
        assert abs(wave_p_translation(out) - wave_p_translation(w)) < 1e-8

    def test_resolution_guard_trips_on_contraction(self, grid):
        w = to_wave(make_gaussian(GaussianParams(sigma2=0.5, b=-1.0), grid))
        with pytest.raises(ResolutionGuardError) as err:
            evolve_tau(w, 1e-3, 500)
        assert err.value.steps_completed > 100
        assert err.value.member == 0

    def test_step_after_every_member_left_is_refused(self, grid):
        # a lone field whose noise guard trips after 233 steps leaves the march empty: the
        # pair that stops it hands out the last field again, and the march ends there
        march = dynamics._tau_fields(to_wave(make_gaussian(GaussianParams(sigma2=0.5, b=-1.0), grid)), 1e-3, 500)
        pairs = []
        stopped = {}
        while not stopped:
            pairs.append(next(march))
            stopped = pairs[-1][1]
        assert list(stopped) == [0] and len(pairs) == 234 and pairs[-1][0] is pairs[-2][0]
        assert stopped[0].steps_completed == 233
        with pytest.raises(StopIteration):
            next(march)

    def test_node_state_rejected(self, grid):
        x = grid.coords[0]
        psi = x * np.exp(-(x**2) / 4.0)
        psi = (psi / np.sqrt(grid.quadrature(np.abs(psi) ** 2))).astype(complex)
        w = WaveField(grid=grid, psi=psi)
        with pytest.raises(Exception):
            evolve_tau(w, 1e-3, 5)

    @pytest.mark.parametrize("steps", [1, 10, 500])
    def test_five_transforms_per_step(self, minimal_wave, steps, fft_calls, monkeypatch):
        # one for the starting spectrum, five for the first step and four for each later one:
        # the march never transforms the field it has just made, and one inverse transform
        # call makes each field and the next step's first half kick together.  numpy's complex
        # transform is never handed a real field to cast (the Laplacian of |psi| casts it once)
        real_inputs = []

        def fft(a, *args, _original=np.fft.fft, **kwargs):
            if not np.iscomplexobj(a):
                real_inputs.append(a.shape)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", fft)
        w = WaveField(grid=minimal_wave.grid, psi=minimal_wave.psi)
        out = evolve_tau(w, 1e-3, steps)
        assert len(fft_calls) == 1 + 5 + 4 * (steps - 1)
        assert real_inputs == []
        # the field's own transform is computed on demand, as of a fresh field
        assert out.psi_hat.tobytes() == WaveField(grid=out.grid, psi=out.psi).psi_hat.tobytes()

    def test_nonunitarity_with_norm_conservation(self, grid, minimal_wave):
        other = to_wave(make_gaussian(GaussianParams(sigma2=1.0, x0=1.5), grid))
        before = inner_product(minimal_wave, other)
        a = evolve_tau(minimal_wave, 1e-3, 200)
        b = evolve_tau(other, 1e-3, 200)
        assert abs(a.norm - 1.0) < 1e-10 and abs(b.norm - 1.0) < 1e-10
        assert abs(abs(inner_product(a, b)) - abs(before)) > 1e-4


class TestContinuityResidual:
    """The residual of a run's first record: the stencil applied around the initial field."""

    @staticmethod
    def residual(w, flow, dstep):
        return run_trajectory(w, flow, dstep, 0).column("continuity_residual")[0]

    def test_stationary_uniform_state(self, grid):
        # delta_x2 is undefined for the uniform density, so no record can be written:
        # the runner's stencil is applied to the runner's own stream of fields
        import qrel.dynamics as dyn_mod

        psi = np.full(grid.shape, 1.0 / math.sqrt(grid.length), dtype=complex)
        w = WaveField(grid=grid, psi=psi)
        for flow in ("t", "tau"):
            stream, _ = dyn_mod._flow_fields(w, flow, 1e-3, 2)
            fields = [field for field, _ in stream]
            assert dyn_mod._stencil_residual([f.rho for f in fields], fields[2], 1e-3) < 1e-12

    def test_minimal_gaussian_both_flows(self, minimal_wave):
        assert self.residual(minimal_wave, "t", 1e-3) < 1e-5
        assert self.residual(minimal_wave, "tau", 1e-3) < 1e-5


class TestProbeRefusals:
    """Every probe refuses an unknown flow, and reports a guard trip in one shape."""

    def test_unknown_flow_refused(self, minimal_wave):
        probes = [lambda: uncertainty_rates(minimal_wave, "sideways"),
                  lambda: run_trajectory(minimal_wave, "sideways", 1e-3, 5)]
        for probe in probes:
            with pytest.raises(ValueError, match="flow must be 't' or 'tau', got 'sideways'"):
                probe()

    @pytest.mark.parametrize("probe", ["uncertainty rates", "the cross-flow defect"])
    def test_guard_trip_on_a_backward_step(self, grid, probe):
        # sigma2 = 0.13 is below the resolution floor 25 h^2 = 0.153, so the
        # first step, which is backward, trips
        w = to_wave(make_gaussian(GaussianParams(sigma2=0.13, b=-6.0), grid))
        call = {"uncertainty rates": lambda: uncertainty_rates(w, "tau"),
                "the cross-flow defect": lambda: cross_flow_defect(w)}[probe]
        with pytest.raises(ResolutionGuardError,
                           match=f"guard tripped while probing {probe}: resolution guard.*after 0 steps") as err:
            call()
        assert (err.value.steps_completed, err.value.member) == (0, 0)


class TestTrajectories:
    def test_t_flow_columns(self, minimal_wave):
        traj = run_trajectory(minimal_wave, "t", 0.05, 80)
        assert len(traj.records) == 81
        assert np.abs(traj.column("norm") - 1.0).max() < 1e-14
        dp2 = traj.column("delta_p2_q")
        assert np.abs(dp2 - dp2[0]).max() < 1e-12
        assert traj.column("continuity_residual").max() < 1e-5
        assert not traj.guard_tripped

    def test_tau_flow_lyapunov(self, minimal_wave):
        traj = run_trajectory(minimal_wave, "tau", 1e-3, 500)
        s_gen = traj.column("s_gen")
        h_q = traj.column("h_q")
        assert np.diff(s_gen).min() > 0.0
        rates = measured_rates(s_gen, 1e-3)
        assert np.abs((rates - h_q[2:-2]) / h_q[2:-2]).max() < 1e-5
        assert h_q.min() >= 0.0
        kq = traj.column("k_q")
        assert np.abs(kq - kq[0]).max() < 1e-6

    def test_guarded_run_is_truncated_and_flagged(self, grid):
        w = to_wave(make_gaussian(GaussianParams(sigma2=0.5, b=-1.0), grid))
        traj = run_trajectory(w, "tau", 1e-3, 500)
        assert traj.guard_tripped
        assert 0 < traj.last_valid_step < 500
        assert "guard" in traj.guard_reason
        assert traj.column("continuity_residual").max() < 1e-5

    def test_single_record_run(self, minimal_wave):
        traj = run_trajectory(minimal_wave, "tau", 1e-3, 0)
        assert len(traj.records) == 1
        assert traj.records[0].time == 0.0

    @pytest.mark.parametrize("flow", ["tau", "t"])
    @pytest.mark.parametrize("steps", [-1, -3, 2.5, True])
    def test_steps_must_be_a_non_negative_integer(self, minimal_wave, flow, steps):
        with pytest.raises(ValueError, match="^steps must be a non-negative integer"):
            run_trajectories(minimal_wave, flow, 1e-3, steps)


class TestTrajectoryRecordsMatchFreshFields:
    """Records built from shared field caches equal, bit for bit, each
    observable evaluated on a fresh field holding a copy of the same psi."""

    @staticmethod
    def continuity_residual_reference(ws, dstep):
        # the 4th-order stencil with every transform recomputed from psi
        rhos = [np.abs(w.psi) ** 2 for w in ws]
        grid, c = ws[2].grid, ws[2]
        flux = [c.hbar * np.imag(np.conj(c.psi) * g) / c.mass for g in grid.gradient(c.psi)]
        div = sum(grid.gradient(f)[ax] for ax, f in enumerate(flux))
        drho = (-rhos[4] + 8.0 * rhos[3] - 8.0 * rhos[1] + rhos[0]) / (12.0 * dstep)
        return float(np.abs(drho + div).max() / rhos[2].max())

    @classmethod
    def assert_records_match(cls, traj, field_at):
        fields = {j: field_at(j) for j in range(-2, traj.last_valid_step + 3)}

        def fresh(j):
            w = fields[j]
            return WaveField(grid=w.grid, psi=w.psi.copy(), hbar=w.hbar, mass=w.mass)

        for record in traj.records:
            j = record.step
            expected = TrajectoryRecord(
                step=j, time=j * traj.step,
                h_q=wave_h_q(fresh(j)), k_q=wave_k_q(fresh(j)), s_gen=wave_s_gen(fresh(j)),
                delta_x2=wave_delta_x2(fresh(j)), delta_p2_q=wave_delta_p2_q(fresh(j)),
                norm=fresh(j).norm,
                continuity_residual=cls.continuity_residual_reference(
                    [fresh(j + d) for d in range(-2, 3)], traj.step))
            assert record == expected

    @staticmethod
    def tau_field(w0, dtau):
        # negative indices integrate backward, with the step the runner's helpers use
        return lambda j: evolve_tau(w0, dtau if j >= 0 else -dtau, abs(j))

    def test_t_flow(self, minimal_wave):
        traj = run_trajectory(minimal_wave, "t", 0.05, 30)
        self.assert_records_match(traj, lambda j: evolve_t(minimal_wave, 0.05 * j))

    def test_full_window_tau_flow(self, grid):
        w0 = to_wave(make_gaussian(GaussianParams(sigma2=1.0, b=0.5, p0=2.0), grid))
        traj = run_trajectory(w0, "tau", 1e-3, 60)
        assert not traj.guard_tripped and len(traj.records) == 61
        # three full blocks of records and a partial one
        assert divmod(len(traj.records), dynamics.RECORD_BLOCK_FIELDS) == (3, 13)
        self.assert_records_match(traj, self.tau_field(w0, 1e-3))

    @pytest.mark.parametrize("flow, step", [("tau", 1e-3), ("t", 0.05)])
    def test_block_density_is_the_stacked_densities(self, minimal_wave, monkeypatch, flow, step):
        # a block of records reads its fields' densities from the stack of the stencil's densities,
        # a read-only view, and computes none again
        blocks = []

        def residual(rhos, w, dstep, _original=dynamics._stencil_residual):
            blocks.append((rhos, w.rho))
            return _original(rhos, w, dstep)

        monkeypatch.setattr(dynamics, "_stencil_residual", residual)
        traj = run_trajectory(minimal_wave, flow, step, 20)
        assert [rho.shape[0] for _, rho in blocks] == [16, 5]
        for window, rho in blocks:
            assert rho.base is window[0].base and not rho.flags.writeable
            assert rho.__array_interface__ == window[2].__array_interface__
        self.assert_records_match(traj, self.tau_field(minimal_wave, step) if flow == "tau"
                                  else lambda j: evolve_t(minimal_wave, step * j))

    def test_t_flow_2d_across_record_blocks(self):
        grid = Grid(n=64, length=24.0, dim=2)
        w0 = to_wave(make_gaussian(GaussianParams(sigma2=1.0, b=0.5, p0=1.0), grid))
        traj = run_trajectory(w0, "t", 0.05, 32)
        # blocks of 16 fields (the sample cap allows 16 at 64 x 64): two full and a partial one
        block = min(dynamics.RECORD_BLOCK_FIELDS, dynamics.RECORD_BLOCK_SAMPLES // grid.size)
        assert divmod(len(traj.records), block) == (2, 1)
        self.assert_records_match(traj, lambda j: evolve_t(w0, 0.05 * j))

    def test_guard_tripped_tau_flow(self, grid):
        w0 = to_wave(make_gaussian(GaussianParams(sigma2=0.17, b=-3.0), grid))
        traj = run_trajectory(w0, "tau", 1e-3, 50)
        assert traj.guard_tripped and "resolution guard" in traj.guard_reason
        assert 0 < traj.last_valid_step < 30
        # the trip falls inside a block of records
        assert len(traj.records) % dynamics.RECORD_BLOCK_FIELDS
        self.assert_records_match(traj, self.tau_field(w0, 1e-3))

    def test_2d_tau_flow_s_gen_rises_by_h_q(self):
        # s_gen rises by h_q dtau (about 1.333e-3) a step; a phase unwrapped from the box
        # edge, where psi is at the rounding floor, jumps by multiples of 2 pi there, and
        # the rises then read -2.51 to +0.48
        grid = Grid(n=128, length=40.0, dim=2)
        w0 = to_wave(make_gaussian(GaussianParams(sigma2=3.0, b=0.5, p0=1.0), grid))
        traj = run_trajectory(w0, "tau", 1e-3, 20)
        rises, h_q = np.diff(traj.column("s_gen")), traj.column("h_q")
        assert rises.min() > 0.0
        assert np.abs(rises / (0.5 * (h_q[1:] + h_q[:-1]) * 1e-3) - 1.0).max() < 1e-3

    @pytest.mark.parametrize("flow, step, dim, n, length, per_record", [
        # 109 transforms: one for the starting spectrum both marchers share, 9 for the two
        # backward steps and 89 for the 22 forward ones (five for a march's first step, four
        # for each later one), five for each block of records (16 and 5)
        ("tau", 1e-3, 1, 512, 40.0, 6.5),
        # 41 transforms: 25 to make the fields, eight for each of two blocks of records, 16 and
        # 5 (in 2-D the flux divergence transforms each component along its own axis only)
        ("t", 0.05, 2, 64, 24.0, 5.5)], ids=["tau-1d", "t-2d"])
    def test_fft_calls_per_record(self, flow, step, dim, n, length, per_record, fft_calls):
        w0 = to_wave(make_gaussian(GaussianParams(sigma2=1.0), Grid(n=n, length=length, dim=dim)))
        traj = run_trajectory(w0, flow, step, 20)
        assert len(traj.records) == 21
        assert len(fft_calls) <= per_record * len(traj.records)


def _stack(waves):
    return WaveField(grid=waves[0].grid, psi=np.stack([w.psi for w in waves]))


def assert_same_trajectory(got, want):
    """Field for field and bit for bit: records, columns and diagnostics."""
    assert list(got.records) == list(want.records)
    for name, column in want.columns.items():
        assert got.column(name).tobytes() == column.tobytes(), name
    assert (got.flow, got.step, got.requested_steps) == (want.flow, want.step, want.requested_steps)
    assert (got.guard_tripped, got.guard_reason, got.clamp_events) == \
        (want.guard_tripped, want.guard_reason, want.clamp_events)
    assert got.final.psi.tobytes() == want.final.psi.tobytes()


class TestStackedRunner:
    """One stacked call gives every member, bit for bit, its lone trajectory."""

    def test_battery_stack_matches_lone_runs(self, battery):
        # in 300 steps ten members trip the stability guard, at five different steps, and
        # eight run the full window
        waves = [to_wave(state) for _, state in battery]
        stacked = run_trajectories(_stack(waves), "tau", 1e-3, 300)
        assert len(stacked) == len(waves)
        assert sum(t.guard_tripped for t in stacked) == 10
        for wave, traj in zip(waves, stacked):
            assert_same_trajectory(traj, run_trajectory(wave, "tau", 1e-3, 300))

    def test_battery_noise_trips_print_a_budget_past_the_cap(self, battery):
        # twelve battery members trip the stability guard within 500 steps; each reason prints
        # the budget that tripped it, and that budget exceeds the cap (at one decimal, half
        # of them read 20.0)
        stacked = run_trajectories(_stack([to_wave(state) for _, state in battery]), "tau", 1e-3, 500)
        reasons = [t.guard_reason for t in stacked if t.guard_reason.startswith("stability guard")]
        assert len(reasons) == 12
        for reason in reasons:
            budget = float(reason.split("noise budget ")[1].split(" exceeded")[0])
            assert budget > dynamics.NOISE_BUDGET_MAX, reason

    def test_mixed_stack_with_each_guard(self, grid, minimal_wave):
        resolution = to_wave(make_gaussian(GaussianParams(sigma2=0.17, b=-3.0), grid))
        noise = to_wave(make_gaussian(GaussianParams(sigma2=0.5, b=-1.0), grid))
        waves = [resolution, noise, minimal_wave]
        stacked = run_trajectories(_stack(waves), "tau", 1e-3, 250)
        assert "resolution guard" in stacked[0].guard_reason
        assert "stability guard" in stacked[1].guard_reason
        assert not stacked[2].guard_tripped and len(stacked[2].records) == 251
        assert stacked[0].last_valid_step < stacked[1].last_valid_step < stacked[2].last_valid_step
        for wave, traj in zip(waves, stacked):
            assert_same_trajectory(traj, run_trajectory(wave, "tau", 1e-3, 250))

    def test_t_flow_stack(self, grid, minimal_wave):
        moving = to_wave(make_gaussian(GaussianParams(sigma2=0.5, b=1.0, p0=2.0), grid))
        stacked = run_trajectories(_stack([minimal_wave, moving]), "t", 0.05, 20)
        for wave, traj in zip([minimal_wave, moving], stacked):
            assert_same_trajectory(traj, run_trajectory(wave, "t", 0.05, 20))

    @pytest.mark.parametrize("sigma2, b, dtau, shape", [
        # below the resolution floor already: the first, backward, step trips, unwrapped
        (0.13, -6.0, 1e-3, "^resolution guard: .* after 0 steps$"),
        # the second forward step trips, before the window of the first record is full
        (0.17, -3.0, 3e-2, "^guard tripped before any record could be certified: resolution guard: .* after 1 steps$"),
    ], ids=["backward", "forward"])
    def test_member_tripping_before_its_first_record_raises_as_alone(self, grid, minimal_wave,
                                                                     sigma2, b, dtau, shape):
        tripping = to_wave(make_gaussian(GaussianParams(sigma2=sigma2, b=b), grid))
        with pytest.raises(ResolutionGuardError, match=shape) as alone:
            run_trajectory(tripping, "tau", dtau, 10)
        with pytest.raises(ResolutionGuardError) as stacked:
            run_trajectories(_stack([minimal_wave, tripping, minimal_wave]), "tau", dtau, 10)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.steps_completed == alone.value.steps_completed
        assert (alone.value.member, stacked.value.member) == (0, 1)

    def test_non_contiguous_stack(self, battery):
        waves = [to_wave(state) for _, state in battery[:4]]
        psi = np.stack([w.psi for w in waves], axis=-1).T  # members along the innermost stride
        assert not psi.flags.c_contiguous
        stack = WaveField(grid=waves[0].grid, psi=psi)
        assert stack.psi.flags.c_contiguous
        for wave, traj in zip(waves, run_trajectories(stack, "tau", 1e-3, 20)):
            assert_same_trajectory(traj, run_trajectory(wave, "tau", 1e-3, 20))

    def test_stack_shapes(self, minimal_wave):
        (lone,) = run_trajectories(minimal_wave, "tau", 1e-3, 5)  # a lone field is a stack of one
        assert_same_trajectory(lone, run_trajectory(minimal_wave, "tau", 1e-3, 5))
        with pytest.raises(GridMismatchError, match="one member axis"):
            run_trajectories(WaveField(grid=minimal_wave.grid, psi=minimal_wave.psi[None, None]), "tau", 1e-3, 5)
        with pytest.raises(GridMismatchError, match="expected one field"):
            run_trajectory(_stack([minimal_wave] * 2), "tau", 1e-3, 5)

    def test_fft_calls_per_record_step_counted_once_per_stack(self, grid, minimal_wave, fft_calls):
        params = (GaussianParams(sigma2=2.0, b=1.0), GaussianParams(sigma2=1.0, b=0.5, p0=2.0))
        waves = [minimal_wave] + [to_wave(make_gaussian(p, grid)) for p in params]
        stacked = run_trajectories(_stack(waves), "tau", 1e-3, 20)
        assert all(len(t.records) == 21 for t in stacked)
        # 109 transforms: 99 for the 24 Strang steps and the starting spectrum, five for each of
        # two blocks of records, 16 and 5
        assert len(fft_calls) <= 150

    def test_record_blocks(self, battery, grid, minimal_wave, monkeypatch):
        blocks = []

        def recorded(w, _original=dynamics._record_observables):
            blocks.append(w.psi.shape)
            return _original(w)

        monkeypatch.setattr(dynamics, "_record_observables", recorded)
        run_trajectory(minimal_wave, "tau", 1e-3, 40)
        assert blocks == [(16, grid.n), (16, grid.n), (9, grid.n)]
        blocks.clear()
        stacked = run_trajectories(_stack([to_wave(state) for _, state in battery]), "tau", 1e-3, 300)
        # every block is shaped (fields, members, n), a block of one field too
        fields = [shape[0] for shape in blocks]
        assert sum(fields) == 301
        # seven fields at a time while all 18 members are live (the sample cap), up to the
        # partial block the first trip writes, and each record written at once
        first_trip = min(t.last_valid_step for t in stacked if t.guard_tripped)
        full, partial = divmod(first_trip + 1, 7)
        assert blocks[:full] == [(7, 18, grid.n)] * full
        assert [shape for shape in blocks if shape[1] == 18] == blocks[:full] + [(partial, 18, grid.n)] * bool(partial)
        # longer blocks once members trip, none of them above the sample budget or the field cap
        assert max(fields) > 7
        assert all(math.prod(shape) <= dynamics.RECORD_BLOCK_SAMPLES for shape in blocks)
        assert max(fields) <= dynamics.RECORD_BLOCK_FIELDS


@pytest.fixture(scope="module")
def battery_lone_runs(battery):
    """Each battery member's lone 100-step tau-run, its records written in the default blocks (16 fields)."""
    return [run_trajectory(to_wave(state), "tau", 1e-3, 100) for _, state in battery]


class TestRecordBlockLayout:
    """A record's bits do not depend on how many fields its block holds."""

    @pytest.fixture
    def blocks_of(self, monkeypatch):
        """Sets blocks of a given number of fields, the sample cap lifted; returns the field counts written."""
        written = []

        def recorded(w, _original=dynamics._record_observables):
            written.append(w.psi.shape[0])
            return _original(w)

        def set_fields(fields):
            monkeypatch.setattr(dynamics, "RECORD_BLOCK_FIELDS", fields)
            monkeypatch.setattr(dynamics, "RECORD_BLOCK_SAMPLES", 2**40)
            return written

        monkeypatch.setattr(dynamics, "_record_observables", recorded)
        return set_fields

    @pytest.mark.parametrize("fields", [1, 7, 64])
    def test_battery_stack(self, battery, battery_lone_runs, blocks_of, fields):
        written = blocks_of(fields)
        stacked = run_trajectories(_stack([to_wave(state) for _, state in battery]), "tau", 1e-3, 100)
        assert max(written) == fields
        for traj, lone in zip(stacked, battery_lone_runs, strict=True):
            assert_same_trajectory(traj, lone)

    @pytest.mark.parametrize("fields", [16, 64])
    def test_lone_runs(self, battery, battery_lone_runs, blocks_of, fields):
        written = blocks_of(fields)
        for (_, state), lone in zip(battery, battery_lone_runs, strict=True):
            assert_same_trajectory(run_trajectory(to_wave(state), "tau", 1e-3, 100), lone)
        assert max(written) == fields


def _blocks_of_one(monkeypatch, run):
    """``run()`` with the marcher and the record builder stepping one field at a time."""
    with monkeypatch.context() as patched:
        patched.setattr(dynamics, "RECORD_BLOCK_FIELDS", 1)
        return run()


class TestMarchBlocks:
    """The marcher steps ahead in blocks; each call hands out what a step-by-step march gives."""

    @staticmethod
    def wave(grid, sigma2, b):
        return to_wave(make_gaussian(GaussianParams(sigma2=sigma2, b=b), grid))

    @pytest.fixture
    def block_starts(self, monkeypatch):
        """The (steps marched before, fields) of every block the marches step, in order.

        Each block's guard reads its densities in one call, one row per field.
        """
        starts, done = [], []

        def march(*args, _original=dynamics._tau_fields):
            done.append(0)
            return _original(*args)

        def spread(grid, rho, _original=dynamics._position_variance):
            starts.append((done[-1], len(rho)))
            done[-1] += len(rho)
            return _original(grid, rho)

        monkeypatch.setattr(dynamics, "_tau_fields", march)
        monkeypatch.setattr(dynamics, "_position_variance", spread)
        return starts

    @staticmethod
    def flag_peaks_above(monkeypatch, peak):
        """A stand-in nodeless verdict that also flags every density whose peak passes ``peak``."""
        def nodal(g, rho, _original=dynamics._nodal_members):
            return _original(g, rho) | (rho.reshape(-1, g.size).max(axis=1) > peak)

        monkeypatch.setattr(dynamics, "_nodal_members", nodal)

    @pytest.mark.parametrize("n, sigma2, after", [(512, 0.2, 95), (256, 0.8, 124)])
    def test_resolution_trip(self, monkeypatch, n, sigma2, after):
        # 95 steps end a block of 16 at n = 512; 124 fall inside one at n = 256
        w0 = self.wave(Grid(n=n, length=40.0), sigma2, -1.0)
        traj = run_trajectory(w0, "tau", 1e-3, 500)
        assert traj.guard_reason.startswith("resolution guard") and traj.guard_reason.endswith(f"after {after} steps")
        assert traj.last_valid_step == after - 2
        assert_same_trajectory(traj, _blocks_of_one(monkeypatch, lambda: run_trajectory(w0, "tau", 1e-3, 500)))

    def test_noise_trip(self, grid, monkeypatch, block_starts):
        w0 = self.wave(grid, 0.5, -1.0)
        traj = run_trajectory(w0, "tau", 1e-3, 500)
        assert traj.guard_reason.startswith("stability guard") and traj.guard_reason.endswith("after 233 steps")
        assert traj.last_valid_step == 231
        # the step that spends the budget ends its block, and the guards of the next block read
        # only the density of the field it would start from
        assert block_starts[-2:] == [(224, 9), (233, 1)]
        assert_same_trajectory(traj, _blocks_of_one(monkeypatch, lambda: run_trajectory(w0, "tau", 1e-3, 500)))

    def test_spent_budget_stops_without_a_march(self, grid, minimal_wave, monkeypatch):
        # the step after 233 takes the lone run's budget past the cap and ends its block, and the
        # next block would stop it at its first field: it is not marched, so the run rotates two
        # backward and 233 forward fields.  In a stack beside a live member that block is
        # marched, and the tripping member's trajectory and error are the same bit for bit.
        w0 = self.wave(grid, 0.5, -1.0)
        stacked = run_trajectories(_stack([w0, minimal_wave]), "tau", 1e-3, 500)
        with pytest.raises(ResolutionGuardError) as beside:
            evolve_tau(_stack([w0, minimal_wave]), 1e-3, 500)
        rotations = []

        def counted(w, psi, dtau, out, _original=dynamics._rotate):
            rotations.append(psi.shape)
            return _original(w, psi, dtau, out)

        monkeypatch.setattr(dynamics, "_rotate", counted)
        traj = run_trajectory(w0, "tau", 1e-3, 500)
        assert len(rotations) == 2 + 233
        assert traj.guard_reason.startswith("stability guard") and traj.guard_reason.endswith("after 233 steps")
        assert_same_trajectory(traj, stacked[0])
        with pytest.raises(ResolutionGuardError) as alone:
            evolve_tau(w0, 1e-3, 500)
        assert (str(alone.value), alone.value.steps_completed) == (str(beside.value), 233)

    def test_members_stopping_at_different_fields_of_one_block(self, grid, minimal_wave, monkeypatch,
                                                               block_starts):
        waves = [minimal_wave, self.wave(grid, 0.2, -1.1), self.wave(grid, 0.2, -1.0)]
        stacked = run_trajectories(_stack(waves), "tau", 1e-3, 150)
        # the calls after 90 and after 95 steps stop members 1 and 2, in one block of the forward march
        assert not stacked[0].guard_tripped
        assert [t.guard_reason.split(" after ")[-1] for t in stacked[1:]] == ["90 steps", "95 steps"]
        assert (80, 16) in block_starts
        alone = _blocks_of_one(monkeypatch, lambda: [run_trajectory(w, "tau", 1e-3, 150) for w in waves])
        for traj, lone in zip(stacked, alone, strict=True):
            assert_same_trajectory(traj, lone)

    def test_fields_past_a_stop_are_not_checked(self, grid, minimal_wave, monkeypatch):
        # member 1 stops after 90 steps, inside a block; the stand-in verdict flags its fields
        # from 91 steps on, which only the block's steps past its stop reach
        tripping = self.wave(grid, 0.2, -1.1)
        self.flag_peaks_above(monkeypatch, 1.147 * float(tripping.rho.max()))
        stack = _stack([minimal_wave, tripping])
        stacked = run_trajectories(stack, "tau", 1e-3, 120)
        assert not stacked[0].guard_tripped and stacked[1].guard_reason.endswith("after 90 steps")
        alone = _blocks_of_one(monkeypatch, lambda: run_trajectories(stack, "tau", 1e-3, 120))
        for traj, lone in zip(stacked, alone, strict=True):
            assert_same_trajectory(traj, lone)

    def test_node_raises_at_the_same_call(self, grid, monkeypatch):
        # the stand-in verdict flags the contracting packet once its peak passes 1.04 of the
        # starting one: the field after 38 steps, inside the block of steps 33 to 48
        w0 = self.wave(grid, 0.5, -1.0)
        self.flag_peaks_above(monkeypatch, 1.04 * float(w0.rho.max()))

        def march():
            fields = []
            with pytest.raises(DegenerateStateError):
                for field, _ in dynamics._tau_fields(w0, 1e-3, 100):
                    fields.append(field.psi.tobytes())
            return fields

        fields = march()
        assert len(fields) == 38
        assert fields == _blocks_of_one(monkeypatch, march)

    def test_fields_of_a_block_share_one_buffer_and_one_density_array(self, minimal_wave):
        # a lone run at n = 512 marches 16 fields to a block, into the 17 rows of one buffer;
        # each field comes with its density, a row of the block's one read-only array
        stream, _ = dynamics._flow_fields(minimal_wave, "tau", 1e-3, 32)
        forward = [field for field, _ in stream][3:]  # the fields after one step to 32
        assert len(forward) == 32
        assert all("rho" in vars(field) for field in forward)
        for block in (forward[:16], forward[16:]):
            psi, rho = block[0].psi.base, block[0].rho.base
            assert psi.shape == rho.shape == (17,) + minimal_wave.psi.shape
            assert not rho.flags.writeable
            for field in block:
                assert field.psi.base is psi and field.rho.base is rho
                assert field.rho.tobytes() == (np.abs(field.psi) ** 2).tobytes()
        assert forward[0].psi.base is not forward[16].psi.base

    def test_evolve_tau_first_to_trip(self, grid, minimal_wave, monkeypatch):
        stack = _stack([minimal_wave, self.wave(grid, 0.2, -1.0), self.wave(grid, 0.2, -1.1)])

        def first_trip():
            with pytest.raises(ResolutionGuardError) as err:
                evolve_tau(stack, 1e-3, 200)
            return str(err.value), err.value.steps_completed, err.value.member

        got = first_trip()
        assert got[1:] == (90, 2)
        assert got == _blocks_of_one(monkeypatch, first_trip)

    def test_clamp_events(self, grid, minimal_wave, monkeypatch):
        # W_MAX = 50 clips the far tails of both members every step, and member 1 still stops
        # after 90 steps, inside the block of steps 81 to 96: its six steps past that are dropped
        monkeypatch.setattr(dynamics, "W_MAX", 50.0)
        waves = [minimal_wave, self.wave(grid, 0.2, -1.1)]
        stacked = run_trajectories(_stack(waves), "tau", 1e-3, 120)
        assert all(t.clamp_events > 0 for t in stacked) and stacked[1].guard_reason.endswith("after 90 steps")
        alone = _blocks_of_one(monkeypatch, lambda: run_trajectories(_stack(waves), "tau", 1e-3, 120))
        for traj, lone in zip(stacked, alone, strict=True):
            assert_same_trajectory(traj, lone)

    def test_one_step_evolve_tau_makes_one_step(self, minimal_wave, monkeypatch):
        rotations = []

        def counted(w, psi, dtau, out, _original=dynamics._rotate):
            rotations.append(psi.shape)
            return _original(w, psi, dtau, out)

        monkeypatch.setattr(dynamics, "_rotate", counted)
        out = evolve_tau(minimal_wave, 1e-3, 1)
        assert rotations == [minimal_wave.psi.shape]
        assert out.psi.tobytes() == _blocks_of_one(monkeypatch, lambda: evolve_tau(minimal_wave, 1e-3, 1)).psi.tobytes()


class TestBandMask:
    """The band sums |k - kbar|^2 axis by axis, bit for bit as the table of wavenumber vectors did."""

    @staticmethod
    def table_mask(grid, half_kinetic, spectrum):
        # the mask from a sum over the trailing axis of Grid._wavenumber_table minus kbar
        parts = spectrum.view(np.float64)
        m = grid._moments(parts * parts, grid._spectral_moment_table)
        m = m / m[..., :1]
        kbar = m[..., 1:-1]
        dk2 = m[..., -1] - (kbar * kbar).sum(axis=-1)
        kc2_floor, kc2_cap = 9.0 * (2.0 * math.pi / grid.length) ** 2, (0.95 * math.pi / grid.spacing) ** 2
        kc2 = np.minimum(np.maximum(dynamics.BAND_WIDTH_FACTOR * dk2, kc2_floor), kc2_cap)
        krel = grid._wavenumber_table - kbar.reshape(kbar.shape[:-1] + (1,) * grid.dim + kbar.shape[-1:])
        krel2 = (krel * krel).sum(axis=-1)
        return half_kinetic * (krel2 <= kc2.reshape(kc2.shape + (1,) * grid.dim)), kc2, kbar, krel2

    @staticmethod
    def summed_distance2(grid, kbar):
        # |k - kbar|^2 summed axis by axis from 0.0, each square a new array
        total = 0.0
        for ax, k in enumerate(grid._axis_wavenumbers):
            d = k - kbar[..., ax].reshape(kbar.shape[:-1] + (1,) * grid.dim)
            total = total + d * d
        return total

    @pytest.mark.parametrize("members", [(), (4,)], ids=["lone", "stack"])
    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
    def test_mask_matches_the_table(self, dim, n, members):
        grid = Grid(n=n, length=12.0, dim=dim)
        rng = np.random.default_rng(dim)
        # four members (or one) with Gaussian spectra around random centres and widths
        k = grid._wavenumber_table
        centres, widths = rng.uniform(-3.0, 3.0, (4, dim)), rng.uniform(0.5, 2.0, 4)
        spectrum = np.stack([np.exp(-((k - c) ** 2).sum(axis=-1) / w + 1j * rng.uniform(0, 6.3, grid.shape))
                             for c, w in zip(centres, widths)])
        if not members:
            spectrum = spectrum[0]
        half_kinetic = dynamics._kinetic_phase(grid, 1.0, 1.0, 0.5e-3)
        mask, kc2 = dynamics._band_half_kinetic(grid, spectrum, half_kinetic, dynamics._kc2_bounds(grid))
        want, want_kc2, kbar, krel2 = self.table_mask(grid, half_kinetic, spectrum)
        assert mask.shape == spectrum.shape and np.shape(kc2) == members
        assert mask.tobytes() == want.tobytes() and kc2.tobytes() == want_kc2.tobytes()
        assert 0 < np.count_nonzero(mask) < mask.size
        assert dynamics._distance2(grid, kbar).tobytes() == krel2.tobytes()
        assert dynamics._distance2(grid, kbar).tobytes() == self.summed_distance2(grid, kbar).tobytes()

    @pytest.mark.parametrize("members", [(), (2,)], ids=["lone", "stack"])
    def test_zero_spectrum_gives_an_empty_band(self, members):
        # a zero field's moments divide 0 by 0: numpy's warning, a NaN k_c^2 and no mode in the
        # band, for a lone 1-D field's scalars as for a stack's arrays
        grid = Grid(n=64, length=12.0)
        half_kinetic = dynamics._kinetic_phase(grid, 1.0, 1.0, 0.5e-3)
        with pytest.warns(RuntimeWarning, match="invalid value"):
            mask, kc2 = dynamics._band_half_kinetic(grid, np.zeros(members + grid.shape, dtype=complex),
                                                    half_kinetic, dynamics._kc2_bounds(grid))
        assert np.shape(kc2) == members and np.isnan(kc2).all() and not mask.any()


class TestRotation:
    """The rotation by the clamped potential, bit for bit the expression it was made of with new arrays."""

    @staticmethod
    def rotated(w, psi, dtau):
        # W and the angle as new arrays, the quotient as Laplacian over floored amplitude, the clamp
        # mask built every call; returns the rotated field and the clamp events
        u = np.abs(psi)
        fhat = w.grid._fftn(u)
        fhat *= w.grid._minus_k_squared
        quotient = w.grid._ifftn(fhat, out=fhat).real / np.maximum(u, np.sqrt(RHO_FLOOR))
        W = (w.hbar**2 / w.mass) * quotient
        clipped = np.abs(W) > dynamics.W_MAX
        events = None
        if clipped.any():
            events = np.ravel(clipped.sum(axis=w.grid._trailing_axes))
            W = np.clip(W, -dynamics.W_MAX, dynamics.W_MAX)
        angle = W * (-dtau / w.hbar)
        rotation = np.empty(psi.shape, dtype=complex)
        np.cos(angle, out=rotation.real)
        np.sin(angle, out=rotation.imag)
        return psi * rotation, events

    @pytest.mark.parametrize("w_max, clamps", [(25.0, [True, False]), (dynamics.W_MAX, [False, False])])
    def test_rotation_and_clamp_events(self, grid, monkeypatch, w_max, clamps):
        # W_MAX = 25 clips the narrow member's rim, where |W| reaches 36, and not the wide one's,
        # where it stays below 16; each member alone gets its row and its count
        monkeypatch.setattr(dynamics, "W_MAX", w_max)
        waves = [to_wave(make_gaussian(GaussianParams(sigma2=s2, b=b), grid, hbar=0.8, mass=1.3))
                 for s2, b in ((0.5, 0.4), (2.0, -0.3))]
        stack = WaveField(grid=grid, psi=np.stack([w.psi for w in waves]), hbar=0.8, mass=1.3)
        for w, flags in zip([stack, *waves], [clamps, clamps[:1], clamps[1:]]):
            want, want_events = self.rotated(w, w.psi, 1e-3)
            into = w.psi.copy()  # the march rotates its buffer row into itself
            events = dynamics._rotate(w, into, 1e-3, out=into)
            assert into.tobytes() == want.tobytes()
            if any(flags):
                assert events.tolist() == want_events.tolist() and [bool(e) for e in events] == flags
            else:
                assert events is None and want_events is None


class TestFinalField:
    """A trajectory's ``final`` is its last record's field, bit for bit the field a lone march gives."""

    def test_lone_run(self, minimal_wave):
        traj = run_trajectory(minimal_wave, "tau", 1e-3, 40)
        assert traj.last_valid_step == 40
        assert traj.final.psi.tobytes() == evolve_tau(minimal_wave, 1e-3, 40).psi.tobytes()

    def test_tripped_stack_member(self, grid, minimal_wave):
        noise = to_wave(make_gaussian(GaussianParams(sigma2=0.5, b=-1.0), grid))
        waves = [minimal_wave, noise]
        runs = run_trajectories(_stack(waves), "tau", 1e-3, 250)
        assert runs[1].guard_tripped and runs[1].last_valid_step < 250 == runs[0].last_valid_step
        for wave, traj in zip(waves, runs):
            assert traj.final.psi.tobytes() == evolve_tau(wave, 1e-3, traj.last_valid_step).psi.tobytes()


class TestColumnarTrajectory:
    """A trajectory stores one float64 column per record field and reads them as rows."""

    @staticmethod
    def runs(grid, minimal_wave):
        tripping = to_wave(make_gaussian(GaussianParams(sigma2=0.17, b=-3.0), grid))
        t_run = run_trajectory(minimal_wave, "t", 0.05, 30)
        tau_run = run_trajectory(tripping, "tau", 1e-3, 50)
        assert tau_run.guard_tripped and not t_run.guard_tripped
        return t_run, tau_run

    def test_csv_equals_row_by_row_rendering(self, grid, minimal_wave):
        names = TRAJECTORY_HEADER.split(",")
        for traj in self.runs(grid, minimal_wave):
            reference = table_csv(names, ([getattr(r, name) for name in names] for r in traj.records))
            assert trajectory_csv(traj, "consistent") == reference

    def test_columns_and_rows(self, grid, minimal_wave):
        for traj in self.runs(grid, minimal_wave):
            for name in TRAJECTORY_HEADER.split(","):
                column = traj.column(name)
                assert column.dtype == np.float64 and column.shape == (len(traj.records),)
                assert not column.flags.writeable
            last = traj.records[-1]
            assert isinstance(last, TrajectoryRecord) and isinstance(last.step, int)
            assert last == TrajectoryRecord(**{name: traj.column(name)[-1] for name in TRAJECTORY_HEADER.split(",")})
            assert last.step == traj.last_valid_step == len(traj.records) - 1
            assert traj.records[::10] == tuple(traj.records[i] for i in range(0, len(traj.records), 10))
            assert traj.records is traj.records  # built once
            with pytest.raises(TypeError):
                traj.records[0] = last


class TestRates:
    def test_chirped_tau_rates(self, grid):
        # d(dx2)/dtau = 2 b sigma2 = 2; d(dp2)/dtau = -b/sigma2 = -1
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)
        ddx2, ddp2 = uncertainty_rates(state, "tau")
        assert abs(ddx2 - 2.0) < 1e-5
        assert abs(ddp2 + 1.0) < 1e-5
        assert abs(ddx2 * ddp2 + 2.0) < 1e-4

    def test_minimal_rates_saturate(self, minimal):
        ddx2, ddp2 = uncertainty_rates(minimal, "tau")
        assert abs(ddx2) < 1e-8
        assert abs(ddx2 * ddp2) < 1e-10

    def test_battery_products_nonpositive(self, battery):
        for label, state in battery:
            ddx2, ddp2 = uncertainty_rates(state, "tau")
            assert ddx2 * ddp2 <= 1e-8, label

    def test_t_flow_momentum_rate_vanishes(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)
        _, ddp2 = uncertainty_rates(state, "t")
        assert abs(ddp2) < 1e-8

    def test_t_flow_contraction_counterexample(self, grid):
        # contracting packets shrink delta_x2 under the t-flow: measured, not asserted
        state = make_gaussian(GaussianParams(sigma2=1.0, b=-0.5), grid)
        ddx2, _ = uncertainty_rates(state, "t")
        assert ddx2 < 0.0


class TestCrossFlow:
    def test_holomorphy_on_chirped_state(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)
        dk_dt, dh_dtau, defect = cross_flow_defect(state)
        assert abs(dk_dt - 0.5) < 1e-5
        assert abs(dh_dtau + 0.5) < 1e-5
        assert abs(defect) < 1e-6

    def test_holomorphy_on_battery_sample(self, battery):
        for label, state in battery[::5]:
            _, _, defect = cross_flow_defect(state)
            assert abs(defect) < 1e-6, label


class TestStackedFlowCalls:
    """evolve_tau and the probes take a stack: each member gets, bit for bit, its lone result."""

    def test_evolve_tau_stack_matches_lone_runs(self, battery):
        waves = [to_wave(state) for _, state in battery[::4]]
        for dtau in (1e-3, -1e-3):
            stacked = evolve_tau(_stack(waves), dtau, 60)
            assert stacked.psi.shape == (len(waves),) + waves[0].grid.shape
            for i, wave in enumerate(waves):
                assert stacked.psi[i].tobytes() == evolve_tau(wave, dtau, 60).psi.tobytes()

    def test_evolve_tau_trip_raises_first_member_as_alone(self, grid, minimal_wave):
        # the resolution guard trips for sigma2 = 0.17 long before the stability guard does for 0.5
        noise = to_wave(make_gaussian(GaussianParams(sigma2=0.5, b=-1.0), grid))
        resolution = to_wave(make_gaussian(GaussianParams(sigma2=0.17, b=-3.0), grid))
        with pytest.raises(ResolutionGuardError) as alone:
            evolve_tau(resolution, 1e-3, 300)
        with pytest.raises(ResolutionGuardError) as stacked:
            evolve_tau(_stack([minimal_wave, noise, resolution]), 1e-3, 300)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.steps_completed == alone.value.steps_completed > 0
        assert (alone.value.member, stacked.value.member) == (0, 2)

    def test_evolve_tau_refuses_a_second_member_axis(self, minimal_wave):
        with pytest.raises(GridMismatchError, match="one member axis"):
            evolve_tau(WaveField(grid=minimal_wave.grid, psi=minimal_wave.psi[None, None]), 1e-3, 1)

    @pytest.mark.parametrize("flow", ["tau", "t"])
    def test_uncertainty_rates_stack_matches_lone_calls(self, battery, flow):
        states = [state for _, state in battery]
        stacked = uncertainty_rates(_stack([to_wave(state) for state in states]), flow)
        lone = [uncertainty_rates(state, flow) for state in states]
        assert all(isinstance(rate, float) for rate in lone[0])
        for got, want in zip(stacked, zip(*lone)):
            assert got.tobytes() == np.array(want).tobytes()

    def test_cross_flow_defect_stack_matches_lone_calls(self, battery):
        states = [state for _, state in battery[::5]]
        stacked = cross_flow_defect(_stack([to_wave(state) for state in states]))
        lone = [cross_flow_defect(state) for state in states]
        for got, want in zip(stacked, zip(*lone)):
            assert got.tobytes() == np.array(want).tobytes()

    def test_probe_trip_names_the_first_tripping_member(self, grid, minimal_wave):
        tripping = to_wave(make_gaussian(GaussianParams(sigma2=0.13, b=-6.0), grid))
        with pytest.raises(ResolutionGuardError, match="guard tripped while probing uncertainty rates") as err:
            uncertainty_rates(_stack([minimal_wave, tripping, tripping]), "tau")
        assert (err.value.member, err.value.steps_completed) == (1, 0)


class TestGaussianOracleInternals:
    def test_lyapunov_identity_inside_oracle(self):
        # d(s_gen)/dtau = h_q holds exactly in the parameter ODEs
        times = np.linspace(0.0, 0.4, 5)
        sigma2, b, c = gaussian_flow(1.0, 0.5, 0.1, "tau", times)
        sg = 0.5 * b * sigma2 + c
        hq = (b**2 * sigma2 + 1.0 / (4.0 * sigma2)) / 2.0
        rate = np.gradient(sg, times)
        assert abs(rate[2] - hq[2]) < 1e-3

    @pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 1.3), (0.5, 1.0), (1.5, 1.0)])
    def test_closed_form_flow_matches_ode(self, hbar, mass):
        # the 4th-order centred theta-derivative of the closed form against the ODE's right-hand side;
        # measured worst at delta = 1e-4: 1.2e-11 relative to max(|rhs|, 1), bounded here with an 8x margin
        delta = 1e-4
        for flow, end in (("tau", 0.2), ("t", 4.0)):
            times = np.linspace(0.0, end, 8)
            for sigma2 in (0.5, 1.0, 2.0):
                for b in (-1.0, -0.3, 0.0, 0.5, 1.0):
                    def flowed(theta):
                        return np.array(gaussian_flow(sigma2, b, 0.1, flow, theta, hbar, mass))

                    rate = (flowed(times - 2 * delta) - 8 * flowed(times - delta)
                            + 8 * flowed(times + delta) - flowed(times + 2 * delta)) / (12 * delta)
                    rhs = np.array(gaussian_ode_rhs(times, flowed(times), flow, hbar, mass))
                    gap = np.abs(rate - rhs) / np.maximum(np.abs(rhs), 1.0)
                    assert gap.max() < 1e-10, (flow, sigma2, b)

    def test_gaussian_fit_recovers_battery_parameters(self, grid):
        # measured worst: 4.4e-16 relative in sigma2 and 4.4e-16 absolute in b
        for params in battery_params():
            sigma2, b = gaussian_fit(to_wave(make_gaussian(params, grid)))
            assert abs(sigma2 / params.sigma2 - 1.0) < 1e-14, params
            assert abs(b - params.b) < 1e-14, params

    def test_tau_flow_blow_up_refused(self):
        # a+ = 1/4 + 1/2 for sigma2 = 1, b = -1: 1 - 4 a+ D tau reaches 0 at tau* = 2/3
        sigma2, _, _ = gaussian_flow(1.0, -1.0, 0.0, "tau", 0.66)
        assert sigma2 > 0
        with pytest.raises(ValueError, match="blows up"):
            gaussian_flow(1.0, -1.0, 0.0, "tau", [0.1, 0.7])
        with pytest.raises(ValueError, match="flow must be"):
            gaussian_flow(1.0, 0.0, 0.0, "x", 0.1)


class TestPotentialClamp:
    def test_clamp_counter_reports_events(self, minimal_wave, monkeypatch):
        import qrel.dynamics as dyn_mod

        # force an artificially low clamp so the diagnostic path is exercised
        monkeypatch.setattr(dyn_mod, "W_MAX", 1e-3)
        traj = dyn_mod.run_trajectory(minimal_wave, "tau", 1e-3, 5)
        assert traj.clamp_events > 0

    def test_clamp_events_counted_per_member(self, grid, minimal_wave, monkeypatch):
        import qrel.dynamics as dyn_mod

        # W = x^2/4 - 1/2 on the minimal Gaussian: only part of the box is clipped
        monkeypatch.setattr(dyn_mod, "W_MAX", 1.0)
        waves = [minimal_wave, to_wave(make_gaussian(GaussianParams(sigma2=0.5, b=1.0), grid))]
        stacked = dyn_mod.run_trajectories(_stack(waves), "tau", 1e-3, 5)
        alone = [dyn_mod.run_trajectory(w, "tau", 1e-3, 5).clamp_events for w in waves]
        assert [t.clamp_events for t in stacked] == alone and alone[0] != alone[1]

    def test_no_clamping_on_battery_states(self, battery):
        import qrel.dynamics as dyn_mod

        for label, state in battery[:3]:
            traj = dyn_mod.run_trajectory(to_wave(state), "tau", 1e-3, 50)
            assert traj.clamp_events == 0, label


class TestDynamicsSuite:
    def test_ode_oracle_read_where_the_integration_ends(self):
        # 167 steps of 0.003 end at tau = 0.501; an oracle read at 0.5 fails both checks
        from qrel.config import ScenarioConfig
        from qrel.suites import suite_dynamics

        checks = {c.name: c for c in suite_dynamics(ScenarioConfig(step=0.003))[0]}
        ratio = "tau-flow order-2 convergence (error ratio)"
        for name in ("tau-flow vs Gaussian closed form (sigma2+b at tau=0.5)", ratio):
            assert checks[name].passed, (name, checks[name].measured)
        # the re-march at 0.0015 ends where the battery run does, so the two errors share a tau:
        # 4.0179 when it ran round(1/step) half-steps, to tau = 0.4995 against 0.501 (measured 3.99999)
        assert abs(checks[ratio].measured - 4.0) < 1e-3, checks[ratio].measured

    def test_default_suite_builds_no_rows(self, monkeypatch):
        # the suite reads columns and record counts only: no TrajectoryRecord is constructed
        from qrel.config import ScenarioConfig
        from qrel.suites import suite_dynamics

        built = []

        def counted(self, *args, _original=TrajectoryRecord.__init__):
            built.append(args)
            _original(self, *args)

        monkeypatch.setattr(TrajectoryRecord, "__init__", counted)
        suite_dynamics(ScenarioConfig())
        assert not built
        run_trajectory(to_wave(make_gaussian(GaussianParams(), Grid(n=64, length=24.0))), "t", 0.05, 3).records
        assert len(built) == 4  # the counter sees the rows a trajectory builds when they are read

    def test_closed_form_gap_catches_a_loosened_noise_cap(self, monkeypatch):
        # the battery run whose gap a noise cap of 40 lets grow past the tolerance
        from qrel.config import ScenarioConfig

        subject = subjects(ScenarioConfig())["s2=2,b=1,p0=0"]
        wave = to_wave(subject.state)
        assert tau_record_gap(run_trajectory(wave, "tau", 1e-3, 500), subject) < 1e-5
        monkeypatch.setattr("qrel.dynamics.NOISE_BUDGET_MAX", 40.0)
        assert tau_record_gap(run_trajectory(wave, "tau", 1e-3, 500), subject) > 1e-5
