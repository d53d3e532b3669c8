"""State model: constructors, polar conversions, phase extraction."""

import numpy as np
import pytest

from qrel import (
    ConfigurationError,
    DegenerateStateError,
    GaussianParams,
    Grid,
    GridMismatchError,
    HydroState,
    WaveField,
    evolve_tau,
    from_wave,
    make_double_gaussian,
    make_gaussian,
    p_translation,
    phase_gradient,
    s_gen,
    sigma_x2,
    to_wave,
)
from qrel.states import check_nodeless_interior, reduced_current


class TestMakeGaussian:
    def test_normalization(self, minimal, grid):
        assert abs(grid.quadrature(minimal.rho) - 1.0) < 1e-12

    def test_second_moment(self, minimal):
        assert abs(sigma_x2(minimal) - 1.0) < 1e-10

    def test_mean_momentum(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, p0=2.0), grid)
        assert abs(p_translation(state) - 2.0) < 1e-10

    def test_tail_violation_names_parameters(self, grid):
        with pytest.raises(ConfigurationError, match="sigma2=30"):
            make_gaussian(GaussianParams(sigma2=30.0), grid)

    @pytest.mark.parametrize("x0", [15.0, -15.0])
    def test_tail_checked_on_both_faces(self, grid, x0):
        # |psi| reaches 1.5e-3 at the last sample for x0 = 15 and 1.2e-3 at the first for x0 = -15
        with pytest.raises(ConfigurationError, match=f"x0={x0!r}"):
            make_gaussian(GaussianParams(sigma2=1.0, x0=x0), grid)

    def test_translation_invariance_of_variance(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, x0=3.0), grid)
        assert abs(sigma_x2(state) - 1.0) < 1e-10

    def test_bimodal_variance(self, grid):
        # half-weight Gaussians at +-a: variance sigma^2 + a^2
        state = make_double_gaussian(3.0, 1.0, grid)
        assert abs(sigma_x2(state) - 10.0) < 1e-8

    def test_bimodal_tail_checked_as_a_gaussian_is(self, grid):
        # at offset 18 the bump's amplitude on the faces is 0.18; a lone bump at x0 = 18 is refused too
        with pytest.raises(ConfigurationError, match="grid.length: 40.0 .* tail 1.794e-01 .*offset=18.0"):
            make_double_gaussian(18.0, 1.0, grid)
        with pytest.raises(ConfigurationError, match="x0=18.0"):
            make_gaussian(GaussianParams(sigma2=1.0, x0=18.0), grid)

    def test_negative_density_rejected(self, grid):
        rho = np.full(grid.shape, 1.0 / grid.length)
        rho[3] = -rho[3]
        with pytest.raises(DegenerateStateError):
            HydroState(grid=grid, rho=rho, s=np.zeros(grid.shape))


class TestToWave:
    def test_zero_phase_gives_real_field(self, minimal):
        w = to_wave(minimal)
        assert np.abs(w.psi.imag).max() == 0.0
        assert np.allclose(w.psi.real, minimal.sqrt_rho)

    def test_modulus_identity(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0, p0=2.0), grid)
        w = to_wave(state)
        assert np.abs(np.abs(w.psi) ** 2 - state.rho).max() < 1e-14

    def test_norm_preserved(self, grid):
        state = make_gaussian(GaussianParams(sigma2=0.5, b=-1.0), grid)
        assert abs(to_wave(state).norm - 1.0) < 1e-12

    def test_cached_spectral_fields_are_read_only(self, grid):
        w = to_wave(make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid))
        for array in (w.rho, w.psi_hat, *w.grad_psi):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestStateArrays:
    """A state copies every array it is built from, so no caller can change it."""

    def test_writable_sources_are_copied(self, minimal):
        psi = to_wave(minimal).psi.copy()
        w = WaveField(grid=minimal.grid, psi=psi)
        rho, s = minimal.rho.copy(), minimal.s.copy()
        state = HydroState(grid=minimal.grid, rho=rho, s=s)
        psi[:], rho[:], s[:] = 0.0, 0.0, 1.0
        assert np.array_equal(w.psi, to_wave(minimal).psi)
        assert np.array_equal(state.rho, minimal.rho) and np.array_equal(state.s, minimal.s)

    def test_read_only_sources_are_copied(self, minimal):
        # an owner may switch writes back on, so read-only is no promise
        psi = to_wave(minimal).psi.copy()
        psi.setflags(write=False)
        w = WaveField(grid=minimal.grid, psi=psi)
        assert w.psi is not psi
        psi.setflags(write=True)
        psi[:] = 0.0
        assert np.array_equal(w.psi, to_wave(minimal).psi)


class TestFromWave:
    def test_real_positive_field_has_zero_phase(self, minimal_wave):
        state = from_wave(minimal_wave)
        assert np.abs(state.s).max() < 1e-14

    def test_density_is_modulus_squared(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)
        w = to_wave(state)
        assert np.abs(from_wave(w).rho - np.abs(w.psi) ** 2).max() < 1e-14

    def test_current_gives_quadratic_phase_gradient(self, grid):
        # a wave field's phase gradient is hbar j / rho; phase_gradient takes a HydroState only
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)
        w = to_wave(state)
        (j,) = reduced_current(w)
        mask = state.rho > 1e-12
        assert np.abs(w.hbar * j[mask] / w.rho[mask] - grid.coords[0][mask]).max() < 1e-8
        with pytest.raises(TypeError, match="expected a HydroState, got WaveField"):
            phase_gradient(w)

    def test_round_trip_phase_up_to_constant(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0, p0=2.0, c=0.3), grid)
        back = from_wave(to_wave(state))
        mask = state.rho > 1e-12
        diff = (back.s - state.s)[mask]
        assert np.abs(diff - diff.mean()).max() < 1e-8
        assert np.abs(back.rho - state.rho).max() < 1e-14

    def test_nodes_refused_by_the_nodeless_check(self, grid):
        # the decomposition keeps a noded field; the fields that divide by sqrt(rho) refuse it
        x = grid.coords[0]
        psi = x * np.exp(-(x**2) / 4.0)
        psi = psi / np.sqrt(grid.quadrature(np.abs(psi) ** 2))
        state = from_wave(WaveField(grid=grid, psi=psi.astype(complex)))
        with pytest.raises(DegenerateStateError):
            check_nodeless_interior(state)

    def test_norm_preserved_by_conversions(self, grid):
        state = make_gaussian(GaussianParams(sigma2=2.0, b=-1.0, p0=2.0), grid)
        assert abs(from_wave(to_wave(state)).norm - 1.0) < 1e-12


class TestPhaseFromIncrements:
    """``WaveField.s`` sums the principal increments between neighbours outward from the center."""

    @staticmethod
    def unwrap_reference(w):
        # np.unwrap along the box from its first sample, anchored at the center sample
        angles = np.angle(w.psi)
        out = np.unwrap(angles, axis=-1)
        c = w.grid.n // 2
        return w.hbar * (out - out[..., c:c + 1] + angles[..., c:c + 1])

    @classmethod
    def assert_matches_unwrap(cls, w):
        # compared where rho > 1e-20 of each member's peak, to 1e-13 of max(1, |s|): np.unwrap
        # sums its corrections with rounding of its own, and sits up to 1.28e-13 off the phase
        # a battery state was made with (at |s| = 118; sigma2 = 2, b = -1, p0 = 2), where the
        # increments sit 4.4e-16 off it
        ref = cls.unwrap_reference(w)
        body = w.rho > 1e-20 * w.rho.max(axis=-1, keepdims=True)
        assert (np.abs(w.s - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))[body].all()

    def test_battery_phases(self, battery):
        for label, state in battery:
            w = to_wave(state)
            self.assert_matches_unwrap(w)
            body = w.rho > 1e-20 * w.rho.max()
            assert np.abs(w.s - state.s)[body].max() < 1e-14, label  # the phase the state was made with

    def test_stack_of_tau_marched_battery(self, battery):
        stack = WaveField(grid=battery[0][1].grid, psi=np.stack([to_wave(state).psi for _, state in battery]))
        marched = evolve_tau(stack, 1e-3, 50)
        for w in (stack, marched):
            self.assert_matches_unwrap(w)
            for i in range(len(battery)):
                assert w.take(i).s.tobytes() == w.s[i].tobytes()

    def test_phase_winding_through_the_box(self, grid):
        # a plane wave whose phase winds 40 times across the box: increments of 0.49 rad
        k = 2 * np.pi * 40 / grid.length
        w = WaveField(grid=grid, psi=np.exp(1j * k * grid.coords[0]) / np.sqrt(grid.length), hbar=0.5)
        assert np.abs(w.s - 0.5 * k * grid.coords[0]).max() < 1e-12


class TestGaugeInvariance:
    @pytest.mark.parametrize("theta", [0.7, -1.2])
    def test_global_phase_shifts_only_s_gen(self, grid, theta):
        from qrel import delta_p2_q, fisher_information, h_q

        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)
        w = to_wave(state)
        shifted = WaveField(grid=grid, psi=w.psi * np.exp(1j * theta), hbar=w.hbar, mass=w.mass)
        a, b = from_wave(w), from_wave(shifted)
        assert abs(h_q(a) - h_q(b)) < 1e-12
        assert abs(delta_p2_q(a) - delta_p2_q(b)) < 1e-12
        assert abs(fisher_information(a) - fisher_information(b)) < 1e-13
        assert abs((s_gen(b) - s_gen(a)) - w.hbar * theta) < 1e-10


class TestPhaseGradientOfHydroState:
    def test_exact_for_quadratic_phase(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=-1.0, p0=2.0), grid)
        (ds,) = phase_gradient(state)
        expected = -grid.coords[0] + 2.0
        interior = np.abs(grid.coords[0]) < grid.length / 2 - 2 * grid.spacing
        assert np.abs((ds - expected)[interior]).max() < 1e-12


class TestStackedHydroState:
    """Leading axes of rho and s broadcast; every member keeps the invariants."""

    def test_members_broadcast(self, grid, minimal):
        wide = make_gaussian(GaussianParams(sigma2=2.0), grid)
        stack = HydroState(grid=grid, rho=np.stack([minimal.rho, wide.rho]), s=minimal.s[np.newaxis])
        assert stack.norm.shape == (2,)
        assert np.abs(stack.norm - 1.0).max() < 1e-12

    def test_one_member_off_normalization_rejected(self, grid, minimal):
        rho = np.stack([minimal.rho, 1.001 * minimal.rho, minimal.rho])
        with pytest.raises(DegenerateStateError, match="not normalized"):
            HydroState(grid=grid, rho=rho, s=minimal.s)

    def test_one_member_negative_rejected(self, grid, minimal):
        rho = np.stack([minimal.rho] * 3)
        rho[1, 7] = -1e-300
        with pytest.raises(DegenerateStateError, match="negative"):
            HydroState(grid=grid, rho=rho, s=minimal.s)

    def test_stacks_that_do_not_broadcast_rejected(self, grid, minimal):
        with pytest.raises(GridMismatchError):
            HydroState(grid=grid, rho=np.stack([minimal.rho] * 3), s=np.stack([minimal.s] * 2))

    def test_adoption_keeps_its_array_and_checks_as_construction_does(self, grid, minimal):
        base = HydroState(grid=grid, rho=minimal.rho[np.newaxis], s=minimal.s[np.newaxis],
                          hbar=0.7, mass=1.3)
        s = np.stack([minimal.s, 2.0 * minimal.s])
        stack = HydroState._adopt(base, s=s)
        assert stack.s is s and not s.flags.writeable and stack.rho is base.rho
        assert (stack.hbar, stack.mass) == (0.7, 1.3) and stack.sqrt_rho is base.sqrt_rho
        rho = np.stack([minimal.rho] * 3)
        rho[1, 7] = -1e-300
        with pytest.raises(DegenerateStateError, match="negative"):
            HydroState._adopt(base, rho=rho)
        with pytest.raises(DegenerateStateError, match="not normalized"):
            HydroState._adopt(base, rho=np.stack([minimal.rho, 1.001 * minimal.rho]))
        pair = HydroState(grid=grid, rho=np.stack([minimal.rho] * 2), s=np.stack([minimal.s] * 2))
        with pytest.raises(GridMismatchError):
            HydroState._adopt(pair, s=np.stack([minimal.s] * 3))
        for fresh in (dict(rho=np.asfortranarray(np.stack([minimal.rho] * 2))),
                      dict(s=minimal.s.astype(np.float32)[np.newaxis]),
                      dict(rho=minimal.rho.copy(), s=minimal.s.copy()),
                      dict(s=minimal.s.copy(), sqrt_rho=minimal.sqrt_rho.copy())):
            with pytest.raises(TypeError):
                HydroState._adopt(base, **fresh)

    def test_one_noded_member_refused(self, grid, minimal):
        x = grid.coords[0]
        noded = x**2 * np.exp(-(x**2) / 2.0)
        noded /= grid.quadrature(noded)
        check_nodeless_interior(HydroState(grid=grid, rho=np.stack([minimal.rho] * 2), s=minimal.s))
        stack = HydroState(grid=grid, rho=np.stack([minimal.rho, noded, minimal.rho]), s=minimal.s)
        with pytest.raises(DegenerateStateError, match="interior node"):
            check_nodeless_interior(stack)

    @staticmethod
    def refused_alone(member):
        # the per-member rule: a dip below 1e-15 of the peak between the first
        # and last samples above 1e-6 of it
        peak = float(member.max())
        body = np.flatnonzero(member > 1e-6 * peak)
        return float(member[body[0]:body[-1] + 1].min()) < 1e-15 * peak

    def test_stack_refused_exactly_when_a_member_is(self, grid):
        # two-bump densities whose central dip sits on either side of 1e-15 of
        # the peak, a density wrapping round the box faces (its body spans the
        # box, the empty middle is interior) and nodeless ones
        x = grid.coords[0]
        shapes = [np.exp(-((x - a) ** 2)) + np.exp(-((x + a) ** 2)) for a in (5.0, 5.9, 5.95, 6.5)]
        shapes += [np.exp(-((np.abs(x) - 20.0) ** 2)), np.exp(-(x**2) / 8.0), np.exp(-((x - 12.0) ** 2))]
        members = [f / grid.quadrature(f) for f in shapes]
        refused = [self.refused_alone(m) for m in members]
        assert 0 < sum(refused) < len(members)
        accepted = [m for m, r in zip(members, refused, strict=True) if not r]
        check_nodeless_interior(HydroState(grid=grid, rho=np.stack(accepted), s=np.zeros(grid.shape)))
        for member, r in zip(members, refused, strict=True):
            if r:
                stack = HydroState(grid=grid, rho=np.stack(accepted + [member]), s=np.zeros(grid.shape))
                with pytest.raises(DegenerateStateError, match="interior node"):
                    check_nodeless_interior(stack)

    @staticmethod
    def refused_by_lines(member):
        # the per-member rule along every grid line of every axis; a line with no
        # sample above 1e-6 of the member's peak has no interior
        peak = float(member.max())
        for axis in range(member.ndim):
            for line in np.moveaxis(member, axis, -1).reshape(-1, member.shape[axis]):
                body = np.flatnonzero(line > 1e-6 * peak)
                if body.size and float(line[body[0]:body[-1] + 1].min()) < 1e-15 * peak:
                    return True
        return False

    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_line_of_every_axis(self, dim):
        # nodes across either axis, rings whose central dip sits on either side of 1e-15 of
        # the peak, bumps split along the last axis, and nodeless packets off the center
        grid = Grid(32, 24.0, dim)
        r2 = sum(c**2 for c in grid.coords)
        first, last = grid.coords[0], grid.coords[-1]
        shapes = [first**2 * np.exp(-r2 / 2.0), last**2 * np.exp(-r2 / 2.0)]
        shapes += [np.exp(-((np.sqrt(r2) - a) ** 2)) for a in (5.0, 6.5)]
        shapes += [np.exp(-(r2 - last**2 + (np.abs(last) - 6.5) ** 2)), np.exp(-r2 / 4.0),
                   np.exp(-((first - 3.0) ** 2 + r2 - first**2))]
        members = [f / grid.quadrature(f) for f in shapes]
        refused = [self.refused_by_lines(m) for m in members]
        assert refused == [True, True, False, True, True, False, False]
        accepted = [m for m, r in zip(members, refused, strict=True) if not r]
        check_nodeless_interior(HydroState(grid=grid, rho=np.stack(accepted), s=np.zeros(grid.shape)))
        for member, r in zip(members, refused, strict=True):
            if r:
                stack = HydroState(grid=grid, rho=np.stack(accepted + [member]), s=np.zeros(grid.shape))
                with pytest.raises(DegenerateStateError, match="interior node"):
                    check_nodeless_interior(stack)


class TestStackedWaveField:
    """Every cache of a stacked field holds, bit for bit, each member's lone value."""

    CACHES = ("rho", "s", "psi_hat", "grad_psi")

    @staticmethod
    def members(grid):
        # phases that differ by more than pi between members at the same sample, so an
        # unwrap along the member axis would show in s
        params = (GaussianParams(sigma2=1.0, b=1.0, p0=2.0), GaussianParams(sigma2=0.5, b=-1.0, c=3.0),
                  GaussianParams(sigma2=2.0, x0=1.5))
        return [to_wave(make_gaussian(p, grid)) for p in params]

    @classmethod
    def assert_caches_equal(cls, stacked, lone):
        for name in cls.CACHES:
            got, want = getattr(stacked, name), getattr(lone, name)
            for g, w in zip(got, want) if isinstance(want, tuple) else [(got, want)]:
                assert g.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("dim, n, length", [(1, 512, 40.0), (2, 64, 36.0)], ids=["1d", "2d"])
    def test_caches_match_members(self, dim, n, length):
        grid = Grid(n=n, length=length, dim=dim)
        members = self.members(grid)
        stack = WaveField(grid=grid, psi=np.stack([m.psi for m in members]))
        for i, member in enumerate(members):
            self.assert_caches_equal(stack.take(i), member)
        assert np.array_equal(stack.norm, [m.norm for m in members])

    def test_non_contiguous_stack_made_contiguous(self, grid):
        members = self.members(grid)
        psi = np.stack([m.psi for m in members], axis=-1).T  # members along the innermost stride
        assert not psi.flags.c_contiguous
        stack = WaveField(grid=grid, psi=psi)
        assert stack.psi.flags.c_contiguous
        for i, member in enumerate(members):
            self.assert_caches_equal(stack.take(i), member)

    def test_wrong_trailing_shape_rejected(self, grid, minimal):
        psi = np.sqrt(minimal.rho) * np.exp(1j * minimal.s)
        with pytest.raises(GridMismatchError):
            WaveField(grid=grid, psi=np.stack([psi[::2]] * 2))
