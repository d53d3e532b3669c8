"""Functional evaluations and closed-form variational derivatives.

Expected values are Gaussian closed forms:
    integral |d sqrt(rho)|^2 = 1/(4 sigma^2)
    delta_p2_cl = b^2 sigma^2 + p0^2        (s = b x^2/2 + p0 x)
    h_cl = delta_p2_cl / 2m,  s_gen = b sigma^2 / 2 + c
"""

import numpy as np
import pytest

from qrel import (
    DegenerateStateError,
    FunctionalTag,
    GaussianParams,
    Grid,
    HydroState,
    delta_p2_cl,
    delta_p2_q,
    delta_x2,
    evaluate,
    fisher_information,
    h_cl,
    h_q,
    jacobi_defect,
    k_q,
    make_double_gaussian,
    make_gaussian,
    s_gen,
    sigma_x2,
    variational_derivative,
)
from qrel.functionals import fisher_integral, kinetic_integral, sqrt_density_curvature
from qrel.suites import _dilatation_sweep

T = FunctionalTag


class TestFisher:
    def test_unit_variance(self, minimal):
        assert abs(fisher_information(minimal) - 0.5) < 1e-10

    def test_wide_packet(self):
        wide = make_gaussian(GaussianParams(sigma2=4.0), Grid(512, 64.0))
        assert abs(fisher_information(wide) - 0.125) < 1e-10

    def test_independent_of_phase(self, grid, minimal):
        chirped = make_gaussian(GaussianParams(sigma2=1.0, b=3.0), grid)
        assert abs(fisher_information(chirped) - fisher_information(minimal)) < 1e-14


class TestDeltaX2:
    def test_consistent_convention(self, minimal):
        assert abs(delta_x2(minimal, "consistent") - 1.0) < 1e-10

    def test_paper_literal_convention(self, minimal):
        # the factor-2 reading doubles the dispersion; kept for documentation
        assert abs(delta_x2(minimal, "paper-literal") - 2.0) < 1e-10

    def test_uniform_density_is_degenerate(self, grid):
        uniform = HydroState(grid=grid, rho=np.full(grid.shape, 1.0 / grid.length),
                             s=np.zeros(grid.shape))
        with pytest.raises(DegenerateStateError):
            delta_x2(uniform)

    def test_unknown_convention_rejected(self, minimal):
        with pytest.raises(ValueError):
            delta_x2(minimal, "factor-8")


class TestSecondMoments:
    def test_sigma_x2_gaussian(self, minimal):
        assert abs(sigma_x2(minimal) - 1.0) < 1e-10

    def test_sigma_x2_shifted(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, x0=3.0), grid)
        assert abs(sigma_x2(state) - 1.0) < 1e-10

    def test_sigma_x2_bimodal(self, grid):
        state = make_double_gaussian(3.0, 1.0, grid)
        assert abs(sigma_x2(state) - 10.0) < 1e-8

    @staticmethod
    def centred_sum(state):
        # quadrature(rho |x - mean|^2) with the mean quadrature(rho x), axis by axis
        total = 0.0
        for xc in state.grid.coords:
            mean = state.grid.quadrature(state.rho * xc)
            mean = np.reshape(mean, np.shape(mean) + (1,) * state.grid.dim)
            total += state.grid.quadrature(state.rho * (xc - mean) ** 2)
        return total

    def test_sigma_x2_matches_the_centred_sum(self, grid):
        # from raw moments, so within 64 eps of quadrature(rho |x|^2), which sigma2 + x0^2
        # makes 11 for the last state (2.5e-14 apart there, 2.2e-16 on centred ones)
        params = [GaussianParams(sigma2=1.0), GaussianParams(sigma2=0.5, b=1.0, p0=2.0, x0=1.5),
                  GaussianParams(sigma2=2.0, x0=-3.0)]
        states = [make_gaussian(p, grid) for p in params] + [make_double_gaussian(3.0, 1.0, grid)]
        states.append(make_gaussian(GaussianParams(sigma2=1.0, b=0.5, x0=1.0), Grid(n=64, length=24.0, dim=2)))
        wide = HydroState(grid=grid, rho=states[2].rho.astype(np.longdouble), s=np.zeros(grid.shape))
        for state in states + [wide]:
            eps = np.finfo(state.rho.dtype).eps
            raw = state.grid.quadrature(state.rho * sum(c**2 for c in state.grid.coords))
            assert abs(sigma_x2(state) - self.centred_sum(state)) <= 64 * eps * raw
        stack = HydroState(grid=grid, rho=np.stack([s.rho for s in states[:4]]), s=np.zeros(grid.shape))
        assert np.array_equal(sigma_x2(stack), [sigma_x2(s) for s in states[:4]])
        assert type(sigma_x2(states[0])) is float and type(sigma_x2(wide)) is np.longdouble

    def test_delta_p2_cl_zero_phase(self, minimal):
        assert delta_p2_cl(minimal) == pytest.approx(0.0, abs=1e-14)

    def test_delta_p2_cl_boosted(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, p0=2.0), grid)
        assert abs(delta_p2_cl(state) - 4.0) < 1e-10

    def test_delta_p2_cl_chirped(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)
        assert abs(delta_p2_cl(state) - 1.0) < 1e-10

    def test_delta_p2_q_minimal(self, minimal):
        assert abs(delta_p2_q(minimal) - 0.25) < 1e-10

    def test_delta_p2_q_boosted(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, p0=2.0), grid)
        assert abs(delta_p2_q(state) - 4.25) < 1e-10

    def test_minimal_product(self, minimal):
        assert abs(delta_x2(minimal) * delta_p2_q(minimal) - 0.25) < 1e-10


class TestEnergyFunctionals:
    def test_minimal_gaussian_values(self, minimal):
        assert abs(h_q(minimal) - 0.125) < 1e-10
        assert abs(k_q(minimal) + 0.125) < 1e-10
        assert abs(s_gen(minimal)) < 1e-10
        assert abs(h_cl(minimal)) < 1e-14

    def test_chirped_gaussian_values(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)
        assert abs(h_q(state) - 0.625) < 1e-10
        assert abs(k_q(state) - 0.375) < 1e-10
        assert abs(s_gen(state) - 0.5) < 1e-10

    def test_energy_is_momentum_dispersion(self, battery):
        for label, state in battery:
            assert abs(h_q(state) - delta_p2_q(state) / (2.0 * state.mass)) < 1e-14, label

    def test_quantum_gap_nonnegative(self, battery):
        for label, state in battery:
            gap = h_q(state) - k_q(state)
            expected = state.hbar**2 / state.mass * (fisher_information(state) / 2.0)
            assert gap >= 0.0, label
            assert abs(gap - expected) < 1e-12, label

    def test_evaluate_dispatch(self, minimal):
        assert evaluate(T.H_Q, minimal) == h_q(minimal)
        assert evaluate(T.DELTA_X2, minimal) == delta_x2(minimal)


class TestCramerRao:
    def test_battery_inequality_with_gaussian_equality(self, battery):
        for label, state in battery:
            gap = sigma_x2(state) - delta_x2(state, "consistent")
            assert gap >= -1e-9, label
            assert abs(gap) < 1e-9, label  # equality on Gaussians

    def test_bimodal_strict_inequality(self, grid):
        state = make_double_gaussian(3.0, 1.0, grid)
        assert sigma_x2(state) > delta_x2(state, "consistent") + 1.0


class TestClassicalLimit:
    def test_quadratic_hbar_scaling(self, grid):
        hbars = np.array([1.0, 0.5, 0.25, 0.125])
        gaps_h, gaps_k = [], []
        for hb in hbars:
            state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0, p0=2.0), grid, hbar=hb)
            gaps_h.append(abs(h_q(state) - h_cl(state)))
            gaps_k.append(abs(k_q(state) - h_cl(state)))
        slope_h = np.polyfit(np.log(hbars), np.log(gaps_h), 1)[0]
        slope_k = np.polyfit(np.log(hbars), np.log(gaps_k), 1)[0]
        assert abs(slope_h - 2.0) < 0.01
        assert abs(slope_k - 2.0) < 0.01


class TestVariationalDerivatives:
    def test_s_gen_by_s_is_density(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)
        assert np.array_equal(variational_derivative(T.S_GEN, state, "s"), state.rho)

    def test_h_q_by_s_vanishes_for_zero_phase(self, minimal):
        assert np.abs(variational_derivative(T.H_Q, minimal, "s")).max() < 1e-14

    def test_h_q_by_rho_gaussian_quantum_potential(self, minimal, grid):
        # lap(sqrt rho)/sqrt rho = x^2/4 - 1/2 for the unit Gaussian
        x = grid.coords[0]
        expected = -0.5 * (x**2 / 4.0 - 0.5)
        field = variational_derivative(T.H_Q, minimal, "rho")
        mask = minimal.rho > 1e-12
        assert np.abs((field - expected)[mask]).max() < 1e-8

    def test_fisher_and_dispersion_derivatives_share_structure(self, minimal):
        q = variational_derivative(T.FISHER, minimal, "rho")
        d = variational_derivative(T.DELTA_X2, minimal, "rho")
        mask = minimal.rho > 1e-10
        # delta_x2 = 1/(4 I) with I = 1/4: d(delta_x2)/drho = q * (-1/2) / (4 I^2) ...
        ratio = d[mask] / q[mask]
        assert np.abs(ratio - ratio[0]).max() < 1e-9

    def test_component_validation(self, minimal):
        with pytest.raises(ValueError):
            variational_derivative(T.H_Q, minimal, "psi")


class TestDegenerateDensities:
    def test_interior_node_rejected_by_quantum_fields(self, grid):
        x = grid.coords[0]
        rho = x**2 * np.exp(-(x**2) / 2.0)
        rho /= grid.quadrature(rho)
        nodal = HydroState(grid=grid, rho=rho, s=np.zeros(grid.shape))
        with pytest.raises(DegenerateStateError):
            variational_derivative(T.H_Q, nodal, "rho")
        with pytest.raises(DegenerateStateError):
            variational_derivative(T.FISHER, nodal, "rho")

    def test_interior_node_rejected_in_2d(self):
        # a node along the first axis only: every line of that axis crosses it
        grid = Grid(128, 20.0, 2)
        x, y = grid.coords
        rho = x**2 * np.exp(-(x**2 + y**2) / 2.0)
        nodal = HydroState(grid=grid, rho=rho / grid.quadrature(rho), s=np.zeros(grid.shape))
        with pytest.raises(DegenerateStateError, match="interior node"):
            variational_derivative(T.FISHER, nodal, "rho")

    def test_tail_zeros_are_fine(self, minimal):
        # exterior sub-floor tails never trip the interior-node guard
        field = variational_derivative(T.H_Q, minimal, "rho")
        assert np.isfinite(field[minimal.rho > 1e-12]).all()


class TestStackedEvaluation:
    """Each tag evaluator returns, for a stack, bit for bit each member's lone value."""

    @pytest.mark.parametrize("tag", list(T))
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_per_member_values(self, battery, tag, dtype):
        members = [state for _, state in battery[::6]]
        grid = members[0].grid
        stack = HydroState(grid=grid, rho=np.stack([m.rho for m in members]).astype(dtype),
                           s=np.stack([m.s for m in members]).astype(dtype))
        values = evaluate(tag, stack)
        assert np.shape(values) == (len(members),)
        for i, m in enumerate(members):
            lone = HydroState(grid=grid, rho=m.rho.astype(dtype), s=m.s.astype(dtype))
            assert values[i] == evaluate(tag, lone)

    def test_vanishing_fisher_refused_per_member(self, grid, minimal):
        rho = np.stack([minimal.rho, np.full(grid.shape, 1.0 / grid.length)])
        stack = HydroState(grid=grid, rho=rho, s=minimal.s)
        with pytest.raises(DegenerateStateError):
            delta_x2(stack)


class TestBuildingBlocksOncePerState:
    """Each building block is computed once per state and shared by every functional of it."""

    def test_dilatation_sweep_transforms_each_state_once(self, grid, grid_calls):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)
        _dilatation_sweep(state, [0.5])
        # one Fisher integral for the state and one for its dilation, shared by the eight
        # functionals the sweep reads of each
        assert grid_calls["gradient_energy"] == 2

    def test_jacobi_inner_bracket_takes_one_laplacian_per_stack(self, grid, grid_calls):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)
        jacobi_defect(state)
        # the inner bracket {H_q, K_q} on each of 12 stacks of bumped densities, on the
        # s-sweep's unbumped base, whose density its 12 stacks hold, and on the state itself:
        # the rho-fields of H_q and K_q share one curvature quotient
        assert grid_calls["laplacian"] == 14

    def test_public_blocks_return_arrays_the_caller_owns(self, battery):
        members = [state for _, state in battery[:3]]
        stack = HydroState(grid=members[0].grid, rho=np.stack([m.rho for m in members]),
                           s=np.stack([m.s for m in members]))
        for block in (fisher_integral, kinetic_integral, sqrt_density_curvature):
            first = block(stack)
            expected = first.copy()
            first[...] = 0.0  # a caller's own array: writing it leaves the state's block alone
            assert block(stack).tobytes() == expected.tobytes()
        field = variational_derivative(T.DELTA_P2_CL, stack, "rho")
        field[...] = 0.0
        assert np.array_equal(variational_derivative(T.DELTA_P2_CL, stack, "rho"),
                              sum(g**2 for g in stack.grid.fd_gradient(stack.s)))
