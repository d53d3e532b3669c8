"""Bracket engine: identities, the bump oracle, generator and Jacobi checks."""

import numpy as np
import pytest

from qrel import (
    FunctionalTag,
    GaussianParams,
    Grid,
    HydroState,
    delta_p2_q,
    delta_x2,
    evaluate,
    fd_functional_derivative,
    generator_check,
    h_q,
    jacobi_defect,
    k_q,
    make_gaussian,
    poisson_bracket,
)
from qrel import brackets
from qrel.brackets import ORACLE_RHO_CUTOFF, bracket_of_fields
from qrel.errors import GridMismatchError
from qrel.suites import oracle_field_gap

T = FunctionalTag

ALL_TAGS = (T.S_GEN, T.H_CL, T.H_Q, T.K_Q, T.FISHER, T.DELTA_X2,
            T.DELTA_P2_CL, T.DELTA_P2_Q, T.SIGMA_X2, T.P_TRANSLATION)


@pytest.fixture(scope="module")
def chirped(grid):
    return make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid)


@pytest.fixture(scope="module")
def generic(grid):
    return make_gaussian(GaussianParams(sigma2=0.8, b=-1.0, p0=2.0), grid)


class TestBracketValues:
    def test_self_bracket_vanishes(self, generic):
        for tag in (T.H_Q, T.S_GEN, T.DELTA_P2_Q):
            assert poisson_bracket(tag, tag, generic) == 0.0

    def test_antisymmetry_all_pairs(self, generic):
        for a in ALL_TAGS:
            for b in ALL_TAGS:
                fwd = poisson_bracket(a, b, generic)
                rev = poisson_bracket(b, a, generic)
                assert abs(fwd + rev) < 1e-12

    def test_dilatation_generates_companion(self, chirped):
        # {S, H_q} on the b=1 Gaussian equals k_q = 0.375
        res = poisson_bracket(T.S_GEN, T.H_Q, chirped)
        assert abs(res - 0.375) < 1e-8
        assert abs(res - k_q(chirped)) < 1e-8

    def test_companion_generates_hamiltonian(self, minimal):
        res = poisson_bracket(T.S_GEN, T.K_Q, minimal)
        assert abs(res - 0.125) < 1e-8
        assert abs(res - h_q(minimal)) < 1e-8

    def test_identities_on_battery(self, battery):
        for label, state in battery:
            sh = poisson_bracket(T.S_GEN, T.H_Q, state)
            sk = poisson_bracket(T.S_GEN, T.K_Q, state)
            assert abs(sh - k_q(state)) <= max(1e-8, 1e-6 * abs(k_q(state))), label
            assert abs(sk - h_q(state)) <= max(1e-8, 1e-6 * abs(h_q(state))), label

    def test_translations_commute_with_hamiltonian(self, battery):
        for label, state in battery:
            assert abs(poisson_bracket(T.P_TRANSLATION, T.H_Q, state)) < 1e-8, label

    def test_bilinearity_of_the_field_bracket(self, generic):
        grid = generic.grid
        rng = np.random.default_rng(3)
        f = [rng.standard_normal(grid.shape) for _ in range(4)]
        g = [rng.standard_normal(grid.shape) for _ in range(4)]
        lhs = bracket_of_fields(grid, 2.5 * f[0] + g[0], 2.5 * f[1] + g[1], f[2], f[3])
        rhs = 2.5 * bracket_of_fields(grid, f[0], f[1], f[2], f[3]) \
            + bracket_of_fields(grid, g[0], g[1], f[2], f[3])
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_closed_form_vs_oracle_value(self, generic):
        closed = poisson_bracket(T.S_GEN, T.H_Q, generic)
        oracle = poisson_bracket(T.S_GEN, T.H_Q, generic, method="finite-difference-oracle")
        assert abs(closed - oracle) <= max(1e-8, 1e-6 * abs(closed))


class TestOracle:
    def test_linear_functional_recovers_density(self, chirped):
        field = fd_functional_derivative(T.S_GEN, chirped, "s")
        mask = chirped.rho > 1e-12
        assert np.abs((field - chirped.rho)[mask]).max() < 1e-8

    def test_classical_energy_zero_phase(self, minimal):
        field = fd_functional_derivative(T.H_CL, minimal, "rho")
        mask = minimal.rho > 1e-12
        assert np.abs(field[mask]).max() < 1e-8

    def test_quantum_potential_up_to_constant(self, minimal):
        x = minimal.grid.coords[0]
        expected = -0.5 * (x**2 / 4.0 - 0.5)
        mask = minimal.rho > 1e-10
        field = fd_functional_derivative(T.H_Q, minimal, "rho", where=mask)
        diff = (field - expected)[mask]
        assert np.abs(diff - diff.mean()).max() < 1e-6

    @pytest.mark.parametrize("tag", [T.S_GEN, T.H_Q, T.K_Q, T.DELTA_P2_Q])
    @pytest.mark.parametrize("component", ["rho", "s"])
    def test_matches_closed_forms(self, generic, tag, component):
        assert oracle_field_gap(tag, generic, component) < 1e-6

    def test_nonpositive_epsilon_rejected(self, minimal):
        # one sweep serves both components; neither may return a silent zero field
        for component in ("rho", "s"):
            with pytest.raises(ValueError):
                fd_functional_derivative(T.H_Q, minimal, component, epsilon=-1e-5)

    def test_one_sweep_per_field(self, minimal, monkeypatch):
        sweeps = []
        honest = brackets._fd_sweep

        def counted(*args):
            sweeps.append(args[3])
            return honest(*args)

        monkeypatch.setattr(brackets, "_fd_sweep", counted)
        fd_functional_derivative(T.H_Q, minimal, "s", epsilon=1e-5)
        assert sweeps == [1e-5]

    def test_bump_refinement_agrees(self, minimal):
        coarse = fd_functional_derivative(T.H_Q, minimal, "s", epsilon=1e-5)
        fine = fd_functional_derivative(T.H_Q, minimal, "s", epsilon=5e-6)
        assert np.abs(fine - coarse).max() < 1e-8

    @pytest.mark.parametrize("component", ["rho", "s"])
    def test_stacked_state_refused(self, component):
        # the sweep bumps one state's samples; a stack is refused before any sweep, by name
        grid = Grid(64, 40.0)
        one, two = (make_gaussian(GaussianParams(sigma2=sigma2), grid) for sigma2 in (1.0, 2.0))
        pair = HydroState(grid, np.stack([one.rho, two.rho]), np.stack([one.s, two.s]))
        with pytest.raises(GridMismatchError, match="the bump oracle takes one state"):
            fd_functional_derivative(T.S_GEN, pair, component)


def per_sample_sweep(func, state, component, eps, mask):
    """The bump oracle one lone bumped state at a time: the independent reference."""
    grid = state.grid
    out = np.zeros(grid.shape)
    rho = state.rho.astype(np.longdouble)
    s_field = state.s.astype(np.longdouble)
    on_s = component == "s"
    flat = (s_field if on_s else state.sqrt_rho.astype(np.longdouble)).ravel()
    eps = np.longdouble(eps)
    for idx in np.flatnonzero(mask.ravel()):
        e = eps if on_s else min(eps, 0.5 * flat[idx])
        if e <= 0.0:
            continue
        values = []
        for value in (flat[idx] + e, flat[idx] + e - 2.0 * e):
            bumped = flat.copy()
            bumped[idx] = value
            if on_s:
                lone = HydroState(grid, rho, bumped.reshape(grid.shape), state.hbar, state.mass)
            else:
                lone = HydroState(grid, (bumped**2).reshape(grid.shape), s_field, state.hbar, state.mass)
            values.append(func(lone))
        quotient = (values[0] - values[1]) / (2.0 * e * grid.cell_volume)
        out.ravel()[idx] = quotient if on_s else quotient / (2.0 * flat[idx])
    return out


def inner_bracket(st):
    return poisson_bracket(T.H_Q, T.K_Q, st)


def width_bracket(st):
    return poisson_bracket(T.SIGMA_X2, T.H_Q, st)


def fisher_width_bracket(st):
    return poisson_bracket(T.DELTA_X2, T.K_Q, st)


@pytest.fixture(scope="module")
def planar():
    """A 2-D state with hbar and m away from 1."""
    return make_gaussian(GaussianParams(sigma2=0.5, b=0.5, p0=1.0), Grid(n=32, length=20.0, dim=2),
                         hbar=1.3, mass=0.8)


class TestStackedOracleMatchesPerSampleReference:
    """A stacked sweep gives, bit for bit, the field of lone bumps."""

    @pytest.mark.parametrize("tag", [T.S_GEN, T.H_Q, T.K_Q, T.DELTA_X2, inner_bracket,
                                     width_bracket, fisher_width_bracket],
                             ids=["s_gen", "h_q", "k_q", "delta_x2", "callable",
                                  "callable_sigma_x2", "callable_delta_x2"])
    @pytest.mark.parametrize("component", ["rho", "s"])
    def test_bit_identical(self, generic, tag, component):
        func = tag if callable(tag) else (lambda st: evaluate(tag, st))
        mask = generic.rho > ORACLE_RHO_CUTOFF
        reference = per_sample_sweep(func, generic, component, 5e-6, mask)
        field = fd_functional_derivative(tag, generic, component, epsilon=5e-6)
        assert np.array_equal(field, reference)
        assert np.abs(field).max() > 0.0 or (tag is T.DELTA_X2 and component == "s")

    @pytest.mark.parametrize("tag", [T.S_GEN, T.H_Q, T.K_Q, T.DELTA_X2, inner_bracket,
                                     width_bracket, fisher_width_bracket],
                             ids=["s_gen", "h_q", "k_q", "delta_x2", "callable",
                                  "callable_sigma_x2", "callable_delta_x2"])
    @pytest.mark.parametrize("component", ["rho", "s"])
    def test_bit_identical_in_2d_with_units(self, planar, tag, component):
        self.test_bit_identical(planar, tag, component)


class TestSweepSharesItsBase:
    """A sweep computes each block of the unbumped component once, and its stacks keep their rows uncopied."""

    def test_s_sweep_takes_one_fisher_integral(self, generic, grid_calls):
        fd_functional_derivative(T.H_Q, generic, "s")
        assert grid_calls["gradient_energy"] == 1

    def test_rho_sweep_takes_one_phase_gradient(self, generic, grid_calls):
        fd_functional_derivative(T.H_Q, generic, "rho")
        assert grid_calls["fd_gradient"] == 1

    @pytest.mark.parametrize("component", ["rho", "s"])
    def test_stacks_keep_their_rows(self, generic, monkeypatch, component):
        made, stacks = [], []
        honest = brackets._bumped_rows

        def recorded(*args):
            made.append(honest(*args))
            return made[-1]

        def func(st):
            stacks.append(st)
            return evaluate(T.H_Q, st)

        monkeypatch.setattr(brackets, "_bumped_rows", recorded)
        fd_functional_derivative(func, generic, component)
        assert len(stacks) > 1
        for stack in stacks:
            if component == "s":
                assert any(stack.s is rows for rows in made)
            else:
                assert any(stack.rho is rows for rows in made)
                assert any(stack.sqrt_rho is rows for rows in made)
                # the kept rows are sqrt(rho) bit for bit
                assert np.array_equal(np.sqrt(stack.rho), stack.sqrt_rho)


class TestGeneratorCheck:
    def test_minimal_gaussian_closed_form(self, minimal):
        # bracket = -delta_p2_q + hbar^2/(2 delta_x2) = -0.25 + 0.5
        chk = generator_check(minimal, dalpha=1e-4)
        assert abs(chk.bracket_closed_form - 0.25) < 1e-10
        assert chk.residual / abs(chk.bracket_closed_form) < 1e-6

    def test_fixed_point_state(self, minimal):
        # delta_x2*delta_p2_q = hbar^2/4: bracket equals +delta_p2_q
        chk = generator_check(minimal)
        assert abs(chk.bracket_closed_form - delta_p2_q(minimal)) < 1e-10
        assert chk.residual < 1e-8

    def test_second_order_shrinkage(self, grid):
        # needs b^2 sigma^2 != hbar^2/(4 sigma^2), else the scheme is exact
        state = make_gaussian(GaussianParams(sigma2=0.5, b=2.0), grid)
        coarse = generator_check(state, dalpha=1e-3)
        fine = generator_check(state, dalpha=5e-4)
        assert coarse.residual / fine.residual == pytest.approx(4.0, abs=0.5)


class TestJacobi:
    def test_cyclic_sum_vanishes(self, chirped):
        defect, inner = jacobi_defect(chirped)
        assert abs(defect) < 1e-6 * max(1.0, abs(inner))

    def test_inner_bracket_nonzero_generally(self, generic):
        _, inner = jacobi_defect(generic)
        assert abs(inner) > 1e-3
