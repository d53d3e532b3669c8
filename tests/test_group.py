"""Uncertainty-relativity group: arithmetic laws, dilatations, mixing."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrel import (
    DegenerateStateError,
    GaussianParams,
    Grid,
    UncertaintyPair,
    delta_p2_cl,
    delta_p2_q,
    delta_x2,
    dilate,
    h_q,
    k_q,
    make_gaussian,
    mix_hk,
    mix_times,
    product_law,
    transform_uncertainty,
    uncertainty_pair,
)
from qrel import group
from qrel.config import ScenarioConfig
from qrel.suites import suite_group

alphas = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestTransformArithmetic:
    def test_identity_element(self):
        u = UncertaintyPair(1.3, 0.6)
        out = transform_uncertainty(u, 0.0)
        assert out.dx2 == u.dx2 and out.dp2 == u.dp2

    def test_worked_example_ln4(self):
        # (1, hbar^2/4) at alpha = ln 4 maps to (1/4, 1) and keeps the product
        out = transform_uncertainty(UncertaintyPair(1.0, 0.25), math.log(4.0))
        assert abs(out.dx2 - 0.25) < 1e-14
        assert abs(out.dp2 - 1.0) < 1e-14
        assert abs(out.product - 0.25) < 1e-14

    def test_worked_example_ln2(self):
        out = transform_uncertainty(UncertaintyPair(1.0, 0.5), math.log(2.0))
        assert abs(out.dx2 - 0.5) < 1e-14
        assert abs(out.dp2 - 0.625) < 1e-14
        assert abs(out.product - product_law(0.5, math.log(2.0))) < 1e-14

    def test_domain_error(self):
        with pytest.raises(DegenerateStateError):
            UncertaintyPair(-1.0, 0.5)

    @given(a=alphas, b=alphas)
    @settings(max_examples=200, deadline=None)
    def test_composition_is_addition(self, a, b):
        u = UncertaintyPair(0.8, 0.9)
        two = transform_uncertainty(transform_uncertainty(u, a), b)
        one = transform_uncertainty(u, a + b)
        assert abs(two.dx2 - one.dx2) < 1e-12
        assert abs(two.dp2 - one.dp2) < 1e-12


class TestProductLaw:
    @pytest.mark.parametrize("alpha", np.linspace(-3, 3, 50))
    def test_fixed_point(self, alpha):
        assert abs(product_law(0.25, alpha) - 0.25) < 1e-14

    def test_contraction_limit(self):
        # alpha -> +inf drives any product to hbar^2/4
        assert abs(product_law(1.0, 20.0) - 0.25) < 1e-15

    def test_expansion_growth(self):
        expected = math.exp(10.0) * 1.0 + 0.25 * (1.0 - math.exp(10.0))
        assert product_law(1.0, -5.0) == pytest.approx(expected, rel=1e-15)
        assert product_law(1.0, -5.0) > 1e4

    @given(a=alphas)
    @settings(max_examples=100, deadline=None)
    def test_matches_componentwise_transform(self, a):
        u = UncertaintyPair(1.1, 0.7)
        out = transform_uncertainty(u, a)
        assert abs(out.product - product_law(u.product, a)) < 1e-12


class TestDilatation:
    def test_alpha_zero_is_identity(self, minimal):
        out = dilate(minimal, 0.0)
        assert np.array_equal(out.rho, minimal.rho)
        assert np.array_equal(out.s, minimal.s)
        assert out.grid.length == minimal.grid.length
        assert out.grid is minimal.grid

    def test_each_dilated_box_builds_its_tables_once(self, monkeypatch):
        # the group suite dilates 18 battery states by 13 alphas, and a few more: 14 boxes
        # in all, so 14 builds of the gradient-energy weights (237 with a new Grid for each
        # dilated state)
        builds = []

        def counted(grid, _original=Grid._gradient_energy_weights.func):
            builds.append((grid.n, grid.length, grid.dim))
            return _original(grid)

        weights = functools.cached_property(counted)
        weights.__set_name__(Grid, "_gradient_energy_weights")
        monkeypatch.setattr(Grid, "_gradient_energy_weights", weights)
        group._grid.cache_clear()
        suite_group(ScenarioConfig())
        assert len(builds) == len(set(builds)) == 14

    def test_states_dilated_onto_one_box_one_after_another_share_its_grid(self, grid):
        states = [make_gaussian(GaussianParams(sigma2=s2), grid) for s2 in (1.0, 2.0)]
        assert dilate(states[0], 0.5).grid is dilate(states[1], 0.5).grid

    def test_group_law(self, grid):
        state = make_gaussian(GaussianParams(sigma2=2.0, b=1.0, p0=2.0), grid)
        one = dilate(dilate(state, 0.9), -2.1)
        two = dilate(state, -1.2)
        assert abs(one.grid.length - two.grid.length) < 1e-13 * two.grid.length
        assert np.abs(one.rho - two.rho).max() < 1e-14 * np.abs(two.rho).max()
        assert np.abs(one.s - two.s).max() < 1e-14 * np.abs(two.s).max()

    def test_normalization_preserved(self, grid):
        state = make_gaussian(GaussianParams(sigma2=0.5, b=-1.0), grid)
        for alpha in (-3.0, -1.0, 2.0, 3.0):
            assert abs(dilate(state, alpha).norm - 1.0) < 1e-12

    def test_worked_example_ln4(self, minimal):
        out = dilate(minimal, math.log(4.0))
        assert abs(delta_x2(out) - 0.25) < 1e-12
        assert abs(delta_p2_q(out) - 1.0) < 1e-10
        # classical part scales by e^{-alpha}
        chirped = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), minimal.grid)
        assert abs(delta_p2_cl(dilate(chirped, math.log(4.0))) - 0.25 * delta_p2_cl(chirped)) < 1e-10

    def test_consistency_theorem_on_battery(self, battery):
        for label, state in battery:
            pair = uncertainty_pair(state)
            for alpha in np.linspace(-3, 3, 7):
                dil = dilate(state, alpha)
                predicted = transform_uncertainty(pair, alpha, state.hbar)
                assert abs(delta_x2(dil) - predicted.dx2) < 1e-9, label
                assert abs(delta_p2_q(dil) - predicted.dp2) < 1e-9, label

    def test_paper_literal_convention_breaks_consistency(self, minimal):
        # the factor-2 reading misses the added term by exactly a factor 2
        alpha = math.log(4.0)
        pair = uncertainty_pair(minimal, "paper-literal")
        dil = dilate(minimal, alpha)
        predicted = transform_uncertainty(pair, alpha, minimal.hbar)
        measured_add = delta_p2_q(dil) - math.exp(-alpha) * delta_p2_q(minimal)
        predicted_add = predicted.dp2 - math.exp(-alpha) * pair.dp2
        assert abs(measured_add / predicted_add - 2.0) < 1e-9

    def test_classical_scaling_laws(self, grid):
        state = make_gaussian(GaussianParams(sigma2=1.0, b=1.0, p0=2.0), grid)
        for alpha in (-2.0, 0.5, 3.0):
            dil = dilate(state, alpha)
            assert abs(delta_p2_cl(dil) - math.exp(-alpha) * delta_p2_cl(state)) < 1e-10
            assert abs(delta_x2(dil) - math.exp(-alpha) * delta_x2(state)) < 1e-12


class TestDilatationHigherDimensions:
    def test_2d_normalization_and_scaling(self):
        from qrel import Grid, sigma_x2

        g2 = Grid(n=64, length=40.0, dim=2)
        state = make_gaussian(GaussianParams(sigma2=1.0), g2)
        assert abs(state.norm - 1.0) < 1e-12
        # density exponent dim*alpha/2 is forced by normalization
        dil = dilate(state, 1.0)
        assert abs(dil.norm - 1.0) < 1e-12
        assert abs(sigma_x2(dil) - math.exp(-1.0) * sigma_x2(state)) < 1e-10
        assert abs(delta_x2(dil) - math.exp(-1.0) * delta_x2(state)) < 1e-10


class TestGeneratorMixing:
    def test_identity(self):
        assert mix_hk(0.3, -0.2, 0.0) == (0.3, -0.2)

    def test_lightcone_scaling(self):
        # with k = -h the pair lies on an eigen-direction and scales by e^alpha
        h2, k2 = mix_hk(0.125, -0.125, math.log(2.0))
        assert abs(h2 - 0.25) < 1e-14
        assert abs(k2 + 0.25) < 1e-14

    @given(h=st.floats(-2, 2), k=st.floats(-2, 2), a=alphas)
    @settings(max_examples=200, deadline=None)
    def test_invariant_form(self, h, k, a):
        hp, kp = mix_hk(h, k, a)
        assert abs((hp**2 - kp**2) - (h**2 - k**2)) < 1e-12

    def test_matches_dilated_functionals(self, battery):
        for label, state in battery:
            h0, k0 = h_q(state), k_q(state)
            for alpha in (-3.0, -1.5, 1.0, 3.0):
                dil = dilate(state, alpha)
                hm, km = mix_hk(h0, k0, alpha)
                assert abs(h_q(dil) - hm) < 1e-10, label
                assert abs(k_q(dil) - km) < 1e-10, label


class TestTimeMixing:
    def test_identity(self):
        assert mix_times(1.0, -0.5, 0.0) == (1.0, -0.5)

    def test_worked_example(self):
        tp, taup = mix_times(1.0, 0.0, math.log(2.0))
        assert abs(tp - 1.25) < 1e-14
        assert abs(taup - 0.75) < 1e-14

    @given(t=st.floats(-2, 2), tau=st.floats(-2, 2), a=alphas)
    @settings(max_examples=200, deadline=None)
    def test_invariant_form(self, t, tau, a):
        tp, taup = mix_times(t, tau, a)
        assert abs((tp**2 - taup**2) - (t**2 - tau**2)) < 1e-12


class TestThreeDimensions:
    def test_3d_dilatation_exponent(self):
        # in d dimensions the density exponent is d*alpha/2 (normalization)
        from qrel import Grid

        g3 = Grid(n=16, length=24.0, dim=3)
        state = make_gaussian(GaussianParams(sigma2=1.0), g3)
        assert abs(state.norm - 1.0) < 1e-12
        dil = dilate(state, 0.8)
        assert abs(dil.norm - 1.0) < 1e-12
        assert np.allclose(dil.rho, math.exp(3 * 0.8 / 2) * state.rho)
