"""Numerical laboratory for the uncertainty-relativity structure of quantum dynamics.

The package evaluates the Fisher-information functionals of a density/
phase field pair, applies the dilatation group exactly, verifies the
functional Poisson-bracket identities against a finite-difference oracle,
and integrates the dual-time dynamics: linear Schroedinger evolution in t
and its norm-preserving nonlinear companion in tau.
"""

from .brackets import (
    GeneratorCheck,
    fd_functional_derivative,
    generator_check,
    jacobi_defect,
    poisson_bracket,
)
from .config import ScenarioConfig, config_from_dict, load_config
from .dynamics import (
    Trajectory,
    TrajectoryRecord,
    cross_flow_defect,
    evolve_t,
    evolve_tau,
    hydro_rhs,
    inner_product,
    measured_rates,
    run_trajectories,
    run_trajectory,
    uncertainty_rates,
)
from .errors import (
    ConfigurationError,
    DegenerateStateError,
    GridMismatchError,
    QrelError,
    ResolutionGuardError,
)
from .functionals import (
    FunctionalTag,
    UncertaintyPair,
    delta_p2_cl,
    delta_p2_q,
    delta_x2,
    evaluate,
    fisher_information,
    h_cl,
    h_q,
    k_q,
    p_translation,
    s_gen,
    sigma_x2,
    uncertainty_pair,
    variational_derivative,
)
from .grid import Grid
from .group import dilate, mix_hk, mix_times, product_law, transform_uncertainty
from .oracles import (
    GaussianOdeState,
    free_packet_sigma_x2,
    gaussian_observables,
    integrate_gaussian_ode,
)
from .states import (
    GaussianParams,
    HydroState,
    WaveField,
    from_wave,
    make_double_gaussian,
    make_gaussian,
    phase_gradient,
    to_wave,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DegenerateStateError", "FunctionalTag",
    "GaussianOdeState", "GaussianParams", "GeneratorCheck", "Grid", "GridMismatchError",
    "HydroState", "QrelError", "ResolutionGuardError",
    "ScenarioConfig", "Trajectory", "TrajectoryRecord", "UncertaintyPair", "WaveField",
    "config_from_dict", "cross_flow_defect", "delta_p2_cl",
    "delta_p2_q", "delta_x2", "dilate", "evaluate", "evolve_t", "evolve_tau",
    "fd_functional_derivative", "fisher_information", "free_packet_sigma_x2", "from_wave",
    "gaussian_observables", "generator_check", "h_cl", "h_q", "hydro_rhs", "inner_product",
    "integrate_gaussian_ode", "jacobi_defect", "k_q", "load_config", "make_double_gaussian",
    "make_gaussian", "measured_rates", "mix_hk", "mix_times", "p_translation",
    "phase_gradient", "poisson_bracket", "product_law", "run_trajectories", "run_trajectory", "s_gen",
    "sigma_x2", "to_wave", "transform_uncertainty", "uncertainty_pair", "uncertainty_rates",
    "variational_derivative",
]
