"""Numerical laboratory for the uncertainty-relativity structure of quantum dynamics.

The package evaluates the Fisher-information functionals of a density/
phase field pair, applies the dilatation group exactly, verifies the
functional Poisson-bracket identities against a finite-difference oracle,
and integrates the dual-time dynamics: linear Schroedinger evolution in t
and its norm-preserving nonlinear companion in tau.
"""

import os

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
    gaussian_observables,
    gaussian_flow,
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


def _pin_malloc_thresholds():
    """Serve allocations below 4 MiB from the heap, and keep up to 32 MiB of freed heap, on glibc.

    The bump oracle's long-double sweep (``brackets._fd_sweep``) makes
    temporaries of 256-512 KiB per stack, above glibc's 128 KiB default
    mmap threshold, so each one is mmapped, faulted in page by page and
    unmapped again: a second warmed H_Q d/drho field on the 512-point grid
    took 2,305 minor page faults.  glibc raises its threshold on its own
    only once a large enough block is freed (importing scipy happened to
    do that), so the speed depended on what was imported first.  Pinned,
    the same field takes 0 faults, and the benchmark's oracle sweep reads
    121.9 fields/s against 96.5 unpinned (medians of 10 runs each on a
    2-core VM, BENCH_11.json).  Pinning a threshold also stops glibc from
    moving it.  Other C libraries are left alone.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not (libc or "").startswith("glibc"):
        return
    import ctypes

    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 4 << 20)
    mallopt(M_TRIM_THRESHOLD, 32 << 20)


_pin_malloc_thresholds()

__all__ = [
    "ConfigurationError", "DegenerateStateError", "FunctionalTag",
    "GaussianOdeState", "GaussianParams", "GeneratorCheck", "Grid", "GridMismatchError",
    "HydroState", "QrelError", "ResolutionGuardError",
    "ScenarioConfig", "Trajectory", "TrajectoryRecord", "UncertaintyPair", "WaveField",
    "config_from_dict", "cross_flow_defect", "delta_p2_cl",
    "delta_p2_q", "delta_x2", "dilate", "evaluate", "evolve_t", "evolve_tau",
    "fd_functional_derivative", "fisher_information", "from_wave",
    "gaussian_flow", "gaussian_observables", "generator_check", "h_cl", "h_q", "hydro_rhs", "inner_product",
    "integrate_gaussian_ode", "jacobi_defect", "k_q", "load_config", "make_double_gaussian",
    "make_gaussian", "measured_rates", "mix_hk", "mix_times", "p_translation",
    "phase_gradient", "poisson_bracket", "product_law", "run_trajectories", "run_trajectory", "s_gen",
    "sigma_x2", "to_wave", "transform_uncertainty", "uncertainty_pair", "uncertainty_rates",
    "variational_derivative",
]
