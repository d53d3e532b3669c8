"""Machine facts and single-layer baselines recorded with every result."""

import glob
import os
import platform
import statistics
import time

import numpy as np
import scipy

from qrel import brackets, dynamics, functionals, states
from qrel.grid import Grid

#: Layer baselines of the ROADMAP re-anchor (2-core x86-64 VM, Python 3.11.7,
#: numpy 2.4.6, scipy 1.17.1), next to which this machine's are printed.
ROADMAP_BASELINES = {
    "grid.gradient_n512_us": 28.0,
    "tau_strang_step_us": 167.0,
    "record_observables_us": 236.0,
    "oracle_field_h_q_rho_ms": 154.0,
}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def facts() -> dict:
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level} {kind}"] = _read(f"{index}/size")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "caches_per_core": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "QREL_THREADS": os.environ.get("QREL_THREADS"),
    }


def _median_s(func, repeat: int, number: int = 1) -> float:
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            func()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def layer_baselines() -> dict:
    """This machine's figures for the ROADMAP's layer baselines.

    The record observables are the five ``wave_*`` columns plus the norm;
    the continuity residual of a record needs its neighbours and is left out.
    """
    grid = Grid(512, 40.0)
    state = states.make_gaussian(states.GaussianParams(sigma2=1.0, b=-1.0), grid)
    wave = states.to_wave(state)
    u = state.sqrt_rho

    def observables():
        functionals.wave_h_q(wave), functionals.wave_k_q(wave), functionals.wave_s_gen(wave)
        functionals.wave_delta_x2(wave), functionals.wave_delta_p2_q(wave), wave.norm

    region = state.rho > 1e-10
    measured = {
        "grid.gradient_n512_us": 1e6 * _median_s(lambda: grid.gradient(u), 7, 200),
        "tau_strang_step_us": 1e6 * _median_s(lambda: dynamics.evolve_tau(wave, 1e-3, 1), 7, 50),
        "record_observables_us": 1e6 * _median_s(observables, 7, 50),
        "oracle_field_h_q_rho_ms": 1e3 * _median_s(lambda: brackets.fd_functional_derivative(
            functionals.FunctionalTag.H_Q, state, "rho", where=region), 3),
    }
    return {name: {"roadmap": ROADMAP_BASELINES[name], "measured": value} for name, value in measured.items()}
