"""Start-up: what importing qrel loads, and what it sets for the whole process.

Each test runs in a fresh interpreter, so that nothing imported or
allocated by other tests changes what it measures.
"""

import platform

import pytest


def test_verify_runs_without_scipy(default_verify):
    # qrel depends on numpy alone: scipy, where it is installed, stays unloaded
    assert default_verify.returncode == 0, default_verify.stderr
    assert default_verify.stdout.splitlines()[-1] == "[]"


def test_tau_battery_gate_runs_without_scipy(run_python):
    # the benchmark's tau-battery gate: a battery member's tau-run, then the Gaussian oracle at its last record
    done = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from qrel import Grid, make_gaussian, run_trajectory, to_wave\n"
        "from qrel.oracles import GaussianOdeState, integrate_gaussian_ode\n"
        "from qrel.suites import battery_params\n"
        "params = battery_params()[0]\n"
        "traj = run_trajectory(to_wave(make_gaussian(params, Grid(512, 40.0))), 'tau', 1e-3, 20)\n"
        "_, y = integrate_gaussian_ode(GaussianOdeState(params.sigma2, params.b), 'tau', [traj.records[-1].time])\n"
        "print(y.shape, sorted(name for name, module in sys.modules.items()\n"
        "                      if name.split('.')[0] == 'scipy' and module is not None))\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "(3, 1) []"


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are pinned on glibc only")
def test_warmed_oracle_field_takes_no_page_faults(run_python):
    # with glibc's default 128 KiB mmap threshold the second field took 2,305 minor faults
    done = run_python(
        "import resource\n"
        "from qrel import FunctionalTag, GaussianParams, Grid, fd_functional_derivative, make_gaussian\n"
        "state = make_gaussian(GaussianParams(sigma2=1.5), Grid(512, 40.0))\n"
        "fd_functional_derivative(FunctionalTag.H_Q, state, 'rho')\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "fd_functional_derivative(FunctionalTag.H_Q, state, 'rho')\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 100
