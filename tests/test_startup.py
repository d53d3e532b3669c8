"""Start-up: what importing qrel loads, and what it sets for the whole process.

Each test runs in a fresh interpreter, so that nothing imported or
allocated by other tests changes what it measures.
"""

import platform

import pytest


def test_verify_runs_without_scipy(default_verify):
    # scipy is needed only to integrate the Gaussian ODE, which the suites no longer do
    assert default_verify.returncode == 0, default_verify.stderr
    assert default_verify.stdout.splitlines()[-1] == "[]"


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
