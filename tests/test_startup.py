"""Start-up: what importing qrel loads, and what it sets for the whole process.

Each test runs in a fresh interpreter, so that nothing imported or
allocated by other tests changes what it measures.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import qrel

SRC = str(Path(qrel.__file__).resolve().parent.parent)


def run_python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300, check=False)


def test_verify_runs_without_scipy(tmp_path):
    # scipy is needed only to integrate the Gaussian ODE, which the suites no longer do
    done = run_python(
        "import sys\n"
        "import qrel\n"
        "from qrel import cli\n"
        f"code = cli.main(['verify', '--out', {str(tmp_path)!r}])\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are pinned on glibc only")
def test_warmed_oracle_field_takes_no_page_faults():
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
