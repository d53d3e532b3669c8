import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qrel
from qrel import GaussianParams, Grid, make_gaussian, to_wave


@pytest.fixture(scope="session")
def grid():
    """Desk-scale grid: 1-D, n=512, L=40."""
    return Grid(n=512, length=40.0)


@pytest.fixture(scope="session")
def minimal(grid):
    """Minimal-uncertainty Gaussian: sigma2=1, b=0, p0=0, hbar=m=1."""
    return make_gaussian(GaussianParams(sigma2=1.0), grid)


@pytest.fixture(scope="session")
def minimal_wave(minimal):
    return to_wave(minimal)


@pytest.fixture(scope="session")
def battery(grid):
    """The standard 18-state Gaussian test battery: (label, state) pairs of the suites' subject table."""
    from qrel.config import ScenarioConfig
    from qrel.suites import battery, subjects

    return [(s.label, s.state) for s in battery(subjects(ScenarioConfig(grid=grid)))]


@pytest.fixture(scope="session")
def run_python():
    """A function that runs Python code in a fresh interpreter importing this qrel and returns the process."""
    src = str(Path(qrel.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=300, check=False)

    return run


@pytest.fixture(scope="session")
def default_verify(tmp_path_factory, run_python):
    """The default ``qrel verify``, run once in a fresh interpreter for every test that reads it.

    Its ``returncode``, ``stdout`` and ``stderr``, and ``out``, the directory
    of its report.  The last line of stdout lists the scipy modules loaded.
    """
    out = tmp_path_factory.mktemp("default-verify")
    done = run_python(
        "import sys\n"
        "from qrel import cli\n"
        f"code = cli.main(['verify', '--out', {str(out)!r}])\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n")
    return SimpleNamespace(returncode=done.returncode, stdout=done.stdout, stderr=done.stderr, out=out)


@pytest.fixture
def grid_calls(monkeypatch):
    """Calls of Grid.gradient_energy, Grid.laplacian and Grid.fd_gradient, counted by name."""
    calls = {"gradient_energy": 0, "laplacian": 0, "fd_gradient": 0}
    for name in calls:
        def counted(self, *args, _original=getattr(Grid, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Grid, name, counted)
    return calls


def gaussian_density(grid, sigma2, x0=0.0):
    x = grid.coords[0]
    rho = np.exp(-((x - x0) ** 2) / (2.0 * sigma2))
    return rho / grid.quadrature(rho)
