"""Benchmark workloads: seeded inputs, one timed pass, correctness gates.

A workload builds its inputs once from the seed (that is set-up) and then
runs *passes*.  A pass sends every input through the program once, one
call at a time, and times each call (a *unit*) on a :class:`UnitClock`.
Between units the pass checks the outputs; a miss is counted as a failed
operation and never skipped.

Tolerances are those of the verification suites (``qrel.suites``), so the
benchmark asserts nothing the package does not already assert.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from qrel import brackets, cli, dynamics, functionals, oracles, states
from qrel.errors import QrelError
from qrel.grid import Grid

#: The battery box the seeded Gaussians are drawn from.
BOX = {"sigma2": (0.5, 2.0), "b": (-1.0, 1.0), "p0": (0.0, 2.0)}

DTAU = 1e-3
BOX_LENGTH = 40.0

# suites.suite_dynamics: "Lyapunov: s_gen nondecreasing", "tau-flow norm
# drift (battery)", "continuity residual (battery tau-runs)".
SGEN_DROP_MAX = 1e-12
NORM_DRIFT_MAX = 1e-10
CONTINUITY_MAX = 1e-5
# The acceptance tolerance that the tau-flow guards are calibrated against
# (qrel.dynamics module docstring); the ROADMAP measured at most 2.2e-6 at
# guard trips.
ODE_REL_MAX = 1e-5
# suites.suite_brackets: "closed-form vs oracle derivative fields (rho > 1e-10)".
FIELD_REL_MAX = 1e-6
FIELD_REGION_RHO = 1e-10
ORACLE_FIELDS = tuple((tag, comp)
                      for tag in (functionals.FunctionalTag.S_GEN, functionals.FunctionalTag.H_Q,
                                  functionals.FunctionalTag.K_Q)
                      for comp in ("rho", "s"))


def stratified_params(rng, strata):
    """One Gaussian per cell of the box split into ``strata`` = (sigma2, b, p0) cells.

    Each seed covers the whole box the same way, so the mix of cheap and
    expensive members (and of guard trips) varies little between seeds.
    """
    def draw(key, cell, cells):
        lo, hi = BOX[key]
        return lo + (cell + rng.random()) * (hi - lo) / cells

    ns, nb, npp = strata
    return [states.GaussianParams(sigma2=draw("sigma2", i, ns), b=draw("b", j, nb), p0=draw("p0", k, npp))
            for i in range(ns) for j in range(nb) for k in range(npp)]


class UnitClock:
    """Times units of a pass; with a tracer, spans are recorded only inside units."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.unit_s = []

    @contextlib.contextmanager
    def unit(self, label: str):
        if self.tracer is not None:
            self.tracer.run_id = label
            self.tracer.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.unit_s.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.tracer.active = False


@dataclass
class PassResult:
    """Outcome of one pass: unit times, work items per unit and gated operations."""

    unit_s: list
    unit_work: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    @property
    def work(self) -> int:
        return sum(self.unit_work)

    def gate(self, problems, label):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")


class Verify:
    """``qrel verify`` on the built-in default scenario, all suites.

    The default scenario is fixed, so the seed does not change the inputs;
    the verification is deterministic by design.
    """

    unit = "verification"
    work_unit = "verifications"

    def __init__(self, seed: int, work_dir: str, suites=None):
        self.out = tempfile.mkdtemp(prefix="verify-", dir=work_dir)
        self.argv = ["verify", "--out", self.out] + (["--suite", ",".join(suites)] if suites else [])
        self.first_report = None

    def run_pass(self, clock: UnitClock) -> PassResult:
        result = PassResult(clock.unit_s)
        path = os.path.join(self.out, "report.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        with clock.unit("verify"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            result.unit_work.append(0)
            result.gate([f"no report (exit code {code})"], "verify")
            return result
        result.unit_work.append(1)
        asserted = [c for c in json.loads(text)["checks"] if c["asserted"]]
        for check in asserted:
            result.gate([] if check["passed"] else ["failed"], check["name"])
        if code != 0 and result.failed == 0:
            result.gate([f"exit code {code}"], "verify")
        if self.first_report is None:
            self.first_report = text
        else:
            result.gate([] if text == self.first_report else ["report differs from the first pass"],
                        "report.json")
        return result

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


class Trajectories:
    """Seeded Gaussians, each integrated by ``run_trajectory(..., "tau", 1e-3, steps)``."""

    unit = "trajectory"
    work_unit = "records"

    def __init__(self, seed: int, grid: Grid, strata, steps: int):
        self.grid = grid
        self.steps = steps
        self.params = stratified_params(np.random.default_rng(seed), strata)
        self.waves = [states.to_wave(states.make_gaussian(p, grid)) for p in self.params]

    def inputs(self):
        return [(p, w.psi) for p, w in zip(self.params, self.waves)]

    def run_pass(self, clock: UnitClock) -> PassResult:
        result = PassResult(clock.unit_s)
        for i, (params, wave) in enumerate(zip(self.params, self.waves)):
            try:
                with clock.unit(f"trajectory {i}"):
                    traj = dynamics.run_trajectory(wave, "tau", DTAU, self.steps)
            except QrelError as err:
                result.unit_work.append(0)
                result.gate([f"raised {err}"], f"trajectory {i}")
                continue
            result.unit_work.append(len(traj.records))
            result.gate(self.problems(params, traj), f"trajectory {i} ({params})")
        return result

    def problems(self, params, traj) -> list:
        out = []
        drop = -float(np.diff(traj.column("s_gen")).min(initial=0.0))
        if drop > SGEN_DROP_MAX:
            out.append(f"s_gen decreases by {drop:.3e}")
        drift = float(np.abs(traj.column("norm") - 1.0).max())
        if drift > NORM_DRIFT_MAX:
            out.append(f"norm drift {drift:.3e}")
        resid = float(traj.column("continuity_residual").max())
        if resid > CONTINUITY_MAX:
            out.append(f"continuity residual {resid:.3e}")
        if self.grid.dim == 1:
            err = ode_disagreement(params, traj.records[-1])
            if err > ODE_REL_MAX:
                out.append(f"final record off the Gaussian ODE oracle by {err:.3e}")
        return out

    def close(self):
        pass


def ode_disagreement(params, record) -> float:
    """Relative gap between a tau-record and the Gaussian ODE oracle at its time.

    The dispersion is compared with sigma2; the momentum-type columns with
    the expected delta_p2_q, which bounds |h_q| and |k_q| (hbar = m = 1).
    """
    _, y = oracles.integrate_gaussian_ode(oracles.GaussianOdeState(params.sigma2, params.b),
                                          "tau", [record.time])
    expect = oracles.gaussian_observables(y[0, -1], y[1, -1], p0=params.p0)
    scale = expect["delta_p2_q"]
    return max(abs(record.delta_x2 - expect["delta_x2"]) / expect["delta_x2"],
               *(abs(getattr(record, key) - expect[key]) / scale for key in ("delta_p2_q", "h_q", "k_q")))


class OracleSweep:
    """Bump-oracle derivative fields of S_GEN, H_Q, K_Q on rho and s per seeded state."""

    unit = "field"
    work_unit = "fields"

    def __init__(self, seed: int, grid: Grid, strata):
        self.params = stratified_params(np.random.default_rng(seed), strata)
        self.states = [states.make_gaussian(p, grid) for p in self.params]
        self.regions = [s.rho > FIELD_REGION_RHO for s in self.states]

    def inputs(self):
        return [(p, s.rho, s.s) for p, s in zip(self.params, self.states)]

    def run_pass(self, clock: UnitClock) -> PassResult:
        result = PassResult(clock.unit_s)
        for i, (state, region) in enumerate(zip(self.states, self.regions)):
            for tag, comp in ORACLE_FIELDS:
                label = f"state {i} d{tag.value}/d{comp}"
                try:
                    with clock.unit(label):
                        numeric = brackets.fd_functional_derivative(tag, state, comp, where=region)
                except QrelError as err:
                    result.unit_work.append(0)
                    result.gate([f"raised {err}"], label)
                    continue
                result.unit_work.append(1)
                rel = field_disagreement(tag, state, comp, region, numeric)
                result.gate([f"relative gap {rel:.3e}"] if not rel <= FIELD_REL_MAX else [], label)
        return result

    def close(self):
        pass


def field_disagreement(tag, state, comp, region, numeric) -> float:
    """The suite's comparison: gauge-matched max gap over max |closed form|."""
    closed = functionals.variational_derivative(tag, state, comp)
    if comp == "rho":
        closed = brackets.subtract_rho_mean(closed, state, where=region)
        numeric = brackets.subtract_rho_mean(numeric, state, where=region)
    scale = max(float(np.abs(closed[region]).max()), 1e-2)
    return float(np.abs((closed - numeric)[region]).max()) / scale


def make(name: str, seed: int, work_dir: str, tiny: bool = False):
    """Build a workload's inputs; ``tiny`` shrinks it for the self-tests."""
    if name == "verify":
        return Verify(seed, work_dir, suites=("classical-limit",) if tiny else None)
    if name == "tau-battery":
        # n = 512 is the coarsest grid at L = 40 whose resolution guard
        # admits the narrowest packet of the box in 1-D.
        return Trajectories(seed, Grid(512, BOX_LENGTH), (1, 2, 1) if tiny else (3, 3, 2), 20 if tiny else 500)
    if name == "oracle-sweep":
        return OracleSweep(seed, Grid(128 if tiny else 512, BOX_LENGTH), (1, 1, 1) if tiny else (12, 1, 1))
    if name == "evolve-2d":
        # likewise n = 256 in 2-D, where sigma_x2 sums over both axes
        return Trajectories(seed, Grid(256, BOX_LENGTH, dim=2), (1, 1, 1), 3 if tiny else 100)
    raise ValueError(f"unknown workload {name!r}")
