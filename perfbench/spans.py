"""Span tracing around the layer boundaries of ``qrel``, from outside the package.

:meth:`Tracer.install` wraps every public function of every ``qrel``
module, plus ``Grid.gradient``, ``Grid.laplacian`` and the two numpy FFT
entry points the package calls.  A wrapper replaces the function in every
module namespace (and module-level dispatch table) that holds it, so
``qrel.brackets.evaluate`` and ``qrel.dynamics.wave_h_q`` are traced as
well as their home-module names.  :meth:`Tracer.uninstall` restores the
originals, so untraced passes run the unmodified program.

Spans stay in memory as ``(name, start, end, parent, run_id)`` tuples and
are written out once, when the run ends.
"""

import csv
import functools
import gzip
import importlib
import inspect
from time import perf_counter

import numpy as np
import numpy.fft

import qrel
from qrel.grid import Grid

LAYER_MODULES = ("grid", "states", "functionals", "group", "brackets", "dynamics", "oracles",
                 "suites", "report", "config", "cli")

# Span name -> metric group.  Every ``functionals.wave_*`` span belongs to
# "functionals.wave" (the trajectory record builder).
GROUPS = {
    "numpy.fft.fftn": "grid.fft",
    "numpy.fft.ifftn": "grid.fft",
    "grid.Grid.gradient": "grid.gradient",
    "grid.Grid.laplacian": "grid.laplacian",
    "functionals.evaluate": "functionals.evaluate",
    "functionals.variational_derivative": "functionals.variational_derivative",
    "dynamics.run_trajectory": "dynamics.run_trajectory",
    "dynamics.evolve_tau": "dynamics.evolve_tau",
    "brackets.fd_functional_derivative": "brackets.fd_functional_derivative",
    "brackets.poisson_bracket": "brackets.poisson_bracket",
    "group.dilate": "group.dilate",
    "states.to_wave": "states.to_wave",
    "states.make_gaussian": "states.make_gaussian",
    "oracles.integrate_gaussian_ode": "oracles.integrate_gaussian_ode",
    "suites.suite_group": "suites.group",
    "suites.suite_functionals": "suites.functionals",
    "suites.suite_brackets": "suites.brackets",
    "suites.suite_dynamics": "suites.dynamics",
    "suites.suite_classical_limit": "suites.classical-limit",
    "report.dumps17": "report.write",
    "report.format17": "report.write",
    "report.table_csv": "report.write",
    "report.trajectory_csv": "report.write",
}

# A bump-oracle sweep evaluates its functional through one of these.
EVALUATIONS = ("functionals.evaluate", "brackets.poisson_bracket")


def group_of(name: str):
    if name.startswith("functionals.wave_"):
        return "functionals.wave"
    return GROUPS.get(name)


class Tracer:
    """Records spans while :attr:`active`; one tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.run_id = ""
        self.fft_bytes = 0
        self.trajectories = []  # (requested records, certified records, guard tripped)
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"qrel.{m}") for m in LAYER_MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.split(".", 1)[1]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    after = self._after_trajectory if obj is qrel.dynamics.run_trajectory else None
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj, after)
        for module in modules + [qrel]:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patch_item(obj, key, wrappers[value])
        for name in ("fftn", "ifftn"):
            self._patch(numpy.fft, name, self._wrap(f"numpy.fft.{name}", getattr(numpy.fft, name),
                                                    self._after_fft))
        for name in ("gradient", "laplacian"):
            self._patch(Grid, name, self._wrap(f"grid.Grid.{name}", getattr(Grid, name)))

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    def _patch(self, owner, name, value):
        original = getattr(owner, name)
        setattr(owner, name, value)
        self._restore.append(lambda: setattr(owner, name, original))

    def _patch_item(self, table, key, value):
        original = table[key]
        table[key] = value
        self._restore.append(lambda: table.__setitem__(key, original))

    def _wrap(self, name, func, after=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.run_id)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_fft(self, args, result):
        # computed, not measured: input plus output array sizes
        self.fft_bytes += np.asarray(args[0]).nbytes + result.nbytes

    def _after_trajectory(self, args, traj):
        self.trajectories.append((traj.requested_steps + 1, len(traj.records), traj.guard_tripped))

    # -- reduction ----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per group: calls, busy_s (union of its spans) and self_s.

        Busy time counts only the outermost span of a group, so nested calls
        (``wave_k_q`` calling ``wave_h_q``, recursive ``dumps17``) are not
        counted twice.  Self time is a span's duration minus the durations
        of its direct children, which never overlap in one thread.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals = {}
        enclosing = [()] * len(self.spans)
        evaluations = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            above = enclosing[parent] if parent >= 0 else ()
            group = group_of(name)
            if group is not None:
                entry = totals.setdefault(group, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                entry["calls"] += 1
                entry["self_s"] += end - start - child_s[i]
                if group not in above:
                    entry["busy_s"] += end - start
                    above = above + (group,)
            enclosing[i] = above
            if name in EVALUATIONS and parent >= 0 and self.spans[parent][0] == "brackets.fd_functional_derivative":
                evaluations += 1
        totals["brackets.oracle_evaluations"] = evaluations
        return totals

    def write(self, path: str, pass_index: int, append: bool):
        with gzip.open(path, "at" if append else "wt", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            if not append:
                out.writerow(["pass", "index", "name", "start", "end", "parent", "run_id"])
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                out.writerow([pass_index, index, name, repr(start), repr(end), parent, run_id])
