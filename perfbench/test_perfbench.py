"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import numpy.fft  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qrel import brackets, functionals  # noqa: E402

SPEC = run.metric_spec()
BENCHMARK_WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def make(tmp_path):
    made = []

    def build(name, seed=3):
        workload = workloads.make(name, seed, str(tmp_path), tiny=True)
        made.append(workload)
        return workload

    yield build
    for workload in made:
        workload.close()


def traced_pass(workload):
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = workload.run_pass(workloads.UnitClock(tracer))
    finally:
        tracer.uninstall()
    return result, tracer


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_every_metric_is_printed_with_its_unit(monkeypatch, name, trace):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", name, "--seed", "2", "--seconds", "0", "--trace", trace], tiny=True) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert result["metrics"] == {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
                                 for m in SPEC[kind]}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and np.isfinite(metric["value"])
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", ["tau-battery", "oracle-sweep"])
def test_same_seed_gives_same_inputs_and_counts(make, name):
    first, second, other = make(name, 5), make(name, 5), make(name, 6)
    for a, b in zip(first.inputs(), second.inputs()):
        assert a[0] == b[0]
        assert all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))
    assert first.inputs()[0][0] != other.inputs()[0][0]

    counts = []
    for workload in (first, second):
        result, tracer = traced_pass(workload)
        totals = tracer.layer_totals()
        counts.append((totals["grid.fft"]["calls"], totals.get("functionals.evaluate", {}).get("calls", 0),
                       [c for _, c, _ in tracer.trajectories], result.work, len(tracer.spans)))
    assert counts[0] == counts[1]


def test_uninstall_restores_the_program(make):
    originals = (numpy.fft.fftn, brackets.evaluate, functionals.wave_h_q, workloads.dynamics.run_trajectory)
    traced_pass(make("tau-battery"))
    assert (numpy.fft.fftn, brackets.evaluate, functionals.wave_h_q,
            workloads.dynamics.run_trajectory) == originals


def test_corrupted_oracle_field_is_counted_as_failed(make, monkeypatch):
    honest = brackets.fd_functional_derivative

    def corrupted(*args, **kwargs):
        field = honest(*args, **kwargs)
        field[np.argmax(np.abs(field))] *= 1.0 + 1e-4
        return field

    workload = make("oracle-sweep")
    monkeypatch.setattr(brackets, "fd_functional_derivative", corrupted)
    summary = run.summarize([workload.run_pass(workloads.UnitClock())])
    assert summary["failed"] > 0
    assert run.end_to_end(summary, [1.0])["passed_share"] < 1.0


def test_layer_totals_count_nested_spans_once():
    tracer = spans.Tracer()
    tracer.spans = [
        ("dynamics.run_trajectory", 0.0, 10.0, -1, "a"),
        ("functionals.wave_k_q", 1.0, 4.0, 0, "a"),
        ("functionals.wave_h_q", 1.5, 3.0, 1, "a"),
        ("numpy.fft.fftn", 2.0, 2.5, 2, "a"),
        ("brackets.fd_functional_derivative", 5.0, 9.0, 0, "a"),
        ("functionals.evaluate", 5.5, 6.0, 4, "a"),
        ("functionals.evaluate", 6.0, 6.5, 4, "a"),
    ]
    totals = tracer.layer_totals()
    assert totals["functionals.wave"] == {"calls": 2, "busy_s": 3.0, "self_s": 2.5}
    assert totals["dynamics.run_trajectory"]["self_s"] == 3.0
    assert totals["grid.fft"]["busy_s"] == 0.5
    assert totals["brackets.oracle_evaluations"] == 2


def test_bare_checkout_is_refused(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
