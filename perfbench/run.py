"""qrel benchmark: one workload, closed loop, one caller, serial.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qrel checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Set-up (import, grid
and input generation) is timed first; then whole passes over the seeded
inputs run until ``--seconds`` have elapsed.  Every output is checked.

With ``--trace 0`` the last line carries the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` untraced and traced passes
alternate; the last line carries the per-layer metrics of the traced
passes and the tracing overhead (traced minus untraced), and the spans are
written to ``.perfbench_out/``.  Lines before the last one repeat every
metric under the names of the workload (``verify_s``, ``records_per_s``,
...) with tails and sample counts, and record the machine.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402  (set-up is timed from before the first import)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_out"

#: Set-up samples per run: this process plus this many fresh processes.
SETUP_PROBES = 4

#: A workload's own names for its time per unit, time per work item and throughput.
WORKLOAD_NAMES = {
    "verify": ("verify_s", "verify_s", "verifications_per_s"),
    "tau-battery": ("trajectory_s", "record_s", "records_per_s"),
    "evolve-2d": ("trajectory_s", "record_s", "records_per_s"),
    "oracle-sweep": ("oracle_field_s", "oracle_field_s", "oracle_fields_per_s"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src/`` first on the path and import qrel from it."""
    if not (SRC / "qrel" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qrel package at {SRC / 'qrel'}; run from a qrel checkout")
    os.environ.pop("QREL_THREADS", None)
    sys.path.insert(0, str(SRC))
    import qrel

    if Path(qrel.__file__).resolve().parent != SRC / "qrel":
        raise SystemExit(f"perfbench: imported qrel from {qrel.__file__}, not from {SRC}")


def metric_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# measurement


def measure(workload, seconds: float, traced: bool):
    """Whole passes until ``seconds`` elapse; with ``traced``, plain and traced alternate."""
    import spans
    from workloads import UnitClock

    plain, tracers, traced_passes = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(workload.run_pass(UnitClock()))
        if traced:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_passes.append(workload.run_pass(UnitClock(tracer)))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        if time.perf_counter() - start >= seconds:
            return plain, traced_passes, tracers


def summarize(passes) -> dict:
    """Medians over units (time per unit, time per work item) and over passes (throughput).

    Time per work item is a unit's time divided by its work: seconds per
    verification, per certified record or per field.  Trajectories that
    stop at a guard are shorter, so the time per record, unlike the time
    per trajectory, does not depend on how many members of a seed's draw
    run the full window.
    """
    unit_s = [t for p in passes for t in p.unit_s]
    work_s = [t / w for p in passes for t, w in zip(p.unit_s, p.unit_work) if w]
    rates = [p.work / sum(p.unit_s) for p in passes if p.unit_s]
    return {
        "unit_s": unit_s,
        "unit_s_p50": statistics.median(unit_s),
        "work_s_p50": statistics.median(work_s),
        "work_per_s": statistics.median(rates),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "failures": [f for p in passes for f in p.failures],
    }


def tail(samples):
    """(level %, value) of the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def setup_probes(args) -> list:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(args.seed), "--setup-only"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def end_to_end(summary: dict, setup_samples: list) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_share": (summary["attempted"] - summary["failed"]) / summary["attempted"],
        "work_s_p50": summary["work_s_p50"],
        "work_per_s": summary["work_per_s"],
    }


def per_layer(plain: dict, traced_passes: list, tracers: list):
    """Per-layer metrics of the traced passes, and the seconds behind their shares.

    Counts come from the first traced pass (passes repeat exactly); times
    are medians over traced passes.  A layer that a workload never calls
    would read exactly 0 s on every run, so BENCHMARK.json carries busy and
    self time as a share of the traced pass's unit time; the seconds are
    printed beside it.
    """
    import spans

    traced = summarize(traced_passes)
    pass_s = [sum(p.unit_s) for p in traced_passes]
    totals = [t.layer_totals() for t in tracers]
    first = totals[0]
    values, seconds = {}, {}
    for group in set(spans.GROUPS.values()) | {"functionals.wave"}:
        values[f"{group}.calls"] = first.get(group, {}).get("calls", 0)
        for kind in ("busy", "self"):
            per_pass = [t.get(group, {}).get(f"{kind}_s", 0.0) for t in totals]
            seconds[f"{group}.{kind}_s"] = statistics.median(per_pass)
            values[f"{group}.{kind}_share"] = statistics.median(s / p for s, p in zip(per_pass, pass_s))
    requested = sum(r for r, _, _ in tracers[0].trajectories)
    certified = sum(c for _, c, _ in tracers[0].trajectories)
    fd_calls = values["brackets.fd_functional_derivative.calls"]
    values.update({
        "grid.fft.bytes": tracers[0].fft_bytes,
        "dynamics.requested_records": requested,
        "dynamics.certified_records": certified,
        "dynamics.certified_share": certified / requested if requested else 0.0,
        "dynamics.guard_trips": sum(1 for _, _, tripped in tracers[0].trajectories if tripped),
        "brackets.oracle_evaluations": first["brackets.oracle_evaluations"],
        "brackets.evaluations_per_field": first["brackets.oracle_evaluations"] / fd_calls if fd_calls else 0.0,
        "trace.spans": len(tracers[0].spans),
        "trace.overhead.work_s": traced["work_s_p50"] - plain["work_s_p50"],
        "trace.overhead.work_per_s": traced["work_per_s"] - plain["work_per_s"],
    })
    return values, seconds


# ---------------------------------------------------------------------------
# output


def workload_lines(name: str, summary: dict) -> list:
    """The workload's figures under its own names, with tails."""
    time_name, item_name, rate_name = WORKLOAD_NAMES[name]
    unit_s = summary["unit_s"]
    median_name = time_name if name == "verify" else f"{time_name}_p50"
    lines = [f"  {median_name} {summary['unit_s_p50']!r} s (n={len(unit_s)})"]
    if item_name != time_name:
        lines.append(f"  {item_name}_p50 {summary['work_s_p50']!r} s (per work item)")
    lines += [f"  {rate_name} {summary['work_per_s']!r} 1/s (median over passes)",
             f"  failed_share {summary['failed'] / summary['attempted']!r} "
             f"({summary['failed']} of {summary['attempted']})"]
    if len(unit_s) >= 100:
        lines.append(f"  {time_name}_p90 {statistics.quantiles(unit_s, n=10)[-1]!r} s (n={len(unit_s)})")
    highest = tail(unit_s)
    if highest is None:
        lines.append(f"  {time_name} tail: n/a (n={len(unit_s)}; no percentile above the median "
                     "has ten samples beyond it)")
    else:
        lines.append(f"  {time_name}_p{highest[0]:.1f} {highest[1]!r} s (n={len(unit_s)})")
    return lines


def main(argv=None, tiny: bool = False) -> int:
    """Run one workload; ``tiny`` shrinks its inputs for the self-tests."""
    args = parse_args(argv)
    import_program()
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, str(WORK_DIR), tiny)
    setup_s = time.perf_counter() - T0
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        plain, traced, tracers = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()

    import machine

    spec = metric_spec()
    plain_summary = summarize(plain)
    results = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "passes": len(plain), "machine": machine.facts()}
    if args.trace:
        values, seconds = per_layer(plain_summary, traced, tracers)
        kind = "per_layer"
        path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        for index, tracer in enumerate(tracers):
            tracer.write(str(path), index, append=index > 0)
        results["spans_file"] = str(path.relative_to(ROOT))
        results["traced_passes"] = len(traced)
        results["layer_baselines"] = machine.layer_baselines()
    else:
        values, seconds = end_to_end(plain_summary, [setup_s] + setup_probes(args)), {}
        kind = "end_to_end"
    checked = summarize(plain + traced)  # every pass, traced or not, is checked
    attempted, failed = checked["attempted"], checked["failed"]
    results["failures"] = checked["failures"][:20]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(plain)} "
          f"unit={workload.unit} work={workload.work_unit}")
    for line in workload_lines(args.workload, plain_summary):
        print(line)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']!r} {metric['unit']}")
    for name, value in sorted(seconds.items()):
        print(f"  {name} {value!r} s")
    print("results " + json.dumps(results))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
