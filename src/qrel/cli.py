"""Command-line front end: verify / evolve / transform.

Exit codes: 0 on success, 1 on assertion or integrator-guard failure,
2 on configuration errors.  All numeric output is deterministic (17
significant digits, no timestamps), so identical configurations produce
byte-identical files.
"""

import argparse
import os
import sys

from .config import SUITE_NAMES, load_config, select_suites
from .dynamics import run_trajectory
from .errors import ConfigurationError, QrelError, ResolutionGuardError
from .functionals import CONVENTIONS
from .report import dumps17, format17, table_csv, trajectory_csv
from .suites import ORIENTATION_NOTE, TRANSFORM_COLUMNS, _dilatation_sweep, run_suites


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qrel",
                                     description="uncertainty-relativity verification laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="scenario JSON file (defaults are built in)")
    common.add_argument("--out", default="qrel-out", help="output directory")
    common.add_argument("--convention", choices=CONVENTIONS,
                        help="delta_x2 factor convention override")

    verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    verify.add_argument("--suite", help=f"comma-separated suites (default: all of {','.join(SUITE_NAMES)})")

    sub.add_parser("evolve", parents=[common], help="integrate a flow and write the trajectory table")
    sub.add_parser("transform", parents=[common], help="dilatation sweep against the arithmetic laws")
    return parser


def _prepare(args):
    cfg = load_config(args.config)
    if args.convention:
        cfg.convention = args.convention
    if getattr(args, "suite", None) is not None:
        cfg.suites = select_suites([s.strip() for s in args.suite.split(",") if s.strip()], "--suite")
    os.makedirs(args.out, exist_ok=True)
    return cfg


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_verify(args) -> int:
    cfg = _prepare(args)
    report = run_suites(cfg)
    path = os.path.join(args.out, "report.json")
    _write(path, dumps17(report.to_obj()) + "\n")
    for check in report.checks:
        marker = "PASS" if check.passed else "FAIL"
        if not check.asserted:
            marker = "INFO"
        print(f"[{marker}] {check.name}: measured={format17(check.measured)}"
              + (f" tol={format17(check.tolerance)}" if check.asserted else ""))
    print(f"report: {path} status={report.status}")
    return 0 if report.status == "pass" else 1


def cmd_evolve(args) -> int:
    cfg = _prepare(args)
    wave = cfg.make_wave()
    try:
        traj = run_trajectory(wave, cfg.flow, cfg.step, cfg.steps)
    except ResolutionGuardError as err:
        print(f"evolve: {err} (no certifiable records)", file=sys.stderr)
        return 1
    csv_path = os.path.join(args.out, "trajectory.csv")
    _write(csv_path, trajectory_csv(traj, cfg.convention))
    summary = {
        "flow": traj.flow,
        "step": traj.step,
        "requested_steps": traj.requested_steps,
        "records": traj.last_valid_step + 1,
        "last_valid_step": traj.last_valid_step,
        "guard_tripped": traj.guard_tripped,
        "guard_reason": traj.guard_reason,
        "potential_clamp_events": traj.clamp_events,
        "convention": cfg.convention,
    }
    _write(os.path.join(args.out, "evolve_summary.json"), dumps17(summary) + "\n")
    print(f"trajectory: {csv_path} records={traj.last_valid_step + 1}")
    if traj.guard_tripped:
        print(f"evolve: integrator guard tripped; last valid record index {traj.last_valid_step} "
              f"({traj.guard_reason})", file=sys.stderr)
        return 1
    return 0


def cmd_transform(args) -> int:
    cfg = _prepare(args)
    rows = _dilatation_sweep(cfg.make_state(), cfg.alphas, cfg.convention)
    worst = max(row["residual"] for row in rows)
    csv_path = os.path.join(args.out, "transform.csv")
    _write(csv_path, table_csv(TRANSFORM_COLUMNS, ([row[c] for c in TRANSFORM_COLUMNS] for row in rows)))
    summary = {
        "alphas": list(cfg.alphas),
        "max_residual": worst,
        "convention": cfg.convention,
        "notes": [ORIENTATION_NOTE],
    }
    _write(os.path.join(args.out, "transform_summary.json"), dumps17(summary) + "\n")
    print(f"transform table: {csv_path} max_residual={format17(worst)}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"verify": cmd_verify, "evolve": cmd_evolve, "transform": cmd_transform}
    try:
        return handlers[args.command](args)
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except QrelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
