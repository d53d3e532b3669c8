"""Machine-readable reports: checks, JSON serialization, CSV tables.

Numeric output is fixed at 17 significant digits so downstream tools can
round-trip every value; reports carry no timestamps, making identical
configurations produce byte-identical numeric content.
"""

import io
from dataclasses import dataclass, field

from .dynamics import _RECORD_FIELDS, Trajectory
from .functionals import in_convention

TRAJECTORY_HEADER = ",".join(_RECORD_FIELDS)


def format17(x) -> str:
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class Check:
    """One verified quantity: what was expected, measured, and at what tolerance."""

    name: str
    measured: float
    tolerance: float
    passed: bool
    expected: float = None
    asserted: bool = True
    provenance: str = ""


def compare(name, measured, expected, tolerance, provenance="", asserted=True) -> Check:
    """Check |measured - expected| <= tolerance."""
    measured, expected, tolerance = float(measured), float(expected), float(tolerance)
    return Check(name=name, measured=measured, expected=expected, tolerance=tolerance,
                 passed=abs(measured - expected) <= tolerance, provenance=provenance, asserted=asserted)


def bound(name, measured, tolerance, provenance="", asserted=True) -> Check:
    """Check measured <= tolerance (for residual maxima)."""
    measured, tolerance = float(measured), float(tolerance)
    return Check(name=name, measured=measured, expected=None, tolerance=tolerance,
                 passed=measured <= tolerance, provenance=provenance, asserted=asserted)


def info(name, measured, provenance="") -> Check:
    """Informational record: never asserted, never fails a report."""
    return Check(name=name, measured=float(measured), expected=None, tolerance=float("inf"),
                 passed=True, asserted=False, provenance=provenance)


@dataclass
class Report:
    """Collected checks plus free-form notes (sign conventions etc.)."""

    title: str
    convention: str
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def status(self) -> str:
        return "pass" if all(c.passed for c in self.checks if c.asserted) else "fail"

    def extend(self, checks, notes=()):
        self.checks.extend(checks)
        self.notes.extend(notes)

    def to_obj(self) -> dict:
        return {
            "title": self.title,
            "convention": self.convention,
            "status": self.status,
            "notes": list(self.notes),
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "measured": c.measured,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "asserted": c.asserted,
                    "provenance": c.provenance,
                }
                for c in self.checks
            ],
        }


def dumps17(obj, indent: int = 0) -> str:
    """Deterministic JSON with every float rendered at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}"{key}": {dumps17(val, indent + 1)}' for key, val in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{dumps17(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return '"' + repr(obj) + '"'
        return format17(obj)
    if isinstance(obj, int):
        return str(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def table_csv(header, rows) -> str:
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(str(c) if isinstance(c, (int, str)) else format17(c) for c in row) + "\n")
    return out.getvalue()


def trajectory_csv(traj: Trajectory, convention: str) -> str:
    """One row per record, one column per :class:`TrajectoryRecord` field, delta_x2 in ``convention``."""
    columns = {name: traj.column(name) for name in _RECORD_FIELDS}
    columns["delta_x2"] = in_convention(columns["delta_x2"], convention)
    return table_csv(_RECORD_FIELDS, zip(*(column.tolist() for column in columns.values())))
