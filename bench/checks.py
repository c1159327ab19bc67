"""Output checks of each operation, against references or the method's own laws.

Every check function returns a list of (name, ok) items; a benchmark error is
any item that is not ok, or a failed operation that is not explained by the
known fault the workload names for it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import reference
from workloads import Op

CURVATURE_TOL = 1e-6  # finite-difference principal curvatures at h = 1e-4
ANGLE_SUM_TOL = 1e-7  # the program certifies the normalized sum to 1e-8
SPHERE_TOL = 1e-12  # profile samples are normalized analytically
ENDPOINT_TOL = 1e-9  # RK4 at <= 2e-4 steps against DOP853 at 1e-13
ORDER_WINDOW = (12.0, 20.0)


@dataclass
class Outcome:
    failed: bool
    problems: list[str] = field(default_factory=list)
    checks_passed: int = 0
    digest: str | None = None
    final_state: tuple[float, float] | None = None


def report_path(op: Op, out_dir: str) -> str:
    return os.path.join(out_dir, f"{op.command}_{op.example}_report.json")


def csv_path(out_dir: str) -> str:
    return os.path.join(out_dir, "profile.csv")


def digest(*texts: str) -> str:
    """Hash of the outputs with the report's timestamp line left out."""
    h = hashlib.sha256()
    for text in texts:
        for line in text.splitlines():
            if not line.strip().startswith('"timestamp"'):
                h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def _mod_pi(x: float) -> float:
    d = x % math.pi
    return min(d, math.pi - d)


def _close(a, b, tol) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol * (1.0 + abs(y)) for x, y in zip(a, b))


def _inside(point, box) -> bool:
    return len(point) == len(box) and all(lo < x < hi for x, (lo, hi) in zip(point, box))


def _read(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return fh.read()


def _entries(report: dict) -> list[dict]:
    return [c for r in report["results"] for c in r["checks"]]


def check_entries(report: dict, tolerances: dict) -> list[tuple[str, bool]]:
    """Every residual entry passes at its default tolerance, and the summary agrees."""
    entries = _entries(report)
    summary = report["summary"]
    gates = 1 if "trajectory" in report else 0  # ode counts its order-ratio gate in the summary only
    return [
        ("has_entries", bool(entries)),
        ("default_tolerances", all(tolerances.get(c["name"]) == c["tolerance"] for c in entries)),
        ("residuals_pass", all(c["pass"] and c["residual"] <= c["tolerance"] for c in entries)),
        ("summary_all_pass", summary["all_pass"] is True and summary["failed"] == 0
         and summary["passed"] == summary["total"] == len(entries) + gates),
    ]


def check_verify(op: Op, report: dict, tolerances: dict, program_targets: dict) -> list[tuple[str, bool]]:
    params = dict(op.params)
    items = check_entries(report, tolerances)
    point_rows = [r for r in report["results"] if not isinstance(r["point"][0], str)]
    box = reference.chart_box(op.example, op.n, params)
    items.append(("grid_points", len(point_rows) == op.grid))
    items.append(("points_in_box", all(_inside(r["point"], box) for r in point_rows)))
    key = "product-n2" if (op.example, op.n) == ("product", 2) else op.example
    if key in reference.SECTIONAL_TARGETS:
        items.append(("sectional_value_checked", all(
            any(c["name"] == "sectional_value" for c in r["checks"]) for r in point_rows)))
        if key in program_targets:
            items.append(("sectional_target", program_targets[key] == reference.SECTIONAL_TARGETS[key]))
    if op.example in reference.DISTINCT_ANGLES:
        items.append(("distinct_angles",
                      report["summary"].get("distinct_angles") == reference.DISTINCT_ANGLES[op.example]))
    return items


def check_angles(op: Op, report: dict) -> list[tuple[str, bool]]:
    params = dict(op.params)
    lams = reference.principal_curvatures(op.example, op.n, params)
    box = reference.chart_box(op.example, op.n, params)
    rows = report["results"]
    ok_lams, ok_gauge, ok_range = True, True, True
    for row in rows:
        th, phi = row["angles"], row["gauge_phi"]
        ok_lams &= _close(sorted(row["principal_curvatures"]), lams, CURVATURE_TOL)
        # [0, pi] closed: angle_spectrum documents [0, pi) but can round to pi exactly
        ok_range &= all(0.0 <= t <= math.pi for t in th)
        # lambda = cot(theta) in the canonical gauge; the gauge phi shifts every
        # angle by -phi/2, and the normalized gauge makes the angles sum to 0 mod pi
        cots = sorted(1.0 / math.tan(t + 0.5 * phi) for t in th)
        ok_gauge &= _close(cots, lams, CURVATURE_TOL)
        if op.gauge == "canonical":
            ok_gauge &= phi == 0.0
        else:
            ok_gauge &= _mod_pi(sum(th)) <= ANGLE_SUM_TOL
    return [
        ("grid_points", len(rows) == op.grid),
        ("points_in_box", all(_inside(r["point"], box) for r in rows)),
        ("angles_in_range", ok_range),
        ("principal_curvatures", ok_lams),
        ("gauge_angles", ok_gauge),
        ("distinct_angles", report["summary"].get("distinct_angles") == reference.DISTINCT_ANGLES[op.example]),
    ]


def read_profile(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines() or [""]
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_ode(op: Op, report: dict, csv_text: str, tolerances: dict) -> tuple[list[tuple[str, bool]], tuple]:
    """Checks of one ode operation, and the final (alpha, alpha') for the reference."""
    span = dict(op.params)["span"]
    header, rows = read_profile(csv_text)
    traj = report["trajectory"]
    items = check_entries(report, tolerances)
    items += [
        ("trajectory_samples", traj["samples"] == op.steps + 1 and not traj["stopped_early"]),
        ("csv_header", header == ["theta", "alpha", "dalpha", "gx", "gy", "gz"]),
        ("csv_rows", len(rows) == op.steps + 1),
        ("csv_on_unit_sphere", all(abs(math.sqrt(r[3] ** 2 + r[4] ** 2 + r[5] ** 2) - 1.0) <= SPHERE_TOL
                                   for r in rows)),
        ("csv_span", bool(rows) and rows[0][0] == 0.0 and abs(rows[-1][0] - span) <= 1e-12
         and all(a[0] < b[0] for a, b in zip(rows, rows[1:]))),
    ]
    final = (rows[-1][1], rows[-1][2]) if rows else (math.nan, math.nan)
    return items, final


def check_endpoint(final: tuple[float, float], ref: tuple[float, float]) -> bool:
    return all(abs(a - b) <= ENDPOINT_TOL for a, b in zip(final, ref))


def matches_fault(op: Op, code, stderr: str, report: dict | None) -> bool:
    """The operation failed exactly the way its named fault makes it fail."""
    if op.fault == "angles-mod-pi":
        # the normalized gauge puts one angle at 0 = pi and its representative flips
        return code == 2 and "angles vary across samples" in stderr
    if op.fault == "ode-order-window":
        # at 16000 steps the order probe differs only by round-off: exit 1, nothing else fails
        if code != 1 or report is None:
            return False
        ratio = report["trajectory"]["order_ratio"]
        return (report["summary"]["failed"] == 1
                and all(c["pass"] for c in _entries(report))
                and not ORDER_WINDOW[0] <= ratio <= ORDER_WINDOW[1])
    return False


def check_op(op: Op, code, stderr: str, out_dir: str, tolerances: dict, program_targets: dict) -> Outcome:
    """Classify one finished operation and check what it wrote."""
    report_text = _read(report_path(op, out_dir))
    csv_text = (_read(csv_path(out_dir)) if op.command == "ode" else None) or ""
    try:
        outcome = _classify(op, code, stderr, report_text, csv_text, tolerances, program_targets)
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # output not in the expected form
        outcome = Outcome(failed=True, problems=[f"{op.config}: malformed output: {exc!r}"])
    outcome.digest = digest(report_text, csv_text) if report_text else None
    return outcome


def _classify(op: Op, code, stderr: str, report_text: str | None, csv_text: str,
              tolerances: dict, program_targets: dict) -> Outcome:
    report = json.loads(report_text) if report_text else None
    if op.fault and matches_fault(op, code, stderr, report):
        return Outcome(failed=True, checks_passed=report["summary"]["passed"] if report else 0)
    if code != 0 or report is None:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else "no message"
        return Outcome(failed=True, problems=[f"{op.config}: exit {code}: {last}"])
    final = None
    if op.command == "verify":
        items = check_verify(op, report, tolerances, program_targets)
    elif op.command == "angles":
        items = check_angles(op, report)
    else:
        items, final = check_ode(op, report, csv_text, tolerances)
    problems = [f"{op.config}: {name}" for name, ok in items if not ok]
    passed = report["summary"].get("passed", 0) + sum(ok for _, ok in items)
    return Outcome(failed=bool(problems), problems=problems, checks_passed=passed, final_state=final)
