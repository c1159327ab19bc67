"""One workload in one fresh process: timed passes of CLI operations.

Started by run.py, never imported. Runs whole passes of the workload until the
next pass would end after --seconds (at least one pass), checks every
operation's outputs, and prints one JSON object with the per-pass records and
the metrics as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import quadriclab  # noqa: E402
import quadriclab.cli as cli  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_KEYS = ("chart_evals", "checks_passed")


def run_op(op, out_dir: str, meter: calibration.Speedometer | None = None):
    """Call the CLI once; returns (exit code, stderr, seconds, scaled seconds or None)."""
    for path in (checks.report_path(op, out_dir), checks.csv_path(out_dir)):
        if os.path.exists(path):
            os.remove(path)
    err = io.StringIO()
    argv = op.argv(out_dir)
    mark = meter.mark() if meter else 0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    except Exception:  # any traceback is a benchmark error, reported below
        code = "exception"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return code, err.getvalue(), seconds, meter.scaled(seconds, mark) if meter else None


def run_pass(ops, out_dir: str, inst: tracing.Instrument, tolerances: dict, targets: dict,
             meter: calibration.Speedometer | None = None) -> dict:
    rec = {"wall_s": 0.0, "op_s": [], "scaled_op_s": [], "attempted": 0, "failed": 0,
           "points": 0, "chart_evals": 0, "checks_passed": 0, "problems": [], "digests": [],
           "config_s": {}, "ode_finals": []}
    for op in ops:
        before = inst.chart_evals
        code, stderr, seconds, scaled = run_op(op, out_dir, meter)
        rec["chart_evals"] += inst.chart_evals - before
        outcome = checks.check_op(op, code, stderr, out_dir, tolerances, targets)
        rec["wall_s"] += seconds
        rec["op_s"].append(seconds)
        rec["scaled_op_s"].append(scaled)
        rec["config_s"][op.config] = rec["config_s"].get(op.config, 0.0) + seconds
        rec["attempted"] += 1
        rec["failed"] += outcome.failed
        rec["points"] += op.points
        rec["checks_passed"] += outcome.checks_passed
        rec["problems"] += outcome.problems
        rec["digests"].append(outcome.digest)
        if outcome.final_state is not None:
            rec["ode_finals"].append([op.n, *outcome.final_state])
    return rec


def check_endpoints(passes: list[dict], span: float, alpha0: float) -> None:
    """Compare every ode final state with the scipy reference (after RSS is read)."""
    refs = {}
    for rec in passes:
        for n, alpha, dalpha in rec["ode_finals"]:
            if n not in refs:
                refs[n] = reference.profile_endpoint(n, alpha0, span)
            if checks.check_endpoint((alpha, dalpha), refs[n]):
                rec["checks_passed"] += 1
            else:
                rec["problems"].append(f"ode.rotational-n{n}: endpoint {alpha!r}, {dalpha!r} "
                                       f"differs from the reference {refs[n]}")


def mean_spans(passes: list[dict]) -> dict:
    """Per-pass mean of [calls, inclusive_s, self_s] for every span of a traced run."""
    out: dict[str, list] = {}
    for rec in passes:
        for name, values in rec.get("spans", {}).items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v / len(passes)
    return dict(sorted(out.items()))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if not os.path.abspath(quadriclab.__file__).startswith(SRC + os.sep):
        sys.exit(f"quadriclab imported from {quadriclab.__file__}, not from {SRC}")
    os.makedirs(args.out, exist_ok=True)

    inst = tracing.Instrument(trace=bool(args.trace))
    inst.install()
    tolerances = dict(cli.DEFAULT_TOLERANCES)
    targets = dict(cli.SECTIONAL_TARGETS)
    # the traced run reports span times only, so its spans hold no probes
    meter = None if args.trace else calibration.Speedometer()
    passes = []
    start = time.perf_counter()
    if meter:
        meter.start()
    try:
        while True:
            ops = workloads.build_ops(args.workload, args.seed, len(passes))
            inst.take()
            rec = run_pass(ops, args.out, inst, tolerances, targets, meter)
            stats, counts = inst.take()
            if args.trace:
                rec["layers"] = tracing.layer_metrics(stats, counts, rec["points"], rec["config_s"])
                rec["spans"] = stats
            passes.append(rec)
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    finally:
        if meter:
            meter.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    inst.uninstall()
    if args.workload == "ode-flow":
        check_endpoints(passes, span=workloads.ODE_SPAN, alpha0=workloads.ODE_ALPHA0)

    metrics = {
        "chart_evals": statistics.median_low(p["chart_evals"] for p in passes),
        "checks_passed": statistics.median_low(p["checks_passed"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "points_per_s": sum(p["points"] for p in passes) / sum(p["wall_s"] for p in passes),
    }
    if meter:
        # Every pass has the same operations in the same order: an operation's
        # figure is the median of its scaled times over the passes, and a pass
        # is the sum of its operations.
        scaled_pass_s = sum(statistics.median(times)
                            for times in zip(*(p["scaled_op_s"] for p in passes)))
        metrics["scaled_pass_s"] = scaled_pass_s
        metrics["scaled_points_per_s"] = passes[0]["points"] / scaled_pass_s
        raw["probe_s"] = statistics.median(meter.samples)
        raw["probe_interval_s"] = elapsed / len(meter.samples)
    count_rows = {tuple(p[k] for k in COUNT_KEYS) for p in passes}
    layers = {}
    if args.trace:
        keys = passes[0]["layers"].keys()
        layers = {k: (statistics.median_low if tracing.repeats(k) else statistics.fmean)(
            p["layers"][k] for p in passes) for k in keys}
        count_rows = {tuple(p[k] for k in COUNT_KEYS)
                      + tuple(v for k, v in sorted(p["layers"].items()) if tracing.repeats(k))
                      for p in passes}
    problems = sorted({msg for p in passes for msg in p["problems"]})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "raw": raw,
        "op_s": [p["op_s"] for p in passes],
        "scaled_op_s": [p["scaled_op_s"] for p in passes],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "correct": not problems,
        "problems": problems,
        "counts_repeat": len(count_rows) == 1,
        "metrics": metrics,
        "layers": layers,
        "config_s": {k: statistics.fmean(p["config_s"][k] for p in passes) for k in passes[0]["config_s"]},
        "digests": [p["digests"] for p in passes],
        "spans": mean_spans(passes),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
