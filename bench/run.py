"""quadriclab benchmark: verify, angles-scan and ode-flow workloads.

One workload, as a benchmark driver calls it:

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

prints the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1), and as its last line one JSON object with the keys
correct, attempted, failed and metrics. Every workload, untraced and traced,
with the spread over seeds, the tracing overhead and the determinism checks:

    python3 bench/run.py --seeds 1-10 --label baseline

writes bench/out/BENCH_<label>.json. Each workload runs in a fresh worker
process whose BLAS pool is held to one thread through its environment;
set-up time is the median over fresh processes that only import numpy and
quadriclab, half of them run before the worker and half after it. The
end-to-end times are scaled to the reference speed of calibration.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8  # before the worker, and as many again after it
WORKER_TIMEOUT_S = 150
TRACED_SEEDS = 2  # suite mode traces the first two seeds of each workload
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
         "import numpy, quadriclab, quadriclab.cli; print(time.time(), flush=True)")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """One BLAS thread: the program's matrices are a few rows wide, and idle pool
    threads spinning on a shared host only add noise."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def setup_seconds(env: dict, count: int) -> list[float]:
    """Fresh-process start-up until numpy and quadriclab are imported, per probe,
    scaled by the calibration kernel timed right before the probe."""
    times = []
    for _ in range(count):
        kernel_s = calibration.kernel_seconds()
        start = time.time()
        proc = subprocess.run([sys.executable, "-c", PROBE, SRC], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(calibration.scaled_by_kernel(float(proc.stdout.split()[0]) - start, kernel_s))
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    out_dir = os.path.join("bench", "out", workload)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up probes and one worker run; the record is also written under bench/out."""
    env = child_env()
    setup_seconds(env, 1)  # compiles the bytecode cache on a fresh checkout; not counted
    setup = setup_seconds(env, SETUP_PROBES)
    rec = run_worker(workload, seed, seconds, trace, env)
    setup += setup_seconds(env, SETUP_PROBES)
    rec["metrics"]["setup_s"] = statistics.median(setup)
    rec["setup_probes_s"] = setup
    rec["provenance"] = {
        "nproc": nproc(),
        "python": rec.pop("python"),
        "numpy": rec.pop("numpy"),
        "git_sha": git_sha(),
        "machine": platform.machine(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
    return rec


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def driver_line(rec: dict, spec: dict, trace: int) -> dict:
    values = rec["layers"] if trace else rec["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def quartile_spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def suite(seeds: list[int], seconds: float, label: str, workloads: list[str]) -> int:
    spec = load_spec()
    summary = {"label": label, "seeds": seeds, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        plain, traced = {}, {}
        for s in seeds:  # a traced run follows its untraced twin, so both see the same machine
            plain[s] = run_one(workload, s, seconds, 0)
            if len(traced) < TRACED_SEEDS:
                traced[s] = run_one(workload, s, seconds, 1)
        runs = [*plain.values(), *traced.values()]
        counts = {(r["metrics"]["chart_evals"], r["metrics"]["checks_passed"]) for r in runs}
        layer_counts = [{k: v for k, v in r["layers"].items() if tracing.repeats(k)}
                        for r in traced.values()]
        same_reports = all(
            a == b for s, t in traced.items()
            for a, b in zip(plain[s]["digests"], t["digests"]))
        checks = {
            "correct": all(r["correct"] for r in runs),
            "counts_repeat_within_runs": all(r["counts_repeat"] for r in runs),
            "counts_repeat_across_runs": len(counts) == 1 and all(c == layer_counts[0] for c in layer_counts),
            "traced_reports_identical": same_reports,
            "failed_share_constant": len({r["failed"] / r["attempted"] for r in runs}) == 1,
        }
        ok &= all(checks.values())
        metrics = {m["name"]: {**quartile_spread([r["metrics"][m["name"]] for r in plain.values()]),
                               "unit": m["unit"], "bound": m["bound"]}
                   for m in spec["end_to_end"]}
        raw = {k: quartile_spread([r["raw"][k] for r in plain.values()])
               for k in next(iter(plain.values()))["raw"]}
        overhead = statistics.median(t["raw"]["wall_s"] / plain[s]["raw"]["wall_s"] - 1.0
                                     for s, t in traced.items())
        layers = {k: statistics.median(t["layers"][k] for t in traced.values())
                  for k in next(iter(traced.values()))["layers"]}
        configs = {k: statistics.median(r["config_s"][k] for r in plain.values())
                   for k in next(iter(plain.values()))["config_s"]}
        summary["workloads"][workload] = {
            "attempted": [r["attempted"] for r in plain.values()],
            "failed": [r["failed"] for r in plain.values()],
            "problems": sorted({p for r in runs for p in r["problems"]}),
            "checks": checks,
            "metrics": metrics,
            "raw": raw,
            "tracing_overhead": overhead,
            "config_s": configs,
            "layers": layers,
            "spans": next(iter(traced.values()))["spans"],
        }
        print(f"{workload}: attempted {sum(summary['workloads'][workload]['attempted'])}, "
              f"failed {sum(summary['workloads'][workload]['failed'])}, tracing overhead "
              f"{overhead:+.1%}, checks {checks}")
        for name, m in metrics.items():
            print(f"  {name} = {m['median']:.6g} {m['unit']} (quartile spread {m['spread']:.2%} "
                  f"of the median over {m['n']} seeds, bound {m['bound']:.0%})")
        for name, m in raw.items():
            print(f"  unscaled {name} = {m['median']:.6g} (quartile spread {m['spread']:.2%})")
    summary["provenance"] = runs[0]["provenance"]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH_{label}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"wrote {path}")
    return 0 if ok else 1


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", default="1-2", help="suite mode: seeds such as 1-10 or 1,4,9")
    parser.add_argument("--label", default="local", help="suite mode: names BENCH_<label>.json")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "quadriclab", "__init__.py")):
        print(f"error: no quadriclab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload is None:
            return suite(parse_seeds(args.seeds), seconds, args.label, list(WORKLOADS))
        rec = run_one(args.workload, args.seed, seconds, args.trace)
        line = driver_line(rec, spec, args.trace)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in rec["problems"]:
        print(f"benchmark error: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rec['passes']} passes, attempted {line['attempted']}, "
          f"failed {line['failed']}, correct {line['correct']}")
    for name, m in line["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
