"""Tracing leaves the reports unchanged, its counts repeat, and run.py keeps its contract."""

import json
import os
import shutil
import signal
import subprocess
import sys

import quadriclab.cli
import quadriclab.gaussmap

import calibration
import tracing
import worker
from workloads import ODE_ALPHA0, ODE_SPAN, Op, example_params

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
TOLS = dict(worker.cli.DEFAULT_TOLERANCES)
TARGETS = dict(worker.cli.SECTIONAL_TARGETS)

OPS = [
    Op("verify", "product", 2, example_params("product"), grid=1, seed=7),
    Op("angles", "sphere", 3, example_params("sphere"), grid=2, gauge="canonical", seed=2),
    Op("ode", "rotational", 3, (("alpha0", ODE_ALPHA0), ("span", ODE_SPAN)), steps=4000),
]


def _run(trace, out_dir):
    inst = tracing.Instrument(trace)
    inst.install()
    try:
        rec = worker.run_pass(OPS, str(out_dir), inst, TOLS, TARGETS)
        stats, counts = inst.take()
    finally:
        inst.uninstall()
    return rec, tracing.layer_metrics(stats, counts, rec["points"], {})


def test_traced_reports_and_counts_match_untraced(tmp_path):
    # the same directory for both: the ode report records the path of its CSV
    plain, _ = _run(False, tmp_path)
    traced, layers = _run(True, tmp_path)
    assert plain["problems"] == traced["problems"] == []
    assert plain["digests"] == traced["digests"] and None not in plain["digests"]
    assert plain["chart_evals"] == traced["chart_evals"] == layers["hypersurfaces.chart_eval.calls"] > 0
    assert plain["checks_passed"] == traced["checks_passed"] > 0


def test_layer_counts_repeat_exactly(tmp_path):
    _, first = _run(True, tmp_path / "a")
    _, second = _run(True, tmp_path / "b")
    counts = {k: v for k, v in first.items() if tracing.repeats(k)}
    assert counts == {k: v for k, v in second.items() if tracing.repeats(k)}
    assert counts["rotational.rk4_steps"] >= 4000 and first["cli.write_bytes"] > 0
    assert all(first[k] > 0 for k in ("numerics.symmetric_eigen.self_s", "cli.self_s", "cli.write_s"))


def test_uninstall_restores_every_binding():
    originals = (quadriclab.cli.main, quadriclab.cli.gauss_map, quadriclab.gaussmap.gauss_map,
                 quadriclab.quadric.StiefelPoint.__dict__["from_complex"])
    inst = tracing.Instrument(True)
    inst.install()
    assert quadriclab.cli.gauss_map is not originals[1]
    assert quadriclab.cli.gauss_map is quadriclab.gaussmap.gauss_map
    inst.uninstall()
    assert (quadriclab.cli.main, quadriclab.cli.gauss_map, quadriclab.gaussmap.gauss_map,
            quadriclab.quadric.StiefelPoint.__dict__["from_complex"]) == originals


def test_speedometer_scales_every_operation(tmp_path):
    inst = tracing.Instrument(False)
    inst.install()
    meter = calibration.Speedometer()
    meter.start()
    try:
        rec = worker.run_pass(OPS, str(tmp_path), inst, TOLS, TARGETS, meter)
    finally:
        meter.stop()
        inst.uninstall()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert rec["problems"] == [] and len(meter.samples) > 0
    # scaled = (wall - probes inside) * mean speed, between the slowest and fastest probe
    speeds = [calibration.PROBE_REFERENCE_S / p for p in meter.samples]
    for wall, scaled in zip(rec["op_s"], rec["scaled_op_s"]):
        assert 0 < scaled <= wall * max(speeds)


def test_driver_line(tmp_path):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ode-flow", "--seed", "4",
                           "--seconds", "0.1", "--trace", "1"], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and (line["attempted"], line["failed"]) == (4, 1)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert sorted(line["metrics"]) == sorted(m["name"] for m in spec["per_layer"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "10", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
