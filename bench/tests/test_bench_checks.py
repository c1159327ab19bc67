"""Each output check accepts real program output and rejects a corrupted copy."""

import json
import math

import pytest

import checks
import reference
import worker
from workloads import ODE_ALPHA0, ODE_SPAN, Op, example_params

TOLS = dict(worker.cli.DEFAULT_TOLERANCES)
TARGETS = dict(worker.cli.SECTIONAL_TARGETS)

OPS = {
    "verify": Op("verify", "product", 2, example_params("product"), grid=2, seed=3),
    "angles-canonical": Op("angles", "cartan", 3, example_params("cartan"), grid=2,
                           gauge="canonical", seed=4),
    "angles-normalized": Op("angles", "product", 2, example_params("product"), grid=2, seed=5),
    "ode": Op("ode", "rotational", 3, (("alpha0", ODE_ALPHA0), ("span", ODE_SPAN)), steps=4000),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of each operation, kept as text."""
    out = {}
    for key, op in OPS.items():
        d = str(tmp_path_factory.mktemp(key))
        code, stderr, _, _ = worker.run_op(op, d)
        assert code == 0, stderr
        csv = open(checks.csv_path(d)).read() if op.command == "ode" else None
        out[key] = (open(checks.report_path(op, d)).read(), csv)
    return out


def _check(key, report, csv, tmp_path, code=0, stderr=""):
    op = OPS[key]
    with open(checks.report_path(op, str(tmp_path)), "w") as fh:
        fh.write(report if isinstance(report, str) else json.dumps(report))
    if csv is not None:
        with open(checks.csv_path(str(tmp_path)), "w") as fh:
            fh.write(csv)
    return checks.check_op(op, code, stderr, str(tmp_path), TOLS, TARGETS)


@pytest.mark.parametrize("key", sorted(OPS))
def test_real_output_passes(outputs, key, tmp_path):
    report, csv = outputs[key]
    outcome = _check(key, report, csv, tmp_path)
    assert not outcome.failed and not outcome.problems
    assert outcome.checks_passed > 0


def _first_check(r):
    return r["results"][0]["checks"][0]


VERIFY_CORRUPTIONS = {
    "failed_entry": lambda r: _first_check(r).update({"pass": False}),
    "residual_over_tolerance": lambda r: _first_check(r).update({"residual": 1.0}),
    "loosened_tolerance": lambda r: _first_check(r).update({"tolerance": 1.0}),
    "missing_point": lambda r: r["results"].pop(0),
    "point_outside_box": lambda r: r["results"][0].update({"point": [0.5, 0.0]}),
    "no_sectional_value": lambda r: [
        row.update({"checks": [c for c in row["checks"] if c["name"] != "sectional_value"]})
        for row in r["results"]],
    "distinct_angles": lambda r: r["summary"].update({"distinct_angles": 1}),
    "summary_not_all_pass": lambda r: r["summary"].update({"all_pass": False}),
}

ANGLES_CORRUPTIONS = {
    "principal_curvature": lambda r: r["results"][0]["principal_curvatures"].__setitem__(0, 0.5),
    "angle": lambda r: r["results"][0]["angles"].__setitem__(0, r["results"][0]["angles"][0] + 1e-3),
    "angle_out_of_range": lambda r: r["results"][0]["angles"].__setitem__(0, -0.1),
    "gauge_phi": lambda r: r["results"][0].update({"gauge_phi": r["results"][0]["gauge_phi"] + 0.1}),
    "missing_point": lambda r: r["results"].pop(),
    "distinct_angles": lambda r: r["summary"].update({"distinct_angles": r["summary"]["distinct_angles"] + 1}),
}


def _corrupt(text, fn):
    report = json.loads(text)
    fn(report)
    return report


@pytest.mark.parametrize("name", sorted(VERIFY_CORRUPTIONS))
def test_verify_check_rejects(outputs, name, tmp_path):
    report, _ = outputs["verify"]
    outcome = _check("verify", _corrupt(report, VERIFY_CORRUPTIONS[name]), None, tmp_path)
    assert outcome.failed and outcome.problems


@pytest.mark.parametrize("gauge", ["angles-canonical", "angles-normalized"])
@pytest.mark.parametrize("name", sorted(ANGLES_CORRUPTIONS))
def test_angles_check_rejects(outputs, gauge, name, tmp_path):
    report, _ = outputs[gauge]
    outcome = _check(gauge, _corrupt(report, ANGLES_CORRUPTIONS[name]), None, tmp_path)
    assert outcome.failed and outcome.problems


def test_normalized_angle_sum_rejects_a_common_shift(outputs, tmp_path):
    # shifting every angle and the gauge together keeps cot(theta + phi/2) but breaks the sum
    def shift(r):
        for row in r["results"]:
            row["angles"] = [t + 0.01 for t in row["angles"]]
            row["gauge_phi"] -= 0.02
    report, _ = outputs["angles-normalized"]
    outcome = _check("angles-normalized", _corrupt(report, shift), None, tmp_path)
    assert outcome.problems == ["angles.product-n2: gauge_angles"]


def _edit_csv(csv, row_index, column, delta):
    lines = csv.splitlines()
    cells = lines[row_index].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row_index] = ",".join(cells)
    return "\n".join(lines) + "\n"


ODE_CSV_CORRUPTIONS = {
    "no_csv": lambda c: "",
    "missing_row": lambda c: "\n".join(c.splitlines()[:-1]) + "\n",
    "off_unit_sphere": lambda c: _edit_csv(c, 100, 3, 1e-9),
    "header": lambda c: c.replace("dalpha", "dalpha_", 1),
    "theta_not_increasing": lambda c: _edit_csv(c, 50, 0, 1.0),
}


@pytest.mark.parametrize("name", sorted(ODE_CSV_CORRUPTIONS))
def test_ode_csv_check_rejects(outputs, name, tmp_path):
    report, csv = outputs["ode"]
    outcome = _check("ode", report, ODE_CSV_CORRUPTIONS[name](csv), tmp_path)
    assert outcome.failed and outcome.problems


def test_ode_report_check_rejects(outputs, tmp_path):
    report, csv = outputs["ode"]
    stopped = _corrupt(report, lambda r: r["trajectory"].update({"stopped_early": True}))
    assert _check("ode", stopped, csv, tmp_path).problems
    malformed = _corrupt(report, lambda r: r.pop("trajectory"))
    assert _check("ode", malformed, csv, tmp_path).problems


def test_ode_endpoint_against_reference(outputs, tmp_path):
    report, csv = outputs["ode"]
    final = _check("ode", report, csv, tmp_path).final_state
    ref = reference.profile_endpoint(3, ODE_ALPHA0, ODE_SPAN)
    assert checks.check_endpoint(final, ref)
    assert not checks.check_endpoint((final[0] + 1e-8, final[1]), ref)
    assert not checks.check_endpoint((final[0], final[1] - 1e-8), ref)


def test_closed_forms():
    assert reference.principal_curvatures("sphere", 3, {"r": 1 / math.sqrt(2)}) == pytest.approx([1.0] * 3)
    assert reference.principal_curvatures("product", 3, {"k": 1, "r1": 1 / math.sqrt(2)}) == \
        pytest.approx([-1.0, -1.0, 1.0])
    lams = reference.principal_curvatures("cartan", 3, {"t": 0.35})
    assert lams == pytest.approx(sorted(1 / math.tan(k * math.pi / 3 - 0.35) for k in range(3)))


def test_known_faults_are_told_apart(tmp_path):
    op = Op("angles", "cartan", 3, example_params("cartan"), grid=12, fault="angles-mod-pi")
    named = "error: not isoparametric-type input: angles vary across samples (spread 1.047e+00)"
    assert checks.check_op(op, 2, named, str(tmp_path), TOLS, TARGETS).problems == []
    other = checks.check_op(op, 2, "error: degenerate induced metric", str(tmp_path), TOLS, TARGETS)
    assert other.failed and other.problems
    traceback = checks.check_op(op, 1, "Traceback ...", str(tmp_path), TOLS, TARGETS)
    assert traceback.failed and traceback.problems


def test_order_window_fault_needs_it_to_be_the_only_failure(outputs, tmp_path):
    report, csv = outputs["ode"]
    op = Op("ode", "rotational", 3, OPS["ode"].params, steps=4000, fault="ode-order-window")

    def order_only(r):
        r["trajectory"]["order_ratio"] = 6.7
        r["summary"].update({"failed": 1, "passed": r["summary"]["passed"] - 1, "all_pass": False})

    def order_and_residual(r):
        order_only(r)
        _first_check(r).update({"pass": False})

    for fn, expect_problems in ((order_only, False), (order_and_residual, True)):
        with open(checks.report_path(op, str(tmp_path)), "w") as fh:
            json.dump(_corrupt(report, fn), fh)
        with open(checks.csv_path(str(tmp_path)), "w") as fh:
            fh.write(csv)
        outcome = checks.check_op(op, 1, "", str(tmp_path), TOLS, TARGETS)
        assert outcome.failed
        assert bool(outcome.problems) == expect_problems


def test_digest_ignores_only_the_timestamp(outputs):
    report, _ = outputs["verify"]
    stamped = report.replace('"timestamp": "', '"timestamp": "1999-')
    assert checks.digest(report) == checks.digest(stamped)
    assert checks.digest(report) != checks.digest(report.replace('"n": 2', '"n": 3'))
