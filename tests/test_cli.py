import dataclasses
import json
import os

import numpy as np
import pytest

from quadriclab import cli
from quadriclab.cli import RunConfig, ConfigError, kronecker_points, main
from quadriclab.hypersurfaces import Box, round_sphere


def run(tmp_path, *args):
    return main(list(args) + ["--out", str(tmp_path)])


def load_report(tmp_path, command, example):
    with open(tmp_path / f"{command}_{example}_report.json") as fh:
        return json.load(fh)


class TestConfig:
    def test_unknown_example(self):
        with pytest.raises(ConfigError):
            RunConfig(command="verify", example="torus")

    def test_h_range(self):
        with pytest.raises(ConfigError):
            RunConfig(command="verify", h=1.0)

    def test_grid_positive(self):
        with pytest.raises(ConfigError):
            RunConfig(command="verify", grid=0)

    @pytest.mark.parametrize("n", [0, -2])
    def test_n_positive(self, tmp_path, n):
        with pytest.raises(ConfigError):
            RunConfig(command="verify", n=n)
        assert run(tmp_path, "verify", "--n", str(n)) == 2

    def test_non_numeric_tolerance_exits_2(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "--tol", "gauss_equation=abc") == 2
        assert "gauss_equation" in capsys.readouterr().err

    def test_tolerance_override(self):
        cfg = RunConfig(command="verify", tolerances={"gauss_equation": 1e-2})
        assert cfg.tol("gauss_equation") == 1e-2
        assert cfg.tol("codazzi_equation") == 1e-3


class TestSamplePoints:
    def test_deterministic(self):
        box = Box.cube(3, 0.4)
        a = kronecker_points(box, 5, seed=2, margin=0.05)
        b = kronecker_points(box, 5, seed=2, margin=0.05)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_interior(self):
        box = Box.cube(2, 0.4)
        for x in kronecker_points(box, 50, seed=0, margin=0.03):
            assert box.contains(x, margin=0.029)

    def test_beyond_twelve_primes(self, tmp_path):
        # dimension 7 needs the 13th and 14th primes for its start offsets
        box = Box.cube(7, 0.4)
        for x in kronecker_points(box, 3, seed=0, margin=0.03):
            assert box.contains(x, margin=0.029)
        assert run(tmp_path, "verify", "--n", "7", "--grid", "1") == 0

    def test_seed_changes_points(self):
        box = Box.cube(2, 0.4)
        a = kronecker_points(box, 3, seed=0, margin=0.0)
        b = kronecker_points(box, 3, seed=1, margin=0.0)
        assert not np.allclose(a[0], b[0])


class TestVerifyCommand:
    def test_sphere_passes(self, tmp_path, capsys):
        code = run(tmp_path, "verify", "--example", "sphere", "--n", "3", "--r", "0.7071", "--grid", "1")
        assert code == 0
        rep = load_report(tmp_path, "verify", "sphere")
        names = {c["name"] for r in rep["results"] for c in r["checks"]}
        assert "sectional_value" in names  # the curvature-2 check
        assert rep["summary"]["all_pass"] is True
        assert rep["summary"]["distinct_angles"] == 1

    def test_cartan_report_contents(self, tmp_path):
        code = run(tmp_path, "verify", "--example", "cartan", "--grid", "1")
        assert code == 0
        rep = load_report(tmp_path, "verify", "cartan")
        names = {c["name"] for r in rep["results"] for c in r["checks"]}
        assert "cubic_component_squared" in names
        assert "sectional_value" in names
        assert rep["summary"]["distinct_angles"] == 3

    def test_invalid_radius_exits_2(self, tmp_path):
        assert run(tmp_path, "verify", "--example", "sphere", "--r", "2") == 2

    def test_unknown_example_exits_2(self, tmp_path):
        assert run(tmp_path, "verify", "--example", "nonsense") == 2

    def test_failure_exit_code(self, tmp_path):
        # an absurdly tight tolerance forces a reported failure
        code = run(
            tmp_path,
            "verify",
            "--example",
            "sphere",
            "--grid",
            "1",
            "--tol",
            "gauss_equation=1e-30",
        )
        assert code == 1
        rep = load_report(tmp_path, "verify", "sphere")
        assert rep["summary"]["failed"] >= 1

    def test_report_schema(self, tmp_path):
        run(tmp_path, "verify", "--example", "product", "--n", "2", "--grid", "1")
        rep = load_report(tmp_path, "verify", "product")
        assert set(rep) == {"config", "results", "summary", "timestamp"}
        for r in rep["results"]:
            for c in r["checks"]:
                assert set(c) == {"name", "residual", "tolerance", "pass"}
        assert isinstance(rep["summary"]["skipped"], list)

    def test_chart_evaluation_budget(self, monkeypatch):
        # embed and normal evaluations for one verified point of the round
        # 3-sphere; each per-point quantity is built once, so a change that
        # rebuilds one moves this count
        calls = []

        def counted(fn):
            def wrapper(q):
                calls.append(1)
                return fn(q)

            return wrapper

        def build(cfg):
            chart = round_sphere(3, 1.0 / np.sqrt(2.0))
            return dataclasses.replace(
                chart, embed=counted(chart.embed), normal=counted(chart.normal)
            )

        monkeypatch.setattr(cli, "build_example", build)
        code, _ = cli.cmd_verify(RunConfig(command="verify", grid=1))
        assert code == 0
        assert len(calls) == 3454

    def test_determinism_modulo_timestamp(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(d1, "verify", "--example", "product", "--n", "2", "--grid", "2", "--seed", "3")
        run(d2, "verify", "--example", "product", "--n", "2", "--grid", "2", "--seed", "3")
        a = [l for l in open(d1 / "verify_product_report.json") if "timestamp" not in l]
        b = [l for l in open(d2 / "verify_product_report.json") if "timestamp" not in l]
        assert a == b


class TestAnglesCommand:
    def test_sphere_quarter_pi(self, tmp_path):
        code = run(
            tmp_path, "angles", "--example", "sphere", "--r", "0.70710678118654752",
            "--gauge", "canonical", "--grid", "2",
        )
        assert code == 0
        rep = load_report(tmp_path, "angles", "sphere")
        for row in rep["results"]:
            np.testing.assert_allclose(row["angles"], np.pi / 4.0, atol=1e-8)
        assert rep["summary"]["distinct_angles"] == 1

    def test_cartan_count(self, tmp_path):
        run(tmp_path, "angles", "--example", "cartan", "--grid", "2")
        rep = load_report(tmp_path, "angles", "cartan")
        assert rep["summary"]["distinct_angles"] == 3

    def test_product_count(self, tmp_path):
        run(tmp_path, "angles", "--example", "product", "--n", "2", "--grid", "2")
        rep = load_report(tmp_path, "angles", "product")
        assert rep["summary"]["distinct_angles"] == 2


    def test_product_n3_normalized_defaults(self, tmp_path):
        # one angle sits at 0 = pi in the normalized gauge; its representative
        # must not split the count
        assert run(tmp_path, "angles", "--example", "product", "--n", "3") == 0
        rep = load_report(tmp_path, "angles", "product")
        assert rep["summary"]["distinct_angles"] == 2

    def test_cartan_small_grid_seed_3(self, tmp_path):
        assert run(tmp_path, "angles", "--example", "cartan", "--grid", "4", "--seed", "3") == 0
        rep = load_report(tmp_path, "angles", "cartan")
        assert rep["summary"]["distinct_angles"] == 3

    def test_angles_below_pi(self, tmp_path):
        code = run(
            tmp_path, "angles", "--example", "sphere", "--n", "3", "--r", "0.7071067811865475",
            "--grid", "12", "--gauge", "normalized", "--seed", "296007",
        )
        assert code == 0
        rep = load_report(tmp_path, "angles", "sphere")
        angles = [a for row in rep["results"] for a in row["angles"]]
        assert all(0.0 <= a < np.pi for a in angles)


class TestOdeCommand:
    def test_defaults_pass(self, tmp_path):
        code = run(tmp_path, "ode", "--n", "3", "--steps", "2000", "--span", "0.6")
        assert code == 0
        rep = load_report(tmp_path, "ode", "rotational")
        names = {c["name"] for r in rep["results"] for c in r["checks"]}
        assert "first_integral" in names
        assert "warp_factor_law" in names
        assert 12.0 <= rep["trajectory"]["order_ratio"] <= 20.0

    def test_order_probe_at_many_steps(self, tmp_path):
        # the order probe keeps its own step count, so a fine --steps does not
        # push it into round-off
        assert run(tmp_path, "ode", "--steps", "16000") == 0
        rep = load_report(tmp_path, "ode", "rotational")
        assert 12.0 <= rep["trajectory"]["order_ratio"] <= 20.0

    def test_csv_columns(self, tmp_path):
        run(tmp_path, "ode", "--n", "3", "--steps", "1000", "--span", "0.5")
        with open(tmp_path / "profile.csv") as fh:
            header = fh.readline().strip()
            first = fh.readline().strip().split(",")
        assert header == "theta,alpha,dalpha,gx,gy,gz"
        assert len(first) == 6
        g = np.array([float(v) for v in first[3:]])
        assert abs(np.linalg.norm(g) - 1.0) < 1e-8

    def test_singular_initial_angle_exits_2(self, tmp_path):
        assert run(tmp_path, "ode", "--n", "3", "--alpha0", "0") == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["ode", "--span", "nan"],
            ["ode", "--alpha0", "nan"],
            ["verify", "--example", "rotational", "--span", "nan", "--grid", "1"],
        ],
    )
    def test_non_finite_flow_input_exits_2(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite initial data")
        assert len(err.strip().splitlines()) == 1

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUADRICLAB_OUT_DIR", str(tmp_path / "env"))
        code = main(["ode", "--n", "3", "--steps", "1000", "--span", "0.5"])
        assert code == 0
        assert os.path.exists(tmp_path / "env" / "profile.csv")
