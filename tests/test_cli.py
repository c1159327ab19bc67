import dataclasses
import importlib.util
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadriclab import cli, rotational
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

    @pytest.mark.parametrize("argv", [["verify", "--k", "1.5"], ["ode", "--grid", "x"]])
    def test_parser_error_is_one_line(self, tmp_path, capsys, argv):
        # argparse printed a usage block before its error line
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["verify", "--example", "sphere", "--alpha0", "0.3"], "--alpha0"),
            (["verify", "--example", "cartan", "--r1", "0.2"], "--r1"),
            (["angles", "--example", "sphere", "--steps", "10"], "--steps"),
            (["ode", "--r", "0.5"], "--r"),
        ],
    )
    def test_unread_parameter_exits_2(self, tmp_path, capsys, argv, name):
        # a parameter the example does not read was accepted and written into
        # a passing report about the example's defaults
        assert run(tmp_path, *argv, "--grid", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"does not read {name}" in err
        assert os.listdir(tmp_path) == []

    def test_benchmark_operations_read_every_parameter(self, tmp_path, monkeypatch):
        # every operation of the benchmark workloads passes only parameters
        # its example reads
        bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
        spec = importlib.util.spec_from_file_location("bench_workloads", os.path.join(bench, "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        parser = cli._build_parser()
        for name in workloads.WORKLOADS:
            for op in workloads.build_ops(name, 1, 0):
                cli._config_from_args(parser.parse_args(op.argv(str(tmp_path))))

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: quadriclab verify [-h]")

    def test_tolerance_override(self):
        cfg = RunConfig(command="verify", tolerances={"gauss_equation": 1e-2})
        assert cfg.tol("gauss_equation") == 1e-2
        assert cfg.tol("codazzi_equation") == 1e-3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_bad_tolerance_value_exits_2(self, tmp_path, capsys, value):
        # a nan or infinite tolerance reached the report as a bare NaN or
        # Infinity token, which strict JSON parsers reject
        assert run(tmp_path, "verify", "--grid", "1", "--tol", f"gauss_equation={value}") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "gauss_equation" in err
        assert os.listdir(tmp_path) == []

    def test_zero_tolerance_accepted(self, tmp_path):
        assert run(tmp_path, "verify", "--grid", "1", "--tol", "chart_rank_margin=0") == 0

    def test_angle_sum_tolerance_is_unknown(self, tmp_path, capsys):
        # gauge_normalize checks the angle sum with its own bound, so no
        # tolerance name may pretend to set it
        assert "angle_sum_normalized" not in cli.DEFAULT_TOLERANCES
        assert run(tmp_path, "verify", "--grid", "1", "--tol", "angle_sum_normalized=1e-300") == 2
        assert capsys.readouterr().err == "error: unknown tolerance 'angle_sum_normalized'\n"


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

    @staticmethod
    def _count_evaluations(monkeypatch, example="sphere", n=3):
        """(calls, rows) of embed and normal for one verified point of the example, by default the round 3-sphere."""
        calls, rows = [], []

        def counted(fn):
            def wrapper(q):
                calls.append(1)
                rows.append(np.size(q) // n)
                return fn(q)

            return wrapper

        def build(cfg):
            chart = build_example(cfg)
            return dataclasses.replace(
                chart, embed=counted(chart.embed), normal=counted(chart.normal)
            )

        build_example = cli.build_example
        monkeypatch.setattr(cli, "build_example", build)
        code, _ = cli.cmd_verify(RunConfig(command="verify", example=example, n=n, grid=1))
        assert code == 0
        return len(calls), sum(rows)

    def test_chart_evaluation_budget(self, monkeypatch):
        # embed and normal evaluations (rows) for one verified point; each
        # per-point quantity is built once, so a change that rebuilds one
        # moves this count
        assert self._count_evaluations(monkeypatch)[1] == 2282

    def test_chart_call_budget(self, monkeypatch):
        # embed and normal calls for the same point: every stencil reaches the
        # chart as one batch, so a stencil evaluated point by point moves this.
        # 4 at the point (stencil and center, embed and normal), 2 for its
        # Hessian, 6 for the whole batch of 12 field-derivative jets (stencil,
        # center and Hessian) and 2 for the metric route's whole stencil
        assert self._count_evaluations(monkeypatch)[0] == 14

    def test_chart_call_budget_does_not_grow_with_n(self, monkeypatch):
        # rotational n = 4: the same 14 calls carry 5,058 rows, its 16
        # field-derivative jets among them in one batch
        assert self._count_evaluations(monkeypatch, "rotational", 4) == (14, 5058)

    def test_csc_tolerance_overrides(self, tmp_path):
        # each constant-curvature entry carries its own tolerance
        tols = {
            "csc_diagonal_balance": 1e-20,
            "csc_triple_vanishing": 1e-30,
            "csc_quadruple_vanishing": 1e-40,
        }
        argv = ["verify", "--example", "sphere", "--n", "4", "--grid", "1"]
        for name, value in tols.items():
            argv += ["--tol", f"{name}={value}"]
        run(tmp_path, *argv)
        checks = {c["name"]: c for c in load_report(tmp_path, "verify", "sphere")["results"][0]["checks"]}
        for name, value in tols.items():
            assert checks[name]["tolerance"] == value

    @settings(max_examples=8, deadline=None)
    @given(
        st.one_of(
            st.tuples(
                st.just("sphere"), st.sampled_from([2, 3]), st.just(None),
                st.floats(min_value=0.1, max_value=1.0),
            ),
            st.tuples(
                st.just("product"), st.sampled_from([2, 3]), st.booleans(),
                st.floats(min_value=0.1, max_value=0.9),
            ),
            st.tuples(
                st.just("cartan"), st.just(3), st.just(None),
                st.floats(min_value=0.05, max_value=1.0),
            ),
        ),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_passes_over_parameter_ranges(self, tmp_path_factory, example, seed):
        # sphere radius r in [0.1, 1], product k in {1, n - 1} with r1 in
        # [0.1, 0.9], cartan tube radius t in [0.05, 1] (focal at 0 and pi/3)
        name, n, k_last, value = example
        argv = ["verify", "--example", name, "--n", str(n), "--grid", "1", "--seed", str(seed)]
        if name == "product":
            argv += ["--k", str(n - 1 if k_last else 1), "--r1", repr(value)]
        else:
            argv += ["--r" if name == "sphere" else "--t", repr(value)]
        out = tmp_path_factory.mktemp("verify")
        assert run(out, *argv) == 0
        assert load_report(out, "verify", name)["summary"]["all_pass"]

    def test_determinism_modulo_timestamp(self, tmp_path):
        # two runs of each subcommand agree line by line once the timestamp
        # and the csv path (which names the output directory) are dropped
        def lines(path):
            return [l for l in open(path) if '"timestamp"' not in l and '"csv"' not in l]

        for argv in (
            ["verify", "--example", "product", "--n", "2", "--grid", "2", "--seed", "3"],
            ["angles", "--example", "cartan", "--grid", "4", "--seed", "3"],
            ["ode", "--example", "rotational", "--n", "3", "--steps", "2000"],
        ):
            d1, d2 = tmp_path / argv[0] / "a", tmp_path / argv[0] / "b"
            for d in (d1, d2):
                run(d, *argv)
            name = f"{argv[0]}_{argv[2]}_report.json"
            assert lines(d1 / name) == lines(d2 / name)
        ode = tmp_path / "ode"
        assert open(ode / "a" / "profile.csv").read() == open(ode / "b" / "profile.csv").read()


BASE_CHECKS = [
    "chart_invariants", "chart_rank_margin", "lagrangian", "horizontality",
    "structure_unit_norm", "structure_commute", "curvature_angle_cotangent",
    "cubic_symmetry", "mean_curvature_norm", "palmer_formula",
]
IDENTITY_CHECKS = [
    "connection_antisymmetry", "angle_gradient_identity", "frame_rotation_identity",
    "gauss_equation", "codazzi_equation", "sectional_two_route",
]
CHECK_ORDER = {
    ("verify", "sphere", "--n", "4"): [
        BASE_CHECKS + ["gauge_one_form"] + IDENTITY_CHECKS + [
            "sectional_value", "angles_equal", "csc_diagonal_balance",
            "csc_triple_vanishing", "csc_quadruple_vanishing",
        ],
        ["isoparametric_variance"],
    ],
    ("verify", "product", "--n", "2", "--gauge", "canonical"): [
        BASE_CHECKS + IDENTITY_CHECKS + ["sectional_value"],
        ["isoparametric_variance"],
    ],
    ("verify", "cartan"): [
        BASE_CHECKS + ["gauge_one_form"] + IDENTITY_CHECKS + [
            "sectional_value", "angle_gaps_third_pi", "cubic_component_squared",
            "csc_diagonal_balance", "csc_triple_vanishing",
        ],
        ["isoparametric_variance"],
    ],
    ("verify", "rotational", "--n", "3"): [
        BASE_CHECKS + ["gauge_one_form"] + IDENTITY_CHECKS + ["principal_vs_angle_pattern"],
    ],
    ("ode", "rotational"): [
        [
            "first_integral", "ode_forms_equivalent", "warp_block_diagonal",
            "warp_block_conformal", "warp_factor_law", "fiber_curvature_normalized",
            "fiber_curvature_chain", "fiber_curvature_variance", "profile_second_order_ode",
            "principal_vs_angle_pattern",
        ],
    ],
}


class TestCheckNames:
    """Each configuration's report entries, by name and in report order."""

    @pytest.fixture(scope="class")
    def names(self, tmp_path_factory):
        found = {}
        for key in CHECK_ORDER:
            command, example, *rest = key
            out = tmp_path_factory.mktemp(command)
            grid = ["--grid", "1"] if command == "verify" else []
            run(out, command, "--example", example, *rest, *grid)
            rep = load_report(out, command, example)
            found[key] = [[c["name"] for c in r["checks"]] for r in rep["results"]]
        return found

    @pytest.mark.parametrize(
        "key", list(CHECK_ORDER), ids=lambda key: "-".join(a.lstrip("-") for a in key)
    )
    def test_order(self, names, key):
        assert names[key] == CHECK_ORDER[key]

    def test_every_tolerance_names_a_check(self, names):
        # a check without a tolerance, or a tolerance no check reads, fails here
        reported = {name for entries in names.values() for r in entries for name in r}
        assert reported == set(cli.DEFAULT_TOLERANCES)


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

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_cartan_radius_exits_2(self, tmp_path, capsys, t):
        assert run(tmp_path, "angles", "--example", "cartan", "--t", t, "--grid", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: tube radius t must be finite, got {t}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, distinct",
        [
            (["--example", "sphere", "--n", "4", "--grid", "6"], 1),
            (["--example", "product", "--n", "4", "--k", "2", "--grid", "3"], 2),
        ],
    )
    def test_normalized_gauge_keeps_one_branch(self, tmp_path, argv, distinct):
        # the normalized phase of these charts sits at 0 = 2 pi / n, where
        # round-off alone would pick the branch at each point
        assert run(tmp_path, "angles", *argv) == 0
        rep = load_report(tmp_path, "angles", argv[1])
        assert rep["summary"]["distinct_angles"] == distinct
        phis = [row["gauge_phi"] for row in rep["results"]]
        assert max(phis) - min(phis) < 1e-9

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from(
            [
                ("sphere", ["--n", "3"], 1),
                ("product", ["--n", "2"], 2),
                ("product", ["--n", "3"], 2),
                ("cartan", ["--n", "3"], 3),
                ("sphere", ["--n", "4"], 1),
                ("product", ["--n", "4", "--k", "2"], 2),
            ]
        ),
        st.sampled_from(["normalized", "canonical"]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_distinct_count_over_seeds_and_gauges(self, tmp_path_factory, example, gauge, seed):
        name, dims, distinct = example
        out = tmp_path_factory.mktemp("angles")
        argv = ["angles", "--example", name, *dims, "--grid", "4", "--gauge", gauge]
        assert run(out, *argv, "--seed", str(seed)) == 0
        assert load_report(out, "angles", name)["summary"]["distinct_angles"] == distinct

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
    @settings(max_examples=8, deadline=None)
    @given(
        st.sampled_from([3, 4]),
        st.floats(min_value=0.2, max_value=0.8),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_passes_over_alpha0_range(self, tmp_path_factory, n, frac, seed):
        # alpha0 in [0.2, 0.8] pi/n, inside the positive regime 0 < alpha < pi/n
        # of the rotational chart; pi/(2n) is the constant solution
        alpha0 = repr(frac * np.pi / n)
        out = tmp_path_factory.mktemp("rotational")
        argv = ["--example", "rotational", "--n", str(n), "--alpha0", alpha0]
        assert run(out, "verify", *argv, "--grid", "1", "--seed", str(seed)) == 0
        assert load_report(out, "verify", "rotational")["summary"]["all_pass"]
        assert run(out, "ode", *argv) == 0
        assert load_report(out, "ode", "rotational")["summary"]["all_pass"]

    def test_defaults_pass(self, tmp_path):
        code = run(tmp_path, "ode", "--n", "3", "--steps", "2000", "--span", "0.6")
        assert code == 0
        rep = load_report(tmp_path, "ode", "rotational")
        names = {c["name"] for r in rep["results"] for c in r["checks"]}
        assert "first_integral" in names
        assert "warp_factor_law" in names
        assert 12.0 <= rep["trajectory"]["order_ratio"] <= 20.0

    def test_default_counts_order_gate(self, tmp_path):
        assert run(tmp_path, "ode") == 0
        rep = load_report(tmp_path, "ode", "rotational")
        assert rep["summary"]["total"] == 11
        assert rep["summary"]["skipped"] == []

    @pytest.mark.parametrize("ratio", [cli.ORDER_WINDOW[0] - 0.5, cli.ORDER_WINDOW[1] + 0.5])
    def test_order_outside_window_fails(self, tmp_path, monkeypatch, ratio):
        monkeypatch.setattr(cli, "ode_order_ratio", lambda *args: ratio)
        assert run(tmp_path, "ode", "--steps", "1000") == 1
        summary = load_report(tmp_path, "ode", "rotational")["summary"]
        assert (summary["total"], summary["failed"]) == (11, 1)

    @pytest.mark.parametrize(
        "argv",
        [["--n", "6"], ["--n", "3", "--alpha0", "0.5235987755982988"]],
    )
    def test_equilibrium_skips_order_gate(self, tmp_path, argv):
        # alpha0 = pi/(2n) is the constant solution: the order-probe runs
        # differ by round-off only, so the gate is skipped, not failed
        assert run(tmp_path, "ode", *argv) == 0
        rep = load_report(tmp_path, "ode", "rotational")
        summary = rep["summary"]
        assert (summary["total"], summary["passed"], summary["failed"]) == (10, 10, 0)
        assert [s["name"] for s in summary["skipped"]] == ["order_ratio"]
        assert rep["trajectory"]["order_ratio"] is None

    def test_tolerance_overrides_reach_profile_checks(self, tmp_path):
        code = run(
            tmp_path, "ode",
            "--tol", "warp_factor_law=1e-30", "--tol", "fiber_curvature_variance=1e-40",
        )
        assert code == 1
        rep = load_report(tmp_path, "ode", "rotational")
        checks = {c["name"]: c for c in rep["results"][0]["checks"]}
        assert checks["warp_factor_law"]["tolerance"] == 1e-30
        assert checks["fiber_curvature_variance"]["tolerance"] == 1e-40
        assert not checks["warp_factor_law"]["pass"]
        assert not checks["fiber_curvature_variance"]["pass"]
        assert rep["summary"]["failed"] == 2

    def test_chart_evaluation_budget(self, tmp_path, monkeypatch):
        # embed and normal evaluations of one ode run at n = 3; the profile
        # checks build their five Gauss-map jets once, as one batch
        rows = []
        jets = []

        def counted(fn, log, size):
            def wrapper(*args, **kwargs):
                log.append(size(*args))
                return fn(*args, **kwargs)

            return wrapper

        def build(curve, n):
            chart = rotational.build_rotational_chart(curve, n)
            rows_of = lambda q: np.size(q) // n
            return dataclasses.replace(
                chart,
                embed=counted(chart.embed, rows, rows_of),
                normal=counted(chart.normal, rows, rows_of),
            )

        monkeypatch.setattr(cli, "build_rotational_chart", build)
        monkeypatch.setattr(rotational, "gauss_map", counted(rotational.gauss_map, jets, lambda _, q, *a: len(q)))
        code, _ = cli.cmd_ode(RunConfig(command="ode", example="rotational", out=str(tmp_path)))
        assert code == 0
        assert sum(rows) == 3394
        assert jets == [5]

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["ode", "--span", "0"],
            ["ode", "--span", "-0.8"],
            ["verify", "--example", "rotational", "--span", "0", "--grid", "1"],
        ],
    )
    def test_non_positive_span_exits_2(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: span must be positive")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("example", ["nosuch", "a/b"])
    def test_only_the_rotational_example(self, tmp_path, capsys, example):
        # 'nosuch' wrote ode_nosuch_report.json with rotational results, and
        # 'a/b' ended in a FileNotFoundError traceback
        with pytest.raises(ConfigError):
            RunConfig(command="ode", example=example)
        assert run(tmp_path, "ode", "--example", example, "--steps", "1000") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown example") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUADRICLAB_OUT_DIR", str(tmp_path / "env"))
        code = main(["ode", "--n", "3", "--steps", "1000", "--span", "0.5"])
        assert code == 0
        assert os.path.exists(tmp_path / "env" / "profile.csv")
