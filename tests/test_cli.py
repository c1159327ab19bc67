import collections
import contextlib
import dataclasses
import functools
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy._core._exceptions import _ArrayMemoryError

from quadriclab import cli, gaussmap, hypersurfaces, numerics, rotational
from quadriclab.cli import RunConfig, ConfigError, kronecker_points, main
from quadriclab.hypersurfaces import Box, round_sphere
from references import embed_rows


def run(tmp_path, *args):
    return main(list(args) + ["--out", str(tmp_path)])


def kernel_calls(tmp_path, monkeypatch, argv) -> int:
    """Calls of numerics.symmetric_eigen in one passing in-process run of argv."""
    calls = []
    original = numerics.symmetric_eigen

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "quadriclab"]:
        if getattr(module, "symmetric_eigen", None) is original:
            monkeypatch.setattr(module, "symmetric_eigen", counted)
    assert run(tmp_path, *argv) == 0
    return len(calls)


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
        "command, example, name",
        [
            pytest.param(command, example, name, id=f"{command}-{example}-{name}")
            for example, entry in cli.EXAMPLES.items()
            for command in entry.commands
            for name in cli.PARAM_TYPES
            if name not in entry.params
        ],
    )
    def test_unread_parameter_exits_2(self, tmp_path, capsys, command, example, name):
        # a parameter the example does not read was accepted and written into
        # a passing report about the example's defaults
        assert run(tmp_path, command, "--example", example, f"--{name}", "1", "--grid", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"does not read --{name};" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["verify", "--example", "cartan", "--n", "4"], "example 'cartan' needs n = 3, got n = 4"),
            (["angles", "--example", "rotational", "--n", "2"], "example 'rotational' needs n >= 3, got n = 2"),
            (["verify", "--example", "rotational", "--n", "2"], "example 'rotational' needs n >= 3, got n = 2"),
            (["ode", "--n", "2"], "example 'rotational' needs n >= 3, got n = 2"),
            (["verify", "--example", "product", "--n", "1"], "example 'product' needs n >= 2, got n = 1"),
        ],
        ids=["verify-cartan-n4", "angles-rotational-n2", "verify-rotational-n2", "ode-n2", "verify-product-n1"],
    )
    def test_n_outside_the_example_range_exits_2(self, tmp_path, capsys, monkeypatch, argv, error):
        # the n rule of each example holds before any chart or flow is built
        calls = []
        monkeypatch.setattr(cli, "integrate_alpha", lambda *args: calls.append(args))
        assert run(tmp_path, *argv, "--grid", "1") == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert calls == []
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["ode", "verify"])
    def test_explicit_rotational_defaults_change_nothing(self, tmp_path, command):
        # ode and verify --example rotational read one defaults table
        defaults = ["--alpha0", repr(np.pi / 12.0), "--dalpha0", "0.0", "--span", "0.8", "--steps", "4000"]
        grid = ["--grid", "1"] if command == "verify" else []
        reports = []
        for extra in ([], defaults):
            out = tmp_path / str(len(reports))
            assert run(out, command, "--example", "rotational", *grid, *extra) == 0
            reports.append(load_report(out, command, "rotational"))
        assert reports[0]["config"]["params"] == {}
        assert reports[1]["config"]["params"] == {"alpha0": np.pi / 12.0, "dalpha0": 0.0, "span": 0.8, "steps": 4000}
        for key in ("results", "summary"):
            assert reports[0][key] == reports[1][key]

    def test_build_calls_each_constructor_by_module_name(self, monkeypatch):
        # the benchmark counts chart evaluations by rebinding these names in
        # cli; a table holding the function objects would bypass the rebinding
        constructors = {
            "sphere": "round_sphere",
            "product": "product_spheres",
            "cartan": "cartan_tube",
            "rotational": "build_rotational_chart",
        }
        assert set(constructors) == set(cli.EXAMPLES)
        for example, name in constructors.items():
            chart, calls = object(), []
            monkeypatch.setattr(cli, name, lambda *args, chart=chart: calls.append(args) or chart)
            assert cli.build_example(RunConfig(command="verify", example=example)) is chart
            assert len(calls) == 1

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


class TestParserCache:
    """In-process main calls share one parser, and no call leaks into the next."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._build_parser.cache_clear()
        yield
        cli._build_parser.cache_clear()

    def test_built_once_per_process(self, tmp_path):
        for argv in (["verify", "--grid", "1"], ["angles", "--grid", "1"], ["verify", "--grid", "1", "--n", "2"]):
            assert run(tmp_path, *argv) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_not_built_at_import(self):
        # building it at import would move its cost into every start-up
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = "import quadriclab.cli as c; print(c._build_parser.cache_info().misses)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "0\n"

    def test_tolerance_does_not_reach_the_next_call(self, tmp_path):
        assert run(tmp_path / "a", "verify", "--grid", "1", "--tol", "gauss_equation=1e-2") == 0
        assert load_report(tmp_path / "a", "verify", "sphere")["config"]["tolerances"] == {"gauss_equation": 1e-2}
        assert run(tmp_path / "b", "verify", "--grid", "1") == 0
        assert load_report(tmp_path / "b", "verify", "sphere")["config"]["tolerances"] == {}
        assert cli._build_parser().parse_args(["verify"]).tol == []

    def test_usage_error_after_a_good_call(self, tmp_path, capsys):
        assert run(tmp_path / "good", "angles", "--grid", "1") == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(tmp_path / "bad", "verify", "--grid", "x")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --grid") and err.count("\n") == 1
        assert not (tmp_path / "bad").exists()


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

    @pytest.mark.parametrize("dim, count, seed, margin", [(2, 1, 0, 0.0), (3, 12, 11, 0.03), (7, 5, 4, 0.05)])
    def test_array_matches_per_point_loop(self, dim, count, seed, margin):
        # the (count, dim) array is bitwise the points built one at a time
        box = Box(lows=np.linspace(-0.4, -0.2, dim), highs=np.linspace(0.3, 0.5, dim))
        primes = cli._primes(2 * dim)
        alphas = np.array([np.sqrt(p) % 1.0 for p in primes[:dim]])
        start = np.array([((seed + 1) * np.sqrt(primes[dim + i])) % 1.0 for i in range(dim)])
        lows = box.lows + margin
        spans = (box.highs - margin) - lows
        want = [lows + np.mod(start + (k + 1) * alphas, 1.0) * spans for k in range(count)]
        got = kronecker_points(box, count, seed, margin)
        assert got.shape == (count, dim) and got.tobytes() == np.array(want).tobytes()

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

    def test_sphere_one_dimensional(self, tmp_path):
        # one angle: no pair to compare, so angles_equal reads 0
        assert run(tmp_path, "verify", "--example", "sphere", "--n", "1", "--grid", "2") == 0
        rep = load_report(tmp_path, "verify", "sphere")
        equal = [c["residual"] for r in rep["results"] for c in r["checks"] if c["name"] == "angles_equal"]
        assert equal == [0.0, 0.0]

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
    def _count_evaluations(monkeypatch, example="sphere", n=3, grid=1):
        """(calls, rows) of embed and normal for the grid's verified points of the example.

        By default one point of the round 3-sphere.
        """
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
        code, _ = cli.cmd_verify(RunConfig(command="verify", example=example, n=n, grid=grid))
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
        # 2 at the point (its stencil and the point itself in one call, embed
        # and normal), 2 for its Hessian, 4 for the whole batch of 12
        # field-derivative jets (stencil with centers, then Hessian) and 2 for
        # the metric route's whole stencil
        assert self._count_evaluations(monkeypatch)[0] == 10

    @pytest.mark.parametrize(
        "cfg, chart_calls",
        [
            (RunConfig(command="verify", example="cartan", n=3, grid=3), 10),
            (RunConfig(command="verify", example="rotational", n=4, grid=3), 10),
            (RunConfig(command="verify", example="product", n=3, grid=3), 10),
            (RunConfig(command="ode", example="rotational", n=3), 4),
        ],
        ids=["verify-cartan", "verify-rotational-4", "verify-product-3", "ode"],
    )
    def test_one_shared_build_per_embed_normal_pair(self, cfg, chart_calls, monkeypatch, tmp_path):
        # over a whole run, the work embed and normal share (Veronese frames,
        # profile series evaluations, orbit spheres) is built once per pair of
        # chart calls: every embed call is followed by normal on its points
        calls, builds = [], []
        shared_work = hypersurfaces.shared_work

        def counting_shared_work(build):
            return shared_work(lambda q: builds.append(1) or build(q))

        def counted(fn):
            return lambda q: calls.append(1) or fn(q)

        def wrap(make):
            def build(*args):
                chart = make(*args)
                builds.clear()  # the catalog's own checks at construction
                return dataclasses.replace(chart, embed=counted(chart.embed), normal=counted(chart.normal))

            return build

        monkeypatch.setattr(hypersurfaces, "shared_work", counting_shared_work)
        monkeypatch.setattr(rotational, "shared_work", counting_shared_work)
        if cfg.command == "ode":
            monkeypatch.setattr(cli, "build_rotational_chart", wrap(cli.build_rotational_chart))
            code, _ = cli.cmd_ode(dataclasses.replace(cfg, out=str(tmp_path)))
        else:
            monkeypatch.setattr(cli, "build_example", wrap(cli.build_example))
            code, _ = cli.cmd_verify(cfg)
        assert code == 0
        assert len(calls) == chart_calls
        assert len(builds) == chart_calls // 2

    def test_chart_call_budget_does_not_grow_with_n(self, monkeypatch):
        # rotational n = 4: the same 10 calls carry 5,058 rows, its 16
        # field-derivative jets among them in one batch
        assert self._count_evaluations(monkeypatch, "rotational", 4) == (10, 5058)

    def test_chart_call_budget_of_three_points(self, monkeypatch):
        # three points: 2 at the points, 2 for their Hessians, 2 for the
        # metric route and 4 for the field-derivative jets of all three, each
        # one batch, as for one point; the rows are three times one point's
        assert self._count_evaluations(monkeypatch, grid=3) == (10, 3 * 2282)

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

    def test_every_example_is_pinned(self):
        # an example added to the registry without a check-order pin fails here
        assert {key[1] for key in CHECK_ORDER} == set(cli.EXAMPLES)

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

    def test_focal_cartan_radius_exits_2(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "--example", "cartan", "--t", "1e-6") == 2
        assert capsys.readouterr().err == (
            "error: tube radius 1e-06 is focal or nearly focal; choose a radius away from multiples of pi/3\n"
        )

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

    def test_rows_read_the_batch_arrays(self, tmp_path, monkeypatch):
        # the report rows and the classification come from the run's arrays,
        # with no per-row spectrum built: a spectrum has no row view to build one
        assert not hasattr(gaussmap.AngleSpectrum, "__getitem__")
        batches = []
        original = cli._sample_jets

        def kept(chart, cfg):
            batches.append(original(chart, cfg))
            return batches[-1]

        monkeypatch.setattr(cli, "_sample_jets", kept)
        for gauge in ("normalized", "canonical"):
            assert run(tmp_path, "angles", "--grid", "12", "--gauge", gauge) == 0
            rep = load_report(tmp_path, "angles", "sphere")
            assert len(rep["results"]) == 12 and rep["summary"]["distinct_angles"] == 1
            jets, _, spec = batches[-1]
            assert [row["angles"] for row in rep["results"]] == spec.thetas.tolist()
            assert [row["point"] for row in rep["results"]] == jets.point.tolist()
            assert [row["principal_curvatures"] for row in rep["results"]] == jets.lambdas.tolist()
        assert len(batches) == 2

    @pytest.mark.parametrize("gauge", ["normalized", "canonical"])
    @pytest.mark.parametrize("example, distinct", [("sphere", 1), ("cartan", 3), ("rotational", None)])
    def test_stdout_lines_read_the_report(self, tmp_path, capsys, example, distinct, gauge):
        # the pass line, one line per point with six decimals, and the
        # distinct-angle count of an isoparametric example
        assert run(tmp_path, "angles", "--example", example, "--grid", "4", "--gauge", gauge) == 0
        rep = load_report(tmp_path, "angles", example)
        want = [f"PASS: 0/0 checks; report at {tmp_path / f'angles_{example}_report.json'}"]
        for row in rep["results"]:
            angles = ", ".join(f"{a:.6f}" for a in row["angles"])
            want.append(f"  point {row['point']}: angles [{angles}] (gauge {row['gauge_phi']:.6f})")
        if distinct is not None:
            assert rep["summary"]["distinct_angles"] == distinct
            want.append(f"  distinct angles mod pi: {distinct}")
        assert len(want) == 5 + (distinct is not None)
        assert capsys.readouterr() == ("\n".join(want) + "\n", "")

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
        st.sampled_from([3, 4, 5, 6]),
        st.floats(min_value=0.02, max_value=0.98),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_passes_over_alpha0_range(self, tmp_path_factory, n, frac, seed):
        # alpha0 in [0.02, 0.98] pi/n, the documented range inside the
        # positive regime 0 < alpha < pi/n of the rotational chart; pi/(2n)
        # is the constant solution
        alpha0 = repr(frac * np.pi / n)
        out = tmp_path_factory.mktemp("rotational")
        argv = ["--example", "rotational", "--n", str(n), "--alpha0", alpha0]
        assert run(out, "verify", *argv, "--grid", "1", "--seed", str(seed)) == 0
        assert load_report(out, "verify", "rotational")["summary"]["all_pass"]
        assert run(out, "ode", *argv) == 0
        assert load_report(out, "ode", "rotational")["summary"]["all_pass"]

    def test_passes_at_the_knot_seam_point(self, tmp_path):
        # a regime-end failure inside the documented range while the profile
        # was a piecewise quintic: this point sat 3.5e-5 from one of its C^1
        # knots, and connection_antisymmetry read 1.57e-7 against 1e-8
        argv = ["--example", "rotational", "--n", "4", "--alpha0", "0.7461282552275759"]
        assert run(tmp_path, "verify", *argv, "--grid", "1", "--seed", "276891") == 0

    def test_passes_where_the_series_needs_a_high_degree(self, tmp_path):
        # at n = 6, alpha0 = 0.02 pi/6 the fit goes past degree 64
        # (test_rotational.py); a series fixed at degree 64 failed
        # profile_second_order_ode (1.91e-3 against 1e-3) and
        # connection_antisymmetry (1.1e-6 against 1e-8)
        argv = ["--example", "rotational", "--n", "6", "--alpha0", repr(0.02 * np.pi / 6)]
        assert run(tmp_path, "ode", *argv) == 0
        assert run(tmp_path, "verify", *argv, "--grid", "2", "--seed", "5") == 0

    def test_passes_in_the_n6_order_band(self, tmp_path):
        # inside the documented range. Compared at the final states only, the
        # probe runs' ratio read 37.6 here against [12, 20]: at n = 6,
        # f ~ 0.032-0.034 and 0.966-0.968, the leading error term nearly
        # vanishes at the span's end. Over all shared samples it reads 16.28.
        # test_passes_over_alpha0_range can draw this band
        argv = ["--example", "rotational", "--n", "6", "--alpha0", repr(0.033203125 * np.pi / 6)]
        assert run(tmp_path, "ode", *argv) == 0

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
        # checks build their five Gauss-map jets once, as one batch, and reach
        # the chart in 4 calls: 2 for the jets (stencil with the points) and 2
        # for the one metric call, the metric route at all three centers with
        # the metrics about the side centers
        rows = []
        jets = []

        def counted(fn, log, size):
            def wrapper(*args, **kwargs):
                log.append(size(*args))
                return fn(*args, **kwargs)

            return wrapper

        def build(traj):
            chart = rotational.build_rotational_chart(traj)
            rows_of = lambda q: np.size(q) // traj.n
            return dataclasses.replace(
                chart,
                embed=counted(chart.embed, rows, rows_of),
                normal=counted(chart.normal, rows, rows_of),
            )

        monkeypatch.setattr(cli, "build_rotational_chart", build)
        monkeypatch.setattr(rotational, "gauss_map", counted(rotational.gauss_map, jets, lambda _, q, *a: len(q)))
        code, _ = cli.cmd_ode(RunConfig(command="ode", example="rotational", out=str(tmp_path)))
        assert code == 0
        assert sum(rows) == 2242
        assert len(rows) == 4
        assert jets == [5]

    @pytest.mark.parametrize(
        "argv, total",
        [(["--n", "3"], 1121), (["--n", "5"], 2585), (["--n", "12", "--alpha0", "0.06544984694978735"], 12245)],
        ids=["n3", "n5", "n12"],
    )
    def test_embed_row_budget(self, tmp_path, monkeypatch, argv, total):
        # the rows ode sends to embed: 4n + 1 for each of the five jets (the
        # first-order stencil and the point itself), then one metric call of
        # 4n rows per point on 6n + 8 points about each of the three centers
        # (six offsets along every axis and the eight corners of the orbit
        # plane) and the ten side points; every profile check passes
        n = int(argv[1])
        rows = embed_rows(monkeypatch, cli, "build_rotational_chart")
        assert main(["ode", *argv, "--out", str(tmp_path)]) == 0
        assert rows == [5 * (4 * n + 1), (3 * (6 * n + 8) + 10) * 4 * n]
        assert sum(rows) == total

    @pytest.mark.parametrize(
        "argv, solves",
        [
            (["verify", "--grid", "3"], 3),
            (["verify", "--grid", "3", "--gauge", "canonical"], 2),
            (["angles", "--grid", "12"], 2),
            (["angles", "--grid", "12", "--gauge", "canonical"], 1),
            (["ode"], 1),
        ],
    )
    def test_spectrum_budget(self, tmp_path, monkeypatch, argv, solves):
        # angle_spectrum calls of one run: one batch per gauge for the sample
        # points and one for the field stencils of all of them; ode's profile
        # checks read their five jets in one call
        calls = []
        original = gaussmap.angle_spectrum

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "quadriclab"]:
            if getattr(module, "angle_spectrum", None) is original:
                monkeypatch.setattr(module, "angle_spectrum", counted)
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert len(calls) == solves

    def test_profile_kernel_budget(self, tmp_path, monkeypatch):
        # one ode --n 3 run: 4000 steps and the 250/500/1000-step order probe.
        # Each step takes four tans (three stages and its state's, which also
        # screens the sin guard), each trajectory one for its initial state;
        # the first integral takes one _pow pass, its fractional power
        calls = collections.Counter()

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(rotational, "math", SimpleNamespace(tan=counted("tan", math.tan), sin=counted("sin", math.sin)))
        monkeypatch.setattr(rotational, "_pow", counted("_pow", rotational._pow))
        assert main(["ode", "--n", "3", "--out", str(tmp_path)]) == 0
        assert (calls["sin"], calls["tan"], calls["_pow"]) == (0, 4 * (4000 + 250 + 500 + 1000) + 4, 1)

    # the residual functions of a verify run and the calls each makes per run:
    # one column pass over all sample points, whatever the grid. gauss_map
    # checks the Lagrangian residual of the sample jets and of the
    # field-stencil jets, and the lagrangian column reads the sample jets'
    # cached value; mean_curvature_norm and Palmer's left side read one mean
    # curvature. A cached property counts its computations, not its reads
    IDENTITY_BUDGET = {
        "verify.connection_and_s": 1,
        "verify.structure_residuals": 1,
        "verify.cotangent_residual": 1,
        "verify.check_prop1": 1,
        "verify.palmer_residual": 1,
        "verify.gauss_equation_residual": 1,
        "verify.codazzi_residual": 1,
        "verify.sectional_curvature": 1,
        "verify.sectional_residuals": 1,
        "verify.check_csc_identities": 1,
        "gaussmap.mean_curvature": 1,
        "rotational.principal_pattern_residual": 1,
        "hypersurfaces.ChartStencil.invariants": 1,
        "gaussmap.GaussJet.lagrangian": 2,
        "gaussmap.GaussJet.horizontality_residual": 1,
        "cli.EXAMPLES.checks": 1,
    }

    @pytest.mark.parametrize("grid", [1, 3, 12])
    @pytest.mark.parametrize("gauge", ["normalized", "canonical"])
    @pytest.mark.parametrize("example", ["sphere", "cartan", "rotational"])
    def test_identity_budget(self, tmp_path, monkeypatch, example, gauge, grid):
        # a residual function called once per sample point multiplies these
        calls = dict.fromkeys(self.IDENTITY_BUDGET, 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        modules = {name.split(".")[-1]: m for name, m in sys.modules.items() if name.split(".")[0] == "quadriclab"}
        for name in self.IDENTITY_BUDGET:
            module, *owner, attr = name.split(".")
            if owner == ["EXAMPLES"]:
                entry = cli.EXAMPLES[example]
                monkeypatch.setitem(cli.EXAMPLES, example, dataclasses.replace(entry, checks=counting(name, entry.checks)))
            elif owner:
                cls = getattr(modules[module], owner[0])
                fn = getattr(cls, attr)
                if isinstance(fn, functools.cached_property):
                    fn = functools.cached_property(counting(name, fn.func))
                    fn.__set_name__(cls, attr)
                else:
                    fn = counting(name, fn)
                monkeypatch.setattr(cls, attr, fn)
            else:
                original = getattr(modules[module], attr)
                for m in modules.values():
                    if getattr(m, attr, None) is original:
                        monkeypatch.setattr(m, attr, counting(name, original))
        n = {"sphere": "4", "cartan": "3", "rotational": "3"}[example]
        argv = ["verify", "--example", example, "--n", n, "--grid", str(grid), "--gauge", gauge]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        # csc checks need a constant-curvature target, the profile pattern a rotational chart
        skipped = {
            "sphere": ["rotational.principal_pattern_residual"],
            "cartan": ["rotational.principal_pattern_residual"],
            "rotational": ["verify.check_csc_identities"],
        }[example]
        assert calls == {name: 0 if name in skipped else count for name, count in self.IDENTITY_BUDGET.items()}

    @pytest.mark.parametrize("gauge, solves", [("normalized", 11), ("canonical", 9)])
    def test_eigensolve_budget(self, tmp_path, monkeypatch, gauge, solves):
        # symmetric_eigen calls of verify --grid 3 on the round 3-sphere, each
        # a stack: 2 for the sample jets (the induced metric and the Gram
        # matrix as one stack, then the shape operator) and 2 more for the
        # field-derivative jets, 2 per angle_spectrum call (tangential
        # operator and the stacked sub-solve of the degenerate run) and 1 for
        # the stacked polar factor of the frame alignment; a per-row or
        # per-point solve multiplies these (the per-point stencils and per-row
        # solves made 95 and 91)
        argv = ["verify", "--grid", "3", "--gauge", gauge]
        assert kernel_calls(tmp_path, monkeypatch, argv) == solves

    @pytest.mark.parametrize("gauge, solves", [("normalized", 10), ("canonical", 7)])
    def test_cartan_eigensolve_budget(self, tmp_path, monkeypatch, gauge, solves):
        # the same count for verify --grid 3 on the cartan tube: its angles
        # are distinct, so the angle spectra solve no degenerate run, and its
        # three 1x1 clusters of the frame alignment solve their polar factors
        # as one stack (a solve per cluster made 12 and 9)
        argv = ["verify", "--example", "cartan", "--grid", "3", "--gauge", gauge]
        assert kernel_calls(tmp_path, monkeypatch, argv) == solves

    @pytest.mark.parametrize(
        "example, n, gauge, solves",
        [
            (example, n, gauge, solves - (example == "cartan"))
            for example, n in (("sphere", "3"), ("product", "2"), ("product", "3"), ("cartan", "3"))
            for gauge, solves in (("normalized", 6), ("canonical", 4))
        ],
    )
    def test_angles_eigensolve_budget(self, tmp_path, monkeypatch, example, n, gauge, solves):
        # symmetric_eigen calls of one angles --grid 12 operation of the
        # benchmark's angles-scan: 2 for the jets (the induced metric and the
        # Gram matrix as one stack, then the shape operator) and 2 per
        # angle_spectrum call (tangential operator and the stacked sub-solve
        # of a degenerate run), one call in the canonical gauge and two in
        # the normalized one. Cartan's canonical angles are distinct, so its
        # spectrum makes no sub-solve, and its chart reads focality from the
        # closed form, without a solve. Each call costs a fixed overhead, so a
        # split stack shows here
        argv = ["angles", "--example", example, "--n", n, "--grid", "12", "--gauge", gauge]
        assert kernel_calls(tmp_path, monkeypatch, argv) == solves

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
            # n alpha0 overflows to inf: the sin guard (and, in ode, the
            # profile curve and its checks) printed numpy warnings first
            ["ode", "--alpha0", "1e308"],
            ["verify", "--example", "rotational", "--alpha0", "1e308", "--grid", "1"],
            ["angles", "--example", "rotational", "--alpha0", "1e308", "--grid", "1"],
            # argparse read a spaced -inf as an option: "expected one argument"
            ["ode", "--dalpha0", "-inf"],
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

    @pytest.mark.parametrize("alpha0", ["0.3907319207817076", "0.395399804715166"])
    def test_order_gate_near_equilibrium(self, tmp_path, alpha0):
        # falsifying examples of test_passes_over_alpha0_range: the order ratio
        # read 11.09 and 11.61 from probe runs that differ by round-off only
        assert run(tmp_path, "ode", "--n", "4", "--alpha0", alpha0) == 0
        rep = load_report(tmp_path, "ode", "rotational")
        assert rep["trajectory"]["order_ratio"] is None
        assert [s["name"] for s in rep["summary"]["skipped"]] == ["order_ratio"]

    @pytest.mark.parametrize("argv", [["verify", "--example", "sphere", "--grid", "1"], ["ode", "--steps", "1000"]])
    def test_out_that_cannot_be_made_exits_2(self, tmp_path, capsys, argv):
        # an --out below a file raised NotADirectoryError from the report or
        # CSV writer, a traceback with exit code 1
        (tmp_path / "file").write_text("")
        assert main(argv + ["--out", str(tmp_path / "file" / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / "file" / "sub") in err

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUADRICLAB_OUT_DIR", str(tmp_path / "env"))
        code = main(["ode", "--n", "3", "--steps", "1000", "--span", "0.5"])
        assert code == 0
        assert os.path.exists(tmp_path / "env" / "profile.csv")


# runs whose trajectory stops at its first step or leaves the finite numbers:
# each is a bad input, exit 2 with one `error:` line
STOPPED_FLOWS = {
    "first-step-sin": ["ode", "--n", "3", "--alpha0", "0.0004", "--dalpha0", "-0.5"],
    "first-step-slope": ["ode", "--span", "1e10", "--steps", "3"],
    "non-finite": ["ode", "--span", "1e300", "--steps", "100"],
}
# flows whose own step is not zero but whose order probe's is: at its 500 and its 1000 steps
PROBE_ZERO_STEPS = {
    "probe-zero-step-500": ["ode", "--span", "1e-321", "--steps", "1"],
    "probe-zero-step-1000": ["ode", "--span", "2e-321", "--steps", "66"],
}


class TestStoppedFlows:
    @pytest.mark.parametrize(
        "argv",
        [
            *STOPPED_FLOWS.values(),
            ["verify", "--example", "rotational", "--span", "1e300", "--steps", "100"],
            ["angles", "--example", "rotational", "--span", "1e300", "--steps", "100"],
            ["ode", "--n", "3", "--alpha0", "0.1", "--dalpha0", "-0.5", "--span", "0.4", "--steps", "1"],
            ["ode", "--span", "5e-324"],
            ["verify", "--example", "rotational", "--span", "5e-324", "--grid", "1"],
            ["angles", "--example", "rotational", "--span", "5e-324", "--grid", "1"],
            *PROBE_ZERO_STEPS.values(),
        ],
        ids=[*STOPPED_FLOWS, "verify-non-finite", "angles-non-finite", "zero-tan", "ode-zero-step", "verify-zero-step",
             "angles-zero-step", *PROBE_ZERO_STEPS],
    )
    def test_one_error_line(self, tmp_path, capsys, argv):
        # a one-sample trajectory raised IndexError in the equivalence
        # residual, a traceback with exit code 1; a NaN state passed the
        # guards and numpy warned on stderr; a span / steps that underflows
        # to 0.0 made ode's equivalence residual divide by the zero step
        assert run(tmp_path, *argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, line",
        [
            # the order probe's own stop was named: |alpha'| reached 1.1392 at theta = 0.0032
            (STOPPED_FLOWS["first-step-sin"], "sin(n alpha) vanished near theta = 0.0002"),
            # the chart's "a chart needs at least two samples" was named
            (
                ["ode", "--n", "3", "--alpha0", "0.1", "--dalpha0", "-0.5", "--span", "0.4", "--steps", "1"],
                "the state left the finite numbers near theta = 0.4000",
            ),
        ],
        ids=["first-step-sin", "zero-tan"],
    )
    def test_names_the_main_trajectory_stop(self, tmp_path, capsys, argv, line):
        assert run(tmp_path, *argv) == 2
        assert capsys.readouterr().err == f"error: trajectory stopped early: {line}\n"

    @pytest.mark.parametrize("argv", PROBE_ZERO_STEPS.values(), ids=PROBE_ZERO_STEPS)
    def test_names_the_order_probe_underflow(self, tmp_path, capsys, argv):
        # the main run's step is not zero, its order probe's is: the line said
        # "span / steps underflows" with the probe's 500 or 1000 steps, which
        # --steps never gave
        assert run(tmp_path, *argv) == 2
        span = argv[argv.index("--span") + 1]
        assert capsys.readouterr().err == (
            f"error: the order probe's finest step underflows to zero: span = {span} over 1000 steps\n"
        )

    @pytest.mark.parametrize(
        "argv, span, steps, pad, left",
        [
            # a pad of ten steps at each end takes all of the default span 0.8
            (["ode", "--steps", "5"], "0.8", 5, "1.6", "-2.4"),
            (["angles", "--example", "rotational", "--steps", "5"], "0.8", 5, "1.6", "-2.4"),
            (["ode", "--span", "0.05"], "0.05", 4000, "0.02", "0.01"),
        ],
        ids=["ode-steps-5", "angles-steps-5", "ode-span-0.05"],
    )
    def test_short_chart_box_names_span_pad_and_steps(self, tmp_path, capsys, argv, span, steps, pad, left):
        # the line read "trajectory too short" alone, also where the span is
        # 0.8 and only the pad left too little
        assert run(tmp_path, *argv) == 2
        assert capsys.readouterr() == (
            "",
            f"error: trajectory too short to carve out a chart box: span {span} over {steps} steps, "
            f"less a pad of {pad} = max(0.02, 10 h) at each end, leaves {left} < 0.05\n",
        )

    @pytest.mark.parametrize("argv", STOPPED_FLOWS.values(), ids=STOPPED_FLOWS)
    def test_error_line_is_short(self, tmp_path, capsys, argv):
        # a theta of 1e298 or an |alpha'| of 1e142 printed every digit
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 120

    @pytest.mark.parametrize("argv", STOPPED_FLOWS.values(), ids=STOPPED_FLOWS)
    def test_one_stderr_line_in_a_process(self, tmp_path, argv):
        # in process, pytest turns numpy's RuntimeWarnings into exceptions;
        # only a process shows the stderr a user sees
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "quadriclab.cli", *argv, "--out", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


HUGE = str(10**20)
SEED_401_DIGITS = "1" + "0" * 400
SEED_LINE = "error: seed has 401 digits; seed + 1 must fit in a float\n"
SEED_1E308 = str(10**308)


def start_line(seed):
    # sqrt(13): the largest start factor of the default sphere's three axes
    return f"error: seed = {seed}: the start (seed + 1) * sqrt(13) overflows a float\n"


def size_line(name, size):
    return f"error: {name} = {size} is more than an array can hold ({sys.maxsize // 16} numbers)\n"


# runs whose n, grid or seed the sample points cannot take: each is a bad
# input, exit 2 with one `error:` line
OVERSIZED_INTEGERS = {
    "verify-seed-401-digits": (["verify", "--seed", SEED_401_DIGITS], SEED_LINE),
    "angles-seed-401-digits": (["angles", "--seed", SEED_401_DIGITS], SEED_LINE),
    "verify-negative-seed-401-digits": (["verify", "--seed", "-" + SEED_401_DIGITS], SEED_LINE),
    "verify-seed-1e308": (["verify", "--seed", SEED_1E308], start_line(SEED_1E308)),
    "angles-negative-seed-1e308": (["angles", "--seed", "-" + SEED_1E308], start_line("-" + SEED_1E308)),
    "angles-n-1e20": (["angles", "--n", HUGE], size_line("n", HUGE)),
    "verify-grid-1e20": (["verify", "--grid", HUGE], size_line("grid", HUGE)),
    "verify-grid-2e62": (["verify", "--grid", str(2**62)], size_line("grid", 2**62)),
}


class TestOversizedIntegers:
    @pytest.mark.parametrize("argv, line", OVERSIZED_INTEGERS.values(), ids=OVERSIZED_INTEGERS)
    def test_one_error_line(self, tmp_path, capsys, argv, line):
        # each was a traceback with exit code 1: OverflowError in
        # kronecker_points, or numpy's ValueError for an array past its size;
        # a seed whose start overflowed printed two RuntimeWarnings and a NaN point
        assert run(tmp_path, *argv) == 2
        assert capsys.readouterr() == ("", line)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ode", "--seed", SEED_401_DIGITS, "--steps", "400"],
            ["ode", "--grid", HUGE, "--steps", "400"],
            ["verify", "--seed", str(10**18), "--grid", "1"],
            ["angles", "--seed", str(-(10**300)), "--grid", "1"],
        ],
        ids=["ode-seed", "ode-grid", "verify-seed-1e18", "angles-seed-minus-1e300"],
    )
    def test_values_that_ran_still_run(self, tmp_path, argv):
        # ode samples no points, and a seed whose float is finite has a start
        assert run(tmp_path, *argv) == 0


# one small run per command; under -W error a numpy warning is an error
WARNING_FREE_RUNS = {
    "ode": ["ode", "--n", "3"],
    "verify": ["verify", "--example", "rotational", "--n", "4", "--grid", "2"],
    "angles": ["angles", "--example", "cartan", "--grid", "3"],
}


@pytest.mark.parametrize("argv", WARNING_FREE_RUNS.values(), ids=WARNING_FREE_RUNS)
def test_warning_free_in_a_process(tmp_path, argv):
    # in process, pytest's filter turns RuntimeWarnings into errors, and a
    # warning inside code that catches the error would not show; a process
    # under -W error exits with a traceback on any warning
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "quadriclab.cli", *argv, "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (0, "")


class TestOneLineErrors:
    @pytest.mark.parametrize("command", ["verify", "angles"])
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_rank_deficiency_is_one_line(self, tmp_path, capsys, command, n):
        # the message holds the point and the Gram spectrum, numpy arrays
        # whose repr wraps from n = 6 on: two or three stderr lines
        assert run(tmp_path, command, "--example", "sphere", "--n", str(n), "--r", "1e-9", "--grid", "1") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "rank-deficient" in err


class TestOutOfMemory:
    # a MemoryError that left a command was a traceback. Each stage here
    # raises it itself, so no test allocates a large array; numpy's
    # allocation failure is built, not provoked
    @pytest.mark.parametrize(
        "error, detail",
        [
            (MemoryError(), ""),
            (
                _ArrayMemoryError((24,) * 6, np.dtype(float)),
                ": Unable to allocate 1.42 GiB for an array with shape (24, 24, 24, 24, 24, 24) and data type float64",
            ),
        ],
        ids=["bare", "numpy"],
    )
    @pytest.mark.parametrize("command, stage", [("verify", "sample_batch"), ("angles", "_sample_jets"), ("ode", "_flow")])
    def test_one_error_line_names_n(self, tmp_path, capsys, monkeypatch, command, stage, error, detail):
        def exhausted(*args):
            raise error

        monkeypatch.setattr(cli, stage, exhausted)
        assert run(tmp_path, command, "--n", "24") == 2
        where = "n = 24" if command == "ode" else "n = 24, grid = 3"
        assert capsys.readouterr() == ("", f"error: out of memory at {where}{detail}\n")

    @pytest.mark.parametrize("command", ["verify", "angles"])
    def test_grid_is_named(self, tmp_path, capsys, monkeypatch, command):
        # the array that fails is the grid's: np.arange of the point indices
        # in kronecker_points, whose error (numpy's text) is raised in its place
        def exhausted(*args):
            raise _ArrayMemoryError((576460752303423488,), np.dtype(np.int64))

        monkeypatch.setattr(cli, "kronecker_points", exhausted)
        assert run(tmp_path, command, "--grid", "576460752303423487") == 2
        assert capsys.readouterr() == (
            "",
            "error: out of memory at n = 3, grid = 576460752303423487: Unable to allocate 4.00 EiB"
            " for an array with shape (576460752303423488,) and data type int64\n",
        )


class TestNanResiduals:
    # a NaN residual fails its check: residual <= tolerance is False for NaN

    @staticmethod
    def nan_checks(rows):
        return [c for row in rows for c in row["checks"] if c["residual"] != c["residual"]]

    def test_verify_column(self, tmp_path, monkeypatch):
        nan_column = lambda b, n: {"angles_equal": np.full(len(b.spec.thetas), np.nan)}
        monkeypatch.setitem(cli.EXAMPLES, "sphere", dataclasses.replace(cli.EXAMPLES["sphere"], checks=nan_column))
        assert run(tmp_path, "verify", "--example", "sphere", "--grid", "2") == 1
        rep = load_report(tmp_path, "verify", "sphere")
        nans = self.nan_checks(rep["results"])
        assert [(c["name"], c["pass"]) for c in nans] == [("angles_equal", False)] * 2
        assert rep["summary"]["failed"] == 2 and not rep["summary"]["all_pass"]
        assert (tmp_path / "verify_sphere_report.json").read_text().count('"residual": NaN') == 2

    def test_ode_row(self, tmp_path, monkeypatch):
        # ode's residuals reach the row as numpy floats
        monkeypatch.setattr(cli, "first_integral_residual", lambda traj: np.float64(np.nan))
        assert run(tmp_path, "ode", "--steps", "1000") == 1
        rep = load_report(tmp_path, "ode", "rotational")
        nans = self.nan_checks(rep["results"])
        assert [(c["name"], c["pass"]) for c in nans] == [("first_integral", False)]
        assert (rep["summary"]["total"], rep["summary"]["failed"]) == (11, 1)
        assert (tmp_path / "ode_rotational_report.json").read_text().count('"residual": NaN') == 1


class TestSeriesSampleFloor:
    # a chart's Chebyshev series starts at degree 32, whose 66 Chebyshev
    # points need 66 samples: steps + 1 of them

    @pytest.mark.parametrize(
        "command",
        [
            ["ode", "--n", "3"],
            ["verify", "--example", "rotational", "--n", "3", "--grid", "1"],
            ["angles", "--example", "rotational", "--n", "3", "--grid", "1"],
        ],
        ids=["ode", "verify", "angles"],
    )
    def test_one_sample_short_exits_2(self, tmp_path, capsys, command):
        assert run(tmp_path, *command, "--steps", "64") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a Chebyshev series of degree 32 for the profile takes 66 samples, the trajectory has 65\n"

    def test_at_the_floor_passes(self, tmp_path):
        assert run(tmp_path, "ode", "--n", "3", "--steps", "65") == 0


# values at the edges of the float flags: signed zeros, the smallest
# subnormal and a small one, a value whose product with n overflows, and
# non-finite ones
EDGE_FLOATS = ["0.0", "-0.0", "5e-324", "1e-321", "1e308", "nan", "inf", "-inf"]


def flag_value(low, high):
    return st.one_of(st.floats(low, high).map(repr), st.sampled_from(EDGE_FLOATS))


@st.composite
def ode_argv(draw):
    """An ode command line: n, and each flow flag, --steps and --h given or left at its default.

    A given value is spelled as `--flag value` or as `--flag=value`.
    """
    argv = ["ode", f"--n={draw(st.integers(1, 8))}"]
    flags = {
        "--alpha0": flag_value(-4.0, 4.0),
        "--dalpha0": flag_value(-1.0, 1.0),
        "--span": flag_value(-1.0, 20.0),
        "--steps": st.sampled_from([-1, 0, 1, 5, 64, 65, 66, 250, 4000, 8000]).map(str),
        "--h": st.sampled_from(["1e-7", "1.1e-7", "1e-3", "0.00999", "0.01", "nan"]),
    }
    for flag, value in flags.items():
        if draw(st.booleans()):
            text = draw(value)
            argv += draw(st.sampled_from([[flag, text], [f"{flag}={text}"]]))
    return argv


def assert_input_contract(argv):
    """A command line ends in a report (0 or 1, nothing on stderr) or one `error:` line (2).

    A value the parser refuses exits 2 from the parser itself. A numpy
    warning, raised here by the test configuration, or any other exception
    breaks the contract.
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--out", tmp])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


# seeds at the float limits: seed + 1 is no float (401 digits), the start
# (seed + 1) sqrt(p) overflows (1e308 and the largest float), and seeds of
# 1e306, whose start stays finite at n = 1 to 8
LIMIT_SEEDS = [
    "1" + "0" * 400, str(10**308), "-" + str(10**308), str(int(sys.float_info.max)), str(10**306), "-" + str(10**306),
]


# malformed and out-of-range --tol items, shared by the verify and angles grammars
TOL_ITEMS = [
    "cubic_symmetry", "=1e-3", "cubic_symmetry=", "cubic_symmetry=abc", "cubic_symmetry=-1",
    "cubic_symmetry=inf", "cubic_symmetry=nan", "angle_sum=1", "cubic_symmetry=1e-3",
]


@st.composite
def angles_argv(draw):
    """An angles command line: an example that takes angles, n and --grid, then --gauge, --seed, --h and --tol or not.

    n is 0 to 8 and the grid 1 to 3, so no draw asks for a large run.
    """
    examples = [name for name, entry in cli.EXAMPLES.items() if "angles" in entry.commands]
    argv = [
        "angles",
        f"--example={draw(st.sampled_from(examples))}",
        f"--n={draw(st.integers(0, 8))}",
        f"--grid={draw(st.integers(1, 3))}",
    ]
    flags = {
        "--gauge": st.sampled_from(["normalized", "canonical", "unitary"]),
        "--seed": st.one_of(st.integers(-(10**6), 10**6).map(str), st.sampled_from(["-1", "-2", *LIMIT_SEEDS])),
        "--h": st.sampled_from(["1e-7", "1.1e-7", "1e-3", "0.00999", "0.01", "nan", "-inf"]),
        "--tol": st.sampled_from(TOL_ITEMS),
    }
    for flag, value in flags.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(value)}")
    return argv


@st.composite
def verify_argv(draw):
    """A verify command line: any example, n and --grid, then --gauge, example parameters and --tol or not.

    n is 0 to 8 and the grid 1 to 3, so no draw asks for a large run. Each
    parameter of the example is given or not, now and then with one of
    another example; one value in five is a word or a fraction, the wrong
    type for an int parameter. --steps, rotational's, is at most 8000.
    """
    example = draw(st.sampled_from(sorted(cli.EXAMPLES)))
    argv = ["verify", f"--example={example}", f"--n={draw(st.integers(0, 8))}", f"--grid={draw(st.integers(1, 3))}"]
    if draw(st.booleans()):
        argv.append(f"--gauge={draw(st.sampled_from(['canonical', 'normalized'] * 2 + ['unitary']))}")
    names = [name for name in cli.EXAMPLES[example].params if draw(st.booleans())]
    if draw(st.integers(0, 4)) == 0:
        names.append(draw(st.sampled_from(sorted(cli.PARAM_TYPES))))
    values = {
        int: ["-1", "0", "1", "2", "3", "7"],
        float: ["-1", "0", "0.05", "0.35", "0.7", "0.9", "1", "1.5", "3", "nan", "-inf", "1e400"],
    }
    for name in names:
        if draw(st.integers(0, 4)) == 0:
            value = draw(st.sampled_from(["x", "", "0.5"]))
        elif name == "steps":
            value = draw(st.sampled_from(["-1", "0", "1", "5", "64", "250", "4000", "8000"]))
        else:
            value = draw(st.sampled_from(values[cli.PARAM_TYPES[name]]))
        argv.append(f"--{name}={value}")
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--tol={draw(st.sampled_from(TOL_ITEMS))}")
    return argv


class TestVerifyInputContract:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(verify_argv())
    def test_exit_code_and_stderr(self, argv):
        assert_input_contract(argv)


class TestAnglesInputContract:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(angles_argv())
    @example(argv=["angles", "--example=rotational", "--n=3", "--grid=1", f"--seed={LIMIT_SEEDS[1]}"])
    @example(argv=["angles", "--example=rotational", "--n=4", "--grid=3", "--seed=-7", "--gauge=canonical"])
    @example(argv=["angles", "--example=sphere", "--n=8", "--grid=3", f"--seed={LIMIT_SEEDS[4]}", "--h=0.00999"])
    def test_exit_code_and_stderr(self, argv):
        assert_input_contract(argv)


class TestOdeInputContract:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ode_argv())
    @example(argv=["ode", "--span=5e-324"])  # span / steps underflows to a zero step
    def test_exit_code_and_stderr(self, argv):
        assert_input_contract(argv)

    def test_spaced_negative_exponent_is_a_value(self, tmp_path):
        # argparse read -1e-05, as repr writes it, as an option and exited 2
        # with "expected one argument"; spaced, it gives the report bytes of
        # the = spelling
        def lines(path):
            return [l for l in open(path) if '"timestamp"' not in l and '"csv"' not in l]

        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        assert run(spaced, "ode", "--dalpha0", "-1e-05") == 0
        assert run(joined, "ode", "--dalpha0=-1e-05") == 0
        name = "ode_rotational_report.json"
        assert lines(spaced / name) == lines(joined / name)
        assert '"dalpha0": -1e-05' in open(spaced / name).read()
        assert open(spaced / "profile.csv").read() == open(joined / "profile.csv").read()
