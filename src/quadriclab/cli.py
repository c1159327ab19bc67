"""Command-line driver: batch verification with machine-readable reports.

Three subcommands: `verify` runs every applicable structural check for one
catalog example over deterministic sample points, `angles` reports angle
functions and the distinct-angle count, `ode` integrates the profile flow and
checks the rotational-chart laws, exporting the profile curve as CSV.

Reports are JSON with layout {config, results, summary, timestamp}; identical
configurations produce byte-identical reports apart from the timestamp line.
Exit codes: 0 all checks pass, 1 check failure, 2 usage or configuration
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .gaussmap import (
    FdSteps,
    GaussMapError,
    gauge_normalize,
    gauss_map,
    mean_curvature,
    mod_pi_distance,
    structure_operators,
)
from .hypersurfaces import (
    Box,
    ChartError,
    HypersurfaceChart,
    cartan_tube,
    product_spheres,
    round_sphere,
)
from .numerics import NumericsError
from .quadric import StructureGauge
from .rotational import (
    OdeError,
    build_rotational_chart,
    first_integral_residual,
    integrate_alpha,
    ode_equivalence_residual,
    ode_order_ratio,
    principal_pattern_residual,
    profile_curve,
    warped_curvature_check,
)
from .verify import (
    CheckResult,
    GaugePolicy,
    ResidualReport,
    SamplePoint,
    VerifyError,
    check_csc_identities,
    check_prop1,
    classify_by_angles,
    codazzi_residual,
    gauss_equation_residual,
    isoparametric_variance,
    palmer_residual,
    sectional_curvature,
    sectional_from_metric,
)

__all__ = ["RunConfig", "main", "cmd_verify", "cmd_angles", "cmd_ode"]

KNOWN_EXAMPLES = ("sphere", "product", "cartan", "rotational")

# the parameters build_example (and cmd_ode, for the rotational flow) reads
# for each example; any other one given on the command line is an error
EXAMPLE_PARAMS = {
    "sphere": ("r",),
    "product": ("k", "r1"),
    "cartan": ("t",),
    "rotational": ("alpha0", "dalpha0", "span", "steps"),
}

DEFAULT_TOLERANCES = {
    "chart_invariants": 1e-8,
    "chart_rank_margin": 0.0,
    "lagrangian": 1e-8,
    "horizontality": 1e-9,
    "structure_unit_norm": 1e-8,
    "structure_commute": 1e-8,
    "curvature_angle_cotangent": 1e-5,
    "cubic_symmetry": 1e-5,
    "mean_curvature_norm": 1e-5,
    "palmer_formula": 1e-5,
    "gauge_one_form": 1e-5,
    "connection_antisymmetry": 1e-8,
    "angle_gradient_identity": 1e-4,
    "frame_rotation_identity": 1e-4,
    "gauss_equation": 1e-3,
    "codazzi_equation": 1e-3,
    "sectional_two_route": 1e-3,
    "sectional_value": 1e-3,
    "angles_equal": 1e-5,
    "angle_gaps_third_pi": 1e-5,
    "cubic_component_squared": 1e-3,
    "csc_diagonal_balance": 1e-3,
    "csc_triple_vanishing": 1e-3,
    "csc_quadruple_vanishing": 1e-3,
    "principal_vs_angle_pattern": 1e-4,
    "first_integral": 1e-6,
    "ode_forms_equivalent": 1e-5,
    "profile_second_order_ode": 1e-3,
    "warp_block_diagonal": 1e-3,
    "warp_block_conformal": 1e-3,
    "warp_factor_law": 1e-3,
    "fiber_curvature_normalized": 1e-3,
    "fiber_curvature_chain": 1e-3,
    "fiber_curvature_variance": 1e-4,
    "isoparametric_variance": 1e-8,
}

SECTIONAL_TARGETS = {"sphere": 2.0, "cartan": 0.125}

# steps of the coarsest of the three order-probe integrations: coarse enough
# that RK4's global error dominates round-off, whatever --steps is
ORDER_PROBE_STEPS = 250
# global-error ratios under step halving that pass the order gate; a
# fourth-order method gives 2^4 = 16
ORDER_WINDOW = (12.0, 20.0)


class ConfigError(Exception):
    """Bad command-line configuration."""


@dataclass
class RunConfig:
    """Validated run parameters; every field reaches the report verbatim."""

    command: str
    example: str = "sphere"
    n: int = 3
    params: dict = field(default_factory=dict)
    grid: int = 3
    h: float = 1e-4
    gauge: str = "normalized"
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.grid < 1:
            raise ConfigError("grid must be at least 1")
        if not (1e-7 < self.h < 1e-2):
            raise ConfigError(f"h = {self.h} outside the supported range (1e-7, 1e-2)")
        known = ("rotational",) if self.command == "ode" else KNOWN_EXAMPLES
        if self.example not in known:
            raise ConfigError(f"unknown example '{self.example}'; choose from {known}")
        reads = EXAMPLE_PARAMS[self.example]
        unread = [name for name in sorted(self.params) if name not in reads]
        if unread:
            flags = lambda names: ", ".join(f"--{name}" for name in names)
            raise ConfigError(f"example '{self.example}' does not read {flags(unread)}; it reads {flags(reads)}")
        if self.gauge not in ("canonical", "normalized"):
            raise ConfigError("gauge must be 'canonical' or 'normalized'")
        flow = self.command == "ode" or self.example == "rotational"
        if flow and "span" in self.params and self.params["span"] <= 0.0:
            raise ConfigError(f"span must be positive, got {self.params['span']}")

    def tol(self, name: str) -> float:
        if name in self.tolerances:
            return float(self.tolerances[name])
        return DEFAULT_TOLERANCES[name]

    def steps(self) -> FdSteps:
        return FdSteps.from_base(self.h)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "example": self.example,
            "n": self.n,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "grid": self.grid,
            "h": self.h,
            "gauge": self.gauge,
            "tolerances": {k: self.tolerances[k] for k in sorted(self.tolerances)},
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# deterministic sample points
# ---------------------------------------------------------------------------

def _primes(count: int) -> list[int]:
    """The first count primes, by trial division."""
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % q for q in primes if q * q <= k):
            primes.append(k)
        k += 1
    return primes


def kronecker_points(box: Box, count: int, seed: int, margin: float) -> list[np.ndarray]:
    """Low-discrepancy interior points: additive irrational rotations per axis."""
    dim = box.dim
    primes = _primes(2 * dim)
    alphas = np.array([np.sqrt(p) % 1.0 for p in primes[:dim]])
    start = np.array(
        [((seed + 1) * np.sqrt(primes[dim + i])) % 1.0 for i in range(dim)]
    )
    lows = box.lows + margin
    spans = (box.highs - margin) - lows
    pts = []
    for k in range(count):
        frac = np.mod(start + (k + 1) * alphas, 1.0)
        pts.append(lows + frac * spans)
    return pts


def build_example(cfg: RunConfig) -> HypersurfaceChart:
    """Construct the configured catalog chart (integrating the flow if needed)."""
    p = cfg.params
    if cfg.example == "sphere":
        return round_sphere(cfg.n, p.get("r", 1.0 / np.sqrt(2.0)))
    if cfg.example == "product":
        k = int(p.get("k", 1))
        r1 = p.get("r1", 1.0 / np.sqrt(2.0))
        return product_spheres(k, cfg.n, r1)
    if cfg.example == "cartan":
        if cfg.n != 3:
            raise ConfigError("the cartan example lives in dimension n = 3")
        return cartan_tube(p.get("t", 0.35))
    if cfg.example == "rotational":
        if cfg.n < 3:
            raise ConfigError("rotational examples need n >= 3")
        traj = integrate_alpha(
            cfg.n,
            p.get("alpha0", np.pi / 12.0),
            p.get("dalpha0", 0.0),
            p.get("span", 0.8),
            int(p.get("steps", 4000)),
        )
        if traj.stopped_early:
            raise ConfigError(f"trajectory stopped early: {traj.stop_reason}")
        return build_rotational_chart(profile_curve(traj), cfg.n)
    raise ConfigError(f"unknown example '{cfg.example}'")


# ---------------------------------------------------------------------------
# verification per sample point
# ---------------------------------------------------------------------------

def _sample_points(chart: HypersurfaceChart, cfg: RunConfig) -> list[SamplePoint]:
    """Per-point data at the run's sample points, kept clear of every stencil.

    The Gauss-map jets of all points come from one batch. The configured
    gauge is held fixed over each point's stencils. In the normalized gauge
    every later point takes the admissible gauge nearest the first point's,
    so round-off at the period boundary 0 = 2 pi / n cannot switch branches
    within one run.
    """
    margin = max(0.03, 3.0 * cfg.steps().stencil_margin)
    jets = gauss_map(chart, kronecker_points(chart.box, cfg.grid, cfg.seed, margin), cfg.steps())
    points: list[SamplePoint] = []
    for k in range(cfg.grid):
        ref_phi = points[0].phi if points else None
        phi = 0.0 if cfg.gauge == "canonical" else gauge_normalize(jets[k], ref_phi).phi
        points.append(SamplePoint(jets[k], GaugePolicy("fixed", phi)))
    return points


def _sectional_target(cfg: RunConfig) -> float | None:
    """Constant sectional curvature of the configured example, if it has one."""
    if cfg.example == "product" and cfg.n == 2:
        return 0.0
    return SECTIONAL_TARGETS.get(cfg.example)


def _report(example: str, point: list, residuals: dict, cfg: RunConfig) -> ResidualReport:
    """Named residuals against their configured tolerances: the one place both meet."""
    entries = {
        name: CheckResult(float(residual), cfg.tol(name)) for name, residual in residuals.items()
    }
    return ResidualReport(example=example, point=point, entries=entries)


def _summary(
    results: list[ResidualReport], skipped: list[dict], gates=(), stopped_early: bool = False
) -> dict:
    """Pass counts over every report entry plus summary-only gates."""
    passed = [e.passed for r in results for e in r.entries.values()] + list(gates)
    return {
        "total": len(passed),
        "passed": sum(passed),
        "failed": passed.count(False),
        "all_pass": all(passed) and not stopped_early,
        "skipped": skipped,
    }


def _point_report(pt: SamplePoint, cfg: RunConfig) -> ResidualReport:
    jet, spec, ff = pt.jet, pt.spec, pt.ff
    inv = jet.stencil.invariants()
    b, c = structure_operators(jet, StructureGauge(pt.phi))
    cot_res = 0.0
    lams = np.sort(jet.lambdas)[::-1]
    ths = pt.spec0.thetas  # ascending pairs with descending curvatures
    for lam, th in zip(lams, ths):
        if abs(np.sin(th)) > 1e-3:
            cot_res = max(cot_res, abs(lam - np.cos(th) / np.sin(th)))
    res = {
        "chart_invariants": max(v for k, v in inv.items() if k != "min_singular_value"),
        "chart_rank_margin": max(0.0, 1e-6 - inv["min_singular_value"]),
        "lagrangian": jet.lagrangian_residual(),
        "horizontality": jet.horizontality_residual(),
        "structure_unit_norm": np.abs(b @ b + c @ c - np.eye(jet.dim)).max(),
        "structure_commute": np.abs(b @ c - c @ b).max(),
        "curvature_angle_cotangent": cot_res,
        "cubic_symmetry": ff.symmetry_defect,
        "mean_curvature_norm": np.linalg.norm(mean_curvature(ff)),
        "palmer_formula": palmer_residual(pt)["residual"],
    }
    if cfg.gauge == "normalized":
        res["gauge_one_form"] = np.abs(pt.connection.s).max()
    res["connection_antisymmetry"] = pt.connection.antisymmetry_defect
    res.update(check_prop1(pt))
    res.update(gauss_equation_residual(pt))
    res.update(codazzi_residual(pt))

    k_alg = sectional_curvature(spec, ff)
    two_route = 0.0
    value_res = 0.0
    target = _sectional_target(cfg)
    for i in range(jet.dim):
        for j in range(i + 1, jet.dim):
            k_met = sectional_from_metric(
                pt.curvature, pt.metric, spec.frame_vel[i], spec.frame_vel[j]
            )
            two_route = max(two_route, abs(k_alg[i, j] - k_met))
            if target is not None:
                value_res = max(value_res, abs(k_met - target))
    res["sectional_two_route"] = two_route
    if target is not None:
        res["sectional_value"] = value_res

    if cfg.example == "sphere":
        th = spec.thetas
        res["angles_equal"] = max(
            (mod_pi_distance(th[i], th[j]) for i in range(len(th)) for j in range(i + 1, len(th))),
            default=0.0,
        )
    if cfg.example == "cartan":
        th = np.sort(spec.thetas)
        res["angle_gaps_third_pi"] = max(
            abs(th[1] - th[0] - np.pi / 3.0), abs(th[2] - th[1] - np.pi / 3.0)
        )
        res["cubic_component_squared"] = abs(ff.h[0, 1, 2] ** 2 - 0.375)
    if target is not None:
        res.update(check_csc_identities(spec, ff))
    if cfg.example == "rotational":
        res["principal_vs_angle_pattern"] = principal_pattern_residual(jet, cfg.n)
    return _report(cfg.example, list(map(float, pt.p)), res, cfg)


def _skipped_checks(cfg: RunConfig) -> list[dict]:
    skipped = []
    if _sectional_target(cfg) is None:
        skipped.append(
            {
                "name": "sectional_value",
                "reason": f"'{cfg.example}' (n={cfg.n}) has no constant-curvature target",
            }
        )
        skipped.append(
            {
                "name": "csc_identities",
                "reason": "constant-curvature balance applies to the constant-curvature catalog only",
            }
        )
    if cfg.gauge == "canonical":
        skipped.append(
            {
                "name": "gauge_one_form",
                "reason": "gauge one-form vanishing is asserted for the normalized gauge",
            }
        )
    return skipped


def cmd_verify(cfg: RunConfig) -> tuple[int, dict]:
    chart = build_example(cfg)
    points = _sample_points(chart, cfg)
    results = [_point_report(pt, cfg) for pt in points]
    sample_specs = [pt.spec0 for pt in points]
    distinct = None
    if chart.meta.get("isoparametric"):
        variance = {"isoparametric_variance": isoparametric_variance(sample_specs)}
        results.append(_report(cfg.example, ["all"], variance, cfg))
        distinct = classify_by_angles(sample_specs)
    summary = _summary(results, _skipped_checks(cfg))
    if distinct is not None:
        summary["distinct_angles"] = distinct
    payload = {
        "config": cfg.to_dict(),
        "results": [r.to_dict() for r in results],
        "summary": summary,
    }
    return (0 if summary["all_pass"] else 1), payload


def cmd_angles(cfg: RunConfig) -> tuple[int, dict]:
    chart = build_example(cfg)
    points = _sample_points(chart, cfg)
    rows = [
        {
            "point": [float(v) for v in pt.p],
            "gauge_phi": float(pt.phi),
            "angles": [float(t) for t in pt.spec.thetas],
            "principal_curvatures": [float(l) for l in pt.jet.lambdas],
        }
        for pt in points
    ]
    summary = {"all_pass": True, "skipped": []}
    if chart.meta.get("isoparametric"):
        summary["distinct_angles"] = classify_by_angles([pt.spec for pt in points])
    payload = {"config": cfg.to_dict(), "results": rows, "summary": summary}
    return 0, payload


def cmd_ode(cfg: RunConfig) -> tuple[int, dict]:
    if cfg.n < 3:
        raise ConfigError("the profile flow needs n >= 3")
    p = cfg.params
    alpha0 = p.get("alpha0", np.pi / 12.0)
    dalpha0 = p.get("dalpha0", 0.0)
    span = p.get("span", 0.8)
    steps_n = int(p.get("steps", 4000))
    traj = integrate_alpha(cfg.n, alpha0, dalpha0, span, steps_n)
    residuals = {
        "first_integral": first_integral_residual(traj),
        "ode_forms_equivalent": ode_equivalence_residual(traj),
    }
    order = ode_order_ratio(cfg.n, alpha0, dalpha0, span, ORDER_PROBE_STEPS)
    curve = profile_curve(traj)
    payload: dict = {
        "config": cfg.to_dict(),
        "trajectory": {
            "samples": len(traj.states),
            "stopped_early": traj.stopped_early,
            "stop_reason": traj.stop_reason,
            "order_ratio": order,
        },
    }
    chart = build_rotational_chart(curve, cfg.n)
    residuals.update(warped_curvature_check(chart, cfg.n, chart.meta["c1"], cfg.steps()))
    report = _report(cfg.example, [0.0], residuals, cfg)
    # the order gate counts in the summary only, and is skipped when the probe
    # runs differ by round-off only
    gates = [] if order is None else [ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1]]
    skipped = [] if gates else [
        {
            "name": "order_ratio",
            "reason": "the order-probe runs differ by round-off only "
            "(an equilibrium or a very short span), so they measure no order",
        }
    ]
    payload["results"] = [report.to_dict()]
    payload["summary"] = _summary([report], skipped, gates, traj.stopped_early)
    payload["csv"] = _write_profile_csv(cfg, curve)
    return (0 if payload["summary"]["all_pass"] else 1), payload


def _out_dir(cfg: RunConfig) -> str:
    if cfg.out:
        return cfg.out
    return os.environ.get("QUADRICLAB_OUT_DIR", ".")


def _write_profile_csv(cfg: RunConfig, curve) -> str:
    out_dir = _out_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "profile.csv")
    with open(path, "w") as fh:
        fh.write("theta,alpha,dalpha,gx,gy,gz\n")
        for row in curve.csv_rows():
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def write_report(cfg: RunConfig, payload: dict) -> str:
    out_dir = _out_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{cfg.command}_{cfg.example}_report.json")
    payload = dict(payload)
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error is one `error:` line and exit code 2, like every other bad input."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadriclab",
        description="Verify the geometry of Gauss maps into the complex hyperquadric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "angles", "ode"):
        sp = sub.add_parser(name)
        sp.add_argument("--example", default="sphere" if name != "ode" else "rotational")
        sp.add_argument("--n", type=int, default=3)
        sp.add_argument("--r", type=float, default=None)
        sp.add_argument("--r1", type=float, default=None)
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--t", type=float, default=None)
        sp.add_argument("--alpha0", type=float, default=None)
        sp.add_argument("--dalpha0", type=float, default=None)
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--span", type=float, default=None)
        sp.add_argument("--grid", type=int, default=3)
        sp.add_argument("--h", type=float, default=1e-4)
        sp.add_argument("--gauge", default="normalized")
        sp.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
    return parser


def _config_from_args(args) -> RunConfig:
    params = {}
    for key in ("r", "r1", "t", "alpha0", "dalpha0", "span"):
        value = getattr(args, key)
        if value is not None:
            params[key] = float(value)
    for key in ("k", "steps"):
        value = getattr(args, key)
        if value is not None:
            params[key] = int(value)
    tolerances = {}
    for item in args.tol:
        if "=" not in item:
            raise ConfigError(f"--tol expects NAME=VALUE, got '{item}'")
        name, _, value = item.partition("=")
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance '{name}'")
        try:
            tolerances[name] = float(value)
        except ValueError:
            raise ConfigError(f"tolerance '{name}' needs a number, got '{value}'") from None
        if not 0.0 <= tolerances[name] < np.inf:
            raise ConfigError(f"tolerance '{name}' must be finite and >= 0, got '{value}'")
    return RunConfig(
        command=args.command,
        example=args.example,
        n=args.n,
        params=params,
        grid=args.grid,
        h=args.h,
        gauge=args.gauge,
        tolerances=tolerances,
        seed=args.seed,
        out=args.out,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "verify":
            code, payload = cmd_verify(cfg)
        elif args.command == "angles":
            code, payload = cmd_angles(cfg)
        else:
            code, payload = cmd_ode(cfg)
    except (ConfigError, ChartError, OdeError, VerifyError, GaussMapError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = write_report(cfg, payload)
    summary = payload.get("summary", {})
    status = "PASS" if code == 0 else "FAIL"
    print(f"{status}: {summary.get('passed', 0)}/{summary.get('total', 0)} checks; report at {path}")
    if args.command == "angles":
        for row in payload["results"]:
            angles = ", ".join(f"{a:.6f}" for a in row["angles"])
            print(f"  point {row['point']}: angles [{angles}] (gauge {row['gauge_phi']:.6f})")
        if "distinct_angles" in summary:
            print(f"  distinct angles mod pi: {summary['distinct_angles']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
