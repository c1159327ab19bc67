"""Command-line driver: batch verification with machine-readable reports.

Three subcommands over the catalog examples of `EXAMPLES`, the one table of
every per-example fact: `verify` runs each applicable structural check at
sample points, `angles` reports angle functions and the distinct-angle
count, `ode` checks the profile flow and exports its curve as CSV.

Reports are JSON with layout {config, results, summary, timestamp}; identical
configurations produce byte-identical reports apart from the timestamp line.
Exit codes: 0 all checks pass, 1 check failure, 2 usage or configuration
error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii
from types import NoneType

import numpy as np

from .gaussmap import (
    AngleSpectrum,
    FdSteps,
    GaussJet,
    GaussMapError,
    angle_spectrum,
    gauge_normalize,
    gauss_map,
    mod_pi_distance,
)
from .hypersurfaces import (
    Box,
    ChartError,
    HypersurfaceChart,
    cartan_tube,
    product_spheres,
    round_sphere,
)
from .numerics import NumericsError, row_dot
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
    SampleBatch,
    VerifyError,
    check_csc_identities,
    check_prop1,
    classify_by_angles,
    codazzi_residual,
    cotangent_residual,
    gauss_equation_residual,
    isoparametric_variance,
    palmer_residual,
    sample_batch,
    sectional_residuals,
    structure_residuals,
)

__all__ = ["RunConfig", "main", "cmd_verify", "cmd_angles", "cmd_ode"]

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
# rows of profile.csv per _csv_lines call and per write: the kernel's
# temporaries, about 1 MB at six columns, are what one block holds
CSV_BLOCK_ROWS = 1024


class ConfigError(Exception):
    """Bad command-line configuration."""


def _flow(n: int, p: dict):
    return integrate_alpha(n, p["alpha0"], p["dalpha0"], p["span"], p["steps"])


def _rotational_chart(n: int, p: dict) -> HypersurfaceChart:
    traj = _flow(n, p)
    if traj.stopped_early:
        raise ConfigError(f"trajectory stopped early: {traj.stop_reason}")
    return build_rotational_chart(traj)


def _sphere_checks(b: SampleBatch, n: int) -> dict:
    th = b.spec.thetas
    i, j = np.triu_indices(n, 1)
    return {"angles_equal": np.max(mod_pi_distance(th[..., i], th[..., j]), axis=-1, initial=0.0)}


def _cartan_checks(b: SampleBatch, n: int) -> dict:
    th = b.spec.thetas
    gaps = np.maximum(np.abs(th[..., 1] - th[..., 0] - np.pi / 3.0), np.abs(th[..., 2] - th[..., 1] - np.pi / 3.0))
    return {"angle_gaps_third_pi": gaps, "cubic_component_squared": np.abs(b.ff.h[..., 0, 1, 2] ** 2 - 0.375)}


@dataclass(frozen=True)
class Example:
    """Every fact about one catalog example that the commands read."""

    build: Callable  # (n, params with every default filled in) -> chart
    params: dict  # name -> default; the default's type is the flag's type
    n_range: tuple = (1, None)  # (lowest n, highest n or None)
    isoparametric: bool = False
    sectional: Callable = lambda n: None  # n -> constant sectional curvature, or None
    checks: Callable = lambda b, n: {}  # (sample batch, n) -> {name: one residual per point}, after the common checks
    commands: tuple = ("verify", "angles")


# each build calls its constructor by this module's global name, so rebinding the name reaches it
EXAMPLES = {
    "sphere": Example(
        build=lambda n, p: round_sphere(n, p["r"]),
        params={"r": float(1.0 / np.sqrt(2.0))},
        isoparametric=True,
        sectional=lambda n: SECTIONAL_TARGETS["sphere"],
        checks=_sphere_checks,
    ),
    "product": Example(
        build=lambda n, p: product_spheres(p["k"], n, p["r1"]),
        params={"k": 1, "r1": float(1.0 / np.sqrt(2.0))},
        n_range=(2, None),
        isoparametric=True,
        sectional=lambda n: 0.0 if n == 2 else None,
    ),
    "cartan": Example(
        build=lambda n, p: cartan_tube(p["t"]),
        params={"t": 0.35},
        n_range=(3, 3),
        isoparametric=True,
        sectional=lambda n: SECTIONAL_TARGETS["cartan"],
        checks=_cartan_checks,
    ),
    "rotational": Example(
        build=_rotational_chart,
        params={"alpha0": np.pi / 12.0, "dalpha0": 0.0, "span": 0.8, "steps": 4000},
        n_range=(3, None),
        checks=lambda b, n: {"principal_vs_angle_pattern": principal_pattern_residual(b.jets, n)},
        commands=("verify", "angles", "ode"),
    ),
}

PARAM_TYPES = {name: type(d) for entry in EXAMPLES.values() for name, d in entry.params.items()}


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
        if self.grid < 1:
            raise ConfigError("grid must be at least 1")
        if not (1e-7 < self.h < 1e-2):
            raise ConfigError(f"h = {self.h} outside the supported range (1e-7, 1e-2)")
        known = tuple(name for name, entry in EXAMPLES.items() if self.command in entry.commands)
        if self.example not in known:
            raise ConfigError(f"unknown example '{self.example}'; choose from {known}")
        reads = self.entry.params
        unread = [name for name in sorted(self.params) if name not in reads]
        if unread:
            flags = lambda names: ", ".join(f"--{name}" for name in names)
            raise ConfigError(f"example '{self.example}' does not read {flags(unread)}; it reads {flags(reads)}")
        if self.gauge not in ("canonical", "normalized"):
            raise ConfigError("gauge must be 'canonical' or 'normalized'")
        if self.params.get("span", 1.0) <= 0.0:
            raise ConfigError(f"span must be positive, got {self.params['span']}")
        low, high = self.entry.n_range
        if not low <= self.n <= (high or self.n):
            need = f"n >= {low}" if high is None else f"n = {low}" if low == high else f"{low} <= n <= {high}"
            raise ConfigError(f"example '{self.example}' needs {need}, got n = {self.n}")
        if self.command != "ode":
            # the sample points start from arrays of n and of grid numbers and
            # from (seed + 1) as a float; ode samples no points. numpy refuses
            # arrays past sys.maxsize // 16 items of 8 bytes with a ValueError,
            # where a smaller one that does not fit is a MemoryError
            for name, size in (("n", self.n), ("grid", self.grid)):
                if size > sys.maxsize // 16:
                    raise ConfigError(f"{name} = {size} is more than an array can hold ({sys.maxsize // 16} numbers)")
            try:
                float(self.seed + 1)
            except OverflowError:
                raise ConfigError(f"seed has {len(str(abs(self.seed)))} digits; seed + 1 must fit in a float") from None

    @property
    def entry(self) -> Example:
        return EXAMPLES[self.example]

    def example_params(self) -> dict:
        """Every parameter of the example: the given ones, else the defaults, as the flag types."""
        return {name: type(d)(self.params.get(name, d)) for name, d in self.entry.params.items()}

    def tol(self, name: str) -> float:
        if name in self.tolerances:
            return float(self.tolerances[name])
        return DEFAULT_TOLERANCES[name]

    def steps(self) -> FdSteps:
        return FdSteps(self.h)

    def to_dict(self) -> dict:
        """Every field but out, as the report's config; report_text sorts the keys."""
        config = asdict(self)
        del config["out"]
        return config


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


def kronecker_points(box: Box, count: int, seed: int, margin: float) -> np.ndarray:
    """(count, dim) low-discrepancy interior points: additive irrational rotations per axis.

    The start of axis i is (seed + 1)·sqrt(p) mod 1 for the (dim + i)-th
    prime p; a seed whose start overflows a float is a ConfigError.
    """
    dim = box.dim
    primes = _primes(2 * dim)
    if math.isinf(float(seed + 1) * math.sqrt(primes[-1])):
        raise ConfigError(f"seed = {seed}: the start (seed + 1) * sqrt({primes[-1]}) overflows a float")
    alphas = np.array([np.sqrt(p) % 1.0 for p in primes[:dim]])
    start = np.array(
        [((seed + 1) * np.sqrt(primes[dim + i])) % 1.0 for i in range(dim)]
    )
    lows = box.lows + margin
    spans = (box.highs - margin) - lows
    frac = np.mod(start + np.arange(1, count + 1)[:, None] * alphas, 1.0)
    return lows + frac * spans


def build_example(cfg: RunConfig) -> HypersurfaceChart:
    """Construct the configured catalog chart (integrating the flow if needed)."""
    return cfg.entry.build(cfg.n, cfg.example_params())


# ---------------------------------------------------------------------------
# verification over the sample points
# ---------------------------------------------------------------------------

def _sample_jets(chart: HypersurfaceChart, cfg: RunConfig) -> tuple[GaussJet, AngleSpectrum, AngleSpectrum]:
    """The Gauss-map jets at the run's sample points, kept clear of every stencil, with their spectra.

    The jets of all points are one batch, and so are their canonical spectra
    and, in the normalized gauge, their gauged spectra, every point's gauge
    the admissible one nearest the first point's.
    """
    margin = max(0.03, 3.0 * cfg.steps().stencil_margin)
    jets = gauss_map(chart, kronecker_points(chart.box, cfg.grid, cfg.seed, margin), cfg.steps())
    spec0 = angle_spectrum(jets)
    return jets, spec0, (spec0 if cfg.gauge == "canonical" else gauge_normalize(jets, spec0))


def _report(example: str, point: list, residuals: dict, cfg: RunConfig) -> dict:
    """One report row, {example, point, checks: [{name, residual, tolerance, pass}]}.

    The one place residuals meet their configured tolerances: a check passes
    when its residual is at most its tolerance, so a NaN residual fails.
    """
    checks = []
    for name, residual in residuals.items():
        residual, tolerance = float(residual), cfg.tol(name)
        checks.append({"name": name, "residual": residual, "tolerance": tolerance, "pass": residual <= tolerance})
    return {"example": example, "point": point, "checks": checks}


def _summary(rows: list[dict], skipped: list[dict], gates=(), stopped_early: bool = False) -> dict:
    """Pass counts over every check of the report rows plus summary-only gates."""
    passed = [check["pass"] for row in rows for check in row["checks"]] + list(gates)
    return {
        "total": len(passed),
        "passed": sum(passed),
        "failed": passed.count(False),
        "all_pass": all(passed) and not stopped_early,
        "skipped": skipped,
    }


def _columns(b: SampleBatch, cfg: RunConfig) -> tuple[dict, list[dict]]:
    """Every check of a verify run as one column over its sample points, in report order, and the checks it skips."""
    jets, ff = b.jets, b.ff
    inv = jets.invariants()
    target = cfg.entry.sectional(cfg.n)
    normalized = cfg.gauge == "normalized"
    res = {
        "chart_invariants": np.maximum.reduce([v for k, v in inv.items() if k != "min_singular_value"]),
        "chart_rank_margin": np.maximum(0.0, 1e-6 - inv["min_singular_value"]),
        "lagrangian": jets.lagrangian,
        "horizontality": jets.horizontality_residual,
        **structure_residuals(b),
        **cotangent_residual(b),
        "cubic_symmetry": ff.symmetry_defect,
        "mean_curvature_norm": np.sqrt(row_dot(b.mean_curvature, b.mean_curvature)),
        "palmer_formula": palmer_residual(b)["residual"],
    }
    if normalized:
        res["gauge_one_form"] = np.abs(b.connection.s).max(axis=-1)
    res["connection_antisymmetry"] = b.connection.antisymmetry_defect
    res.update(check_prop1(b))
    res.update(gauss_equation_residual(b))
    res.update(codazzi_residual(b))
    res.update(sectional_residuals(b, target))
    res.update(cfg.entry.checks(b, cfg.n))
    skipped = []
    if target is None:
        skipped += [
            {"name": "sectional_value", "reason": f"'{cfg.example}' (n={cfg.n}) has no constant-curvature target"},
            {
                "name": "csc_identities",
                "reason": "constant-curvature balance applies to the constant-curvature catalog only",
            },
        ]
    else:
        res.update(check_csc_identities(b.spec, ff))
    if not normalized:
        skipped.append(
            {"name": "gauge_one_form", "reason": "gauge one-form vanishing is asserted for the normalized gauge"}
        )
    return res, skipped


def cmd_verify(cfg: RunConfig) -> tuple[int, dict]:
    b = sample_batch(*_sample_jets(build_example(cfg), cfg))
    columns, skipped = _columns(b, cfg)
    rows = zip(*(col.tolist() for col in columns.values()))
    results = [
        _report(cfg.example, point, dict(zip(columns, row)), cfg) for point, row in zip(b.jets.point.tolist(), rows)
    ]
    if cfg.entry.isoparametric:
        variance = {"isoparametric_variance": isoparametric_variance(b.spec0.thetas)}
        results.append(_report(cfg.example, ["all"], variance, cfg))
    summary = _summary(results, skipped)
    if cfg.entry.isoparametric:
        summary["distinct_angles"] = classify_by_angles(b.spec0.thetas)
    return (0 if summary["all_pass"] else 1), {"config": cfg.to_dict(), "results": results, "summary": summary}


def cmd_angles(cfg: RunConfig) -> tuple[int, dict]:
    jets, _, spec = _sample_jets(build_example(cfg), cfg)
    columns = (
        jets.point.tolist(),
        np.broadcast_to(spec.phi, (cfg.grid,)).tolist(),
        spec.thetas.tolist(),
        jets.lambdas.tolist(),
    )
    rows = [
        {"point": point, "gauge_phi": phi, "angles": angles, "principal_curvatures": lambdas}
        for point, phi, angles, lambdas in zip(*columns)
    ]
    summary = {"all_pass": True, "skipped": []}
    if cfg.entry.isoparametric:
        summary["distinct_angles"] = classify_by_angles(spec.thetas)
    return 0, {"config": cfg.to_dict(), "results": rows, "summary": summary}


def cmd_ode(cfg: RunConfig) -> tuple[int, dict]:
    p = cfg.example_params()
    traj = _flow(cfg.n, p)
    try:
        residuals = {
            "first_integral": first_integral_residual(traj),
            "ode_forms_equivalent": ode_equivalence_residual(traj),
        }
        order = ode_order_ratio(cfg.n, p["alpha0"], p["dalpha0"], p["span"], ORDER_PROBE_STEPS)
        gammas = profile_curve(traj)
        chart = build_rotational_chart(traj)
        residuals.update(warped_curvature_check(chart, cfg.n, chart.meta["c1"], cfg.steps()))
    except (ChartError, OdeError, VerifyError, GaussMapError, NumericsError) as exc:
        # a run that cannot go on past its trajectory's early stop names that
        # stop, not what it broke in the order probe or the chart
        if traj.stopped_early:
            raise OdeError(f"trajectory stopped early: {traj.stop_reason}") from exc
        raise
    results = [_report(cfg.example, [0.0], residuals, cfg)]
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
    summary = _summary(results, skipped, gates, traj.stopped_early)
    trajectory = {
        "samples": len(traj.thetas),
        "stopped_early": traj.stopped_early,
        "stop_reason": traj.stop_reason,
        "order_ratio": order,
    }
    csv = _write_profile_csv(cfg, traj, gammas)
    payload = {"config": cfg.to_dict(), "trajectory": trajectory, "results": results, "summary": summary, "csv": csv}
    return (0 if summary["all_pass"] else 1), payload


def _out_path(cfg: RunConfig, name: str) -> str:
    """Where the run writes the file name: in --out, else in $QUADRICLAB_OUT_DIR, else here; the directory is made."""
    out_dir = cfg.out or os.environ.get("QUADRICLAB_OUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_profile_csv(cfg: RunConfig, traj, gammas: np.ndarray) -> str:
    """Write profile.csv: a header, then theta, alpha, dalpha, gx, gy, gz per sample.

    Every number is the text float.__repr__ gives it, so the bytes are those
    of a row-by-row repr writer. Each block of CSV_BLOCK_ROWS rows is stacked
    from the columns, formatted by one _csv_lines call and written at once.
    """
    path = _out_path(cfg, "profile.csv")
    columns = (traj.thetas, traj.alphas, traj.dalphas, gammas)
    with open(path, "wb") as fh:
        fh.write(b"theta,alpha,dalpha,gx,gy,gz")
        for start in range(0, len(traj.thetas), CSV_BLOCK_ROWS):
            fh.write(_csv_lines(np.column_stack([c[start : start + CSV_BLOCK_ROWS] for c in columns])))
        fh.write(b"\n")
    return path


# ---------------------------------------------------------------------------
# float.__repr__ of a block of floats at once
# ---------------------------------------------------------------------------
#
# repr writes the shortest decimal that reads back as the same double, and of
# several such, the nearest. _shortest_digits finds it with integer arithmetic
# on one exact product per value (after F. Loitsch, "Printing floating-point
# numbers quickly and accurately with integers", PLDI 2010), and leaves every
# value it cannot certify to float.__repr__ itself.

def _veltkamp(x):
    """x as a high part of 26 bits plus the exact rest: products of two such parts are exact."""
    t = x * 134217729.0  # 2**27 + 1
    high = t - (t - x)
    return high, x - high


# 10**k for k = 0..22, each an exact double (5**22 < 2**53), and its parts
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_PARTS = np.stack([_POW10, *_veltkamp(_POW10)])
# the distances below take one rounding, an error under 1e-14, and their
# bounds are exact: a value this close to a tie or to its round-trip bound,
# where either decides, goes to float.__repr__
_REPR_MARGIN = 1e-9


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits float.__repr__ writes for each float of x, where they can be certified.

    Returns (d, point, fast). Where fast, |x| reads back from 0.D x 10**point,
    D the 17 digits of d (10**16 <= d < 10**17, or d = 0 for a zero) with its
    trailing zeros dropped, and that is repr's choice. fast is False, and d
    and point mean nothing, for the non-finite values, for 0 < |x| < 1e-6 or
    |x| >= 1e16 (10**k below is then no exact double), for a mantissa that is
    a power of two (its rounding interval is lopsided), and for a value within
    _REPR_MARGIN of a tie or of its round-trip bound where that decides.
    Exact ties, common above about 1e12, still go to float.__repr__, which
    rounds them half to even.
    """
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-6) & (a < 1e16)
    a = np.where(fast, a, 3.0)  # a stand-in for the rest: no warnings, no NaN cast to int
    mantissa, exponent = np.frexp(a)
    fast &= mantissa != 0.5
    e10 = np.floor(np.log10(a)).astype(np.int64)
    # p = a 10**k in [1e16, 1e17), exactly high + low (Dekker's product); where
    # log10 misrounds near a power of ten, p falls outside and the value falls back
    scale, scale_high, scale_low = np.take(_POW10_PARTS, 16 - e10, axis=1)
    high = a * scale
    a_high, a_low = _veltkamp(a)
    low = a_low * scale_low - (((high - a_high * scale_high) - a_low * scale_high) - a_high * scale_low)
    fast &= ((high > 1e16) | ((high == 1e16) & (low >= 0.0))) & (high < 1e17)
    whole = high.astype(np.int64)  # high >= 2**53 holds a whole number
    # a decimal reads back as a when it lies within half an ulp of a: of p,
    # times 10**k, which is above 2**-54 1e16 > 0.555. So the nearest
    # 17-digit decimal, at most 0.5 from p, always reads back; the nearest
    # 16- and then 15-digit ones replace it where they read back too. The
    # 15-digit grid is wider than an ulp, so no shorter decimal reads back
    # unless the nearest 15-digit one does. A value is unsure where a decimal
    # that decides is near its bound, or where the kept one is near a tie
    # with the next nearest
    bound = np.ldexp(scale, exponent - 54)
    c = np.rint(low)
    d = whole + c.astype(np.int64)
    unsure = np.abs(np.abs(low - c) - 0.5) <= _REPR_MARGIN
    for step in (10, 100):
        q = whole // step
        r = (whole - q * step).astype(np.float64)
        c = np.rint((r + low) / step)
        dist = np.abs((r - c * step) + low)
        reads_back = dist < bound
        near_tie = np.abs(dist - 0.5 * step) <= _REPR_MARGIN
        unsure = np.where(reads_back, near_tie, unsure) | (np.abs(dist - bound) <= _REPR_MARGIN)
        np.copyto(d, (q + c.astype(np.int64)) * step, where=reads_back)
    fast &= ~unsure & (d < 10**17)
    d[zero] = 0
    return d, np.where(zero, 0, e10 + 1), fast | zero


_WORD = np.dtype("<u4")
# The text of a value is picked from a slot of 48 bytes, built as 12 words:
#   0- 3  separator, '-', '0', '.'    the separator goes before the value
#   4- 7  '0', '0', '0', D[0]         the zeros of 0.000D, then the digits once,
#   8-23  D[1:17]                     for the part before the point ...
#  24-27  '.', -, -, D[0]
#  28-43  D[1:17]                     ... and once for the part after it
#  44-47  'e', '-', '0', exponent     for 1e-6 <= |x| < 1e-4
_SLOT = np.frombuffer(b",-0.000\0" + b"0" * 16 + b".\0\0\0" + b"0" * 16 + b"e-0\0", _WORD)
_NEWLINE_WORD = np.frombuffer(b"\n-0.", _WORD)[0]


# the four ASCII digits of each g < 10**4 as one word; for g the j-th four
# digits of D[1:17], _DIGIT_COUNT[j, g] is the length of D up to its last
# nonzero digit if that is among them, else 1
_D = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1)  # column g: the digits of g
_DIGIT_WORDS = np.ascontiguousarray(_D.T + ord("0")).view(_WORD).ravel()
_TRAILING_ZEROS = np.argmax(_D[::-1] != 0, axis=0)
_DIGIT_COUNT = np.where(_D.any(axis=0), 4 * np.arange(4)[:, None] + 5 - _TRAILING_ZEROS, 1).astype(np.int8)
# which slot bytes are the text, one row of 12 words per key
# ((point + 5) 17 + digit count - 1) 2 + sign; repr writes exponent form
# for point <= -4 (and for point > 16, left to repr itself)
_P, _N, _S, _C = np.ogrid[-5:17, 1:18, 0:2, 0:48]
_EXP, _FRACTION = _P <= -4, (-4 < _P) & (_P <= 0)
_BEFORE = np.where(_EXP, 1, np.maximum(_P, 0))  # digits before the point
_CSV_KEEP = (
    (_C == 0)
    | ((_C == 1) & (_S == 1))
    | ((_C >= 2) & (_C <= 3) & _FRACTION)
    | ((_C >= 4) & (_C <= 6) & _FRACTION & (_C - 4 < -_P))
    | ((_C >= 7) & (_C - 7 < _BEFORE))
    | ((_C == 24) & ((_P >= 1) | (_EXP & (_N > 1))))
    | ((_C - 27 >= _BEFORE) & (_C - 27 < np.maximum(_N, _P + 1)))
    | ((_C >= 44) & _EXP)
).reshape(-1, 48).view(_WORD)
del _D, _TRAILING_ZEROS, _P, _N, _S, _C, _EXP, _FRACTION, _BEFORE


def _csv_slots(d: np.ndarray, point: np.ndarray, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The (values, 48) byte slots of _shortest_digits' values, and the length of each D without its trailing zeros."""
    first = d // 10**16
    rest = d - first * 10**16
    upper = rest // 10**8
    halves = np.stack([upper, rest - upper * 10**8]).astype(np.int32)  # int32 divides faster
    tops = halves // 10**4
    groups = np.stack([tops, halves - tops * 10**4], axis=1).reshape(4, -1)  # D[1:17], four digits each
    words = np.empty((12, len(d)), _WORD)
    words[0] = _SLOT[0]
    words[0, ::cols] = _NEWLINE_WORD
    words[1] = _SLOT[1] | (first + ord("0")) << 24
    words[6] = _SLOT[6] | (first + ord("0")) << 24
    words[11] = _SLOT[11] | (ord("1") - point) << 24  # e-05 or e-06 at point -4 or -5
    counts = []
    for j, g in enumerate(groups):
        words[2 + j] = words[7 + j] = np.take(_DIGIT_WORDS, g)
        counts.append(np.take(_DIGIT_COUNT[j], g))
    return np.ascontiguousarray(words.T).view(np.uint8), np.maximum.reduce(counts)


def _csv_lines(block: np.ndarray) -> bytes:
    """The rows of a (rows, columns) float64 block as CSV text, each value as float.__repr__ writes it.

    Each row follows its line end: the writer ends the header without one and
    the file with one.
    """
    x = block.ravel()
    d, point, fast = _shortest_digits(x)
    text, count = _csv_slots(d, point, block.shape[1])
    key = ((point + 5) * 17 + count - 1) * 2 + np.signbit(x)
    key[~fast] = 0  # any row: the loop below replaces it
    keep = np.take(_CSV_KEEP, key, axis=0).view(bool)
    for i in np.flatnonzero(~fast).tolist():
        line = text[i, :1].tobytes() + repr(x.item(i)).encode()
        text[i, : len(line)] = np.frombuffer(line, np.uint8)
        keep[i] = np.arange(48) < len(line)
    return text[keep].tobytes()


# float.__repr__ of the non-finite floats -> the text json writes for them
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# json's value types; an instance of a subclass writes as its base
_JSON_BASES = (str, int, float, list, tuple, dict)
_JSON_TYPES = frozenset(_JSON_BASES) | {bool, NoneType}
_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


@functools.cache
def _json_layout(depth: int) -> tuple[str, str, str]:
    """The text that opens the items of a container at depth, the one between them and the one that closes them."""
    inner = "\n" + "  " * (depth + 1)
    return inner, "," + inner, inner[:-2]


def _json_text(o, depth: int = 0) -> str:
    """The text of o in json.dumps(..., indent=2, sort_keys=True), o nested depth containers deep.

    Each value's type is looked up once. As in json, a bool is not an int,
    and an instance of a subclass of a JSON type writes as that type: an int
    or float subclass as its base value.
    """
    kind = type(o)
    if kind not in _JSON_TYPES:
        kind = next((base for base in _JSON_BASES if isinstance(o, base)), kind)
    if kind is float:
        text = float.__repr__(o)
        return _JSON_NON_FINITE.get(text, text)
    if kind is str:
        return encode_basestring_ascii(o)
    if kind is dict:
        if not o:
            return "{}"
        inner, sep, close = _json_layout(depth)
        texts = []
        for k, v in sorted(o.items()):
            if not isinstance(k, str):  # a number, bool or None key is its JSON text, quoted
                if not isinstance(k, (int, float, NoneType)):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
                k = _json_text(k)
            texts.append(encode_basestring_ascii(k) + ": " + _json_text(v, depth + 1))
        return "{" + inner + sep.join(texts) + close + "}"
    if kind is list or kind is tuple:
        if not o:
            return "[]"
        inner, sep, close = _json_layout(depth)
        return "[" + inner + sep.join([_json_text(item, depth + 1) for item in o]) + close + "]"
    if kind is int:
        return int.__repr__(o)
    if kind is bool or kind is NoneType:
        return _JSON_CONSTANTS[o]
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def report_text(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\\n", built in one pass.

    Python's json falls back to its pure-Python encoder whenever it indents,
    a generator frame per container and a write per chunk; this builds each
    container with one join, its separator and closing indent built once per
    depth.
    """
    return _json_text(payload) + "\n"


def write_report(cfg: RunConfig, payload: dict) -> str:
    path = _out_path(cfg, f"{cfg.command}_{cfg.example}_report.json")
    text = report_text({**payload, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")})
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error is one `error:` line and exit code 2, like every other bad input."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # in this parser and its subparsers, built with its class, a negative float (-1e-05, -inf) is a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args leaves it unchanged, so in-process main calls share it."""
    parser = _Parser(
        prog="quadriclab",
        description="Verify the geometry of Gauss maps into the complex hyperquadric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "angles", "ode"):
        sp = sub.add_parser(name)
        sp.add_argument("--example", default=next(e for e in EXAMPLES if name in EXAMPLES[e].commands))
        sp.add_argument("--n", type=int, default=3)
        for param, kind in PARAM_TYPES.items():
            sp.add_argument(f"--{param}", type=kind, default=None)
        sp.add_argument("--grid", type=int, default=3)
        sp.add_argument("--h", type=float, default=1e-4)
        sp.add_argument("--gauge", default="normalized")
        sp.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
    return parser


def _config_from_args(args) -> RunConfig:
    params = {name: getattr(args, name) for name in PARAM_TYPES if getattr(args, name) is not None}
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
        code, payload = {"verify": cmd_verify, "angles": cmd_angles, "ode": cmd_ode}[args.command](cfg)
        path = write_report(cfg, payload)
    except (ConfigError, ChartError, OdeError, VerifyError, GaussMapError, NumericsError, OSError) as exc:
        # one line, also where a message holds a numpy array that wraps
        print("error:", " ".join(line.strip() for line in str(exc).splitlines()), file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's failed allocations are MemoryErrors too; their size grows
        # with n, and in verify and angles with the grid of sample points
        detail = " ".join(str(exc).split())
        where = f"n = {args.n}" if args.command == "ode" else f"n = {args.n}, grid = {args.grid}"
        print(f"error: out of memory at {where}" + (f": {detail}" if detail else ""), file=sys.stderr)
        return 2
    summary = payload.get("summary", {})
    status = "PASS" if code == 0 else "FAIL"
    lines = [f"{status}: {summary.get('passed', 0)}/{summary.get('total', 0)} checks; report at {path}"]
    if args.command == "angles":
        for row in payload["results"]:
            angles = ", ".join(f"{a:.6f}" for a in row["angles"])
            lines.append(f"  point {row['point']}: angles [{angles}] (gauge {row['gauge_phi']:.6f})")
        if "distinct_angles" in summary:
            lines.append(f"  distinct angles mod pi: {summary['distinct_angles']}")
    sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
