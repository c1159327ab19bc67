"""Counting and tracing hooks installed from the benchmark's side.

Untraced runs only count chart evaluations: the catalog constructors are
wrapped so that the charts they return count their ``embed`` and ``normal``
calls. Traced runs also wrap every public function of each quadriclab module
in every module namespace that binds it (``cli`` and ``verify`` import by
name), plus the methods and closures named below, and keep per-span totals in
memory: calls, inclusive time and self time (span time minus child spans).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("numerics", "quadric", "hypersurfaces", "gaussmap", "verify", "rotational", "cli")

CHART_FACTORIES = (
    "hypersurfaces.round_sphere",
    "hypersurfaces.product_spheres",
    "hypersurfaces.cartan_tube",
    "rotational.build_rotational_chart",
)

# (module, class, method) spans besides the public functions
METHODS = (
    ("quadric", "StiefelPoint", "from_complex"),
    ("quadric", "StiefelPoint", "validate"),
    ("rotational", "QuinticHermite", "value"),
    ("rotational", "QuinticHermite", "derivative"),
)

# private writers that the cli.write layer covers
WRITERS = ("cli.write_report", "cli._write_profile_csv")

# layer metric -> spans it sums
LAYERS = {
    "numerics.symmetric_eigen": ("numerics.symmetric_eigen",),
    "numerics.gram_schmidt": ("numerics.gram_schmidt",),
    "numerics.stencil": ("numerics.first_derivative", "numerics.second_derivative",
                         "numerics.mixed_derivative"),
    "hypersurfaces.chart_eval": ("hypersurfaces.chart_eval",),
    "hypersurfaces.tangent_data": ("hypersurfaces.tangent_data",),
    "quadric.stiefel": ("quadric.StiefelPoint.from_complex", "quadric.StiefelPoint.validate"),
    "gaussmap.gauss_map": ("gaussmap.gauss_map",),
    "gaussmap.angle_spectrum": ("gaussmap.angle_spectrum",),
    "gaussmap.second_fundamental_form": ("gaussmap.second_fundamental_form",),
    "gaussmap.palmer_residual": ("gaussmap.palmer_residual",),
    "verify.field_derivatives": ("verify.field_derivatives",),
    "verify.curvature_from_metric": ("verify.curvature_from_metric",),
    "verify.metric_eval": ("verify.metric_eval",),
    "verify.identities": ("verify.check_prop1", "verify.gauss_equation_residual",
                          "verify.codazzi_residual", "verify.connection_and_s",
                          "verify.check_csc_identities", "verify.classify_by_angles"),
    "rotational.integrate_alpha": ("rotational.integrate_alpha",),
    "rotational.interp_eval": ("rotational.QuinticHermite.value", "rotational.QuinticHermite.derivative"),
    "rotational.profile_curve": ("rotational.profile_curve",),
    "rotational.warped_curvature_check": ("rotational.warped_curvature_check",),
    "cli": ("cli.main", "cli.cmd_verify", "cli.cmd_angles", "cli.cmd_ode"),
    "cli.write": WRITERS,
}

# layers whose inclusive time is reported as '<layer>.s'; none of them nests in itself
INCLUSIVE = ("rotational.integrate_alpha", "rotational.profile_curve")


def _on_return(fn, hook):
    return functools.wraps(fn)(lambda *args, **kwargs: hook(fn(*args, **kwargs)))


class Instrument:
    """Hooks for one worker process; ``trace`` selects spans on top of counting."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.stats: dict[str, list] = {}  # span -> [calls, inclusive_s, self_s]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn, on_return=None):
        stats, stack, depth, clock = self.stats, self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                depth[name] -= 1
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[2] += dur - frame[1]
                if not depth[name]:
                    rec[1] += dur
                if stack:
                    stack[-1][1] += dur
            return on_return(result) if on_return else result

        return functools.wraps(fn)(traced)

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- result hooks ----------------------------------------------------------

    def _chart(self, chart):
        if self.trace:
            wrap = functools.partial(self._span, "hypersurfaces.chart_eval")
        else:
            wrap = functools.partial(self._count, "chart_evals")
        return dataclasses.replace(chart, embed=wrap(chart.embed), normal=wrap(chart.normal))

    def _metric_fn(self, metric):
        return self._span("verify.metric_eval", metric)

    def _trajectory(self, traj):
        self.counts["rk4_steps"] += len(traj.states) - 1
        return traj

    def _written(self, path):
        self.counts["write_bytes"] += os.path.getsize(path)
        return path

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("quadriclab")
        mods = {m: importlib.import_module(f"quadriclab.{m}") for m in MODULES}
        namespaces = [pkg, *mods.values()]
        hooks = {name: self._chart for name in CHART_FACTORIES}
        spans = list(CHART_FACTORIES)
        if self.trace:
            hooks["verify.gauss_metric_fn"] = self._metric_fn
            hooks["rotational.integrate_alpha"] = self._trajectory
            hooks.update({w: self._written for w in WRITERS})
            spans += [f"{m}.{name}" for m, mod in mods.items() for name in getattr(mod, "__all__", ())]
            spans += WRITERS
        for span in dict.fromkeys(spans):
            short, name = span.split(".", 1)
            fn = getattr(mods[short], name, None)
            if not inspect.isfunction(fn) or fn.__module__ != mods[short].__name__:
                continue
            hook = hooks.get(span)
            wrapper = self._span(span, fn, hook) if self.trace else _on_return(fn, hook)
            self._rebind(namespaces, fn, wrapper)
        if not self.trace:
            return
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                continue
            static = isinstance(raw, staticmethod)
            wrapped = self._span(f"{short}.{cls_name}.{meth}", raw.__func__ if static else raw)
            self._set(cls, meth, staticmethod(wrapped) if static else wrapped, raw)

    def _rebind(self, namespaces, original, wrapper) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._set(ns, attr, wrapper, original)

    def _set(self, owner, attr, value, original) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- per-pass readout --------------------------------------------------------

    def take(self) -> tuple[dict, dict]:
        """Span totals and counts since the last call; both start again from zero."""
        stats = {k: list(v) for k, v in self.stats.items()}
        counts = dict(self.counts)
        self.stats.clear()
        self.counts.clear()
        return stats, counts

    @property
    def chart_evals(self) -> int:
        if self.trace:
            rec = self.stats.get("hypersurfaces.chart_eval")
            return rec[0] if rec else 0
        return self.counts.get("chart_evals", 0)


def repeats(metric: str) -> bool:
    """Counts that must repeat exactly from pass to pass, whatever the sample points.

    cli.write_bytes is left out: the length of the numbers written varies.
    """
    return metric.endswith((".calls", ".calls_per_point")) or metric == "rotational.rk4_steps"


def layer_metrics(stats: dict, counts: dict, points: int, config_s: dict) -> dict:
    """Per-layer metrics of one pass from its span totals."""

    def total(layer, idx):
        return sum(stats[s][idx] for s in LAYERS[layer] if s in stats)

    out = {}
    for layer in LAYERS:
        if layer not in ("cli", "cli.write"):
            out[f"{layer}.calls"] = total(layer, 0)
            out[f"{layer}.self_s"] = total(layer, 2)
    for layer in INCLUSIVE:
        out[f"{layer}.s"] = total(layer, 1)
    out["gaussmap.gauss_map.calls_per_point"] = out["gaussmap.gauss_map.calls"] / points
    out["verify.curvature_from_metric.calls_per_point"] = out["verify.curvature_from_metric.calls"] / points
    out["rotational.rk4_steps"] = counts.get("rk4_steps", 0)
    out["cli.self_s"] = total("cli", 2)
    out["cli.write_s"] = total("cli.write", 2)
    out["cli.write_bytes"] = counts.get("write_bytes", 0)
    for config, seconds in config_s.items():
        out[f"cli.{config}.s"] = seconds
    return out
