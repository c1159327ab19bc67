"""The stencil layer against the per-point loops it replaced.

GaussJet.coord_second and the metric derivatives of curvature_from_metric
used to evaluate point by point: the axis samples through a one-point
finiteness check, each mixed entry through a four-point corner rule called
twice per coordinate pair. Those loops are kept below as references; the
layer evaluates the same points with the same arithmetic, so every value
must match them bitwise.
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from quadriclab.gaussmap import FdSteps, gauss_map
from quadriclab.hypersurfaces import cartan_tube, product_spheres, round_sphere
from quadriclab.numerics import StencilError, axis, central_first, central_second
from quadriclab.rotational import build_rotational_chart, integrate_alpha
from quadriclab.verify import _metric_derivatives, gauss_metric_fn
from references import perturbed_sphere

STEPS = FdSteps()


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def ref_stencil_value(f, x):
    y = np.asarray(f(np.asarray(x, dtype=float)))
    if not np.all(np.isfinite(y)):
        raise StencilError(f"non-finite value on stencil point {np.asarray(x)}")
    return y


def ref_corner(f, p, u, v, h):
    return (
        ref_stencil_value(f, p + h * (u + v))
        - ref_stencil_value(f, p + h * (u - v))
        - ref_stencil_value(f, p - h * (u - v))
        + ref_stencil_value(f, p - h * (u + v))
    ) / (4.0 * h**2)


def ref_mixed_derivative(f, p, u, v, h):
    return (4.0 * ref_corner(f, p, u, v, 0.5 * h) - ref_corner(f, p, u, v, h)) / 3.0


def ref_coord_second(jet):
    n, p, h2 = jet.dim, jet.point, jet.steps.second
    lift = jet.chart.lift
    second = np.empty((n, n, n + 2), dtype=complex)
    for a in range(n):
        e = axis(n, a)
        at = {c: ref_stencil_value(lift, p + c * h2 * e) for c in (2, 1, -1, -2)}
        second[a, a] = central_second(at[2], at[1], jet.lift, at[-1], at[-2], h2)
        for b in range(a + 1, n):
            m = ref_mixed_derivative(lift, p, e, axis(n, b), h2)
            second[a, b] = m
            second[b, a] = m
    return second


def ref_metric_derivatives(metric_fn, p, h, g0):
    n = p.size
    dg = np.empty((n, n, n))
    ddg = np.empty((n, n, n, n))
    for c in range(n):
        e = axis(n, c)
        g_at = {k: ref_stencil_value(metric_fn, p + k * h * e) for k in (2, 1, 0.5, -0.5, -1, -2)}
        dg[c] = central_first(g_at[1], g_at[0.5], g_at[-0.5], g_at[-1], 0.5 * h)
        ddg[c, c] = central_second(g_at[2], g_at[1], g0, g_at[-1], g_at[-2], h)
        for d in range(c + 1, n):
            ddg[c, d] = ddg[d, c] = ref_mixed_derivative(metric_fn, p, e, axis(n, d), h)
    return dg, ddg


# ---------------------------------------------------------------------------
# charts and points
# ---------------------------------------------------------------------------

def rotational(n):
    traj = integrate_alpha(n, np.pi / 12.0, 0.0, 0.8, 4000)
    return build_rotational_chart(traj)


CHARTS = {
    "sphere": lambda: round_sphere(3, 1.0 / np.sqrt(2.0)),
    "product-2": lambda: product_spheres(1, 2, 1.0 / np.sqrt(2.0)),
    "product-3": lambda: product_spheres(1, 3, 0.55),
    "cartan": lambda: cartan_tube(0.35),
    "rotational-3": lambda: rotational(3),
    "rotational-4": lambda: rotational(4),
    "perturbed": perturbed_sphere,
}


@functools.cache
def chart(name):
    return CHARTS[name]()


def chart_points(name):
    box, margin = chart(name).box, 1.5 * STEPS.stencil_margin
    coords = [st.floats(min_value=lo + margin, max_value=hi - margin) for lo, hi in zip(box.lows, box.highs)]
    return st.tuples(st.just(name), st.tuples(*coords).map(np.array))


cases = st.sampled_from(sorted(CHARTS)).flatmap(chart_points)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(cases)
def test_coord_second_matches_point_loop(case):
    name, p = case
    jet = gauss_map(chart(name), p, STEPS)
    assert np.array_equal(jet.coord_second, ref_coord_second(jet))


@settings(max_examples=25, deadline=None)
@given(cases)
def test_metric_derivatives_match_point_loops(case):
    name, p = case
    metric_fn = gauss_metric_fn(chart(name), STEPS)
    g0 = metric_fn(p)
    for got, want in zip(
        _metric_derivatives(metric_fn, p, STEPS.metric, g0),
        ref_metric_derivatives(metric_fn, p, STEPS.metric, g0),
    ):
        assert np.array_equal(got, want)
