"""Twins of the Gauss-map path's index gathers and one-call stencils, bitwise.

numerics.gather replaced np.take_along_axis in the sorts of angle_spectrum
and ChartStencil.shape_eigen and in the gathers of
_align_to_reference; angle_spectrum finds its run boundaries by a slice
difference and searches for degenerate runs only in a batch that has one;
ChartStencil evaluates p in its stencil's chart call; gauss_metric_fn
differences chart.lift alone. Each is compared with the form it replaced,
kept in tests/references.py or built here from ChartStencil: the values
bitwise and, for the gathers, the memory layout, since the small matrix
products downstream round differently on other layouts.
"""

import dataclasses
import types

import numpy as np
import pytest

from quadriclab import gaussmap
from quadriclab.gaussmap import FdSteps, angle_spectrum, gauss_map
from quadriclab.hypersurfaces import (
    ChartStencil,
    cartan_tube,
    product_spheres,
    round_sphere,
)
from quadriclab.numerics import gather
from quadriclab.rotational import build_rotational_chart, integrate_alpha
from quadriclab.verify import gauss_metric_fn
from references import (
    box_sample,
    parallel_hypersurface,
    perturbed_sphere,
    ref_angle_spectrum,
    ref_principal_curvatures,
    ref_sort_angles,
    ref_sort_curvatures,
    ref_take_along,
)

STEPS = FdSteps()
BATCHES = [(), (12,), (3, 4)]
DIMS = range(1, 7)


def assert_same(got, want):
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (want.flags.c_contiguous, want.flags.f_contiguous)


def tied_values(rng, batch, n):
    """Values (batch + (n,)) with ties in most rows, for the stable order, and none in the first row."""
    values = rng.integers(0, max(1, n // 2), batch + (n,)).astype(float) * 0.25
    values.reshape(-1, n)[0] = rng.permutation(n) * 0.25
    return values


# ---------------------------------------------------------------------------
# the gathers against their take_along_axis forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("n", DIMS)
def test_sorts_match_take_along_axis(n, batch):
    rng = np.random.default_rng(n)
    w, v = tied_values(rng, batch, n), rng.standard_normal(batch + (n, n))
    # angle_spectrum: ascending angles and the frame columns
    order = np.argsort(w, axis=-1, kind="stable")
    for got, want in zip((gather(w, order), gather(v, order)), ref_sort_angles(w, v)):
        assert_same(got, want)
    # shape_eigen: descending curvatures and the direction rows
    order = np.argsort(-w, axis=-1, kind="stable")
    for got, want in zip((gather(w, order), gather(v, order).swapaxes(-1, -2)), ref_sort_curvatures(w, v)):
        assert_same(got, want)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("n", DIMS)
def test_alignment_gathers_match_take_along_axis(n, batch):
    # _align_to_reference: cluster owners by the stable order, and a cluster's
    # members' frame rows (complex ambient, real velocities) and angles
    rng = np.random.default_rng(10 + n)
    owner = rng.integers(0, n, batch + (n,))
    order = np.argsort(owner, axis=-1, kind="stable")
    assert_same(gather(owner, order), ref_take_along(owner, order))
    ambient = rng.standard_normal(batch + (n, n + 2)) + 1j * rng.standard_normal(batch + (n, n + 2))
    velocities, thetas = rng.standard_normal(batch + (n, n)), tied_values(rng, batch, n)
    for k in range(1, n + 1):
        members = order[..., :k]
        assert_same(gather(ambient, members, axis=-2), ref_take_along(ambient, members, axis=-2))
        assert_same(gather(velocities, members, axis=-2), ref_take_along(velocities, members, axis=-2))
        assert_same(gather(thetas, members), ref_take_along(thetas, members))


def test_gather_reads_strided_input():
    # a transposed or sliced input gives the values take_along_axis gives
    rng = np.random.default_rng(3)
    v = rng.standard_normal((5, 4, 4)).swapaxes(-1, -2)
    order = np.argsort(rng.standard_normal((5, 4)), axis=-1, kind="stable")
    assert_same(gather(v, order), ref_take_along(v, order))
    assert_same(gather(v[..., 1:], order[..., :2], axis=-2), ref_take_along(v[..., 1:], order[..., :2], axis=-2))


# ---------------------------------------------------------------------------
# angle_spectrum on batches with and without degenerate runs
# ---------------------------------------------------------------------------

def structure_jet(thetas, rng):
    """A stand-in jet whose tangential structure operator has the eigenvalues cos 2 theta, row by row.

    Lift derivatives R diag(i exp(i theta)) Q with R orthogonal and Q
    orthonormal rows, seen from the identity frame: the angle functions
    are thetas.
    """
    batch, n = thetas.shape[:-1], thetas.shape[-1]
    r, _ = np.linalg.qr(rng.standard_normal(batch + (n, n)))
    q, _ = np.linalg.qr(rng.standard_normal(batch + (n + 2, n + 2)))
    lift_d = r @ (1j * np.exp(1j * thetas)[..., :, None] * q[..., :n, :])
    return types.SimpleNamespace(
        dim=n,
        point=np.zeros(batch + (n,)),
        on_frame_vel=np.ascontiguousarray(np.broadcast_to(np.eye(n), batch + (n, n))),
        d_lift=lift_d,
    )


def angle_rows(rng, batch, n, degenerate):
    """Distinct angles per row; the rows set in degenerate repeat one angle and, from n = 4, mirror one mod pi.

    The distinct angles are spaced off the mirror pairs theta, pi - theta,
    which share cos 2 theta.
    """
    thetas = (np.arange(n) + 0.3) * np.pi / (n + 1) + rng.uniform(-0.05, 0.05, batch + (n,)) / (n + 1)
    tied = thetas[degenerate]
    if n >= 2:
        tied[..., 1] = tied[..., 0]
    if n >= 4:
        tied[..., 3] = np.pi - tied[..., 2]  # equal cos 2 theta, told apart by sin 2 theta
    thetas[degenerate] = tied
    return thetas


@pytest.mark.parametrize("rows", ["none", "mixed", "all"])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("n", DIMS)
def test_angle_spectrum_matches_scan_form(n, batch, rows, monkeypatch):
    rng = np.random.default_rng(100 * n + len(batch))
    degenerate = np.zeros(batch, dtype=bool)
    if rows == "all":
        degenerate[...] = True
    elif rows == "mixed":
        degenerate.reshape(-1)[::2] = True
    jet = structure_jet(angle_rows(rng, batch, n, degenerate), rng)
    solves = []
    eigen = gaussmap.symmetric_eigen
    monkeypatch.setattr(gaussmap, "symmetric_eigen", lambda m: solves.append(m.shape) or eigen(m))
    for phi in (0.0, 0.3):
        solves.clear()
        got, want = angle_spectrum(jet, phi), ref_angle_spectrum(jet, phi)
        for field in ("thetas", "frame_vel", "frame_ambient", "diag_residual"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        # a batch without a degenerate run solves the tangential operator only
        assert (len(solves) == 1) == (n == 1 or not degenerate.any())


# ---------------------------------------------------------------------------
# chart-level twins
# ---------------------------------------------------------------------------

def rotational(n):
    return build_rotational_chart(integrate_alpha(n, np.pi / 12.0, 0.0, 0.8, 4000))


CHARTS = {
    "sphere-2": lambda: round_sphere(2, 0.6),
    "sphere-3": lambda: round_sphere(3, 1.0 / np.sqrt(2.0)),
    "sphere-5": lambda: round_sphere(5, 0.8),
    "product-2": lambda: product_spheres(1, 2, 1.0 / np.sqrt(2.0)),
    "product-3": lambda: product_spheres(1, 3, 0.55),
    "product-4": lambda: product_spheres(2, 4, 0.6),
    "cartan": lambda: cartan_tube(0.35),
    "rotational-3": lambda: rotational(3),
    "rotational-4": lambda: rotational(4),
    "parallel": lambda: parallel_hypersurface(product_spheres(1, 3, 0.55), 0.2),
    "perturbed": perturbed_sphere,
}


def batch_points(chart, batch, seed):
    rng = np.random.default_rng(seed)
    margin = 1.5 * STEPS.stencil_margin
    return np.array([box_sample(chart.box, rng, margin) for _ in range(int(np.prod(batch)))]).reshape(
        batch + (chart.dim,)
    )


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_metric_route_is_the_stencil_lift_metric(name, batch):
    chart = CHARTS[name]()
    q = batch_points(chart, batch, 7)
    assert np.array_equal(gauss_metric_fn(chart, STEPS)(q), ChartStencil(chart, q, STEPS.first).lift_metric)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_principal_curvatures_match_take_along_axis_sort(name, batch):
    chart = CHARTS[name]()
    st = ChartStencil(chart, batch_points(chart, batch, 8), STEPS.first)
    got, want = st.shape_eigen, ref_principal_curvatures(st)
    for field, a, b in zip(("lambdas", "directions_chart", "directions_ambient"), got, want, strict=True):
        assert np.array_equal(a, b), field


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_one_chart_call_per_gauss_map_batch(name):
    # the stencils of the batch and its points reach embed and normal in one
    # call each, p's rows after the stencil's; the center equals a separate
    # evaluation at p
    chart = CHARTS[name]()
    p = batch_points(chart, (5,), 9)
    calls = []

    def counted(kind, fn):
        return lambda q: calls.append((kind, np.shape(q))) or fn(q)

    counted_chart = dataclasses.replace(chart, embed=counted("embed", chart.embed), normal=counted("normal", chart.normal))
    jet = gauss_map(counted_chart, p, STEPS)
    rows = 4 * chart.dim * len(p) + len(p)
    assert calls == [("embed", (rows, chart.dim)), ("normal", (rows, chart.dim))]
    want = np.stack([CHARTS[name]().embed(p), CHARTS[name]().normal(p)], axis=-2)
    assert np.array_equal(jet.center, want)
