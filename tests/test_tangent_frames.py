"""The tangent frame from the Gram eigenpairs against the Gram-Schmidt route it replaced.

hypersurfaces.tangent_data builds its orthonormal frame from the eigenpairs
of the Gram matrix that each ChartStencil already holds, with one
Newton-Schulz step; tests/references.py keeps the construction it replaced
(two-pass Gram-Schmidt, then the velocities from an eigen solve) and a
long-double value of the principal curvatures. On every catalog example over
its documented parameter range, and on sphere n = 12 and product n = 8,
k = 3, with Hypothesis-drawn points: the frame is orthonormal, its velocities
carry the tangents onto it bitwise, and the principal curvatures and the
spans of the principal directions agree with the reference.

The Gram-Schmidt route's velocities solve G m^T = e t^T from the Gram
eigenpairs, which holds only to about eps * cond(G), and its curvatures carry
that error: 2.8e-13 (1 + |lambda|) on the cartan tube at t = 0.05, where
cond(G) reaches 1.3e3. The comparison with it allows that term; the
long-double comparison does not.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from quadriclab import cli
from quadriclab.hypersurfaces import ChartStencil, tangent_data
from references import ref_exact_principal_curvatures, ref_frame_principal_curvatures

EPS = np.finfo(float).eps
POINTS = 4
MARGIN = 0.02
# eigenvalues closer than this, relative to 1 + |lambda|, share one eigenspace
CLUSTER_GAP = 1e-6

# (n, catalog parameters) over each example's documented range
RANGES = {
    "sphere": st.tuples(st.integers(1, 6), st.fixed_dictionaries({"r": st.floats(0.1, 1.0)})),
    "product": st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.fixed_dictionaries({"k": st.integers(1, n - 1), "r1": st.floats(0.1, 0.9)})
        )
    ),
    "cartan": st.tuples(st.just(3), st.fixed_dictionaries({"t": st.floats(0.05, 1.0)})),
    "rotational": st.integers(3, 6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.fixed_dictionaries({"alpha0": st.floats(0.02, 0.98).map(lambda f: f * np.pi / n)})
        )
    ),
}
HIGH_N = [("sphere", 12, {}), ("product", 8, {"k": 3})]


def build(example, n, params):
    entry = cli.EXAMPLES[example]
    return entry.build(n, {**entry.params, **params})


def fractions(n):
    return arrays(float, (POINTS, n), elements=st.floats(0.0, 1.0))


def clusters(lam):
    """Index groups of the descending curvatures lam whose neighbours lie within CLUSTER_GAP."""
    cuts = np.flatnonzero(lam[:-1] - lam[1:] > CLUSTER_GAP * (1.0 + np.abs(lam[1:]))) + 1
    return np.split(np.arange(len(lam)), cuts)


def check_frame(chart, frac):
    box = chart.box
    q = box.lows + MARGIN + frac * (box.highs - box.lows - 2.0 * MARGIN)
    stencil = ChartStencil(chart, q, 1e-4)
    e, t, m = tangent_data(stencil)
    n = chart.dim
    assert np.abs(t @ t.swapaxes(-1, -2) - np.eye(n)).max() <= 1e-13
    assert np.array_equal(m @ e, t)

    # (curvatures, chart directions, ambient directions)
    got, ref = stencil.shape_eigen, ref_frame_principal_curvatures(stencil)
    exact = ref_exact_principal_curvatures(stencil)
    w = stencil.gram_eigen[0]
    # the reference's own error, eps * cond(G), per point
    allowance = 1e-13 + 4.0 * EPS * (w[:, -1] / w[:, 0])
    scale = 1.0 + np.abs(ref[0])
    assert np.all(np.abs(got[0] - exact) <= 1e-13 * scale)
    assert np.all(np.abs(got[0] - ref[0]) <= allowance[:, None] * scale)

    for k in range(len(q)):
        lam = ref[0][k]
        for group in clusters(lam):
            rest = np.delete(lam, group)
            gap = min(np.abs(lam[group][:, None] - rest).min(initial=np.inf), 1.0)
            tol = allowance[k] * scale[k].max() / gap
            for field, index in (("directions_ambient", 2), ("directions_chart", 1)):
                a, b = got[index][k][group], ref[index][k][group]
                # the span's Gram form, the same for any orthonormal basis of a cluster
                assert np.abs(a.T @ a - b.T @ b).max() <= tol * np.abs(b.T @ b).max(), (field, group)


def test_every_example_has_a_range():
    assert sorted(RANGES) == sorted(cli.EXAMPLES)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_catalog_frames_match_the_gram_schmidt_route(data):
    example = data.draw(st.sampled_from(sorted(RANGES)))
    n, params = data.draw(RANGES[example])
    check_frame(build(example, n, params), data.draw(fractions(n)))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(range(len(HIGH_N))), st.data())
def test_high_n_frames_match_the_gram_schmidt_route(case, data):
    example, n, params = HIGH_N[case]
    check_frame(build(example, n, params), data.draw(fractions(n)))


@pytest.mark.parametrize(
    "example, n, params", [("cartan", 3, {"t": 0.05}), ("cartan", 3, {"t": 1.0}), ("product", 3, {"k": 2, "r1": 0.1})]
)
def test_frames_where_the_gram_matrix_is_worst_conditioned(example, n, params):
    # cond(G) reaches 1.3e3, 5.6e2 and 1.2e2 at these ends of the ranges;
    # over 4,000 random points the frame m = (v / sqrt(w))^T without its
    # Newton-Schulz step was orthonormal there only to 3.0e-13, 1.1e-13 and
    # 6.3e-14, and its curvatures were 1.4e-13 (1 + |lambda|) off at t = 0.05
    check_frame(build(example, n, params), np.random.default_rng(0).random((256, n)))
