"""Array forms of the tensor identities in `verify` against index-loop references.

The references are the straightforward loops over tensor indices that the
array expressions replace, one point at a time; the array forms take a batch
of points and return one residual per point. Where the array form does the
same arithmetic in the same order (the first-order identities, the
constant-curvature balance and the cotangent check) every row must agree
bitwise; where einsum sums in another
order (the curvature tensor, the algebraic plane curvatures, the curvature
tensor in the frame of the Gauss equation) it must agree to 1e-12 relative to
the largest reference component.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from quadriclab.numerics import _joint_values
from quadriclab.verify import (
    ConnectionData,
    _curvature,
    _in_frame,
    _metric_derivatives,
    _metric_stencil,
    check_csc_identities,
    check_prop1,
    cotangent_residual,
    curvature_from_metric,
    sectional_curvature,
)
from references import sectional_from_metric

# ---------------------------------------------------------------------------
# index-loop references
# ---------------------------------------------------------------------------

def ref_curvature(dg, ddg, g0):
    n = len(g0)
    g_inv = np.linalg.inv(g0)
    gamma = np.empty((n, n, n))
    for e_idx in range(n):
        for a in range(n):
            for b in range(n):
                total = 0.0
                for d in range(n):
                    total += g_inv[e_idx, d] * (dg[a, d, b] + dg[b, d, a] - dg[d, a, b])
                gamma[e_idx, a, b] = 0.5 * total
    r = np.empty((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    term = 0.5 * (
                        ddg[a, c, b, d] + ddg[b, d, a, c] - ddg[a, d, b, c] - ddg[b, c, a, d]
                    )
                    quad = 0.0
                    for e_idx in range(n):
                        for f_idx in range(n):
                            quad += g0[e_idx, f_idx] * (
                                gamma[e_idx, a, c] * gamma[f_idx, b, d]
                                - gamma[e_idx, a, d] * gamma[f_idx, b, c]
                            )
                    r[a, b, c, d] = term + quad
    return r


def ref_in_frame(r, f):
    """R(f_i, f_j, f_k, f_l) as the one five-operand einsum, an O(n^8) loop."""
    return np.einsum("abcd,ia,jb,kc,ld->ijkl", r, f, f, f, f)


def ref_check_prop1(pt):
    conn = pt.connection
    n = pt.jet.dim
    d_theta = pt.fields.d_theta
    h = pt.ff.h
    res1 = 0.0
    for i in range(n):
        for j in range(n):
            res1 = max(res1, abs(d_theta[i, j] - h[j, j, i] + 0.5 * conn.s[i]))
    res2 = 0.0
    th = pt.spec.thetas
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if j == k:
                    continue
                lhs = np.sin(th[j] - th[k]) * conn.omega[i, j, k]
                rhs = np.cos(th[j] - th[k]) * h[i, j, k]
                res2 = max(res2, abs(lhs - rhs))
    return {"angle_gradient_identity": res1, "frame_rotation_identity": res2}


def ref_sectional_curvature(spec, ff):
    n = spec.dim
    th = spec.thetas
    h = ff.h
    k = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            k[i, j] = 2.0 * np.cos(th[i] - th[j]) ** 2 + float(
                h[i, i] @ h[j, j] - h[i, j] @ h[i, j]
            )
    return k


def ref_check_csc_identities(spec, ff):
    n = spec.dim
    if n < 3:
        return {}
    th = spec.thetas
    h = ff.h
    res1 = res2 = res3 = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                lhs = h[i, i, k] * np.sin(th[i] - th[k]) * np.sin(th[i] + th[k] - 2 * th[j])
                rhs = h[j, j, k] * np.sin(th[j] - th[k]) * np.sin(th[j] + th[k] - 2 * th[i])
                res1 = max(res1, abs(lhs - rhs))
                res2 = max(
                    res2,
                    abs(h[i, j, k] * np.sin(th[i] - th[j]) * np.sin(th[i] + th[j] - 2 * th[k])),
                )
                for l in range(n):
                    if len({i, j, k, l}) < 4:
                        continue
                    res3 = max(
                        res3,
                        abs(
                            h[i, j, k]
                            * np.sin(th[i] - th[j])
                            * np.sin(th[i] + th[j] - 2 * th[l])
                        ),
                    )
    residuals = {"csc_diagonal_balance": res1, "csc_triple_vanishing": res2}
    if n >= 4:
        residuals["csc_quadruple_vanishing"] = res3
    return residuals


def ref_cotangent_residual(pt):
    cot_res = 0.0
    lams = np.sort(pt.jet.lambdas)[::-1]
    ths = pt.spec0.thetas  # ascending pairs with descending curvatures
    for lam, th in zip(lams, ths):
        if abs(np.sin(th)) > 1e-3:
            cot_res = max(cot_res, abs(lam - np.cos(th) / np.sin(th)))
    return {"curvature_angle_cotangent": cot_res}


# ---------------------------------------------------------------------------
# random identity data
# ---------------------------------------------------------------------------

def polynomial_metric(rng, n, p):
    """A cubic polynomial metric q -> g(q) (batched), positive definite at p."""
    m = rng.normal(size=(n, n))
    coeffs = [m @ m.T + n * np.eye(n)]
    for degree in (1, 2, 3):
        c = rng.normal(size=(n,) * degree + (n, n))
        coeffs.append(0.5 * (c + np.swapaxes(c, -1, -2)))

    def metric(q):
        d = q - p
        return (
            coeffs[0]
            + np.einsum("...c,cab->...ab", d, coeffs[1])
            + np.einsum("...c,...e,ceab->...ab", d, d, coeffs[2])
            + np.einsum("...c,...e,...f,cefab->...ab", d, d, d, coeffs[3])
        )

    return metric


def batch_data(n, th, h, omega, s, lambdas, d_theta):
    """The fields the identities read, as a sample batch carries them; each array may carry batch axes in front."""
    spec = SimpleNamespace(dim=n, thetas=th)
    return SimpleNamespace(
        jets=SimpleNamespace(dim=n, lambdas=lambdas),
        spec=spec,
        spec0=spec,
        ff=SimpleNamespace(h=h),
        fields=SimpleNamespace(d_theta=d_theta),
        connection=ConnectionData(omega=omega, s=s, antisymmetry_defect=np.zeros(th.shape[:-1])),
    )


def row(pt, k):
    """Point k of a batch, in the one-point form the loop references read."""
    n = pt.spec.dim
    one = batch_data(
        n, pt.spec.thetas[k], pt.ff.h[k], pt.connection.omega[k], pt.connection.s[k],
        pt.jets.lambdas[k], pt.fields.d_theta[k],
    )
    one.jet = one.jets
    return one


@st.composite
def identity_data(draw):
    """Angles, cubic form and connection data at a batch of points, and a polynomial metric at one point.

    The angles of each point are ascending in [0, pi) as angle_spectrum
    returns them; some draws repeat an angle (a degenerate cluster) or put
    one at 0, the pole of cot that cotangent_residual leaves out.
    """
    n = draw(st.sampled_from((2, 3, 4, 5)))
    m = draw(st.sampled_from((1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    th = rng.uniform(0.0, np.pi, (m, n))
    if draw(st.booleans()):
        th[:, 1] = th[:, 0]
    if draw(st.booleans()):
        th[:, 0] = 0.0
    th = np.sort(th, axis=-1)
    pt = batch_data(
        n,
        th,
        rng.normal(size=(m, n, n, n)),
        rng.normal(size=(m, n, n, n)),
        rng.normal(size=(m, n)),
        np.sort(rng.normal(size=(m, n)), axis=-1)[:, ::-1],
        rng.normal(size=(m, n, n)),
    )
    p = rng.uniform(-0.5, 0.5, n)
    return pt, polynomial_metric(rng, n, p), p, rng


def assert_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(identity_data())
def test_pointwise_identities_bitwise(data):
    pt = data[0]
    got = (check_prop1(pt), check_csc_identities(pt.spec, pt.ff), cotangent_residual(pt))
    for k in range(len(pt.spec.thetas)):
        one = row(pt, k)
        want = (ref_check_prop1(one), ref_check_csc_identities(one.spec, one.ff), ref_cotangent_residual(one))
        for columns, values in zip(got, want):
            assert {name: v[k] for name, v in columns.items()} == values


@settings(max_examples=60, deadline=None)
@given(identity_data())
def test_curvature_tensors_match_loops(data):
    pt, metric, p, _ = data
    k_alg = sectional_curvature(pt.spec, pt.ff)
    for k in range(len(k_alg)):
        one = row(pt, k)
        assert_close(k_alg[k], ref_sectional_curvature(one.spec, one.ff))
    g0 = metric(p)
    dg, ddg = _metric_derivatives(1e-2, g0, *_joint_values(metric, *_metric_stencil(p, 1e-2)))
    assert_close(curvature_from_metric(metric, p, 1e-2, g0), ref_curvature(dg, ddg, g0))


@settings(max_examples=60, deadline=None)
@given(identity_data(), st.sampled_from(((), (3,))))
def test_curvature_over_two_axes_is_the_full_tensors_block(data, lead):
    # warped_curvature_check differences only its orbit plane's corners and
    # takes the Christoffel product over that plane's indices alone: each
    # entry must be the full tensor's, bitwise, at a point and at a batch
    _, metric, p, rng = data
    n = p.size
    axes = sorted(rng.choice(n, 2, replace=False).tolist())
    p = p + rng.uniform(-0.1, 0.1, lead + (n,))
    g0 = metric(p)
    at, corners = _joint_values(metric, *_metric_stencil(p, 1e-2, axes))
    block = _curvature(*_metric_derivatives(1e-2, g0, at, corners, axes), g0, axes)
    full = curvature_from_metric(metric, p, 1e-2, g0)
    assert np.array_equal(block, full[(Ellipsis, *np.ix_(axes, axes, axes, axes))])


@settings(max_examples=60, deadline=None)
@given(identity_data())
def test_sectional_batch_equals_single_planes(data):
    pt, metric, p, rng = data
    n = pt.spec.dim
    g = metric(p)
    r = curvature_from_metric(metric, p, 1e-2, g)
    frame = rng.normal(size=(n, n))
    i, j = np.triu_indices(n, 1)
    batches = [(frame[i], frame[j]), (rng.normal(size=(2, 3, n)), rng.normal(size=(2, 3, n)))]
    for x, y in batches:
        batch = sectional_from_metric(r, g, x, y)
        assert batch.shape == x.shape[:-1]
        for idx in np.ndindex(batch.shape):
            single = sectional_from_metric(r, g, x[idx], y[idx])
            assert isinstance(single, float)
            assert single == batch[idx]


@st.composite
def axis_plane_data(draw):
    """A curvature tensor and a metric, both with or without a batch axis, and two distinct coordinate axes."""
    n = draw(st.integers(2, 5))
    lead = draw(st.sampled_from(((), (3,))))
    values = st.floats(-1e3, 1e3)
    r = draw(arrays(np.float64, lead + (n,) * 4, elements=values))
    g = draw(arrays(np.float64, lead + (n, n), elements=values))
    a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return r, g, a, b


@settings(max_examples=100, deadline=None)
@given(axis_plane_data())
def test_sectional_on_axis_planes_reads_one_entry(data):
    # the warped-product check's orbit plane is two coordinate axes: there
    # the value is one tensor entry over the 2x2 Gram determinant, bitwise.
    # A zero determinant gives inf or nan either way, the sign of an inf
    # that of a signed zero, which the sums do not keep
    r, g, a, b = data
    eye = np.eye(r.shape[-1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        got = sectional_from_metric(r, g, eye[a], eye[b])
        want = r[..., a, b, b, a] / (g[..., a, a] * g[..., b, b] - g[..., a, b] * g[..., a, b])
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(np.where(finite, got, 0.0), np.where(finite, want, 0.0))


@pytest.mark.parametrize("n", [3, 4, 8, 12])
def test_frame_transform_matches_five_operand_einsum(n):
    rng = np.random.default_rng(n)
    r, f = rng.normal(size=(n,) * 4), rng.normal(size=(n, n))
    assert_close(_in_frame(r, f), ref_in_frame(r, f))
