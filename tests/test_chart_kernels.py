"""The batched chart kernels against single-point numpy reference formulations.

The references below evaluate one point at a time: the numpy sphere chart,
the round-sphere, product and rotational chart bodies, the Chebyshev profile
series by a scalar Clenshaw recurrence (references.ref_profile), Python's
float power as an object ufunc, the Veronese normal frame by projected
Gram-Schmidt, and the point-by-point stencil build with its own finiteness
check. Values and stencil derivatives must match them bitwise; the
closed-form Veronese frame, which rounds differently, to 1e-14. Every row of
a batch must equal the same chart called at that row alone.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from quadriclab import hypersurfaces
from quadriclab.gaussmap import angle_spectrum, gauss_map
from quadriclab.hypersurfaces import (
    ChartError,
    ChartStencil,
    _lift,
    cartan_tube,
    product_spheres,
    round_sphere,
    sphere_chart,
)
from quadriclab.numerics import StencilError, axis, central_first
from quadriclab.rotational import _pow, build_rotational_chart, integrate_alpha
from references import parallel_hypersurface, perturbed_sphere, reconstruct_hypersurface, ref_gram_schmidt, ref_profile

H = 1e-4


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def ref_sphere_chart(m, q):
    q = np.atleast_1d(np.asarray(q, dtype=float))
    out = np.array([np.cos(q[0]), np.sin(q[0])])
    for j in range(1, m):
        out = np.concatenate([np.cos(q[j]) * out, [np.sin(q[j])]])
    return out


def ref_round_sphere(n, r):
    c = np.sqrt(max(0.0, 1.0 - r * r))

    def embed(q):
        return np.concatenate([r * ref_sphere_chart(n, q), [c]])

    def normal(q):
        return np.concatenate([-c * ref_sphere_chart(n, q), [r]])

    return embed, normal


def ref_product(k, n, r1):
    r2 = float(np.sqrt(1.0 - r1 * r1))

    def embed(q):
        return np.concatenate([r1 * ref_sphere_chart(k, q[:k]), r2 * ref_sphere_chart(n - k, q[k:])])

    def normal(q):
        return np.concatenate([-r2 * ref_sphere_chart(k, q[:k]), r1 * ref_sphere_chart(n - k, q[k:])])

    return embed, normal


def ref_pow(x, y):
    """Python's float power on each element through np.frompyfunc, as an array of x's shape."""
    return np.asarray(np.frompyfunc(pow, 2, 1)(x, y), dtype=object).astype(float)


def ref_gamma_point(theta, alpha, dalpha):
    c, s = np.cos(alpha), np.sin(alpha)
    w = np.sqrt(max(0.0, 1.0 - dalpha * dalpha))
    return np.array(
        [
            -s * w,
            c * np.sin(theta) - s * np.cos(theta) * dalpha,
            -c * np.cos(theta) - s * np.sin(theta) * dalpha,
        ]
    )


def ref_rotational(series, n):
    def profile(x):
        theta = float(x[0])
        return (theta, *ref_profile(series, theta))

    def embed(x):
        theta, a, p = profile(x)
        g = ref_gamma_point(theta, a, p)
        return np.concatenate([g[0] * ref_sphere_chart(n - 1, x[1:]), g[1:]])

    def normal(x):
        theta, a, p = profile(x)
        c, s = np.cos(a), np.sin(a)
        w = np.sqrt(max(0.0, 1.0 - p * p))
        beta = -np.array(
            [
                w * c,
                c * p * np.cos(theta) + s * np.sin(theta),
                c * p * np.sin(theta) - s * np.cos(theta),
            ]
        )
        return np.concatenate([beta[0] * ref_sphere_chart(n - 1, x[1:]), beta[1:]])

    return embed, normal


_FORMS = np.concatenate(
    [
        np.sqrt(3.0) * np.array(
            [
                [[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]],
                [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]],
                [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.0]],
                [[0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 0.0]],
            ]
        ),
        [np.diag([0.5, 0.5, -1.0])],
    ]
)


def ref_veronese_frame(q):
    """Second derivatives of the Veronese map projected off its tangent plane, by MGS."""
    c1, s1, c2, s2 = np.cos(q[0]), np.sin(q[0]), np.cos(q[1]), np.sin(q[1])
    sigma = np.array([c1 * c2, s1 * c2, s2])
    d = np.array([[-s1 * c2, c1 * c2, 0.0], [-c1 * s2, -s1 * s2, c2]])
    dd = np.empty((2, 2, 3))
    dd[0, 0] = [-c1 * c2, -s1 * c2, 0.0]
    dd[0, 1] = dd[1, 0] = [s1 * s2, -c1 * s2, 0.0]
    dd[1, 1] = [-c1 * c2, -s1 * c2, -s2]
    v = np.einsum("i,aij,j->a", sigma, _FORMS, sigma)
    dv = 2.0 * np.einsum("i,aij,bj->ba", sigma, _FORMS, d)
    ddv = 2.0 * np.einsum("bi,aij,cj->bca", d, _FORMS, d) + 2.0 * np.einsum(
        "i,aij,bcj->bca", sigma, _FORMS, dd
    )
    basis = np.vstack([v, ref_gram_schmidt([dv[0], dv[1]])])

    def project(w):
        return w - basis.T @ (basis @ w)

    w1 = project(ddv[0, 0])
    xi1 = w1 / np.linalg.norm(w1)
    w2 = project(ddv[0, 1])
    w2 = w2 - (w2 @ xi1) * xi1
    return v, xi1, w2 / np.linalg.norm(w2)


def ref_stencil_value(f, x):
    y = np.asarray(f(np.asarray(x, dtype=float)))
    if not np.all(np.isfinite(y)):
        raise StencilError(f"non-finite value on stencil point {np.asarray(x)}")
    return y


def ref_stencil(embed, normal, p, h):
    """(d_embed, d_normal, d_lift) from a point-by-point ref_stencil_value build."""
    n = len(p)
    values = np.array(
        [
            [ref_stencil_value(lambda x: (embed(x), normal(x)), p + c * h * axis(n, i)) for c in (2, 1, -1, -2)]
            for i in range(n)
        ]
    ).swapaxes(0, 1)
    a, b = values[:, :, 0], values[:, :, 1]
    return central_first(*a, h), central_first(*b, h), central_first(*_lift(a, b), h)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@functools.cache
def rotational(n):
    traj = integrate_alpha(n, np.pi / 12.0, 0.0, 0.8, 4000)
    return build_rotational_chart(traj)


def box_points(box, margin=0.0):
    return st.tuples(
        *[st.floats(min_value=lo + margin, max_value=hi - margin) for lo, hi in zip(box.lows, box.highs)]
    ).map(np.array)


radii = st.floats(min_value=0.1, max_value=1.0)
sphere_cases = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), radii, box_points(round_sphere(n, 0.5).box, 2 * H))
)
product_cases = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=1, max_value=n - 1),
        st.floats(min_value=0.1, max_value=0.9),
        box_points(product_spheres(1, n, 0.5).box, 2 * H),
    )
)
rotational_cases = st.sampled_from([3, 4]).flatmap(
    lambda n: st.tuples(st.just(n), box_points(rotational(n).box, 2 * H))
)


def assert_stencil_equal(chart, embed, normal, p):
    st_ = ChartStencil(chart, p, H)
    for got, want in zip((st_.d_embed, st_.d_normal, st_.d_lift), ref_stencil(embed, normal, p, H)):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestAgainstReferences:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=m, max_size=m).map(
            lambda q: (m, np.array(q))
        )
    ))
    def test_sphere_chart(self, case):
        m, q = case
        assert np.array_equal(sphere_chart(m, q), ref_sphere_chart(m, q))

    def test_sphere_chart_scalar_argument(self):
        assert np.array_equal(sphere_chart(1, 0.3), ref_sphere_chart(1, 0.3))

    @settings(max_examples=40, deadline=None)
    @given(sphere_cases)
    def test_round_sphere(self, case):
        n, r, p = case
        chart, (embed, normal) = round_sphere(n, r), ref_round_sphere(n, r)
        assert np.array_equal(chart.embed(p), embed(p))
        assert np.array_equal(chart.normal(p), normal(p))
        assert_stencil_equal(chart, embed, normal, p)

    @settings(max_examples=40, deadline=None)
    @given(product_cases)
    def test_product(self, case):
        n, k, r1, p = case
        chart, (embed, normal) = product_spheres(k, n, r1), ref_product(k, n, r1)
        assert np.array_equal(chart.embed(p), embed(p))
        assert np.array_equal(chart.normal(p), normal(p))
        assert_stencil_equal(chart, embed, normal, p)

    @settings(max_examples=40, deadline=None)
    @given(rotational_cases)
    def test_rotational(self, case):
        n, x = case
        chart = rotational(n)
        embed, normal = ref_rotational(chart.meta["alpha"], n)
        assert np.array_equal(chart.embed(x), embed(x))
        assert np.array_equal(chart.normal(x), normal(x))
        assert_stencil_equal(chart, embed, normal, x)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-0.5, max_value=1.5))
    def test_profile_series(self, t):
        # inside the span and extrapolated past both ends
        series = rotational(3).meta["alpha"]
        assert tuple(map(float, series(t))) == ref_profile(series, t)

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(float, st.sampled_from([(), (0,), (5,), (0, 3), (2, 3), (3, 4)]), elements=st.floats(width=64)),
        st.one_of(st.integers(-6, 6), st.floats(-6.0, 6.0)),
    )
    @example(np.array([1e200, 2.0]), 2)  # OverflowError
    @example(np.array([[3.0, 0.0]]), -1)  # ZeroDivisionError
    @example(np.array(-0.0), -1.0)  # ZeroDivisionError
    @example(np.array([-1.5, -2.0, -0.5]), 3)  # negative bases, integral power
    def test_float_power(self, x, y):
        # bitwise the object-ufunc form, with its error classes; negative
        # bases only to integral powers, where the float power stays real
        if float(y) != int(y):
            x = np.abs(x)

        def outcome(f):
            try:
                return f(x, y)
            except (OverflowError, ZeroDivisionError) as exc:
                return type(exc)

        got, want = outcome(_pow), outcome(ref_pow)
        if isinstance(want, type):
            assert got is want
        else:
            assert got.dtype == float and got.shape == want.shape == x.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(box_points(cartan_tube(0.35).box))
    def test_veronese_frame(self, x):
        got = hypersurfaces._veronese_frame(x[:2])
        for a, b in zip(got, ref_veronese_frame(x[:2])):
            assert np.abs(np.array(a) - b).max() <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(box_points(cartan_tube(0.35).box, 2 * H))
    def test_cartan_stencil(self, x):
        # the one-array stencil build against the per-point build on the same chart
        chart = cartan_tube(0.35)
        assert_stencil_equal(chart, chart.embed, chart.normal, x)


def _charts():
    sphere = round_sphere(3, 0.6)
    return {
        "sphere": sphere,
        "product": product_spheres(1, 3, 0.55),
        "cartan": cartan_tube(0.35),
        "rotational-3": rotational(3),
        "rotational-4": rotational(4),
        "perturbed": perturbed_sphere(),
        "parallel": parallel_hypersurface(sphere, 0.2),
    }


CHARTS = _charts()


@pytest.mark.parametrize("name", sorted(CHARTS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_end_in_stencil_error(name, bad):
    # the math kernels raise ValueError on an infinite angle and numpy warns:
    # every non-finite coordinate must end in the stencil's own error instead
    chart = CHARTS[name]
    for i in range(chart.dim):
        p = chart.box.center.copy()
        p[i] = bad
        with pytest.raises((ChartError, StencilError)):
            ChartStencil(chart, p, H)


@pytest.mark.parametrize("n", [3, 4])
def test_profile_overflow_ends_in_stencil_error(n):
    # far outside its span the profile series overflows in the Clenshaw
    # recurrence, which the stencil's numpy error state raises
    chart = rotational(n)
    p = chart.box.center.copy()
    p[0] = 1e80
    with pytest.raises(StencilError):
        ChartStencil(chart, p, H)


def _batch_cases():
    sphere = round_sphere(3, 0.6)
    spec = angle_spectrum(gauss_map(sphere, sphere.box.center))
    return {
        "sphere": (sphere, ref_round_sphere(3, 0.6)),
        "sphere-1": (round_sphere(1, 0.3), ref_round_sphere(1, 0.3)),
        "product": (product_spheres(1, 3, 0.55), ref_product(1, 3, 0.55)),
        "product-2-4": (product_spheres(2, 4, 0.4), ref_product(2, 4, 0.4)),
        "cartan": (CHARTS["cartan"], None),
        "rotational-3": (rotational(3), ref_rotational(rotational(3).meta["alpha"], 3)),
        "rotational-4": (rotational(4), ref_rotational(rotational(4).meta["alpha"], 4)),
        "perturbed": (CHARTS["perturbed"], None),
        "parallel": (CHARTS["parallel"], None),
        "reconstructed": (reconstruct_hypersurface(sphere.lift, sphere.box, spec, 0.2), None),
    }


BATCH_CASES = _batch_cases()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(BATCH_CASES)),
    st.sampled_from(["one", "stencil", "many", "grid"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_rows_equal_single_points(name, size, seed):
    # a batch of m = 1, 4n or 500 points, or a (2, 3) grid of them: every row
    # is bitwise the chart at that point alone, and the single-point
    # references where the chart has one (the Veronese frame to 1e-14)
    chart, refs = BATCH_CASES[name]
    shape = {"one": (1,), "stencil": (4 * chart.dim,), "many": (500,), "grid": (2, 3)}[size]
    q = np.random.default_rng(seed).uniform(chart.box.lows, chart.box.highs, shape + (chart.dim,))
    rows = list(np.ndindex(shape))
    for fn in (chart.embed, chart.normal, chart.lift):
        got = fn(q)
        assert got.shape == shape + (chart.dim + 2,)
        assert all(np.array_equal(got[i], fn(q[i])) for i in rows)
    if refs is not None:
        for got, ref in zip((chart.embed(q), chart.normal(q)), refs):
            assert all(np.array_equal(got[i], ref(q[i])) for i in rows)
    if name.startswith("rotational"):
        series = chart.meta["alpha"]
        batch = series(q[..., 0])
        for i in rows:
            lone = series(q[i][0])
            assert all(float(b[i]) == float(v) == r for b, v, r in zip(batch, lone, ref_profile(series, q[i][0])))
    if name == "cartan":
        frames = hypersurfaces._veronese_frame(q)
        for i in rows:
            for a, b in zip(frames, ref_veronese_frame(q[i])):
                assert np.abs(a[i] - b).max() <= 1e-14


ANGLES = st.one_of(st.floats(-4.0, 4.0), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(ANGLES, ANGLES)
@example(0.3, np.pi / 2.0)
@example(-1.2, -np.pi / 2.0)
@example(1e300, -1e300)
@example(-1.7976931348623157e308, 1e17)
def test_veronese_normal_pair_has_fixed_norms(q1, q2):
    # B(e1, e1) - B(e2, e2) and B(e1, e2) have norms sqrt(3) and sqrt(3)/2 at
    # every finite angle pair, the poles q2 = +-pi/2 included, so the normal
    # frame of _veronese_frame never degenerates; stencil_values stops
    # non-finite points before the chart sees them
    c1, s1, c2, s2 = np.cos(q1), np.sin(q1), np.cos(q2), np.sin(q2)
    e1, e2 = np.array([-s1, c1, 0.0]), np.array([-c1 * s2, -s1 * s2, c2])
    form = hypersurfaces._veronese
    assert abs(np.linalg.norm(form(e1, e1) - form(e2, e2)) - np.sqrt(3.0)) <= 1e-14
    assert abs(np.linalg.norm(form(e1, e2)) - 0.5 * np.sqrt(3.0)) <= 1e-14
