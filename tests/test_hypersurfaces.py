import sys
import threading

import numpy as np
import pytest

from quadriclab import hypersurfaces, numerics
from quadriclab.hypersurfaces import (
    ChartError,
    ChartStencil,
    FocalRadiusError,
    HypersurfaceChart,
    Box,
    cartan_tube,
    product_spheres,
    round_sphere,
    sphere_chart,
    sphere_chart_with_derivatives,
    tangent_data,
)
from quadriclab.numerics import symmetric_eigen
from quadriclab.rotational import build_rotational_chart
import references
from references import box_sample, parallel_hypersurface, perturbed_sphere, ref_chart_invariants, ref_tangent_data

RNG = np.random.default_rng(42)


def sample_points(chart, count):
    rng = np.random.default_rng(7)
    return [box_sample(chart.box, rng, margin=0.02) for _ in range(count)]


def shape_operator(chart, p, h=1e-4):
    """Matrix of the shape operator in an orthonormal tangent frame at p, as ChartStencil.shape_eigen reads it."""
    return hypersurfaces._shape_data(ChartStencil(chart, p, h))[0]


@pytest.mark.parametrize("name", ["sphere", "product", "cartan", "rotational"])
def test_invariants_rows_equal_single_points(memo_charts, name):
    # invariants unpacked the batch axis as (embed, normal) and read one point
    chart = memo_charts[name]()
    rng = np.random.default_rng(3)
    q = np.array([box_sample(chart.box, rng, margin=0.02) for _ in range(5)])
    rows = ChartStencil(chart, q, 1e-4).invariants()
    for k, p in enumerate(q):
        alone = ChartStencil(chart, p, 1e-4)
        want = ref_chart_invariants(alone)
        assert list(rows) == list(want)
        for name, value in alone.invariants().items():
            assert rows[name].shape == (len(q),)
            assert rows[name][k] == value == want[name], name


class TestSphereChart:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_unit_norm(self, m):
        rng = np.random.default_rng(m)
        for _ in range(5):
            q = rng.uniform(-0.5, 0.5, m)
            assert abs(np.linalg.norm(sphere_chart(m, q)) - 1.0) < 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_analytic_derivatives(self, m):
        rng = np.random.default_rng(m + 10)
        q = rng.uniform(-0.5, 0.5, m)
        sigma, d = sphere_chart_with_derivatives(m, q)
        np.testing.assert_allclose(sigma, sphere_chart(m, q), atol=1e-15)
        h = 1e-6
        for i in range(m):
            e = np.zeros(m)
            e[i] = h
            fd = (sphere_chart(m, q + e) - sphere_chart(m, q - e)) / (2 * h)
            np.testing.assert_allclose(d[i], fd, atol=1e-9)


class TestRoundSphere:
    def test_invariants_at_random_points(self, sphere_half):
        for p in sample_points(sphere_half, 3):
            res = ChartStencil(sphere_half, p, 1e-4).invariants()
            assert res["embed_norm"] < 1e-10
            assert res["normal_norm"] < 1e-10
            assert res["orthogonality"] < 1e-10
            assert res["normal_tangency"] < 1e-10
            assert res["min_singular_value"] > 1e-6

    def test_shape_operator_is_identity_at_half_radius(self, sphere_half):
        p = np.array([0.1, -0.2, 0.15])
        s = shape_operator(sphere_half, p)
        assert np.abs(s - np.eye(3)).max() < 1e-8

    def test_geodesic_sphere_curvature_oracle(self):
        # lambda = cot(rho) with r = sin(rho), i.e. sqrt(1 - r^2) / r
        for r in (0.4, 0.6, 0.9):
            chart = round_sphere(3, r)
            lam = ChartStencil(chart, np.array([0.05, 0.1, -0.2]), 1e-4).shape_eigen[0]
            expected = np.sqrt(1 - r * r) / r
            np.testing.assert_allclose(lam, expected, atol=1e-8)

    def test_totally_geodesic_equator(self):
        chart = round_sphere(3, 1.0)
        s = shape_operator(chart, np.array([0.2, 0.1, -0.3]))
        assert np.abs(s).max() < 1e-10

    def test_isoparametric_constancy(self):
        chart = round_sphere(2, 0.7)
        lams = np.array([ChartStencil(chart, p, 1e-4).shape_eigen[0] for p in sample_points(chart, 10)])
        assert lams.var(axis=0).max() < 1e-8

    def test_invalid_radius(self):
        with pytest.raises(ChartError):
            round_sphere(3, 2.0)
        with pytest.raises(ChartError):
            round_sphere(3, 0.0)


class TestProductSpheres:
    def test_clifford_torus(self, clifford_torus):
        lam = ChartStencil(clifford_torus, np.array([0.2, -0.1]), 1e-4).shape_eigen[0]
        np.testing.assert_allclose(lam, [1.0, -1.0], atol=1e-8)

    def test_general_radii_oracle(self):
        k, n, r1 = 2, 4, 0.6
        r2 = np.sqrt(1 - r1 * r1)
        chart = product_spheres(k, n, r1)
        lam = ChartStencil(chart, np.array([0.1, -0.2, 0.15, 0.05]), 1e-4).shape_eigen[0]
        expected = np.sort(np.array([r2 / r1] * k + [-r1 / r2] * (n - k)))[::-1]
        np.testing.assert_allclose(lam, expected, atol=1e-8)

    def test_invariants(self, product_13):
        for p in sample_points(product_13, 3):
            res = ChartStencil(product_13, p, 1e-4).invariants()
            assert max(res["embed_norm"], res["normal_norm"], res["orthogonality"]) < 1e-10

    def test_radius_constraint(self):
        with pytest.raises(ChartError):
            product_spheres(1, 2, 1.0)
        with pytest.raises(ChartError):
            product_spheres(0, 2, 0.5)


class TestCartanTube:
    def test_three_distinct_constant_curvatures(self, tube):
        lams = np.array([ChartStencil(tube, p, 1e-4).shape_eigen[0] for p in sample_points(tube, 10)])
        assert lams.var(axis=0).max() < 1e-8
        lam = lams[0]
        assert min(abs(lam[0] - lam[1]), abs(lam[1] - lam[2])) > 0.1

    def test_angle_gaps_are_pi_thirds(self, tube):
        lam = ChartStencil(tube, np.array([0.05, -0.1, 0.2]), 1e-4).shape_eigen[0]
        angles = np.sort(np.arctan2(1.0, lam) % np.pi)
        gaps = np.diff(angles)
        np.testing.assert_allclose(gaps, np.pi / 3.0, atol=1e-5)

    def test_invariants(self, tube):
        for p in sample_points(tube, 3):
            res = ChartStencil(tube, p, 1e-4).invariants()
            assert max(res["embed_norm"], res["normal_norm"], res["orthogonality"]) < 1e-10
            assert res["min_singular_value"] > 1e-6

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_radius_rejected(self, t):
        # a plain chart error naming t, not a focal-radius diagnosis
        with pytest.raises(ChartError) as err:
            cartan_tube(t)
        assert not isinstance(err.value, FocalRadiusError)
        assert "t must be finite" in str(err.value)

    def test_focal_radius_rejected(self):
        for t in (0.0, 1e-6, 9e-6, np.pi / 3.0, 2.0 * np.pi / 3.0, np.pi - 1e-7, np.pi + 1e-7):
            with pytest.raises(FocalRadiusError):
                cartan_tube(t)

    @pytest.mark.parametrize("focal", [0.0, np.pi / 3.0, 2.0 * np.pi / 3.0, np.pi])
    def test_radius_beside_focal_band_accepted(self, focal):
        # |cot| of 9.1e4 at 1.1e-5 from a focal radius, below the 1e5 bound
        for t in (focal - 1.1e-5, focal + 1.1e-5):
            assert cartan_tube(t).meta == {"t": t}

    @pytest.mark.parametrize("t", np.linspace(0.05, np.pi - 0.05, 14))
    def test_closed_form_matches_stencil(self, t):
        # the constructor reads focality from -cot(t + k pi/3); the shape
        # operator of the chart's own stencil at the box center agrees
        chart = cartan_tube(t)
        got = np.sort(ChartStencil(chart, chart.box.center, 1e-4).shape_eigen[0])
        want = np.sort([-1.0 / np.tan(t + k * np.pi / 3.0) for k in range(3)])
        assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + want**2))


@pytest.fixture(scope="module")
def memo_charts(rotational_trajectory):
    """Factories of the catalog charts whose embed and normal share a memo."""
    return {
        "cartan": lambda: cartan_tube(0.35),
        "sphere": lambda: round_sphere(3, 1.0 / np.sqrt(2.0)),
        "product": lambda: product_spheres(1, 3, 0.55),
        "rotational": lambda: build_rotational_chart(rotational_trajectory),
    }


@pytest.fixture
def frame_calls(monkeypatch):
    """The shapes of the points of every Veronese frame build, in order."""
    calls = []
    frame = hypersurfaces._veronese_frame
    monkeypatch.setattr(hypersurfaces, "_veronese_frame", lambda q: calls.append(q.shape) or frame(q))
    return calls


def counted_shared_work(builds):
    """hypersurfaces.shared_work around a build that appends the shape of each of its points to builds."""
    return hypersurfaces.shared_work(lambda q: builds.append(q.shape) or -q)


class TestChartMemo:
    # a chart's one state is a one-entry memo of the work embed and normal
    # share: an embed/normal pair on the same points builds it once, for the
    # whole batch, and any other points rebuild it

    def test_interleaved_points_match_fresh_charts(self, memo_charts):
        for name, make in memo_charts.items():
            chart = make()
            rng = np.random.default_rng(5)
            base = sample_points(chart, 3)
            points = base + [
                np.concatenate([base[0][:2], base[1][2:]]),  # shares x[:2] with base[0]
                np.concatenate([base[0][:1], base[2][1:]]),  # shares x[0] only
                base[1].copy(),  # base[1]'s bytes in another array
                np.stack(base),  # a batch holding the others' rows
            ]
            calls = [(kind, i) for i in range(len(points)) for kind in ("embed", "normal")] * 2
            for c in rng.permutation(len(calls)):
                kind, i = calls[c]
                got = getattr(chart, kind)(points[i])
                assert np.array_equal(got, getattr(make(), kind)(points[i])), (name, kind, i)

    def test_threads_sharing_a_chart(self, memo_charts):
        # the memo entry is read and replaced whole: threads sharing one chart
        # may recompute the shared work but never read another point's
        for name, make in memo_charts.items():
            chart = make()
            points = sample_points(chart, 6)
            want = [(chart.embed(p), chart.normal(p)) for p in points]
            wrong = []

            def work(seed):
                for i in np.random.default_rng(seed).integers(0, len(points), 150):
                    got = (chart.embed(points[i]), chart.normal(points[i]))
                    if not all(np.array_equal(g, w) for g, w in zip(got, want[i])):
                        wrong.append(i)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads), name
            assert wrong == [], name

    def test_equal_bytes_share_one_build(self, frame_calls):
        builds = []
        shared = counted_shared_work(builds)
        q = np.array([0.1, -0.2, 0.3])
        first = shared(q)
        assert shared(q.copy()) is first
        assert shared([0.1, -0.2, 0.3]) is first
        assert builds == [(3,)]
        # the same through a chart: one Veronese frame for embed and normal
        chart = cartan_tube(0.35)
        frame_calls.clear()
        chart.embed(q)
        chart.normal(q.copy())
        assert frame_calls == [(3,)]

    def test_points_mutated_in_place_are_rebuilt(self, frame_calls):
        builds = []
        shared = counted_shared_work(builds)
        q = np.array([0.1, -0.2, 0.3])
        shared(q)
        q[2] = 0.25
        assert np.array_equal(shared(q), -q)
        assert builds == [(3,)] * 2
        chart, fresh = cartan_tube(0.35), cartan_tube(0.35)
        x = np.array([0.1, -0.05, 0.2])
        want = fresh.normal(np.array([0.15, -0.05, 0.2]))
        frame_calls.clear()
        chart.embed(x)
        x[0] = 0.15
        assert np.array_equal(chart.normal(x), want)
        assert frame_calls == [(3,)] * 2

    def test_equal_bytes_of_another_shape_are_another_key(self):
        builds = []
        shared = counted_shared_work(builds)
        q = np.arange(6.0) / 10.0
        assert shared(q.reshape(2, 3)).shape == (2, 3)
        assert shared(q.reshape(3, 2)).shape == (3, 2)
        assert builds == [(2, 3), (3, 2)]
        chart, fresh = round_sphere(3, 0.6), round_sphere(3, 0.6)
        x = q.reshape(2, 3)
        chart.embed(x)
        got = chart.normal(x.reshape(1, 2, 3))
        assert got.shape == (1, 2, 5)
        assert np.array_equal(got, fresh.normal(x.reshape(1, 2, 3)))

    def test_rho_jet_per_stencil(self, monkeypatch):
        # perturbed sphere: one height-function jet for embed and one for
        # normal on the 8 stencil points and the center, in one call each
        calls = []
        jet = references._rho_jet
        monkeypatch.setattr(references, "_rho_jet", lambda q: calls.append(q.shape) or jet(q))
        chart = perturbed_sphere()
        p = np.array([0.1, -0.05])
        st = ChartStencil(chart, p, 1e-4)
        assert calls == [(9, 2)] * 2
        assert np.array_equal(st.center, np.stack([perturbed_sphere().embed(p), perturbed_sphere().normal(p)]))

    def test_frames_per_stencil(self, frame_calls):
        # one Veronese frame build per embed/normal pair: on the 12 stencil
        # points and the center, together
        chart = cartan_tube(0.35)
        frame_calls.clear()
        ChartStencil(chart, np.array([0.1, -0.05, 0.2]), 1e-4)
        assert frame_calls == [(13, 3)]


class TestParallel:
    def test_zero_offset_is_same_chart(self, sphere_half):
        par = parallel_hypersurface(sphere_half, 0.0)
        p = np.array([0.1, 0.2, -0.1])
        np.testing.assert_allclose(par.embed(p), sphere_half.embed(p), atol=1e-15)
        np.testing.assert_allclose(par.normal(p), sphere_half.normal(p), atol=1e-15)

    @pytest.mark.parametrize("t", [0.1, 0.3])
    def test_parallel_curvature_law(self, t):
        # lambda(t) = cot(arccot(lambda) + t), checked on a non-umbilic chart
        chart = product_spheres(1, 3, 0.55)
        p = np.array([0.1, -0.2, 0.25])
        lam0 = ChartStencil(chart, p, 1e-4).shape_eigen[0]
        par = parallel_hypersurface(chart, t)
        lam_t = ChartStencil(par, p, 1e-4).shape_eigen[0]
        expected = 1.0 / np.tan(np.arctan2(1.0, lam0) + t)
        np.testing.assert_allclose(lam_t, np.sort(expected)[::-1], atol=1e-5)

    def test_degenerate_offset_rejected(self, sphere_half):
        # the focal offset solves theta + t = 0 mod pi; theta = pi/4 here
        with pytest.raises(ChartError):
            parallel_hypersurface(sphere_half, -np.pi / 4.0)


class TestShapeOperatorSolves:
    def test_principal_curvatures_eigensolves(self, monkeypatch, product_13):
        # the Gram matrix of the coordinate tangents is decomposed once, for the
        # rank check and the tangent frame, and the shape operator once
        calls = []
        eig = numerics.symmetric_eigen
        spy = lambda m: calls.append(1) or eig(m)
        for module in (numerics, hypersurfaces):
            monkeypatch.setattr(module, "symmetric_eigen", spy)
        ChartStencil(product_13, np.array([0.1, -0.2, 0.15]), 1e-4).shape_eigen
        assert len(calls) == 2

    @pytest.mark.parametrize("chart", ["sphere_half", "clifford_torus", "product_13", "tube", "rotational_chart"])
    def test_stacked_metric_solve_matches_separate_solves(self, request, chart):
        # the lift metric and the Gram matrix are solved as one stack; each
        # reads bitwise what its own solve gives
        chart = request.getfixturevalue(chart)
        st = ChartStencil(chart, np.array(sample_points(chart, 12)), 1e-4)
        gram = st.d_embed @ st.d_embed.swapaxes(-1, -2)
        for (w, v), m in ((st.lift_eigen, st.lift_metric), (st.gram_eigen, gram)):
            w_alone, v_alone = symmetric_eigen(m)
            assert w.tobytes() == w_alone.tobytes() and v.tobytes() == v_alone.tobytes()

    def test_velocities_match_the_eigen_solve(self, product_13):
        # the frame's velocities carry the tangents onto it bitwise, and the
        # Gram-Schmidt route's eigen solve of G m^T = e t^T gives the same
        # velocities, rotated onto its own frame
        st = ChartStencil(product_13, np.array([0.1, -0.2, 0.15]), 1e-4)
        e, t, m = tangent_data(st)
        _, t_ref, m_ref = ref_tangent_data(st)
        assert np.array_equal(m @ e, t)
        np.testing.assert_allclose((t_ref @ t.T) @ m, m_ref, rtol=0, atol=1e-13 * np.abs(m_ref).max())


class TestShapeOperatorErrors:
    def test_rank_deficient_chart(self):
        flat = HypersurfaceChart(
            dim=2,
            embed=lambda q: np.stack(
                [np.cos(q[..., 0]), np.sin(q[..., 0]), 0.0 * q[..., 0], 0.0 * q[..., 0]], axis=-1
            ),
            normal=lambda q: np.broadcast_to([0.0, 0.0, 1.0, 0.0], q.shape[:-1] + (4,)),
            box=Box.cube(2, 0.4),
            name="degenerate",
        )
        with pytest.raises(ChartError) as err:
            shape_operator(flat, np.array([0.1, 0.1]))
        assert "rank" in str(err.value)

    def test_nearly_dependent_tangents_rejected(self, sphere_half):
        # the smallest Gram eigenvalue lies in (1e-12, 1e-10]: the frame from
        # the Gram eigenpairs rejects these tangents (ChartError); without a
        # 1e-10 gate their curvatures come back silently
        scale = np.array([3e-6, 1.0, 1.0])
        squeezed = HypersurfaceChart(
            dim=3,
            embed=lambda q: sphere_half.embed(q * scale),
            normal=lambda q: sphere_half.normal(q * scale),
            box=sphere_half.box,
            name="squeezed",
        )
        p = np.array([0.1, -0.2, 0.15])
        assert 1e-12 < ChartStencil(squeezed, p, 1e-4).gram_eigen[0][0] <= 1e-10
        with pytest.raises(ChartError, match="rank-deficient"):
            ChartStencil(squeezed, p, 1e-4).shape_eigen
