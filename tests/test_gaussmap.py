import dataclasses

import numpy as np
import pytest

from quadriclab.gaussmap import (
    FundamentalForm,
    GaussMapError,
    angle_spectrum,
    gauge_normalize,
    gauss_map,
    mean_curvature,
    mod_pi_clusters,
    mod_pi_distance,
    normalized_phase,
    second_fundamental_form,
    structure_operators,
)
from quadriclab.hypersurfaces import (
    Box,
    HypersurfaceChart,
    product_spheres,
    round_sphere,
    sphere_chart,
)
from quadriclab.quadric import stiefel_residuals
from quadriclab.verify import palmer_residual
from quadriclab.numerics import row_dot
from references import box_sample, parallel_hypersurface, point_batch, quadric_distance, ref_horizontality


def mod_pi_gap(a, b):
    d = abs(a - b) % np.pi
    return min(d, np.pi - d)


P3 = np.array([0.1, -0.2, 0.15])


CATALOG_FIXTURES = ["sphere_half", "clifford_torus", "product_13", "tube", "rotational_chart", "wavy_sphere"]


def batch_and_points(chart, count=5, seed=12):
    """A Gauss-map jet batch of count points of the chart (more points than n), and each point's own jet."""
    rng = np.random.default_rng(seed)
    q = np.array([box_sample(chart.box, rng, margin=0.05) for _ in range(count)])
    return gauss_map(chart, q), [gauss_map(chart, x) for x in q]


@pytest.mark.parametrize("fixture", CATALOG_FIXTURES)
def test_horizontality_rows_equal_single_points(request, fixture):
    # on a batch, the matmul against the lifts raised a core-dimension mismatch
    jets, ones = batch_and_points(request.getfixturevalue(fixture))
    rows = jets.horizontality_residual
    assert rows.shape == (len(ones),)
    for k, one in enumerate(ones):
        assert rows[k] == one.horizontality_residual == ref_horizontality(one)


@pytest.mark.parametrize("fixture", CATALOG_FIXTURES)
def test_mean_curvature_rows_equal_single_points(request, fixture):
    # on a batch, the subscripts lacked the batch axes and n was read from the
    # batch size; the norm is the stacked matmul, bitwise np.linalg.norm of a row
    jets, ones = batch_and_points(request.getfixturevalue(fixture))
    mean = mean_curvature(second_fundamental_form(jets, angle_spectrum(jets)))
    norms = np.sqrt(row_dot(mean, mean))
    assert mean.shape == (len(ones), jets.dim)
    for k, one in enumerate(ones):
        h = second_fundamental_form(one, angle_spectrum(one)).h
        alone = mean_curvature(FundamentalForm(h=h, symmetry_defect=0.0))
        # the single-point formula of the mean curvature
        assert np.array_equal(mean[k], alone) and np.array_equal(alone, np.einsum("jji->i", h) / jets.dim)
        assert norms[k] == np.linalg.norm(alone)


class TestModPiDistance:
    def test_arrays_match_scalar_calls(self):
        # a Python min over two arrays raised "truth value of an array is ambiguous"
        rng = np.random.default_rng(0)
        a = np.concatenate([rng.uniform(-7.0, 7.0, 500), [0.0, np.pi, np.pi / 2, -np.pi / 2]])
        b = np.concatenate([rng.uniform(-7.0, 7.0, 500), [np.pi, 0.0, 0.0, 0.0]])
        got = mod_pi_distance(a, b)
        want = np.array([mod_pi_distance(x, y) for x, y in zip(a.tolist(), b.tolist())])
        assert got.tobytes() == want.tobytes()
        assert got.max() <= np.pi / 2

    def test_broadcasts(self):
        th = np.array([0.1, 1.2, 3.1])
        got = mod_pi_distance(th[:, None], th)
        assert got.shape == (3, 3)
        assert got[0, 2] == mod_pi_distance(0.1, 3.1)
        np.testing.assert_array_equal(got, got.T)


class TestModPiClusters:
    def test_wrap_joins_last_group_onto_first(self):
        # the first and last angles are 2e-9 apart mod pi; the joined group
        # lists the first group's members, then the last's
        thetas = [1e-9, 2e-9, 1.0, np.pi - 1e-9]
        assert mod_pi_clusters(thetas, 1e-6) == [[0, 1, 3], [2]]

    def test_single_cluster(self):
        assert mod_pi_clusters([0.3], 1e-6) == [[0]]
        assert mod_pi_clusters([0.5, 0.5 + 1e-8, 0.5 + 2e-8], 1e-6) == [[0, 1, 2]]

    def test_gap_exactly_at_the_boundary_joins(self):
        # dyadic angles make the distance exactly 0.25
        assert mod_pi_clusters([0.25, 0.5], 0.25) == [[0, 1]]
        assert mod_pi_clusters([0.25, 0.5], np.nextafter(0.25, 0.0)) == [[0], [1]]
        thetas = [0.0, 1.5, 3.0]
        wrap = mod_pi_distance(thetas[0], thetas[-1])
        assert mod_pi_clusters(thetas, wrap) == [[0, 2], [1]]
        assert mod_pi_clusters(thetas, np.nextafter(wrap, 0.0)) == [[0], [1], [2]]


class TestGaussJet:
    def test_lift_is_stiefel(self, sphere_half):
        jet = gauss_map(sphere_half, P3)
        assert max(stiefel_residuals(jet.lift).values()) < 1e-10

    def test_frame_norm_half_radius(self, sphere_half):
        # |d(lift) e_j|^2 = (1 + lambda^2)/2 = 1 at lambda = 1
        jet = gauss_map(sphere_half, P3)
        _, principal_vel, _ = jet.shape_eigen
        for w in principal_vel @ jet.d_lift:
            assert abs(np.vdot(w, w).real - 1.0) < 1e-8

    def test_equator_scales_by_half(self):
        chart = round_sphere(3, 1.0)
        jet = gauss_map(chart, P3)
        # lambda = 0: d(lift) e_j = e_j / sqrt(2), so the induced metric is
        # half the chart metric
        _, principal_vel, principal_ambient = jet.shape_eigen
        for k, w in enumerate(principal_vel @ jet.d_lift):
            assert abs(np.vdot(w, w).real - 0.5) < 1e-8
            ambient = principal_ambient[k] / np.sqrt(2.0)
            np.testing.assert_allclose(w, ambient.astype(complex), atol=1e-8)

    def test_horizontality_all_catalog(self, sphere_half, clifford_torus, tube):
        rng = np.random.default_rng(3)
        for chart in (sphere_half, clifford_torus, tube):
            p = box_sample(chart.box, rng, margin=0.03)
            jet = gauss_map(chart, p)
            assert jet.horizontality_residual < 1e-9

    def test_lagrangian_all_catalog(self, sphere_half, product_13, tube, rotational_chart):
        rng = np.random.default_rng(4)
        for chart in (sphere_half, product_13, tube, rotational_chart):
            p = box_sample(chart.box, rng, margin=0.05)
            assert gauss_map(chart, p).lagrangian < 1e-8

    @pytest.mark.parametrize(
        "chart", [round_sphere(3, 1.0 / np.sqrt(2.0)), product_spheres(1, 2, 0.6)]
    )
    def test_one_evaluation_per_stencil_point(self, chart):
        # the lift, its derivatives and the shape operator read one set of
        # values: p and p +- h e_i, p +- 2h e_i, each through embed and normal
        calls = []

        def counted(name, fn):
            def wrapper(q):
                calls.extend((name, tuple(row)) for row in np.reshape(q, (-1, chart.dim)))
                return fn(q)

            return wrapper

        counting = dataclasses.replace(
            chart, embed=counted("embed", chart.embed), normal=counted("normal", chart.normal)
        )
        gauss_map(counting, chart.box.center + 0.05)
        assert len(calls) == 2 + 8 * chart.dim
        assert len(set(calls)) == len(calls)

    def test_broken_normal_rejected(self):
        # a unit field orthogonal to the embedding but tangent to the
        # hypersurface: the lift is pointwise fine yet the map cannot be
        # Lagrangian
        def embed(q):
            return np.concatenate([sphere_chart(2, q), 0.0 * q[..., :1]], axis=-1)

        def fake_normal(q):
            c1, s1, c2 = np.cos(q[..., 0]), np.sin(q[..., 0]), np.cos(q[..., 1])
            d1 = np.stack([-s1 * c2, c1 * c2, 0.0 * c2], axis=-1)
            return np.concatenate([d1 / np.linalg.norm(d1, axis=-1, keepdims=True), 0.0 * q[..., :1]], axis=-1)

        broken = HypersurfaceChart(
            dim=2,
            embed=embed,
            normal=fake_normal,
            box=Box.cube(2, 0.4),
            name="broken",
        )
        with pytest.raises(GaussMapError):
            gauss_map(broken, np.array([0.1, 0.2]))

    def test_stiefel_gate_negative_control(self):
        # a normal off unit length by 1e-6 breaks <v,v> = 1/2 by 1e-6, past
        # the 1e-9 gate; by 1e-12 it stays inside
        base = round_sphere(3, 1.0 / np.sqrt(2.0))
        p = base.box.center

        def scaled(factor):
            return dataclasses.replace(base, normal=lambda q: factor * base.normal(q))

        with pytest.raises(GaussMapError, match="does not lift to the Stiefel manifold") as err:
            gauss_map(scaled(1.0 + 1e-6), p)
        gauss_map(scaled(1.0 + 1e-12), p)
        message = str(err.value)
        assert "\n" not in message
        assert "np.float64(" not in message
        assert "v_norm 1.00e-06" in message

    def test_nonorthogonal_normal_rejected(self):
        base = round_sphere(2, 0.8)
        broken = HypersurfaceChart(
            dim=2,
            embed=base.embed,
            normal=lambda q: np.broadcast_to([0.0, 0.0, 0.6, 0.8], q.shape[:-1] + (4,)),
            box=base.box,
            name="broken",
        )
        with pytest.raises(GaussMapError):
            gauss_map(broken, np.array([0.1, 0.2]))


class TestParallelGaussMap:
    def test_parallel_chart_shares_gauss_map(self, product_13):
        par = parallel_hypersurface(product_13, 0.2)
        rng = np.random.default_rng(12)
        for _ in range(3):
            p = box_sample(product_13.box, rng, margin=0.03)
            d = quadric_distance(gauss_map(par, p).lift, gauss_map(product_13, p).lift)
            assert d < 1e-7


class TestStructureOperators:
    def test_sphere_values(self, sphere_half):
        # lambda = 1 means the tangential part vanishes and the twisted
        # normal part is the identity
        jet = gauss_map(sphere_half, P3)
        b, c = structure_operators(jet, 0.0)
        assert np.abs(b).max() < 1e-8
        assert np.abs(c - np.eye(3)).max() < 1e-8

    def test_algebraic_identities_everywhere(self, tube, product_13, rotational_chart):
        rng = np.random.default_rng(5)
        for chart in (tube, product_13, rotational_chart):
            p = box_sample(chart.box, rng, margin=0.05)
            jet = gauss_map(chart, p)
            for phi in (0.0, 0.9):
                b, c = structure_operators(jet, phi)
                eye = np.eye(jet.dim)
                assert np.abs(b @ b + c @ c - eye).max() < 1e-8
                assert np.abs(b @ c - c @ b).max() < 1e-8


class TestAngleSpectrum:
    def test_sphere_angles_quarter_pi(self, sphere_half):
        spec = angle_spectrum(gauss_map(sphere_half, P3))
        np.testing.assert_allclose(spec.thetas, np.pi / 4.0, atol=1e-10)

    def test_gauge_shift_law(self, tube):
        jet = gauss_map(tube, P3)
        spec0 = angle_spectrum(jet, 0.0)
        for phi in (0.3, 1.0, 2.2):
            spec = angle_spectrum(jet, phi)
            for a, b in zip(np.sort(spec.thetas), np.sort(np.mod(spec0.thetas - phi / 2.0, np.pi))):
                assert mod_pi_gap(a, b) < 1e-8

    def test_frame_gauge_independent_up_to_eigenspace(self, tube):
        jet = gauss_map(tube, P3)
        s0 = angle_spectrum(jet, 0.0)
        s1 = angle_spectrum(jet, 0.7)
        # distinct angles here, so frames must agree up to order and sign
        overlap = np.abs(np.real(np.conj(s0.frame_ambient) @ s1.frame_ambient.T))
        # each row should have exactly one entry ~1
        np.testing.assert_allclose(np.sort(overlap, axis=1)[:, -1], 1.0, atol=1e-6)
        np.testing.assert_allclose(np.sort(overlap, axis=1)[:, :-1], 0.0, atol=1e-6)

    def test_cotangent_relation_canonical_gauge(self, product_13, tube, rotational_chart):
        rng = np.random.default_rng(6)
        for chart in (product_13, tube, rotational_chart):
            p = box_sample(chart.box, rng, margin=0.05)
            jet = gauss_map(chart, p)
            spec = angle_spectrum(jet, 0.0)
            lams = np.sort(jet.lambdas)[::-1]
            for lam, th in zip(lams, spec.thetas):
                assert abs(lam - np.cos(th) / np.sin(th)) < 1e-5

    def test_frame_orthonormal_and_diagonalizing(self, tube):
        jet = gauss_map(tube, P3)
        spec = angle_spectrum(jet)
        w = spec.frame_vel @ jet.d_lift
        herm = np.conj(w) @ w.T
        np.testing.assert_allclose(herm.real, np.eye(3), atol=1e-8)
        assert spec.diag_residual < 1e-6


class TestGaugeNormalize:
    def test_sphere_n2(self):
        chart = round_sphere(2, 1.0 / np.sqrt(2.0))
        jet = gauss_map(chart, np.array([0.1, -0.2]))
        spec = gauge_normalize(jet, angle_spectrum(jet))
        # canonical angles are (pi/4, pi/4); phi = pi/2 renormalizes the sum
        assert abs(spec.phi - np.pi / 2.0) < 1e-8
        for th in spec.thetas:
            assert mod_pi_gap(th, 0.0) < 1e-8

    def test_cartan_normalized_angles(self, tube):
        jet = gauss_map(tube, P3)
        spec = gauge_normalize(jet, angle_spectrum(jet))
        targets = [0.0, np.pi / 3.0, 2.0 * np.pi / 3.0]
        gaps = sorted(
            min(mod_pi_gap(t, x) for x in spec.thetas) for t in targets
        )
        assert max(gaps) < 1e-8
        total = np.mod(np.sum(spec.thetas), np.pi)
        assert min(total, np.pi - total) < 1e-8

    def test_smallest_nonnegative_member(self, tube):
        jet = gauss_map(tube, P3)
        spec0 = angle_spectrum(jet)
        phi = gauge_normalize(jet, spec0).phi
        assert 0.0 <= phi < 2.0 * np.pi / 3.0
        shifted = normalized_phase(spec0, ref_phi=phi + 2.0 * np.pi / 3.0)
        assert abs(shifted - phi - 2.0 * np.pi / 3.0) < 1e-12


class TestFundamentalForm:
    def test_sphere_vanishes(self, sphere_half):
        jet = gauss_map(sphere_half, P3)
        ff = second_fundamental_form(jet, angle_spectrum(jet))
        assert np.abs(ff.h).max() < 1e-8

    def test_product_vanishes(self, product_13):
        jet = gauss_map(product_13, P3)
        ff = second_fundamental_form(jet, angle_spectrum(jet))
        assert np.abs(ff.h).max() < 1e-8

    def test_cartan_single_component(self, tube):
        jet = gauss_map(tube, P3)
        spec = gauge_normalize(jet, angle_spectrum(jet))
        ff = second_fundamental_form(jet, spec)
        assert abs(ff.h[0, 1, 2] ** 2 - 0.375) < 1e-3
        # all components with a repeated index vanish
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if len({i, j, k}) < 3:
                        assert abs(ff.h[i, j, k]) < 1e-6

    def test_total_symmetry(self, tube, rotational_chart):
        rng = np.random.default_rng(8)
        for chart in (tube, rotational_chart):
            p = box_sample(chart.box, rng, margin=0.05)
            jet = gauss_map(chart, p)
            ff = second_fundamental_form(jet, angle_spectrum(jet))
            assert ff.symmetry_defect < 1e-5


class TestMeanCurvature:
    def test_zero_tensor(self):
        ff = FundamentalForm(h=np.zeros((3, 3, 3)), symmetry_defect=0.0)
        assert np.abs(mean_curvature(ff)).max() == 0.0

    def test_synthetic_component(self):
        h = np.zeros((3, 3, 3))
        h[0, 0, 0] = 3.0
        ff = FundamentalForm(h=h, symmetry_defect=0.0)
        np.testing.assert_allclose(mean_curvature(ff), [1.0, 0.0, 0.0])

    def test_catalog_minimality(self, sphere_half, product_13, tube, rotational_chart):
        rng = np.random.default_rng(9)
        for chart in (sphere_half, product_13, tube, rotational_chart):
            p = box_sample(chart.box, rng, margin=0.05)
            jet = gauss_map(chart, p)
            ff = second_fundamental_form(jet, angle_spectrum(jet))
            assert np.linalg.norm(mean_curvature(ff)) < 1e-5


def palmer_at(chart, p):
    """palmer_residual at the one point p, a batch of one, as floats."""
    return {name: float(v[0]) for name, v in palmer_residual(point_batch(chart, p)).items()}


class TestPalmer:
    def test_isoparametric_both_sides_vanish(self, sphere_half, tube):
        for chart in (sphere_half, tube):
            res = palmer_at(chart, P3)
            assert res["residual"] < 1e-5
            assert res["lhs"] < 1e-5 and res["rhs"] < 1e-5

    def test_equator(self):
        chart = round_sphere(2, 1.0)
        assert palmer_at(chart, np.array([0.1, 0.2]))["residual"] < 1e-6

    def test_rotational_within_tolerance(self, rotational_chart):
        res = palmer_at(rotational_chart, rotational_chart.box.center)
        assert res["residual"] < 1e-4

    def test_nonminimal_chart_has_nonzero_sides(self, wavy_sphere):
        # a perturbed sphere is not isoparametric: both sides of the identity
        # are genuinely nonzero yet agree
        p = np.array([0.1, -0.15])
        res = palmer_at(wavy_sphere, p)
        assert res["lhs"] > 1e-3
        assert res["rhs"] > 1e-3
        assert res["residual"] < 1e-4
