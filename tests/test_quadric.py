import numpy as np
import pytest

from quadriclab.quadric import (
    GeometryError,
    horizontal_frame,
    horizontal_project,
    horizontality_residual,
    metric,
    product_structure,
    quadric_curvature,
    quadric_residual,
    ricci_matrix,
    stiefel_residuals,
)
from references import (
    quadric_distance,
    random_horizontal,
    random_stiefel,
    ref_quadric_curvature,
    ref_rotate_structure,
)

BASE = 0.0


def worst_invariant(p):
    return max(stiefel_residuals(p).values())


def structure(p, w):
    """The base almost product structure w -> -P(conj w) at p."""
    return product_structure(BASE, p, w)


class TestStiefelPoint:
    def test_orthonormal_pair_is_valid(self):
        e1 = np.zeros(5)
        e2 = np.zeros(5)
        e1[0] = e2[1] = 1.0 / np.sqrt(2.0)
        p = e1 + 1j * e2
        assert worst_invariant(p) <= 1e-10
        assert quadric_residual(p) < 1e-15

    def test_invalid_point_flagged_and_residual_one(self):
        e1 = np.zeros(5)
        e1[0] = 1.0 / np.sqrt(2.0)
        p = e1 + 1j * e1
        assert abs(quadric_residual(p) - 1.0) < 1e-14
        assert worst_invariant(p) > 1e-10

    def test_random_point_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_stiefel(4, rng)
            assert worst_invariant(p) <= 1e-10
            assert quadric_residual(p) < 1e-12

    def test_residual_per_row(self):
        # e0 and i e0 read p.p = 1 and -1: a sum over the whole batch cancels them
        e0 = np.zeros(5, dtype=complex)
        e0[0] = 1.0
        pair = np.stack([e0, 1j * e0])
        assert quadric_residual(e0) == quadric_residual(1j * e0) == 1.0
        assert np.array_equal(quadric_residual(pair), [1.0, 1.0])

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_rows_of_a_batch_of_lifts_equal_single_calls(self, n):
        # a (4, n+2) stack of lifts, one gauge angle per row
        rng = np.random.default_rng(60 + n)
        p = np.stack([random_stiefel(n, rng) for _ in range(4)])
        x, y, z = (np.stack([random_horizontal(p[k], rng) for k in range(4)]) for _ in range(3))
        phi = rng.uniform(0.0, 2.0 * np.pi, 4)

        def calls(k):
            f, q, a, b, c = (phi, p, x, y, z) if k is None else (phi[k], p[k], x[k], y[k], z[k])
            return {
                "residual": quadric_residual(q),
                "curvature": quadric_curvature(f, q, a, b, c),
                "structure": product_structure(f, q, a),
                "projection": horizontal_project(q, a),
                "horizontality": horizontality_residual(q, a),
                **stiefel_residuals(q),
            }

        batch = calls(None)
        for k in range(4):
            for name, value in calls(k).items():
                assert np.array_equal(batch[name][k], value), (name, k)

        # four frame vectors per lift: lifts (4, 1, n+2), vectors (4, 4, n+2), the
        # angle of lift k on every one of its vectors through phi[:, None]
        fx, fy, fz = (np.stack([[random_horizontal(p[k], rng) for _ in range(4)] for k in range(4)])
                      for _ in range(3))

        def frame_calls(k, j):
            if k is None:
                f, q, a, b, c = phi[:, None], p[:, None, :], fx, fy, fz
            else:
                f, q, a, b, c = phi[k], p[k], fx[k, j], fy[k, j], fz[k, j]
            return {
                "curvature": quadric_curvature(f, q, a, b, c),
                "structure": product_structure(f, q, a),
                "projection": horizontal_project(q, a),
                "horizontality": horizontality_residual(q, a),
            }

        batch = frame_calls(None, None)
        for k in range(4):
            for j in range(4):
                for name, value in frame_calls(k, j).items():
                    assert np.array_equal(batch[name][k, j], value), (name, k, j)


class TestProductStructure:
    def test_involution(self):
        rng = np.random.default_rng(1)
        p = random_stiefel(3, rng)
        x = random_horizontal(p, rng)
        twice = structure(p, structure(p, x))
        assert np.abs(twice - x).max() < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        p = random_stiefel(3, rng)
        x = random_horizontal(p, rng)
        y = random_horizontal(p, rng)
        lhs = metric(structure(p, x), y)
        rhs = metric(x, structure(p, y))
        assert abs(lhs - rhs) < 1e-10

    def test_anticommutes_with_j(self):
        rng = np.random.default_rng(3)
        p = random_stiefel(4, rng)
        for _ in range(5):
            x = random_horizontal(p, rng)
            s = structure(p, 1j * x) + 1j * structure(p, x)
            assert np.abs(s).max() < 1e-10

    def test_projection_keeps_horizontal(self):
        rng = np.random.default_rng(4)
        p = random_stiefel(3, rng)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert horizontality_residual(p, horizontal_project(p, w)) < 1e-12

    def test_gauge_zero_matches_base_structure(self):
        rng = np.random.default_rng(5)
        p = random_stiefel(3, rng)
        x = random_horizontal(p, rng)
        a0 = -horizontal_project(p, np.conj(x))
        r0 = product_structure(0.0, p, x)
        np.testing.assert_allclose(r0, a0, atol=1e-14)

    def test_gauge_pi_negates(self):
        rng = np.random.default_rng(6)
        p = random_stiefel(3, rng)
        x = random_horizontal(p, rng)
        a0 = structure(p, x)
        rpi = product_structure(np.pi, p, x)
        np.testing.assert_allclose(rpi, -a0, atol=1e-12)

    def test_gauge_shifts_eigenangles_by_half(self):
        # a real horizontal vector has angle pi/2 at gauge 0; rotating the
        # structure by phi moves it to pi/2 - phi/2. The eigen frame holds no
        # real vectors, so x is a real vector made orthogonal to u and v
        rng = np.random.default_rng(7)
        p = random_stiefel(3, rng)
        r = rng.standard_normal(5)
        r = r - 2.0 * (r @ p.real) * p.real - 2.0 * (r @ p.imag) * p.imag
        x = r.astype(complex)
        assert horizontality_residual(p, x) < 1e-12
        for phi in (0.0, 0.4, 1.1):
            ax = product_structure(phi, p, x)
            cos2t = metric(ax, x)
            sin2t = -metric(ax, 1j * x)
            theta = 0.5 * np.arctan2(sin2t, cos2t)
            expected = np.pi / 2.0 - phi / 2.0
            delta = (theta - expected) % np.pi
            assert min(delta, np.pi - delta) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_single_vector_reference(self, n):
        rng = np.random.default_rng(20 + n)
        p = random_stiefel(n, rng)
        for phi in (0.0, 0.4, 2.9):
            for _ in range(5):
                x = random_horizontal(p, rng)
                assert np.abs(product_structure(phi, p, x) - ref_rotate_structure(phi, p, x)).max() <= 1e-13


class TestCurvature:
    def test_antisymmetry_first_pair(self):
        rng = np.random.default_rng(8)
        p = random_stiefel(3, rng)
        phi = 0.0
        x = random_horizontal(p, rng)
        z = random_horizontal(p, rng)
        r = quadric_curvature(phi, p, x, x, z)
        assert np.abs(r).max() < 1e-10

    def test_first_bianchi(self):
        rng = np.random.default_rng(9)
        p = random_stiefel(3, rng)
        phi = 0.3
        x, y, z = (random_horizontal(p, rng, unit=True) for _ in range(3))
        cyc = (
            quadric_curvature(phi, p, x, y, z)
            + quadric_curvature(phi, p, y, z, x)
            + quadric_curvature(phi, p, z, x, y)
        )
        assert np.abs(cyc).max() < 1e-9

    def test_pair_symmetry(self):
        rng = np.random.default_rng(10)
        p = random_stiefel(3, rng)
        phi = 0.0
        x, y, z, w = (random_horizontal(p, rng, unit=True) for _ in range(4))
        lhs = metric(quadric_curvature(phi, p, x, y, z), w)
        rhs = metric(quadric_curvature(phi, p, z, w, x), y)
        assert abs(lhs - rhs) < 1e-9

    def test_gauge_independence(self):
        rng = np.random.default_rng(11)
        p = random_stiefel(3, rng)
        x, y, z = (random_horizontal(p, rng, unit=True) for _ in range(3))
        r0 = quadric_curvature(0.0, p, x, y, z)
        r1 = quadric_curvature(0.7, p, x, y, z)
        assert np.abs(r0 - r1).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_single_vector_reference(self, n):
        rng = np.random.default_rng(30 + n)
        p = random_stiefel(n, rng)
        for phi in (0.0, 1.3):
            for _ in range(5):
                x, y, z = (random_horizontal(p, rng) for _ in range(3))
                got = quadric_curvature(phi, p, x, y, z)
                assert np.abs(got - ref_quadric_curvature(phi, p, x, y, z)).max() <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rows_of_a_batch_equal_single_calls(self, n):
        # a (4, n+2) stack in each slot: every row reads bitwise its own call
        rng = np.random.default_rng(40 + n)
        p = random_stiefel(n, rng)
        phi = 0.9
        x, y, z = (np.stack([random_horizontal(p, rng) for _ in range(4)]) for _ in range(3))
        batch = {
            "curvature": (quadric_curvature(phi, p, x, y, z), lambda k: quadric_curvature(phi, p, x[k], y[k], z[k])),
            "structure": (product_structure(phi, p, x), lambda k: product_structure(phi, p, x[k])),
            "metric": (metric(x, y), lambda k: metric(x[k], y[k])),
            "projection": (horizontal_project(p, x), lambda k: horizontal_project(p, x[k])),
            "horizontality": (horizontality_residual(p, x), lambda k: horizontality_residual(p, x[k])),
        }
        for name, (rows, single) in batch.items():
            for k in range(4):
                assert np.array_equal(rows[k], single(k)), (name, k)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_einstein_constant(self, n):
        rng = np.random.default_rng(100 + n)
        p = random_stiefel(n, rng)
        ric = ricci_matrix(0.0, p)
        assert np.abs(ric - 2 * n * np.eye(2 * n)).max() < 1e-8


class TestHorizontalFrame:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_orthonormal_and_horizontal(self, n):
        p = random_stiefel(n, np.random.default_rng(50 + n))
        frame = horizontal_frame(p)
        assert frame.shape == (2 * n, n + 2)
        assert np.abs(metric(frame[:, None], frame[None, :]) - np.eye(2 * n)).max() < 1e-14
        assert horizontality_residual(p, frame).max() < 1e-14

    def test_lift_off_the_quadric_raises(self):
        # u = v: z^T z = i, so the horizontal projector is no projector
        e1 = np.zeros(5)
        e1[0] = 1.0 / np.sqrt(2.0)
        with pytest.raises(GeometryError, match="off the quadric"):
            horizontal_frame(e1 + 1j * e1)


def test_quadric_distance_phase_invariant():
    rng = np.random.default_rng(13)
    p = random_stiefel(3, rng)
    rotated = np.exp(1j * 0.8) * p
    assert quadric_distance(p, rotated) < 1e-7
    q = random_stiefel(3, rng)
    assert quadric_distance(p, q) > 0.1
