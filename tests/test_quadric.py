import numpy as np
import pytest

from quadriclab.quadric import (
    GeometryError,
    HorizontalVector,
    StiefelPoint,
    StructureGauge,
    apply_conjugation_structure,
    horizontal_frame,
    horizontal_project,
    j_mult,
    metric,
    quadric_curvature,
    quadric_residual,
    ricci_matrix,
    rotate_structure,
)
from references import quadric_distance, random_horizontal, random_stiefel


def worst_invariant(p):
    return max(p.invariant_residuals().values())


class TestStiefelPoint:
    def test_orthonormal_pair_is_valid(self):
        e1 = np.zeros(5)
        e2 = np.zeros(5)
        e1[0] = e2[1] = 1.0 / np.sqrt(2.0)
        p = StiefelPoint(u=e1, v=e2)
        assert worst_invariant(p) <= 1e-10
        assert quadric_residual(p) < 1e-15

    def test_invalid_point_flagged_and_residual_one(self):
        e1 = np.zeros(5)
        e1[0] = 1.0 / np.sqrt(2.0)
        p = StiefelPoint(u=e1, v=e1.copy())
        assert abs(quadric_residual(p) - 1.0) < 1e-14
        assert worst_invariant(p) > 1e-10

    def test_random_point_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_stiefel(4, rng)
            assert worst_invariant(p) <= 1e-10
            assert quadric_residual(p) < 1e-12


class TestProductStructure:
    def test_involution(self):
        rng = np.random.default_rng(1)
        p = random_stiefel(3, rng)
        x = random_horizontal(p, rng)
        twice = apply_conjugation_structure(apply_conjugation_structure(x))
        assert np.abs(twice.w - x.w).max() < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        p = random_stiefel(3, rng)
        x = random_horizontal(p, rng)
        y = random_horizontal(p, rng)
        lhs = metric(apply_conjugation_structure(x), y)
        rhs = metric(x, apply_conjugation_structure(y))
        assert abs(lhs - rhs) < 1e-10

    def test_anticommutes_with_j(self):
        rng = np.random.default_rng(3)
        p = random_stiefel(4, rng)
        for _ in range(5):
            x = random_horizontal(p, rng)
            s = apply_conjugation_structure(j_mult(x)).w + j_mult(
                apply_conjugation_structure(x)
            ).w
            assert np.abs(s).max() < 1e-10

    def test_projection_keeps_horizontal(self):
        rng = np.random.default_rng(4)
        p = random_stiefel(3, rng)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        h = HorizontalVector(base=p, w=horizontal_project(p, w))
        assert h.horizontality_residual() < 1e-12

    def test_gauge_zero_matches_base_structure(self):
        rng = np.random.default_rng(5)
        p = random_stiefel(3, rng)
        x = random_horizontal(p, rng)
        a0 = apply_conjugation_structure(x)
        r0 = rotate_structure(StructureGauge(0.0), x)
        np.testing.assert_allclose(r0.w, a0.w, atol=1e-14)

    def test_gauge_pi_negates(self):
        rng = np.random.default_rng(6)
        p = random_stiefel(3, rng)
        x = random_horizontal(p, rng)
        a0 = apply_conjugation_structure(x)
        rpi = rotate_structure(StructureGauge(np.pi), x)
        np.testing.assert_allclose(rpi.w, -a0.w, atol=1e-12)

    def test_gauge_shifts_eigenangles_by_half(self):
        # a real horizontal frame has all angles pi/2 at gauge 0; rotating the
        # structure by phi moves every angle to pi/2 - phi/2
        rng = np.random.default_rng(7)
        p = random_stiefel(3, rng)
        frame = horizontal_frame(p)
        real_vecs = [
            f for f in frame if np.abs(f.w.imag).max() < 1e-9
        ]
        # the deterministic frame contains real vectors orthogonal to u, v
        assert real_vecs, "expected real horizontal directions"
        x = real_vecs[0]
        for phi in (0.0, 0.4, 1.1):
            ax = rotate_structure(StructureGauge(phi), x)
            cos2t = metric(ax, x)
            sin2t = -metric(ax, j_mult(x))
            theta = 0.5 * np.arctan2(sin2t, cos2t)
            expected = np.pi / 2.0 - phi / 2.0
            delta = (theta - expected) % np.pi
            assert min(delta, np.pi - delta) < 1e-10


class TestCurvature:
    def test_antisymmetry_first_pair(self):
        rng = np.random.default_rng(8)
        p = random_stiefel(3, rng)
        g = StructureGauge(0.0)
        x = random_horizontal(p, rng)
        z = random_horizontal(p, rng)
        r = quadric_curvature(g, x, x, z)
        assert np.abs(r.w).max() < 1e-10

    def test_first_bianchi(self):
        rng = np.random.default_rng(9)
        p = random_stiefel(3, rng)
        g = StructureGauge(0.3)
        x, y, z = (random_horizontal(p, rng, unit=True) for _ in range(3))
        cyc = (
            quadric_curvature(g, x, y, z).w
            + quadric_curvature(g, y, z, x).w
            + quadric_curvature(g, z, x, y).w
        )
        assert np.abs(cyc).max() < 1e-9

    def test_pair_symmetry(self):
        rng = np.random.default_rng(10)
        p = random_stiefel(3, rng)
        g = StructureGauge(0.0)
        x, y, z, w = (random_horizontal(p, rng, unit=True) for _ in range(4))
        lhs = metric(quadric_curvature(g, x, y, z), w)
        rhs = metric(quadric_curvature(g, z, w, x), y)
        assert abs(lhs - rhs) < 1e-9

    def test_gauge_independence(self):
        rng = np.random.default_rng(11)
        p = random_stiefel(3, rng)
        x, y, z = (random_horizontal(p, rng, unit=True) for _ in range(3))
        r0 = quadric_curvature(StructureGauge(0.0), x, y, z)
        r1 = quadric_curvature(StructureGauge(0.7), x, y, z)
        assert np.abs(r0.w - r1.w).max() < 1e-10

    def test_mismatched_base_points_raise(self):
        rng = np.random.default_rng(12)
        p1 = random_stiefel(3, rng)
        p2 = random_stiefel(3, rng)
        x = random_horizontal(p1, rng)
        y = random_horizontal(p2, rng)
        with pytest.raises(GeometryError):
            quadric_curvature(StructureGauge(0.0), x, y, x)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_einstein_constant(self, n):
        rng = np.random.default_rng(100 + n)
        p = random_stiefel(n, rng)
        ric = ricci_matrix(StructureGauge(0.0), p)
        assert np.abs(ric - 2 * n * np.eye(2 * n)).max() < 1e-8


def test_quadric_distance_phase_invariant():
    rng = np.random.default_rng(13)
    p = random_stiefel(3, rng)
    rotated = StiefelPoint.from_complex(np.exp(1j * 0.8) * p.z)
    assert quadric_distance(p, rotated) < 1e-7
    q = random_stiefel(3, rng)
    assert quadric_distance(p, q) > 0.1
