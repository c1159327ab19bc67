import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadriclab.numerics import (
    ConvergenceError,
    NumericsError,
    RankDeficiencyError,
    first_derivative,
    gram_schmidt,
    mixed_derivative,
    second_derivative,
    spd_solve,
    symmetric_eigen,
    symmetrize,
)


class TestSymmetricEigen:
    def test_identity(self):
        w, v = symmetric_eigen(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        w, v = symmetric_eigen(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(w, [-1.0, 2.0, 3.0])
        # permuted standard basis
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_round_trip_random_4x4(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 4))
        m = m + m.T
        w, v = symmetric_eigen(m)
        assert np.linalg.norm(v @ np.diag(w) @ v.T - m) < 1e-10
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-12)

    def test_eigen_residual(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        w, v = symmetric_eigen(m)
        for k in range(6):
            assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) < 1e-10 * np.linalg.norm(m)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n)) * rng.uniform(0.05, 50.0)
        m = m + m.T
        w, v = symmetric_eigen(m)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.linalg.norm(v @ np.diag(w) @ v.T - m) < 1e-10 * (
            1.0 + np.linalg.norm(m)
        )

    def test_rejects_asymmetric(self):
        with pytest.raises(NumericsError):
            symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_convergence_error_names_matrix(self):
        m = np.diag([1.0, 2.0, 3.0]) + 0.3
        m = symmetrize(m)
        with pytest.raises(ConvergenceError) as err:
            symmetric_eigen(m, max_sweeps=0)
        assert "sweeps" in str(err.value)


class TestGramSchmidt:
    def test_standard_basis_fixed(self):
        basis = np.eye(4)
        np.testing.assert_allclose(gram_schmidt(basis), basis, atol=1e-15)

    def test_forced_result(self):
        out = gram_schmidt([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        np.testing.assert_allclose(out[0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(out[1], [0.0, 1.0], atol=1e-15)

    def test_gram_matrix_identity(self):
        rng = np.random.default_rng(5)
        vs = rng.standard_normal((5, 8))
        out = gram_schmidt(vs)
        np.testing.assert_allclose(out @ out.T, np.eye(5), atol=1e-12)

    def test_span_preserved(self):
        rng = np.random.default_rng(9)
        vs = rng.standard_normal((3, 6))
        out = gram_schmidt(vs)
        # every output vector must be a combination of the inputs
        coeffs, *_ = np.linalg.lstsq(vs.T, out.T, rcond=None)
        np.testing.assert_allclose(vs.T @ coeffs, out.T, atol=1e-10)

    def test_rank_deficiency_carries_spectrum(self):
        v = np.array([1.0, 2.0, 0.0])
        with pytest.raises(RankDeficiencyError) as err:
            gram_schmidt([v, 2.0 * v])
        assert err.value.gram_spectrum.shape == (2,)
        assert err.value.gram_spectrum[0] < 1e-10


class TestSpdSolve:
    def test_solves(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        a = a @ a.T + 0.5 * np.eye(4)
        b = rng.standard_normal(4)
        x = spd_solve(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(RankDeficiencyError):
            spd_solve(np.diag([1.0, -1.0]), np.ones(2))


E0, E1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])


class TestCentralDiffJet:
    """Central-difference jets: the first, second and mixed derivative stencils."""

    def test_square_function(self):
        f = lambda x: np.array([x[0] ** 2])
        p, e = np.array([1.0]), np.array([1.0])
        assert abs(first_derivative(f, p, e, 1e-4)[0] - 2.0) < 1e-7
        assert abs(second_derivative(f, p, e, 1e-4)[0] - 2.0) < 1e-4

    def test_linear_has_zero_second(self):
        f = lambda x: np.array([3.0 * x[0] - 2.0 * x[1]])
        p = np.array([0.4, -0.3])
        seconds = [
            second_derivative(f, p, E0, 1e-4),
            second_derivative(f, p, E1, 1e-4),
            mixed_derivative(f, p, E0, E1, 1e-4),
        ]
        # roundoff floor of second differences is ~eps/h^2
        assert np.abs(seconds).max() < 1e-7

    def test_closed_form_partials(self):
        # f(x, y) = sin x cos y against its analytic first and second partials
        def f(x):
            return np.array([math.sin(x[0]) * math.cos(x[1])])

        p = np.array([0.3, 0.7])
        sx, cx = math.sin(0.3), math.cos(0.3)
        sy, cy = math.sin(0.7), math.cos(0.7)
        assert abs(first_derivative(f, p, E0, 1e-4)[0] - cx * cy) < 1e-6
        assert abs(first_derivative(f, p, E1, 1e-4)[0] + sx * sy) < 1e-6
        assert abs(second_derivative(f, p, E0, 1e-4)[0] + sx * cy) < 1e-6
        assert abs(mixed_derivative(f, p, E0, E1, 1e-4)[0] + cx * sy) < 1e-6
        assert abs(second_derivative(f, p, E1, 1e-4)[0] + sx * cy) < 1e-6

    def test_mixed_second_symmetric(self):
        def f(x):
            return np.array([np.exp(x[0] * x[1]) + x[0] ** 3])

        p = np.array([0.2, 0.5])
        defect = np.abs(
            mixed_derivative(f, p, E0, E1, 1e-4) - mixed_derivative(f, p, E1, E0, 1e-4)
        ).max()
        assert defect < 10 * 1e-8 * (1 + np.abs(f(p)).max())

    def test_convergence_order(self):
        # halving h shrinks the second-order first-derivative error by at least 3x
        def f(x):
            return np.array([math.sin(x[0])])

        p = np.array([0.9])
        exact = math.cos(0.9)
        errs = [
            abs(first_derivative(f, p, np.array([1.0]), h, order=2)[0] - exact)
            for h in (2e-3, 1e-3)
        ]
        assert errs[0] / errs[1] >= 3.0

    def test_non_finite_raises(self):
        from quadriclab.numerics import StencilError

        def f(x):
            with np.errstate(divide="ignore"):
                return np.array([1.0 / x[0]])

        with pytest.raises(StencilError):
            second_derivative(f, np.array([0.0]), np.array([1.0]), 1e-4)


def test_fourth_order_first_derivative():
    f = lambda x: np.array([math.exp(x[0])])
    d = first_derivative(f, np.array([0.3]), np.array([1.0]), 1e-3, order=4)
    assert abs(d[0] - math.exp(0.3)) < 1e-12
