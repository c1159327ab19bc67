import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadriclab import numerics
from quadriclab.numerics import (
    ConvergenceError,
    NumericsError,
    RankDeficiencyError,
    central_first,
    central_second,
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

    def test_convergence_error_names_matrix(self, monkeypatch):
        m = np.diag([1.0, 2.0, 3.0]) + 0.3
        m = symmetrize(m)
        eigh = np.linalg.eigh

        def perturbed(a):
            w, v = eigh(a)
            return w + 1e-6, v

        monkeypatch.setattr(numerics.np.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceError) as err:
            symmetric_eigen(m)
        assert "residual" in str(err.value)
        assert str(m) in str(err.value)

    def test_column_sign_rule(self, monkeypatch):
        # the largest-magnitude entry of every column is positive, whatever
        # signs the underlying solver returns
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 5))
        m = m + m.T
        w, v = symmetric_eigen(m)
        cols = np.arange(5)
        assert np.all(v[np.argmax(np.abs(v), axis=0), cols] > 0)
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            numerics.np.linalg, "eigh", lambda a: (eigh(a)[0], -eigh(a)[1])
        )
        w_flipped, v_flipped = symmetric_eigen(m)
        np.testing.assert_array_equal(w_flipped, w)
        np.testing.assert_array_equal(v_flipped, v)


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
        # halving h shrinks the fourth-order first-derivative error by at least 12x
        def f(x):
            return np.array([math.sin(x[0])])

        p = np.array([0.9])
        exact = math.cos(0.9)
        errs = [
            abs(first_derivative(f, p, np.array([1.0]), h)[0] - exact)
            for h in (2e-2, 1e-2)
        ]
        assert errs[0] / errs[1] >= 12.0

    def test_non_finite_raises(self):
        from quadriclab.numerics import StencilError

        def f(x):
            with np.errstate(divide="ignore"):
                return np.array([1.0 / x[0]])

        with pytest.raises(StencilError):
            second_derivative(f, np.array([0.0]), np.array([1.0]), 1e-4)


def test_fourth_order_first_derivative():
    f = lambda x: np.array([math.exp(x[0])])
    d = first_derivative(f, np.array([0.3]), np.array([1.0]), 1e-3)
    assert abs(d[0] - math.exp(0.3)) < 1e-12


@given(
    st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
    st.floats(-1.0, 1.0),
    st.floats(1e-3, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_five_point_rules_exact_on_quartics(coeffs, x, h):
    # both rules are exact on polynomials of degree <= 4, so only round-off
    # of the samples (scaled by the rule's weights over h^k) remains
    quartic = np.polynomial.Polynomial(coeffs)
    f = [quartic(x + k * h) for k in (2, 1, 0, -1, -2)]
    scale = 1.0 + max(abs(v) for v in f)
    eps = np.finfo(float).eps
    d1 = central_first(f[0], f[1], f[3], f[4], h)
    d2 = central_second(*f, h)
    assert abs(d1 - quartic.deriv(1)(x)) <= 64 * eps * scale / h
    assert abs(d2 - quartic.deriv(2)(x)) <= 256 * eps * scale / h**2
