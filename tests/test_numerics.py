import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadriclab import numerics
from quadriclab.numerics import (
    ConvergenceError,
    NumericsError,
    StencilError,
    axis_stencil,
    central_first,
    central_second,
    hessian_stencil,
    second_derivative,
    stencil_values,
    symmetric_eigen,
    symmetrize,
)
from references import ref_symmetric_eigen


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


def _symmetric(rng, shape):
    m = rng.standard_normal(shape)
    return m + m.swapaxes(-1, -2)


def _degenerate(rng, spectrum):
    q, _ = np.linalg.qr(rng.standard_normal((len(spectrum), len(spectrum))))
    return (q * spectrum) @ q.T


def _outcome(solve, m):
    try:
        return solve(m)
    except NumericsError as exc:
        return type(exc), str(exc)


class TestEigenTwin:
    """symmetric_eigen against its twin from before the fast path: bitwise (w, v), the same errors in the same order."""

    rng = np.random.default_rng(25)
    CASES = {
        "random-3x3": _symmetric(rng, (3, 3)),
        "random-stack": _symmetric(rng, (12, 3, 3)),
        "random-2d-stack": _symmetric(rng, (2, 5, 4, 4)),
        "random-6x6-stack": _symmetric(rng, (4, 6, 6)) * 40.0,
        "1x1": np.array([[-2.5]]),
        "repeated-eigenvalue": _degenerate(rng, [1.0, 1.0, 2.0]),
        "triple-eigenvalue-stack": np.stack([_degenerate(rng, [0.5, 0.5, 0.5]), _degenerate(rng, [-1.0, 3.0, 3.0])]),
        "zero": np.zeros((3, 3)),
        "identity": np.eye(4),
        "ones-blocks": np.kron(np.eye(3), np.ones((2, 2))),
        "ones-2x2-stack": np.stack([np.ones((2, 2)), -np.ones((2, 2)), 2.0 * np.eye(2)]),
        "k=0": np.zeros((0, 0)),
        "k=0-stack": np.zeros((5, 0, 0)),
        "empty-stack": np.zeros((0, 3, 3)),
        "nested-list": [[2.0, 1.0], [1.0, 2.0]],
    }

    @pytest.mark.parametrize("name", CASES)
    def test_bitwise_twin(self, name):
        m = self.CASES[name]
        w, v = symmetric_eigen(m)
        w_ref, v_ref = ref_symmetric_eigen(m)
        for got, want in ((w, w_ref), (v, v_ref)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_bitwise_twin_random_stacks(self, seed, k):
        rng = np.random.default_rng(seed)
        m = _symmetric(rng, (int(rng.integers(1, 6)), k, k)) * rng.uniform(1e-3, 1e3)
        w, v = symmetric_eigen(m)
        w_ref, v_ref = ref_symmetric_eigen(m)
        assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()

    @pytest.mark.parametrize("name", ["random-stack", "random-2d-stack", "triple-eigenvalue-stack", "ones-2x2-stack"])
    def test_stack_matches_separate_solves(self, name):
        m = self.CASES[name]
        w, v = symmetric_eigen(m)
        for idx in np.ndindex(m.shape[:-2]):
            w1, v1 = symmetric_eigen(m[idx])
            assert w[idx].tobytes() == w1.tobytes() and v[idx].tobytes() == v1.tobytes()

    ASYMMETRIC = np.array([[0.0, 1.0], [0.0, 0.0]])
    NAN = np.array([[np.nan, 0.0], [0.0, 1.0]])
    ERRORS = {
        "asymmetric-stack": np.stack([np.eye(2), ASYMMETRIC, 2.0 * ASYMMETRIC]),
        "nan": NAN,
        "inf": np.array([[1.0, 0.0], [0.0, np.inf]]),
        "nan-stack": np.stack([np.eye(2), NAN]),
        # the asymmetry check runs over the whole stack before the finiteness check
        "nan-then-asymmetric": np.stack([NAN, ASYMMETRIC]),
        "asymmetric-then-nan": np.stack([ASYMMETRIC, NAN]),
        # finite entries whose sum m + m^T overflows
        "overflowing-sum": np.full((2, 2), 1.7e308),
    }

    @pytest.mark.parametrize("name", ERRORS)
    def test_errors_match_twin(self, name):
        m = self.ERRORS[name]
        # an infinite entry or an overflowing sum warns on the way, in both
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, want = _outcome(symmetric_eigen, m), _outcome(ref_symmetric_eigen, m)
        assert isinstance(got, tuple) and got == want
        kind = "not symmetric" if "asymmetric" in name else "non-finite"
        assert got[0] is NumericsError and kind in got[1]

    def test_convergence_error_matches_twin(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(a):
            # eigenvalues off by 1e-6 on the matrices whose first entry exceeds 1.5
            w, v = eigh(a)
            return w + 1e-6 * (a[..., 0, 0] > 1.5)[..., None], v

        monkeypatch.setattr(numerics.np.linalg, "eigh", perturbed)
        # the second and third matrices fail; the error names the second
        m = np.stack([np.eye(3), 2.0 * np.eye(3) + 0.1, 3.0 * np.eye(3)])
        got = _outcome(symmetric_eigen, m)
        assert got == _outcome(ref_symmetric_eigen, m)
        assert got[0] is ConvergenceError and str(m[1]) in got[1]


def first_jet(f, p, h):
    """Coordinate first derivatives of f at p, as an (n, ...) array, from the layer."""
    return central_first(*axis_stencil(f, p, h, (2.0, 1.0, -1.0, -2.0)), h)


def second_jet(f, p, h):
    """Coordinate second derivatives of f at p, with f0 and the stencil values from the layer."""
    p = np.asarray(p, dtype=float)
    at, corners = hessian_stencil(f, p, h, (2.0, 1.0, -1.0, -2.0))
    return second_derivative(h, stencil_values(f, p), at, corners)


# Stencil functions take a batch of points (..., n) and return (..., 1).


class TestCentralDiffJet:
    """Central-difference jets: the first, second and mixed derivative stencils."""

    def test_square_function(self):
        f = lambda x: x[..., :1] ** 2
        p = np.array([1.0])
        assert abs(first_jet(f, p, 1e-4)[0, 0] - 2.0) < 1e-7
        assert abs(second_jet(f, p, 1e-4)[0, 0, 0] - 2.0) < 1e-4

    def test_linear_has_zero_second(self):
        f = lambda x: 3.0 * x[..., :1] - 2.0 * x[..., 1:2]
        p = np.array([0.4, -0.3])
        # diagonal and mixed entries; roundoff floor of second differences is ~eps/h^2
        assert np.abs(second_jet(f, p, 1e-4)).max() < 1e-7

    def test_closed_form_partials(self):
        # f(x, y) = sin x cos y against its analytic first and second partials
        def f(x):
            return np.sin(x[..., :1]) * np.cos(x[..., 1:2])

        p = np.array([0.3, 0.7])
        sx, cx = math.sin(0.3), math.cos(0.3)
        sy, cy = math.sin(0.7), math.cos(0.7)
        d2 = second_jet(f, p, 1e-4)
        d1 = first_jet(f, p, 1e-4)
        assert abs(d1[0, 0] - cx * cy) < 1e-6
        assert abs(d1[1, 0] + sx * sy) < 1e-6
        assert abs(d2[0, 0, 0] + sx * cy) < 1e-6
        assert abs(d2[0, 1, 0] + cx * sy) < 1e-6
        assert abs(d2[1, 1, 0] + sx * cy) < 1e-6

    def test_mixed_second_symmetric(self):
        def f(x):
            return np.exp(x[..., :1] * x[..., 1:2]) + x[..., :1] ** 3

        p = np.array([0.2, 0.5])
        d2 = second_jet(f, p, 1e-4)
        assert np.array_equal(d2[0, 1], d2[1, 0])
        # the corner rule with the two directions swapped: the same points,
        # with the +- and -+ corners exchanged
        swapped = second_jet(lambda x: f(x[..., ::-1]), p[::-1], 1e-4)
        defect = np.abs(d2[0, 1] - swapped[0, 1]).max()
        assert defect < 10 * 1e-8 * (1 + np.abs(f(p)).max())

    def test_convergence_order(self):
        # halving h shrinks the fourth-order first-derivative error by at least 12x
        def f(x):
            return np.sin(x[..., :1])

        p = np.array([0.9])
        exact = math.cos(0.9)
        errs = [
            abs(first_jet(f, p, h)[0, 0] - exact)
            for h in (2e-2, 1e-2)
        ]
        assert errs[0] / errs[1] >= 12.0

    def test_non_finite_raises(self):
        def f(x):
            with np.errstate(divide="ignore"):
                return 1.0 / x[..., :1]

        with pytest.raises(StencilError):
            second_jet(f, np.array([0.0]), 1e-4)


class TestStencilLayer:
    """stencil_values is the one evaluation and finiteness guard of every stencil."""

    def test_axis_stencil_layout(self):
        f = lambda x: x * np.array([1.0, 10.0, 100.0])
        p = np.array([0.1, 0.2, 0.3])
        at = axis_stencil(f, p, 0.5, (2.0, 1.0, -1.0))
        assert at.shape == (3, 3, 3)
        for k, c in enumerate((2.0, 1.0, -1.0)):
            for a in range(3):
                assert np.array_equal(at[k, a], f(p + c * 0.5 * np.eye(3)[a]))

    def test_axis_stencil_is_one_call(self):
        seen = []
        axis_stencil(lambda x: seen.append(x.copy()) or x[..., 0], np.zeros(2), 1.0, (1.0, -1.0))
        # offset, axis, coordinates
        assert len(seen) == 1
        assert np.array_equal(seen[0], [[[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]]])

    def test_axis_stencil_of_a_batch(self):
        # a batch of base points sits between the offset and the axis index
        f = lambda x: x * np.array([1.0, 10.0])
        p = np.array([[[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]])
        at = axis_stencil(f, p, 0.5, (2.0, -1.0))
        assert at.shape == (2, 1, 3, 2, 2)
        for k, c in enumerate((2.0, -1.0)):
            for i in range(3):
                for a in range(2):
                    want = axis_stencil(f, p[0, i], 0.5, (2.0, -1.0))[k, a]
                    assert np.array_equal(at[k, 0, i, a], want)

    def test_one_dimension_has_no_mixed_points(self):
        seen = []
        f = lambda x: seen.append(x.copy()) or x[..., :1] ** 2
        at, corners = hessian_stencil(f, np.array([0.5]), 1e-3, (2.0, 1.0, -1.0, -2.0))
        d2 = second_derivative(1e-3, np.array([0.25]), at, corners)
        assert d2.shape == (1, 1, 1) and corners.size == 0
        # the one call holds the four axis points only
        assert len(seen) == 1 and seen[0].shape == (4, 1)

    def test_second_derivative_dtype_follows_values(self):
        f = lambda x: np.exp(1j * x[..., :1]) * x[..., 1:2] ** 2
        d2 = second_jet(f, np.array([0.2, 0.4]), 1e-3)
        assert d2.dtype == complex and d2.shape == (2, 2, 1)
        assert abs(d2[1, 1, 0] - 2.0 * np.exp(0.2j)) < 1e-6
        assert abs(d2[0, 1, 0] - 2j * 0.4 * np.exp(0.2j)) < 1e-6

    def test_non_finite_point_never_reaches_f(self):
        calls = []
        with pytest.raises(StencilError, match="nan"):
            stencil_values(lambda x: calls.append(x) or 0.0, [[0.0], [np.nan], [1.0]])
        assert calls == []

    def test_non_finite_value_names_its_point(self):
        with pytest.raises(StencilError, match=r"\[2\.5\]"):
            stencil_values(lambda x: np.where(x == 2.5, np.inf, 1.0), [[1.0], [2.5]])

    def test_overflow_is_a_non_finite_value(self):
        # numpy's overflow (FloatingPointError here) and Python's OverflowError
        with pytest.raises(StencilError):
            stencil_values(lambda x: 10.0 ** x[..., 0], [[1.0], [1e5]])
        with pytest.raises(StencilError):
            stencil_values(lambda x: np.array([10.0 ** float(v) for v in x[..., 0]]), [[1.0], [1e5]])

    # at [inf] and [inf, 0] the math kernels raised ValueError: math domain error
    def test_first_derivative_at_infinity(self):
        f = lambda x: np.cos(x[..., :1])
        with pytest.raises(StencilError):
            first_jet(f, np.array([np.inf]), 1e-4)

    def test_second_derivative_at_infinity(self):
        f = lambda x: np.cos(x[..., :1]) * np.cos(x[..., 1:2])
        p = np.array([np.inf, 0.0])
        with pytest.raises(StencilError):
            axis_stencil(f, p, 1e-4, (2.0, 1.0, -1.0, -2.0))
        # the mixed corners are guarded with the axis points
        with pytest.raises(StencilError):
            hessian_stencil(f, p, 1e-4, (2.0, 1.0, -1.0, -2.0))


def test_fourth_order_first_derivative():
    f = lambda x: np.exp(x[..., :1])
    d = first_jet(f, np.array([0.3]), 1e-3)
    assert abs(d[0, 0] - math.exp(0.3)) < 1e-12


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
