"""Small dense numerics: symmetric eigensolver, orthonormalization, finite-difference stencils.

Everything here operates on plain numpy arrays (float or complex) and is pure:
no global state, safe to call concurrently. The eigensolver is LAPACK's
(np.linalg.eigh) behind explicit diagnostics: a finiteness check, a residual
check that names the matrix, ascending eigenvalues and a deterministic
column-sign rule. The five-point weights live only in central_first and
central_second; the mixed derivative extrapolates a four-point corner rule.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumericsError",
    "ConvergenceError",
    "RankDeficiencyError",
    "StencilError",
    "symmetrize",
    "symmetric_eigen",
    "spd_solve",
    "gram_schmidt",
    "axis",
    "central_first",
    "central_second",
    "first_derivative",
    "second_derivative",
    "mixed_derivative",
]


class NumericsError(Exception):
    """Base class for numerical-kernel failures."""


class ConvergenceError(NumericsError):
    """An eigendecomposition failed its residual check ||A V - V diag(w)||."""


class RankDeficiencyError(NumericsError):
    """Input vectors are numerically dependent; carries the Gram spectrum."""

    def __init__(self, message: str, gram_spectrum: np.ndarray):
        super().__init__(message)
        self.gram_spectrum = gram_spectrum


class StencilError(NumericsError):
    """A finite-difference stencil produced a non-finite value."""


def symmetrize(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Return (m + m.T)/2 after checking the asymmetry defect against tol.

    tol is absolute relative to the matrix scale (1 + max |entry|).
    """
    m = np.asarray(m, dtype=float)
    scale = 1.0 + np.abs(m).max(initial=0.0)
    defect = np.abs(m - m.T).max(initial=0.0)
    if defect > tol * scale:
        raise NumericsError(
            f"matrix is not symmetric: asymmetry defect {defect:.3e} exceeds "
            f"{tol:.1e} * scale"
        )
    return 0.5 * (m + m.T)


def symmetric_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix (LAPACK, residual-checked).

    Returns (eigenvalues ascending, eigenvector columns), each column signed
    so that its largest-magnitude entry is positive.

    Raises NumericsError on non-finite entries and ConvergenceError naming
    the matrix if ||m v - v lam||_F exceeds 1e-10 (1 + ||m||_F).
    """
    a = symmetrize(m)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if not np.all(np.isfinite(a)):
        raise NumericsError("symmetric_eigen: matrix has non-finite entries")
    w, v = np.linalg.eigh(a)
    residual = np.linalg.norm(a @ v - v * w)
    if not residual <= 1e-10 * (1.0 + np.linalg.norm(a)):
        raise ConvergenceError(
            f"symmetric_eigen: residual {residual:.3e} exceeds 1e-10 * (1 + ||m||) "
            f"on\n{np.asarray(m)}"
        )
    # fix column signs for reproducibility
    cols = np.arange(n)
    signs = np.where(v[np.argmax(np.abs(v), axis=0), cols] < 0, -1.0, 1.0)
    return w, v * signs


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive-definite a via the eigensolver."""
    w, v = symmetric_eigen(a)
    if w[0] <= 0.0:
        raise RankDeficiencyError(
            f"spd_solve: matrix is not positive definite (spectrum {w})", w
        )
    b = np.asarray(b, dtype=float)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    x = v @ ((v.T @ b) / w[:, None])
    return x[:, 0] if squeeze else x


def gram_schmidt(vectors, dependence_tol: float = 1e-10) -> np.ndarray:
    """Orthonormalize a sequence of real vectors, preserving span and order.

    Runs two modified Gram-Schmidt passes (the second mops up cancellation) so
    pairwise inner products land below 1e-12. A rank check on the Gram matrix
    precedes the sweep; dependent input raises RankDeficiencyError carrying the
    Gram spectrum.
    """
    vs = np.array([np.asarray(v, dtype=float) for v in vectors])
    if vs.ndim != 2:
        raise NumericsError("gram_schmidt expects a sequence of 1-d vectors")
    gram = vs @ vs.T
    spectrum, _ = symmetric_eigen(gram)
    if spectrum[0] <= dependence_tol:
        raise RankDeficiencyError(
            f"gram_schmidt: input is numerically rank-deficient "
            f"(smallest Gram eigenvalue {spectrum[0]:.3e})",
            spectrum,
        )
    out = vs.copy()
    for _ in range(2):
        for i in range(len(out)):
            for j in range(i):
                out[i] -= (out[i] @ out[j]) * out[j]
            out[i] /= np.linalg.norm(out[i])
    return out


def _eval(f, x) -> np.ndarray:
    y = np.asarray(f(np.asarray(x, dtype=float)))
    if not np.all(np.isfinite(y)):
        raise StencilError(f"non-finite value on stencil point {np.asarray(x)}")
    return y


def axis(n: int, i: int) -> np.ndarray:
    """The i-th coordinate unit vector of R^n."""
    e = np.zeros(n)
    e[i] = 1.0
    return e


def central_first(fp2, fp1, fm1, fm2, h: float):
    """Five-point first derivative from samples at +2h, +h, -h, -2h (order 4)."""
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)


def central_second(fp2, fp1, f0, fm1, fm2, h: float):
    """Five-point second derivative from samples at +2h, +h, 0, -h, -2h (order 4)."""
    return (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h**2)


def first_derivative(f, p, v, h: float) -> np.ndarray:
    """Directional derivative of f at p along v (order 4)."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    return central_first(
        _eval(f, p + 2 * h * v), _eval(f, p + h * v),
        _eval(f, p - h * v), _eval(f, p - 2 * h * v), h,
    )


def second_derivative(f, p, v, h: float) -> np.ndarray:
    """Second directional derivative along one direction v (order 4)."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    return central_second(
        _eval(f, p + 2 * h * v), _eval(f, p + h * v), _eval(f, p),
        _eval(f, p - h * v), _eval(f, p - 2 * h * v), h,
    )


def _corner(f, p, u, v, h):
    return (
        _eval(f, p + h * (u + v))
        - _eval(f, p + h * (u - v))
        - _eval(f, p - h * (u - v))
        + _eval(f, p - h * (u + v))
    ) / (4.0 * h**2)


def mixed_derivative(f, p, u, v, h: float) -> np.ndarray:
    """Mixed second derivative d^2 f / (du dv): Richardson over steps h and h/2 (order 4)."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (4.0 * _corner(f, p, u, v, 0.5 * h) - _corner(f, p, u, v, h)) / 3.0
