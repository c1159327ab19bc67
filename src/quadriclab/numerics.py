"""Small dense numerics: symmetric eigensolver, orthonormalization, finite-difference stencils.

Everything here operates on plain numpy arrays (float or complex) and is pure:
no global state, safe to call concurrently. Matrices are small (n <= 32), so a
cyclic Jacobi sweep is both adequate and easy to reason about; we deliberately
avoid LAPACK so that convergence failures surface as explicit diagnostics.
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
    "first_derivative",
    "second_derivative",
    "mixed_derivative",
]


class NumericsError(Exception):
    """Base class for numerical-kernel failures."""


class ConvergenceError(NumericsError):
    """Jacobi iteration did not reach the off-diagonal target."""


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


def symmetric_eigen(
    m: np.ndarray, max_sweeps: int = 100, tol: float = 1e-14
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvector columns). The rotation loop
    drives the off-diagonal Frobenius mass below tol * ||m||; residuals
    m @ v - lam * v then sit near machine precision for n <= 32.

    Raises ConvergenceError naming the matrix if max_sweeps are exhausted.
    """
    a = symmetrize(m)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if not np.all(np.isfinite(a)):
        raise NumericsError("symmetric_eigen: matrix has non-finite entries")
    v = np.eye(n)
    norm = np.linalg.norm(a)
    target = tol * max(norm, 1e-300)
    converged = norm == 0.0
    for _ in range(max_sweeps):
        off_diag = a - np.diag(np.diag(a))
        off = np.linalg.norm(off_diag)
        if off <= target:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = -np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, -s], [s, c]])
                a[[p, q], :] = rot.T @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot
                v[:, [p, q]] = v[:, [p, q]] @ rot
    else:
        if not converged:
            raise ConvergenceError(
                f"Jacobi eigensolver failed to converge after {max_sweeps} sweeps "
                f"on\n{np.asarray(m)}"
            )
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    # fix column signs for reproducibility
    for k in range(n):
        j = int(np.argmax(np.abs(v[:, k])))
        if v[j, k] < 0:
            v[:, k] = -v[:, k]
    return w, v


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


def first_derivative(f, p, v, h: float, order: int = 4) -> np.ndarray:
    """Directional derivative of f at p along v (order 2 or 4 stencil)."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if order == 2:
        return (_eval(f, p + h * v) - _eval(f, p - h * v)) / (2.0 * h)
    fp1 = _eval(f, p + h * v)
    fm1 = _eval(f, p - h * v)
    fp2 = _eval(f, p + 2 * h * v)
    fm2 = _eval(f, p - 2 * h * v)
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)


def second_derivative(f, p, v, h: float, order: int = 4) -> np.ndarray:
    """Second directional derivative along one direction v."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    f0 = _eval(f, p)
    fp1 = _eval(f, p + h * v)
    fm1 = _eval(f, p - h * v)
    if order == 2:
        return (fp1 - 2.0 * f0 + fm1) / h**2
    fp2 = _eval(f, p + 2 * h * v)
    fm2 = _eval(f, p - 2 * h * v)
    return (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h**2)


def _corner(f, p, u, v, h):
    return (
        _eval(f, p + h * (u + v))
        - _eval(f, p + h * (u - v))
        - _eval(f, p - h * (u - v))
        + _eval(f, p - h * (u + v))
    ) / (4.0 * h**2)


def mixed_derivative(f, p, u, v, h: float, order: int = 4) -> np.ndarray:
    """Mixed second derivative d^2 f / (du dv); order 4 uses Richardson."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c_h = _corner(f, p, u, v, h)
    if order == 2:
        return c_h
    c_h2 = _corner(f, p, u, v, 0.5 * h)
    return (4.0 * c_h2 - c_h) / 3.0
