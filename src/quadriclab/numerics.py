"""Small dense numerics: symmetric eigensolver, orthonormalization, finite-difference stencils.

Everything here operates on plain numpy arrays (float or complex) and is pure:
no global state, safe to call concurrently. The eigensolver and the
orthonormalization take one matrix or a stack (..., k, k) of them and check
each matrix on its own. The eigensolver is LAPACK's (np.linalg.eigh) behind
explicit diagnostics: a finiteness check, a residual check that names the
matrix, ascending eigenvalues and a deterministic column-sign rule. Every
stencil passes its whole point set, an array of shape (..., n), to
stencil_values, which calls the stencil function once on it and is the one
finiteness guard. The five-point weights live only in
central_first and central_second; the mixed derivative extrapolates a
four-point corner rule.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumericsError",
    "ConvergenceError",
    "RankDeficiencyError",
    "StencilError",
    "flagged_row",
    "symmetrize",
    "symmetric_eigen",
    "spd_solve",
    "eigen_solve",
    "gram_schmidt",
    "axis",
    "central_first",
    "central_second",
    "stencil_values",
    "axis_stencil",
    "hessian_stencil",
    "first_derivative",
    "second_derivative",
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


def flagged_row(flags, *arrays):
    """Each array at the first set flag (C order) of a batch of flags, or None when none is set.

    flags has the batch shape of the arrays, and () for a single item, which
    then comes back whole.
    """
    flags = np.asarray(flags)
    if not flags.any():
        return None
    k = np.unravel_index(np.argmax(flags), flags.shape)
    return tuple(np.asarray(a)[k] for a in arrays)


def symmetrize(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Return (m + m^T)/2 after checking each matrix's asymmetry defect against tol.

    m is a matrix or a stack (..., k, k); tol is relative to each matrix's
    scale (1 + max |entry|).
    """
    m = np.asarray(m, dtype=float)
    mt = m.swapaxes(-1, -2)
    scale = 1.0 + np.abs(m).max(axis=(-2, -1), initial=0.0)
    defect = np.abs(m - mt).max(axis=(-2, -1), initial=0.0)
    bad = flagged_row(defect > tol * scale, defect)
    if bad:
        raise NumericsError(
            f"matrix is not symmetric: asymmetry defect {bad[0]:.3e} exceeds "
            f"{tol:.1e} * scale"
        )
    return 0.5 * (m + mt)


def symmetric_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix or a stack of them (LAPACK, residual-checked).

    Returns (eigenvalues ascending, eigenvector columns), each column signed
    so that its largest-magnitude entry is positive; a stack (..., k, k)
    gives (..., k) and (..., k, k).

    Each matrix is checked on its own: NumericsError on non-finite entries,
    and ConvergenceError naming the first matrix whose ||m v - v lam||_F
    exceeds 1e-10 (1 + ||m||_F).
    """
    a = symmetrize(m)
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1]), np.zeros(a.shape)
    bad = flagged_row(~np.isfinite(a).all(axis=(-2, -1)), m)
    if bad:
        raise NumericsError(f"symmetric_eigen: matrix has non-finite entries:\n{bad[0]}")
    w, v = np.linalg.eigh(a)
    residual = np.linalg.norm(a @ v - v * w[..., None, :], axis=(-2, -1))
    bad = flagged_row(~(residual <= 1e-10 * (1.0 + np.linalg.norm(a, axis=(-2, -1)))), residual, m)
    if bad:
        raise ConvergenceError(
            f"symmetric_eigen: residual {bad[0]:.3e} exceeds 1e-10 * (1 + ||m||) "
            f"on\n{bad[1]}"
        )
    # fix column signs for reproducibility
    top = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    return w, v * np.where(top < 0, -1.0, 1.0)


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive-definite a via the eigensolver."""
    return eigen_solve(symmetric_eigen(a), b)


def eigen_solve(eigen: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b from the symmetric_eigen pair (w, v) of positive-definite a, or of a stack of them.

    b is a vector or a matrix per matrix a.
    """
    w, v = eigen
    bad = flagged_row(w[..., 0] <= 0.0, w)
    if bad:
        raise RankDeficiencyError(
            f"spd_solve: matrix is not positive definite (spectrum {bad[0]})", bad[0]
        )
    b = np.asarray(b, dtype=float)
    squeeze = b.ndim == w.ndim
    if squeeze:
        b = b[..., None]
    x = v @ ((v.swapaxes(-1, -2) @ b) / w[..., None])
    return x[..., 0] if squeeze else x


def gram_schmidt(vectors, dependence_tol: float = 1e-10) -> np.ndarray:
    """Orthonormalize a sequence of real vectors, preserving span and order.

    vectors is (k, d) or a stack (..., k, d) of sequences, each on its own.
    Runs two modified Gram-Schmidt passes (the second mops up cancellation)
    so pairwise inner products land below 1e-12; they are matrix products,
    which round as 1-d dot products do. A rank check on each Gram matrix
    precedes the sweep; dependent input raises RankDeficiencyError carrying
    the Gram spectrum of the most nearly dependent sequence, and non-finite
    input raises NumericsError.

    The rank check is a Cholesky factorization of gram - dependence_tol * I,
    which exists exactly when the smallest Gram eigenvalue exceeds
    dependence_tol; the spectrum is computed only to report a failure.
    """
    vs = np.array(vectors, dtype=float)
    if vs.ndim < 2:
        raise NumericsError("gram_schmidt expects a sequence of 1-d vectors")
    if not np.all(np.isfinite(vs)):
        raise NumericsError("gram_schmidt: input has non-finite entries")
    gram = vs @ vs.swapaxes(-1, -2)
    k = vs.shape[-2]
    try:
        np.linalg.cholesky(gram - dependence_tol * np.eye(k))
    except np.linalg.LinAlgError:
        spectra, _ = symmetric_eigen(gram)
        spectrum = spectra[np.unravel_index(np.argmin(spectra[..., 0]), spectra.shape[:-1])]
        raise RankDeficiencyError(
            f"gram_schmidt: input is numerically rank-deficient "
            f"(smallest Gram eigenvalue {spectrum[0]:.3e})",
            spectrum,
        ) from None

    def dot(a, b):
        return (a[..., None, :] @ b[..., :, None])[..., 0]

    for _ in range(2):
        for i in range(k):
            for j in range(i):
                vs[..., i, :] -= dot(vs[..., i, :], vs[..., j, :]) * vs[..., j, :]
            vs[..., i, :] /= np.sqrt(dot(vs[..., i, :], vs[..., i, :]))
    return vs


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


def stencil_values(f, points) -> np.ndarray:
    """f on a point array of shape (..., n), in one call: the evaluation and finiteness guard of every stencil.

    f maps a batch of points (..., n) to a batch of values (..., *value shape).
    StencilError names the first non-finite point, before f is called at all,
    or else the first point whose value is not finite. An overflow or an
    invalid operation inside f raises it too, whether Python raises it (an
    OverflowError from a float power) or numpy does (FloatingPointError, as
    numpy errors raise here).
    """
    points = np.asarray(points, dtype=float)
    rows = points.reshape(-1, points.shape[-1])
    finite = np.isfinite(rows).all(axis=1)
    if finite.all():
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                # in C order whatever layout f returns: the small matrix
                # products downstream round differently on other layouts
                values = np.ascontiguousarray(f(points))
        except (OverflowError, FloatingPointError) as exc:
            raise StencilError(f"non-finite value on a stencil point: {exc}") from exc
        finite = np.isfinite(values.reshape(len(rows), -1)).all(axis=1)
        if finite.all():
            return values
    raise StencilError(f"non-finite value on stencil point {rows[~finite][0]}")


def _axis_points(p, h: float, offsets) -> np.ndarray:
    """p + c h e_a for each offset c and axis a, as a (len(offsets), ..., n, n) array."""
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    shifts = (np.asarray(offsets, dtype=float) * h)[:, None, None] * np.eye(n)
    return p[..., None, :] + shifts.reshape((len(shifts),) + (1,) * (p.ndim - 1) + (n, n))


def _corner_points(p: np.ndarray, h: float) -> np.ndarray:
    """Corner points of the mixed rule: (pair, step h/2 then h, corner ++ +- -+ --, ..., coordinates)."""
    n = p.shape[-1]
    rows, cols = np.triu_indices(n, 1)
    eye = np.eye(n)
    # (pair, ..., coordinates), broadcasting over the batch axes of p
    shape = (len(rows),) + (1,) * (p.ndim - 1) + (n,)
    plus, minus = (eye[rows] + eye[cols]).reshape(shape), (eye[rows] - eye[cols]).reshape(shape)
    corners = [[p + s * plus, p + s * minus, p - s * minus, p - s * plus] for s in (0.5 * h, h)]
    return np.moveaxis(np.array(corners), 2, 0)


def axis_stencil(f, p, h: float, offsets) -> np.ndarray:
    """f at p + c h e_a for each offset c and axis a, as a (len(offsets), ..., n, ...) array.

    p is a point (n,) or a batch of points (..., n); the whole stencil goes to
    f in one call.
    """
    return stencil_values(f, _axis_points(p, h, offsets))


def hessian_stencil(f, p, h: float, offsets) -> tuple[np.ndarray, np.ndarray]:
    """f on the axis points of axis_stencil and the corner points of second_derivative, in one call.

    p is a point (n,) or a batch of points (..., n). Returns (at, corners) as
    second_derivative reads them: at[c, a] is f at p + offsets[c] h e_a, and
    corners[pair, step, corner] f at the corner points, each followed by the
    batch axes of p.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    axis_pts, corner_pts = np.moveaxis(_axis_points(p, h, offsets), -2, 1), _corner_points(p, h)
    values = stencil_values(f, np.concatenate([axis_pts.reshape(-1, n), corner_pts.reshape(-1, n)]))
    split, shape = axis_pts.size // n, values.shape[1:]
    return (
        values[:split].reshape(axis_pts.shape[:-1] + shape),
        values[split:].reshape(corner_pts.shape[:-1] + shape),
    )


def first_derivative(f, p, v, h: float) -> np.ndarray:
    """Directional derivative of f at p along v (order 4)."""
    p, v = np.asarray(p, dtype=float), np.asarray(v, dtype=float)
    return central_first(*stencil_values(f, [p + c * h * v for c in (2, 1, -1, -2)]), h)


def second_derivative(h: float, f0, at, corners) -> np.ndarray:
    """Coordinate second derivatives of f at p, as an (n, n, ...) array (order 4).

    f0 is f at p, at holds f at p + c h e_a for c = 2, 1, -1, -2 and corners
    f at the corner points, both as hessian_stencil returns them; at a batch
    of points, the batch axes follow the two derivative axes. The diagonal is the five-point rule on the
    axis samples; each mixed entry extrapolates the four-point corner rule at
    steps h/2 and h (Richardson).
    """
    n = at.shape[1]
    rows, cols = np.triu_indices(n, 1)

    def corner(k, s):
        v = corners[:, k]
        return (v[:, 0] - v[:, 1] - v[:, 2] + v[:, 3]) / (4.0 * s**2)

    out = np.empty((n, n) + np.shape(f0), dtype=np.result_type(f0, at))
    out[range(n), range(n)] = central_second(at[0], at[1], f0, at[2], at[3], h)
    out[rows, cols] = out[cols, rows] = (4.0 * corner(0, 0.5 * h) - corner(1, h)) / 3.0
    return out
