"""Small dense numerics: symmetric eigensolver, finite-difference stencils.

Everything here operates on plain numpy arrays (float or complex) and is pure:
no global state, safe to call concurrently. The eigensolver takes one matrix
or a stack (..., k, k) of them and checks each matrix on its own: it is
LAPACK's (np.linalg.eigh) behind explicit diagnostics, a finiteness check, a
residual check that names the matrix, ascending eigenvalues and a
deterministic column-sign rule. Every stencil passes its whole point set, an
array of shape (..., n), to stencil_values, which calls the stencil function
once on it and is the one finiteness guard. The five-point weights live only
in central_first and central_second; the mixed derivative extrapolates a
four-point corner rule.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumericsError",
    "ConvergenceError",
    "StencilError",
    "flagged_row",
    "symmetrize",
    "symmetric_eigen",
    "row_dot",
    "gather",
    "axis",
    "central_first",
    "central_second",
    "stencil_values",
    "axis_stencil",
    "centered_axis_stencil",
    "hessian_stencil",
    "second_derivative",
]


class NumericsError(Exception):
    """Base class for numerical-kernel failures."""


class ConvergenceError(NumericsError):
    """An eigendecomposition failed its residual check ||A V - V diag(w)||."""


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


# a matrix whose scale 1 + max |entry| is below 2^1023 has only finite
# entries, and no entry of m + m^T overflows; only a larger or non-finite
# scale calls for the entry-wise finiteness check
_FINITE_SCALE = 2.0**1023


def _symmetry_scale(a: np.ndarray, at: np.ndarray, tol: float) -> np.ndarray:
    """Each matrix's scale 1 + max |entry|, after checking its asymmetry defect |a - at| against tol * scale."""
    scale = 1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0)
    defect = np.abs(a - at).max(axis=(-2, -1), initial=0.0)
    asymmetric = defect > tol * scale
    if asymmetric.any():
        raise NumericsError(
            f"matrix is not symmetric: asymmetry defect {flagged_row(asymmetric, defect)[0]:.3e} "
            f"exceeds {tol:.1e} * scale"
        )
    return scale


def symmetrize(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Return (m + m^T)/2 after checking each matrix's asymmetry defect against tol.

    m is a matrix or a stack (..., k, k); tol is relative to each matrix's
    scale (1 + max |entry|).
    """
    m = np.asarray(m, dtype=float)
    mt = m.swapaxes(-1, -2)
    _symmetry_scale(m, mt, tol)
    return 0.5 * (m + mt)


def symmetric_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix or a stack of them (LAPACK, residual-checked).

    Returns (eigenvalues ascending, eigenvector columns), each column signed
    so that its largest-magnitude entry is positive; a stack (..., k, k)
    gives (..., k) and (..., k, k).

    Each matrix is checked on its own, in this order over the whole stack:
    NumericsError on an asymmetry defect above 1e-12 (1 + max |entry|), then
    on non-finite entries, and ConvergenceError naming the first matrix whose
    ||m v - v lam||_F exceeds 1e-10 (1 + ||m||_F). Only a failing check pays
    for naming its matrix.
    """
    a = np.asarray(m, dtype=float)
    at = a.swapaxes(-1, -2)
    scale = _symmetry_scale(a, at, 1e-12)
    a = 0.5 * (a + at)
    if not (scale < _FINITE_SCALE).all():
        bad = flagged_row(~np.isfinite(a).all(axis=(-2, -1)), m)
        if bad:
            raise NumericsError(f"symmetric_eigen: matrix has non-finite entries:\n{bad[0]}")
    k = a.shape[-1]
    if k == 0:
        return np.zeros(a.shape[:-1]), np.zeros(a.shape)
    w, v = np.linalg.eigh(a)
    # Frobenius norms in np.linalg.norm's own arithmetic, sqrt(sum(x * x))
    r = a @ v - v * w[..., None, :]
    residual = np.sqrt(np.add.reduce(r * r, axis=(-2, -1)))
    failed = ~(residual <= 1e-10 * (1.0 + np.sqrt(np.add.reduce(a * a, axis=(-2, -1)))))
    if failed.any():
        bad = flagged_row(failed, residual, m)
        raise ConvergenceError(
            f"symmetric_eigen: residual {bad[0]:.3e} exceeds 1e-10 * (1 + ||m||) "
            f"on\n{bad[1]}"
        )
    # fix column signs for reproducibility: each column's first largest-magnitude
    # entry, gathered by its flat index in v
    rows = np.argmax(np.abs(v), axis=-2)
    flat = rows * k + np.arange(k) + np.arange(0, rows.size * k, k * k).reshape(rows.shape[:-1] + (1,))
    return w, v * np.where(v.reshape(-1)[flat] < 0, -1.0, 1.0)[..., None, :]


def row_dot(a, b) -> np.ndarray:
    """The dot product of each row (..., k) of a with the same row of b, as one stacked matmul.

    Every row reads bitwise the 1-D product a_row @ b_row; an einsum or a
    product sum over the last axis rounds some rows differently.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def gather(a: np.ndarray, index: np.ndarray, axis: int = -1) -> np.ndarray:
    """np.take_along_axis as one gather at flat indices, C contiguous alike, for an index (..., k) on the batch
    axes of a: entries of vectors (..., n) or columns of matrices (..., r, n) along axis -1, rows along -2."""
    size = a.shape[-1] * (a.shape[-2] if a.ndim > index.ndim else 1)
    base = np.arange(0, a.size, size).reshape(index.shape[:-1] + (1,))
    if axis == -2:
        return a.reshape(-1)[(index * a.shape[-1] + base)[..., None] + np.arange(a.shape[-1])]
    if a.ndim > index.ndim:
        return a.reshape(-1)[(index + base)[..., None, :] + np.arange(0, size, a.shape[-1])[:, None]]
    return a.reshape(-1)[index + base]


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


def _joint_values(f, first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f on two point arrays (..., n) in one stencil_values call, the first's rows first, each split back."""
    n = first.shape[-1]
    values = stencil_values(f, np.concatenate([first.reshape(-1, n), second.reshape(-1, n)]))
    split, shape = first.size // n, values.shape[1:]
    return values[:split].reshape(first.shape[:-1] + shape), values[split:].reshape(second.shape[:-1] + shape)


def centered_axis_stencil(f, p, h: float, offsets) -> tuple[np.ndarray, np.ndarray]:
    """axis_stencil(f, p, h, offsets) and f at p itself, in one call of f: p's rows follow the stencil's."""
    return _joint_values(f, _axis_points(p, h, offsets), np.asarray(p, dtype=float))


def hessian_stencil(f, p, h: float, offsets) -> tuple[np.ndarray, np.ndarray]:
    """f on the axis points of axis_stencil and the corner points of second_derivative, in one call.

    p is a point (n,) or a batch of points (..., n). Returns (at, corners) as
    second_derivative reads them: at[c, a] is f at p + offsets[c] h e_a, and
    corners[pair, step, corner] f at the corner points, each followed by the
    batch axes of p.
    """
    p = np.asarray(p, dtype=float)
    return _joint_values(f, np.moveaxis(_axis_points(p, h, offsets), -2, 1), _corner_points(p, h))


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
