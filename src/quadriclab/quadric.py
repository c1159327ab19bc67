"""Ambient geometry: the complex hyperquadric through its Stiefel lifts.

A point of the hyperquadric is represented by a lift p = u + iv, a complex
(n+2)-vector with <u,u> = <v,v> = 1/2 and <u,v> = 0; tangent vectors of the
quadric are carried as horizontal vectors at such lifts (complex
(n+2)-vectors orthogonal, in the Hermitian sense, to both p and its
conjugate). The distinguished family of almost product structures is one
circle, w -> -exp(i*phi) * conj(w), so a structure is its angle phi. The
metric is the real part of the Hermitian product and the complex structure
is multiplication by i. Projective classes are never stored.

The model is a set of array functions. stiefel_residuals, quadric_residual,
horizontal_project, horizontality_residual, metric, product_structure and
quadric_curvature broadcast over the leading axes of a batch of lifts p
(..., n+2) and of vectors (..., n+2). The angle phi is a number or an array
that broadcasts against the vectors' leading axes (the output's shape
without its last axis), not against the lift's: for frame vectors
(B, k, n+2) at lifts p[:, None, :], one angle per lift is phi[:, None].
Every Hermitian product is an element-wise product summed over the last
axis, so each row of a batch reads bitwise what its single call reads. horizontal_frame and ricci_matrix take one lift of shape
(n+2,).
"""

from __future__ import annotations

import numpy as np

from .numerics import row_dot, symmetric_eigen

__all__ = [
    "GeometryError",
    "stiefel_residuals",
    "quadric_residual",
    "horizontal_project",
    "horizontality_residual",
    "metric",
    "product_structure",
    "quadric_curvature",
    "horizontal_frame",
    "ricci_matrix",
]

class GeometryError(Exception):
    """Invalid geometric input (a lift off the quadric)."""


def stiefel_residuals(p) -> dict[str, np.ndarray]:
    """Norm and orthogonality defects of the pair (u, v) = (Re p, Im p), one value per row."""
    u, v = p.real, p.imag
    return {
        "u_norm": np.abs(row_dot(u, u) - 0.5),
        "v_norm": np.abs(row_dot(v, v) - 0.5),
        "orthogonality": np.abs(row_dot(u, v)),
    }


def quadric_residual(p) -> np.ndarray:
    """|sum p_k^2| per row; vanishes on valid lifts."""
    return np.abs(np.sum(p * p, axis=-1))


def _hermitian(a, b) -> np.ndarray:
    """<a, b> = sum conj(a) b over the last axis, one value per row."""
    return np.sum(np.conj(a) * b, axis=-1)


def horizontal_project(p, w) -> np.ndarray:
    """Project w onto the horizontal space at p.

    Removes the components along p, i p, conj(p), i conj(p); with unit p and
    conj(p) Hermitian-orthogonal this is the complex projection off their span.
    """
    pb = np.conj(p)
    w = np.asarray(w, dtype=complex)
    return w - _hermitian(p, w)[..., None] * p - _hermitian(pb, w)[..., None] * pb


def horizontality_residual(p, w) -> np.ndarray:
    """max(|<p, w>|, |<conj p, w>|) per row: the Hermitian product with p kills both p and i p components."""
    return np.maximum(np.abs(_hermitian(p, w)), np.abs(_hermitian(np.conj(p), w)))


def metric(x, y) -> np.ndarray:
    """Real part of the Hermitian product (the quadric metric on lifts), per row."""
    return _hermitian(x, y).real


def product_structure(phi, p, w) -> np.ndarray:
    """The almost product structure of gauge phi, -exp(i phi) P(conj w); gauge 0 is w -> -P(conj w)."""
    return -np.exp(1j * np.asarray(phi))[..., None] * horizontal_project(p, np.conj(w))


def quadric_curvature(phi, p, x, y, z) -> np.ndarray:
    """Curvature tensor R(x, y)z of the hyperquadric at p, gauge-independent."""
    a_x = product_structure(phi, p, x)
    a_y = product_structure(phi, p, y)

    def re(u, v):
        return metric(u, v)[..., None]

    return (
        re(y, z) * x
        - re(x, z) * y
        + re(x, 1j * z) * (1j * y)
        - re(y, 1j * z) * (1j * x)
        + 2.0 * re(x, 1j * y) * (1j * z)
        + re(a_y, z) * a_x
        - re(a_x, z) * a_y
        + re(1j * a_y, z) * (1j * a_x)
        - re(1j * a_x, z) * (1j * a_y)
    )


def horizontal_frame(p) -> np.ndarray:
    """Orthonormal basis of the horizontal space at one lift p (n+2,), as a (2n, n+2) array.

    The rows are the eigenvalue-1 eigenvectors of the real form of the
    horizontal projector I - p p^H - conj(p) p^T. GeometryError when its
    spectrum is not four 0s and 2n 1s to 1e-9: the lift is off the quadric.
    """
    m = p.shape[-1]
    proj = np.eye(m) - np.outer(p, np.conj(p)) - np.outer(np.conj(p), p)
    lam, vecs = symmetric_eigen(np.block([[proj.real, -proj.imag], [proj.imag, proj.real]]))
    defect = np.abs(lam - (np.arange(2 * m) >= 4)).max()
    if defect > 1e-9:
        raise GeometryError(f"lift off the quadric: projector spectrum {defect:.3e} away from four 0s and 2n 1s")
    frame = vecs[:, 4:].T
    return frame[:, :m] + 1j * frame[:, m:]


def ricci_matrix(phi, p) -> np.ndarray:
    """Ricci tensor of the quadric in the horizontal frame at one lift p: sum over k of <R(e_k, e_a) e_b, e_k>."""
    e = horizontal_frame(p)
    r = quadric_curvature(phi, p, e[:, None, None], e[None, :, None], e[None, None, :])
    return metric(r, e[:, None, None]).sum(axis=0)
