"""Ambient geometry: the complex hyperquadric through its Stiefel lifts.

A point of the hyperquadric is represented by a lift z = u + iv with
<u,u> = <v,v> = 1/2 and <u,v> = 0; tangent vectors of the quadric are carried
as horizontal vectors at such lifts (complex (n+2)-vectors orthogonal, in the
Hermitian sense, to both z and its conjugate). The model is a set of array
functions of one lift p and of vectors of shape (..., n+2), which broadcast
over their leading axes. The metric is the real part of the Hermitian
product, the complex structure is multiplication by i, and the distinguished
family of almost product structures acts by w -> -exp(i*phi) * conj(w).
Every Hermitian product is an element-wise product summed over the last
axis, so each row of a batch reads bitwise what its single-vector call
reads. Projective classes are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import row_dot, symmetric_eigen

__all__ = [
    "GeometryError",
    "StiefelPoint",
    "StructureGauge",
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


@dataclass(frozen=True)
class StiefelPoint:
    """Orthogonal pair (u, v) with squared norms 1/2: a lift of a quadric point."""

    u: np.ndarray
    v: np.ndarray

    @property
    def z(self) -> np.ndarray:
        return self.u + 1j * self.v

    def invariant_residuals(self) -> dict[str, np.ndarray]:
        """Norm and orthogonality defects, as arrays over a batch of lifts."""
        return {
            "u_norm": np.abs(row_dot(self.u, self.u) - 0.5),
            "v_norm": np.abs(row_dot(self.v, self.v) - 0.5),
            "orthogonality": np.abs(row_dot(self.u, self.v)),
        }

    @staticmethod
    def from_complex(z: np.ndarray) -> "StiefelPoint":
        z = np.asarray(z, dtype=complex)
        return StiefelPoint(u=z.real.copy(), v=z.imag.copy())


@dataclass(frozen=True)
class StructureGauge:
    """Angle selecting one almost product structure out of the circle family."""

    phi: float = 0.0


def quadric_residual(p: StiefelPoint) -> float:
    """|sum z_k^2| for the lift z = u + iv; vanishes on valid lifts."""
    z = p.z
    return float(abs(np.sum(z * z)))


def _hermitian(a, b) -> np.ndarray:
    """<a, b> = sum conj(a) b over the last axis, one value per row."""
    return np.sum(np.conj(a) * b, axis=-1)


def horizontal_project(p: StiefelPoint, w) -> np.ndarray:
    """Project w onto the horizontal space at p.

    Removes the components along z, i z, conj(z), i conj(z); with unit z and
    conj(z) Hermitian-orthogonal this is the complex projection off their span.
    """
    z = p.z
    zb = np.conj(z)
    w = np.asarray(w, dtype=complex)
    return w - _hermitian(z, w)[..., None] * z - _hermitian(zb, w)[..., None] * zb


def horizontality_residual(p: StiefelPoint, w) -> np.ndarray:
    """max(|<z, w>|, |<conj z, w>|) per row: the Hermitian product with z kills both z and i z components."""
    z = p.z
    return np.maximum(np.abs(_hermitian(z, w)), np.abs(_hermitian(np.conj(z), w)))


def metric(x, y) -> np.ndarray:
    """Real part of the Hermitian product (the quadric metric on lifts), per row."""
    return _hermitian(x, y).real


def product_structure(g: StructureGauge, p: StiefelPoint, w) -> np.ndarray:
    """The almost product structure of gauge phi, -exp(i phi) P(conj w); gauge 0 is w -> -P(conj w)."""
    return -np.exp(1j * g.phi) * horizontal_project(p, np.conj(w))


def quadric_curvature(g: StructureGauge, p: StiefelPoint, x, y, z) -> np.ndarray:
    """Curvature tensor R(x, y)z of the hyperquadric at p, gauge-independent."""
    a_x = product_structure(g, p, x)
    a_y = product_structure(g, p, y)

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


def horizontal_frame(p: StiefelPoint) -> np.ndarray:
    """Orthonormal basis of the horizontal space at p, as a (2n, n+2) array.

    The rows are the eigenvalue-1 eigenvectors of the real form of the
    horizontal projector I - z z^H - conj(z) z^T. GeometryError when its
    spectrum is not four 0s and 2n 1s to 1e-9: the lift is off the quadric.
    """
    z = p.z
    m = z.shape[-1]
    proj = np.eye(m) - np.outer(z, np.conj(z)) - np.outer(np.conj(z), z)
    lam, vecs = symmetric_eigen(np.block([[proj.real, -proj.imag], [proj.imag, proj.real]]))
    defect = np.abs(lam - (np.arange(2 * m) >= 4)).max()
    if defect > 1e-9:
        raise GeometryError(f"lift off the quadric: projector spectrum {defect:.3e} away from four 0s and 2n 1s")
    frame = vecs[:, 4:].T
    return frame[:, :m] + 1j * frame[:, m:]


def ricci_matrix(g: StructureGauge, p: StiefelPoint) -> np.ndarray:
    """Ricci tensor of the quadric in the horizontal frame at p: sum over k of <R(e_k, e_a) e_b, e_k>."""
    e = horizontal_frame(p)
    r = quadric_curvature(g, p, e[:, None, None], e[None, :, None], e[None, None, :])
    return metric(r, e[:, None, None]).sum(axis=0)
