"""Ambient geometry: the complex hyperquadric through its Stiefel lifts.

A point of the hyperquadric is represented by a lift z = u + iv with
<u,u> = <v,v> = 1/2 and <u,v> = 0; tangent vectors of the quadric are carried
as horizontal vectors at such lifts (complex (n+2)-vectors orthogonal, in the
Hermitian sense, to both z and its conjugate). The metric is the real part of
the Hermitian product, the complex structure is multiplication by i, and the
distinguished family of almost product structures acts by
w -> -exp(i*phi) * conj(w). Projective classes are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import gram_schmidt, row_dot

__all__ = [
    "GeometryError",
    "StiefelPoint",
    "HorizontalVector",
    "StructureGauge",
    "quadric_residual",
    "horizontal_project",
    "apply_conjugation_structure",
    "rotate_structure",
    "j_mult",
    "metric",
    "quadric_curvature",
    "horizontal_frame",
    "ricci_matrix",
]

class GeometryError(Exception):
    """Invalid geometric input (broken invariants, mismatched base points)."""


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
class HorizontalVector:
    """Tangent vector of the quadric, carried as a horizontal vector at a lift."""

    base: StiefelPoint
    w: np.ndarray

    def horizontality_residual(self) -> float:
        z = self.base.z
        zb = np.conj(z)
        return float(
            max(
                abs(np.vdot(z, self.w)),  # kills both z and i*z components
                abs(np.vdot(zb, self.w)),
            )
        )


@dataclass(frozen=True)
class StructureGauge:
    """Angle selecting one almost product structure out of the circle family."""

    phi: float = 0.0


def quadric_residual(p: StiefelPoint) -> float:
    """|sum z_k^2| for the lift z = u + iv; vanishes on valid lifts."""
    z = p.z
    return float(abs(np.sum(z * z)))


def horizontal_project(p: StiefelPoint, w: np.ndarray) -> np.ndarray:
    """Project w onto the horizontal space at p.

    Removes the components along z, i z, conj(z), i conj(z); with unit z and
    conj(z) Hermitian-orthogonal this is the complex projection off their span.
    """
    z = p.z
    zb = np.conj(z)
    w = np.asarray(w, dtype=complex)
    return w - np.vdot(z, w) * z - np.vdot(zb, w) * zb


def apply_conjugation_structure(x: HorizontalVector) -> HorizontalVector:
    """The canonical almost product structure: w -> -conj(w), re-horizontalized."""
    return HorizontalVector(
        base=x.base, w=-horizontal_project(x.base, np.conj(x.w))
    )


def rotate_structure(g: StructureGauge, x: HorizontalVector) -> HorizontalVector:
    """cos(phi) * A0 x + sin(phi) * J A0 x for the family gauge phi."""
    a0 = apply_conjugation_structure(x).w
    return HorizontalVector(base=x.base, w=np.exp(1j * g.phi) * a0)


def j_mult(x: HorizontalVector) -> HorizontalVector:
    return HorizontalVector(base=x.base, w=1j * x.w)


def _same_base(*xs: HorizontalVector) -> StiefelPoint:
    base = xs[0].base
    for x in xs[1:]:
        if x.base is base:
            continue
        if (
            np.max(np.abs(x.base.u - base.u)) > 1e-12
            or np.max(np.abs(x.base.v - base.v)) > 1e-12
        ):
            raise GeometryError("horizontal vectors live at different base points")
    return base


def metric(x: HorizontalVector, y: HorizontalVector) -> float:
    """Real part of the Hermitian product (the quadric metric on lifts)."""
    _same_base(x, y)
    return float(np.vdot(x.w, y.w).real)


def quadric_curvature(
    g: StructureGauge,
    x: HorizontalVector,
    y: HorizontalVector,
    z: HorizontalVector,
) -> HorizontalVector:
    """Curvature tensor R(x, y)z of the hyperquadric, gauge-independent."""
    base = _same_base(x, y, z)
    a_x = rotate_structure(g, x)
    a_y = rotate_structure(g, y)
    ja_x = 1j * a_x.w
    ja_y = 1j * a_y.w
    jx, jy, jz = 1j * x.w, 1j * y.w, 1j * z.w

    def re(u, v):
        return np.vdot(u, v).real

    w = (
        re(y.w, z.w) * x.w
        - re(x.w, z.w) * y.w
        + re(x.w, jz) * jy
        - re(y.w, jz) * jx
        + 2.0 * re(x.w, jy) * jz
        + re(a_y.w, z.w) * a_x.w
        - re(a_x.w, z.w) * a_y.w
        + re(ja_y, z.w) * ja_x
        - re(ja_x, z.w) * ja_y
    )
    return HorizontalVector(base=base, w=w)


def _to_real(w: np.ndarray) -> np.ndarray:
    return np.concatenate([w.real, w.imag])


def _to_complex(x: np.ndarray) -> np.ndarray:
    m = x.size // 2
    return x[:m] + 1j * x[m:]


def horizontal_frame(p: StiefelPoint) -> list[HorizontalVector]:
    """Deterministic orthonormal basis (2n vectors) of the horizontal space at p."""
    dim = p.u.shape[0]
    n = dim - 2
    candidates = []
    for m in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[m] = 1.0
        candidates.append(e)
        candidates.append(1j * e)
    kept: list[np.ndarray] = []
    for c in candidates:
        w = horizontal_project(p, c)
        r = _to_real(w)
        for k in kept:
            r = r - (r @ k) * k
        nr = np.linalg.norm(r)
        if nr > 1e-6:
            kept.append(r / nr)
        if len(kept) == 2 * n:
            break
    if len(kept) < 2 * n:
        raise GeometryError("failed to build a full horizontal frame")
    kept = [v for v in gram_schmidt(kept)]
    return [HorizontalVector(base=p, w=_to_complex(v)) for v in kept]


def ricci_matrix(g: StructureGauge, p: StiefelPoint) -> np.ndarray:
    """Ricci tensor of the quadric in an orthonormal horizontal frame at p."""
    frame = horizontal_frame(p)
    m = len(frame)
    ric = np.zeros((m, m))
    for a in range(m):
        for b in range(a, m):
            total = 0.0
            for k in range(m):
                r = quadric_curvature(g, frame[k], frame[a], frame[b])
                total += metric(r, frame[k])
            ric[a, b] = total
            ric[b, a] = total
    return ric
