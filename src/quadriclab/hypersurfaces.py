"""Parametrized hypersurfaces of the unit sphere with unit normal fields.

Charts are immutable bundles of two callables (embedding and unit normal, both
landing in R^(n+2)) over a closed coordinate box. Both take a batch: an array
of points (..., n) maps to an array (..., n+2), with a single point (n,) as
the empty batch, and every row gets the arithmetic a lone point gets. A
ChartStencil evaluates both once, in one call each, at a point or a batch of
points and on their first-order stencils; the work they share is built once
per embed/normal pair on the same points (shared_work, a one-entry memo that
keeps the last batch's shared arrays alive). The catalog covers the three
isoparametric families with at most three distinct principal curvatures:
geodesic spheres, products of spheres, and tubes around the Veronese surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .numerics import (
    central_first,
    centered_axis_stencil,
    flagged_row,
    gather,
    row_dot,
    symmetric_eigen,
)

__all__ = [
    "ChartError",
    "FocalRadiusError",
    "Box",
    "HypersurfaceChart",
    "ChartStencil",
    "sphere_chart",
    "sphere_chart_with_derivatives",
    "tangent_data",
    "lift_metric",
    "round_sphere",
    "product_spheres",
    "cartan_tube",
]


class ChartError(Exception):
    """Chart construction or evaluation failed."""


class FocalRadiusError(ChartError):
    """Tube radius hits the focal set; pick a different radius."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box of chart coordinates."""

    lows: np.ndarray
    highs: np.ndarray

    @staticmethod
    def cube(n: int, half_width: float) -> "Box":
        return Box(lows=np.full(n, -half_width), highs=np.full(n, half_width))

    @property
    def dim(self) -> int:
        return len(self.lows)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lows + self.highs)

    def contains(self, p, margin: float = 0.0):
        """Whether p lies margin inside the box: a bool for a point (n,), an array for a batch (..., n)."""
        p = np.asarray(p, dtype=float)
        return np.all(p >= self.lows + margin, axis=-1) & np.all(p <= self.highs - margin, axis=-1)


@dataclass(frozen=True)
class HypersurfaceChart:
    """Immersion of a coordinate box into the unit sphere with a unit normal.

    embed and normal map points (..., n) to vectors (..., n+2), row by row.
    """

    dim: int
    embed: Callable[[np.ndarray], np.ndarray]
    normal: Callable[[np.ndarray], np.ndarray]
    box: Box
    name: str = ""
    meta: dict = field(default_factory=dict)

    def lift(self, q) -> np.ndarray:
        """Gauss-map lift (embed + i normal)/sqrt(2) at the points q, as complex vectors."""
        return _lift(self.embed(q), self.normal(q))


def _lift(a, b):
    """The one lift formula: (a + i b)/sqrt(2) from embed values a and normal values b."""
    return (a + 1j * b) / np.sqrt(2.0)


def lift_metric(d_lift) -> np.ndarray:
    """Induced metric of the Gauss-map lift from its chart derivatives (..., n, n+2): their symmetrized real Gram."""
    g = (d_lift @ np.conj(d_lift.swapaxes(-1, -2))).real
    return 0.5 * (g + g.swapaxes(-1, -2))


def shared_work(build: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """build(q) behind a one-entry memo keyed on the points' shape and bytes.

    Callers only read the result. The entry is read and replaced whole:
    threads sharing a chart may recompute, never read another batch's work.
    """
    entry = None

    def shared(q):
        nonlocal entry
        q = np.asarray(q, dtype=float)
        key, last = (q.shape, q.tobytes()), entry
        if last is None or last[0] != key:
            last = entry = (key, build(q))
        return last[1]

    return shared


class ChartStencil:
    """embed and normal on the first-order stencil of a point and at the point, in one call each.

    The stencil is p +- h e_i and p +- 2h e_i along every coordinate axis,
    and p's own rows follow the stencil's in the same call. The five-point
    first derivatives of embed, normal and the Gauss-map lift all difference
    the stencil values, and every first-order quantity at the point (tangent
    frame, shape operator, chart invariants, induced metric of the lift)
    reads them.

    p may be a batch of points (..., n): the stencils of all of them go to
    the chart in one embed and one normal call, and every quantity below
    carries the batch shape in front, its eigendecompositions stacked.
    """

    def __init__(self, chart: HypersurfaceChart, p, h: float):
        self.chart = chart
        self.point = p = np.asarray(p, dtype=float)
        # values (4, ..., n, 2, n+2): offset (+2h, +h, -h, -2h), batch, axis, (embed, normal)
        values, self.center = centered_axis_stencil(
            lambda x: np.stack([chart.embed(x), chart.normal(x)], axis=-2), p, h, (2.0, 1.0, -1.0, -2.0)
        )
        a, b = values[..., 0, :], values[..., 1, :]
        self.d_embed = central_first(*a, h)
        self.d_normal = central_first(*b, h)
        self.d_lift = central_first(*_lift(a, b), h)

    @cached_property
    def lift(self) -> np.ndarray:
        """The (..., n+2) complex Gauss-map lift at p from center, the (..., 2, n+2) rows of embed and normal there."""
        return _lift(self.center[..., 0, :], self.center[..., 1, :])

    @cached_property
    def lift_metric(self) -> np.ndarray:
        """Induced metric of the Gauss-map lift in chart coordinates, (..., n, n)."""
        return lift_metric(self.d_lift)

    @cached_property
    def _metric_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of the lift metric (row 0) and the Gram matrix (row 1): independent problems, one stacked solve."""
        return symmetric_eigen(np.stack([self.lift_metric, self.d_embed @ self.d_embed.swapaxes(-1, -2)]))

    @property
    def lift_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of the induced metric of the Gauss-map lift."""
        w, v = self._metric_eigen
        return w[0], v[0]

    @property
    def gram_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of the Gram matrix of the coordinate tangents."""
        w, v = self._metric_eigen
        return w[1], v[1]

    def invariants(self) -> dict[str, np.ndarray]:
        """Norms, orthogonality and tangency of embed and normal, and the rank margin, per point."""
        a, b = self.center[..., 0, :], self.center[..., 1, :]
        return {
            "embed_norm": np.abs(row_dot(a, a) - 1.0),
            "normal_norm": np.abs(row_dot(b, b) - 1.0),
            "orthogonality": np.abs(row_dot(a, b)),
            "normal_tangency": np.abs(self.d_embed @ b[..., :, None]).max(axis=(-2, -1)),
            "min_singular_value": np.sqrt(np.maximum(self.gram_eigen[0][..., 0], 0.0)),
        }

    @cached_property
    def shape_eigen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eigendecomposition of the shape operator, curvatures descending.

        The principal curvatures (..., n) come with the unit principal
        directions as rows: their chart velocities (..., n, n) and their
        images in R^(n+2) (..., n, n+2).
        """
        s, t, m = _shape_data(self)
        w, v = symmetric_eigen(s)
        order = np.argsort(-w, axis=-1, kind="stable")
        vt = gather(v, order).swapaxes(-1, -2)
        return gather(w, order), vt @ m, vt @ t


# ---------------------------------------------------------------------------
# spherical coordinate charts
# ---------------------------------------------------------------------------

def sphere_chart(m: int, q: np.ndarray) -> np.ndarray:
    """Recursive angular chart of the unit m-sphere in R^(m+1), at the first m coordinates of q.

    sigma_1(t) = (cos t, sin t); sigma_m = (cos(q_m) sigma_{m-1}, sin(q_m)).
    q is a point or a batch of points (..., >= m). Full rank as long as every
    latitude coordinate stays away from +-pi/2.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    out = np.empty(q.shape[:-1] + (m + 1,))
    out[..., 0], out[..., 1] = np.cos(q[..., 0]), np.sin(q[..., 0])
    for j in range(1, m):
        out[..., : j + 1] *= np.cos(q[..., j, None])
        out[..., j + 1] = np.sin(q[..., j])
    return out


def sphere_chart_with_derivatives(m: int, q: np.ndarray):
    """sigma_m together with its analytic first derivatives (..., m, m+1)."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    c, s = np.cos(q[..., :m]), np.sin(q[..., :m])
    sigma = np.zeros(q.shape[:-1] + (m + 1,))
    deriv = np.zeros(q.shape[:-1] + (m, m + 1))
    sigma[..., 0], sigma[..., 1] = c[..., 0], s[..., 0]
    deriv[..., 0, 0], deriv[..., 0, 1] = -s[..., 0], c[..., 0]
    for j in range(1, m):
        deriv[..., :j, : j + 1] *= c[..., j, None, None]
        deriv[..., j, : j + 1] = -s[..., j, None] * sigma[..., : j + 1]
        deriv[..., j, j + 1] = c[..., j]
        sigma[..., : j + 1] *= c[..., j, None]
        sigma[..., j + 1] = s[..., j]
    return sigma, deriv


# ---------------------------------------------------------------------------
# shape operator
# ---------------------------------------------------------------------------

def tangent_data(st: ChartStencil):
    """Coordinate tangents e, an orthonormal tangent frame t and its velocities m (m @ e = t), batch axes in front.

    The velocities come from the eigenpairs (w, v) = st.gram_eigen of the
    Gram matrix G = e e^T the stencil already holds: m = (v / sqrt(w))^T
    gives t t^T = m G m^T = I up to eps * cond(G), and one Newton-Schulz step,
    m <- (3 I - t t^T) m / 2, brings that defect down to eps. ChartError when
    the smallest Gram eigenvalue is at most 1e-10, where the tangents are
    numerically dependent.
    """
    e = st.d_embed
    w, v = st.gram_eigen
    bad = flagged_row(w[..., 0] <= 1e-10, st.point, w)
    if bad:
        raise ChartError(
            f"chart '{st.chart.name}' has rank-deficient differential at {bad[0]} "
            f"(Gram spectrum {bad[1]})"
        )
    m = (v / np.sqrt(w)[..., None, :]).swapaxes(-1, -2)
    t = m @ e
    m = 1.5 * m - 0.5 * ((t @ t.swapaxes(-1, -2)) @ m)
    return e, m @ e, m


def _shape_data(st: ChartStencil):
    """Shape operator in the orthonormal tangent frame of tangent_data, with the frame and its velocities.

    Realized as S X = -(derivative of the normal along X), projected onto the
    tangent plane; the result is symmetrized, with the defect checked.
    """
    _, t, m = tangent_data(st)
    # -<d_b(T_j), T_k> with d along the frame velocities
    raw = -(m @ st.d_normal) @ t.swapaxes(-1, -2)
    raw_t = raw.swapaxes(-1, -2)
    defect = np.abs(raw - raw_t).max(axis=(-2, -1))
    bad = flagged_row(defect > 1e-4, defect, st.point)
    if bad:
        raise ChartError(
            f"shape operator asymmetry {bad[0]:.2e} at {bad[1]} on chart "
            f"'{st.chart.name}' (bad step size or broken normal)"
        )
    return 0.5 * (raw + raw_t), t, m


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def round_sphere(n: int, r: float) -> HypersurfaceChart:
    """Geodesic n-sphere of Euclidean radius r inside the unit (n+1)-sphere.

    All principal curvatures equal sqrt(1 - r^2) / r for the inward normal;
    r = 1 is the totally geodesic equator.
    """
    if not 0.0 < r <= 1.0:
        raise ChartError(f"sphere radius must lie in (0, 1], got {r}")
    c = math.sqrt(max(0.0, 1.0 - r * r))
    orbit = shared_work(lambda q: sphere_chart(n, q))

    def embed(q):
        sigma = orbit(q)
        return np.concatenate([r * sigma, np.full(sigma.shape[:-1] + (1,), c)], axis=-1)

    def normal(q):
        sigma = orbit(q)
        return np.concatenate([-c * sigma, np.full(sigma.shape[:-1] + (1,), r)], axis=-1)

    return HypersurfaceChart(
        dim=n,
        embed=embed,
        normal=normal,
        box=Box.cube(n, 0.45),
        name="sphere",
        meta={"r": r},
    )


def product_spheres(k: int, n: int, r1: float) -> HypersurfaceChart:
    """Product of a k-sphere of radius r1 and an (n-k)-sphere of radius r2 = sqrt(1 - r1^2).

    Both lie inside the unit (n+1)-sphere. Principal curvatures are r2/r1
    (k times) and -r1/r2 (n-k times).
    """
    if not 1 <= k <= n - 1:
        raise ChartError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if not 0.0 < r1 < 1.0:
        raise ChartError(f"first radius must lie in (0, 1), got {r1}")
    r2 = float(np.sqrt(1.0 - r1 * r1))
    factors = shared_work(lambda q: (sphere_chart(k, q[..., :k]), sphere_chart(n - k, q[..., k:])))

    def embed(q):
        s1, s2 = factors(q)
        return np.concatenate([r1 * s1, r2 * s2], axis=-1)

    def normal(q):
        s1, s2 = factors(q)
        return np.concatenate([-r2 * s1, r1 * s2], axis=-1)

    return HypersurfaceChart(
        dim=n,
        embed=embed,
        normal=normal,
        box=Box.cube(n, 0.45),
        name="product",
        meta={"k": k, "r1": r1, "r2": r2},
    )


_HALF_SQRT3 = 0.5 * math.sqrt(3.0)


def _veronese(x, y) -> np.ndarray:
    """The symmetric bilinear form B of the Veronese map: B(x, y) in R^5 for x, y in R^3.

    x and y are arrays (..., 3), and B comes back as (..., 5). B(s, s) for s
    on the unit 2-sphere is the degree-2 spherical-harmonic (Veronese)
    embedding, scaled so the image lies in the unit 4-sphere. Each component
    is its own expression in the coordinates, with the operations of the
    outer-product form x_i y_j + x_j y_i in the same order.
    """
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    d0, d1 = x0 * y0, x1 * y1
    return np.stack(
        [
            _HALF_SQRT3 * (x0 * y1 + x1 * y0),
            _HALF_SQRT3 * (x0 * y2 + x2 * y0),
            _HALF_SQRT3 * (x1 * y2 + x2 * y1),
            _HALF_SQRT3 * (d0 - d1),
            0.5 * (d0 + d1) - x2 * y2,
        ],
        axis=-1,
    )


def _veronese_frame(q):
    """Veronese point with an orthonormal frame of its normal plane in S^4.

    q holds the two sphere-chart angles in its first two coordinates, for a
    point or a batch (..., >= 2). With e1, e2 the unit coordinate directions
    of the sphere chart at s = (cos q1 cos q2, sin q1 cos q2, sin q2), the
    normal plane of the Veronese surface at B(s, s) is spanned by the
    orthogonal pair B(e1, e1) - B(e2, e2) and B(e1, e2), of norms sqrt(3) and
    sqrt(3)/2 at every point; normalized, they are the frame, each a positive
    multiple of the corresponding second derivative projected off the tangent
    plane. Returns three (..., 5) arrays.
    """
    q = np.asarray(q, dtype=float)
    c1, s1, c2, s2 = np.cos(q[..., 0]), np.sin(q[..., 0]), np.cos(q[..., 1]), np.sin(q[..., 1])
    # rows e1, e2, s
    vectors = np.stack(
        [-s1, c1, np.zeros_like(c1), -c1 * s2, -s1 * s2, c2, c1 * c2, s1 * c2, s2], axis=-1
    ).reshape(q.shape[:-1] + (3, 3))
    # B(e1, e1), B(e2, e2), B(e1, e2), B(s, s)
    forms = _veronese(vectors[..., [0, 1, 0, 2], :], vectors[..., [0, 1, 1, 2], :])
    w = np.stack([forms[..., 0, :] - forms[..., 1, :], forms[..., 2, :]], axis=-2)
    xi = w / np.linalg.norm(w, axis=-1, keepdims=True)
    return forms[..., 3, :], xi[..., 0, :], xi[..., 1, :]


def cartan_tube(t: float = 0.35) -> HypersurfaceChart:
    """Tube of radius t around the Veronese surface in the unit 4-sphere.

    This is the three-dimensional isoparametric family with three distinct
    principal curvatures, -cot(t + k pi/3) for k = 0, 1, 2; coordinates are
    (two Veronese chart angles, one normal-circle angle). FocalRadiusError
    when one of them exceeds 1e5 in size, read from that closed form: the
    radius is then focal or nearly so.
    """
    if not np.isfinite(t):
        raise ChartError(f"tube radius t must be finite, got {t}")
    for k in range(3):
        if abs(math.cos(t + k * math.pi / 3.0)) > 1e5 * abs(math.sin(t + k * math.pi / 3.0)):
            raise FocalRadiusError(
                f"tube radius {t} is focal or nearly focal; choose a radius away from multiples of pi/3"
            )

    ct, st = math.cos(t), math.sin(t)

    @shared_work
    def frame(x):
        """The Veronese point and the unit normal-circle vector cos(x3) xi1 + sin(x3) xi2."""
        v, xi1, xi2 = _veronese_frame(x)
        return v, np.cos(x[..., 2:3]) * xi1 + np.sin(x[..., 2:3]) * xi2

    def embed(x):
        v, u = frame(x)
        return ct * v + st * u

    def normal(x):
        v, u = frame(x)
        return -st * v + ct * u

    return HypersurfaceChart(
        dim=3,
        embed=embed,
        normal=normal,
        box=Box(lows=np.array([-0.35, -0.35, -0.6]), highs=np.array([0.35, 0.35, 0.6])),
        name="cartan",
        meta={"t": t},
    )
