"""Parametrized hypersurfaces of the unit sphere with unit normal fields.

Charts are immutable bundles of two callables (embedding and unit normal, both
landing in R^(n+2)) over a closed coordinate box. Both take a batch: an array
of points (..., n) maps to an array (..., n+2), with a single point (n,) as
the empty batch, and every row gets the arithmetic a lone point gets. A
ChartStencil evaluates both once, in one call each, on the first-order stencil
of a point or of a batch of points. The catalog covers the three
isoparametric families with at most three distinct principal curvatures:
geodesic spheres, products of spheres, and tubes around the Veronese surface,
plus parallel hypersurfaces of any chart and a perturbed (non-isoparametric)
sphere used to exercise the non-minimal code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .numerics import (
    NumericsError,
    axis_stencil,
    central_first,
    eigen_solve,
    flagged_row,
    gram_schmidt,
    stencil_values,
    symmetric_eigen,
)

__all__ = [
    "ChartError",
    "FocalRadiusError",
    "Box",
    "HypersurfaceChart",
    "ChartStencil",
    "ShapeSpectrum",
    "sphere_chart",
    "sphere_chart_with_derivatives",
    "tangent_data",
    "shape_operator",
    "principal_curvatures",
    "round_sphere",
    "product_spheres",
    "cartan_tube",
    "parallel_hypersurface",
    "perturbed_sphere",
    "angle_from_curvature",
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
    def cube(n: int, half_width: float, center: float = 0.0) -> "Box":
        return Box(
            lows=np.full(n, center - half_width),
            highs=np.full(n, center + half_width),
        )

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

    def sample(self, rng: np.random.Generator, margin: float = 0.0) -> np.ndarray:
        return rng.uniform(self.lows + margin, self.highs - margin)


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

    def validate_at(self, p, h: float = 1e-4) -> dict[str, float]:
        """Pointwise invariant residuals (norms, orthogonality, rank)."""
        return ChartStencil(self, p, h).invariants()


def _lift(a, b):
    """The one lift formula: (a + i b)/sqrt(2) from embed values a and normal values b."""
    return (a + 1j * b) / np.sqrt(2.0)


class ChartStencil:
    """embed and normal on the first-order stencil of a point, each evaluated once.

    The stencil is p +- h e_i and p +- 2h e_i along every coordinate axis. The
    five-point first derivatives of embed, normal and the Gauss-map lift all
    difference these values, and every first-order quantity at the point
    (tangent frame, shape operator, chart invariants, induced metric of the
    lift) reads them. The values at p itself are evaluated on first use: the
    metric route needs the derivatives only.

    p may be a batch of points (..., n): the stencils of all of them go to
    the chart in one embed and one normal call, and every quantity below
    carries the batch shape in front, its eigendecompositions stacked; only
    invariants reads a single point. stencil[k] is the stencil of row k.
    """

    def __init__(self, chart: HypersurfaceChart, p, h: float):
        self.chart = chart
        self.point = p = np.asarray(p, dtype=float)
        # (4, ..., n, 2, n+2): offset (+2h, +h, -h, -2h), batch, axis, (embed, normal)
        values = axis_stencil(self._embed_normal, p, h, (2.0, 1.0, -1.0, -2.0))
        a, b = values[..., 0, :], values[..., 1, :]
        self.d_embed = central_first(*a, h)
        self.d_normal = central_first(*b, h)
        self.d_lift = central_first(*_lift(a, b), h)

    def __getitem__(self, k) -> "ChartStencil":
        """The stencil of row k of a batch, sharing every value already computed."""
        row = object.__new__(ChartStencil)
        for name, value in vars(self).items():
            if name != "chart":
                value = tuple(v[k] for v in value) if isinstance(value, tuple) else value[k]
            vars(row)[name] = value
        return row

    def _embed_normal(self, x):
        return np.stack([self.chart.embed(x), self.chart.normal(x)], axis=-2)

    @cached_property
    def center(self) -> np.ndarray:
        """embed and normal at p, as the rows of a (..., 2, n+2) array."""
        return stencil_values(self._embed_normal, self.point)

    @property
    def lift(self) -> np.ndarray:
        return _lift(self.center[..., 0, :], self.center[..., 1, :])

    @cached_property
    def lift_metric(self) -> np.ndarray:
        """Induced metric of the Gauss-map lift in chart coordinates, (..., n, n)."""
        g = (self.d_lift @ np.conj(self.d_lift.swapaxes(-1, -2))).real
        return 0.5 * (g + g.swapaxes(-1, -2))

    @cached_property
    def gram_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of the Gram matrix of the coordinate tangents."""
        return symmetric_eigen(self.d_embed @ self.d_embed.swapaxes(-1, -2))

    @property
    def gram_spectrum(self) -> np.ndarray:
        """Ascending spectrum of the Gram matrix of the coordinate tangents, (..., n)."""
        return self.gram_eigen[0]

    def invariants(self) -> dict[str, float]:
        """Norms, orthogonality and tangency of embed and normal, and the rank margin."""
        a, b = self.center
        return {
            "embed_norm": abs(float(a @ a) - 1.0),
            "normal_norm": abs(float(b @ b) - 1.0),
            "orthogonality": abs(float(a @ b)),
            "normal_tangency": float(np.abs(self.d_embed @ b).max()),
            "min_singular_value": float(np.sqrt(max(self.gram_spectrum[0], 0.0))),
        }

    def principal_curvatures(self) -> ShapeSpectrum:
        """Eigendecomposition of the shape operator, curvatures descending."""
        s, t, m = _shape_data(self)
        w, v = symmetric_eigen(s)
        order = np.argsort(-w, axis=-1, kind="stable")
        vt = np.take_along_axis(v, order[..., None, :], axis=-1).swapaxes(-1, -2)
        return ShapeSpectrum(
            lambdas=np.take_along_axis(w, order, axis=-1), directions_chart=vt @ m, directions_ambient=vt @ t
        )


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

@dataclass(frozen=True)
class ShapeSpectrum:
    """Principal curvatures (descending) with their principal directions.

    directions_chart[k] is the coordinate velocity of the k-th unit principal
    direction; directions_ambient[k] its image in R^(n+2). At a batch of
    points every field carries the batch axes in front.
    """

    lambdas: np.ndarray
    directions_chart: np.ndarray
    directions_ambient: np.ndarray


def tangent_data(st: ChartStencil):
    """Coordinate tangents, an orthonormal tangent frame and its velocities, batch axes in front."""
    e = st.d_embed
    bad = flagged_row(st.gram_spectrum[..., 0] <= 1e-12, st.point, st.gram_spectrum)
    if bad:
        raise ChartError(
            f"chart '{st.chart.name}' has rank-deficient differential at {bad[0]} "
            f"(Gram spectrum {bad[1]})"
        )
    t = gram_schmidt(e)
    # velocities: rows m with m @ e = t, through the Gram matrix's eigenpairs
    m = eigen_solve(st.gram_eigen, e @ t.swapaxes(-1, -2)).swapaxes(-1, -2)
    return e, t, m


def shape_operator(chart: HypersurfaceChart, p, h: float = 1e-4) -> np.ndarray:
    """Matrix of the shape operator in an orthonormal tangent frame at p.

    Realized as S X = -(derivative of the normal along X), projected onto the
    tangent plane; the result is symmetrized, with the defect checked.
    """
    return _shape_data(ChartStencil(chart, p, h))[0]


def _shape_data(st: ChartStencil):
    """Shape operator with the orthonormal tangent frame and its velocities."""
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


def principal_curvatures(
    chart: HypersurfaceChart, p, h: float = 1e-4
) -> ShapeSpectrum:
    """Eigendecomposition of the shape operator at p, curvatures descending."""
    return ChartStencil(chart, p, h).principal_curvatures()


def angle_from_curvature(lam: float) -> float:
    """The angle in (0, pi] whose cotangent is lam."""
    return float(np.arctan2(1.0, lam))


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

    def embed(q):
        sigma = sphere_chart(n, q)
        return np.concatenate([r * sigma, np.full(sigma.shape[:-1] + (1,), c)], axis=-1)

    def normal(q):
        sigma = sphere_chart(n, q)
        return np.concatenate([-c * sigma, np.full(sigma.shape[:-1] + (1,), r)], axis=-1)

    return HypersurfaceChart(
        dim=n,
        embed=embed,
        normal=normal,
        box=Box.cube(n, 0.45),
        name="sphere",
        meta={"r": r, "isoparametric": True, "distinct": 1},
    )


def product_spheres(k: int, n: int, r1: float, r2: float | None = None) -> HypersurfaceChart:
    """Product of a k-sphere and an (n-k)-sphere inside the unit (n+1)-sphere.

    Principal curvatures are r2/r1 (k times) and -r1/r2 (n-k times).
    """
    if not 1 <= k <= n - 1:
        raise ChartError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if r2 is None:
        if not 0.0 < r1 < 1.0:
            raise ChartError(f"first radius must lie in (0, 1), got {r1}")
        r2 = float(np.sqrt(1.0 - r1 * r1))
    if abs(r1 * r1 + r2 * r2 - 1.0) > 1e-12:
        raise ChartError(f"radii must satisfy r1^2 + r2^2 = 1, got {r1}, {r2}")

    def embed(q):
        q = np.asarray(q, dtype=float)
        s1, s2 = sphere_chart(k, q[..., :k]), sphere_chart(n - k, q[..., k:])
        return np.concatenate([r1 * s1, r2 * s2], axis=-1)

    def normal(q):
        q = np.asarray(q, dtype=float)
        s1, s2 = sphere_chart(k, q[..., :k]), sphere_chart(n - k, q[..., k:])
        return np.concatenate([-r2 * s1, r1 * s2], axis=-1)

    return HypersurfaceChart(
        dim=n,
        embed=embed,
        normal=normal,
        box=Box.cube(n, 0.45),
        name="product",
        meta={"k": k, "r1": r1, "r2": r2, "isoparametric": True, "distinct": 2},
    )


_HALF_SQRT3 = 0.5 * math.sqrt(3.0)


def _veronese(x, y) -> np.ndarray:
    """The symmetric bilinear form B of the Veronese map: B(x, y) in R^5 for x, y in R^3.

    x and y are arrays (..., 3), and B comes back as (..., 5). B(s, s) for s
    on the unit 2-sphere is the degree-2 spherical-harmonic (Veronese)
    embedding, scaled so the image lies in the unit 4-sphere.
    """
    o = x[..., :, None] * y[..., None, :]
    sym = o + o.swapaxes(-1, -2)
    return np.concatenate(
        [
            _HALF_SQRT3 * sym[..., [0, 0, 1], [1, 2, 2]],
            (_HALF_SQRT3 * (o[..., 0, 0] - o[..., 1, 1]))[..., None],
            (0.5 * (o[..., 0, 0] + o[..., 1, 1]) - o[..., 2, 2])[..., None],
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
    plane. Returns three (..., 5) arrays; ChartError names the first row
    whose frame degenerates.
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
    norms = np.linalg.norm(w, axis=-1, keepdims=True)
    degenerate = (norms < 1e-8).any(axis=(-2, -1)).ravel()
    if degenerate.any():
        row = q.reshape(-1, q.shape[-1])[degenerate][0]
        raise ChartError(f"degenerate normal frame for the Veronese surface at {row}")
    xi = w / norms
    return forms[..., 3, :], xi[..., 0, :], xi[..., 1, :]


def cartan_tube(t: float = 0.35) -> HypersurfaceChart:
    """Tube of radius t around the Veronese surface in the unit 4-sphere.

    This is the three-dimensional isoparametric family with three distinct
    principal curvatures; coordinates are (two Veronese chart angles, one
    normal-circle angle).
    """
    if not np.isfinite(t):
        raise ChartError(f"tube radius t must be finite, got {t}")

    ct, st = math.cos(t), math.sin(t)

    def embed(x):
        x = np.asarray(x, dtype=float)
        v, xi1, xi2 = _veronese_frame(x)
        c, s = np.cos(x[..., 2:3]), np.sin(x[..., 2:3])
        return ct * v + st * (c * xi1 + s * xi2)

    def normal(x):
        x = np.asarray(x, dtype=float)
        v, xi1, xi2 = _veronese_frame(x)
        c, s = np.cos(x[..., 2:3]), np.sin(x[..., 2:3])
        return -st * v + ct * (c * xi1 + s * xi2)

    chart = HypersurfaceChart(
        dim=3,
        embed=embed,
        normal=normal,
        box=Box(lows=np.array([-0.35, -0.35, -0.6]), highs=np.array([0.35, 0.35, 0.6])),
        name="cartan",
        meta={"t": t, "isoparametric": True, "distinct": 3},
    )
    try:
        spec = principal_curvatures(chart, chart.box.center, 1e-4)
    except (ChartError, NumericsError) as exc:
        raise FocalRadiusError(
            f"tube radius {t} is focal or nearly focal; choose a radius away "
            f"from multiples of pi/3 ({exc})"
        ) from exc
    if np.abs(spec.lambdas).max() > 1e5:
        raise FocalRadiusError(
            f"tube radius {t} is nearly focal (principal curvature "
            f"{spec.lambdas}); choose a radius away from multiples of pi/3"
        )
    return chart


def parallel_hypersurface(chart: HypersurfaceChart, t: float) -> HypersurfaceChart:
    """Parallel hypersurface at oriented distance t along the normal.

    Shares the Gauss map of the input chart; each principal curvature moves by
    lam -> cot(arccot(lam) + t).
    """

    def embed(q):
        return np.cos(t) * chart.embed(q) - np.sin(t) * chart.normal(q)

    def normal(q):
        return np.sin(t) * chart.embed(q) + np.cos(t) * chart.normal(q)

    out = HypersurfaceChart(
        dim=chart.dim,
        embed=embed,
        normal=normal,
        box=chart.box,
        name=f"{chart.name}-parallel",
        meta={**chart.meta, "parallel_offset": t},
    )
    gram_min = ChartStencil(out, out.box.center, 1e-4).gram_spectrum[0]
    if gram_min <= 1e-12:
        raise ChartError(
            f"parallel offset {t} degenerates the immersion "
            f"(smallest Gram eigenvalue {gram_min:.2e})"
        )
    return out


def _rho_jet(q, rho0: float, eps: float):
    """Height function of the perturbed sphere with its gradient, for a point or a batch."""
    a = 1.3 * q[..., 0] + 0.4
    b = 0.9 * q[..., 1] - 0.2
    rho = rho0 + eps * np.sin(a) * np.cos(b)
    grad = np.stack([1.3 * eps * np.cos(a) * np.cos(b), -0.9 * eps * np.sin(a) * np.sin(b)], axis=-1)
    return rho, grad


def perturbed_sphere(n: int = 2, rho0: float = 0.9, eps: float = 0.08) -> HypersurfaceChart:
    """Radial graph over a geodesic sphere; non-isoparametric test surface.

    The height function rho(q) = rho0 + eps * sin(1.3 q1 + 0.4) cos(0.9 q2 - 0.2)
    yields genuinely varying principal curvatures and a non-minimal Gauss map.
    """
    if n != 2:
        raise ChartError("perturbed sphere is implemented for n = 2 only")

    def embed(q):
        q = np.asarray(q, dtype=float)
        rho, _ = _rho_jet(q, rho0, eps)
        return np.concatenate([np.sin(rho)[..., None] * sphere_chart(n, q), np.cos(rho)[..., None]], axis=-1)

    def normal(q):
        q = np.asarray(q, dtype=float)
        rho, grad = _rho_jet(q, rho0, eps)
        sigma, dsigma = sphere_chart_with_derivatives(n, q)
        sr, cr = np.sin(rho)[..., None], np.cos(rho)[..., None]
        # (..., i, n+2): the coordinate tangents d_i embed
        tangents = np.concatenate(
            [
                (cr * grad)[..., None] * sigma[..., None, :] + sr[..., None] * dsigma,
                (-sr * grad)[..., None],
            ],
            axis=-1,
        )
        v = np.concatenate([cr * sigma, -sr], axis=-1)
        gram = tangents @ tangents.swapaxes(-1, -2)
        coeff = np.linalg.solve(gram, grad[..., None])
        b = v - (coeff.swapaxes(-1, -2) @ tangents)[..., 0, :]
        return b / np.linalg.norm(b, axis=-1, keepdims=True)

    return HypersurfaceChart(
        dim=n,
        embed=embed,
        normal=normal,
        box=Box.cube(n, 0.4),
        name="perturbed",
        meta={"rho0": rho0, "eps": eps, "isoparametric": False},
    )
