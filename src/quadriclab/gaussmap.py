"""Gauss maps of sphere hypersurfaces as Lagrangian immersions in the quadric.

For a chart (a, b) the lift of the Gauss map is (a + i b)/sqrt(2); its chart
derivatives give the Lagrangian tangent frame, the almost product structure
splits into two commuting symmetric operators on that frame, and their joint
eigenangles are the angle functions. The cubic form (the components of the
second fundamental form against the rotated frame) comes from ambient second
derivatives of the lift: all correction terms of the three nested connections
are orthogonal to the directions we pair against, so no Christoffel symbols
are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hypersurfaces import ChartError, ChartStencil, HypersurfaceChart
from .numerics import hessian_stencil, second_derivative, symmetric_eigen, symmetrize
from .quadric import (
    GeometryError,
    HorizontalVector,
    StiefelPoint,
    StructureGauge,
)

__all__ = [
    "GaussMapError",
    "FdSteps",
    "GaussJet",
    "AngleSpectrum",
    "FundamentalForm",
    "gauss_map",
    "structure_operators",
    "angle_spectrum",
    "gauge_normalize",
    "normalized_phase",
    "second_fundamental_form",
    "mean_curvature",
    "mod_pi_distance",
    "nearest_mod_pi",
    "mod_pi_clusters",
]

ANGLE_CLUSTER_GAP = 1e-7


class GaussMapError(Exception):
    """Gauss-map evaluation failed (broken chart, stencil, or clustering)."""


@dataclass(frozen=True)
class FdSteps:
    """Finite-difference step sizes for the geometric pipeline.

    first drives first derivatives of chart maps, second the ambient second
    derivatives, field the derivatives of pointwise-computed fields (angles,
    frames, cubic form), metric the curvature-from-metric route. The latter
    three trade truncation against the roundoff already present in the
    differentiated values, hence the larger defaults.
    """

    first: float = 1e-4
    second: float = 1.5e-3
    field: float = 2e-3
    metric: float = 2.5e-3

    @staticmethod
    def from_base(h: float) -> "FdSteps":
        return FdSteps(
            first=h,
            second=min(15.0 * h, 5e-3),
            field=min(20.0 * h, 6e-3),
            metric=min(25.0 * h, 8e-3),
        )

    @property
    def stencil_margin(self) -> float:
        return 2.0 * max(2.0 * self.first, 2.0 * self.second, self.field + 2.0 * self.second, 2.0 * self.metric)


@dataclass(frozen=True)
class GaussJet:
    """Second-order data of the Gauss-map lift at one chart point."""

    stencil: ChartStencil  # embed, normal and lift with first derivatives
    lift: StiefelPoint
    on_frame_vel: np.ndarray  # (n, n) velocities of an orthonormal frame
    lambdas: np.ndarray  # principal curvatures, descending
    principal_vel: np.ndarray  # (n, n) velocities of unit principal directions
    principal_ambient: np.ndarray  # (n, n+2) their images in the sphere
    steps: FdSteps

    @property
    def chart(self) -> HypersurfaceChart:
        return self.stencil.chart

    @property
    def point(self) -> np.ndarray:
        return self.stencil.point

    @property
    def coord_first(self) -> np.ndarray:
        """(n, n+2) complex first chart derivatives of the lift."""
        return self.stencil.d_lift

    @property
    def dim(self) -> int:
        return self.chart.dim

    @cached_property
    def coord_second(self) -> np.ndarray:
        """(n, n, n+2) complex second chart derivatives of the lift.

        The diagonal rule reads the lift at p from the first-order stencil;
        the axis and corner points go to the chart in one call.
        """
        h2 = self.steps.second
        at, corners = hessian_stencil(self.chart.lift, self.point, h2, (2.0, 1.0, -1.0, -2.0))
        return second_derivative(h2, self.stencil.lift, at, corners)

    @property
    def frame(self) -> list[HorizontalVector]:
        """Lift derivatives along the unit principal directions."""
        return [
            HorizontalVector(base=self.lift, w=self.principal_vel[k] @ self.coord_first)
            for k in range(self.dim)
        ]

    def lagrangian_residual(self) -> float:
        w = self.on_frame_vel @ self.coord_first
        herm = np.conj(w) @ w.T
        # imaginary parts are the inner products against the rotated frame
        return float(
            max(
                np.abs(herm.imag).max(),
                np.abs(herm.real - np.eye(self.dim)).max(),
            )
        )

    def horizontality_residual(self) -> float:
        z = self.lift.z
        zb = np.conj(z)
        return float(
            max(
                np.abs(self.coord_first @ np.conj(z)).max(),
                np.abs(self.coord_first @ z).max(),
                np.abs(self.coord_first @ zb).max(),
            )
        )


def gauss_map(
    chart: HypersurfaceChart, p, steps: FdSteps | None = None
) -> GaussJet:
    """Evaluate the Gauss-map lift with its first chart derivatives.

    The second derivatives follow on first use of GaussJet.coord_second.
    Raises GaussMapError when the Lagrangian residual exceeds 1e-6, which
    signals an inconsistent chart/normal pair rather than a step-size issue.
    """
    steps = steps or FdSteps()
    p = np.asarray(p, dtype=float)
    if not chart.box.contains(p, margin=steps.stencil_margin):
        raise GaussMapError(
            f"point {p} too close to the boundary of chart '{chart.name}' "
            f"for stencil margin {steps.stencil_margin:.3g}"
        )

    st = ChartStencil(chart, p, steps.first)
    try:
        lift = StiefelPoint.from_complex(st.lift).validate(1e-9)
    except GeometryError as exc:
        raise GaussMapError(
            f"chart '{chart.name}' does not lift to the Stiefel manifold at "
            f"{p}: {exc}"
        ) from exc

    # orthonormal frame for the induced metric, as coordinate velocities
    w_eval, v = symmetric_eigen(st.lift_metric)
    if w_eval[0] <= 1e-10:
        raise GaussMapError(f"degenerate induced metric at {p}: spectrum {w_eval}")
    on_frame_vel = (v / np.sqrt(w_eval)).T

    # principal curvature data from the hypersurface side
    try:
        shape = st.principal_curvatures()
    except ChartError as exc:
        raise GaussMapError(
            f"no principal curvatures at {p} on chart '{chart.name}': {exc}"
        ) from exc

    jet = GaussJet(
        stencil=st,
        lift=lift,
        on_frame_vel=on_frame_vel,
        lambdas=shape.lambdas,
        principal_vel=shape.directions_chart,
        principal_ambient=shape.directions_ambient,
        steps=steps,
    )
    res = jet.lagrangian_residual()
    if res > 1e-6:
        raise GaussMapError(
            f"Lagrangian residual {res:.2e} at {p} on chart '{chart.name}': "
            f"the normal field is inconsistent with the embedding"
        )
    # frame relation: d(lift) along the j-th principal direction must be
    # (1 - i lambda_j)/sqrt(2) times that direction
    for k, lam in enumerate(jet.lambdas):
        predicted = (1.0 - 1j * lam) / np.sqrt(2.0) * jet.principal_ambient[k]
        actual = jet.principal_vel[k] @ jet.coord_first
        if np.abs(actual - predicted).max() > 1e-5 * (1.0 + abs(lam)):
            raise GaussMapError(
                f"lift derivative does not match principal data at {p} "
                f"(direction {k}, defect "
                f"{np.abs(actual - predicted).max():.2e})"
            )
    return jet


# ---------------------------------------------------------------------------
# structure operators and angles
# ---------------------------------------------------------------------------

def structure_operators(
    jet: GaussJet, gauge: StructureGauge
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of the tangential and twisted-normal parts of the structure.

    In an orthonormal tangent frame w the gauged structure acts by
    w -> -exp(i phi) conj(w); the two returned matrices are its tangential
    component and the complex-structure rotation of its normal component.
    They commute and their squares sum to the identity.
    """
    w = jet.on_frame_vel @ jet.coord_first
    bilinear = w @ w.T
    eta = -np.exp(1j * gauge.phi) * np.conj(bilinear)
    b = 0.5 * (eta.real + eta.real.T)
    c = -0.5 * (eta.imag + eta.imag.T)
    return b, c


@dataclass(frozen=True)
class AngleSpectrum:
    """Angle functions with the diagonalizing orthonormal tangent frame.

    thetas are mod-pi representatives in [0, pi), ascending; frame_vel[k] is
    the coordinate velocity of the k-th frame vector, frame_ambient[k] its
    horizontal lift.
    """

    thetas: np.ndarray
    frame_vel: np.ndarray
    frame_ambient: np.ndarray
    gauge: StructureGauge
    lift: StiefelPoint
    diag_residual: float

    @property
    def dim(self) -> int:
        return len(self.thetas)

    def cos_sin(self) -> tuple[np.ndarray, np.ndarray]:
        return np.cos(2.0 * self.thetas), np.sin(2.0 * self.thetas)


def mod_pi_distance(a: float, b: float) -> float:
    """Distance between two angles taken mod pi, in [0, pi/2]."""
    d = abs(a - b) % np.pi
    return min(d, np.pi - d)


def nearest_mod_pi(theta, ref):
    """The representative theta + k pi nearest ref; exactly theta when |ref - theta| < pi/2."""
    return theta + np.round((ref - theta) / np.pi) * np.pi


def mod_pi_clusters(thetas, gap: float) -> list[list[int]]:
    """Indices of ascending angles grouped by consecutive mod-pi distance <= gap.

    The last group joins the first across 0 = pi when its last angle is within
    gap of the first angle; the joined group lists the first group's members,
    then the last's.
    """
    clusters = [[0]]
    for k in range(1, len(thetas)):
        if mod_pi_distance(thetas[k], thetas[clusters[-1][-1]]) <= gap:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    if len(clusters) > 1 and mod_pi_distance(thetas[0], thetas[-1]) <= gap:
        clusters[0].extend(clusters.pop())
    return clusters


def _cluster(values: np.ndarray, gap: float) -> list[list[int]]:
    order = np.argsort(values, kind="stable")
    clusters = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[clusters[-1][-1]] <= gap:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return clusters


def angle_spectrum(jet: GaussJet, gauge: StructureGauge | None = None) -> AngleSpectrum:
    """Joint eigenangles of the structure operators, sorted ascending in [0, pi).

    The tangential operator is diagonalized first; degenerate eigenspaces
    (gap below 1e-7) are resolved by diagonalizing the second operator inside
    them. Inconsistent residuals raise GaussMapError.
    """
    gauge = gauge or StructureGauge(0.0)
    b, c = structure_operators(jet, gauge)
    wb, vb = symmetric_eigen(b)
    rot = vb.copy()
    for cluster in _cluster(wb, ANGLE_CLUSTER_GAP):
        if len(cluster) == 1:
            continue
        basis = vb[:, cluster]
        c_sub = symmetrize(basis.T @ c @ basis, tol=1e-5)
        _, v_sub = symmetric_eigen(c_sub)
        rot[:, cluster] = basis @ v_sub
    b_diag = rot.T @ b @ rot
    c_diag = rot.T @ c @ rot
    off = max(
        np.abs(b_diag - np.diag(np.diag(b_diag))).max(),
        np.abs(c_diag - np.diag(np.diag(c_diag))).max(),
    )
    if off > 1e-6:
        raise GaussMapError(
            f"could not simultaneously diagonalize the structure operators "
            f"(off-diagonal residual {off:.2e}); eigenvalue clusters are "
            f"inconsistent at {jet.point}"
        )
    cos2 = np.diag(b_diag)
    sin2 = np.diag(c_diag)
    thetas = np.mod(0.5 * np.arctan2(sin2, cos2), np.pi)
    # a tiny negative angle reduces to a representative that rounds to pi
    thetas[thetas >= np.pi] = 0.0
    order = np.argsort(thetas, kind="stable")
    thetas = thetas[order]
    rot = rot[:, order]
    frame_vel = rot.T @ jet.on_frame_vel
    frame_ambient = frame_vel @ jet.coord_first
    return AngleSpectrum(
        thetas=thetas,
        frame_vel=frame_vel,
        frame_ambient=frame_ambient,
        gauge=gauge,
        lift=jet.lift,
        diag_residual=float(off),
    )


def normalized_phase(jet: GaussJet, ref_phi: float | None = None) -> float:
    """Gauge angle making the angle functions sum to zero mod pi.

    Out of the n admissible gauges (spaced 2 pi / n apart) returns the
    smallest non-negative one, or the one closest to ref_phi when given.
    """
    spec0 = angle_spectrum(jet, StructureGauge(0.0))
    n = jet.dim
    period = 2.0 * np.pi / n
    phi = float(np.mod(2.0 * np.sum(spec0.thetas) / n, period))
    if ref_phi is not None:
        k = np.round((ref_phi - phi) / period)
        phi = phi + k * period
    return phi


def gauge_normalize(jet: GaussJet, ref_phi: float | None = None) -> StructureGauge:
    """Gauge with zero angle sum (mod pi), nearest ref_phi if given; verified to 1e-8."""
    phi = normalized_phase(jet, ref_phi)
    spec = angle_spectrum(jet, StructureGauge(phi))
    defect = mod_pi_distance(np.sum(spec.thetas), 0.0)
    if defect > 1e-8:
        raise GaussMapError(
            f"normalized gauge failed: angle sum defect {defect:.2e}"
        )
    return StructureGauge(phi)


# ---------------------------------------------------------------------------
# second fundamental form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalForm:
    """Cubic-form components h[i, j, k] in the angle-spectrum frame."""

    h: np.ndarray
    symmetry_defect: float


def second_fundamental_form(
    jet: GaussJet, spec: AngleSpectrum
) -> FundamentalForm:
    """Components of the second fundamental form in the given angle frame.

    Computed as ambient second derivatives of the lift paired against the
    complex rotation of the frame; sphere, fiber and quadric-normal parts of
    the connection corrections are killed by that pairing. Fully symmetrized,
    with the defect checked against 1e-4.
    """
    f = spec.frame_ambient
    vel = spec.frame_vel
    second = np.einsum("ia,jb,abm->ijm", vel, vel, jet.coord_second)
    h = np.einsum("ijm,km->ijk", second, np.conj(1j * f)).real
    defect = float(
        max(
            np.abs(h - np.transpose(h, (0, 2, 1))).max(),
            np.abs(h - np.transpose(h, (2, 1, 0))).max(),
        )
    )
    if defect > 1e-4:
        raise GaussMapError(
            f"cubic form symmetry defect {defect:.2e} at {jet.point}: "
            f"reduce the second-derivative step or check the chart"
        )
    sym = (
        h
        + np.transpose(h, (0, 2, 1))
        + np.transpose(h, (1, 0, 2))
        + np.transpose(h, (1, 2, 0))
        + np.transpose(h, (2, 0, 1))
        + np.transpose(h, (2, 1, 0))
    ) / 6.0
    return FundamentalForm(h=sym, symmetry_defect=defect)


def mean_curvature(ff: FundamentalForm) -> np.ndarray:
    """Components of the mean curvature vector against the rotated frame."""
    n = ff.h.shape[0]
    return np.einsum("jji->i", ff.h) / n

