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

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .hypersurfaces import ChartError, ChartStencil, HypersurfaceChart
from .numerics import flagged_row, hessian_stencil, second_derivative, symmetric_eigen, symmetrize
from .quadric import (
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
    """Second-order data of the Gauss-map lift at one chart point or at a batch of them.

    At a batch every array carries the batch axes in front; jet[k] is the jet
    at row k.
    """

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

    def __getitem__(self, k) -> "GaussJet":
        """The jet at row k of a batch, sharing every value already computed."""
        row = replace(self, **{f.name: getattr(self, f.name)[k] for f in fields(self) if f.name != "steps"})
        if "coord_second" in vars(self):
            vars(row)["coord_second"] = self.coord_second[k]
        return row

    @cached_property
    def coord_second(self) -> np.ndarray:
        """(..., n, n, n+2) complex second chart derivatives of the lift.

        The diagonal rule reads the lift at p from the first-order stencil;
        the axis and corner points of the whole batch go to the chart in one
        call.
        """
        h2 = self.steps.second
        at, corners = hessian_stencil(self.chart.lift, self.point, h2, (2.0, 1.0, -1.0, -2.0))
        return np.moveaxis(second_derivative(h2, self.stencil.lift, at, corners), (0, 1), (-3, -2))

    @property
    def frame(self) -> list[HorizontalVector]:
        """Lift derivatives along the unit principal directions."""
        return [
            HorizontalVector(base=self.lift, w=self.principal_vel[k] @ self.coord_first)
            for k in range(self.dim)
        ]

    def lagrangian_residual(self) -> float:
        """Largest defect of the lifted orthonormal frame from a Lagrangian one, per row at a batch."""
        w = self.on_frame_vel @ self.coord_first
        herm = np.conj(w) @ w.swapaxes(-1, -2)
        # imaginary parts are the inner products against the rotated frame
        return np.maximum(
            np.abs(herm.imag).max(axis=(-2, -1)),
            np.abs(herm.real - np.eye(self.dim)).max(axis=(-2, -1)),
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
    """Evaluate the Gauss-map lift with its first chart derivatives at p.

    p is a point (n,) or a batch of points (..., n); a batch reaches the
    chart as one stencil, and every check below runs on each of its rows,
    an error naming the point of the first failing row. The second
    derivatives follow on first use of GaussJet.coord_second. Raises
    GaussMapError when the Lagrangian residual exceeds 1e-6, which signals an
    inconsistent chart/normal pair rather than a step-size issue.
    """
    steps = steps or FdSteps()
    p = np.asarray(p, dtype=float)
    bad = flagged_row(~chart.box.contains(p, margin=steps.stencil_margin), p)
    if bad:
        raise GaussMapError(
            f"point {bad[0]} too close to the boundary of chart '{chart.name}' "
            f"for stencil margin {steps.stencil_margin:.3g}"
        )

    st = ChartStencil(chart, p, steps.first)
    lift = StiefelPoint.from_complex(st.lift)
    res = lift.invariant_residuals()
    bad = flagged_row(np.maximum.reduce(list(res.values())) > 1e-9, p, *res.values())
    if bad:
        raise GaussMapError(
            f"chart '{chart.name}' does not lift to the Stiefel manifold at "
            f"{bad[0]}: residuals {dict(zip(res, bad[1:]))}"
        )

    # orthonormal frame for the induced metric, as coordinate velocities
    w_eval, v = symmetric_eigen(st.lift_metric)
    bad = flagged_row(w_eval[..., 0] <= 1e-10, p, w_eval)
    if bad:
        raise GaussMapError(f"degenerate induced metric at {bad[0]}: spectrum {bad[1]}")
    on_frame_vel = (v / np.sqrt(w_eval)[..., None, :]).swapaxes(-1, -2)

    # principal curvature data from the hypersurface side
    try:
        shape = st.principal_curvatures()
    except ChartError as exc:
        raise GaussMapError(f"no principal curvatures on chart '{chart.name}': {exc}") from exc

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
    bad = flagged_row(res > 1e-6, res, p)
    if bad:
        raise GaussMapError(
            f"Lagrangian residual {bad[0]:.2e} at {bad[1]} on chart '{chart.name}': "
            f"the normal field is inconsistent with the embedding"
        )
    # frame relation: d(lift) along the j-th principal direction must be
    # (1 - i lambda_j)/sqrt(2) times that direction
    lam = jet.lambdas
    predicted = (1.0 - 1j * lam[..., None]) / np.sqrt(2.0) * jet.principal_ambient
    defect = np.abs(jet.principal_vel @ jet.coord_first - predicted).max(axis=-1) / (1.0 + np.abs(lam))
    bad = flagged_row((defect > 1e-5).any(axis=-1), p, defect)
    if bad:
        raise GaussMapError(
            f"lift derivative does not match principal data at {bad[0]} "
            f"(direction {np.argmax(bad[1])}, defect {bad[1].max():.2e} relative to 1 + |lambda|)"
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
    They commute and their squares sum to the identity. At a batched jet the
    gauge angle is a number or one angle per row.
    """
    w = jet.on_frame_vel @ jet.coord_first
    bilinear = w @ w.swapaxes(-1, -2)
    eta = -np.exp(1j * np.asarray(gauge.phi))[..., None, None] * np.conj(bilinear)
    b = 0.5 * (eta.real + eta.real.swapaxes(-1, -2))
    c = -0.5 * (eta.imag + eta.imag.swapaxes(-1, -2))
    return b, c


@dataclass(frozen=True)
class AngleSpectrum:
    """Angle functions with the diagonalizing orthonormal tangent frame.

    thetas are mod-pi representatives in [0, pi), ascending; frame_vel[k] is
    the coordinate velocity of the k-th frame vector, frame_ambient[k] its
    horizontal lift. The spectra of a batched jet carry its batch axes in
    front.
    """

    thetas: np.ndarray
    frame_vel: np.ndarray
    frame_ambient: np.ndarray
    gauge: StructureGauge
    lift: StiefelPoint
    diag_residual: float

    @property
    def dim(self) -> int:
        return self.thetas.shape[-1]

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

    The tangential operator is diagonalized first, in one stacked solve at a
    batched jet; degenerate eigenspaces (gap below 1e-7) are resolved row by
    row, by diagonalizing the second operator inside them. Inconsistent
    residuals raise GaussMapError naming the point.
    """
    gauge = gauge or StructureGauge(0.0)
    b, c = structure_operators(jet, gauge)
    wb, vb = symmetric_eigen(b)
    rot = vb.copy()
    for row in np.ndindex(wb.shape[:-1]):
        for cluster in _cluster(wb[row], ANGLE_CLUSTER_GAP):
            if len(cluster) == 1:
                continue
            basis = vb[row][:, cluster]
            c_sub = symmetrize(basis.T @ c[row] @ basis, tol=1e-5)
            _, v_sub = symmetric_eigen(c_sub)
            rot[row][:, cluster] = basis @ v_sub
    b_diag = rot.swapaxes(-1, -2) @ b @ rot
    c_diag = rot.swapaxes(-1, -2) @ c @ rot
    off_diagonal = ~np.eye(jet.dim, dtype=bool)
    off = np.maximum(
        np.abs(b_diag[..., off_diagonal]).max(axis=-1, initial=0.0),
        np.abs(c_diag[..., off_diagonal]).max(axis=-1, initial=0.0),
    )
    bad = flagged_row(off > 1e-6, off, jet.point)
    if bad:
        raise GaussMapError(
            f"could not simultaneously diagonalize the structure operators "
            f"(off-diagonal residual {bad[0]:.2e}); eigenvalue clusters are "
            f"inconsistent at {bad[1]}"
        )
    cos2 = np.diagonal(b_diag, axis1=-2, axis2=-1)
    sin2 = np.diagonal(c_diag, axis1=-2, axis2=-1)
    thetas = np.mod(0.5 * np.arctan2(sin2, cos2), np.pi)
    # a tiny negative angle reduces to a representative that rounds to pi
    thetas[thetas >= np.pi] = 0.0
    order = np.argsort(thetas, axis=-1, kind="stable")
    thetas = np.take_along_axis(thetas, order, axis=-1)
    rot = np.take_along_axis(rot, order[..., None, :], axis=-1)
    frame_vel = rot.swapaxes(-1, -2) @ jet.on_frame_vel
    frame_ambient = frame_vel @ jet.coord_first
    return AngleSpectrum(
        thetas=thetas,
        frame_vel=frame_vel,
        frame_ambient=frame_ambient,
        gauge=gauge,
        lift=jet.lift,
        diag_residual=off,
    )


def normalized_phase(jet: GaussJet, ref_phi: float | None = None) -> float:
    """Gauge angle making the angle functions sum to zero mod pi.

    Out of the n admissible gauges (spaced 2 pi / n apart) returns the
    smallest non-negative one, or the one closest to ref_phi when given; one
    angle per row at a batched jet.
    """
    spec0 = angle_spectrum(jet, StructureGauge(0.0))
    n = jet.dim
    period = 2.0 * np.pi / n
    phi = np.mod(2.0 * np.sum(spec0.thetas, axis=-1) / n, period)
    if ref_phi is not None:
        k = np.round((ref_phi - phi) / period)
        phi = phi + k * period
    return phi if np.ndim(phi) else float(phi)


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
    with the defect checked against 1e-4 on each row of a batch.
    """
    f = spec.frame_ambient
    vel = spec.frame_vel
    second = np.einsum("...ia,...jb,...abm->...ijm", vel, vel, jet.coord_second)
    h = np.einsum("...ijm,...km->...ijk", second, np.conj(1j * f)).real

    def t(*axes):
        # np.transpose(h, axes) on the last three axes
        lead = h.ndim - 3
        return np.transpose(h, tuple(range(lead)) + tuple(lead + a for a in axes))

    defect = np.maximum(
        np.abs(h - t(0, 2, 1)).max(axis=(-3, -2, -1)),
        np.abs(h - t(2, 1, 0)).max(axis=(-3, -2, -1)),
    )
    bad = flagged_row(defect > 1e-4, defect, jet.point)
    if bad:
        raise GaussMapError(
            f"cubic form symmetry defect {bad[0]:.2e} at {bad[1]}: "
            f"reduce the second-derivative step or check the chart"
        )
    sym = (h + t(0, 2, 1) + t(1, 0, 2) + t(1, 2, 0) + t(2, 0, 1) + t(2, 1, 0)) / 6.0
    return FundamentalForm(h=sym, symmetry_defect=defect)


def mean_curvature(ff: FundamentalForm) -> np.ndarray:
    """Components of the mean curvature vector against the rotated frame."""
    n = ff.h.shape[0]
    return np.einsum("jji->i", ff.h) / n

