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
from .numerics import flagged_row, gather, hessian_stencil, second_derivative, symmetric_eigen, symmetrize
from .quadric import stiefel_residuals

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
    """Finite-difference step sizes for the geometric pipeline, all from one base step.

    first drives first derivatives of chart maps, second the ambient second
    derivatives, field the derivatives of pointwise-computed fields (angles,
    frames, cubic form), metric the curvature-from-metric route. The latter
    three trade truncation against the roundoff already present in the
    differentiated values, hence their larger multiples of first.
    """

    first: float = 1e-4

    @property
    def second(self) -> float:
        return min(15.0 * self.first, 5e-3)

    @property
    def field(self) -> float:
        return min(20.0 * self.first, 6e-3)

    @property
    def metric(self) -> float:
        return min(25.0 * self.first, 8e-3)

    @property
    def stencil_margin(self) -> float:
        return 2.0 * max(2.0 * self.first, 2.0 * self.second, self.field + 2.0 * self.second, 2.0 * self.metric)


class GaussJet(ChartStencil):
    """Second-order data of the Gauss-map lift at one chart point or at a batch of them.

    The stencil at steps.first, with the Gauss-map quantities on it computed
    on first use and kept. At a batch every array carries the batch axes in
    front.
    """

    def __init__(self, chart: HypersurfaceChart, p, steps: FdSteps):
        super().__init__(chart, p, steps.first)
        self.steps = steps

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def lambdas(self) -> np.ndarray:
        """Principal curvatures, descending."""
        return self.shape_eigen[0]

    @cached_property
    def on_frame_vel(self) -> np.ndarray:
        """(..., n, n) velocities of an orthonormal frame of the induced metric."""
        w, v = self.lift_eigen
        return (v / np.sqrt(w)[..., None, :]).swapaxes(-1, -2)

    @cached_property
    def coord_second(self) -> np.ndarray:
        """(..., n, n, n+2) complex second chart derivatives of the lift.

        The diagonal rule reads the lift at p from the first-order stencil;
        the axis and corner points of the whole batch go to the chart in one
        call.
        """
        h2 = self.steps.second
        at, corners = hessian_stencil(self.chart.lift, self.point, h2, (2.0, 1.0, -1.0, -2.0))
        return np.moveaxis(second_derivative(h2, self.lift, at, corners), (0, 1), (-3, -2))

    @cached_property
    def lagrangian(self) -> np.ndarray:
        """Largest defect of the lifted orthonormal frame from a Lagrangian one, per row at a batch.

        gauss_map checks it, verify reports it.
        """
        w = self.on_frame_vel @ self.d_lift
        herm = np.conj(w) @ w.swapaxes(-1, -2)
        # imaginary parts are the inner products against the rotated frame
        return np.maximum(
            np.abs(herm.imag).max(axis=(-2, -1)),
            np.abs(herm.real - np.eye(self.dim)).max(axis=(-2, -1)),
        )

    @cached_property
    def horizontality_residual(self) -> np.ndarray:
        """Largest Hermitian product of the lift derivatives with z and with conj z, per row at a batch."""
        z = self.lift[..., :, None]
        return np.maximum(
            np.abs(self.d_lift @ np.conj(z)).max(axis=(-2, -1)),
            np.abs(self.d_lift @ z).max(axis=(-2, -1)),
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

    jet = GaussJet(chart, p, steps)
    res = stiefel_residuals(jet.lift)
    bad = flagged_row(np.maximum.reduce(list(res.values())) > 1e-9, p, *res.values())
    if bad:
        defects = ", ".join(f"{name} {value:.2e}" for name, value in zip(res, bad[1:]))
        raise GaussMapError(
            f"chart '{chart.name}' does not lift to the Stiefel manifold at {bad[0]}: residuals {defects}"
        )

    w_eval = jet.lift_eigen[0]
    bad = flagged_row(w_eval[..., 0] <= 1e-10, p, w_eval)
    if bad:
        raise GaussMapError(f"degenerate induced metric at {bad[0]}: spectrum {bad[1]}")

    # principal curvature data from the hypersurface side
    try:
        lam, principal_vel, principal_ambient = jet.shape_eigen
    except ChartError as exc:
        raise GaussMapError(f"no principal curvatures on chart '{chart.name}': {exc}") from exc

    res = jet.lagrangian
    bad = flagged_row(res > 1e-6, res, p)
    if bad:
        raise GaussMapError(
            f"Lagrangian residual {bad[0]:.2e} at {bad[1]} on chart '{chart.name}': "
            f"the normal field is inconsistent with the embedding"
        )
    # frame relation: d(lift) along the j-th principal direction must be
    # (1 - i lambda_j)/sqrt(2) times that direction
    predicted = (1.0 - 1j * lam[..., None]) / np.sqrt(2.0) * principal_ambient
    defect = np.abs(principal_vel @ jet.d_lift - predicted).max(axis=-1) / (1.0 + np.abs(lam))
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

def structure_operators(jet: GaussJet, phi) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of the tangential and twisted-normal parts of the structure.

    In an orthonormal tangent frame w the gauged structure acts by
    w -> -exp(i phi) conj(w); the two returned matrices are its tangential
    component and the complex-structure rotation of its normal component.
    They commute and their squares sum to the identity. At a batched jet the
    gauge angle phi is a number or one angle per row.
    """
    w = jet.on_frame_vel @ jet.d_lift
    bilinear = w @ w.swapaxes(-1, -2)
    eta = -np.exp(1j * np.asarray(phi))[..., None, None] * np.conj(bilinear)
    b = 0.5 * (eta.real + eta.real.swapaxes(-1, -2))
    c = -0.5 * (eta.imag + eta.imag.swapaxes(-1, -2))
    return b, c


@dataclass(frozen=True)
class AngleSpectrum:
    """Angle functions with the diagonalizing orthonormal tangent frame.

    thetas are mod-pi representatives in [0, pi), ascending, in the gauge of
    angle phi; frame_vel[k] is the coordinate velocity of the k-th frame
    vector, frame_ambient[k] its horizontal lift. The spectra of a batched
    jet carry its batch axes in front; phi is a number or one angle per row,
    and diag_residual holds one value per row.
    """

    thetas: np.ndarray
    frame_vel: np.ndarray
    frame_ambient: np.ndarray
    phi: float | np.ndarray
    diag_residual: np.ndarray

    @property
    def dim(self) -> int:
        return self.thetas.shape[-1]

    def cos_sin(self) -> tuple[np.ndarray, np.ndarray]:
        return np.cos(2.0 * self.thetas), np.sin(2.0 * self.thetas)


def mod_pi_distance(a, b):
    """Distance between two angles taken mod pi, in [0, pi/2]; numbers or arrays of them."""
    d = abs(a - b) % np.pi
    return np.minimum(d, np.pi - d)


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


def angle_spectrum(jet: GaussJet, phi=0.0) -> AngleSpectrum:
    """Joint eigenangles of the structure operators of gauge angle phi, sorted ascending in [0, pi).

    The tangential operator is diagonalized first, in one stacked solve at a
    batched jet. A degenerate eigenspace, a maximal run lo..hi-1 of its
    ascending eigenvalues with consecutive gaps of at most ANGLE_CLUSTER_GAP,
    is resolved by diagonalizing the second operator inside it: the rows
    sharing a run share one stacked solve, and a batch without a run skips
    the search for them. The angles and frame columns are sorted by one flat
    gather each. Inconsistent residuals raise GaussMapError naming the point.
    """
    b, c = structure_operators(jet, phi)
    wb, rot = symmetric_eigen(b)
    close = wb[..., 1:] - wb[..., :-1] <= ANGLE_CLUSTER_GAP
    if close.any():
        # edge[..., j]: a run boundary before eigenvalue j; a row's runs are disjoint, so rot changes in place
        edge = np.concatenate([np.ones_like(close[..., :1]), ~close, np.ones_like(close[..., :1])], axis=-1)
        for lo in range(jet.dim - 1):
            for hi in range(lo + 2, jet.dim + 1):
                rows = edge[..., lo] & edge[..., hi] & close[..., lo : hi - 1].all(axis=-1)
                if not rows.any():
                    continue
                basis = rot[rows][..., list(range(lo, hi))]
                c_sub = symmetrize(basis.swapaxes(-1, -2) @ c[rows] @ basis, tol=1e-5)
                _, v_sub = symmetric_eigen(c_sub)
                rot[rows, :, lo:hi] = basis @ v_sub
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
    thetas, rot = gather(thetas, order), gather(rot, order)
    frame_vel = rot.swapaxes(-1, -2) @ jet.on_frame_vel
    frame_ambient = frame_vel @ jet.d_lift
    return AngleSpectrum(
        thetas=thetas,
        frame_vel=frame_vel,
        frame_ambient=frame_ambient,
        phi=phi,
        diag_residual=off,
    )


def normalized_phase(spec0: AngleSpectrum, ref_phi: float | None = None) -> float:
    """Gauge angle making the angle functions sum to zero mod pi, read from the canonical spectrum.

    Out of the n admissible gauges (spaced 2 pi / n apart) returns the one
    closest to ref_phi; without ref_phi, the smallest non-negative one of the
    first row, so that round-off at the period boundary 0 = 2 pi / n cannot
    switch branches within one batch. One angle per row at a batch.
    """
    n = spec0.dim
    period = 2.0 * np.pi / n
    phi = np.mod(2.0 * np.sum(spec0.thetas, axis=-1) / n, period)
    ref = np.ravel(phi)[0] if ref_phi is None else ref_phi
    phi = phi + np.round((ref - phi) / period) * period
    return phi if np.ndim(phi) else float(phi)


def gauge_normalize(jet: GaussJet, spec0: AngleSpectrum, ref_phi: float | None = None) -> AngleSpectrum:
    """Angle spectrum in the gauge of normalized_phase(spec0, ref_phi).

    Each row's angle sum is verified to vanish mod pi to 1e-8.
    """
    spec = angle_spectrum(jet, normalized_phase(spec0, ref_phi))
    defect = mod_pi_distance(np.sum(spec.thetas, axis=-1), 0.0)
    bad = flagged_row(defect > 1e-8, defect, jet.point)
    if bad:
        raise GaussMapError(f"normalized gauge failed: angle sum defect {bad[0]:.2e} at {bad[1]}")
    return spec


# ---------------------------------------------------------------------------
# second fundamental form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalForm:
    """Cubic-form components h[i, j, k] in the angle-spectrum frame; symmetry_defect holds one value per row."""

    h: np.ndarray
    symmetry_defect: np.ndarray


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
    """Components of the mean curvature vector against the rotated frame, batch axes in front."""
    return np.einsum("...jji->...i", ff.h) / ff.h.shape[-1]
