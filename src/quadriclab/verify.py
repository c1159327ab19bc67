"""Residual verification of the structural identities of the Lagrangian frame.

Each check compares two independently computed sides of an identity at
every sample point of a run and returns, by report name, one worst residual
per point; the caller applies tolerances. The checks read one SampleBatch,
which holds every quantity of the run's points as one batch each.
Curvature is computed twice, once algebraically from angles and the cubic
form and once from finite differences of the induced metric, so that
sign-convention bugs in either route cannot hide. Besides the checks, the
module classifies a run by the distinct angles of its samples.

Every identity is one numpy broadcast or einsum expression over its tensor
indices, the batch axes in front, reduced over the trailing axes; one taken
over distinct indices masks the rest out, and its residual over an empty
index set is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gaussmap import (
    AngleSpectrum,
    FdSteps,
    FundamentalForm,
    GaussJet,
    angle_spectrum,
    gauge_normalize,
    gauss_map,
    mean_curvature,
    mod_pi_clusters,
    mod_pi_distance,
    nearest_mod_pi,
    second_fundamental_form,
    structure_operators,
)
from .hypersurfaces import HypersurfaceChart, lift_metric
from .numerics import (
    _axis_points,
    _corner_points,
    _joint_values,
    axis_stencil,
    central_first,
    flagged_row,
    gather,
    second_derivative,
    symmetric_eigen,
)

__all__ = [
    "VerifyError",
    "ConnectionData",
    "SampleBatch",
    "sample_batch",
    "FieldDerivatives",
    "field_derivatives",
    "connection_and_s",
    "structure_residuals",
    "cotangent_residual",
    "check_prop1",
    "palmer_residual",
    "curvature_from_metric",
    "gauss_metric_fn",
    "gauss_equation_residual",
    "codazzi_residual",
    "sectional_curvature",
    "sectional_residuals",
    "check_csc_identities",
    "isoparametric_variance",
    "classify_by_angles",
]


class VerifyError(Exception):
    """A verification routine could not be carried out."""


# ---------------------------------------------------------------------------
# frame transport and field derivatives
# ---------------------------------------------------------------------------

def _align_to_reference(spec: AngleSpectrum, ref: AngleSpectrum, points: np.ndarray) -> AngleSpectrum:
    """Permute and rotate nearby spectra so their frames follow the reference.

    ref is one spectrum or a batch of them, and the batch axes of spec begin
    with those of ref: each row of spec under batch index k of ref is aligned
    on its own to reference k.
    points holds the chart point of each row of spec. Frame vectors are
    matched cluster by cluster, clusters taken from the reference angles;
    inside each matched block the frame is rotated by the orthogonal
    Procrustes factor, which realizes transport by projection for degenerate
    angles. The references sharing one cluster pattern solve one stacked
    polar factor per cluster size for all their rows. Raises VerifyError naming
    the point of the first failing row when its clusters changed, a block
    overlap is singular, or one lies farther than 0.1 from the identity.
    """
    n = ref.dim
    ref_thetas = ref.thetas.reshape(-1, n)
    ref_frames = ref.frame_ambient.reshape(len(ref_thetas), n, -1)
    thetas = spec.thetas.reshape(len(ref_thetas), -1, n)
    frame_vel = spec.frame_vel.reshape(thetas.shape + (-1,))
    frame_ambient = spec.frame_ambient.reshape(thetas.shape + (-1,))
    points = np.reshape(points, thetas.shape[:-1] + (-1,))
    patterns: dict[tuple, list[int]] = {}
    for k, th in enumerate(ref_thetas):
        patterns.setdefault(tuple(map(tuple, mod_pi_clusters(th, 1e-6))), []).append(k)

    # each sample angle joins the reference cluster holding its nearest angle;
    # sorting the owners stably lists each cluster's members in index order
    changed = np.zeros(thetas.shape[:-1], dtype=bool)
    singular = np.zeros_like(changed)
    blocks = []
    for clusters, ks in patterns.items():
        dist = mod_pi_distance(thetas[ks][..., :, None], ref_thetas[ks][:, None, None, :])
        owner = np.argmin(np.stack([dist[..., cl].min(axis=-1) for cl in clusters], axis=-1), axis=-1)
        order = np.argsort(owner, axis=-1, kind="stable")
        sizes = [len(cl) for cl in clusters]
        expected = np.repeat(np.arange(len(clusters)), sizes)
        changed[ks] = (np.sort(owner, axis=-1) != expected).any(axis=-1)
        by_size = {}
        for cl, members in zip(map(list, clusters), np.split(order, np.cumsum(sizes)[:-1], axis=-1)):
            by_size.setdefault(len(cl), []).append((cl, members, gather(frame_ambient[ks], members, axis=-2)))
        for group in by_size.values():
            overlap = np.stack([np.conj(a) @ ref_frames[ks][:, None, cl].swapaxes(-1, -2) for cl, _, a in group]).real
            w, v = symmetric_eigen(overlap.swapaxes(-1, -2) @ overlap)
            singular[ks] |= (w[..., 0] <= 1e-12).any(axis=0)
            blocks.append((ks, group, overlap, w, v))
    bad = flagged_row(changed, points, np.broadcast_to(ref_thetas[:, None], thetas.shape), thetas)
    if bad:
        raise VerifyError(
            f"angle clusters changed between stencil points at {bad[0]}: reference {bad[1]}, sample {bad[2]}"
        )
    bad = flagged_row(singular, points)
    if bad:
        raise VerifyError(f"frame overlap matrix is singular at {bad[0]}")

    new_thetas, new_frame_vel, new_frame_ambient = map(np.empty_like, (thetas, frame_vel, frame_ambient))
    mismatch = np.zeros(thetas.shape[:-1])
    for ks, group, overlap, w, v in blocks:
        # the orthogonal polar factors of the overlaps, transposed
        inv_sqrt = v @ (np.eye(w.shape[-1]) * (1.0 / np.sqrt(w))[..., None, :]) @ v.swapaxes(-1, -2)
        rot_t = (overlap @ inv_sqrt).swapaxes(-1, -2)
        mismatch[ks] = np.maximum(mismatch[ks], np.abs(rot_t @ overlap - np.eye(w.shape[-1])).max(axis=(0, -2, -1)))
        for (cl, members, ambient), block_rot_t in zip(group, rot_t):
            block = np.ix_(ks, range(thetas.shape[1]), cl)
            new_frame_vel[block] = block_rot_t @ gather(frame_vel[ks], members, axis=-2)
            new_frame_ambient[block] = block_rot_t @ ambient
            new_thetas[block] = nearest_mod_pi(gather(thetas[ks], members), ref_thetas[ks][:, None, cl])
    bad = flagged_row(mismatch > 0.1, mismatch, points)
    if bad:
        raise VerifyError(f"frame transport mismatch {bad[0]:.3f} exceeds 0.1 at {bad[1]}")
    return replace(
        spec,
        thetas=new_thetas.reshape(spec.thetas.shape),
        frame_vel=new_frame_vel.reshape(spec.frame_vel.shape),
        frame_ambient=new_frame_ambient.reshape(spec.frame_ambient.shape),
    )


@dataclass(frozen=True)
class FieldDerivatives:
    """Directional derivatives of the pointwise fields along the angle frame.

    Index convention: the leading index is always the differentiation
    direction i (the i-th frame vector of the reference spectrum at p). At a
    batch of points every array carries the batch axes in front.
    """

    d_theta: np.ndarray  # (n, n): e_i(theta_j), via the doubled angles (branch free)
    d_frame: np.ndarray  # (n, n, n+2) complex: e_i(frame_j lift)
    d_cubic: np.ndarray  # (n, n, n, n): e_i(h_jk^l)
    d_normal_lift: np.ndarray  # (n, n+2) complex: e_i(gauged conjugate lift)
    d_angle_sum: np.ndarray  # (n,): e_i(sum_j arctan lambda_j)


def field_derivatives(jet: GaussJet, spec: AngleSpectrum, renormalize: bool = False) -> FieldDerivatives:
    """Fourth-order derivatives of angles, frame, cubic form, normal lift, angle sum.

    At the point of a jet, or at every row of a batched jet, with spec its
    spectra. Evaluates the whole pointwise pipeline at p +- {H, H/2} along
    every frame direction of every point as one batch of 4n jets per point,
    aligns each stencil frame to its center frame and differences the aligned
    fields along the offset axis. Each point's gauge angle is held fixed over
    its stencil; renormalize instead normalizes the gauge at every stencil
    point, kept nearest the point's own (a varying gauge on a non-minimal
    chart, which gives the gauge one-form s). The result carries the batch
    axes in front.
    """
    h_step = jet.steps.field
    lead = np.ndim(jet.point) - 1
    # (..., offset, direction i, coordinates): the offsets (+1, +1/2, -1/2, -1)
    # in units of H are the +2h, +h, -h, -2h of a five-point rule with step H/2
    offsets = np.array([1.0, 0.5, -0.5, -1.0]) * h_step
    q = jet.point[..., None, None, :] + offsets[:, None, None] * spec.frame_vel[..., None, :, :]
    jets = gauss_map(jet.chart, q, jet.steps)
    # the gauge angle of each point, broadcast over its stencil rows
    phi = np.asarray(spec.phi)[..., None, None]
    if renormalize:
        spec_q = gauge_normalize(jets, angle_spectrum(jets), ref_phi=phi)
    else:
        spec_q = angle_spectrum(jets, phi)
    spec_q = _align_to_reference(spec_q, spec, q)
    normal_lift = np.exp(1j * np.asarray(spec_q.phi))[..., None] * np.conj(jets.lift)

    def d(f):
        return central_first(*np.moveaxis(f, lead, 0), 0.5 * h_step)

    d_cos2, d_sin2 = map(d, spec_q.cos_sin())
    cos2, sin2 = (a[..., None, :] for a in spec.cos_sin())
    return FieldDerivatives(
        d_theta=0.5 * (cos2 * d_sin2 - sin2 * d_cos2),
        d_frame=d(spec_q.frame_ambient),
        d_cubic=d(second_fundamental_form(jets, spec_q).h),
        d_normal_lift=d(normal_lift),
        d_angle_sum=d(np.sum(np.arctan(jets.lambdas), axis=-1)),
    )


# ---------------------------------------------------------------------------
# connection data and the first structural identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectionData:
    """Connection forms of the angle frame and the gauge one-form values, batch axes in front.

    omega[..., i, j, k] is the (j -> k) rotation rate along the i-th frame
    direction; s[..., i] the pairing of the normal-lift derivative with its
    own complex rotation; antisymmetry_defect one value per point.
    """

    omega: np.ndarray
    s: np.ndarray
    antisymmetry_defect: np.ndarray


def connection_and_s(jet: GaussJet, spec: AngleSpectrum, fields: FieldDerivatives) -> ConnectionData:
    """Connection forms and the gauge one-form from frame-field derivatives, spec the angle spectrum of jet."""
    raw = np.einsum("...ijm,...km->...ijk", fields.d_frame, np.conj(spec.frame_ambient)).real
    raw_t = raw.swapaxes(-1, -2)
    xi = np.exp(1j * np.asarray(spec.phi))[..., None] * np.conj(jet.lift)
    return ConnectionData(
        omega=0.5 * (raw - raw_t),
        s=np.einsum("...im,...m->...i", fields.d_normal_lift, np.conj(1j * xi)).real,
        antisymmetry_defect=np.abs(raw + raw_t).max(axis=(-3, -2, -1)),
    )


@dataclass(frozen=True)
class SampleBatch:
    """Every quantity the checks read at a run's sample points, each one batch built once by sample_batch.

    jets holds the Gauss-map jets of the points, spec0 and spec their angle
    spectra in the canonical gauge and in the run's gauge; the cubic form,
    the field derivatives, the metric-route curvature tensor (in chart
    coordinates and in the angle frame of spec) and the connection data
    carry the same batch axes in front.
    """

    jets: GaussJet
    spec0: AngleSpectrum
    spec: AngleSpectrum
    ff: FundamentalForm
    fields: FieldDerivatives
    curvature: np.ndarray
    r_frame: np.ndarray  # R(f_i, f_j, f_k, f_l) for the frame rows f_i of spec.frame_vel
    connection: ConnectionData
    mean_curvature: np.ndarray  # of the cubic form: mean_curvature_norm and Palmer's left side


def sample_batch(jets: GaussJet, spec0: AngleSpectrum, spec: AngleSpectrum) -> SampleBatch:
    """The checks' quantities at the jets of a run's sample points, given their two spectra.

    The lift Hessians (for the cubic form), the metric route and the field
    derivatives are one batch each for all the points; each point's gauge is
    held fixed over its field stencil.
    """
    ff = second_fundamental_form(jets, spec)
    metric = gauss_metric_fn(jets.chart, jets.steps)
    curvature = curvature_from_metric(metric, jets.point, jets.steps.metric, jets.lift_metric)
    fields = field_derivatives(jets, spec)
    connection = connection_and_s(jets, spec, fields)
    r_frame = _in_frame(curvature, spec.frame_vel)
    return SampleBatch(jets, spec0, spec, ff, fields, curvature, r_frame, connection, mean_curvature(ff))


def _distinct(n: int, k: int) -> np.ndarray:
    """Mask over the index tuples of k axes of length n: True where all k indices differ."""
    idx = np.sort(np.indices((n,) * k), axis=0)
    return np.all(np.diff(idx, axis=0) > 0, axis=0)


def structure_residuals(b: SampleBatch) -> dict[str, np.ndarray]:
    """Structure operators B, C in each point's gauge: B^2 + C^2 = 1 and BC = CB."""
    op_b, op_c = structure_operators(b.jets, b.spec.phi)
    return {
        "structure_unit_norm": np.abs(op_b @ op_b + op_c @ op_c - np.eye(b.jets.dim)).max(axis=(-2, -1)),
        "structure_commute": np.abs(op_b @ op_c - op_c @ op_b).max(axis=(-2, -1)),
    }


def cotangent_residual(b: SampleBatch) -> dict[str, np.ndarray]:
    """Descending principal curvatures against cot of the ascending canonical angles with |sin| > 1e-3."""
    lam, th = b.jets.lambdas, b.spec0.thetas
    sin = np.sin(th)
    far = np.abs(sin) > 1e-3
    res = np.abs(lam - np.cos(th) / np.where(far, sin, 1.0))
    return {"curvature_angle_cotangent": np.where(far, res, 0.0).max(axis=-1, initial=0.0)}


def check_prop1(b: SampleBatch) -> dict[str, np.ndarray]:
    """First-order identities: angle gradients and frame rotation rates.

    angle_gradient_identity: e_i(theta_j) = h_jj^i - s(e_i)/2.
    frame_rotation_identity: sin(dtheta) omega = cos(dtheta) h for j != k.
    """
    conn, th, h = b.connection, b.spec.thetas, b.ff.h
    gradient = b.fields.d_theta - np.einsum("...jji->...ij", h) + 0.5 * conn.s[..., :, None]
    dth = (th[..., :, None] - th[..., None, :])[..., None, :, :]  # [j, k] = theta_j - theta_k
    rotation = np.sin(dth) * conn.omega - np.cos(dth) * h
    return {
        "angle_gradient_identity": np.abs(gradient).max(axis=(-2, -1)),
        "frame_rotation_identity": np.abs(rotation[..., _distinct(b.jets.dim, 2)]).max(axis=(-2, -1), initial=0.0),
    }


def palmer_residual(b: SampleBatch) -> dict[str, np.ndarray]:
    """Residual of Palmer's formula H = (1/n) J grad sum_j arctan lambda_j.

    The mean curvature comes from second derivatives of the lift at the
    point, the gradient from the shape operators at the field stencil points.
    Returns the largest frame component of the difference and of each side.
    """
    lhs = -b.mean_curvature
    # with the complex structure fixed as multiplication by +i the
    # gradient side enters with the opposite sign of the usual statement
    # (the one-form pairing flips with the orientation of J)
    rhs = b.fields.d_angle_sum / b.jets.dim
    sides = {"residual": lhs - rhs, "lhs": lhs, "rhs": rhs}
    return {name: np.abs(v).max(axis=-1) for name, v in sides.items()}


# ---------------------------------------------------------------------------
# curvature: metric route and algebraic route
# ---------------------------------------------------------------------------

def gauss_metric_fn(chart: HypersurfaceChart, steps: FdSteps | None = None):
    """Function q -> induced metric of the Gauss map in chart coordinates.

    q is a point (n,) or a batch of points (..., n), and the metrics come back
    as (..., n, n), bitwise ChartStencil(chart, q, h).lift_metric: chart.lift on
    the first-order stencils of the whole batch, one embed and one normal call.
    """
    h = (steps or FdSteps()).first
    return lambda q: lift_metric(central_first(*axis_stencil(chart.lift, q, h, (2.0, 1.0, -1.0, -2.0)), h))


def _metric_stencil(p, h: float, axes=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The points where the metric route evaluates the metric about p, a point (n,) or a batch (..., n).

    As hessian_stencil lays them out: the axis points p + c h e_a for c = 2, 1,
    1/2, -1/2, -1, -2 along every axis a, (offset, axis, ..., n), since the
    Christoffel symbols need every first derivative, and the corner points of
    the mixed rule, (pair, step, corner, ..., n), of every pair of the
    coordinates axes (all by default).
    """
    p = np.asarray(p, dtype=float)
    plane = _corner_points(p[..., axes], h)
    corners = np.broadcast_to(p, plane.shape[:-1] + p.shape[-1:]).copy()
    corners[..., axes] = plane
    return np.moveaxis(_axis_points(p, h, (2.0, 1.0, 0.5, -0.5, -1.0, -2.0)), -2, 1), corners


def _metric_derivatives(h: float, g0: np.ndarray, at: np.ndarray, corners: np.ndarray, axes=slice(None)):
    """dg[c] = d_c g (step h/2) along every axis and ddg[c, d] = d_c d_d g (step h) for c, d over axes.

    at and corners hold the metric on the points of _metric_stencil(p, h,
    axes) and g0 the metric at p; batch axes of p follow the derivative axes.
    """
    dg = central_first(at[1], at[2], at[3], at[4], 0.5 * h)
    return dg, second_derivative(h, g0, at[[0, 1, 4, 5]][:, axes], corners)


def _curvature(dg: np.ndarray, ddg: np.ndarray, g0: np.ndarray, axes=slice(None)) -> np.ndarray:
    """R[..., a, b, c, d] = <R(d_a, d_b) d_c, d_d> for a, b, c, d over the coordinates axes (all by default).

    dg and ddg are _metric_derivatives' over the same axes, g0 the metric at
    the points. The second differences of the metric components plus the
    Christoffel quadratic terms, which sum over every coordinate either way,
    so each entry over axes is bitwise the full tensor's; the convention is
    fixed so that the unit round sphere has sectional curvature +1.
    """
    dg, ddg = np.moveaxis(dg, 0, -3), np.moveaxis(ddg, (0, 1), (-4, -3))  # batch axes in front
    # Christoffel symbols of the second kind gamma[..., e, a, b]; dg[..., c, a, b] = d_c g_ab
    lowered = dg + np.einsum("...bda->...adb", dg) - np.einsum("...dab->...adb", dg)  # [..., a, d, b]
    gamma = 0.5 * np.einsum("...ed,...adb->...eab", np.linalg.inv(g0), lowered)
    gamma, ddg = gamma[..., axes, :][..., axes], ddg[..., axes, :][..., axes]
    # with ddg[..., c, d, a, b] = d_c d_d g_ab, R_abcd = s[a, c, b, d] - s[a, d, b, c] for
    # s[a, c, b, d] = (d_a d_c g_bd + d_b d_d g_ac) / 2 + g(Gamma_ac, Gamma_bd)
    sym = ddg + np.einsum("...bdac->...acbd", ddg)
    s = 0.5 * sym + np.einsum("...ef,...eac,...fbd->...acbd", g0, gamma, gamma)
    return np.einsum("...acbd->...abcd", s) - np.einsum("...adbc->...abcd", s)


def curvature_from_metric(metric_fn, p, h: float, g0: np.ndarray) -> np.ndarray:
    """Coordinate curvature tensor R[..., a, b, c, d] = <R(d_a, d_b) d_c, d_d>.

    p is a point (n,) or a batch of points (..., n) and g0 the metric there,
    (..., n, n), which the caller already holds; one metric_fn call on the
    whole stencil of the batch, then fourth-order differences and _curvature.
    """
    at, corners = _joint_values(metric_fn, *_metric_stencil(p, h))
    return _curvature(*_metric_derivatives(h, g0, at, corners), g0)


def _in_frame(r: np.ndarray, f: np.ndarray) -> np.ndarray:
    """R(f_i, f_j, f_k, f_l) for the rows f_i of f: four single-index contractions
    in a fixed order, O(n^5) each (the five-operand einsum is one O(n^8) loop)."""
    for spec in ("...abcd,...ld->...abcl", "...abcl,...kc->...abkl", "...abkl,...jb->...ajkl", "...ajkl,...ia->...ijkl"):
        r = np.einsum(spec, r, f)
    return r


def _plane_curvatures(r_frame: np.ndarray, f: np.ndarray, g: np.ndarray, i, j) -> np.ndarray:
    """Sectional curvatures of the planes span(f_i, f_j), from the tensor in the frame of the rows of f and the metric g."""
    gram = f @ g @ f.swapaxes(-1, -2)
    return r_frame[..., i, j, j, i] / (gram[..., i, i] * gram[..., j, j] - gram[..., i, j] * gram[..., i, j])


def gauss_equation_residual(b: SampleBatch) -> dict[str, np.ndarray]:
    """Full curvature comparison: metric route against the algebraic route."""
    cos2, sin2 = b.spec.cos_sin()
    h = b.ff.h
    delta = np.eye(b.jets.dim)
    pair = 1.0 + cos2[..., :, None] * cos2[..., None, :] + sin2[..., :, None] * sin2[..., None, :]
    rhs = (
        np.einsum("jk,il,...ij->...ijkl", delta, delta, pair)
        - np.einsum("ik,jl,...ij->...ijkl", delta, delta, pair)
        + np.einsum("...jkm,...ilm->...ijkl", h, h)
        - np.einsum("...ikm,...jlm->...ijkl", h, h)
    )
    return {"gauss_equation": np.abs(b.r_frame - rhs).max(axis=(-4, -3, -2, -1))}


def codazzi_residual(b: SampleBatch) -> dict[str, np.ndarray]:
    """Residual of the antisymmetrized covariant derivative of the cubic form."""
    omega, h = b.connection.omega, b.ff.h
    nabla = (
        b.fields.d_cubic
        + np.einsum("...jkm,...iml->...ijkl", h, omega)
        - np.einsum("...ijm,...mkl->...ijkl", omega, h)
        - np.einsum("...ikm,...jml->...ijkl", omega, h)
    )
    th = b.spec.thetas
    delta = np.eye(b.jets.dim)
    sin2d = np.sin(2.0 * (th[..., None, :] - th[..., :, None]))  # [i, j] = sin(2(theta_j - theta_i))
    rhs = np.einsum("...ij,jk,il->...ijkl", sin2d, delta, delta) + np.einsum(
        "...ij,ik,jl->...ijkl", sin2d, delta, delta
    )
    lhs = nabla - nabla.swapaxes(-4, -3)
    return {"codazzi_equation": np.abs(lhs - rhs).max(axis=(-4, -3, -2, -1))}


def sectional_curvature(spec: AngleSpectrum, ff: FundamentalForm) -> np.ndarray:
    """Plane curvatures K[..., i, j] from angles and the cubic form (algebraic); K[..., i, i] = 0."""
    th = spec.thetas
    h = ff.h
    k = 2.0 * np.cos(th[..., :, None] - th[..., None, :]) ** 2 + (
        np.einsum("...iim,...jjm->...ij", h, h) - np.einsum("...ijm,...ijm->...ij", h, h)
    )
    return np.where(np.eye(spec.dim, dtype=bool), 0.0, k)


def sectional_residuals(b: SampleBatch, target: float | None) -> dict[str, np.ndarray]:
    """Every frame plane's curvature: algebraic against metric route, and metric route against a target."""
    i, j = np.triu_indices(b.jets.dim, 1)
    k_met = _plane_curvatures(b.r_frame, b.spec.frame_vel, b.jets.lift_metric, i, j)
    k_alg = sectional_curvature(b.spec, b.ff)[..., i, j]
    res = {"sectional_two_route": np.abs(k_alg - k_met).max(axis=-1, initial=0.0)}
    if target is not None:
        res["sectional_value"] = np.abs(k_met - target).max(axis=-1, initial=0.0)
    return res


def check_csc_identities(spec: AngleSpectrum, ff: FundamentalForm) -> dict[str, np.ndarray]:
    """Constant-curvature balance identities on the cubic form, one residual per point.

    Only meaningful for examples with constant sectional curvature. With
    fewer than three frame directions every admissible index set is empty
    and no residual is returned; the four-index identity needs n >= 4.
    """
    n = spec.dim
    if n < 3:
        return {}
    th = spec.thetas
    h = ff.h
    s1 = np.sin(th[..., :, None] - th[..., None, :])  # [i, j] = sin(theta_i - theta_j)
    # [i, j, k] = sin(theta_i + theta_j - 2 theta_k)
    s2 = np.sin(th[..., :, None, None] + th[..., None, :, None] - 2 * th[..., None, None, :])
    # [i, k, j] = h_iik sin(theta_i - theta_k) sin(theta_i + theta_k - 2 theta_j), symmetric in i, j
    balance = (np.einsum("...iik->...ik", h) * s1)[..., None] * s2
    # [i, j, k, l] = h_ijk sin(theta_i - theta_j) sin(theta_i + theta_j - 2 theta_l)
    terms = h[..., None] * s1[..., :, :, None, None] * s2[..., :, :, None, :]
    distinct3 = _distinct(n, 3)
    residuals = {
        "csc_diagonal_balance": np.abs(balance - balance.swapaxes(-3, -1))[..., distinct3].max(axis=-1),
        "csc_triple_vanishing": np.abs(np.einsum("...ijkk->...ijk", terms))[..., distinct3].max(axis=-1),
    }
    if n >= 4:
        residuals["csc_quadruple_vanishing"] = np.abs(terms)[..., _distinct(n, 4)].max(axis=-1)
    return residuals


# ---------------------------------------------------------------------------
# classification and reconstruction
# ---------------------------------------------------------------------------

def _cyclic_match(base: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sorted row of thetas (rows, m) cyclically shifted to match sorted base, and its largest mod-pi distance.

    Sorted representatives of the same angles mod pi differ by a cyclic shift
    when one angle crosses 0 = pi; per row, the first shift with the least
    distance wins.
    """
    rows, m = thetas.shape
    # shifted[r, k] is np.roll(sorted row r, k)
    shifted = np.sort(thetas, axis=-1)[:, (np.arange(m) - np.arange(m)[:, None]) % m]
    spreads = mod_pi_distance(base, shifted).max(axis=-1)
    r, k = np.arange(rows), np.argmin(spreads, axis=-1)
    return shifted[r, k], spreads[r, k]


def isoparametric_variance(thetas: np.ndarray) -> float:
    """Largest variance across samples of one angle, with the angles compared mod pi.

    thetas holds one row of angles per sample point. Each sorted row is
    matched to the first by the cyclic shift that classify_by_angles uses,
    then each angle is moved by a multiple of pi onto the representative
    nearest the first row's.
    """
    base = np.sort(thetas[0])
    aligned = nearest_mod_pi(_cyclic_match(base, thetas)[0], base)
    return float(np.var(aligned, axis=0).max())


def classify_by_angles(thetas: np.ndarray) -> int:
    """Count distinct constant angles mod pi across the angle rows (samples, m) of sample points.

    Angles within 1e-4 of each other mod pi count as one. Raises VerifyError
    when the angles vary across samples, a squared spread above 1e-6
    (non-isoparametric input), or when the count falls outside the admissible
    set {1, 2, 3, 4, 6}.
    """
    if len(thetas) == 0:
        raise VerifyError("no sample angles supplied")
    base = np.sort(thetas[0])
    _, spreads = _cyclic_match(base, thetas)
    varying = np.flatnonzero(spreads**2 > 1e-6)
    if varying.size:
        raise VerifyError(
            f"not isoparametric-type input: angles vary across samples "
            f"(spread {spreads[varying[0]]:.3e})"
        )
    distinct = len(mod_pi_clusters(np.sort(np.mod(base, np.pi)), 1e-4))
    if distinct not in (1, 2, 3, 4, 6):
        raise VerifyError(
            f"distinct angle count {distinct} outside the admissible set "
            f"{{1, 2, 3, 4, 6}}"
        )
    return distinct
