"""Residual verification of the structural identities of the Lagrangian frame.

Each check compares two independently computed sides of an identity and
returns its worst residual by report name; the caller applies tolerances.
Curvature is computed twice, once algebraically from angles and the cubic
form and once from finite differences of the induced metric, so that
sign-convention bugs in either route cannot hide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .gaussmap import (
    AngleSpectrum,
    FdSteps,
    FundamentalForm,
    GaussJet,
    angle_spectrum,
    gauss_map,
    mean_curvature,
    mod_pi_clusters,
    mod_pi_distance,
    nearest_mod_pi,
    normalized_phase,
    second_fundamental_form,
)
from .hypersurfaces import Box, ChartStencil, HypersurfaceChart
from .numerics import central_first, hessian_stencil, second_derivative, symmetric_eigen
from .quadric import StructureGauge

__all__ = [
    "VerifyError",
    "CheckResult",
    "ResidualReport",
    "GaugePolicy",
    "SamplePoint",
    "ConnectionData",
    "FieldDerivatives",
    "field_derivatives",
    "connection_and_s",
    "check_prop1",
    "palmer_residual",
    "curvature_from_metric",
    "gauss_metric_fn",
    "sectional_from_metric",
    "gauss_equation_residual",
    "codazzi_residual",
    "sectional_curvature",
    "check_csc_identities",
    "isoparametric_variance",
    "classify_by_angles",
    "reconstruct_hypersurface",
]


class VerifyError(Exception):
    """A verification routine could not be carried out."""


@dataclass(frozen=True)
class CheckResult:
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class ResidualReport:
    """Named residuals with tolerances for one sample point of one example."""

    example: str
    point: list
    entries: dict[str, CheckResult]

    def to_dict(self) -> dict:
        return {
            "example": self.example,
            "point": [x if isinstance(x, str) else float(x) for x in self.point],
            "checks": [
                {
                    "name": name,
                    "residual": e.residual,
                    "tolerance": e.tolerance,
                    "pass": e.passed,
                }
                for name, e in self.entries.items()
            ],
        }


@dataclass(frozen=True)
class GaugePolicy:
    """How the structure gauge varies across nearby sample points.

    'fixed' keeps one constant gauge angle; 'normalized' re-normalizes the
    angle sum at every point (a genuinely varying gauge on non-minimal
    examples), keeping the discrete family choice aligned to the reference;
    at a batched jet, one angle per row.
    """

    mode: str = "fixed"
    phi: float = 0.0

    def phi_at(self, jet: GaussJet, ref_phi: float | None = None) -> float:
        if self.mode == "fixed":
            return self.phi
        if self.mode == "normalized":
            return normalized_phase(jet, ref_phi)
        raise VerifyError(f"unknown gauge mode '{self.mode}'")


class SamplePoint:
    """Every quantity the checks read at one sample point, each built once.

    Wraps the Gauss-map jet at the point; the gauge policy sets the structure
    gauge there and how it varies over the field-derivative stencils. Each
    other field is computed on first use and kept, so checks sharing a point
    share its spectra, cubic form, field derivatives and curvature tensor.
    """

    def __init__(self, jet: GaussJet, policy: GaugePolicy | None = None):
        self.jet = jet
        self.policy = policy or GaugePolicy()

    @property
    def chart(self) -> HypersurfaceChart:
        return self.jet.chart

    @property
    def p(self) -> np.ndarray:
        return self.jet.point

    @property
    def steps(self) -> FdSteps:
        return self.jet.steps

    @cached_property
    def phi(self) -> float:
        """Structure gauge angle at the point under the policy."""
        return self.policy.phi_at(self.jet)

    @cached_property
    def spec(self) -> AngleSpectrum:
        """Angle spectrum in the policy gauge."""
        return angle_spectrum(self.jet, StructureGauge(self.phi))

    @cached_property
    def spec0(self) -> AngleSpectrum:
        """Angle spectrum in the canonical gauge (phi = 0)."""
        return angle_spectrum(self.jet, StructureGauge(0.0))

    @cached_property
    def ff(self) -> FundamentalForm:
        return second_fundamental_form(self.jet, self.spec)

    @cached_property
    def fields(self) -> FieldDerivatives:
        return field_derivatives(self)

    @cached_property
    def connection(self) -> ConnectionData:
        return connection_and_s(self)

    @cached_property
    def metric_fn(self):
        return gauss_metric_fn(self.chart, self.steps)

    @property
    def metric(self) -> np.ndarray:
        """Induced metric of the Gauss map at the point, in chart coordinates."""
        return self.jet.stencil.lift_metric

    @cached_property
    def curvature(self) -> np.ndarray:
        """Coordinate curvature tensor of the induced metric (metric route)."""
        return curvature_from_metric(self.metric_fn, self.p, self.steps.metric, self.metric)


# ---------------------------------------------------------------------------
# frame transport and field derivatives
# ---------------------------------------------------------------------------

def _polar_orthogonal(m: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor of a near-orthogonal square matrix."""
    w, v = symmetric_eigen(m.T @ m)
    if w[0] <= 1e-12:
        raise VerifyError("frame overlap matrix is singular")
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
    return m @ inv_sqrt


def _align_to_reference(
    spec: AngleSpectrum, ref: AngleSpectrum, max_mismatch: float = 0.1
) -> AngleSpectrum:
    """Permute and rotate nearby spectra so their frames follow the reference.

    spec is one spectrum or a batch of them, each row aligned on its own.
    Frame vectors are matched cluster by cluster (clusters taken from the
    reference angles); inside each matched block the frame is rotated by the
    orthogonal Procrustes factor, which realizes transport by projection for
    degenerate angles. A block overlap farther than max_mismatch from the
    identity raises VerifyError.
    """
    n = ref.dim
    clusters = mod_pi_clusters(ref.thetas, 1e-6)
    new_thetas = np.empty_like(spec.thetas)
    new_frame_vel = np.empty_like(spec.frame_vel)
    new_frame_ambient = np.empty_like(spec.frame_ambient)
    for row in np.ndindex(spec.thetas.shape[:-1]):
        thetas, frame_vel, frame_ambient = spec.thetas[row], spec.frame_vel[row], spec.frame_ambient[row]
        assignment: list[list[int]] = [[] for _ in clusters]
        for j in range(n):
            dists = [
                min(mod_pi_distance(thetas[j], ref.thetas[k]) for k in cl)
                for cl in clusters
            ]
            assignment[int(np.argmin(dists))].append(j)
        if [len(a) for a in assignment] != [len(c) for c in clusters]:
            raise VerifyError(
                f"angle clusters changed between stencil points: reference "
                f"{ref.thetas}, sample {thetas}"
            )
        for cl, members in zip(clusters, assignment):
            overlap = np.real(
                np.conj(frame_ambient[members]) @ ref.frame_ambient[cl].T
            )
            rot = _polar_orthogonal(overlap)
            mismatch = np.abs(rot.T @ overlap - np.eye(len(cl))).max()
            if mismatch > max_mismatch:
                raise VerifyError(
                    f"frame transport mismatch {mismatch:.3f} exceeds {max_mismatch}"
                )
            block_vel = rot.T @ frame_vel[members]
            block_amb = rot.T @ frame_ambient[members]
            for pos, k in enumerate(cl):
                new_frame_vel[row + (k,)] = block_vel[pos]
                new_frame_ambient[row + (k,)] = block_amb[pos]
                new_thetas[row + (k,)] = nearest_mod_pi(thetas[members[pos]], ref.thetas[k])
    return replace(spec, thetas=new_thetas, frame_vel=new_frame_vel, frame_ambient=new_frame_ambient)


@dataclass(frozen=True)
class FieldDerivatives:
    """Directional derivatives of the pointwise fields along the angle frame.

    Index convention: the leading index is always the differentiation
    direction i (the i-th frame vector of the reference spectrum at p).
    """

    d_theta: np.ndarray  # (n, n): e_i(theta_j), via the doubled angles (branch free)
    d_frame: np.ndarray  # (n, n, n+2) complex: e_i(frame_j lift)
    d_cubic: np.ndarray  # (n, n, n, n): e_i(h_jk^l)
    d_normal_lift: np.ndarray  # (n, n+2) complex: e_i(gauged conjugate lift)
    d_angle_sum: np.ndarray  # (n,): e_i(sum_j arctan lambda_j)


def field_derivatives(pt: SamplePoint) -> FieldDerivatives:
    """Fourth-order derivatives of angles, frame, cubic form, normal lift, angle sum.

    Evaluates the whole pointwise pipeline at p +- {H, H/2} along every frame
    direction as one batch of 4n points, aligns each stencil frame to the
    center frame and differences the aligned fields along the offset axis.
    """
    spec = pt.spec
    h_step = pt.steps.field
    # (offset, direction i, coordinates): the offsets (+1, +1/2, -1/2, -1) in
    # units of H are the +2h, +h, -h, -2h of a five-point rule with step H/2
    q = pt.p + (np.array([1.0, 0.5, -0.5, -1.0]) * h_step)[:, None, None] * spec.frame_vel
    jets = gauss_map(pt.chart, q, pt.steps)
    phis = pt.policy.phi_at(jets, ref_phi=pt.phi)
    spec_q = _align_to_reference(angle_spectrum(jets, StructureGauge(phis)), spec)
    normal_lift = np.exp(1j * np.asarray(phis))[..., None] * np.conj(jets.lift.z)

    def d(f):
        return central_first(*f, 0.5 * h_step)

    d_cos2, d_sin2 = map(d, spec_q.cos_sin())
    cos2, sin2 = spec.cos_sin()
    return FieldDerivatives(
        d_theta=0.5 * (cos2[None, :] * d_sin2 - sin2[None, :] * d_cos2),
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
    """Connection forms of the angle frame and the gauge one-form values.

    omega[i, j, k] is the (j -> k) rotation rate along the i-th frame
    direction; s[i] the pairing of the normal-lift derivative with its own
    complex rotation.
    """

    omega: np.ndarray
    s: np.ndarray
    antisymmetry_defect: float


def connection_and_s(pt: SamplePoint) -> ConnectionData:
    """Connection forms and the gauge one-form from frame-field derivatives."""
    fd = pt.fields
    frame = pt.spec.frame_ambient
    raw = np.einsum("ijm,km->ijk", fd.d_frame, np.conj(frame)).real
    omega = 0.5 * (raw - np.transpose(raw, (0, 2, 1)))
    defect = float(np.abs(raw + np.transpose(raw, (0, 2, 1))).max())
    xi = np.exp(1j * pt.phi) * np.conj(pt.spec.lift.z)
    s_vals = np.einsum("im,m->i", fd.d_normal_lift, np.conj(1j * xi)).real
    return ConnectionData(omega=omega, s=s_vals, antisymmetry_defect=defect)


def check_prop1(pt: SamplePoint) -> dict[str, float]:
    """First-order identities: angle gradients and frame rotation rates.

    angle_gradient_identity: e_i(theta_j) = h_jj^i - s(e_i)/2.
    frame_rotation_identity: sin(dtheta) omega = cos(dtheta) h for j != k.
    """
    conn = pt.connection
    n = pt.jet.dim
    d_theta = pt.fields.d_theta
    h = pt.ff.h
    res1 = 0.0
    for i in range(n):
        for j in range(n):
            res1 = max(res1, abs(d_theta[i, j] - h[j, j, i] + 0.5 * conn.s[i]))
    res2 = 0.0
    th = pt.spec.thetas
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if j == k:
                    continue
                lhs = np.sin(th[j] - th[k]) * conn.omega[i, j, k]
                rhs = np.cos(th[j] - th[k]) * h[i, j, k]
                res2 = max(res2, abs(lhs - rhs))
    return {"angle_gradient_identity": res1, "frame_rotation_identity": res2}


def palmer_residual(pt: SamplePoint) -> dict[str, float]:
    """Residual of Palmer's formula H = (1/n) J grad sum_j arctan lambda_j.

    The mean curvature comes from second derivatives of the lift at the
    point, the gradient from the shape operators at the field stencil points.
    Returns the largest frame component of the difference and of each side.
    """
    lhs = -mean_curvature(pt.ff)
    # with the complex structure fixed as multiplication by +i the
    # gradient side enters with the opposite sign of the usual statement
    # (the one-form pairing flips with the orientation of J)
    rhs = pt.fields.d_angle_sum / pt.jet.dim
    sides = {"residual": lhs - rhs, "lhs": lhs, "rhs": rhs}
    return {name: float(np.abs(v).max()) for name, v in sides.items()}


# ---------------------------------------------------------------------------
# curvature: metric route and algebraic route
# ---------------------------------------------------------------------------

def gauss_metric_fn(chart: HypersurfaceChart, steps: FdSteps | None = None):
    """Function q -> induced metric of the Gauss map in chart coordinates.

    q is a point (n,) or a batch of points (..., n), and the metrics come back
    as (..., n, n): the first-order stencils of the whole batch go to the
    chart in one embed and one normal call.
    """
    h = (steps or FdSteps()).first
    return lambda q: ChartStencil(chart, q, h).lift_metric


def _metric_derivatives(metric_fn, p, h: float, g0: np.ndarray):
    """dg[c] = d_c g (step h/2) and ddg[c, d] = d_c d_d g (step h) at p, sharing p +- h e_c.

    Every metric on the stencil comes from one metric_fn call.
    """
    at, corners = hessian_stencil(metric_fn, p, h, (2.0, 1.0, 0.5, -0.5, -1.0, -2.0))
    dg = central_first(at[1], at[2], at[3], at[4], 0.5 * h)
    return dg, second_derivative(h, g0, at[[0, 1, 4, 5]], corners)


def curvature_from_metric(metric_fn, p, h: float, g0: np.ndarray) -> np.ndarray:
    """Coordinate curvature tensor R[a, b, c, d] = <R(d_a, d_b) d_c, d_d>.

    g0 is the metric at p, which the caller already holds. Uses fourth-order
    differences of the metric components plus the Christoffel quadratic
    terms; the convention is fixed so that the unit round sphere has
    sectional curvature +1.
    """
    n = len(g0)
    dg, ddg = _metric_derivatives(metric_fn, p, h, g0)
    g_inv = np.linalg.inv(g0)
    # Christoffel symbols of the second kind; dg[c, a, b] = d_c g_ab
    gamma = np.empty((n, n, n))
    for e_idx in range(n):
        for a in range(n):
            for b in range(n):
                total = 0.0
                for d in range(n):
                    total += g_inv[e_idx, d] * (dg[a, d, b] + dg[b, d, a] - dg[d, a, b])
                gamma[e_idx, a, b] = 0.5 * total
    r = np.empty((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    term = 0.5 * (
                        ddg[a, c, b, d] + ddg[b, d, a, c] - ddg[a, d, b, c] - ddg[b, c, a, d]
                    )
                    quad = 0.0
                    for e_idx in range(n):
                        for f_idx in range(n):
                            quad += g0[e_idx, f_idx] * (
                                gamma[e_idx, a, c] * gamma[f_idx, b, d]
                                - gamma[e_idx, a, d] * gamma[f_idx, b, c]
                            )
                    r[a, b, c, d] = term + quad
    return r


def sectional_from_metric(r: np.ndarray, g: np.ndarray, x, y) -> float:
    """Sectional curvature of span(x, y) from a coordinate curvature tensor.

    r is curvature_from_metric's tensor at a point and g the metric there.
    """
    num = np.einsum("abcd,a,b,c,d->", r, x, y, y, x)
    gxx = x @ g @ x
    gyy = y @ g @ y
    gxy = x @ g @ y
    return float(num / (gxx * gyy - gxy**2))


def gauss_equation_residual(pt: SamplePoint) -> dict[str, float]:
    """Full curvature comparison: metric route against the algebraic route."""
    spec = pt.spec
    n = pt.jet.dim
    f = spec.frame_vel
    r_frame = np.einsum("abcd,ia,jb,kc,ld->ijkl", pt.curvature, f, f, f, f)
    cos2, sin2 = spec.cos_sin()
    h = pt.ff.h
    delta = np.eye(n)
    pair = 1.0 + np.outer(cos2, cos2) + np.outer(sin2, sin2)
    rhs = (
        np.einsum("jk,il,ij->ijkl", delta, delta, pair)
        - np.einsum("ik,jl,ij->ijkl", delta, delta, pair)
        + np.einsum("jkm,ilm->ijkl", h, h)
        - np.einsum("ikm,jlm->ijkl", h, h)
    )
    return {"gauss_equation": float(np.abs(r_frame - rhs).max())}


def codazzi_residual(pt: SamplePoint) -> dict[str, float]:
    """Residual of the antisymmetrized covariant derivative of the cubic form."""
    conn = pt.connection
    n = pt.jet.dim
    h = pt.ff.h
    dh = pt.fields.d_cubic
    omega = conn.omega
    nabla = (
        dh
        + np.einsum("jkm,iml->ijkl", h, omega)
        - np.einsum("ijm,mkl->ijkl", omega, h)
        - np.einsum("ikm,jml->ijkl", omega, h)
    )
    th = pt.spec.thetas
    delta = np.eye(n)
    sin2d = np.sin(2.0 * (th[None, :] - th[:, None]))  # [i, j] = sin(2(theta_j - theta_i))
    rhs = np.einsum("ij,jk,il->ijkl", sin2d, delta, delta) + np.einsum(
        "ij,ik,jl->ijkl", sin2d, delta, delta
    )
    lhs = nabla - np.transpose(nabla, (1, 0, 2, 3))
    return {"codazzi_equation": float(np.abs(lhs - rhs).max())}


def sectional_curvature(spec: AngleSpectrum, ff: FundamentalForm) -> np.ndarray:
    """Plane curvatures K[i, j] from angles and the cubic form (algebraic)."""
    n = spec.dim
    th = spec.thetas
    h = ff.h
    k = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            k[i, j] = 2.0 * np.cos(th[i] - th[j]) ** 2 + float(
                h[i, i] @ h[j, j] - h[i, j] @ h[i, j]
            )
    return k


def check_csc_identities(spec: AngleSpectrum, ff: FundamentalForm) -> dict[str, float]:
    """Constant-curvature balance identities on the cubic form.

    Only meaningful for examples with constant sectional curvature. With
    fewer than three frame directions every admissible index set is empty
    and no residual is returned; the four-index identity needs n >= 4.
    """
    n = spec.dim
    if n < 3:
        return {}
    th = spec.thetas
    h = ff.h
    res1 = res2 = res3 = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                lhs = h[i, i, k] * np.sin(th[i] - th[k]) * np.sin(th[i] + th[k] - 2 * th[j])
                rhs = h[j, j, k] * np.sin(th[j] - th[k]) * np.sin(th[j] + th[k] - 2 * th[i])
                res1 = max(res1, abs(lhs - rhs))
                res2 = max(
                    res2,
                    abs(h[i, j, k] * np.sin(th[i] - th[j]) * np.sin(th[i] + th[j] - 2 * th[k])),
                )
                for l in range(n):
                    if len({i, j, k, l}) < 4:
                        continue
                    res3 = max(
                        res3,
                        abs(
                            h[i, j, k]
                            * np.sin(th[i] - th[j])
                            * np.sin(th[i] + th[j] - 2 * th[l])
                        ),
                    )
    residuals = {"csc_diagonal_balance": res1, "csc_triple_vanishing": res2}
    if n >= 4:
        residuals["csc_quadruple_vanishing"] = res3
    return residuals


# ---------------------------------------------------------------------------
# classification and reconstruction
# ---------------------------------------------------------------------------

def _cyclic_match(base: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, float]:
    """Sorted thetas cyclically shifted to match sorted base, and their largest mod-pi distance.

    Sorted representatives of the same angles mod pi differ by a cyclic shift
    when one angle crosses 0 = pi; the first shift with the least distance wins.
    """
    other = np.sort(thetas)
    shifted = [np.roll(other, k) for k in range(len(other))]
    spreads = [max(mod_pi_distance(a, b) for a, b in zip(base, o)) for o in shifted]
    k = int(np.argmin(spreads))
    return shifted[k], spreads[k]


def isoparametric_variance(spectra: list[AngleSpectrum]) -> float:
    """Largest variance across samples of one angle, with the angles compared mod pi.

    Each sorted spectrum is matched to the first by the cyclic shift that
    classify_by_angles uses, then each angle is moved by a multiple of pi onto
    the representative nearest the first spectrum's.
    """
    base = np.sort(spectra[0].thetas)
    aligned = [nearest_mod_pi(_cyclic_match(base, s.thetas)[0], base) for s in spectra]
    return float(np.var(aligned, axis=0).max())


def classify_by_angles(
    spectra: list[AngleSpectrum],
    variance_tol: float = 1e-6,
    cluster_tol: float = 1e-4,
) -> int:
    """Count distinct constant angles mod pi across sample spectra.

    Raises VerifyError when the angles vary across samples (non-isoparametric
    input) or when the count falls outside the admissible set {1, 2, 3, 4, 6}.
    """
    if not spectra:
        raise VerifyError("no spectra supplied")
    base = np.sort(spectra[0].thetas)
    for s in spectra[1:]:
        _, spread = _cyclic_match(base, s.thetas)
        if spread**2 > variance_tol:
            raise VerifyError(
                f"not isoparametric-type input: angles vary across samples "
                f"(spread {spread:.3e})"
            )
    distinct = len(mod_pi_clusters(np.sort(np.mod(base, np.pi)), cluster_tol))
    if distinct not in (1, 2, 3, 4, 6):
        raise VerifyError(
            f"distinct angle count {distinct} outside the admissible set "
            f"{{1, 2, 3, 4, 6}}"
        )
    return distinct


def reconstruct_hypersurface(
    lift_field: Callable[[np.ndarray], np.ndarray],
    box: Box,
    spec: AngleSpectrum,
    t: float,
    dim: int,
    guard: float = 1e-4,
    name: str = "reconstructed",
) -> HypersurfaceChart:
    """Hypersurface whose Gauss map realizes the given complex lift field (chart.lift).

    The embedding is sqrt(2) times the real part of the phase-rotated lift;
    principal curvatures come out as cot(theta_j + phi/2 + t). Angles with
    sin(theta_j + phi/2 + t) below the guard raise VerifyError (the map
    degenerates there).
    """
    c = spec.gauge.phi / 2.0 + t
    sines = np.abs(np.sin(spec.thetas + c))
    if sines.min() < guard:
        raise VerifyError(
            f"reconstruction offset t={t} makes sin(theta + c) = "
            f"{sines.min():.2e} nearly vanish: not an immersion"
        )
    phase = np.exp(1j * t)

    def embed(p):
        return np.sqrt(2.0) * (phase * lift_field(p)).real

    def normal(p):
        return np.sqrt(2.0) * (phase * lift_field(p)).imag

    return HypersurfaceChart(
        dim=dim,
        embed=embed,
        normal=normal,
        box=box,
        name=name,
        meta={"offset": t, "gauge_phi": spec.gauge.phi},
    )
