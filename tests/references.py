"""Reference helpers that only tests use: random test data, charts and formulas the package does not ship.

Import them in a test module with `from references import ...` (pytest puts
this directory on the import path).
"""

import dataclasses
import json
import math
import os
import time

import numpy as np

from quadriclab.gaussmap import (
    ANGLE_CLUSTER_GAP,
    AngleSpectrum,
    angle_spectrum,
    gauge_normalize,
    gauss_map,
    mean_curvature,
    mod_pi_distance,
    second_fundamental_form,
    structure_operators,
)
from quadriclab.hypersurfaces import (
    Box,
    ChartError,
    ChartStencil,
    HypersurfaceChart,
    _shape_data,
    sphere_chart,
    sphere_chart_with_derivatives,
)
from quadriclab.numerics import ConvergenceError, NumericsError, flagged_row, symmetric_eigen, symmetrize
from quadriclab.quadric import horizontal_project
from quadriclab.verify import (
    ConnectionData,
    VerifyError,
    connection_and_s,
    field_derivatives,
    sample_batch,
)


def box_sample(box, rng: np.random.Generator, margin: float = 0.0) -> np.ndarray:
    """A uniform random point margin inside a chart box."""
    return rng.uniform(box.lows + margin, box.highs - margin)


def random_stiefel(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random valid lift u + iv in dimension n, a complex (n+2)-vector."""
    m = rng.standard_normal((n + 2, 2))
    q, _ = np.linalg.qr(m)
    return q[:, 0] / np.sqrt(2.0) + 1j * (q[:, 1] / np.sqrt(2.0))


def random_horizontal(p: np.ndarray, rng: np.random.Generator, unit: bool = False) -> np.ndarray:
    """Random horizontal vector at the lift p, of unit length when unit is set."""
    dim = p.shape[-1]
    w = horizontal_project(p, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    if unit:
        w = w / np.sqrt(np.vdot(w, w).real)
    return w


# ---------------------------------------------------------------------------
# the ambient model as it was: one vector at a time, Hermitian products by np.vdot
# ---------------------------------------------------------------------------

def ref_rotate_structure(phi: float, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """exp(i phi) times the base structure -P(conj w), for one vector w at the lift p."""
    pb = np.conj(p)
    wb = np.conj(w)
    return np.exp(1j * phi) * -(wb - np.vdot(p, wb) * p - np.vdot(pb, wb) * pb)


def ref_quadric_curvature(phi: float, p: np.ndarray, x, y, z) -> np.ndarray:
    """R(x, y)z of the hyperquadric for single vectors, in the object form's order of terms."""
    a_x, a_y = ref_rotate_structure(phi, p, x), ref_rotate_structure(phi, p, y)
    ja_x, ja_y = 1j * a_x, 1j * a_y
    jx, jy, jz = 1j * x, 1j * y, 1j * z

    def re(u, v):
        return np.vdot(u, v).real

    return (
        re(y, z) * x
        - re(x, z) * y
        + re(x, jz) * jy
        - re(y, jz) * jx
        + 2.0 * re(x, jy) * jz
        + re(a_y, z) * a_x
        - re(a_x, z) * a_y
        + re(ja_y, z) * ja_x
        - re(ja_x, z) * ja_y
    )


def quadric_distance(p1: np.ndarray, p2: np.ndarray) -> float:
    """Distance between the quadric points of two lifts (phase-insensitive chord)."""
    overlap = abs(np.vdot(p1, p2))
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * overlap)))


def profile_velocity(theta: float, alpha: float, dalpha: float, n: int) -> np.ndarray:
    """Analytic derivative of the profile curve with respect to theta."""
    c, s = np.cos(alpha), np.sin(alpha)
    w = np.sqrt(max(0.0, 1.0 - dalpha * dalpha))
    kappa = w * np.sin((n - 1) * alpha) / np.sin(n * alpha)
    return kappa * np.array([-dalpha, w * np.cos(theta), w * np.sin(theta)])


def point_batch(chart, p, steps=None, normalized=False):
    """The SampleBatch of the one point p, as a batch of one.

    Canonical by default. normalized takes the normalized gauge at p and
    normalizes the gauge again at every field-stencil point, a varying gauge
    on a non-minimal chart.
    """
    jets = gauss_map(chart, np.reshape(p, (1, -1)), steps)
    spec0 = angle_spectrum(jets)
    if not normalized:
        return sample_batch(jets, spec0, spec0)
    spec = gauge_normalize(jets, spec0)
    fields = field_derivatives(jets, spec, renormalize=True)
    connection = connection_and_s(jets, spec, fields)
    return dataclasses.replace(sample_batch(jets, spec0, spec), fields=fields, connection=connection)


# ---------------------------------------------------------------------------
# charts that only tests build: parallel, perturbed and reconstructed hypersurfaces
# ---------------------------------------------------------------------------

def parallel_hypersurface(chart, t: float) -> HypersurfaceChart:
    """Parallel hypersurface at oriented distance t along the normal.

    Shares the Gauss map of the input chart; each principal curvature moves by
    lam -> cot(arccot(lam) + t). Raises ChartError when the offset degenerates
    the immersion at the box center.
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
    gram_min = ChartStencil(out, out.box.center, 1e-4).gram_eigen[0][0]
    if gram_min <= 1e-12:
        raise ChartError(
            f"parallel offset {t} degenerates the immersion "
            f"(smallest Gram eigenvalue {gram_min:.2e})"
        )
    return out


PERTURBED_RHO0 = 0.9
PERTURBED_EPS = 0.08


def _rho_jet(q):
    """Height function of the perturbed sphere with its gradient, for a point or a batch."""
    a = 1.3 * q[..., 0] + 0.4
    b = 0.9 * q[..., 1] - 0.2
    rho = PERTURBED_RHO0 + PERTURBED_EPS * np.sin(a) * np.cos(b)
    grad = np.stack(
        [1.3 * PERTURBED_EPS * np.cos(a) * np.cos(b), -0.9 * PERTURBED_EPS * np.sin(a) * np.sin(b)], axis=-1
    )
    return rho, grad


def perturbed_sphere() -> HypersurfaceChart:
    """Radial graph over a geodesic 2-sphere; non-isoparametric test surface.

    The height function rho(q) = 0.9 + 0.08 sin(1.3 q1 + 0.4) cos(0.9 q2 - 0.2)
    yields genuinely varying principal curvatures and a non-minimal Gauss map.
    """

    def embed(q):
        q = np.asarray(q, dtype=float)
        rho, _ = _rho_jet(q)
        return np.concatenate([np.sin(rho)[..., None] * sphere_chart(2, q), np.cos(rho)[..., None]], axis=-1)

    def normal(q):
        q = np.asarray(q, dtype=float)
        rho, grad = _rho_jet(q)
        sigma, dsigma = sphere_chart_with_derivatives(2, q)
        sr, cr = np.sin(rho)[..., None], np.cos(rho)[..., None]
        # (..., i, 4): the coordinate tangents d_i embed
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
        dim=2,
        embed=embed,
        normal=normal,
        box=Box.cube(2, 0.4),
        name="perturbed",
        meta={"rho0": PERTURBED_RHO0, "eps": PERTURBED_EPS},
    )


def reconstruct_hypersurface(lift_field, box, spec: AngleSpectrum, t: float) -> HypersurfaceChart:
    """Hypersurface whose Gauss map realizes the given complex lift field (chart.lift).

    The embedding is sqrt(2) times the real part of the phase-rotated lift;
    principal curvatures come out as cot(theta_j + phi/2 + t). Angles with
    sin(theta_j + phi/2 + t) below 1e-4 raise VerifyError (the map
    degenerates there).
    """
    c = spec.phi / 2.0 + t
    sines = np.abs(np.sin(spec.thetas + c))
    if sines.min() < 1e-4:
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
        dim=spec.dim,
        embed=embed,
        normal=normal,
        box=box,
        name="reconstructed",
        meta={"offset": t, "gauge_phi": spec.phi},
    )


# ---------------------------------------------------------------------------
# the per-point residual math of a verify report, one point at a time
# ---------------------------------------------------------------------------

def _distinct(n, k):
    idx = np.sort(np.indices((n,) * k), axis=0)
    return np.all(np.diff(idx, axis=0) > 0, axis=0)


def ref_connection_and_s(lift, spec, fields, phi):
    raw = np.einsum("ijm,km->ijk", fields.d_frame, np.conj(spec.frame_ambient)).real
    omega = 0.5 * (raw - np.transpose(raw, (0, 2, 1)))
    defect = float(np.abs(raw + np.transpose(raw, (0, 2, 1))).max())
    xi = np.exp(1j * phi) * np.conj(lift)
    s_vals = np.einsum("im,m->i", fields.d_normal_lift, np.conj(1j * xi)).real
    return ConnectionData(omega=omega, s=s_vals, antisymmetry_defect=defect)


def ref_in_frame_contractions(r, f):
    """The frame transform of one point's curvature tensor as four single-index contractions."""
    for spec in ("abcd,ld->abcl", "abcl,kc->abkl", "abkl,jb->ajkl", "ajkl,ia->ijkl"):
        r = np.einsum(spec, r, f)
    return r


def ref_sectional_from_metric(r, g, x, y):
    """Sectional curvature of span(x, y) through the plane's outer product x y y x, an n^4 array per plane.

    r and g broadcast against the planes (..., n) of x and y.
    """
    xyyx = np.einsum("...a,...b,...c,...d->...abcd", x, y, y, x)
    num = np.sum(r * xyyx, axis=(-4, -3, -2, -1))
    gxx, gyy, gxy = (
        np.sum(g * np.einsum("...a,...b->...ab", u, v), axis=(-2, -1)) for u, v in ((x, x), (y, y), (x, y))
    )
    return num / (gxx * gyy - gxy * gxy)


def ref_sectional_curvature_point(spec, h):
    th = spec.thetas
    k = 2.0 * np.cos(th[:, None] - th[None, :]) ** 2 + (
        np.einsum("iim,jjm->ij", h, h) - np.einsum("ijm,ijm->ij", h, h)
    )
    np.fill_diagonal(k, 0.0)
    return k


def ref_csc_point(spec, h):
    n = spec.thetas.shape[-1]
    if n < 3:
        return {}
    th = spec.thetas
    s1 = np.sin(th[:, None] - th[None, :])
    s2 = np.sin(th[:, None, None] + th[None, :, None] - 2 * th)
    balance = (np.einsum("iik->ik", h) * s1)[..., None] * s2
    terms = h[..., None] * s1[:, :, None, None] * s2[:, :, None, :]
    distinct3 = _distinct(n, 3)
    residuals = {
        "csc_diagonal_balance": float(np.abs(balance - balance.transpose(2, 1, 0))[distinct3].max()),
        "csc_triple_vanishing": float(np.abs(np.einsum("ijkk->ijk", terms))[distinct3].max()),
    }
    if n >= 4:
        residuals["csc_quadruple_vanishing"] = float(np.abs(terms)[_distinct(n, 4)].max())
    return residuals


def ref_chart_invariants(stencil):
    a, b = stencil.center
    return {
        "embed_norm": abs(float(a @ a) - 1.0),
        "normal_norm": abs(float(b @ b) - 1.0),
        "orthogonality": abs(float(a @ b)),
        "normal_tangency": float(np.abs(stencil.d_embed @ b).max()),
        "min_singular_value": float(np.sqrt(max(stencil.gram_eigen[0][0], 0.0))),
    }


def ref_horizontality(jet):
    z = jet.lift
    return float(max(np.abs(jet.d_lift @ np.conj(z)).max(), np.abs(jet.d_lift @ z).max()))


def ref_principal_pattern(jet, n):
    alpha = ref_profile(jet.chart.meta["alpha"], jet.point[0])[0]
    prof_th, orbit_th = float(np.mod((n - 1) * alpha, np.pi)), float(np.mod(-alpha, np.pi))
    expected = np.sort(
        np.array([np.cos(prof_th) / np.sin(prof_th)] + [np.cos(orbit_th) / np.sin(orbit_th)] * (n - 1))
    )
    return float(np.abs(np.sort(jet.lambdas) - expected).max())


def ref_point_residuals(jet, spec0, spec, fields, curvature, example, gauge, target):
    """Every residual of one point's verify report, in report order, from that point's own data.

    jet is the Gauss-map jet at the point, spec0 and spec its spectra in the
    canonical and the run's gauge (the gauge angle a float), fields its field
    derivatives and curvature its metric-route tensor; example, gauge and the
    sectional target select the checks as cli.cmd_verify does.
    """
    n = jet.dim
    phi = spec.phi
    ff = second_fundamental_form(jet, spec)
    h = ff.h
    conn = ref_connection_and_s(jet.lift, spec, fields, phi)
    inv = ref_chart_invariants(jet)
    b_op, c_op = structure_operators(jet, phi)
    lam, th0 = jet.lambdas, spec0.thetas
    far = np.abs(np.sin(th0)) > 1e-3
    lhs = -mean_curvature(ff)
    rhs = fields.d_angle_sum / n
    res = {
        "chart_invariants": max(v for k, v in inv.items() if k != "min_singular_value"),
        "chart_rank_margin": max(0.0, 1e-6 - inv["min_singular_value"]),
        "lagrangian": float(jet.lagrangian),
        "horizontality": ref_horizontality(jet),
        "structure_unit_norm": float(np.abs(b_op @ b_op + c_op @ c_op - np.eye(n)).max()),
        "structure_commute": float(np.abs(b_op @ c_op - c_op @ b_op).max()),
        "curvature_angle_cotangent": float(
            np.abs(lam[far] - np.cos(th0[far]) / np.sin(th0[far])).max(initial=0.0)
        ),
        "cubic_symmetry": float(ff.symmetry_defect),
        "mean_curvature_norm": float(np.linalg.norm(mean_curvature(ff))),
        "palmer_formula": float(np.abs(lhs - rhs).max()),
    }
    if gauge == "normalized":
        res["gauge_one_form"] = float(np.abs(conn.s).max())
    res["connection_antisymmetry"] = conn.antisymmetry_defect
    th = spec.thetas
    gradient = fields.d_theta - np.einsum("jji->ij", h) + 0.5 * conn.s[:, None]
    dth = th[:, None] - th[None, :]
    rotation = np.sin(dth) * conn.omega - np.cos(dth) * h
    res["angle_gradient_identity"] = float(np.abs(gradient).max())
    res["frame_rotation_identity"] = float(np.abs(rotation[:, _distinct(n, 2)]).max(initial=0.0))
    cos2, sin2 = spec.cos_sin()
    delta = np.eye(n)
    pair = 1.0 + np.outer(cos2, cos2) + np.outer(sin2, sin2)
    gauss_rhs = (
        np.einsum("jk,il,ij->ijkl", delta, delta, pair)
        - np.einsum("ik,jl,ij->ijkl", delta, delta, pair)
        + np.einsum("jkm,ilm->ijkl", h, h)
        - np.einsum("ikm,jlm->ijkl", h, h)
    )
    f = spec.frame_vel
    r_frame = ref_in_frame_contractions(curvature, f)
    res["gauss_equation"] = float(np.abs(r_frame - gauss_rhs).max())
    omega = conn.omega
    nabla = (
        fields.d_cubic
        + np.einsum("jkm,iml->ijkl", h, omega)
        - np.einsum("ijm,mkl->ijkl", omega, h)
        - np.einsum("ikm,jml->ijkl", omega, h)
    )
    sin2d = np.sin(2.0 * (th[None, :] - th[:, None]))
    codazzi_rhs = np.einsum("ij,jk,il->ijkl", sin2d, delta, delta) + np.einsum("ij,ik,jl->ijkl", sin2d, delta, delta)
    res["codazzi_equation"] = float(np.abs(nabla - np.transpose(nabla, (1, 0, 2, 3)) - codazzi_rhs).max())
    i, j = np.triu_indices(n, 1)
    gram = f @ jet.lift_metric @ f.T
    k_met = r_frame[i, j, j, i] / (gram[i, i] * gram[j, j] - gram[i, j] * gram[i, j])
    k_alg = ref_sectional_curvature_point(spec, h)[i, j]
    res["sectional_two_route"] = float(np.abs(k_alg - k_met).max(initial=0.0))
    if target is not None:
        res["sectional_value"] = float(np.abs(k_met - target).max(initial=0.0))
    if example == "sphere":
        res["angles_equal"] = float(np.max(mod_pi_distance(th[i], th[j]), initial=0.0))
    elif example == "cartan":
        res["angle_gaps_third_pi"] = max(abs(th[1] - th[0] - np.pi / 3.0), abs(th[2] - th[1] - np.pi / 3.0))
        res["cubic_component_squared"] = abs(h[0, 1, 2] ** 2 - 0.375)
    elif example == "rotational":
        res["principal_vs_angle_pattern"] = ref_principal_pattern(jet, n)
    if target is not None:
        res.update(ref_csc_point(spec, h))
    return {name: float(v) for name, v in res.items()}


def ref_rhs(n, alpha, dalpha, tan=math.tan):
    """The profile equation's right side at one sample: the stage function the RK4 loop once called per stage.

    tan is the C library's, as in the loop.
    """
    return (1.0 - dalpha * dalpha) / tan(n * alpha)


def ref_stop_number(x):
    """A number in a stop reason: four decimals below 1e6, exponent form from there on."""
    return f"{x:.4f}" if abs(x) < 1e6 else f"{x:.4e}"


def ref_profile(series, theta):
    """alpha and alpha' of a ProfileSeries at one abscissa: a Clenshaw recurrence on Python floats per series."""
    t = (2.0 * float(theta) - (series.lo + series.hi)) / (series.hi - series.lo)
    values = []
    for column in series.coeffs.T.tolist():
        b1 = b2 = 0.0
        for c in reversed(column[1:]):
            b1, b2 = c + 2.0 * t * b1 - b2, b1
        values.append(column[0] + t * b1 - b2)
    return tuple(values)


def ref_symmetric_eigen(m):
    """symmetric_eigen as it was before its fast path: symmetrize, then a finiteness pass, np.linalg.norm and take_along_axis."""
    a = np.asarray(m, dtype=float)
    mt = a.swapaxes(-1, -2)
    scale = 1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0)
    defect = np.abs(a - mt).max(axis=(-2, -1), initial=0.0)
    bad = flagged_row(defect > 1e-12 * scale, defect)
    if bad:
        raise NumericsError(f"matrix is not symmetric: asymmetry defect {bad[0]:.3e} exceeds {1e-12:.1e} * scale")
    a = 0.5 * (a + mt)
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1]), np.zeros(a.shape)
    bad = flagged_row(~np.isfinite(a).all(axis=(-2, -1)), m)
    if bad:
        raise NumericsError(f"symmetric_eigen: matrix has non-finite entries:\n{bad[0]}")
    w, v = np.linalg.eigh(a)
    residual = np.linalg.norm(a @ v - v * w[..., None, :], axis=(-2, -1))
    bad = flagged_row(~(residual <= 1e-10 * (1.0 + np.linalg.norm(a, axis=(-2, -1)))), residual, m)
    if bad:
        raise ConvergenceError(f"symmetric_eigen: residual {bad[0]:.3e} exceeds 1e-10 * (1 + ||m||) on\n{bad[1]}")
    top = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    return w, v * np.where(top < 0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# the np.take_along_axis forms that numerics.gather replaced
# ---------------------------------------------------------------------------

def ref_take_along(a, index, axis=-1):
    """numerics.gather as the np.take_along_axis call it replaced: entries or matrix columns (axis -1), rows (axis -2)."""
    if axis == -2:
        return np.take_along_axis(a, index[..., None], axis=-2)
    return np.take_along_axis(a, index if a.ndim == index.ndim else index[..., None, :], axis=-1)


def ref_sort_angles(thetas, rot):
    """angle_spectrum's stable ascending sort of the angles and the frame columns, in take_along_axis form."""
    order = np.argsort(thetas, axis=-1, kind="stable")
    return np.take_along_axis(thetas, order, axis=-1), np.take_along_axis(rot, order[..., None, :], axis=-1)


def ref_sort_curvatures(w, v):
    """ChartStencil.shape_eigen's stable descending sort, curvatures and direction rows, in take_along_axis form."""
    order = np.argsort(-w, axis=-1, kind="stable")
    return np.take_along_axis(w, order, axis=-1), np.take_along_axis(v, order[..., None, :], axis=-1).swapaxes(-1, -2)


def ref_principal_curvatures(st):
    """ChartStencil.shape_eigen with its take_along_axis sort: curvatures, chart and ambient direction rows."""
    s, t, m = _shape_data(st)
    lambdas, vt = ref_sort_curvatures(*symmetric_eigen(s))
    return lambdas, vt @ m, vt @ t


# ---------------------------------------------------------------------------
# the tangent frame as Gram-Schmidt built it
# ---------------------------------------------------------------------------

def ref_gram_schmidt(vectors) -> np.ndarray:
    """Two passes of modified Gram-Schmidt over a sequence (k, d) of real vectors, or a stack (..., k, d) of them.

    Each dot product is a matrix product, which rounds as a 1-d dot product
    does; no rank check.
    """
    vs = np.array(vectors, dtype=float)

    def dot(a, b):
        return (a[..., None, :] @ b[..., :, None])[..., 0]

    for _ in range(2):
        for i in range(vs.shape[-2]):
            for j in range(i):
                vs[..., i, :] -= dot(vs[..., i, :], vs[..., j, :]) * vs[..., j, :]
            vs[..., i, :] /= np.sqrt(dot(vs[..., i, :], vs[..., i, :]))
    return vs


def ref_tangent_data(st):
    """tangent_data as it was: two-pass Gram-Schmidt on the coordinate tangents, then the velocities m
    with m @ e = t solved from the Gram matrix's eigenpairs, G m^T = e t^T."""
    e = st.d_embed
    t = ref_gram_schmidt(e)
    w, v = st.gram_eigen
    m = v @ ((v.swapaxes(-1, -2) @ (e @ t.swapaxes(-1, -2))) / w[..., None])
    return e, t, m.swapaxes(-1, -2)


def ref_frame_principal_curvatures(st):
    """ChartStencil.shape_eigen on the Gram-Schmidt frame of ref_tangent_data."""
    _, t, m = ref_tangent_data(st)
    raw = -(m @ st.d_normal) @ t.swapaxes(-1, -2)
    lambdas, vt = ref_sort_curvatures(*symmetric_eigen(0.5 * (raw + raw.swapaxes(-1, -2))))
    return lambdas, vt @ m, vt @ t


def ref_exact_principal_curvatures(st):
    """Principal curvatures (descending) of the stencil's tangents e and normal derivatives, to round-off.

    The shape operator S and the Gram matrix P = t t^T are formed in long
    double on the frame t = m @ e, m = (v / sqrt(w))^T from st.gram_eigen,
    which is orthonormal only to about eps * cond(G); P^(-1/2) S P^(-1/2), to
    second order in P - I, is S in an orthonormal frame of the same span. Its
    spectrum does not depend on the frame, since any two frames are
    congruent. Needs a long double wider than double, as on x86-64 Linux.
    """
    w, v = st.gram_eigen
    m = (v / np.sqrt(w)[..., None, :]).swapaxes(-1, -2).astype(np.longdouble)
    t = m @ st.d_embed.astype(np.longdouble)
    raw = -(m @ st.d_normal.astype(np.longdouble)) @ t.swapaxes(-1, -2)
    d = t @ t.swapaxes(-1, -2) - np.eye(t.shape[-2])
    root = np.eye(t.shape[-2]) - 0.5 * d + 0.375 * (d @ d)
    s = root @ (0.5 * (raw + raw.swapaxes(-1, -2))) @ root
    return -np.sort(-np.linalg.eigvalsh(s.astype(float)), axis=-1)


def ref_angle_spectrum(jet, phi):
    """angle_spectrum as it was: run boundaries from np.diff and np.pad, the run search on every batch, take_along_axis sorts."""
    b, c = structure_operators(jet, phi)
    wb, vb = symmetric_eigen(b)
    rot = vb.copy()
    close = np.diff(wb, axis=-1) <= ANGLE_CLUSTER_GAP
    edge = np.pad(~close, [(0, 0)] * (close.ndim - 1) + [(1, 1)], constant_values=True)
    for lo in range(jet.dim - 1):
        for hi in range(lo + 2, jet.dim + 1):
            rows = edge[..., lo] & edge[..., hi] & close[..., lo : hi - 1].all(axis=-1)
            if not rows.any():
                continue
            basis = vb[rows][..., list(range(lo, hi))]
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
    thetas = np.mod(0.5 * np.arctan2(np.diagonal(c_diag, axis1=-2, axis2=-1), np.diagonal(b_diag, axis1=-2, axis2=-1)), np.pi)
    thetas[thetas >= np.pi] = 0.0
    thetas, rot = ref_sort_angles(thetas, rot)
    frame_vel = rot.swapaxes(-1, -2) @ jet.on_frame_vel
    return AngleSpectrum(
        thetas=thetas,
        frame_vel=frame_vel,
        frame_ambient=frame_vel @ jet.d_lift,
        phi=phi,
        diag_residual=off,
    )


def ref_write_report(out_dir, command, example, payload):
    """The report writer as it was: json.dump through the file, chunk by chunk, then a newline."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{command}_{example}_report.json")
    payload = dict(payload)
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
