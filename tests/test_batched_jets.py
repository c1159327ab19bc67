"""Batched Gauss-map jets against the single-point path they extend.

A batch of points goes through the one Gauss-map path a lone point takes, so
every row of a batched jet, of its angle spectra and of its cubic form must
equal the single-point call bitwise. field_derivatives builds the 4n jets of
every sample point of a run as one batch, angle_spectrum solves the
degenerate clusters of all rows sharing one in a stack, _align_to_reference
solves one stacked polar factor per cluster size, the sample points of a
run take their spectra from one batch per gauge, the metric route of those
points is one curvature_from_metric call, and warped_curvature_check reads
its five jets as one batch and its side metrics as one call; the per-jet,
per-row and per-point code they replaced is kept below as the reference, and
every report entry of a verify run, one column over the run's batch, equals
the per-point residual math of tests/references.py fed by it. A
failing row must raise naming that row's point, and a stacked eigensolve
checks each matrix on its own.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadriclab import cli, numerics
from quadriclab.cli import RunConfig, build_example
from quadriclab.gaussmap import (
    ANGLE_CLUSTER_GAP,
    AngleSpectrum,
    FdSteps,
    GaussMapError,
    angle_spectrum,
    gauge_normalize,
    gauss_map,
    mod_pi_clusters,
    mod_pi_distance,
    nearest_mod_pi,
    normalized_phase,
    second_fundamental_form,
    structure_operators,
)
from quadriclab.hypersurfaces import (
    Box,
    HypersurfaceChart,
    cartan_tube,
    product_spheres,
    round_sphere,
    sphere_chart,
    sphere_chart_with_derivatives,
)
from quadriclab.numerics import (
    ConvergenceError,
    NumericsError,
    axis,
    central_first,
    central_second,
    flagged_row,
    symmetric_eigen,
    symmetrize,
)
from quadriclab.rotational import (
    _orbit_and_profile_angles,
    build_rotational_chart,
    integrate_alpha,
    principal_pattern_residual,
    warped_curvature_check,
)
from quadriclab.verify import (
    FieldDerivatives,
    VerifyError,
    _align_to_reference,
    curvature_from_metric,
    field_derivatives,
    gauss_metric_fn,
    sample_batch,
    sectional_from_metric,
)
from references import parallel_hypersurface, perturbed_sphere, point_batch, ref_point_residuals

STEPS = FdSteps()


# ---------------------------------------------------------------------------
# reference: angle_spectrum with one degenerate-cluster sub-solve per row
# ---------------------------------------------------------------------------

def ref_cluster(values, gap):
    order = np.argsort(values, kind="stable")
    clusters = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[clusters[-1][-1]] <= gap:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return clusters


def ref_angle_spectrum(jet, phi=0.0):
    b, c = structure_operators(jet, phi)
    wb, vb = symmetric_eigen(b)
    rot = vb.copy()
    for row in np.ndindex(wb.shape[:-1]):
        for cluster in ref_cluster(wb[row], ANGLE_CLUSTER_GAP):
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
    assert flagged_row(off > 1e-6, off) is None
    cos2 = np.diagonal(b_diag, axis1=-2, axis2=-1)
    sin2 = np.diagonal(c_diag, axis1=-2, axis2=-1)
    thetas = np.mod(0.5 * np.arctan2(sin2, cos2), np.pi)
    thetas[thetas >= np.pi] = 0.0
    order = np.argsort(thetas, axis=-1, kind="stable")
    thetas = np.take_along_axis(thetas, order, axis=-1)
    rot = np.take_along_axis(rot, order[..., None, :], axis=-1)
    frame_vel = rot.swapaxes(-1, -2) @ jet.on_frame_vel
    return AngleSpectrum(
        thetas=thetas,
        frame_vel=frame_vel,
        frame_ambient=frame_vel @ jet.d_lift,
        phi=phi,
        diag_residual=off,
    )


# ---------------------------------------------------------------------------
# reference: _align_to_reference with one polar factor per row and cluster
# ---------------------------------------------------------------------------

def ref_polar_orthogonal(m):
    w, v = symmetric_eigen(m.T @ m)
    if w[0] <= 1e-12:
        raise VerifyError("frame overlap matrix is singular")
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
    return m @ inv_sqrt


def ref_align_to_reference(spec, ref):
    """spec one spectrum or a batch of them, each row aligned on its own to the one reference."""
    clusters = mod_pi_clusters(ref.thetas, 1e-6)
    new_thetas = np.empty_like(spec.thetas)
    new_frame_vel = np.empty_like(spec.frame_vel)
    new_frame_ambient = np.empty_like(spec.frame_ambient)
    dist = mod_pi_distance(spec.thetas[..., :, None], ref.thetas)
    owner = np.argmin(np.stack([dist[..., cl].min(axis=-1) for cl in clusters], axis=-1), axis=-1)
    for row in np.ndindex(spec.thetas.shape[:-1]):
        thetas, frame_vel, frame_ambient = spec.thetas[row], spec.frame_vel[row], spec.frame_ambient[row]
        assignment = [np.flatnonzero(owner[row] == c) for c in range(len(clusters))]
        if [len(a) for a in assignment] != [len(c) for c in clusters]:
            raise VerifyError("angle clusters changed between stencil points")
        for cl, members in zip(clusters, assignment):
            overlap = np.real(np.conj(frame_ambient[members]) @ ref.frame_ambient[cl].T)
            rot = ref_polar_orthogonal(overlap)
            mismatch = np.abs(rot.T @ overlap - np.eye(len(cl))).max()
            if mismatch > 0.1:
                raise VerifyError(f"frame transport mismatch {mismatch:.3f} exceeds 0.1")
            new_frame_vel[row][cl] = rot.T @ frame_vel[members]
            new_frame_ambient[row][cl] = rot.T @ frame_ambient[members]
            new_thetas[row][cl] = nearest_mod_pi(thetas[members], ref.thetas[cl])
    return dataclasses.replace(spec, thetas=new_thetas, frame_vel=new_frame_vel, frame_ambient=new_frame_ambient)


# ---------------------------------------------------------------------------
# reference: field_derivatives of one point, jet by jet
# ---------------------------------------------------------------------------

def ref_field_derivatives(jet, spec, renormalize=False):
    """The field derivatives at the one point of jet, spec its spectrum there.

    The stencil gauge is the point's, or with renormalize each stencil jet's
    normalized one nearest the point's.
    """
    n = jet.dim
    h_step = jet.steps.field
    phi = spec.phi
    d_cos2 = np.empty((n, n))
    d_sin2 = np.empty((n, n))
    d_frame = np.empty((n, n, n + 2), dtype=complex)
    d_cubic = np.empty((n, n, n, n))
    d_normal = np.empty((n, n + 2), dtype=complex)
    d_angle_sum = np.empty(n)
    for i in range(n):
        vel = spec.frame_vel[i]
        cos2_s, sin2_s, frame_s, cubic_s, lift_s, sum_s = [], [], [], [], [], []
        for c in (1.0, 0.5, -0.5, -1.0):
            jet_q = gauss_map(jet.chart, jet.point + c * h_step * vel, jet.steps)
            phi_q = ref_normalized_phase(jet_q, phi) if renormalize else phi
            spec_q = ref_align_to_reference(ref_angle_spectrum(jet_q, phi_q), spec)
            cos2_q, sin2_q = spec_q.cos_sin()
            cos2_s.append(cos2_q)
            sin2_s.append(sin2_q)
            frame_s.append(spec_q.frame_ambient)
            lift_s.append(np.exp(1j * phi_q) * np.conj(jet_q.lift))
            cubic_s.append(second_fundamental_form(jet_q, spec_q).h)
            sum_s.append(np.sum(np.arctan(jet_q.lambdas)))
        d_cos2[i] = central_first(*cos2_s, 0.5 * h_step)
        d_sin2[i] = central_first(*sin2_s, 0.5 * h_step)
        d_frame[i] = central_first(*frame_s, 0.5 * h_step)
        d_normal[i] = central_first(*lift_s, 0.5 * h_step)
        d_cubic[i] = central_first(*cubic_s, 0.5 * h_step)
        d_angle_sum[i] = central_first(*sum_s, 0.5 * h_step)
    cos2, sin2 = spec.cos_sin()
    return FieldDerivatives(
        d_theta=0.5 * (cos2[None, :] * d_sin2 - sin2[None, :] * d_cos2),
        d_frame=d_frame,
        d_cubic=d_cubic,
        d_normal_lift=d_normal,
        d_angle_sum=d_angle_sum,
    )


# ---------------------------------------------------------------------------
# reference: the per-point gauge loop of a run's sample points
# ---------------------------------------------------------------------------

def ref_normalized_phase(jet, ref_phi=None):
    spec0 = ref_angle_spectrum(jet, 0.0)
    n = jet.dim
    period = 2.0 * np.pi / n
    phi = np.mod(2.0 * np.sum(spec0.thetas, axis=-1) / n, period)
    if ref_phi is not None:
        k = np.round((ref_phi - phi) / period)
        phi = phi + k * period
    return phi if np.ndim(phi) else float(phi)


def ref_gauge_normalize(jet, ref_phi=None):
    phi = ref_normalized_phase(jet, ref_phi)
    spec = ref_angle_spectrum(jet, phi)
    assert mod_pi_distance(np.sum(spec.thetas), 0.0) <= 1e-8
    return phi


def ref_sample_points(chart, cfg):
    """(jet, phase, canonical spectrum, gauged spectrum) of each sample point, solved point by point."""
    margin = max(0.03, 3.0 * cfg.steps().stencil_margin)
    points = []
    for p in cli.kronecker_points(chart.box, cfg.grid, cfg.seed, margin):
        jet = gauss_map(chart, p, cfg.steps())
        ref_phi = points[0][1] if points else None
        phi = 0.0 if cfg.gauge == "canonical" else ref_gauge_normalize(jet, ref_phi)
        spectra = (ref_angle_spectrum(jet, 0.0), ref_angle_spectrum(jet, phi))
        points.append((jet, phi, *spectra))
    return points


# ---------------------------------------------------------------------------
# reference: warped_curvature_check with one dict entry per offset
# ---------------------------------------------------------------------------

def ref_warped_curvature_check(chart, n, c1, steps):
    metric = gauss_metric_fn(chart, steps)
    p = chart.box.center.copy()
    e0 = axis(n, 0)
    dth = steps.field
    h = 0.5 * dth

    def warp_at(x, g):
        _, dsigma = sphere_chart_with_derivatives(n - 1, x[..., 1:])
        m = dsigma @ dsigma.swapaxes(-1, -2)
        ratios = np.diagonal(g[..., 1:, 1:], axis1=-2, axis2=-1) / np.diagonal(m, axis1=-2, axis2=-1)
        return (
            np.sqrt(np.mean(ratios, axis=-1)),
            np.abs(g[..., 0, 1:]).max(axis=-1),
            np.ptp(ratios, axis=-1),
        )

    def alpha_from_gauss(jet):
        _, orbit = _orbit_and_profile_angles(ref_angle_spectrum(jet).thetas, jet.chart.meta["n"])
        return float(np.pi - orbit)

    offsets = (-2, -1, 0, 1, 2)
    jets = {c: gauss_map(chart, p + c * h * e0, steps) for c in offsets}
    gs = {c: jet.lift_metric for c, jet in jets.items()}
    alphas = {c: alpha_from_gauss(jet) for c, jet in jets.items()}
    vs = {c: float(np.sqrt(g[0, 0])) for c, g in gs.items()}
    warps = {c: warp_at(jets[c].point, g) for c, g in gs.items()}

    def d_dtheta(f):
        return central_first(f[2], f[1], f[-1], f[-2], h)

    g_p, alpha, v0 = gs[0], alphas[0], vs[0]
    rho, off_block, conformal_spread = warps[0]
    du = d_dtheta(alphas)
    ddu = central_second(alphas[2], alphas[1], alpha, alphas[-1], alphas[-2], h)
    dv = d_dtheta(vs)
    drho = d_dtheta({c: w[0] for c, w in warps.items()})
    e1_alpha = du / v0
    e1_e1_alpha = (ddu * v0 - du * dv) / v0**3
    ortho, ortho2 = axis(n, 1), axis(n, 2)

    def fiber_curvature(x, g_x, rho_x, drho_x):
        e1_rho = drho_x / np.sqrt(float(g_x[0, 0]))
        k_orbit = sectional_from_metric(curvature_from_metric(metric, x, steps.metric, g_x), g_x, ortho, ortho2)
        return rho_x**2 * (k_orbit + (e1_rho / rho_x) ** 2)

    def side_fiber_curvature(x):
        g_x = metric(x)
        # the five-point derivative along e_0, one stencil call per side
        ys = np.array([x + c * h * e0 for c in (2, 1, -1, -2)])
        drho_x = central_first(*warp_at(ys, metric(ys))[0], h)
        return fiber_curvature(x, g_x, warp_at(x, g_x)[0], drho_x)

    k_fiber = fiber_curvature(p, g_p, rho, drho)
    kf_samples = [side_fiber_curvature(p - 5 * dth * e0), k_fiber, side_fiber_curvature(p + 5 * dth * e0)]
    warp_law = c1 * np.sin(n * alpha) ** (-1.0 / n)
    rhs_chain = warp_law**2 * (2.0 + e1_alpha**2 * np.sin(n * alpha) ** (-2.0))
    return {
        "warp_block_diagonal": off_block,
        "warp_block_conformal": conformal_spread,
        "warp_factor_law": abs(rho - warp_law),
        "fiber_curvature_normalized": abs(k_fiber - 1.0),
        "fiber_curvature_chain": abs(k_fiber - rhs_chain),
        "fiber_curvature_variance": float(np.var(kf_samples)),
        "profile_second_order_ode": abs(
            e1_e1_alpha - (n + 1) / np.tan(n * alpha) * e1_alpha**2 - np.sin(2 * n * alpha)
        ),
        "principal_vs_angle_pattern": float(principal_pattern_residual(jets[0], n)),
    }


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def rotational(n):
    return build_rotational_chart(integrate_alpha(n, np.pi / 12.0, 0.0, 0.8, 4000))


CHARTS = {
    "sphere": lambda: round_sphere(3, 1.0 / np.sqrt(2.0)),
    "product-2": lambda: product_spheres(1, 2, 1.0 / np.sqrt(2.0)),
    "product-3": lambda: product_spheres(1, 3, 0.55),
    "cartan": lambda: cartan_tube(0.35),
    "rotational-3": lambda: rotational(3),
    "rotational-4": lambda: rotational(4),
    "perturbed": perturbed_sphere,
    "parallel": lambda: parallel_hypersurface(product_spheres(1, 3, 0.55), 0.2),
}


@functools.cache
def chart(name):
    return CHARTS[name]()


# the six configurations of the benchmark's verify workload
BENCHMARK_CONFIGS = [("sphere", 3), ("product", 2), ("product", 3), ("cartan", 3), ("rotational", 3), ("rotational", 4)]


# ---------------------------------------------------------------------------
# every row of a batch is the single-point call
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(CHARTS)),
    st.sampled_from(["one", "three", "stencil"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_rows_equal_single_points(name, size, seed):
    c = chart(name)
    m = {"one": 1, "three": 3, "stencil": 4 * c.dim}[size]
    margin = 1.5 * STEPS.stencil_margin
    q = np.random.default_rng(seed).uniform(c.box.lows + margin, c.box.highs - margin, (m, c.dim))
    jets = gauss_map(c, q, STEPS)
    canonical = angle_spectrum(jets)
    phis = normalized_phase(canonical)
    normalized = angle_spectrum(jets, phis)
    cubic = second_fundamental_form(jets, normalized).h
    for k in range(m):
        one = gauss_map(c, q[k], STEPS)
        # without a reference, every row takes the gauge nearest row 0's
        phi = normalized_phase(angle_spectrum(one), ref_phi=phis[0])
        assert phis[k] == phi
        assert np.array_equal(jets.lift[k], one.lift)
        for field in ("lambdas", "on_frame_vel", "d_lift", "coord_second"):
            assert np.array_equal(getattr(jets, field)[k], getattr(one, field))
        # the principal curvatures, chart directions and ambient directions
        for rows, alone in zip(jets.shape_eigen, one.shape_eigen, strict=True):
            assert np.array_equal(rows[k], alone)
        for spec, gauge in ((canonical, 0.0), (normalized, phi)):
            want = angle_spectrum(one, gauge)
            for field in ("thetas", "frame_vel", "frame_ambient"):
                assert np.array_equal(getattr(spec, field)[k], getattr(want, field))
        want = second_fundamental_form(one, angle_spectrum(one, phi)).h
        assert np.array_equal(cubic[k], want)


def assert_fields_equal(got, want, k):
    """Row k of the field derivatives of a batch equals the one point's."""
    for field in ("d_theta", "d_frame", "d_cubic", "d_normal_lift", "d_angle_sum"):
        assert np.array_equal(getattr(got, field)[k], getattr(want, field)), field


@pytest.mark.parametrize("mode", ["fixed", "normalized"])
@pytest.mark.parametrize("example, n", BENCHMARK_CONFIGS)
def test_field_derivatives_match_per_jet_loop(example, n, mode):
    # fixed: a run's sample points, in either gauge, share one field-derivative
    # batch, each point's gauge held fixed over its stencil; normalized: the
    # stencil gauge re-normalized at every jet, nearest each point's own gauge,
    # for a batch of points and for a batch of one point in its own normalized
    # gauge. Each point's row is the jet-by-jet reference.
    renormalize = mode == "normalized"
    for gauge in ("normalized", "canonical"):
        cfg = RunConfig(command="verify", example=example, n=n, grid=3, gauge=gauge, seed=11)
        chart = build_example(cfg)
        jets, spec0, spec = cli._sample_jets(chart, cfg)
        if renormalize:
            batch = field_derivatives(jets, spec, renormalize=True)
        else:
            batch = sample_batch(jets, spec0, spec).fields
        for k, (jet, _, _, spec_k) in enumerate(ref_sample_points(chart, cfg)):
            assert_fields_equal(batch, ref_field_derivatives(jet, spec_k, renormalize), k)
            if renormalize:
                alone = point_batch(chart, jet.point, cfg.steps(), normalized=True)
                own = ref_angle_spectrum(jet, ref_normalized_phase(jet))
                assert_fields_equal(alone.fields, ref_field_derivatives(jet, own, True), 0)


def mixed_pattern_stack():
    """Jets of product n=3 at four points, with gauges giving their tangential operators
    the degenerate eigenvalue runs 0..1, 0..2, 1..2 and 0..1 in turn.

    Their spectra in those gauges have two cluster patterns mod pi.
    """
    c = chart("product-3")
    q = c.box.center + np.array([[0.0, 0.0, 0.0], [0.05, -0.05, 0.02], [-0.04, 0.03, 0.0], [0.02, 0.01, -0.03]])
    jets = gauss_map(c, q, STEPS)
    th = angle_spectrum(jets).thetas
    phis = np.array([0.0, th[1, 0] + th[1, 1], 2.0 * th[2, 1], 0.3])
    w = symmetric_eigen(structure_operators(jets, phis)[0])[0]
    close = np.diff(w, axis=-1) <= ANGLE_CLUSTER_GAP
    assert close.tolist() == [[True, False], [True, True], [False, True], [True, False]]
    spec = angle_spectrum(jets, phis)
    assert len({str(mod_pi_clusters(spec.thetas[k], 1e-6)) for k in range(len(q))}) == 2
    return jets, phis


def stencil_jets(jets, spec):
    """The field-derivative stencil jets of a batch of points, and each point's gauge broadcast over its rows."""
    h = STEPS.field * np.array([1.0, 0.5, -0.5, -1.0])
    q = jets.point[:, None, None] + h[:, None, None] * spec.frame_vel[:, None]
    return gauss_map(jets.chart, q, STEPS), np.asarray(spec.phi)[..., None, None]


@pytest.mark.parametrize("gauge", ["normalized", "canonical"])
@pytest.mark.parametrize("example, n", BENCHMARK_CONFIGS + [("mixed", 3)])
def test_angle_spectrum_matches_per_row_sub_solves(example, n, gauge):
    # the sample jets and field-stencil jets of a run, and a stack whose rows
    # have different degenerate runs: each run's rows share one sub-solve
    if example == "mixed":
        jets, phis = mixed_pattern_stack()
        cases = [(jets, phis if gauge == "normalized" else 0.0)]
    else:
        cfg = RunConfig(command="verify", example=example, n=n, grid=3, gauge=gauge, seed=11)
        jets, _, spec = cli._sample_jets(build_example(cfg), cfg)
        cases = [(jets, 0.0), (jets, spec.phi), stencil_jets(jets, spec)]
    for jet, g in cases:
        got, want = angle_spectrum(jet, g), ref_angle_spectrum(jet, g)
        for field in ("thetas", "frame_vel", "frame_ambient", "diag_residual"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        for k in np.ndindex(jet.point.shape[:-1]):
            alone = gauss_map(jet.chart, jet.point[k], STEPS)
            one = angle_spectrum(alone, np.broadcast_to(g, jet.point.shape[:-1])[k])
            assert np.array_equal(got.frame_ambient[k], one.frame_ambient)


def frames_at(spec, k):
    """Row k of the angle and frame arrays of a batch of spectra, the fields alignment reads."""
    return dataclasses.replace(spec, **{f: getattr(spec, f)[k] for f in ("thetas", "frame_vel", "frame_ambient")})


@pytest.mark.parametrize("gauge", ["normalized", "canonical"])
@pytest.mark.parametrize("example, n", BENCHMARK_CONFIGS + [("mixed", 3)])
def test_alignment_matches_per_row_polar_factors(example, n, gauge):
    # one stacked polar factor per cluster size; the mixed stack's
    # references have two cluster patterns mod pi
    if example == "mixed":
        jets, phis = mixed_pattern_stack()
        spec = angle_spectrum(jets, phis if gauge == "normalized" else 0.0)
    else:
        cfg = RunConfig(command="verify", example=example, n=n, grid=3, gauge=gauge, seed=11)
        jets, _, spec = cli._sample_jets(build_example(cfg), cfg)
    stencil, stencil_phi = stencil_jets(jets, spec)
    q, spec_q = stencil.point, angle_spectrum(stencil, stencil_phi)
    got = _align_to_reference(spec_q, spec, q)
    for k in range(len(q)):
        # the stencil of point k, a batch of 4n rows
        rows = frames_at(spec_q, k)
        want = ref_align_to_reference(rows, frames_at(spec, k))
        for field in ("thetas", "frame_vel", "frame_ambient"):
            assert np.array_equal(getattr(got, field)[k], getattr(want, field)), field
        # a single reference aligns the same rows alike
        one = _align_to_reference(rows, frames_at(spec, k), q[k])
        assert np.array_equal(one.frame_ambient, want.frame_ambient)


@pytest.mark.parametrize("gauge", ["normalized", "canonical"])
@pytest.mark.parametrize("example, n", BENCHMARK_CONFIGS + [("mixed", 3)])
def test_stencil_spectrum_rows_match_hand_slicing(example, n, gauge):
    # row k of a stencil spectrum batch, whose gauge angle is per point and
    # broadcast over the 4n stencil rows, read by hand slicing the batch
    # arrays, is the spectrum of point k's stencil solved on its own
    if example == "mixed":
        jets, phis = mixed_pattern_stack()
        spec = angle_spectrum(jets, phis if gauge == "normalized" else 0.0)
    else:
        cfg = RunConfig(command="verify", example=example, n=n, grid=3, gauge=gauge, seed=11)
        jets, _, spec = cli._sample_jets(build_example(cfg), cfg)
    stencil, stencil_phi = stencil_jets(jets, spec)
    spec_q = angle_spectrum(stencil, stencil_phi)
    phi_q = np.broadcast_to(stencil_phi, stencil.point.shape[:-1])
    for k in range(len(stencil.point)):
        # the stencil of point k alone, with its row of the gauge
        alone = gauss_map(stencil.chart, stencil.point[k], STEPS)
        row = angle_spectrum(alone, phi_q[k])
        for field in ("thetas", "frame_vel", "frame_ambient", "diag_residual"):
            assert np.array_equal(getattr(row, field), getattr(spec_q, field)[k]), field
        assert np.array_equal(alone.lift, stencil.lift[k])
        assert np.array_equal(np.broadcast_to(row.phi, phi_q[k].shape), phi_q[k])
    # the per-point gauge angles of the batch are the ones the stencil rows carry
    assert np.array_equal(phi_q[:, 0, 0], np.broadcast_to(spec.phi, (len(jets.point),)))


def test_mixed_pattern_field_derivatives_match_per_jet_loop():
    # rows of one field-derivative batch whose references differ in cluster pattern
    jets, phis = mixed_pattern_stack()
    spec = angle_spectrum(jets, phis)
    batch = field_derivatives(jets, spec)
    for k in range(len(phis)):
        jet = gauss_map(jets.chart, jets.point[k], STEPS)
        assert_fields_equal(batch, ref_field_derivatives(jet, ref_angle_spectrum(jet, phis[k])), k)


@pytest.mark.parametrize("gauge", ["normalized", "canonical"])
@pytest.mark.parametrize("example, n", BENCHMARK_CONFIGS)
def test_sample_points_match_per_point_gauge_loop(example, n, gauge):
    # one canonical and one gauged spectrum batch per run give every point the
    # phase and spectra that the point-by-point loop solved
    cfg = RunConfig(command="verify", example=example, n=n, grid=3, gauge=gauge, seed=11)
    chart = build_example(cfg)
    got = sample_batch(*cli._sample_jets(chart, cfg))
    refs = ref_sample_points(chart, cfg)
    assert len(got.jets.point) == len(refs) == cfg.grid
    for k, (jet, phi, spec0, spec) in enumerate(refs):
        assert np.array_equal(got.jets.point[k], jet.point)
        assert np.array_equal(got.jets.lift[k], jet.lift)
        for have, want in ((got.spec0, spec0), (got.spec, spec)):
            assert np.broadcast_to(have.phi, (cfg.grid,))[k] == want.phi
            for field in ("thetas", "frame_vel", "frame_ambient", "diag_residual"):
                assert np.array_equal(getattr(have, field)[k], getattr(want, field))


@pytest.mark.parametrize("example, n", BENCHMARK_CONFIGS)
def test_batched_curvature_equals_single_points(example, n):
    # a verify run solves the metric route of all its sample points in one
    # call; every row, and a standalone point's own tensor, is the single call
    cfg = RunConfig(command="verify", example=example, n=n, grid=3, seed=11)
    chart = build_example(cfg)
    sample, steps = cli._sample_jets(chart, cfg), cfg.steps()
    jets = sample[0]
    metric = gauss_metric_fn(chart, steps)
    batch = curvature_from_metric(metric, jets.point, steps.metric, jets.lift_metric)
    assert batch.shape == (cfg.grid,) + (n,) * 4
    assert np.array_equal(sample_batch(*sample).curvature, batch)
    nested = curvature_from_metric(metric, jets.point[None], steps.metric, jets.lift_metric[None])
    assert np.array_equal(nested[0], batch)
    for k in range(cfg.grid):
        one = curvature_from_metric(metric, jets.point[k], steps.metric, jets.lift_metric[k])
        assert np.array_equal(batch[k], one)
        alone = gauss_map(chart, jets.point[k], steps)
        assert np.array_equal(curvature_from_metric(metric, alone.point, steps.metric, alone.lift_metric), one)


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("gauge", ["normalized", "canonical"])
@pytest.mark.parametrize("example, n", BENCHMARK_CONFIGS + [("sphere", 1), ("sphere", 2), ("sphere", 8)])
def test_report_columns_match_per_point_twin(example, n, gauge, seed):
    # every report entry of a verify run, read from one column over the run's
    # batch, equals bitwise the per-point residual math fed by the per-point
    # references: each point's own jet, spectra, field derivatives and
    # metric-route tensor. Sphere n = 1 and 2 have empty distinct-index sets
    # and no constant-curvature balance checks; n = 8 is the largest tensors
    cfg = RunConfig(command="verify", example=example, n=n, grid=2 if n == 8 else 3, gauge=gauge, seed=seed)
    chart = build_example(cfg)
    _, payload = cli.cmd_verify(cfg)
    refs = ref_sample_points(chart, cfg)
    assert len(payload["results"]) == cfg.grid + cfg.entry.isoparametric
    for row, (jet, _, spec0, spec) in zip(payload["results"], refs):
        assert row["point"] == jet.point.tolist()
        fields = ref_field_derivatives(jet, spec)
        target = cfg.entry.sectional(n)
        curvature = curvature_from_metric(gauss_metric_fn(chart, jet.steps), jet.point, jet.steps.metric, jet.lift_metric)
        want = ref_point_residuals(jet, spec0, spec, fields, curvature, example, gauge, target)
        got = {c["name"]: c["residual"] for c in row["checks"]}
        assert list(got) == list(want)
        assert got == want


def test_benchmark_configs_cover_every_example():
    assert {example for example, _ in BENCHMARK_CONFIGS} == set(cli.EXAMPLES)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_warped_check_matches_per_offset_dicts(n):
    c = build_rotational_chart(integrate_alpha(n, np.pi / 12.0, 0.0, 0.8, 4000))
    got = warped_curvature_check(c, n, c.meta["c1"], STEPS)
    want = ref_warped_curvature_check(c, n, c.meta["c1"], STEPS)
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name


# ---------------------------------------------------------------------------
# a failing row is named
# ---------------------------------------------------------------------------

def _cubed_first_coordinate_chart():
    # the first coordinate enters cubed, so the induced metric degenerates
    # where it vanishes
    base = round_sphere(2, 0.8)

    def warp(q):
        q = np.asarray(q, dtype=float)
        return np.concatenate([q[..., :1] ** 3, q[..., 1:]], axis=-1)

    return HypersurfaceChart(
        dim=2,
        embed=lambda q: base.embed(warp(q)),
        normal=lambda q: base.normal(warp(q)),
        box=Box.cube(2, 0.4),
        name="cubed",
    )


def _broken_normal_chart():
    # the equatorial 2-sphere of S^3, whose unit normal is the constant e_4,
    # with a unit tangent field in place of the normal where q_1 > 0.15
    def embed(q):
        return np.concatenate([sphere_chart(2, q), 0.0 * q[..., :1]], axis=-1)

    def normal(q):
        c1, s1, c2 = np.cos(q[..., 0]), np.sin(q[..., 0]), np.cos(q[..., 1])
        d1 = np.stack([-s1 * c2, c1 * c2, 0.0 * c2], axis=-1)
        tangent = np.concatenate([d1 / np.linalg.norm(d1, axis=-1, keepdims=True), 0.0 * q[..., :1]], axis=-1)
        return np.where(q[..., :1] > 0.15, tangent, [0.0, 0.0, 0.0, 1.0])

    return HypersurfaceChart(dim=2, embed=embed, normal=normal, box=Box.cube(2, 0.4), name="broken")


FAILING_BATCHES = {
    # chart, batch, failing row
    "outside-margin": (round_sphere(2, 0.8), [[0.1, 0.2], [-0.3, 0.05], [0.445, 0.0]], 2),
    "degenerate-metric": (_cubed_first_coordinate_chart(), [[0.2, 0.1], [0.0, -0.1], [-0.25, 0.05]], 1),
    "broken-normal": (_broken_normal_chart(), [[-0.2, 0.1], [0.0, 0.05], [0.3, -0.1], [0.1, 0.2]], 2),
}


@pytest.mark.parametrize("case", sorted(FAILING_BATCHES))
def test_failing_row_is_named(case):
    c, q, k = FAILING_BATCHES[case]
    q = np.array(q)
    # every other row passes on its own
    for j in range(len(q)):
        if j != k:
            gauss_map(c, q[j], STEPS)
    with pytest.raises(GaussMapError) as err:
        gauss_map(c, q, STEPS)
    assert str(q[k]) in str(err.value)
    assert not any(str(q[j]) in str(err.value) for j in range(len(q)) if j != k)


def test_gauge_normalize_names_the_failing_row():
    # a canonical spectrum whose row 1 is off by 0.1 gives that row a gauge
    # that leaves its angle sum 0.1 from zero
    c = chart("cartan")
    q = c.box.center + np.array([[0.0, 0.0, 0.0], [0.05, -0.05, 0.02], [-0.04, 0.03, 0.0]])
    jets = gauss_map(c, q, STEPS)
    spec0 = angle_spectrum(jets)
    gauge_normalize(jets, spec0)
    thetas = spec0.thetas.copy()
    thetas[1, 0] += 0.1
    with pytest.raises(GaussMapError, match="^normalized gauge failed: angle sum defect 1.00e-01") as err:
        gauge_normalize(jets, dataclasses.replace(spec0, thetas=thetas))
    assert str(q[1]) in str(err.value)
    assert not any(str(q[j]) in str(err.value) for j in (0, 2))


def _broken_alignment(case):
    """Stencil points q near a cartan point, their spectra with one row broken, and the reference."""
    c = chart("cartan")
    p = c.box.center
    q = p + np.array([[1e-3, 0.0, 0.0], [0.0, -1e-3, 0.0], [0.0, 0.0, 5e-4]])
    ref = angle_spectrum(gauss_map(c, p, STEPS))
    spec = angle_spectrum(gauss_map(c, q, STEPS))
    _align_to_reference(spec, ref, q)
    thetas, frames = spec.thetas.copy(), spec.frame_ambient.copy()
    if case == "clusters":
        # row 1 with its last angle moved onto its first: two angles own one cluster
        thetas[1, 2] = thetas[1, 0]
    elif case == "singular":
        # row 2's first frame vector turned by the complex structure: no real overlap
        frames[2, 0] = 1j * ref.frame_ambient[0]
    else:
        # row 0's second frame vector turned by a phase of 0.6: overlap cos 0.6
        frames[0, 1] = np.exp(0.6j) * frames[0, 1]
    return q, dataclasses.replace(spec, thetas=thetas, frame_ambient=frames), ref


@pytest.mark.parametrize(
    "case, row, message",
    [
        ("clusters", 1, "^angle clusters changed between stencil points at "),
        ("singular", 2, "^frame overlap matrix is singular at "),
        ("mismatch", 0, "^frame transport mismatch 0.17[0-9] exceeds 0.1 at "),
    ],
)
def test_alignment_names_the_failing_row(case, row, message):
    q, spec, ref = _broken_alignment(case)
    with pytest.raises(VerifyError, match=message) as err:
        _align_to_reference(spec, ref, q)
    assert str(q[row]) in str(err.value)
    assert not any(str(q[j]) in str(err.value) for j in range(len(q)) if j != row)


@pytest.mark.parametrize("command", ["verify", "angles"])
@pytest.mark.parametrize("case", sorted(FAILING_BATCHES))
def test_failing_row_exits_2(tmp_path, capsys, monkeypatch, case, command):
    c, q, k = FAILING_BATCHES[case]
    q = np.array(q)
    monkeypatch.setattr(cli, "build_example", lambda cfg: c)
    monkeypatch.setattr(cli, "kronecker_points", lambda box, count, seed, margin: list(q))
    assert cli.main([command, "--grid", str(len(q)), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(q[k]) in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# stacked eigensolves
# ---------------------------------------------------------------------------

def _symmetric_stack(seed, shape=(4, 3)):
    m = np.random.default_rng(seed).standard_normal(shape + shape[-1:])
    return m + m.swapaxes(-1, -2)


@pytest.mark.parametrize("shape", [(1, 3), (5, 2), (2, 3, 4)])
def test_stacks_equal_single_matrices(shape):
    m = _symmetric_stack(7, shape)
    w, v = symmetric_eigen(m)
    for idx in np.ndindex(shape[:-1]):
        w1, v1 = symmetric_eigen(m[idx])
        assert np.array_equal(w[idx], w1) and np.array_equal(v[idx], v1)


def test_stack_with_non_finite_matrix_names_it():
    m = _symmetric_stack(1)
    m[2, 1, 1] = np.nan
    with pytest.raises(NumericsError, match="non-finite") as err:
        symmetric_eigen(m)
    assert str(m[2]) in str(err.value) and str(m[1]) not in str(err.value)


def test_stack_with_asymmetric_matrix_raises():
    m = _symmetric_stack(2)
    m[1, 0, 2] += 0.5
    with pytest.raises(NumericsError, match="not symmetric: asymmetry defect 5.000e-01"):
        symmetric_eigen(m)


def test_stack_residual_check_names_its_matrix(monkeypatch):
    m = _symmetric_stack(3)
    eigh = np.linalg.eigh

    def perturbed_third(a):
        w, v = eigh(a)
        w = w.copy()
        w[3] += 1e-6
        return w, v

    monkeypatch.setattr(numerics.np.linalg, "eigh", perturbed_third)
    with pytest.raises(ConvergenceError) as err:
        symmetric_eigen(m)
    assert str(m[3]) in str(err.value)
    assert not any(str(m[j]) in str(err.value) for j in range(3))
