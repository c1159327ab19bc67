"""Batched Gauss-map jets against the single-point path they extend.

A batch of points goes through the one Gauss-map path a lone point takes, so
every row of a batched jet, of its angle spectra and of its cubic form must
equal the single-point call bitwise. field_derivatives builds its 4n jets as
one batch; the per-jet loop it replaced is kept below as the reference. A
failing row must raise naming that row's point, and a stacked eigensolve
checks each matrix on its own.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadriclab import cli, numerics
from quadriclab.cli import RunConfig, build_example
from quadriclab.gaussmap import (
    FdSteps,
    GaussMapError,
    angle_spectrum,
    gauss_map,
    normalized_phase,
    second_fundamental_form,
)
from quadriclab.hypersurfaces import (
    Box,
    HypersurfaceChart,
    cartan_tube,
    parallel_hypersurface,
    perturbed_sphere,
    product_spheres,
    round_sphere,
    sphere_chart,
)
from quadriclab.numerics import (
    ConvergenceError,
    NumericsError,
    RankDeficiencyError,
    central_first,
    gram_schmidt,
    symmetric_eigen,
)
from quadriclab.quadric import StructureGauge
from quadriclab.rotational import build_rotational_chart, integrate_alpha, profile_curve
from quadriclab.verify import (
    FieldDerivatives,
    GaugePolicy,
    SamplePoint,
    _align_to_reference,
    field_derivatives,
)

STEPS = FdSteps()


# ---------------------------------------------------------------------------
# reference: the per-jet loop of field_derivatives
# ---------------------------------------------------------------------------

def ref_field_derivatives(pt):
    spec = pt.spec
    n = pt.jet.dim
    h_step = pt.steps.field
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
            jet_q = gauss_map(pt.chart, pt.p + c * h_step * vel, pt.steps)
            phi_q = pt.policy.phi_at(jet_q, ref_phi=pt.phi)
            spec_q = _align_to_reference(angle_spectrum(jet_q, StructureGauge(phi_q)), spec)
            cos2_q, sin2_q = spec_q.cos_sin()
            cos2_s.append(cos2_q)
            sin2_s.append(sin2_q)
            frame_s.append(spec_q.frame_ambient)
            lift_s.append(np.exp(1j * phi_q) * np.conj(jet_q.lift.z))
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
# charts
# ---------------------------------------------------------------------------

def rotational(n):
    return build_rotational_chart(profile_curve(integrate_alpha(n, np.pi / 12.0, 0.0, 0.8, 4000)), n)


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
    phis = normalized_phase(jets)
    canonical = angle_spectrum(jets)
    normalized = angle_spectrum(jets, StructureGauge(phis))
    cubic = second_fundamental_form(jets, normalized).h
    for k in range(m):
        one = gauss_map(c, q[k], STEPS)
        phi = normalized_phase(one)
        assert phis[k] == phi
        row = jets[k]
        for got in (jets.lift.z[k], row.lift.z):
            assert np.array_equal(got, one.lift.z)
        for field in ("lambdas", "principal_vel", "principal_ambient", "on_frame_vel", "coord_first", "coord_second"):
            assert np.array_equal(getattr(jets, field)[k], getattr(one, field))
            assert np.array_equal(getattr(row, field), getattr(one, field))
        for spec, gauge in ((canonical, 0.0), (normalized, phi)):
            want = angle_spectrum(one, StructureGauge(gauge))
            for field in ("thetas", "frame_vel", "frame_ambient"):
                assert np.array_equal(getattr(spec, field)[k], getattr(want, field))
        want = second_fundamental_form(one, angle_spectrum(one, StructureGauge(phi))).h
        assert np.array_equal(cubic[k], want)


@pytest.mark.parametrize("mode", ["fixed", "normalized"])
@pytest.mark.parametrize("example, n", BENCHMARK_CONFIGS)
def test_field_derivatives_match_per_jet_loop(example, n, mode):
    cfg = RunConfig(command="verify", example=example, n=n, grid=2, seed=11)
    for pt in cli._sample_points(build_example(cfg), cfg):
        if mode == "normalized":
            pt = SamplePoint(pt.jet, GaugePolicy("normalized"))
        got, want = field_derivatives(pt), ref_field_derivatives(pt)
        for field in ("d_theta", "d_frame", "d_cubic", "d_normal_lift", "d_angle_sum"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


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
# stacked eigensolves and orthonormalization
# ---------------------------------------------------------------------------

def _symmetric_stack(seed, shape=(4, 3)):
    m = np.random.default_rng(seed).standard_normal(shape + shape[-1:])
    return m + m.swapaxes(-1, -2)


@pytest.mark.parametrize("shape", [(1, 3), (5, 2), (2, 3, 4)])
def test_stacks_equal_single_matrices(shape):
    m = _symmetric_stack(7, shape)
    w, v = symmetric_eigen(m)
    vs = np.random.default_rng(8).standard_normal(shape + (shape[-1] + 1,))
    out = gram_schmidt(vs)
    for idx in np.ndindex(shape[:-1]):
        w1, v1 = symmetric_eigen(m[idx])
        assert np.array_equal(w[idx], w1) and np.array_equal(v[idx], v1)
        assert np.array_equal(out[idx], gram_schmidt(vs[idx]))


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


def test_stack_with_dependent_sequence_carries_its_spectrum():
    vs = np.random.default_rng(4).standard_normal((3, 2, 3))
    vs[1, 1] = 2.0 * vs[1, 0]
    with pytest.raises(RankDeficiencyError) as err:
        gram_schmidt(vs)
    assert np.array_equal(err.value.gram_spectrum, symmetric_eigen(vs[1] @ vs[1].T)[0])
