import dataclasses
import tracemalloc

import numpy as np
import pytest

from quadriclab import cli
from quadriclab.gaussmap import angle_spectrum, gauge_normalize, gauss_map, second_fundamental_form
from quadriclab.hypersurfaces import ChartStencil, round_sphere
from quadriclab.verify import (
    VerifyError,
    check_csc_identities,
    check_prop1,
    classify_by_angles,
    codazzi_residual,
    connection_and_s,
    curvature_from_metric,
    gauss_equation_residual,
    gauss_metric_fn,
    isoparametric_variance,
    sample_batch,
    sectional_curvature,
    sectional_from_metric,
    sectional_residuals,
    _cyclic_match,
)
from quadriclab.gaussmap import mod_pi_clusters, mod_pi_distance, nearest_mod_pi
from references import box_sample, point_batch, quadric_distance, reconstruct_hypersurface, ref_sectional_from_metric

P3 = np.array([0.1, -0.2, 0.15])


def point(chart, p, normalized=False):
    """The sample batch of the one point p; normalized re-normalizes the gauge at every stencil point."""
    return point_batch(chart, p, normalized=normalized)


def connection(b):
    """connection_and_s of a batch of one point, at that point."""
    conn = connection_and_s(b.jets, b.spec, b.fields)
    return type(conn)(omega=conn.omega[0], s=conn.s[0], antisymmetry_defect=float(conn.antisymmetry_defect[0]))


def at_point(res):
    """The residuals of a batch of one point, as floats."""
    return {name: float(v[0]) for name, v in res.items()}


class TestConnection:
    def test_antisymmetry(self, tube):
        conn = connection(point(tube, P3))
        assert conn.antisymmetry_defect < 1e-8

    def test_gauge_one_form_vanishes_minimal_normalized(self, tube, sphere_half):
        for chart in (tube, sphere_half):
            conn = connection(point(chart, P3, normalized=True))
            assert np.abs(conn.s).max() < 1e-5

    def test_gauge_one_form_nonzero_on_nonminimal(self, wavy_sphere):
        # pointwise renormalization of a non-minimal chart is a genuinely
        # varying gauge; its one-form must show up and intcond-style
        # consistency must still hold (checked via prop1 below)
        p = np.array([0.1, -0.15])
        conn = connection(point(wavy_sphere, p, normalized=True))
        assert np.abs(conn.s).max() > 1e-3

    def test_cartan_rotation_rate_nonzero(self, tube):
        conn = connection(point(tube, P3, normalized=True))
        assert np.abs(conn.omega).max() > 0.1


class TestProp1:
    def test_isoparametric_tight(self, sphere_half, product_13, tube):
        for chart in (sphere_half, product_13, tube):
            rep = at_point(check_prop1(point(chart, P3, normalized=True)))
            for residual in rep.values():
                assert residual < 1e-8

    def test_rotational_nontrivial(self, rotational_chart):
        pt = point(rotational_chart, rotational_chart.box.center, normalized=True)
        # the angle gradients along the profile direction are genuinely nonzero
        assert np.abs(pt.fields.d_theta).max() > 0.1
        assert np.abs(pt.ff.h).max() > 0.1
        rep = at_point(check_prop1(pt))
        for residual in rep.values():
            assert residual < 1e-4

    def test_nonminimal_with_varying_gauge(self, wavy_sphere):
        # s != 0 here, so the angle-gradient identity exercises its s-term
        p = np.array([0.1, -0.15])
        rep = at_point(check_prop1(point(wavy_sphere, p, normalized=True)))
        assert rep["angle_gradient_identity"] < 1e-4
        assert rep["frame_rotation_identity"] < 1e-4

    def test_cartan_rotation_identity_content(self, tube):
        # sin(dtheta) * omega = cos(dtheta) * h with all factors nonzero
        pt = point(tube, P3, normalized=True)
        conn = connection(pt)
        th = pt.spec.thetas[0]
        lhs = np.sin(th[0] - th[1]) * conn.omega[2, 0, 1]
        rhs = np.cos(th[0] - th[1]) * pt.ff.h[0, 2, 0, 1]
        assert abs(lhs) > 0.1
        assert abs(lhs - rhs) < 1e-8


class TestCurvature:
    def test_metric_route_round_sphere_unit(self):
        # analytic metric of the unit 2-sphere: K must be +1
        def metric(q):
            g = np.zeros(q.shape[:-1] + (2, 2))
            g[..., 0, 0], g[..., 1, 1] = np.cos(q[..., 1]) ** 2, 1.0
            return g

        p = np.array([0.2, 0.3])
        g = metric(p)
        r = curvature_from_metric(metric, p, 2e-3, g)
        k = sectional_from_metric(r, g, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert abs(k - 1.0) < 1e-8

    def test_sphere_gauss_map_curvature_two(self, sphere_half):
        metric = gauss_metric_fn(sphere_half)
        g = metric(P3)
        r = curvature_from_metric(metric, P3, 2.5e-3, g)
        k = sectional_from_metric(r, g, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        assert abs(k - 2.0) < 1e-3

    def test_flat_torus(self, clifford_torus):
        metric = gauss_metric_fn(clifford_torus)
        p = np.array([0.2, -0.1])
        g = metric(p)
        r = curvature_from_metric(metric, p, 2.5e-3, g)
        k = sectional_from_metric(r, g, np.array([1.0, 0]), np.array([0, 1.0]))
        assert abs(k) < 1e-3

    def test_cartan_eighth(self, tube):
        jet = gauss_map(tube, P3)
        spec = gauge_normalize(jet, angle_spectrum(jet))
        ff = second_fundamental_form(jet, spec)
        k_alg = sectional_curvature(spec, ff)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert abs(k_alg[i, j] - 0.125) < 1e-3

    def test_product_mixed_planes_not_constant(self, product_13):
        # mixed planes have curvature 2 cos^2(dtheta) != 2
        jet = gauss_map(product_13, P3)
        spec = angle_spectrum(jet)
        ff = second_fundamental_form(jet, spec)
        k = sectional_curvature(spec, ff)
        th = spec.thetas
        values = sorted({round(k[i, j], 6) for i in range(3) for j in range(3) if i != j})
        assert len(values) > 1  # not constant curvature
        # the angle gap is pi/2, so mixed planes are flat
        mixed = 2.0 * np.cos(th[0] - th[-1]) ** 2
        assert abs(mixed) < 1e-8
        assert min(values) == pytest.approx(0.0, abs=1e-8)

    def test_gauss_equation_all_catalog(
        self, sphere_half, clifford_torus, product_13, tube, rotational_chart
    ):
        for chart, p in (
            (sphere_half, P3),
            (clifford_torus, np.array([0.2, -0.1])),
            (product_13, P3),
            (tube, P3),
            (rotational_chart, rotational_chart.box.center),
        ):
            rep = at_point(gauss_equation_residual(point(chart, p, normalized=True)))
            assert rep["gauss_equation"] < 1e-3


def run_batch(example, n, grid=3):
    """The SampleBatch of a verify run's sample points, with the run's sectional target."""
    cfg = cli.RunConfig(command="verify", example=example, n=n, grid=grid)
    return sample_batch(*cli._sample_jets(cli.build_example(cfg), cfg)), cfg.entry.sectional(n)


@pytest.fixture(scope="module")
def sphere_12():
    # round_sphere(12, 1/sqrt(2)) at 3 points
    return run_batch("sphere", 12)


class TestSectionalFromFrame:
    def test_peak_memory_is_not_per_plane(self, sphere_12):
        # the per-plane outer product x y y x of the 66 frame planes held
        # about 63 MB at n = 12; reading the frame tensor holds a few n^2 arrays
        b, target = sphere_12
        tracemalloc.start()
        try:
            sectional_residuals(b, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * b.curvature.nbytes

    @pytest.mark.parametrize("example, n", [("sphere", 12), ("sphere", 3), ("product", 3), ("cartan", 3), ("rotational", 4)])
    def test_matches_per_plane_outer_product(self, sphere_12, example, n):
        b, target = sphere_12 if (example, n) == ("sphere", 12) else run_batch(example, n)
        i, j = np.triu_indices(n, 1)
        f = b.spec.frame_vel
        k_met = ref_sectional_from_metric(
            b.curvature[..., None, :, :, :, :], b.jets.lift_metric[..., None, :, :], f[..., i, :], f[..., j, :]
        )
        k_alg = sectional_curvature(b.spec, b.ff)[..., i, j]
        want = {"sectional_two_route": np.abs(k_alg - k_met).max(axis=-1)}
        if target is not None:
            want["sectional_value"] = np.abs(k_met - target).max(axis=-1)
        got = sectional_residuals(b, target)
        assert list(got) == list(want)
        for name in want:
            assert np.abs(got[name] - want[name]).max() <= 1e-13 * np.abs(k_met).max(), name


class TestCodazzi:
    def test_totally_geodesic_charts(self, sphere_half, product_13):
        for chart in (sphere_half, product_13):
            rep = at_point(codazzi_residual(point(chart, P3, normalized=True)))
            assert rep["codazzi_equation"] < 1e-3

    def test_cartan_and_rotational(self, tube, rotational_chart):
        for chart, p in ((tube, P3), (rotational_chart, rotational_chart.box.center)):
            rep = at_point(codazzi_residual(point(chart, p, normalized=True)))
            assert rep["codazzi_equation"] < 1e-3

    def test_cartan_cyclic_component_relations(self, tube):
        # the squared off-diagonal cubic component against the three cyclic
        # trigonometric products
        jet = gauss_map(tube, P3)
        spec = gauge_normalize(jet, angle_spectrum(jet))
        ff = second_fundamental_form(jet, spec)
        th = spec.thetas
        h2 = ff.h[0, 1, 2] ** 2
        c1 = -np.cos(th[0] - th[1]) * np.sin(th[1] - th[2]) * np.sin(th[2] - th[0])
        c2 = -np.sin(th[0] - th[1]) * np.cos(th[1] - th[2]) * np.sin(th[2] - th[0])
        c3 = -np.sin(th[0] - th[1]) * np.sin(th[1] - th[2]) * np.cos(th[2] - th[0])
        for c in (c1, c2, c3):
            assert abs(h2 - c) < 1e-3

    def test_wavy_sphere(self, wavy_sphere):
        rep = at_point(codazzi_residual(point(wavy_sphere, np.array([0.1, -0.15]), normalized=True)))
        assert rep["codazzi_equation"] < 1e-3


class TestCscIdentities:
    def test_sphere_trivial(self, sphere_half):
        jet = gauss_map(sphere_half, P3)
        spec = angle_spectrum(jet)
        ff = second_fundamental_form(jet, spec)
        rep = check_csc_identities(spec, ff)
        assert all(residual <= 1e-3 for residual in rep.values())
        for residual in rep.values():
            assert residual < 1e-8

    def test_cartan(self, tube):
        jet = gauss_map(tube, P3)
        spec = gauge_normalize(jet, angle_spectrum(jet))
        ff = second_fundamental_form(jet, spec)
        rep = check_csc_identities(spec, ff)
        assert all(residual <= 1e-3 for residual in rep.values())
        # the triple-vanishing identity holds through the angle combination,
        # not through h: check the trigonometric factor itself vanishes
        th = spec.thetas
        assert abs(ff.h[0, 1, 2]) > 0.1
        assert abs(np.sin(th[0] + th[1] - 2 * th[2])) < 1e-8

    def test_flat_torus_vacuous(self, clifford_torus):
        jet = gauss_map(clifford_torus, np.array([0.2, -0.1]))
        spec = angle_spectrum(jet)
        ff = second_fundamental_form(jet, spec)
        rep = check_csc_identities(spec, ff)
        assert rep == {}

    def test_four_index_identity_on_sphere_n4(self):
        # n = 4 turns on the four-distinct-index identity
        chart = round_sphere(4, 0.7)
        jet = gauss_map(chart, np.array([0.1, -0.2, 0.15, 0.05]))
        spec = angle_spectrum(jet)
        ff = second_fundamental_form(jet, spec)
        rep = check_csc_identities(spec, ff)
        assert "csc_quadruple_vanishing" in rep
        assert all(residual <= 1e-3 for residual in rep.values())


def angle_rows(specs):
    """The (samples, m) angle array of a list of spectra, as a run passes it."""
    return np.array([s.thetas for s in specs])


# reference: the list form that the angle array replaced, one shift match per spectrum
def ref_cyclic_match(base, thetas):
    m = len(thetas)
    shifted = np.sort(thetas)[(np.arange(m) - np.arange(m)[:, None]) % m]
    spreads = mod_pi_distance(base, shifted).max(axis=1)
    k = int(np.argmin(spreads))
    return shifted[k], spreads[k]


def ref_isoparametric_variance(spectra):
    base = np.sort(spectra[0].thetas)
    aligned = [nearest_mod_pi(ref_cyclic_match(base, s.thetas)[0], base) for s in spectra]
    return float(np.var(aligned, axis=0).max())


def ref_classify_by_angles(spectra):
    base = np.sort(spectra[0].thetas)
    for s in spectra[1:]:
        _, spread = ref_cyclic_match(base, s.thetas)
        if spread**2 > 1e-6:
            raise VerifyError(f"not isoparametric-type input: angles vary across samples (spread {spread:.3e})")
    distinct = len(mod_pi_clusters(np.sort(np.mod(base, np.pi)), 1e-4))
    if distinct not in (1, 2, 3, 4, 6):
        raise VerifyError(f"distinct angle count {distinct} outside the admissible set {{1, 2, 3, 4, 6}}")
    return distinct


def outcome(fn, arg):
    """fn(arg), or the message of the VerifyError it raises."""
    try:
        return fn(arg)
    except VerifyError as exc:
        return str(exc)


class TestClassification:
    def samples(self, chart, count=5):
        rng = np.random.default_rng(17)
        return [
            angle_spectrum(gauss_map(chart, box_sample(chart.box, rng, margin=0.03)))
            for _ in range(count)
        ]

    def gauged_samples(self, tube):
        rng = np.random.default_rng(23)
        return [
            angle_spectrum(gauss_map(tube, box_sample(tube.box, rng, 0.03)), 0.9)
            for _ in range(4)
        ]

    def test_sphere_g1(self, sphere_half):
        assert classify_by_angles(angle_rows(self.samples(sphere_half))) == 1

    def test_product_g2(self, product_13):
        assert classify_by_angles(angle_rows(self.samples(product_13))) == 2

    def test_cartan_g3(self, tube):
        assert classify_by_angles(angle_rows(self.samples(tube))) == 3

    def test_nonconstant_angles_rejected(self, rotational_chart):
        with pytest.raises(VerifyError):
            classify_by_angles(angle_rows(self.samples(rotational_chart)))

    def test_gauge_invariance(self, tube):
        assert classify_by_angles(angle_rows(self.gauged_samples(tube))) == 3

    @pytest.mark.parametrize("fixture", ["sphere_half", "product_13", "tube", "rotational_chart", "gauged_tube"])
    def test_array_form_matches_list_form(self, request, fixture):
        # the same count, variance and error message as one match per spectrum
        if fixture == "gauged_tube":
            specs = self.gauged_samples(request.getfixturevalue("tube"))
        else:
            specs = self.samples(request.getfixturevalue(fixture))
        rows = angle_rows(specs)
        assert outcome(classify_by_angles, rows) == outcome(ref_classify_by_angles, specs)
        assert isoparametric_variance(rows) == ref_isoparametric_variance(specs)

    def test_empty_input_rejected(self):
        with pytest.raises(VerifyError):
            classify_by_angles(np.zeros((0, 3)))


class TestIsoparametricVariance:
    SAMPLES = [
        # one angle of multiplicity 3 on either side of 0 = pi
        [[1e-9] * 3, [np.pi - 1e-9] * 3],
        # angles pi/3 apart, the smallest crossing 0 = pi
        [[1e-9, np.pi / 3 + 1e-9, 2 * np.pi / 3 + 1e-9],
         [np.pi / 3 - 1e-9, 2 * np.pi / 3 - 1e-9, np.pi - 1e-9]],
    ]
    UNWRAPPED = [[0.3, 1.2, 2.0], [0.31, 1.19, 2.02], [0.29, 1.2, 1.99]]

    def wrapped(self, sphere_half, samples):
        spec = angle_spectrum(gauss_map(sphere_half, P3))
        return [dataclasses.replace(spec, thetas=np.array(t)) for t in samples]

    @pytest.mark.parametrize("samples", SAMPLES)
    def test_wrapped_spectra_agree(self, samples):
        rows = np.array(samples)
        # the raw sorted angles read a variance near (pi/2)^2 or (pi/6)^2
        assert np.var(np.sort(samples, axis=1), axis=0).max() > 0.2
        assert isoparametric_variance(rows) < 1e-17
        classify_by_angles(rows)

    def test_unwrapped_spectra_keep_plain_variance(self):
        assert isoparametric_variance(np.array(self.UNWRAPPED)) == float(
            np.var(np.array(self.UNWRAPPED), axis=0).max()
        )

    def test_single_sample(self):
        assert isoparametric_variance(np.array([[0.1, 0.2, 0.3]])) == 0.0

    @pytest.mark.parametrize("samples", SAMPLES + [UNWRAPPED, [[0.1, 0.2, 0.3]]])
    def test_array_form_matches_list_form(self, sphere_half, samples):
        specs = self.wrapped(sphere_half, samples)
        rows = angle_rows(specs)
        assert isoparametric_variance(rows) == ref_isoparametric_variance(specs)
        assert outcome(classify_by_angles, rows) == outcome(ref_classify_by_angles, specs)


def test_cyclic_match_equals_shift_loop():
    # the loop over shifts that the one index array replaced, matching every
    # row of a batch at once
    def loop(base, thetas):
        other = np.sort(thetas)
        shifted = [np.roll(other, k) for k in range(len(other))]
        spreads = [max(mod_pi_distance(a, b) for a, b in zip(base, o)) for o in shifted]
        k = int(np.argmin(spreads))
        return shifted[k], spreads[k]

    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 4, 6):
        bases, rows = [], []
        for _ in range(50):
            base = np.sort(rng.uniform(0.0, np.pi, m))
            bases.append(base)
            rows.append(np.mod(base + rng.normal(0.0, rng.choice([1e-9, 1e-3, 1.0]), m), np.pi))
        for base, thetas in zip(bases, rows):
            got, want = _cyclic_match(base, thetas[None]), loop(base, thetas)
            assert got[0][0].tobytes() == want[0].tobytes()
            assert got[1][0] == want[1]
        # all 50 rows against one base in one call
        got = _cyclic_match(bases[0], np.array(rows))
        for r, thetas in enumerate(rows):
            want = loop(bases[0], thetas)
            assert got[0][r].tobytes() == want[0].tobytes()
            assert got[1][r] == want[1]


class TestReconstruction:
    def test_round_trip_identity(self, sphere_half):
        jet = gauss_map(sphere_half, P3)
        spec = angle_spectrum(jet)
        rec = reconstruct_hypersurface(sphere_half.lift, sphere_half.box, spec, 0.0)
        lam = ChartStencil(rec, P3, 1e-4).shape_eigen[0]
        np.testing.assert_allclose(lam, 1.0, atol=1e-8)
        # same chart up to the identity motion
        np.testing.assert_allclose(rec.embed(P3), sphere_half.embed(P3), atol=1e-12)

    @pytest.mark.parametrize("t", [0.1, 0.3])
    def test_offset_curvatures(self, sphere_half, t):
        jet = gauss_map(sphere_half, P3)
        spec = angle_spectrum(jet)
        rec = reconstruct_hypersurface(sphere_half.lift, sphere_half.box, spec, t)
        lam = ChartStencil(rec, P3, 1e-4).shape_eigen[0]
        np.testing.assert_allclose(lam, 1.0 / np.tan(np.pi / 4.0 + t), atol=1e-4)

    def test_gauss_map_reproduced(self, sphere_half):
        jet = gauss_map(sphere_half, P3)
        spec = angle_spectrum(jet)
        rec = reconstruct_hypersurface(sphere_half.lift, sphere_half.box, spec, 0.3)
        rng = np.random.default_rng(3)
        for _ in range(4):
            p = box_sample(sphere_half.box, rng, 0.03)
            d = quadric_distance(gauss_map(rec, p).lift, gauss_map(sphere_half, p).lift)
            assert d < 1e-6

    def test_degenerate_offset_rejected(self, sphere_half):
        jet = gauss_map(sphere_half, P3)
        spec = angle_spectrum(jet)
        with pytest.raises(VerifyError):
            reconstruct_hypersurface(sphere_half.lift, sphere_half.box, spec, -np.pi / 4.0)

    def test_reconstruction_from_normalized_gauge(self, tube):
        # c = phi/2 + t must feed the curvature prediction
        jet = gauss_map(tube, P3)
        spec = gauge_normalize(jet, angle_spectrum(jet))
        t = 0.15
        rec = reconstruct_hypersurface(tube.lift, tube.box, spec, t)
        lam = np.sort(ChartStencil(rec, P3, 1e-4).shape_eigen[0])
        c = spec.phi / 2.0 + t
        expected = np.sort(1.0 / np.tan(spec.thetas + c))
        np.testing.assert_allclose(lam, expected, atol=1e-4)
