import numpy as np
import pytest

from quadriclab.gaussmap import angle_spectrum, gauss_map
from quadriclab.rotational import (
    AlphaTrajectory,
    OdeError,
    ProfileState,
    QuinticHermite,
    build_rotational_chart,
    first_integral_residual,
    integrate_alpha,
    ode_equivalence_residual,
    ode_order_ratio,
    profile_curve,
    profile_velocity,
    rotational_angles,
    warp_constant,
    warped_curvature_check,
    _orbit_and_profile_angles,
)
from quadriclab import rotational
from quadriclab.cli import DEFAULT_TOLERANCES
from quadriclab.hypersurfaces import ChartStencil, principal_curvatures
from quadriclab.verify import gauss_metric_fn


def all_within_default_tolerances(residuals):
    return all(r <= DEFAULT_TOLERANCES[name] for name, r in residuals.items())


def mod_pi_gap(a, b):
    d = abs(a - b) % np.pi
    return min(d, np.pi - d)


class TestIntegrator:
    def test_equilibrium_initial_data(self):
        # cot(n alpha0) = 0 at alpha0 = pi/(2n): the constant solution
        n = 3
        traj = integrate_alpha(n, np.pi / (2 * n), 0.0, 0.5, 1000)
        assert not traj.stopped_early
        assert np.abs(traj.alphas - np.pi / (2 * n)).max() < 1e-8

    def test_even_symmetry_about_start(self):
        # alpha' (0) = 0 makes the solution even in theta
        fwd = integrate_alpha(3, np.pi / 12, 0.0, 0.4, 800)
        bwd = integrate_alpha(3, np.pi / 12, 0.0, (0.0, -0.4), 800)
        np.testing.assert_allclose(fwd.alphas, bwd.alphas, atol=1e-8)

    def test_step_halving_convergence(self):
        a = integrate_alpha(3, np.pi / 12, 0.0, 0.5, 2000).states[-1]
        b = integrate_alpha(3, np.pi / 12, 0.0, 0.5, 4000).states[-1]
        assert abs(a.alpha - b.alpha) < 1e-8
        assert abs(a.dalpha - b.dalpha) < 1e-8

    def test_slope_bound_holds(self, rotational_trajectory):
        assert np.abs(rotational_trajectory.dalphas).max() < 1.0

    def test_order_four(self):
        ratio = ode_order_ratio(3, np.pi / 12, 0.0, 0.8, 250)
        assert 12.0 <= ratio <= 20.0

    @pytest.mark.parametrize("n", [3, 6])
    def test_no_order_at_equilibrium(self, n):
        # alpha0 = pi/(2n) is the constant solution: the probe runs differ by
        # about 1e-31, and their ratio would be round-off
        assert ode_order_ratio(n, np.pi / (2 * n), 0.0, 0.8, 250) is None

    def test_no_order_when_runs_agree_exactly(self, monkeypatch):
        # probe runs that agree exactly measure no order either
        constant = AlphaTrajectory(3, [ProfileState(0.8, 0.3, 0.0)])
        monkeypatch.setattr(rotational, "integrate_alpha", lambda *args: constant)
        assert ode_order_ratio(3, 0.3, 0.0, 0.8, 250) is None

    def test_invalid_initial_data(self):
        with pytest.raises(OdeError):
            integrate_alpha(3, 0.0, 0.0, 0.5, 100)  # sin(n alpha) = 0
        with pytest.raises(OdeError):
            integrate_alpha(3, np.pi / 12, 1.0, 0.5, 100)  # slope bound

    def test_guard_band_stops_early(self):
        # initial data whose conserved quantity puts the turning point inside
        # the guard band: the flow reaches sin(n alpha) -> 0 and must stop
        # with a flag, not crash
        traj = integrate_alpha(3, 0.1, -0.99, 0.5, 2000)
        assert traj.stopped_early
        assert "sin" in traj.stop_reason
        assert 1 <= len(traj.states) < 2001


class TestFirstIntegral:
    def test_conserved(self, rotational_trajectory):
        assert first_integral_residual(rotational_trajectory) < 1e-6

    def test_fourth_order_scaling(self):
        res = [
            first_integral_residual(integrate_alpha(3, np.pi / 12, 0.0, 0.8, m))
            for m in (100, 200, 400)
        ]
        r1 = res[0] / res[1]
        r2 = res[1] / res[2]
        assert 8.0 < r1 < 32.0
        assert 8.0 < r2 < 32.0

    def test_explicit_constant(self, rotational_trajectory):
        # residual vanishes when the constant is fed back explicitly
        c1 = warp_constant(rotational_trajectory)
        assert first_integral_residual(rotational_trajectory, 3, c1) < 1e-6


class TestProfileCurve:
    def test_degenerate_alpha_zero_is_great_circle(self):
        # alpha = 0 cannot be integrated (singular), but the curve formula
        # itself degenerates to a great circle
        states = [ProfileState(t, 0.0, 0.0) for t in np.linspace(0, 1, 11)]
        curve = profile_curve(AlphaTrajectory(3, states))
        for theta, g in zip(curve.thetas, curve.gammas):
            np.testing.assert_allclose(g, [0.0, np.sin(theta), -np.cos(theta)], atol=1e-15)

    def test_unit_norm(self, rotational_trajectory):
        curve = profile_curve(rotational_trajectory)
        norms = np.linalg.norm(curve.gammas, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-8

    def test_velocity_matches_samples(self, rotational_trajectory):
        curve = profile_curve(rotational_trajectory)
        k = len(curve.thetas) // 2
        dt = curve.thetas[k + 1] - curve.thetas[k - 1]
        fd = (curve.gammas[k + 1] - curve.gammas[k - 1]) / dt
        analytic = profile_velocity(
            curve.thetas[k], curve.alphas[k], curve.dalphas[k], 3
        )
        assert np.abs(fd - analytic).max() < 1e-5


class TestOdeEquivalence:
    def test_arclength_form_residual(self, rotational_trajectory):
        assert ode_equivalence_residual(rotational_trajectory) < 1e-5

    def test_chart_side_second_order_form(self, rotational_chart):
        res = warped_curvature_check(rotational_chart, 3, rotational_chart.meta["c1"])
        assert res["profile_second_order_ode"] < 1e-3


class TestQuinticHermite:
    def test_reproduces_smooth_function(self):
        xs = np.linspace(0.0, 1.0, 21)
        f, df, ddf = np.sin(3 * xs), 3 * np.cos(3 * xs), -9 * np.sin(3 * xs)
        interp = QuinticHermite(xs, f, df, ddf)
        for t in (0.013, 0.42, 0.77, 0.999):
            assert abs(interp.value(t) - np.sin(3 * t)) < 1e-9
            assert abs(interp.derivative(t) - 3 * np.cos(3 * t)) < 1e-7


class TestRotationalChart:
    def test_invariants(self, rotational_chart):
        rng = np.random.default_rng(5)
        for _ in range(3):
            res = rotational_chart.validate_at(rotational_chart.box.sample(rng, 0.03))
            assert max(res["embed_norm"], res["normal_norm"], res["orthogonality"]) < 1e-10
            assert res["min_singular_value"] > 1e-6

    def test_principal_multiplicity_pattern(self, rotational_chart):
        rng = np.random.default_rng(6)
        interp = rotational_chart.meta["interp"]
        for _ in range(10):
            x = rotational_chart.box.sample(rng, 0.03)
            lam = principal_curvatures(rotational_chart, x).lambdas
            alpha = interp.value(float(x[0]))
            expected = np.sort([1.0 / np.tan(2 * alpha)] + [-1.0 / np.tan(alpha)] * 2)[::-1]
            np.testing.assert_allclose(lam, expected, atol=1e-4)

    def test_gauss_angle_pattern(self, rotational_chart):
        rng = np.random.default_rng(7)
        interp = rotational_chart.meta["interp"]
        for _ in range(3):
            x = rotational_chart.box.sample(rng, 0.03)
            spec = angle_spectrum(gauss_map(rotational_chart, x))
            alpha = interp.value(float(x[0]))
            prof, orb = rotational_angles(alpha, 3)
            gaps = sorted(min(mod_pi_gap(t, v) for t in spec.thetas) for v in (prof, orb))
            assert max(gaps) < 1e-4

    def test_warp_factor_from_metric(self, rotational_chart):
        # the orbit block of the induced metric is rho^2 times the round
        # metric with rho = c1 sin(n alpha)^(-1/n)
        x = rotational_chart.box.center
        g = gauss_metric_fn(rotational_chart)(x)
        assert abs(g[0, 1]) < 1e-10 and abs(g[0, 2]) < 1e-10
        alpha = rotational_chart.meta["interp"].value(float(x[0]))
        c1 = rotational_chart.meta["c1"]
        rho2 = (c1 * np.sin(3 * alpha) ** (-1.0 / 3.0)) ** 2
        # orbit coordinates at the box center: round metric = diag(cos^2, 1)
        np.testing.assert_allclose(
            np.diag(g)[1:], rho2 * np.array([np.cos(x[2]) ** 2, 1.0]), atol=1e-3
        )

    def test_warped_curvature_report(self, rotational_chart):
        res = warped_curvature_check(rotational_chart, 3, rotational_chart.meta["c1"])
        assert list(res) == [
            "warp_block_diagonal",
            "warp_block_conformal",
            "warp_factor_law",
            "fiber_curvature_normalized",
            "fiber_curvature_chain",
            "fiber_curvature_variance",
            "profile_second_order_ode",
            "principal_vs_angle_pattern",
        ]
        assert all_within_default_tolerances(res)
        assert res["fiber_curvature_normalized"] < 1e-3
        assert res["warp_factor_law"] < 1e-3
        assert res["fiber_curvature_variance"] < 1e-4

    def test_orbit_radius_guard(self):
        # a synthetic curve running into the rotation axis must be rejected
        thetas = np.linspace(0.0, 0.3, 16)
        states = [ProfileState(t, 1e-5 + 0.0 * t, 0.0) for t in thetas]
        curve = profile_curve(AlphaTrajectory(3, states))
        with pytest.raises(OdeError):
            build_rotational_chart(curve, 3)

    def test_dimension_guard(self, rotational_trajectory):
        curve = profile_curve(rotational_trajectory)
        with pytest.raises(OdeError):
            build_rotational_chart(curve, 2)


@pytest.fixture(scope="module")
def curve_n4():
    traj = integrate_alpha(4, np.pi / 16, 0.0, 0.5, 2500)
    assert not traj.stopped_early
    return profile_curve(traj)


class TestChartMemo:
    # a chart keeps no state between calls, and interpolates the profile once
    # per call for the whole batch

    def test_interleaved_points_match_fresh_charts(self, curve_n4):
        chart = build_rotational_chart(curve_n4, 4)
        rng = np.random.default_rng(9)
        base = [chart.box.sample(rng, 0.02) for _ in range(3)]
        points = base + [
            np.concatenate([base[0][:1], base[1][1:]]),  # shares the profile parameter
            np.concatenate([base[2][:1], base[0][1:]]),  # shares the orbit angles
        ]
        calls = [(kind, i) for i in range(len(points)) for kind in ("embed", "normal")] * 2
        for c in rng.permutation(len(calls)):
            kind, i = calls[c]
            got = getattr(chart, kind)(points[i])
            want = getattr(build_rotational_chart(curve_n4, 4), kind)(points[i])
            assert np.array_equal(got, want)

    def test_interpolations_per_stencil(self, curve_n4, monkeypatch):
        # one interval lookup, for value and derivative together, for embed
        # and one for normal on the 16 stencil points, then the same at the
        # center
        chart = build_rotational_chart(curve_n4, 4)
        calls = []
        locate = QuinticHermite._locate
        monkeypatch.setattr(
            QuinticHermite, "_locate", lambda self, t: calls.append(np.shape(t)) or locate(self, t)
        )
        st = ChartStencil(chart, chart.box.center + 0.01, 1e-4)
        st.center
        assert calls == [(4, 4)] * 2 + [()] * 2


def test_orbit_group_straddling_pi():
    # a (1, 3) spectrum whose orbit angle sits at 0 = pi: one group of three
    profile, orbit = _orbit_and_profile_angles(
        np.array([np.pi - 1e-10, np.pi - 3e-10, 2e-10, 1.0]), 4
    )
    assert profile == 1.0
    assert mod_pi_gap(orbit, np.pi - 2e-10 / 3) < 1e-15
    assert 0.0 <= orbit < np.pi


def test_orbit_group_mean_unchanged_off_the_wrap():
    thetas = np.array([0.4, 2.0 + 3e-9, 2.0 - 1e-9, 2.0 + 5e-9])
    profile, orbit = _orbit_and_profile_angles(thetas, 4)
    assert profile == 0.4
    assert orbit == float(np.mean(np.sort(thetas)[1:]))


def test_rotational_chart_n4(curve_n4):
    # the machinery is dimension generic; exercise n = 4 end to end
    chart = build_rotational_chart(curve_n4, 4)
    x = chart.box.center
    lam = principal_curvatures(chart, x).lambdas
    alpha = chart.meta["interp"].value(float(x[0]))
    expected = np.sort([1.0 / np.tan(3 * alpha)] + [-1.0 / np.tan(alpha)] * 3)[::-1]
    np.testing.assert_allclose(lam, expected, atol=1e-4)
    assert all_within_default_tolerances(warped_curvature_check(chart, 4, chart.meta["c1"]))
