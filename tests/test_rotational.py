import itertools
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadriclab.gaussmap import angle_spectrum, gauss_map
from quadriclab.rotational import (
    AlphaTrajectory,
    OdeError,
    ProfileSeries,
    build_rotational_chart,
    first_integral_residual,
    integrate_alpha,
    ode_equivalence_residual,
    ode_order_ratio,
    profile_curve,
    profile_series,
    rotational_angles,
    warp_constant,
    warped_curvature_check,
    _orbit_and_profile_angles,
)
from quadriclab import rotational
from quadriclab.cli import DEFAULT_TOLERANCES, ORDER_WINDOW, main
from quadriclab.hypersurfaces import ChartStencil
from quadriclab.numerics import hessian_stencil
from quadriclab.verify import gauss_metric_fn
from references import box_sample, profile_velocity, ref_profile, ref_rhs, ref_stop_number


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
        bwd = integrate_alpha(3, np.pi / 12, 0.0, -0.4, 800)
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

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_default_probe_measures_order(self, n):
        # the fine difference reads 1.35e-13 to 2.7e-13 at the ode defaults,
        # far above round-off, so the gate is not skipped there
        ratio = ode_order_ratio(n, np.pi / 12, 0.0, 0.8, 250)
        assert ratio is not None and 15.0 <= ratio <= 17.0

    @pytest.mark.parametrize(
        "n, scan_indices",
        [
            (3, [17, 34, 43, 45, 56, 70, 84, 86, 96, 314, 316, 330, 344, 355, 357, 366, 383]),
            (4, [117, 150, 250, 283]),
        ],
    )
    def test_no_round_off_ratio_near_equilibrium(self, n, scan_indices):
        # alpha0 = f pi/n over 401 values of f in [0.49, 0.51]: at these the
        # ratio read 11.3 to 23.4, because the skip looked at the coarse
        # difference (4e-14 to 1e-13) while the fine one sat at a few ulps
        for f in np.linspace(0.49, 0.51, 401)[scan_indices]:
            ratio = ode_order_ratio(n, f * np.pi / n, 0.0, 0.8, 250)
            assert ratio is None or ORDER_WINDOW[0] <= ratio <= ORDER_WINDOW[1], (f, ratio)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 4, 5, 6]), st.floats(min_value=0.02, max_value=0.98))
    def test_order_gate_over_the_documented_range(self, n, f):
        # alpha0 = f pi/n: the largest state difference over the shared
        # samples gives a ratio in the window, or the round-off guard skips it
        ratio = ode_order_ratio(n, f * np.pi / n, 0.0, 0.8, 250)
        assert ratio is None or ORDER_WINDOW[0] <= ratio <= ORDER_WINDOW[1], (n, f, ratio)

    def test_no_order_when_runs_agree_exactly(self, monkeypatch):
        # probe runs that agree exactly measure no order either
        constant = AlphaTrajectory(3, [0.8], [0.3], [0.0])
        monkeypatch.setattr(rotational, "integrate_alpha", lambda *args: constant)
        assert ode_order_ratio(3, 0.3, 0.0, 0.8, 250) is None

    def test_invalid_initial_data(self):
        with pytest.raises(OdeError):
            integrate_alpha(3, 0.0, 0.0, 0.5, 100)  # sin(n alpha) = 0
        with pytest.raises(OdeError):
            integrate_alpha(3, np.pi / 12, 1.0, 0.5, 100)  # slope bound
        with pytest.raises(OdeError, match="span / steps underflows to a zero step: span = 5e-324, steps = 4000"):
            integrate_alpha(3, np.pi / 12, 0.0, 5e-324, 4000)

    @pytest.mark.parametrize("alpha0", [1e308, np.float64(1e308), -1e308], ids=["float", "numpy-float", "negative"])
    def test_overflowing_n_alpha0_is_non_finite_initial_data(self, alpha0):
        # n alpha0 overflowed to inf, and numpy warned in the sin guard (NaN
        # fails its comparison) before the RK4 loop met the non-finite state
        with pytest.raises(OdeError, match="non-finite initial data: .* n alpha0 = -?inf"):
            integrate_alpha(3, alpha0, 0.0, 0.8, 100)

    def test_guard_band_stops_early(self):
        # initial data whose conserved quantity puts the turning point inside
        # the guard band: the flow reaches sin(n alpha) -> 0 and must stop
        # with a flag, not crash
        traj = integrate_alpha(3, 0.1, -0.99, 0.5, 2000)
        assert traj.stopped_early
        assert "sin" in traj.stop_reason
        assert 1 <= len(traj.states) < 2001

    @pytest.mark.parametrize(
        "flow, theta",
        [
            # math's tan of an infinite stage argument raises; a theta from 1e6
            # on is in exponent form, not 300 digits
            ((3, np.pi / 12, 0.0, 1e300, 100), "1.0000e+298"),
            ((3, 0.1, -0.5, 0.4, 1), "0.4000"),  # the second stage's n alpha is exactly 0.0, its tan 0.0
        ],
        ids=["nan-tan", "zero-tan"],
    )
    def test_non_finite_state_stops(self, flow, theta):
        # NaN fails every comparison, so the guards are negated comparisons
        # that stop on it; the stage tan gives no RuntimeWarning
        traj = integrate_alpha(*flow)
        assert traj.stop_reason == f"the state left the finite numbers near theta = {theta}"
        assert len(traj.thetas) == 1
        assert np.isfinite([traj.thetas, traj.alphas, traj.dalphas]).all()

    def test_nan_slope_alone_stops(self, monkeypatch):
        # a NaN from the fourth stage's tan reaches alpha' but not alpha, so
        # only the |alpha'| guard can stop on it
        calls = itertools.count(1)
        tan = lambda x: math.nan if next(calls) == 4 else math.tan(x)
        monkeypatch.setattr(rotational, "math", SimpleNamespace(tan=tan))
        traj = integrate_alpha(3, np.pi / 12, 0.0, 0.8, 10)
        assert traj.stop_reason == "the state left the finite numbers near theta = 0.0800"
        assert len(traj.thetas) == 1


def ref_integrate_alpha(n, alpha0, dalpha0, span, steps, tan=math.tan):
    """The RK4 loop with the stage function called per stage, as integrate_alpha ran it before inlining.

    tan is the stage tangent: the C library's, as in integrate_alpha, or numpy's, as the loop had it before.
    """
    h = span / steps
    a, p = float(alpha0), float(dalpha0)
    thetas, alphas, dalphas = [0.0], [a], [p]
    stop_reason = None
    for k in range(steps):
        k1a, k1p = p, ref_rhs(n, a, p, tan)
        k2a, k2p = p + 0.5 * h * k1p, ref_rhs(n, a + 0.5 * h * k1a, p + 0.5 * h * k1p, tan)
        k3a, k3p = p + 0.5 * h * k2p, ref_rhs(n, a + 0.5 * h * k2a, p + 0.5 * h * k2p, tan)
        k4a, k4p = p + h * k3p, ref_rhs(n, a + h * k3a, p + h * k3p, tan)
        a = a + h * (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0
        p = p + h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
        theta = (k + 1) * h
        if abs(p) >= 1.0 - rotational.GUARD_BAND:
            stop_reason = f"|alpha'| reached {ref_stop_number(abs(p))} at theta = {ref_stop_number(theta)}"
            break
        if abs(float(np.sin(n * a))) <= rotational.GUARD_BAND:
            stop_reason = f"sin(n alpha) vanished near theta = {ref_stop_number(theta)}"
            break
        thetas.append(theta)
        alphas.append(a)
        dalphas.append(p)
    return AlphaTrajectory(n, thetas, alphas, dalphas, stop_reason)


@pytest.mark.parametrize(
    "n, alpha0, dalpha0, span, steps",
    [
        (3, np.pi / 12, 0.0, 0.8, 4000),
        (4, np.pi / 12, 0.0, 0.8, 16000),
        (5, np.pi / 12, 0.0, 0.8, 3000),
        (4, 0.1, 0.9, 3.0, 4000),
        (3, 0.3, 0.5, 2.0, 3000),
        (3, 0.1, -0.99, 0.5, 2000),  # stops early: sin(n alpha) enters the guard band
        (3, 0.1, 0.97, 1.0, 5),  # stops early: the coarse steps push |alpha'| past 1
    ],
)
def test_inlined_rk4_matches_stage_function_loop(n, alpha0, dalpha0, span, steps):
    assert_matches_stage_function_loop(n, alpha0, dalpha0, span, steps)


def assert_matches_stage_function_loop(n, alpha0, dalpha0, span, steps):
    got, want = integrate_alpha(n, alpha0, dalpha0, span, steps), ref_integrate_alpha(n, alpha0, dalpha0, span, steps)
    for name in ("thetas", "alphas", "dalphas"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.stop_reason == want.stop_reason


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 6),
    st.floats(0.005, 0.995),
    st.floats(-0.995, 0.995, exclude_min=True, exclude_max=True),
    st.floats(0.8, 20.0),
    st.integers(50, 4000),
)
def test_inlined_rk4_matches_stage_function_loop_over_drawn_flows(n, frac, dalpha0, span, steps):
    # the loop screens the sin guard with the state's tan, the reference with
    # numpy's sin alone; long spans at few steps stop on |alpha'|, and some
    # flows run into sin(n alpha) = 0
    assert_matches_stage_function_loop(n, frac * np.pi / n, dalpha0, span, steps)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 10**6, 10**12])
@settings(max_examples=200, deadline=None)
@given(offset=st.floats(-1.01e-3, 1.01e-3))
def test_tan_screen_holds_every_guard_stop(k, offset):
    # |sin x| <= g bounds |tan x| by g / sqrt(1 - g^2) < g (1 + 1e-6): the
    # screen the loop puts before numpy's sin lets through every x that sin
    # stops on, here about multiples of pi near and far from 0
    x = k * math.pi + offset
    if abs(float(np.sin(x))) <= rotational.GUARD_BAND:
        assert abs(math.tan(x)) <= rotational.GUARD_BAND * (1.0 + 1e-6)


@pytest.mark.parametrize(
    "n, steps",
    [(n, steps) for n in (3, 4, 5) for steps in (4000, 250, 500, 1000)] + [(3, 16000)],
)
def test_default_flows_match_numpy_tan_loop(n, steps):
    # where numpy vectorizes tan it differs from the C library's in the last
    # bit on some arguments; on the default flows (alpha0 = pi/12, span 0.8)
    # that verify and ode integrate, and their order-probe runs, each such
    # ulp is absorbed in the step's sum, sample for sample
    got = integrate_alpha(n, np.pi / 12, 0.0, 0.8, steps)
    want = ref_integrate_alpha(n, np.pi / 12, 0.0, 0.8, steps, np.tan)
    for name in ("thetas", "alphas", "dalphas"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.stop_reason is want.stop_reason is None


def test_loop_calls_no_numpy_tan(monkeypatch):
    # a numpy scalar tan costs several times the C library's; the loop takes none
    calls, tan = [], np.tan
    monkeypatch.setattr(np, "tan", lambda x: calls.append(x) or tan(x))
    traj = integrate_alpha(4, np.pi / 12, 0.0, 0.8, 4000)
    assert len(traj.thetas) == 4001
    assert calls == []
    assert all(value is not tan for value in vars(rotational).values())


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
        assert first_integral_residual(rotational_trajectory, c1) < 1e-6


class TestWarpLawNegativeControl:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_wrong_c1_fails_by_stated_factors(self, n):
        # the default flow with c1 scaled by 1.01: the checks that read c1
        # fail (margins 6.7-7.0, 20.1 and 2.0e4), and the chart-side checks
        # read what they read with the true c1
        traj = integrate_alpha(n, np.pi / 12.0, 0.0, 0.8, 4000)
        chart = build_rotational_chart(traj)
        c1 = chart.meta["c1"]
        true, wrong = (warped_curvature_check(chart, n, c) for c in (c1, 1.01 * c1))
        assert all_within_default_tolerances(true)
        assert wrong["warp_factor_law"] >= 5.0 * DEFAULT_TOLERANCES["warp_factor_law"]
        assert wrong["fiber_curvature_chain"] >= 10.0 * DEFAULT_TOLERANCES["fiber_curvature_chain"]
        assert first_integral_residual(traj, c1) <= DEFAULT_TOLERANCES["first_integral"]
        assert first_integral_residual(traj, 1.01 * c1) >= 1e3 * DEFAULT_TOLERANCES["first_integral"]
        unread = sorted(set(true) - {"warp_factor_law", "fiber_curvature_chain"})
        assert len(unread) == 6
        assert [wrong[name] for name in unread] == [true[name] for name in unread]


class TestProfileCurve:
    def test_degenerate_alpha_zero_is_great_circle(self):
        # alpha = 0 cannot be integrated (singular), but the curve formula
        # itself degenerates to a great circle
        thetas = np.linspace(0, 1, 11)
        gammas = profile_curve(AlphaTrajectory(3, thetas, 0.0 * thetas, 0.0 * thetas))
        for theta, g in zip(thetas, gammas):
            np.testing.assert_allclose(g, [0.0, np.sin(theta), -np.cos(theta)], atol=1e-15)

    def test_unit_norm(self, rotational_trajectory):
        norms = np.linalg.norm(profile_curve(rotational_trajectory), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-8

    def test_off_the_sphere_raises(self):
        # |alpha'| > 1 clips the warp factor to 0, which integrate_alpha's
        # slope guard never lets through: a defect of 5.32e-02
        with pytest.raises(OdeError, match=r"profile curve left the unit sphere \(defect 5.32e-02\)"):
            profile_curve(AlphaTrajectory(3, [0.1], [0.3], [1.5]))
        assert profile_curve(AlphaTrajectory(3, [0.1], [0.3], [0.5])).shape == (1, 3)

    def test_velocity_matches_samples(self, rotational_trajectory):
        traj = rotational_trajectory
        gammas = profile_curve(traj)
        k = len(traj.thetas) // 2
        dt = traj.thetas[k + 1] - traj.thetas[k - 1]
        fd = (gammas[k + 1] - gammas[k - 1]) / dt
        analytic = profile_velocity(
            traj.thetas[k], traj.alphas[k], traj.dalphas[k], 3
        )
        assert np.abs(fd - analytic).max() < 1e-5


def _with_nan(field: str) -> AlphaTrajectory:
    """The 401-sample default n = 3 trajectory with one NaN sample of alpha or alpha'."""
    traj = integrate_alpha(3, np.pi / 12.0, 0.0, 0.8, 400)
    columns = {"alphas": traj.alphas.copy(), "dalphas": traj.dalphas.copy()}
    columns[field][200] = np.nan
    return AlphaTrajectory(3, traj.thetas, columns["alphas"], columns["dalphas"])


class TestNanSamples:
    """Every gate on a trajectory is a negated comparison: a NaN sample fails it.

    integrate_alpha never appends a non-finite sample, so no command reaches
    these; before, each call returned one NaN row or a chart.
    """

    @pytest.mark.parametrize("field", ["alphas", "dalphas"])
    def test_profile_curve_raises(self, field):
        with pytest.raises(OdeError, match=r"profile curve left the unit sphere \(defect nan\)"):
            profile_curve(_with_nan(field))

    @pytest.mark.parametrize(
        "field, message",
        [("alphas", r"sin\(n alpha\) leaves the positive regime"), ("dalphas", r"orbit radius vanishes .* \(min nan\)")],
    )
    def test_chart_raises(self, field, message):
        with pytest.raises(OdeError, match=message):
            build_rotational_chart(_with_nan(field))


class TestOdeEquivalence:
    def test_arclength_form_residual(self, rotational_trajectory):
        assert ode_equivalence_residual(rotational_trajectory) < 1e-5

    @pytest.mark.parametrize("samples", [1, 2, 3, 4])
    def test_no_interior_point(self, rotational_trajectory, samples):
        # below five samples no point has a five-point stencil
        t = rotational_trajectory
        short = AlphaTrajectory(3, t.thetas[:samples], t.alphas[:samples], t.dalphas[:samples])
        assert ode_equivalence_residual(short) == 0.0

    def test_stop_at_first_step(self):
        traj = integrate_alpha(3, 0.0004, -0.5, 0.8, 4000)
        assert traj.stopped_early and len(traj.thetas) == 1
        assert ode_equivalence_residual(traj) == 0.0
        with pytest.raises(OdeError, match="at least two samples"):
            build_rotational_chart(traj)

    def test_chart_side_second_order_form(self, rotational_chart):
        res = warped_curvature_check(rotational_chart, 3, rotational_chart.meta["c1"])
        assert res["profile_second_order_ode"] < 1e-3


class TestProfileSeries:
    def test_reproduces_smooth_function(self):
        xs = np.linspace(0.0, 1.0, 201)
        series = profile_series(AlphaTrajectory(3, xs, np.sin(3 * xs), 3 * np.cos(3 * xs)))
        assert len(series.coeffs) < 33
        for t in (0.0, 0.013, 0.42, 0.77, 0.999, 1.0):
            alpha, dalpha = series(t)
            assert abs(alpha - np.sin(3 * t)) < 1e-13
            assert abs(dalpha - 3 * np.cos(3 * t)) < 1e-11

    def test_derivative_series_matches_numpy(self):
        # the derivative recurrence against numpy.polynomial, which the
        # package itself does not import
        from numpy.polynomial import chebyshev

        c = np.random.default_rng(3).normal(size=12)
        series = ProfileSeries(0.25, 1.5, c)
        assert np.array_equal(series.coeffs[:, 0], c) and series.coeffs[-1, 1] == 0.0
        want = chebyshev.chebder(c) * (2.0 / 1.25)
        np.testing.assert_allclose(series.coeffs[:-1, 1], want, rtol=1e-14, atol=1e-14)
        t = np.linspace(-0.3, 1.9, 7)
        u = (2.0 * t - 1.75) / 1.25
        np.testing.assert_allclose(series(t)[0], chebyshev.chebval(u, c), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_every_sample_of_the_default_flows(self, n):
        traj = integrate_alpha(n, np.pi / 12, 0.0, 0.8, 4000)
        alpha, dalpha = profile_series(traj)(traj.thetas)
        assert np.abs(alpha - traj.alphas).max() < 1e-13
        assert np.abs(dalpha - traj.dalphas).max() < 1e-10

    def test_degree_from_the_coefficient_tail(self):
        # the default flow trims below the starting degree; near the end of
        # the range at n = 6 the last coefficient at degree 64 is still 3e-9
        # of the largest, so the fit doubles past it
        assert len(profile_series(integrate_alpha(3, np.pi / 12, 0.0, 0.8, 4000)).coeffs) - 1 < 32
        assert len(profile_series(integrate_alpha(6, 0.02 * np.pi / 6, 0.0, 0.8, 4000)).coeffs) - 1 > 64

    def test_too_few_samples(self):
        traj = integrate_alpha(3, np.pi / 12, 0.0, 0.8, 50)
        with pytest.raises(OdeError, match="degree 32 for the profile takes 66 samples, the trajectory has 51"):
            profile_series(traj)


class TestRotationalChart:
    def test_invariants(self, rotational_chart):
        rng = np.random.default_rng(5)
        for _ in range(3):
            res = ChartStencil(rotational_chart, box_sample(rotational_chart.box, rng, 0.03), 1e-4).invariants()
            assert max(res["embed_norm"], res["normal_norm"], res["orthogonality"]) < 1e-10
            assert res["min_singular_value"] > 1e-6

    def test_principal_multiplicity_pattern(self, rotational_chart):
        rng = np.random.default_rng(6)
        series = rotational_chart.meta["alpha"]
        for _ in range(10):
            x = box_sample(rotational_chart.box, rng, 0.03)
            lam = ChartStencil(rotational_chart, x, 1e-4).shape_eigen[0]
            alpha = series(x[0])[0]
            expected = np.sort([1.0 / np.tan(2 * alpha)] + [-1.0 / np.tan(alpha)] * 2)[::-1]
            np.testing.assert_allclose(lam, expected, atol=1e-4)

    def test_gauss_angle_pattern(self, rotational_chart):
        rng = np.random.default_rng(7)
        series = rotational_chart.meta["alpha"]
        for _ in range(3):
            x = box_sample(rotational_chart.box, rng, 0.03)
            spec = angle_spectrum(gauss_map(rotational_chart, x))
            alpha = series(x[0])[0]
            prof, orb = rotational_angles(alpha, 3)
            gaps = sorted(min(mod_pi_gap(t, v) for t in spec.thetas) for v in (prof, orb))
            assert max(gaps) < 1e-4

    def test_warp_factor_from_metric(self, rotational_chart):
        # the orbit block of the induced metric is rho^2 times the round
        # metric with rho = c1 sin(n alpha)^(-1/n)
        x = rotational_chart.box.center
        g = gauss_metric_fn(rotational_chart)(x)
        assert abs(g[0, 1]) < 1e-10 and abs(g[0, 2]) < 1e-10
        alpha = rotational_chart.meta["alpha"](x[0])[0]
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
        with pytest.raises(OdeError):
            build_rotational_chart(AlphaTrajectory(3, thetas, 1e-5 + 0.0 * thetas, 0.0 * thetas))

    def test_dimension_guard(self, rotational_trajectory):
        t = rotational_trajectory
        with pytest.raises(OdeError):
            build_rotational_chart(AlphaTrajectory(2, t.thetas, t.alphas, t.dalphas))


@pytest.fixture(scope="module")
def traj_n4():
    traj = integrate_alpha(4, np.pi / 16, 0.0, 0.5, 2500)
    assert not traj.stopped_early
    return traj


class TestChartMemo:
    # a chart evaluates the profile series once per embed/normal pair on the
    # same points, on the distinct profile parameters of the batch, and again
    # for any other points

    def test_interleaved_points_match_fresh_charts(self, traj_n4):
        chart = build_rotational_chart(traj_n4)
        rng = np.random.default_rng(9)
        base = [box_sample(chart.box, rng, 0.02) for _ in range(3)]
        points = base + [
            np.concatenate([base[0][:1], base[1][1:]]),  # shares the profile parameter
            np.concatenate([base[2][:1], base[0][1:]]),  # shares the orbit angles
        ]
        calls = [(kind, i) for i in range(len(points)) for kind in ("embed", "normal")] * 2
        for c in rng.permutation(len(calls)):
            kind, i = calls[c]
            got = getattr(chart, kind)(points[i])
            want = getattr(build_rotational_chart(traj_n4), kind)(points[i])
            assert np.array_equal(got, want)

    @staticmethod
    def _series_calls(monkeypatch, measure):
        calls = []
        evaluate = ProfileSeries.__call__
        monkeypatch.setattr(ProfileSeries, "__call__", lambda self, t: calls.append(measure(t)) or evaluate(self, t))
        return calls

    def test_interpolations_per_stencil(self, traj_n4, monkeypatch):
        # one series evaluation, for alpha and alpha' together, shared by
        # embed and normal on the 16 stencil points and the center: the 4
        # steps along the profile axis and the center's own profile parameter
        chart = build_rotational_chart(traj_n4)
        calls = self._series_calls(monkeypatch, np.shape)
        ChartStencil(chart, chart.box.center + 0.01, 1e-4)
        assert calls == [(5,)]

    def test_lookups_per_verify_run(self, tmp_path, monkeypatch):
        # verify --grid 3 at n = 4 asks the profile at 7,587 chart rows in 5
        # series calls, one per embed/normal pair on the batch's 453 distinct
        # profile parameters, and the principal-pattern check at its 3 sample
        # points in one more
        calls = self._series_calls(monkeypatch, np.size)
        assert main(["verify", "--example", "rotational", "--n", "4", "--grid", "3", "--out", str(tmp_path)]) == 0
        assert (len(calls), sum(calls[:-1]), calls[-1]) == (6, 453, 3)

    def test_lookups_per_ode_run(self, tmp_path, monkeypatch):
        # the largest embed/normal pair of the warped check at n = 5 sends
        # 6,600 chart rows, on 95 distinct profile parameters
        calls = self._series_calls(monkeypatch, np.size)
        assert main(["ode", "--n", "5", "--out", str(tmp_path)]) == 0
        assert max(calls) == 95


FLOWS = [
    (3, np.pi / 12, 0.0, 0.8, 4000),
    (4, np.pi / 12, 0.0, 0.8, 4000),
    (5, np.pi / 12, 0.0, 0.8, 4000),
    (4, 0.4, 0.0, 0.8, 4000),
    (3, 0.3, 0.5, 2.0, 3000),
]


def _equilibrium_n4():
    # alpha = pi/8 at rest: the fit keeps one coefficient, so alpha' is
    # exactly 0.0 and embed's profile-plane coordinate at theta = +-0.0 is
    # +-0.0, which only a per-row (or per-bit) evaluation tells apart
    thetas = np.linspace(0.0, 0.8, 4001)
    return AlphaTrajectory(4, thetas, np.full_like(thetas, np.pi / 8), np.zeros_like(thetas))


@pytest.fixture(scope="module", params=[*FLOWS, None],
                ids=lambda f: f"n{f[0]}-alpha0={f[1]:.3f}-dalpha0={f[2]}" if f else "n4-equilibrium")
def flow_chart(request):
    traj = integrate_alpha(*request.param) if request.param else _equilibrium_n4()
    return traj, build_rotational_chart(traj)


def _same(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes() and np.shape(got) == np.shape(want)


def _same_or_nan(got, want):
    """Bitwise equal where want is a number, signed zeros included, and NaN where want is NaN."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return np.shape(got) == np.shape(want) and np.array_equal(np.isnan(got), nan) and _same(got[~nan], want[~nan])


class TestChartArrays:
    # the series is evaluated on whole batches, once per distinct profile
    # parameter; every row must be bitwise the series at that row alone and
    # the scalar recurrence of ref_profile

    def test_fit_is_the_chart_profile(self, flow_chart):
        traj, chart = flow_chart
        series, fitted = chart.meta["alpha"], profile_series(traj)
        assert (series.lo, series.hi) == (traj.thetas[0], traj.thetas[-1])
        assert _same(series.coeffs, fitted.coeffs)

    @staticmethod
    def _inputs(chart):
        n, rng = chart.dim, np.random.default_rng(chart.dim)
        center = chart.box.center
        offsets = 1e-3 * np.arange(-2.0, 3.0)[:, None, None] * np.eye(n)  # (offset, axis, n)
        inputs = {
            "stencil": center + offsets,
            "stencils": np.stack([box_sample(chart.box, rng, 0.05) for _ in range(3)])[:, None, None] + offsets,
            "point": box_sample(chart.box, rng, 0.05),
            "distinct": np.stack([box_sample(chart.box, rng, 0.01) for _ in range(40)]),
        }
        # the batches verify sends, which repeat each profile parameter: the
        # Hessian stencil of three points, as hessian_stencil hands it to the
        # chart, and a field stencil (point, offset, frame direction) of
        # shape (3, 4, n, n)
        three = np.stack([box_sample(chart.box, rng, 0.05) for _ in range(3)])
        sent = []
        hessian_stencil(lambda q: sent.append(q) or q, three, 1e-3, (2.0, 1.0, -1.0, -2.0))
        frames = np.linalg.qr(rng.normal(size=(3, n, n)))[0]
        inputs["hessian"] = sent[0]
        inputs["field"] = three[:, None, None] + 1e-3 * np.array([1.0, 0.5, -0.5, -1.0])[:, None, None] * frames[:, None]
        # abscissae the bits of theta tell apart where its value does not
        edge = np.repeat(center[None], 5, axis=0)
        edge[:, 0] = [0.0, -0.0, np.nan, center[0], -0.0]
        inputs["edge"] = edge
        return inputs

    def test_embed_and_normal_match_per_row_lookup(self, flow_chart):
        _, chart = flow_chart
        for name, x in self._inputs(chart).items():
            rows = x.reshape(-1, chart.dim)
            for fn in (chart.embed, chart.normal):
                want = np.stack([fn(row) for row in rows]).reshape(x.shape[:-1] + (chart.dim + 2,))
                assert _same_or_nan(fn(x), want), name

    def test_profile_matches_per_row_lookup(self, flow_chart):
        _, chart = flow_chart
        series = chart.meta["alpha"]
        thetas = {name: x[..., 0] for name, x in self._inputs(chart).items()}
        thetas["scalar"] = float(chart.box.center[0])
        thetas["ends"] = np.array([series.lo, series.hi])
        for name, t in thetas.items():
            got = series(t)
            want = [ref_profile(series, v) for v in np.ravel(t)]
            for k in range(2):
                assert np.shape(got[k]) == np.shape(t), name
                assert _same_or_nan(np.ravel(got[k]), [w[k] for w in want]), name


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


def test_rotational_chart_n4(traj_n4):
    # the machinery is dimension generic; exercise n = 4 end to end
    chart = build_rotational_chart(traj_n4)
    x = chart.box.center
    lam = ChartStencil(chart, x, 1e-4).shape_eigen[0]
    alpha = chart.meta["alpha"](x[0])[0]
    expected = np.sort([1.0 / np.tan(3 * alpha)] + [-1.0 / np.tan(alpha)] * 3)[::-1]
    np.testing.assert_allclose(lam, expected, atol=1e-4)
    assert all_within_default_tolerances(warped_curvature_check(chart, 4, chart.meta["c1"]))


def test_import_leaves_numpy_polynomial_out():
    # numpy.polynomial costs about 4 ms of start-up after numpy itself; the
    # profile series is fitted and summed by hand
    src = os.path.dirname(os.path.dirname(rotational.__file__))
    code = "import sys, quadriclab, quadriclab.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"
