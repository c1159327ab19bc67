"""Rotational hypersurfaces from the profile-angle ODE.

The profile angle alpha obeys  alpha'' = (1 - alpha'^2) cot(n alpha)  in the
profile parameter, subject to |alpha'| < 1 and sin(n alpha) != 0. A fixed-step
fourth-order Runge-Kutta trajectory feeds a quintic Hermite interpolant, which
in turn drives a rotational hypersurface chart: the first profile-curve
coordinate scales an (n-1)-sphere orbit, the other two live in the fixed
plane. The conserved quantity of the flow is the warp factor of the induced
Gauss-map metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypersurfaces import Box, HypersurfaceChart, sphere_chart, sphere_chart_with_derivatives
from .gaussmap import FdSteps, angle_spectrum, gauss_map
from .numerics import axis, central_first, central_second, first_derivative
from .verify import ResidualReport

__all__ = [
    "OdeError",
    "ProfileState",
    "AlphaTrajectory",
    "integrate_alpha",
    "ode_order_ratio",
    "first_integral_residual",
    "warp_constant",
    "ProfileCurve",
    "profile_curve",
    "profile_velocity",
    "ode_equivalence_residual",
    "QuinticHermite",
    "build_rotational_chart",
    "rotational_angles",
    "profile_ode_residual_from_chart",
    "warped_curvature_check",
]

GUARD_BAND = 1e-3


class OdeError(Exception):
    """Invalid initial data or degenerate trajectory."""


@dataclass(frozen=True)
class ProfileState:
    theta: float
    alpha: float
    dalpha: float


@dataclass(frozen=True)
class AlphaTrajectory:
    """Fixed-step trajectory of the profile angle."""

    n: int
    states: list[ProfileState]
    stopped_early: bool = False
    stop_reason: str | None = None

    @property
    def thetas(self) -> np.ndarray:
        return np.array([s.theta for s in self.states])

    @property
    def alphas(self) -> np.ndarray:
        return np.array([s.alpha for s in self.states])

    @property
    def dalphas(self) -> np.ndarray:
        return np.array([s.dalpha for s in self.states])


def _rhs(n: int, alpha: float, dalpha: float) -> float:
    return (1.0 - dalpha * dalpha) / np.tan(n * alpha)


def integrate_alpha(
    n: int,
    alpha0: float,
    dalpha0: float,
    theta_span,
    steps: int,
) -> AlphaTrajectory:
    """Classical RK4 trajectory of the profile-angle equation.

    theta_span is either a scalar length (starting at 0) or a (start, end)
    pair. Integration stops early, flagged, when |alpha'| or sin(n alpha)
    enters the guard band around the singular sets.
    """
    if steps < 1:
        raise OdeError("steps must be positive")
    if np.isscalar(theta_span):
        t0, t1 = 0.0, float(theta_span)
    else:
        t0, t1 = float(theta_span[0]), float(theta_span[1])
    if not np.all(np.isfinite([alpha0, dalpha0, t0, t1])):
        raise OdeError(
            f"non-finite initial data: alpha0 = {alpha0}, dalpha0 = {dalpha0}, "
            f"span = ({t0}, {t1})"
        )
    if abs(dalpha0) >= 1.0 - GUARD_BAND:
        raise OdeError(f"|dalpha0| = {abs(dalpha0)} violates the |alpha'| < 1 bound")
    if abs(np.sin(n * alpha0)) <= GUARD_BAND:
        raise OdeError(
            f"sin(n alpha0) = {np.sin(n * alpha0):.2e} too close to zero"
        )
    h = (t1 - t0) / steps
    states = [ProfileState(t0, float(alpha0), float(dalpha0))]
    a, p = float(alpha0), float(dalpha0)
    for k in range(steps):
        k1a, k1p = p, _rhs(n, a, p)
        k2a, k2p = p + 0.5 * h * k1p, _rhs(n, a + 0.5 * h * k1a, p + 0.5 * h * k1p)
        k3a, k3p = p + 0.5 * h * k2p, _rhs(n, a + 0.5 * h * k2a, p + 0.5 * h * k2p)
        k4a, k4p = p + h * k3p, _rhs(n, a + h * k3a, p + h * k3p)
        a = a + h * (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0
        p = p + h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
        theta = t0 + (k + 1) * h
        if abs(p) >= 1.0 - GUARD_BAND:
            return AlphaTrajectory(
                n, states, stopped_early=True,
                stop_reason=f"|alpha'| reached {abs(p):.4f} at theta = {theta:.4f}",
            )
        if abs(np.sin(n * a)) <= GUARD_BAND:
            return AlphaTrajectory(
                n, states, stopped_early=True,
                stop_reason=f"sin(n alpha) vanished near theta = {theta:.4f}",
            )
        states.append(ProfileState(theta, a, p))
    return AlphaTrajectory(n, states)


def ode_order_ratio(n, alpha0, dalpha0, theta_span, steps: int) -> float:
    """Global-error ratio under step halving; about 16 for a 4th-order method."""
    finals = []
    for m in (steps, 2 * steps, 4 * steps):
        traj = integrate_alpha(n, alpha0, dalpha0, theta_span, m)
        if traj.stopped_early:
            raise OdeError(f"trajectory stopped early: {traj.stop_reason}")
        last = traj.states[-1]
        finals.append(np.array([last.alpha, last.dalpha]))
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    if e2 == 0.0:
        raise OdeError("refinement differences vanished; steps too fine for the test")
    return float(e1 / e2)


def warp_constant(traj: AlphaTrajectory) -> float:
    """Constant fixing the warp factor, evaluated at the initial sample."""
    s0 = traj.states[0]
    w0 = np.sqrt(1.0 - s0.dalpha**2)
    return float(w0 / np.sqrt(2.0) * np.abs(np.sin(traj.n * s0.alpha)) ** (1.0 / traj.n))


def first_integral_residual(traj: AlphaTrajectory, n: int | None = None, c1: float | None = None) -> float:
    """Conservation defect of the first integral along the trajectory.

    The invariant combines the warp factor with the arclength derivative of
    alpha; c1 is fixed at the first sample unless supplied.
    """
    n = n or traj.n
    if c1 is None:
        c1 = warp_constant(traj)
    worst = 0.0
    for s in traj.states:
        w = np.sqrt(1.0 - s.dalpha**2)
        sn = np.sin(n * s.alpha)
        ds_dtheta = -w / (np.sqrt(2.0) * sn)
        dalpha_ds = s.dalpha / ds_dtheta
        lhs = (c1 * np.abs(sn) ** (-1.0 / n)) ** 2 * (2.0 + dalpha_ds**2 / sn**2)
        worst = max(worst, abs(lhs - 1.0))
    return worst


# ---------------------------------------------------------------------------
# profile curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileCurve:
    """Profile curve samples on the unit 2-sphere."""

    n: int
    thetas: np.ndarray
    gammas: np.ndarray  # (N, 3)
    alphas: np.ndarray
    dalphas: np.ndarray

    def csv_rows(self):
        for k in range(len(self.thetas)):
            yield (
                self.thetas[k],
                self.alphas[k],
                self.dalphas[k],
                self.gammas[k, 0],
                self.gammas[k, 1],
                self.gammas[k, 2],
            )


def _gamma_point(theta: float, alpha: float, dalpha: float) -> np.ndarray:
    c, s = np.cos(alpha), np.sin(alpha)
    w = np.sqrt(max(0.0, 1.0 - dalpha * dalpha))
    return np.array(
        [
            -s * w,
            c * np.sin(theta) - s * np.cos(theta) * dalpha,
            -c * np.cos(theta) - s * np.sin(theta) * dalpha,
        ]
    )


def profile_velocity(theta: float, alpha: float, dalpha: float, n: int) -> np.ndarray:
    """Analytic derivative of the profile curve with respect to theta."""
    c, s = np.cos(alpha), np.sin(alpha)
    w = np.sqrt(max(0.0, 1.0 - dalpha * dalpha))
    kappa = w * np.sin((n - 1) * alpha) / np.sin(n * alpha)
    return kappa * np.array([-dalpha, w * np.cos(theta), w * np.sin(theta)])


def profile_curve(traj: AlphaTrajectory) -> ProfileCurve:
    """Profile curve of the trajectory; every sample lies on the unit sphere."""
    gammas = np.array(
        [_gamma_point(s.theta, s.alpha, s.dalpha) for s in traj.states]
    )
    norms = np.linalg.norm(gammas, axis=1)
    if np.abs(norms - 1.0).max() > 1e-8:
        raise OdeError(
            f"profile curve left the unit sphere (defect {np.abs(norms-1).max():.2e})"
        )
    return ProfileCurve(
        n=traj.n,
        thetas=traj.thetas,
        gammas=gammas,
        alphas=traj.alphas,
        dalphas=traj.dalphas,
    )


def ode_equivalence_residual(traj: AlphaTrajectory, n: int | None = None) -> float:
    """Residual of the arclength form of the profile equation.

    Transforms the trajectory to the arclength parameter and checks the
    second-order equation there with interior finite differences; validates
    that the two forms of the flow agree.
    """
    n = n or traj.n
    th = traj.thetas
    al = traj.alphas
    pa = traj.dalphas
    w = np.sqrt(1.0 - pa**2)
    sn = np.sin(n * al)
    ds_dtheta = -w / (np.sqrt(2.0) * sn)
    q = pa / ds_dtheta  # d alpha / d s
    dq_ds = central_first(q[4:], q[3:-1], q[1:-3], q[:-4], th[1] - th[0]) / ds_dtheta[2:-2]
    mid_al, mid_q = al[2:-2], q[2:-2]
    resid = dq_ds - (n + 1) / np.tan(n * mid_al) * mid_q**2 - np.sin(2 * n * mid_al)
    return float(np.abs(resid).max(initial=0.0))


# ---------------------------------------------------------------------------
# interpolation and the rotational chart
# ---------------------------------------------------------------------------

class QuinticHermite:
    """Per-interval quintic matching value, slope and curvature at both ends.

    Interpolation error on an RK4-fine grid sits far below the chart
    tolerances, and values are C^1 across knots, so chart stencils may
    straddle intervals.
    """

    def __init__(self, x: np.ndarray, f: np.ndarray, df: np.ndarray, ddf: np.ndarray):
        if len(x) < 2:
            raise OdeError("need at least two samples to interpolate")
        self.x = np.asarray(x, dtype=float)
        self.dx = np.diff(self.x)
        if np.any(self.dx <= 0):
            raise OdeError("interpolation abscissae must increase")
        n = len(x) - 1
        coeffs = np.empty((n, 6))
        for k in range(n):
            d = self.dx[k]
            a0, a1, a2 = f[k], d * df[k], 0.5 * d * d * ddf[k]
            r0 = f[k + 1] - a0 - a1 - a2
            r1 = d * df[k + 1] - a1 - 2 * a2
            r2 = d * d * ddf[k + 1] - 2 * a2
            coeffs[k] = [
                a0,
                a1,
                a2,
                10 * r0 - 4 * r1 + 0.5 * r2,
                -15 * r0 + 7 * r1 - r2,
                6 * r0 - 3 * r1 + 0.5 * r2,
            ]
        self.coeffs = coeffs

    def _locate(self, t: float) -> tuple[int, float]:
        k = int(np.searchsorted(self.x, t, side="right") - 1)
        k = min(max(k, 0), len(self.dx) - 1)
        return k, (t - self.x[k]) / self.dx[k]

    def value(self, t: float) -> float:
        k, tau = self._locate(t)
        return float(sum(self.coeffs[k][j] * tau**j for j in range(6)))

    def derivative(self, t: float) -> float:
        k, tau = self._locate(t)
        return float(
            sum(j * self.coeffs[k][j] * tau ** (j - 1) for j in range(1, 6)) / self.dx[k]
        )


def rotational_angles(alpha: float, n: int) -> tuple[float, float]:
    """Expected mod-pi angle pair (profile, orbit) for the profile angle."""
    return float(np.mod((n - 1) * alpha, np.pi)), float(np.mod(-alpha, np.pi))


def build_rotational_chart(curve: ProfileCurve, n: int) -> HypersurfaceChart:
    """Rotational hypersurface chart over (profile parameter, orbit angles).

    Principal curvatures follow the (1, n-1) pattern cot((n-1) alpha) and
    -cot(alpha). Requires sin(alpha), sin((n-1) alpha) and sin(n alpha)
    positive along the curve (the regime of the default trajectories) and a
    non-vanishing orbit radius.
    """
    if n < 3:
        raise OdeError("rotational charts need n >= 3")
    al, pa, th = curve.alphas, curve.dalphas, curve.thetas
    if np.min(np.sin(n * al)) <= GUARD_BAND:
        raise OdeError("sin(n alpha) leaves the positive regime on this trajectory")
    if np.min(np.sin((n - 1) * al)) <= 1e-6 or np.min(np.sin(al)) <= 1e-6:
        raise OdeError(
            "profile angle leaves the regime 0 < alpha < pi/(n-1) supported "
            "by the chart formulas"
        )
    w = np.sqrt(1.0 - pa**2)
    radius = np.abs(np.sin(al) * w)
    if radius.min() <= 1e-4:
        raise OdeError(
            f"orbit radius vanishes along the curve (min {radius.min():.2e}): "
            f"the rotation axis is hit"
        )
    # coarsen the knot grid to ~0.01: chart stencils then live inside single
    # interpolation intervals, where the quintic is smooth, and the rounding
    # noise of the Hermite coefficients (~eps / spacing) stays negligible
    spacing = th[1] - th[0]
    stride = max(1, int(round(0.01 / spacing)))
    idx = list(range(0, len(th), stride))
    if idx[-1] != len(th) - 1:
        idx.append(len(th) - 1)
    th_k, al_k, pa_k = th[idx], al[idx], pa[idx]
    ddal = np.array([_rhs(n, a, p) for a, p in zip(al_k, pa_k)])
    interp = QuinticHermite(th_k, al_k, pa_k, ddal)

    pad = max(0.02, 10.0 * (th[1] - th[0]))
    lo, hi = th[0] + pad, th[-1] - pad
    if hi - lo < 0.05:
        raise OdeError("trajectory too short to carve out a chart box")
    lows = np.concatenate([[lo], np.full(n - 1, -0.4)])
    highs = np.concatenate([[hi], np.full(n - 1, 0.4)])

    def profile_data(theta: float):
        a = interp.value(theta)
        p = interp.derivative(theta)
        return a, p

    def embed(x):
        theta = float(x[0])
        a, p = profile_data(theta)
        g = _gamma_point(theta, a, p)
        sigma = sphere_chart(n - 1, x[1:])
        return np.concatenate([g[0] * sigma, g[1:]])

    def normal(x):
        theta = float(x[0])
        a, p = profile_data(theta)
        c, s = np.cos(a), np.sin(a)
        w_loc = np.sqrt(max(0.0, 1.0 - p * p))
        # unit conormal of the profile curve in the moving frame of the sphere
        beta = -np.array(
            [
                w_loc * c,
                c * p * np.cos(theta) + s * np.sin(theta),
                c * p * np.sin(theta) - s * np.cos(theta),
            ]
        )
        sigma = sphere_chart(n - 1, x[1:])
        return np.concatenate([beta[0] * sigma, beta[1:]])

    c1 = warp_constant(AlphaTrajectory(n, [ProfileState(th[0], al[0], pa[0])]))
    return HypersurfaceChart(
        dim=n,
        embed=embed,
        normal=normal,
        box=Box(lows=lows, highs=highs),
        name="rotational",
        meta={
            "n": n,
            "c1": c1,
            "interp": interp,
            "isoparametric": False,
        },
    )


# ---------------------------------------------------------------------------
# warped-product checks
# ---------------------------------------------------------------------------

def _orbit_and_profile_angles(thetas: np.ndarray, n: int) -> tuple[float, float]:
    """Split the angle spectrum into (profile angle value, orbit angle value)."""
    th = np.sort(thetas)
    groups: list[list[float]] = [[float(th[0])]]
    for v in th[1:]:
        if v - groups[-1][-1] <= 1e-4:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    groups.sort(key=len)
    if len(groups) != 2 or len(groups[-1]) != n - 1:
        raise OdeError(
            f"angle multiplicities {sorted(map(len, groups))} are not (1, n-1)"
        )
    return float(groups[0][0]), float(np.mean(groups[-1]))


def _alpha_from_gauss(chart: HypersurfaceChart, x, steps: FdSteps) -> float:
    """Profile angle recovered from the Gauss-map angle functions."""
    n = chart.meta["n"]
    spec = angle_spectrum(gauss_map(chart, x, steps))
    _, orbit = _orbit_and_profile_angles(spec.thetas, n)
    return float(np.pi - orbit)


def profile_ode_residual_from_chart(
    chart: HypersurfaceChart, steps: FdSteps | None = None
) -> float:
    """Second-order profile equation recovered from the Gauss side alone.

    The profile angle and the metric factor are both read off the chart's
    Gauss map (angles and induced metric); their arclength derivatives must
    satisfy the second-order form of the flow. Nothing from the integrator
    enters this residual except the chart itself.
    """
    from .verify import gauss_metric_fn

    steps = steps or FdSteps()
    n = chart.meta["n"]
    p = chart.box.center.copy()
    metric = gauss_metric_fn(chart, steps)
    delta = steps.field

    def u_at(t):
        x = p.copy()
        x[0] = t
        return _alpha_from_gauss(chart, x, steps)

    def v_at(t):
        x = p.copy()
        x[0] = t
        return float(np.sqrt(metric(x)[0, 0]))

    t0 = p[0]
    h = 0.5 * delta
    us = {c: u_at(t0 + c * h) for c in (-2, -1, 0, 1, 2)}
    vs = {c: v_at(t0 + c * h) for c in (-2, -1, 0, 1, 2)}
    du = central_first(us[2], us[1], us[-1], us[-2], h)
    ddu = central_second(us[2], us[1], us[0], us[-1], us[-2], h)
    dv = central_first(vs[2], vs[1], vs[-1], vs[-2], h)
    v0 = vs[0]
    alpha = us[0]
    e1_alpha = du / v0
    e1_e1_alpha = (ddu * v0 - du * dv) / v0**3
    return float(
        abs(
            e1_e1_alpha
            - (n + 1) / np.tan(n * alpha) * e1_alpha**2
            - np.sin(2 * n * alpha)
        )
    )


def warped_curvature_check(
    chart: HypersurfaceChart,
    n: int,
    c1: float,
    steps: FdSteps | None = None,
    tol_warp: float = 1e-3,
    tol_fiber: float = 1e-3,
) -> ResidualReport:
    """Warped-product structure of the induced Gauss-map metric.

    Checks, from the Gauss side only (angles and the induced metric):
    the orbit block of the metric is conformally round with warp factor
    c1 (sin n alpha)^(-1/n); the rescaled fiber curvature is the constant 1;
    and the fiber curvature formula chains correctly through the warp factor
    and arclength derivatives.
    """
    from .verify import (  # cycle-free import
        curvature_from_metric,
        gauss_metric_fn,
        sectional_from_metric,
    )

    steps = steps or FdSteps()
    p = chart.box.center.copy()
    report = ResidualReport(example=chart.name, point=list(p))
    metric = gauss_metric_fn(chart, steps)

    def orbit_round_metric(x):
        _, dsigma = sphere_chart_with_derivatives(n - 1, x[1:])
        return dsigma @ dsigma.T

    def warp_at(x):
        g = metric(x)
        m = orbit_round_metric(x)
        block = g[1:, 1:]
        off = np.abs(g[0, 1:]).max() if n > 1 else 0.0
        ratios = block[m > 1e-12] / m[m > 1e-12]
        return float(np.sqrt(np.mean(ratios))), float(off), float(np.ptp(ratios))

    rho, off_block, conformal_spread = warp_at(p)
    alpha = _alpha_from_gauss(chart, p, steps)
    rho_law = abs(rho - c1 * np.sin(n * alpha) ** (-1.0 / n))
    report.add("warp_block_diagonal", off_block, tol_warp)
    report.add("warp_block_conformal", conformal_spread, tol_warp)
    report.add("warp_factor_law", rho_law, tol_warp)

    # arclength derivatives of the warp factor and the profile angle,
    # all one-dimensional differences in the profile coordinate
    dth = steps.field

    def shifted(x, dt):
        y = x.copy()
        y[0] += dt
        return y

    def d_dtheta(fn, x):
        return first_derivative(fn, x, axis(n, 0), 0.5 * dth)

    # fiber curvature via the metric route in an orbit plane
    ortho = np.zeros(n)
    ortho[1] = 1.0
    ortho2 = np.zeros(n)
    ortho2[2 if n > 2 else 1] = 1.0

    def fiber_curvature(x):
        rho_x = warp_at(x)[0]
        g_x = metric(x)
        e1_rho = d_dtheta(lambda y: warp_at(y)[0], x) / np.sqrt(float(g_x[0, 0]))
        k_orbit = sectional_from_metric(
            curvature_from_metric(metric, x, steps.metric), g_x, ortho, ortho2
        )
        return rho_x**2 * (k_orbit + (e1_rho / rho_x) ** 2)

    # one fiber curvature per profile sample; the middle sample is p itself
    kf_samples = [fiber_curvature(shifted(p, c * 5 * dth)) for c in (-1.0, 0.0, 1.0)]
    k_fiber = kf_samples[1]
    e1_alpha = d_dtheta(lambda x: _alpha_from_gauss(chart, x, steps), p) / np.sqrt(
        float(metric(p)[0, 0])
    )
    rhs_chain = (c1 * np.sin(n * alpha) ** (-1.0 / n)) ** 2 * (
        2.0 + e1_alpha**2 * np.sin(n * alpha) ** (-2.0)
    )
    report.add("fiber_curvature_normalized", abs(k_fiber - 1.0), tol_fiber)
    report.add("fiber_curvature_chain", abs(k_fiber - rhs_chain), tol_fiber)
    report.add("fiber_curvature_variance", float(np.var(kf_samples)), 1e-4)
    return report
