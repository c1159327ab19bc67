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

from .hypersurfaces import (
    Box,
    HypersurfaceChart,
    sphere_chart,
    sphere_chart_with_derivatives,
)
from .gaussmap import (
    FdSteps,
    GaussJet,
    angle_spectrum,
    gauss_map,
    mod_pi_clusters,
    nearest_mod_pi,
)
from .numerics import axis, central_first, central_second, first_derivative
from .verify import curvature_from_metric, gauss_metric_fn, sectional_from_metric

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
    "principal_pattern_residual",
    "warped_curvature_check",
]

GUARD_BAND = 1e-3

# coarsest order-probe difference, relative to the final state, at or below
# which the probe runs differ by round-off only
PROBE_ROUNDOFF = 1e-13


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


def ode_order_ratio(n, alpha0, dalpha0, theta_span, steps: int) -> float | None:
    """Global-error ratio under step halving; about 16 for a 4th-order method.

    None when the coarsest difference is at round-off level, at most
    PROBE_ROUNDOFF times the final state (an equilibrium, or a span too short
    for any truncation error to show): the runs then measure no order.
    """
    finals = []
    for m in (steps, 2 * steps, 4 * steps):
        traj = integrate_alpha(n, alpha0, dalpha0, theta_span, m)
        if traj.stopped_early:
            raise OdeError(f"trajectory stopped early: {traj.stop_reason}")
        last = traj.states[-1]
        finals.append(np.array([last.alpha, last.dalpha]))
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    if e1 <= PROBE_ROUNDOFF * np.linalg.norm(finals[2]):
        return None
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


def _gamma_point(theta, alpha, dalpha):
    """The three profile-curve coordinates at arrays (or numbers) of samples."""
    c, s = np.cos(alpha), np.sin(alpha)
    ct, st = np.cos(theta), np.sin(theta)
    w = np.sqrt(np.maximum(0.0, 1.0 - dalpha * dalpha))
    return -s * w, c * st - s * ct * dalpha, -c * ct - s * st * dalpha


def profile_velocity(theta: float, alpha: float, dalpha: float, n: int) -> np.ndarray:
    """Analytic derivative of the profile curve with respect to theta."""
    c, s = np.cos(alpha), np.sin(alpha)
    w = np.sqrt(max(0.0, 1.0 - dalpha * dalpha))
    kappa = w * np.sin((n - 1) * alpha) / np.sin(n * alpha)
    return kappa * np.array([-dalpha, w * np.cos(theta), w * np.sin(theta)])


def profile_curve(traj: AlphaTrajectory) -> ProfileCurve:
    """Profile curve of the trajectory; every sample lies on the unit sphere."""
    gammas = np.stack(_gamma_point(traj.thetas, traj.alphas, traj.dalphas), axis=-1)
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

# Python's float power, element by element: numpy's own power loop rounds
# differently in the last bit, and the profile values stay those of scalar
# Python floats. It raises OverflowError where the float power overflows.
_float_pow = np.frompyfunc(pow, 2, 1)
_EXPONENTS = np.arange(2.0, 6.0)


class QuinticHermite:
    """Per-interval quintic matching value, slope and curvature at both ends.

    Interpolation error on an RK4-fine grid sits far below the chart
    tolerances, and values are C^1 across knots, so chart stencils may
    straddle intervals. value and derivative take a number or an array of
    abscissae, and value_and_derivative gives both from one interval lookup;
    the power sums run in a fixed order.
    """

    def __init__(self, x: np.ndarray, f: np.ndarray, df: np.ndarray, ddf: np.ndarray):
        if len(x) < 2:
            raise OdeError("need at least two samples to interpolate")
        x = np.asarray(x, dtype=float)
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise OdeError("interpolation abscissae must increase")
        n = len(x) - 1
        coeffs = np.empty((n, 6))
        for k in range(n):
            d = dx[k]
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
        self.x, self.dx, self.coeffs = x, dx, coeffs

    def _locate(self, t):
        """Interval coefficients, interval width and tau**j (j = 0..5) at the abscissae t."""
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, len(self.dx) - 1)
        tau = (t - self.x[k]) / self.dx[k]
        powers = np.empty(tau.shape + (6,))
        powers[..., 0], powers[..., 1] = 1.0, tau
        powers[..., 2:] = _float_pow(tau[..., None], _EXPONENTS)
        return self.coeffs[k], self.dx[k], powers

    def value_and_derivative(self, t):
        row, dx, powers = self._locate(t)
        value = slope = 0.0
        for j in range(6):
            value = value + row[..., j] * powers[..., j]
            if j:
                slope = slope + j * row[..., j] * powers[..., j - 1]
        return value, slope / dx

    def value(self, t):
        return self.value_and_derivative(t)[0]

    def derivative(self, t):
        return self.value_and_derivative(t)[1]


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

    def embed(x):
        x = np.asarray(x, dtype=float)
        theta = x[..., 0]
        g0, g1, g2 = _gamma_point(theta, *interp.value_and_derivative(theta))
        return np.concatenate(
            [g0[..., None] * sphere_chart(n - 1, x[..., 1:]), g1[..., None], g2[..., None]], axis=-1
        )

    def normal(x):
        x = np.asarray(x, dtype=float)
        theta = x[..., 0]
        a, p = interp.value_and_derivative(theta)
        c, s = np.cos(a), np.sin(a)
        ct, st = np.cos(theta), np.sin(theta)
        w_loc = np.sqrt(np.maximum(0.0, 1.0 - p * p))
        # unit conormal of the profile curve in the moving frame of the sphere
        b0 = -(w_loc * c)
        b1 = -(c * p * ct + s * st)
        b2 = -(c * p * st - s * ct)
        return np.concatenate(
            [b0[..., None] * sphere_chart(n - 1, x[..., 1:]), b1[..., None], b2[..., None]], axis=-1
        )

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
# profile checks from the Gauss side
# ---------------------------------------------------------------------------

def _orbit_and_profile_angles(thetas: np.ndarray, n: int) -> tuple[float, float]:
    """Split the angle spectrum into (profile angle value, orbit angle value)."""
    th = np.sort(thetas)
    groups = [[float(th[k]) for k in cl] for cl in mod_pi_clusters(th, 1e-4)]
    groups.sort(key=len)
    if len(groups) != 2 or len(groups[-1]) != n - 1:
        raise OdeError(
            f"angle multiplicities {sorted(map(len, groups))} are not (1, n-1)"
        )
    orbit = groups[-1]
    # the mean of representatives nearest the first member: the plain mean
    # unless the group straddles 0 = pi
    mean = float(np.mean([nearest_mod_pi(v, orbit[0]) for v in orbit]))
    return float(groups[0][0]), float(np.mod(mean, np.pi))


def _alpha_from_gauss(jet: GaussJet) -> float:
    """Profile angle recovered from the Gauss-map angle functions."""
    _, orbit = _orbit_and_profile_angles(angle_spectrum(jet).thetas, jet.chart.meta["n"])
    return float(np.pi - orbit)


def principal_pattern_residual(jet: GaussJet, n: int) -> float:
    """Principal curvatures against the (1, n-1) cotangent pattern of the profile angle."""
    alpha = jet.chart.meta["interp"].value(float(jet.point[0]))
    prof_th, orbit_th = rotational_angles(alpha, n)
    expected = np.sort(
        np.array(
            [np.cos(prof_th) / np.sin(prof_th)]
            + [np.cos(orbit_th) / np.sin(orbit_th)] * (n - 1)
        )
    )
    return float(np.abs(np.sort(jet.lambdas) - expected).max())


def warped_curvature_check(
    chart: HypersurfaceChart,
    n: int,
    c1: float,
    steps: FdSteps | None = None,
) -> dict[str, float]:
    """Residuals of the profile checks at the box center p, from the Gauss side only.

    Five Gauss-map jets at p + c (H/2) e_0, c = -2..2 (H the field step), give
    the profile angle alpha (from the angle functions), the metric factor
    sqrt(g_00) and the warp factor rho of the orbit block, and their
    five-point derivatives in the profile coordinate at p. In report order:
    the orbit block of the metric is conformally round with warp factor
    c1 (sin n alpha)^(-1/n); the rescaled fiber curvature is the constant 1,
    at p and at p +- 5H e_0, and chains through the warp factor and the
    arclength derivative of alpha; alpha satisfies the arclength form of the
    profile equation; and the principal curvatures at p follow the (1, n-1)
    pattern of alpha. Nothing from the integrator enters except the chart.
    """
    steps = steps or FdSteps()
    metric = gauss_metric_fn(chart, steps)
    p = chart.box.center.copy()
    e0 = axis(n, 0)
    dth = steps.field
    h = 0.5 * dth

    def warp_at(x, g):
        # the orbit block of g against the metric of the orbit sphere chart,
        # whose coordinates are orthogonal: the ratios of their diagonals
        _, dsigma = sphere_chart_with_derivatives(n - 1, x[..., 1:])
        m = dsigma @ dsigma.swapaxes(-1, -2)
        ratios = np.diagonal(g[..., 1:, 1:], axis1=-2, axis2=-1) / np.diagonal(m, axis1=-2, axis2=-1)
        return (
            np.sqrt(np.mean(ratios, axis=-1)),
            np.abs(g[..., 0, 1:]).max(axis=-1),
            np.ptp(ratios, axis=-1),
        )

    offsets = (-2, -1, 0, 1, 2)
    batch = gauss_map(chart, p + (np.array(offsets) * h)[:, None] * e0, steps)
    jets = {c: batch[k] for k, c in enumerate(offsets)}
    gs = {c: jet.stencil.lift_metric for c, jet in jets.items()}
    alphas = {c: _alpha_from_gauss(jet) for c, jet in jets.items()}
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

    # fiber curvature via the metric route in an orbit plane, at p and at two
    # profile samples either side of it
    ortho, ortho2 = axis(n, 1), axis(n, 2)

    def fiber_curvature(x, g_x, rho_x, drho_x):
        e1_rho = drho_x / np.sqrt(float(g_x[0, 0]))
        k_orbit = sectional_from_metric(
            curvature_from_metric(metric, x, steps.metric, g_x), g_x, ortho, ortho2
        )
        return rho_x**2 * (k_orbit + (e1_rho / rho_x) ** 2)

    def side_fiber_curvature(x):
        g_x = metric(x)
        drho_x = first_derivative(lambda y: warp_at(y, metric(y))[0], x, e0, h)
        return fiber_curvature(x, g_x, warp_at(x, g_x)[0], drho_x)

    k_fiber = fiber_curvature(p, g_p, rho, drho)
    kf_samples = [
        side_fiber_curvature(p - 5 * dth * e0),
        k_fiber,
        side_fiber_curvature(p + 5 * dth * e0),
    ]
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
        "principal_vs_angle_pattern": principal_pattern_residual(jets[0], n),
    }
