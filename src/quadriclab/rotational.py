"""Rotational hypersurfaces from the profile-angle ODE.

The profile angle alpha obeys  alpha'' = (1 - alpha'^2) cot(n alpha)  in the
profile parameter, subject to |alpha'| < 1 and sin(n alpha) != 0. A fixed-step
fourth-order Runge-Kutta trajectory is fitted by one Chebyshev series of alpha
over its span, whose degree the coefficient decay sets; the series and its
derivative series drive a rotational hypersurface chart: the first
profile-curve coordinate scales an (n-1)-sphere orbit, the other two live in
the fixed plane. The conserved quantity of the flow is the warp factor of the
induced Gauss-map metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .hypersurfaces import (
    Box,
    HypersurfaceChart,
    shared_work,
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
from .numerics import axis, central_first, central_second, row_dot
from .verify import curvature_from_metric, gauss_metric_fn, sectional_from_metric

__all__ = [
    "OdeError",
    "ProfileState",
    "AlphaTrajectory",
    "integrate_alpha",
    "ode_order_ratio",
    "first_integral_residual",
    "warp_constant",
    "profile_curve",
    "ode_equivalence_residual",
    "ProfileSeries",
    "profile_series",
    "build_rotational_chart",
    "rotational_angles",
    "principal_pattern_residual",
    "warped_curvature_check",
]

GUARD_BAND = 1e-3

# finer order-probe difference, in units of eps times the largest state norm
# per square root of the finest run's step count, at or below which the
# probe runs differ by round-off only: RK4's round-off walks randomly over
# the steps
PROBE_ROUNDOFF = 8.0


def _pow(x: np.ndarray, y: float) -> np.ndarray:
    """x ** y by Python's float power on each element, bitwise that of scalar floats.

    For the fractional powers of the first integral: there numpy's own power
    loop rounds differently in the last bit. OverflowError where the power
    overflows, ZeroDivisionError for 0 to a negative power.
    """
    return np.fromiter(map(pow, x.ravel().tolist(), repeat(float(y))), float, x.size).reshape(x.shape)


class OdeError(Exception):
    """Invalid initial data or degenerate trajectory."""


@dataclass(frozen=True)
class ProfileState:
    theta: float
    alpha: float
    dalpha: float


class AlphaTrajectory:
    """Fixed-step trajectory of the profile angle.

    The samples are held as three float arrays: thetas, alphas and dalphas. A
    stop reason marks the trajectory stopped early. states gives the samples
    back as ProfileState records.
    """

    def __init__(self, n: int, thetas, alphas, dalphas, stop_reason: str | None = None):
        self.n, self.stop_reason = n, stop_reason
        self.thetas, self.alphas, self.dalphas = (np.array(c, dtype=float) for c in (thetas, alphas, dalphas))

    @property
    def stopped_early(self) -> bool:
        return self.stop_reason is not None

    @property
    def states(self) -> list[ProfileState]:
        return list(map(ProfileState, self.thetas.tolist(), self.alphas.tolist(), self.dalphas.tolist()))


def _stop_number(x: float) -> str:
    """x in a stop reason: four decimals, or exponent form from 1e6 on, so the reason stays one short line."""
    return f"{x:.4f}" if abs(x) < 1e6 else f"{x:.4e}"


def integrate_alpha(
    n: int,
    alpha0: float,
    dalpha0: float,
    span: float,
    steps: int,
) -> AlphaTrajectory:
    """Classical RK4 trajectory of the profile-angle equation over theta from 0 to span.

    Integration stops early, flagged, when |alpha'| or sin(n alpha) enters
    the guard band around the singular sets, or when the state stops being
    finite (a step far too long for the flow). The stage tangents are
    math.tan, the C library's tan, which numpy itself calls on hosts without
    AVX-512; where numpy vectorizes tan, the two differ in the last bit for
    about 0.5 % of arguments. Such an ulp enters the state scaled by h/6 and
    is absorbed in the sum: the default flows at n = 3, 4, 5 and their order
    probes are the same sample for sample under either tan, and of 120 drawn
    flows (n = 3..6, 250 to 4000 steps) four moved, by at most 2.2e-16, with
    no stop reason changed. tan(n alpha) is taken once per state, at the end
    of each step: it screens the sin guard and is the next step's first
    stage. numpy's sin decides every stop. Sample k is at k h. OdeError when
    span / steps underflows to a zero step.
    """
    if steps < 1:
        raise OdeError("steps must be positive")
    # n alpha0 in Python floats: a product that overflows is inf, with no numpy warning
    span, n_alpha0 = float(span), float(n) * float(alpha0)
    if not np.all(np.isfinite([n_alpha0, dalpha0, span])):
        raise OdeError(
            f"non-finite initial data: alpha0 = {alpha0}, n alpha0 = {n_alpha0}, dalpha0 = {dalpha0}, span = {span}"
        )
    if abs(dalpha0) >= 1.0 - GUARD_BAND:
        raise OdeError(f"|dalpha0| = {abs(dalpha0)} violates the |alpha'| < 1 bound")
    if not abs(np.sin(n_alpha0)) > GUARD_BAND:
        raise OdeError(f"sin(n alpha0) = {np.sin(n_alpha0):.2e} too close to zero")
    h = span / steps
    if h == 0.0:
        raise OdeError(f"span / steps underflows to a zero step: span = {span}, steps = {steps}")
    a, p = float(alpha0), float(dalpha0)
    alphas, dalphas = [a], [p]
    stop_reason = None
    # the stages of alpha'' = (1 - alpha'^2) / tan(n alpha) in one fixed
    # operation order, each stage's dalpha its slope k_a (p at the first).
    # |sin x| <= g gives |tan x| <= g / sqrt(1 - g^2) < g (1 + 1e-6) at
    # g = GUARD_BAND, so outside the widened band the state's tan clears the guard
    tan, sin, half_h, nf = math.tan, np.sin, 0.5 * h, float(n)
    bound, screen = 1.0 - GUARD_BAND, GUARD_BAND * (1.0 + 1e-6)
    keep_a, keep_p = alphas.append, dalphas.append
    t = tan(n_alpha0)
    # both guards are negated comparisons, which also hold for NaN
    try:
        for k in range(steps):
            k1p = (1.0 - p * p) / t
            k2a = p + half_h * k1p
            k2p = (1.0 - k2a * k2a) / tan(nf * (a + half_h * p))
            k3a = p + half_h * k2p
            k3p = (1.0 - k3a * k3a) / tan(nf * (a + half_h * k2a))
            k4a = p + h * k3p
            k4p = (1.0 - k4a * k4a) / tan(nf * (a + h * k3a))
            a = a + h * (p + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
            p = p + h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
            if not abs(p) < bound:
                stop_reason = f"|alpha'| reached {_stop_number(abs(p))} at theta = {_stop_number((k + 1) * h)}"
                break
            t = tan(nf * a)
            if not abs(t) > screen and not abs(float(sin(nf * a))) > GUARD_BAND:
                stop_reason = f"sin(n alpha) vanished near theta = {_stop_number((k + 1) * h)}"
                break
            keep_a(a)
            keep_p(p)
    except (ZeroDivisionError, ValueError):
        # a stage whose n alpha is exactly 0.0 divides by its zero tan; an
        # infinite stage argument has no tan in math
        p = float("inf")
    if not (np.isfinite(a) and np.isfinite(p)):
        stop_reason = f"the state left the finite numbers near theta = {_stop_number((k + 1) * h)}"
    thetas = np.arange(len(alphas)) * h
    thetas[0] = 0.0
    return AlphaTrajectory(n, thetas, alphas, dalphas, stop_reason)


def ode_order_ratio(n, alpha0, dalpha0, span, steps: int) -> float | None:
    """Global-error ratio e1/e2 under step halving; about 16 for a 4th-order method.

    e1 and e2 are the largest 2-norms of the differences of the states
    (alpha, alpha') of the runs at steps, 2 steps and 4 steps, over the
    steps + 1 samples the three share: a final state alone can sit where the
    leading error term nearly vanishes. None when the finer difference e2 is
    at round-off level, at most PROBE_ROUNDOFF sqrt(4 steps) eps times the
    finest run's largest state norm there (an equilibrium, or a span too
    short for any truncation error to show): the ratio would then measure
    round-off, not order.
    """
    if span / (4 * steps) == 0.0:
        raise OdeError(f"the order probe's finest step underflows to zero: span = {span} over {4 * steps} steps")
    states = []
    for k in (1, 2, 4):
        traj = integrate_alpha(n, alpha0, dalpha0, span, k * steps)
        if traj.stopped_early:
            raise OdeError(f"trajectory stopped early: {traj.stop_reason}")
        states.append(np.stack([traj.alphas[::k], traj.dalphas[::k]], axis=-1))

    def largest_norm(d):
        return np.sqrt(row_dot(d, d).max())

    e1 = largest_norm(states[0] - states[1])
    e2 = largest_norm(states[1] - states[2])
    if e2 <= PROBE_ROUNDOFF * np.sqrt(4 * steps) * np.finfo(float).eps * largest_norm(states[2]):
        return None
    return float(e1 / e2)


def warp_constant(traj: AlphaTrajectory) -> float:
    """Constant fixing the warp factor, at the initial sample of a trajectory."""
    w0 = np.sqrt(1.0 - traj.dalphas[0] ** 2)
    return float(w0 / np.sqrt(2.0) * np.abs(np.sin(traj.n * traj.alphas[0])) ** (1.0 / traj.n))


def _arclength(traj: AlphaTrajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin n alpha, ds/dtheta = -sqrt(1 - alpha'^2) / (sqrt(2) sin n alpha) and d alpha/ds at every sample.

    s is the arclength of the profile; the square is a product, the
    correctly rounded square.
    """
    pa = traj.dalphas
    sn = np.sin(traj.n * traj.alphas)
    ds_dtheta = -np.sqrt(1.0 - pa * pa) / (np.sqrt(2.0) * sn)
    return sn, ds_dtheta, pa / ds_dtheta


def first_integral_residual(traj: AlphaTrajectory, c1: float | None = None) -> float:
    """Conservation defect of the first integral along the trajectory.

    The invariant combines the warp factor with the arclength derivative of
    alpha; c1 is fixed at the first sample unless supplied. The squares are
    products, each the correctly rounded square; the one fractional power
    |sin n alpha|^(-1/n) is a _pow pass, so each sample's value is that of
    scalar arithmetic (numpy's array power differs from it in the last bit).
    """
    n = traj.n
    if c1 is None:
        c1 = warp_constant(traj)
    sn, _, dalpha_ds = _arclength(traj)
    warp = c1 * _pow(np.abs(sn), -1.0 / n)
    lhs = warp * warp * (2.0 + dalpha_ds * dalpha_ds / (sn * sn))
    # fmax skips NaN samples, as a running Python max does
    return float(np.fmax.reduce(np.abs(lhs - 1.0), initial=0.0))


# ---------------------------------------------------------------------------
# profile curve
# ---------------------------------------------------------------------------

def _curve_and_conormal(theta, alpha, dalpha):
    """The three profile-curve coordinates at arrays (or numbers) of samples, then the three of its conormal.

    The unit conormal is in the moving frame of the orbit sphere; all six
    come from one set of cos and sin.
    """
    c, s = np.cos(alpha), np.sin(alpha)
    ct, st = np.cos(theta), np.sin(theta)
    w = np.sqrt(np.maximum(0.0, 1.0 - dalpha * dalpha))
    return (
        -s * w, c * st - s * ct * dalpha, -c * ct - s * st * dalpha,
        -(w * c), -(c * dalpha * ct + s * st), -(c * dalpha * st - s * ct),
    )


def profile_curve(traj: AlphaTrajectory) -> np.ndarray:
    """The (N, 3) profile-curve points of the trajectory's samples, each checked to lie on the unit sphere."""
    gammas = np.stack(_curve_and_conormal(traj.thetas, traj.alphas, traj.dalphas)[:3], axis=-1)
    defect = np.abs(np.linalg.norm(gammas, axis=1) - 1.0).max()
    # negated, so that a NaN defect fails too
    if not defect <= 1e-8:
        raise OdeError(f"profile curve left the unit sphere (defect {defect:.2e})")
    return gammas


def ode_equivalence_residual(traj: AlphaTrajectory) -> float:
    """Residual of the arclength form of the profile equation.

    Transforms the trajectory to the arclength parameter and checks the
    second-order equation there with interior finite differences; validates
    that the two forms of the flow agree. 0.0 below five samples, where no
    interior point has a five-point stencil.
    """
    n = traj.n
    th = traj.thetas
    if len(th) < 5:
        return 0.0
    _, ds_dtheta, q = _arclength(traj)
    dq_ds = central_first(q[4:], q[3:-1], q[1:-3], q[:-4], th[1] - th[0]) / ds_dtheta[2:-2]
    mid_al, mid_q = traj.alphas[2:-2], q[2:-2]
    resid = dq_ds - (n + 1) / np.tan(n * mid_al) * mid_q**2 - np.sin(2 * n * mid_al)
    return float(np.abs(resid).max(initial=0.0))


# ---------------------------------------------------------------------------
# the profile series and the rotational chart
# ---------------------------------------------------------------------------

# a Chebyshev coefficient at most SERIES_TAIL times the largest one is negligible
SERIES_TAIL = 1e-13
SERIES_START_DEGREE = 32


class ProfileSeries:
    """Chebyshev series of alpha and of alpha' over [lo, hi].

    coeffs[:, 0] holds the coefficients of alpha, coeffs[:, 1] those of its
    derivative series, both in T_k(t), t = (2 theta - (lo + hi)) / (hi - lo).
    Called on an array of theta, it gives the arrays alpha and alpha' from
    one Clenshaw recurrence over both columns, element by element, so every
    row is that of its abscissa alone. A chart calls it once per batch, on
    the batch's distinct theta only.
    """

    def __init__(self, lo: float, hi: float, coeffs: np.ndarray):
        dc = np.zeros(len(coeffs) + 1)
        for k in range(len(coeffs) - 1, 0, -1):
            dc[k - 1] = dc[k + 1] + 2.0 * k * coeffs[k]
        dc[0] *= 0.5
        self.lo, self.hi = lo, hi
        self.coeffs = np.stack([coeffs, dc[:-1] * (2.0 / (hi - lo))], axis=-1)

    def __call__(self, theta):
        t = ((2.0 * np.asarray(theta, dtype=float) - (self.lo + self.hi)) / (self.hi - self.lo))[..., None]
        two_t, b1, b2 = 2.0 * t, 0.0, 0.0
        for c in self.coeffs[:0:-1]:
            b1, b2 = c + two_t * b1 - b2, b1
        out = self.coeffs[0] + t * b1 - b2
        return out[..., 0], out[..., 1]


def profile_series(traj: AlphaTrajectory) -> ProfileSeries:
    """The Chebyshev series of alpha over the trajectory's span, fitted on a few of its samples.

    At degree d the fit takes the samples nearest 2 (d + 1) Chebyshev points,
    where the Chebyshev rows are well conditioned enough for the normal
    equations. d doubles from SERIES_START_DEGREE until the last quarter of
    the coefficients is negligible; the negligible tail is dropped. OdeError
    when a degree takes more Chebyshev points than the trajectory has samples.
    """
    th, al = traj.thetas, traj.alphas
    lo, hi, degree = float(th[0]), float(th[-1]), SERIES_START_DEGREE
    while (m := 2 * (degree + 1)) <= len(th):
        nodes = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.pi * (np.arange(m) + 0.5) / m)
        rows = np.rint(np.interp(nodes, th, np.arange(len(th)))).astype(int)
        t = np.clip((2.0 * th[rows] - (lo + hi)) / (hi - lo), -1.0, 1.0)
        v = np.cos(np.arccos(t)[:, None] * np.arange(degree + 1))
        c = np.linalg.solve(v.T @ v, v.T @ al[rows])
        kept = np.flatnonzero(np.abs(c) > SERIES_TAIL * np.abs(c).max())[-1] + 1
        if kept <= degree + 1 - (degree + 1) // 4:
            return ProfileSeries(lo, hi, c[:kept])
        degree *= 2
    raise OdeError(f"a Chebyshev series of degree {degree} for the profile takes {m} samples, "
                   f"the trajectory has {len(th)}")


def rotational_angles(alpha, n: int):
    """Expected mod-pi angle pair (profile, orbit) for the profile angle, or for an array of them."""
    return np.mod((n - 1) * alpha, np.pi), np.mod(-alpha, np.pi)


def build_rotational_chart(traj: AlphaTrajectory) -> HypersurfaceChart:
    """Rotational hypersurface chart of the trajectory, over (profile parameter, orbit angles).

    Principal curvatures follow the (1, n-1) pattern cot((n-1) alpha) and
    -cot(alpha). Requires sin(alpha), sin((n-1) alpha) and sin(n alpha)
    positive along the curve (the regime of the default trajectories) and a
    non-vanishing orbit radius. alpha and alpha' come from the trajectory's
    one profile_series, kept as meta["alpha"].
    """
    n = traj.n
    if n < 3:
        raise OdeError("rotational charts need n >= 3")
    al, pa, th = traj.alphas, traj.dalphas, traj.thetas
    if len(th) < 2:
        raise OdeError(f"a chart needs at least two samples, the trajectory has {len(th)}")
    # each gate negated, so that a NaN sample fails it too
    if not np.min(np.sin(n * al)) > GUARD_BAND:
        raise OdeError("sin(n alpha) leaves the positive regime on this trajectory")
    if not (np.min(np.sin((n - 1) * al)) > 1e-6 and np.min(np.sin(al)) > 1e-6):
        raise OdeError(
            "profile angle leaves the regime 0 < alpha < pi/(n-1) supported "
            "by the chart formulas"
        )
    w = np.sqrt(1.0 - pa**2)
    radius = np.abs(np.sin(al) * w)
    if not radius.min() > 1e-4:
        raise OdeError(
            f"orbit radius vanishes along the curve (min {radius.min():.2e}): "
            f"the rotation axis is hit"
        )
    pad = max(0.02, 10.0 * (th[1] - th[0]))
    lo, hi = th[0] + pad, th[-1] - pad
    if hi - lo < 0.05:
        raise OdeError("trajectory too short to carve out a chart box")
    alpha = profile_series(traj)
    lows = np.concatenate([[lo], np.full(n - 1, -0.4)])
    highs = np.concatenate([[hi], np.full(n - 1, 0.4)])

    @shared_work
    def profile(x):
        """Per row, the profile-curve point and its conormal (..., 6), and the orbit sphere point.

        Everything of theta alone is computed once per distinct theta of the
        batch (a stencil steps theta along one axis only) and gathered back
        to the rows. Distinct means distinct bits, so +0.0 and -0.0 keep
        their own rows.
        """
        bits, rows = np.unique(x[..., 0].view(np.int64), return_inverse=True)
        theta = bits.view(float)
        curve = np.stack(_curve_and_conormal(theta, *alpha(theta)), axis=-1)
        return curve[rows.reshape(x.shape[:-1])], sphere_chart(n - 1, x[..., 1:])

    def embed(x):
        curve, orbit = profile(x)
        return np.concatenate([curve[..., :1] * orbit, curve[..., 1:3]], axis=-1)

    def normal(x):
        curve, orbit = profile(x)
        return np.concatenate([curve[..., 3:4] * orbit, curve[..., 4:]], axis=-1)

    return HypersurfaceChart(
        dim=n,
        embed=embed,
        normal=normal,
        box=Box(lows=lows, highs=highs),
        name="rotational",
        meta={"n": n, "c1": warp_constant(traj), "alpha": alpha},
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


def principal_pattern_residual(jet: GaussJet, n: int) -> np.ndarray:
    """Principal curvatures against the (1, n-1) cotangent pattern of the profile angle, per row at a batch."""
    alpha = jet.chart.meta["alpha"](jet.point[..., 0])[0]
    prof_th, orbit_th = rotational_angles(alpha, n)
    cots = [np.cos(prof_th) / np.sin(prof_th)] + [np.cos(orbit_th) / np.sin(orbit_th)] * (n - 1)
    expected = np.sort(np.stack(cots, axis=-1), axis=-1)
    return np.abs(np.sort(jet.lambdas, axis=-1) - expected).max(axis=-1)


def warped_curvature_check(
    chart: HypersurfaceChart,
    n: int,
    c1: float,
    steps: FdSteps | None = None,
) -> dict[str, float]:
    """Residuals of the profile checks at the box center p, from the Gauss side only.

    About each center q of p - 5H e_0, p and p + 5H e_0 (H the field step),
    the points q + c (H/2) e_0, c = -2..2, give the induced metric: about p
    as one batch of Gauss-map jets, which also give the profile angle alpha
    (from the angle functions), about the other centers as one metric call.
    The metrics give the factor sqrt(g_00) and the warp factor rho of the
    orbit block, and all of these their five-point derivatives in the profile
    coordinate. In report order: the orbit block of the metric is conformally
    round with warp factor c1 (sin n alpha)^(-1/n); the rescaled fiber
    curvature, its orbit-plane curvature from one metric-route call at the
    three centers, is the constant 1 at each and chains at p through the warp
    factor and the arclength derivative of alpha; alpha satisfies the
    arclength form of the profile equation; and the principal curvatures at
    p follow the (1, n-1) pattern of alpha. Nothing from the integrator
    enters except the chart.
    """
    steps = steps or FdSteps()
    metric = gauss_metric_fn(chart, steps)
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

    centers = chart.box.center + (np.array([-5.0, 0.0, 5.0]) * dth)[:, None] * e0
    x = centers + (np.arange(-2.0, 3.0) * h)[:, None, None] * e0  # (offset, center, coordinates)
    jets = gauss_map(chart, x[:, 1], steps)
    sides = metric(x[:, ::2])
    gs = np.stack([sides[:, 0], jets.lift_metric, sides[:, 1]], axis=1)
    alphas = [np.pi - _orbit_and_profile_angles(th, n)[1] for th in angle_spectrum(jets).thetas]
    vs = np.sqrt(gs[:, 1, 0, 0]).tolist()
    rhos, off_blocks, spreads = warp_at(x, gs)

    def d_dtheta(f):
        return central_first(f[4], f[3], f[1], f[0], h)

    alpha, v0, rho = alphas[2], vs[2], rhos[2, 1]
    du = d_dtheta(alphas)
    ddu = central_second(*alphas[::-1], h)
    dv = d_dtheta(vs)
    e1_alpha = du / v0
    e1_e1_alpha = (ddu * v0 - du * dv) / v0**3

    g_c = gs[2]
    r = curvature_from_metric(metric, centers, steps.metric, g_c)
    k_orbit = sectional_from_metric(r, g_c, axis(n, 1), axis(n, 2))
    e1_rho = d_dtheta(rhos) / np.sqrt(g_c[:, 0, 0])
    kf_samples = rhos[2] ** 2 * (k_orbit + (e1_rho / rhos[2]) ** 2)
    k_fiber = kf_samples[1]
    warp_law = c1 * np.sin(n * alpha) ** (-1.0 / n)
    rhs_chain = warp_law**2 * (2.0 + e1_alpha**2 * np.sin(n * alpha) ** (-2.0))
    return {
        "warp_block_diagonal": off_blocks[2, 1],
        "warp_block_conformal": spreads[2, 1],
        "warp_factor_law": abs(rho - warp_law),
        "fiber_curvature_normalized": abs(k_fiber - 1.0),
        "fiber_curvature_chain": abs(k_fiber - rhs_chain),
        "fiber_curvature_variance": float(np.var(kf_samples)),
        "profile_second_order_ode": abs(
            e1_e1_alpha - (n + 1) / np.tan(n * alpha) * e1_alpha**2 - np.sin(2 * n * alpha)
        ),
        "principal_vs_angle_pattern": float(principal_pattern_residual(jets, n)[2]),
    }
