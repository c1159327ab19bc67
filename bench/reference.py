"""Reference values computed apart from the program.

Closed-form principal curvatures and distinct-angle counts of the catalog
examples, their chart boxes, and a scipy integration of the profile-angle
equation. scipy serves only as this reference; quadriclab never imports it.
"""

from __future__ import annotations

import math

# Sectional curvature of the Gauss-map metric named by the paper.
SECTIONAL_TARGETS = {"sphere": 2.0, "cartan": 0.125, "product-n2": 0.0}

DISTINCT_ANGLES = {"sphere": 1, "product": 2, "cartan": 3}


def principal_curvatures(example: str, n: int, params: dict) -> list[float]:
    """Principal curvatures of a catalog example, ascending."""
    if example == "sphere":
        r = params["r"]
        lams = [math.sqrt(1.0 - r * r) / r] * n
    elif example == "product":
        k, r1 = params["k"], params["r1"]
        r2 = math.sqrt(1.0 - r1 * r1)
        lams = [r2 / r1] * k + [-r1 / r2] * (n - k)
    elif example == "cartan":
        t = params["t"]
        lams = [1.0 / math.tan(k * math.pi / 3.0 - t) for k in range(3)]
    else:
        raise ValueError(f"no closed form for '{example}'")
    return sorted(lams)


def chart_box(example: str, n: int, params: dict) -> list[tuple[float, float]]:
    """Coordinate box every sample point must lie in."""
    if example in ("sphere", "product"):
        return [(-0.45, 0.45)] * n
    if example == "cartan":
        return [(-0.35, 0.35), (-0.35, 0.35), (-0.6, 0.6)]
    if example == "rotational":
        # profile parameter over the integrated span, orbit angles in a cube
        return [(0.0, params.get("span", 0.8))] + [(-0.4, 0.4)] * (n - 1)
    raise ValueError(f"no chart box for '{example}'")


def profile_endpoint(n: int, alpha0: float, span: float, dalpha0: float = 0.0) -> tuple[float, float]:
    """(alpha, alpha') at the end of the span for alpha'' = (1 - alpha'^2) cot(n alpha)."""
    from scipy.integrate import solve_ivp

    def rhs(_, y):
        return [y[1], (1.0 - y[1] * y[1]) / math.tan(n * y[0])]

    sol = solve_ivp(rhs, (0.0, span), [alpha0, dalpha0], method="DOP853", rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return float(sol.y[0, -1]), float(sol.y[1, -1])
