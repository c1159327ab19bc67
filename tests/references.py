"""Reference helpers that only tests use: random test data and formulas the package does not ship.

Import them in a test module with `from references import ...` (pytest puts
this directory on the import path).
"""

import numpy as np

from quadriclab.quadric import HorizontalVector, StiefelPoint, horizontal_project


def box_sample(box, rng: np.random.Generator, margin: float = 0.0) -> np.ndarray:
    """A uniform random point margin inside a chart box."""
    return rng.uniform(box.lows + margin, box.highs - margin)


def random_stiefel(n: int, rng: np.random.Generator) -> StiefelPoint:
    """Random valid lift in dimension n (vectors have length n+2)."""
    m = rng.standard_normal((n + 2, 2))
    q, _ = np.linalg.qr(m)
    return StiefelPoint(u=q[:, 0] / np.sqrt(2.0), v=q[:, 1] / np.sqrt(2.0))


def random_horizontal(p: StiefelPoint, rng: np.random.Generator, unit: bool = False) -> HorizontalVector:
    """Random horizontal vector at the lift p, of unit length when unit is set."""
    dim = p.u.shape[0]
    w = horizontal_project(p, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    if unit:
        w = w / np.sqrt(np.vdot(w, w).real)
    return HorizontalVector(base=p, w=w)


def quadric_distance(p1: StiefelPoint, p2: StiefelPoint) -> float:
    """Distance between the underlying quadric points (phase-insensitive chord)."""
    overlap = abs(np.vdot(p1.z, p2.z))
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * overlap)))


def profile_velocity(theta: float, alpha: float, dalpha: float, n: int) -> np.ndarray:
    """Analytic derivative of the profile curve with respect to theta."""
    c, s = np.cos(alpha), np.sin(alpha)
    w = np.sqrt(max(0.0, 1.0 - dalpha * dalpha))
    kappa = w * np.sin((n - 1) * alpha) / np.sin(n * alpha)
    return kappa * np.array([-dalpha, w * np.cos(theta), w * np.sin(theta)])
