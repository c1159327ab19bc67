import numpy as np
import pytest

from quadriclab.hypersurfaces import (
    cartan_tube,
    product_spheres,
    round_sphere,
)
from quadriclab.rotational import build_rotational_chart, integrate_alpha
from references import perturbed_sphere


@pytest.fixture(scope="session")
def sphere_half():
    return round_sphere(3, 1.0 / np.sqrt(2.0))


@pytest.fixture(scope="session")
def clifford_torus():
    return product_spheres(1, 2, 1.0 / np.sqrt(2.0))


@pytest.fixture(scope="session")
def product_13():
    return product_spheres(1, 3, 0.55)


@pytest.fixture(scope="session")
def tube():
    return cartan_tube(0.35)


@pytest.fixture(scope="session")
def wavy_sphere():
    return perturbed_sphere()


@pytest.fixture(scope="session")
def rotational_chart():
    traj = integrate_alpha(3, np.pi / 12.0, 0.0, 0.8, 4000)
    assert not traj.stopped_early
    return build_rotational_chart(traj)


@pytest.fixture(scope="session")
def rotational_trajectory():
    return integrate_alpha(3, np.pi / 12.0, 0.0, 0.8, 4000)
