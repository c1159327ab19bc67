"""Package-level contracts of quadriclab."""

import importlib
import pkgutil

import pytest

import quadriclab

MODULES = sorted(m.name for m in pkgutil.iter_modules(quadriclab.__path__))


def test_modules_found():
    assert {"numerics", "hypersurfaces", "gaussmap", "verify", "rotational", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # tracing and star imports discover a module's public functions through
    # __all__, so a name deleted from a module must leave its __all__ too
    module = importlib.import_module(f"quadriclab.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
