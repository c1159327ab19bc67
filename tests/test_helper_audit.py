"""No np.take_along_axis or np.pad call in src/quadriclab.

Both are numpy helpers written in Python, a few microseconds of fixed cost
per call on the Gauss-map path, where the arrays are a few rows wide:
numerics.gather and slice differences do their work there. The test walks
the package source with ast and fails on any call to either, as an attribute
(np.pad) or a bare name (from numpy import pad).
"""

import ast
import pathlib

import quadriclab

SRC = pathlib.Path(quadriclab.__file__).parent

BANNED = {"take_along_axis", "pad"}


def helper_calls(src: pathlib.Path = SRC) -> list:
    """(module, helper, line) of every call to a banned helper under src."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BANNED:
                found.append((path.stem, name, node.lineno))
    return found


def test_no_numpy_helper_calls_in_the_package():
    assert helper_calls() == []


def test_finds_helper_calls(tmp_path):
    source = (
        "import numpy as np\nfrom numpy import pad\n\n"
        "def f(a, i):\n    return np.take_along_axis(np.pad(a, 1), i, axis=-1) + pad(a, 1)\n"
    )
    (tmp_path / "probe.py").write_text(source)
    assert sorted(helper_calls(tmp_path)) == [("probe", "pad", 5), ("probe", "pad", 5), ("probe", "take_along_axis", 5)]
