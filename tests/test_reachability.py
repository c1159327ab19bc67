"""Every function in the package is reached by a command, or claimed.

The CLI runs below cover every example in both gauges, `angles`, `ode` at
n = 3 and 4, one configuration error, one usage error and one trajectory
that stops early. They run in process under sys.setprofile. Each function
or method defined in src/quadriclab, closures and lambdas included, must be
called by one of them or be covered by an entry of LIBRARY_ONLY, which
names what claims it: the ambient model that ROADMAP items 13 and 20 put on
a command's path, or bench/tracing.py. Code that only tests call belongs in
tests/references.py. An entry covers the functions nested in the one it
names.
"""

import inspect
import pathlib
import sys

import pytest

import quadriclab
from quadriclab import cli

SRC = pathlib.Path(quadriclab.__file__).parent

RUNS = [
    ["verify", "--example", example, "--gauge", gauge, "--grid", "2"]
    for example in cli.EXAMPLES
    for gauge in ("normalized", "canonical")
] + [
    ["angles", "--example", "cartan", "--grid", "2"],
    ["ode", "--n", "3"],
    ["ode", "--n", "4"],
    ["verify", "--example", "sphere", "--k", "2"],  # configuration error: a parameter sphere does not read
    ["verify", "--grid", "x"],  # usage error
    ["ode", "--span", "1e10", "--steps", "3"],  # a trajectory that stops early: exit 2 naming the stop
]

AMBIENT = "the ambient model of the hyperquadric, for ROADMAP items 13 and 20"

LIBRARY_ONLY = {
    "quadric.horizontality_residual": AMBIENT,
    "quadric.quadric_residual": AMBIENT,
    "quadric.horizontal_project": AMBIENT,
    "quadric._hermitian": AMBIENT,
    "quadric.product_structure": AMBIENT + "; acceptance criterion 11",
    "quadric.metric": AMBIENT + "; acceptance criterion 11",
    "quadric.quadric_curvature": AMBIENT + "; acceptance criterion 01",
    "quadric.horizontal_frame": AMBIENT + "; acceptance criterion 01",
    "quadric.ricci_matrix": AMBIENT + "; acceptance criterion 01 (Einstein constant 2n)",
    "rotational.AlphaTrajectory.states": "bench/tracing.py counts RK4 steps with it (ROADMAP item 1)",
}


def defined_functions() -> dict:
    """(file, first line, qualified name) -> 'module.qualname' for every function compiled from the package."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            # class bodies and the module lack new locals; comprehensions are parts of functions
            if code.co_flags & inspect.CO_NEWLOCALS and (code.co_name == "<lambda>" or code.co_name[0] != "<"):
                found[(code.co_filename, code.co_firstlineno, code.co_qualname)] = f"{path.stem}.{code.co_qualname}"
    return found


def claimed(name: str) -> bool:
    return any(name == entry or name.startswith(entry + ".") for entry in LIBRARY_ONLY)


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set:
    out = str(tmp_path_factory.mktemp("reachability"))
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # a parser cached by an earlier test would keep the traced runs out of _build_parser
    cli._build_parser.cache_clear()
    sys.setprofile(profile)
    try:
        for argv in RUNS:
            try:
                cli.main(argv + ["--out", out])
            except SystemExit:
                pass
    finally:
        sys.setprofile(None)
    return {(c.co_filename, c.co_firstlineno, c.co_qualname) for c in codes}


def test_every_function_is_reached_or_claimed(reached):
    unclaimed = sorted(name for key, name in defined_functions().items() if key not in reached and not claimed(name))
    assert unclaimed == []


def test_allow_list_names_only_unreached_functions(reached):
    functions = defined_functions()
    names = set(functions.values())
    assert sorted(entry for entry in LIBRARY_ONLY if entry not in names) == []
    reached_names = {name for key, name in functions.items() if key in reached}
    assert sorted(entry for entry in LIBRARY_ONLY if entry in reached_names) == []


def test_allow_list_holds_only_the_ambient_model_and_the_tracer_hook():
    # a function that only tests call belongs in tests/references.py, not in
    # src/ with an entry here
    assert sorted(e for e in LIBRARY_ONLY if not e.startswith("quadric.")) == ["rotational.AlphaTrajectory.states"]
