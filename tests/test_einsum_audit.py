"""Every einsum of three or more operands in src/quadriclab, pinned with its cost.

Without optimize, numpy runs an einsum as one loop over all of its indices,
so its cost is the product of every index range: a five-operand frame
transform once cost n^8 per point (ROADMAP item 16). The test walks the
package source with ast and lists each np.einsum call with three or more
operands by (module, function, subscripts). The list must equal CONTRACTIONS,
which gives each one's loop size per batch row as (indices over the n tangent
directions, indices over the n + 2 ambient coordinates). A new multi-operand
contraction fails here until it is added with its cost.
"""

import ast
import pathlib

import quadriclab

SRC = pathlib.Path(quadriclab.__file__).parent

# (module, function, subscripts) -> (tangent indices, ambient indices, what one batch row is)
CONTRACTIONS = {
    # open: a fixed pair of two-operand contractions would cost n^3 (n+2) per jet,
    # but it rounds differently, so the cubic-form residuals would move
    ("gaussmap", "second_fundamental_form", "...ia,...jb,...abm->...ijm"): (4, 1, "jet"),
    ("verify", "curvature_from_metric", "...ef,...eac,...fbd->...acbd"): (6, 0, "point"),
    ("verify", "gauss_equation_residual", "jk,il,...ij->...ijkl"): (4, 0, "point"),
    ("verify", "gauss_equation_residual", "ik,jl,...ij->...ijkl"): (4, 0, "point"),
    ("verify", "codazzi_residual", "...ij,jk,il->...ijkl"): (4, 0, "point"),
    ("verify", "codazzi_residual", "...ij,ik,jl->...ijkl"): (4, 0, "point"),
}

# the largest loop allowed per batch row: n^6, the metric route's Christoffel product
MAX_INDICES = 6


def multi_operand_einsums(src: pathlib.Path = SRC) -> list:
    """(module, function, subscripts) of every np.einsum call with three or more operands under src.

    A call belongs to the innermost function around it.
    """
    found = []
    for path in sorted(src.glob("*.py")):
        owner = {}
        # ast.walk reaches an outer function before the functions nested in it
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn) if isinstance(node, ast.Call))
        for node, name in owner.items():
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "einsum" and len(node.args) >= 4:
                subscripts = node.args[0]
                assert isinstance(subscripts, ast.Constant), f"{path.stem}.{name}: subscripts must be a literal"
                found.append((path.stem, name, subscripts.value))
    return found


def test_every_multi_operand_einsum_is_pinned():
    found = multi_operand_einsums()
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(CONTRACTIONS)


def test_pinned_costs_count_every_index():
    for (_, _, subscripts), (tangent, ambient, _) in CONTRACTIONS.items():
        indices = set(subscripts.replace("...", "")) - set(",->")
        assert len(indices) == tangent + ambient, subscripts
        assert tangent + ambient <= MAX_INDICES, subscripts


def test_finds_a_five_operand_contraction(tmp_path):
    # the audit sees the O(n^8) frame transform that the Gauss equation once used
    source = 'import numpy as np\n\ndef f(r, m):\n    return np.einsum("abcd,ia,jb,kc,ld->ijkl", r, m, m, m, m)\n'
    (tmp_path / "probe.py").write_text(source)
    assert multi_operand_einsums(tmp_path) == [("probe", "f", "abcd,ia,jb,kc,ld->ijkl")]
