"""The dense reference paths stay test oracles: no production code calls them."""
import ast
from pathlib import Path

import frspectra

SRC = Path(frspectra.__file__).parent

# Dense (p+1)^d references that the factored production paths are checked against.
ORACLES = {
    "lift_to_dimension",
    "assemble_symbol",
    "symbol_for",
    "analyze",
    "_eig_sorted",
    "plane_wave_samples",
    "diagonalization_residual",
    "build_update",
    "fully_discrete_spectrum",
}


def _uses(tree: ast.Module):
    """(owner, name) for every load of a name in ORACLES; the owner is the
    top-level function or "Class.method" it sits in, or None at module level."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owned = [(top.name, top)]
        elif isinstance(top, ast.ClassDef):
            owned = [(f"{top.name}.{node.name}", node) for node in top.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            owned += [(None, node) for node in top.body
                      if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        else:
            owned = [(None, top)]
        for owner, root in owned:
            for node in ast.walk(root):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name in ORACLES:
                    yield owner, name


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_only_oracles_use_oracles():
    uses = {(module, owner, name) for module, tree in _modules().items()
            for owner, name in _uses(tree)}
    outside = sorted((m, str(o), n) for m, o, n in uses if o not in ORACLES)
    assert not outside, f"production code uses dense oracles: {outside}"
    # the walk sees the oracles' own calls, so an empty result above is not vacuous
    assert ("spectrum.py", "analyze", "_eig_sorted") in uses
    assert ("operator.py", "assemble_symbol", "lift_to_dimension") in uses


def test_every_oracle_is_defined():
    defined = {node.name for tree in _modules().values() for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert ORACLES <= defined
