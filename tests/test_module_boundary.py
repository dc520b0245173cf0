"""Each module keeps its private names, and the solver stays an independent check.

The time-domain solver builds its operator from the element-wise recipe,
so the decay-rate check tests the symbol only while ``advect`` does not
assemble the symbol itself. It takes the physical mode from ``spectrum``
by name and nothing below it, and that mode does not come from the
sweeps' branch tracker. The sweeps anchor their branch on the same
plane-wave-weight helper. A start imports only the modules it runs.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frspectra

SRC = Path(frspectra.__file__).parent

# The symbol's own construction, which the solver must not reach for.
SYMBOL_BUILDERS = {"DirectionSymbols", "build_blocks", "checked_eig", "assemble_symbol"}


def _imports():
    """(importing module, imported module, name) for every ``from .x import y``."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "frspectra"
            ):
                for alias in node.names:
                    yield path.stem, node.module or "", alias.name


def test_no_module_imports_another_modules_private_name():
    private = sorted(
        (importer, module, name) for importer, module, name in _imports()
        if name.startswith("_") and not name.startswith("__")  # dunders are public
    )
    assert not private, f"private names imported across modules: {private}"


def test_solver_imports_the_mode_but_not_the_symbol():
    from_advect = {(module, name) for importer, module, name in _imports() if importer == "advect"}
    builders = sorted(name for _, name in from_advect if name in SYMBOL_BUILDERS)
    assert not builders, f"advect imports the symbol's construction: {builders}"
    assert ("spectrum", "physical_eigenvector") in from_advect  # the walk sees advect's imports


def _spectrum_function(name):
    tree = ast.parse((SRC / "spectrum.py").read_text())
    [func] = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return func


def test_wave_carrying_mode_does_not_track_branches():
    """The time-domain check takes its mode by plane-wave weight, so it
    stays independent of the sweeps' branch tracking."""
    tracker = {"track_branches", "tracked_frequencies", "_check_anchor", "_anchor_ladder"}
    for name in ("physical_eigenvector", "wave_modes"):
        func = _spectrum_function(name)
        named = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}
        assert not named & tracker, f"{name} names the tracker: {sorted(named & tracker)}"


def test_one_rule_picks_the_physical_mode():
    """The sweeps' anchor and the time-domain mode both come from the one
    plane-wave-weight helper, so a second rule cannot come back unnoticed."""
    for name in ("factored_sweep", "physical_eigenvector"):
        called = {
            node.func.id for node in ast.walk(_spectrum_function(name))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert "wave_modes" in called, f"{name} does not call wave_modes"


@pytest.mark.parametrize("first", ["generate", "JitteredMesh", "mesh"])
def test_a_start_imports_only_what_it_runs(first):
    """No sweep or check runs the mesh generator or a thread pool, so
    importing the package and its CLI loads neither; the mesh names are
    listed, and each resolves on first access."""
    code = f"""
import sys
import frspectra, frspectra.cli
loaded = [m for m in ("frspectra.mesh", "concurrent.futures") if m in sys.modules]
assert not loaded, loaded
names = {{"mesh", "generate", "JitteredMesh"}}
assert names <= set(dir(frspectra)), names - set(dir(frspectra))
value = frspectra.{first}
mesh = sys.modules["frspectra.mesh"]
assert value is (mesh if {first!r} == "mesh" else getattr(mesh, {first!r}))
assert frspectra.mesh is mesh and frspectra.generate is mesh.generate
assert not hasattr(frspectra, "no_such_name")
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
