"""Each module keeps its private names, and the solver stays an independent check.

The time-domain solver builds its operator from the element-wise recipe,
so the decay-rate check tests the symbol only while ``advect`` does not
assemble the symbol itself. It takes the physical mode from ``spectrum``
by name and nothing below it, and that mode does not come from the
sweeps' branch tracker. The sweeps anchor their branch on the same
plane-wave-weight helper. A start imports only the modules it runs, and
no benchmark item imports a numpy or frspectra module the start did not.
Every public function and method has a production caller, and every
defaulted parameter of one a production call that passes it.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frspectra

SRC = Path(frspectra.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"

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


def test_a_start_imports_only_what_it_runs():
    """No sweep or check runs the mesh generator or a thread pool, so
    importing the package and its CLI loads neither."""
    code = """
import sys
import frspectra, frspectra.cli
loaded = [m for m in ("frspectra.mesh", "concurrent.futures") if m in sys.modules]
assert not loaded, loaded
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_the_mesh_names_live_only_in_their_module():
    """The package re-exports nothing of the mesh generator; its users import
    ``frspectra.mesh`` themselves."""
    from frspectra import mesh

    for name in ("CUBE_SHAPE_FACTOR", "JitteredMesh", "MeshGenerationError", "generate",
                 "shape_factor", "write_mesh"):
        assert hasattr(mesh, name), name
        assert not hasattr(frspectra, name), name


@pytest.mark.parametrize("workload", ["sweep2d", "sweep3d", "stability", "timedomain"])
def test_no_item_loads_a_module_after_start(workload):
    """A module an item imports on first use is paid by the first item of
    every benchmark pass (``np.unique`` imported ``numpy.ma`` in the first
    decay-rate check). So after the benchmark worker's start (numpy, the
    package and its CLI) the ``tiny`` items of a workload load no
    ``numpy.*`` or ``frspectra.*`` module. ``workloads.py`` is compiled from
    its source, so nothing is written under ``perfbench/``."""
    code = f"""
import sys, types
from pathlib import Path
import numpy, frspectra, frspectra.cli
path = {str(WORKLOADS)!r}
workloads = types.ModuleType("perfbench_workloads")
workloads.__file__ = path
exec(compile(Path(path).read_text(), path, "exec"), workloads.__dict__)
for item in workloads.make_items({workload!r}, workloads.DEFAULT_SEED, tiny=True):
    before = set(sys.modules)
    workloads.run_item(item)
    new = sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "frspectra"))
    if new:
        print(item["label"] + ": " + ", ".join(new))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert not run.stdout, "modules loaded after start:\n" + run.stdout


# Public definitions that production code does not call, kept on purpose.
UNCALLED_BY_DESIGN = {
    # documented constructors of grids and stencils
    "PeriodicGrid.mirrored_geometric",
    "PeriodicGrid.explicit",
    "StretchedStencil.stretched",
    # the mesh audit's rule for one element
    "shape_factor",
    # framework hook: argparse calls it on a usage error
    "_Parser.error",
}


def _public_definitions():
    """(qualified name, name, is_method) of every public top-level function
    and every public method of a top-level class in the package."""
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                yield top.name, top.name, False
            elif isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield f"{top.name}.{node.name}", node.name, True


def _production_loads(oracles):
    """(names, attributes) loaded in the package outside the oracles' own
    bodies, in ``scripts/`` and in ``perfbench/`` outside its tests."""
    names, attributes = set(), set()
    paths = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in paths:
        if path.name.startswith("test_"):
            continue
        for top in ast.parse(path.read_text()).body:
            if path.parent == SRC and isinstance(top, ast.FunctionDef) and top.name in oracles:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
    return names, attributes


def test_every_public_definition_has_a_production_caller():
    """A function or method only tests call is code that production carries
    for nothing. A method counts as called when loaded as an attribute, a
    function when loaded by name or as an attribute; the dense oracles and
    the functions the benchmark tracer wraps by name are exempt."""
    from test_benchmark_names import LAYER_FUNCTIONS
    from test_oracle_boundary import ORACLES

    names, attributes = _production_loads(ORACLES)
    exempt = ORACLES | UNCALLED_BY_DESIGN | {attr for _, attr in LAYER_FUNCTIONS}
    uncalled = sorted(
        qualified for qualified, name, is_method in _public_definitions()
        if qualified not in exempt
        and name not in attributes and (is_method or name not in names)
    )
    assert not uncalled, f"public definitions with no production caller: {uncalled}"
    assert not UNCALLED_BY_DESIGN - {q for q, _, _ in _public_definitions()}  # no stale entry


def _package_classes():
    return {top.name for path in SRC.glob("*.py") for top in ast.parse(path.read_text()).body
            if isinstance(top, ast.ClassDef)}


def _defaulted_parameters():
    """(qualified name, callee name, {parameter: positional index or None}) of
    the defaulted parameters of every public function, public method and
    ``__init__`` of a top-level class; a constructor is called by its class
    name, a classmethod by ``Class.method``, and the index of a method counts
    from after ``self``/``cls``."""
    def defaulted(fn, bound):
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        out = {arg.arg: i - bound for i, arg in enumerate(args) if i >= first}
        out.update({arg.arg: None for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                    if default is not None})
        return out

    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                yield top.name, top.name, defaulted(top, 0)
            elif isinstance(top, ast.ClassDef):
                for node in top.body:
                    if not isinstance(node, ast.FunctionDef):
                        continue
                    decorators = {getattr(d, "id", None) for d in node.decorator_list}
                    qualified = f"{top.name}.{node.name}"
                    if node.name == "__init__":
                        yield f"{top.name}.__init__", top.name, defaulted(node, 1)
                    elif not node.name.startswith("_"):
                        name = qualified if "classmethod" in decorators else node.name
                        yield qualified, name, defaulted(node, int("staticmethod" not in decorators))


def _production_calls(oracles):
    """Callee name -> the parameters production calls pass it: positional
    indices, keyword names, and ``"*"`` for a ``*args`` or ``**kwargs`` call.

    The same trees as :func:`_production_loads`. ``partial(f, ...)`` passes its
    arguments to ``f``, and a call of a name assigned a ``partial`` of ``f``
    counts as a call of ``f``. A call on a package class, ``Class.method(...)``,
    also counts under ``Class.method``.
    """
    classes = _package_classes()

    def callee(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def names(func):
        receiver = getattr(func, "value", None)
        if isinstance(func, ast.Attribute) and getattr(receiver, "id", None) in classes:
            return [func.attr, f"{receiver.id}.{func.attr}"]
        return [callee(func)]

    passed = {}
    paths = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in paths:
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text())
        partials = {}  # local name -> the functions it is a partial of
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and (
                callee(node.value.func) == "partial"
            ):
                for target in node.targets:
                    partials.setdefault(callee(target), []).append(callee(node.value.args[0]))
        for top in tree.body:
            if path.parent == SRC and isinstance(top, ast.FunctionDef) and top.name in oracles:
                continue
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func, args = node.func, node.args
                if callee(func) == "partial":
                    func, args = args[0], args[1:]
                got = set(range(len(args))) | {k.arg for k in node.keywords}
                if any(isinstance(a, ast.Starred) for a in args) or None in got:
                    got.add("*")
                for name in names(func):
                    for target in partials.get(name, [name]):
                        passed.setdefault(target, set()).update(got)
    return passed


def test_every_defaulted_parameter_has_a_production_caller_that_passes_it():
    """A default only tests override is a knob production carries for nothing.

    A parameter counts as passed when some production call of its callee
    name passes it by keyword or at its position; a classmethod's callee
    name is ``Class.method``, so ``rng.uniform(...)`` does not count for
    ``StretchedStencil.uniform``. Two blind spots make this a floor, not a
    proof: any other method is matched by its attribute name alone, so a
    call of any other class's method of that name counts (as for a
    function loaded as an attribute in the test above); and a ``*args`` or
    ``**kwargs`` call counts as passing everything, so
    ``perfbench/workloads.py``'s ``check_decay_rate(**item["kwargs"])``
    would hide a parameter of ``check_decay_rate`` that no item sets.
    """
    from test_oracle_boundary import ORACLES

    passed = _production_calls(ORACLES)
    unpassed = sorted(
        f"{qualified}({param})"
        for qualified, name, params in _defaulted_parameters()
        if qualified not in ORACLES | UNCALLED_BY_DESIGN and "*" not in passed.get(name, ())
        for param, index in params.items()
        if param not in passed.get(name, ()) and index not in passed.get(name, ())
    )
    assert not unpassed, f"defaulted parameters no production call passes: {unpassed}"


def test_parameter_walk_sees_keywords_positions_and_partials():
    """The walk above is not vacuous: it sees ``verify``'s ``iota=``, the CFL
    command's positional angles, the sweeps' ``k_hat`` through ``partial``
    and ``theta`` through the local name the CLI binds the partial to, and
    the grid widths ``check_decay_rate`` passes ``PeriodicGrid.uniform``
    apart from the arguments of ``rng.uniform``."""
    from test_oracle_boundary import ORACLES

    passed = _production_calls(ORACLES)
    params = {qualified: p for qualified, _, p in _defaulted_parameters()}
    assert "iota" in passed["check_decay_rate"] and "iota" in params["check_decay_rate"]
    assert params["PeriodicGrid.uniform"] == {"delta": 1} and 1 in passed["PeriodicGrid.uniform"]
    assert {0, 1, "size"} <= passed["uniform"] and passed["StretchedStencil.uniform"] == {0}
    assert params["cfl_limit"] == {"theta": 3, "phi": 4} and {3, 4} <= passed["cfl_limit"]
    for sweep in ("dispersion_sweep", "fully_discrete_sweep"):
        assert {"k_hat", "theta", "phi"} <= passed[sweep]
    assert params["AdvectionProblem.__init__"] == {"velocity": 2}
    assert "*" not in passed["cfl_limit"]


def test_caller_walk_reads_each_production_tree():
    """The walk above is not vacuous: it reads the package and ``perfbench/``
    and skips the oracles' bodies, the only loads of ``lift_to_dimension``."""
    from test_oracle_boundary import ORACLES

    names, attributes = _production_loads(ORACLES)
    assert "march" in attributes  # check_decay_rate's march
    assert "symbol_for" in names  # perfbench/make_reference.py only
    assert "lift_to_dimension" not in names | attributes
