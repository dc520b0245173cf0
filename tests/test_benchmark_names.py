"""The benchmark harness reaches the package by name: every name it uses must exist.

``perfbench/tracing.py`` wraps the functions listed in ``LAYER_FUNCTIONS``
with ``getattr``, so a rename in ``src/`` would break a traced benchmark
run without failing any other test. The harness files are read with
``ast`` and never imported.
"""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned_literal(path: Path, name: str):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {path.name}")


LAYER_FUNCTIONS = _assigned_literal(PERFBENCH / "tracing.py", "LAYER_FUNCTIONS")


def test_layer_list_is_read():
    assert ("operator", "build_blocks") in LAYER_FUNCTIONS
    assert any("." in attr for _, attr in LAYER_FUNCTIONS)  # a Class.method entry


@pytest.mark.parametrize("module, attr", LAYER_FUNCTIONS, ids=lambda v: str(v))
def test_traced_layer_resolves(module, attr):
    owner = importlib.import_module(f"frspectra.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_reference_script_imports_resolve():
    tree = ast.parse((PERFBENCH / "make_reference.py").read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "frspectra" for alias in node.names]
    assert ("frspectra", "symbol_for") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
