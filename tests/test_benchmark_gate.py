"""The seed-0 ``sweep3d`` benchmark items pass the benchmark's own gate.

``perfbench/reference/sweep3d.json`` holds the gated rows of the 3D
dispersion sweep, where 64-mode branch tracking decides which mode is
reported. A tracker change that departs from them would otherwise fail
only the benchmark run. ``perfbench/workloads.py`` is compiled from its
source and run in a fresh module namespace, so nothing is written under
``perfbench/`` (no bytecode cache).
"""
import types
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


def test_sweep3d_items_pass_the_benchmark_gate():
    workloads = _load_workloads()
    items = workloads.make_items("sweep3d", workloads.DEFAULT_SEED)
    refs = {ref["label"]: ref for ref in workloads.load_reference("sweep3d")}
    assert len(items) == 7 and set(refs) == {item["label"] for item in items}
    for item in items:
        values = workloads.parse_output(item, workloads.run_item(item))
        problems, _ = workloads.check_output(item, values, refs[item["label"]])
        assert problems == [], item["label"]
