"""The seed-0 benchmark items of every workload pass the benchmark's own gate.

``perfbench/reference/<workload>.json`` holds the gated values: the rows
of the 2D and 3D dispersion sweeps, the CFL limits and fully-discrete rows
of ``stability``, and the predicted decay rates of ``timedomain``. Branch
tracking decides which mode each sweep row reports, so a tracker change
that departs from them would otherwise fail only the benchmark run.
``perfbench/workloads.py`` is compiled from its source and run in a fresh
module namespace, so nothing is written under ``perfbench/`` (no bytecode
cache).
"""
import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


def _check_gate(workload, n_items):
    workloads = _load_workloads()
    items = workloads.make_items(workload, workloads.DEFAULT_SEED)
    refs = {ref["label"]: ref for ref in workloads.load_reference(workload)}
    assert len(items) == n_items and set(refs) == {item["label"] for item in items}
    for item in items:
        values = workloads.parse_output(item, workloads.run_item(item))
        problems, _ = workloads.check_output(item, values, refs[item["label"]])
        assert problems == [], item["label"]


def test_sweep3d_items_pass_the_benchmark_gate():
    _check_gate("sweep3d", 7)


@pytest.mark.parametrize(
    "workload, n_items", [("sweep2d", 31), ("stability", 29), ("timedomain", 12)]
)
def test_items_pass_the_benchmark_gate(workload, n_items):
    _check_gate(workload, n_items)
