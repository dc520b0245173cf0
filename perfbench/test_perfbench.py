"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import check_output, load_reference, make_items  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "0", "--tiny", *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload):
    line = _run("--workload", workload, "--seed", "0", "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["unit"] == units[name] for name, m in line["metrics"].items())
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_layer(workload):
    line = _run("--workload", workload, "--seed", "7", "--trace", "1")
    assert line["correct"]
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    advect = [v for name, v in metrics.items() if name.startswith("advect.")]
    temporal = [v for name, v in metrics.items() if name.startswith("temporal.")]
    assert any(advect) == (workload == "timedomain")
    if workload.startswith("sweep"):
        assert not any(temporal)
        assert metrics["cli.rows"] == 64


def test_missing_sources_fail_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "sweep2d"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_default_seed_keeps_exact_angles_and_others_shift_within_a_step():
    thetas = [item["theta"] for item in make_items("sweep2d", 0)]
    assert {0.0, 45.0, 90.0} <= set(thetas)
    for seed in (1, 2, 3):
        for workload in workloads.WORKLOADS:
            assert len(make_items(workload, seed)) == len(make_items(workload, 0))
        shifted = [item["theta"] for item in make_items("sweep2d", seed)]
        assert shifted != thetas
        assert all(0.0 <= s - t < 3.0 for s, t in zip(shifted[:-1], thetas[:-1]))
    assert make_items("stability", 5) == make_items("stability", 5)


# -- the correctness gate ----------------------------------------------------------


def _values_from_reference(ref: dict) -> dict:
    rows = [row[:4] for row in ref["rows"]]
    return {"rc": 0, "status": ["ok"], "rows": rows}


def _spectrum_case(degenerate: bool):
    for item, ref in zip(make_items("sweep2d", 0), load_reference("sweep2d")):
        if ref["rows"][0][4] == degenerate:
            return item, ref
    raise AssertionError("no such reference item")


def test_gate_accepts_reference_and_rejects_nudged_omega():
    item, ref = _spectrum_case(degenerate=False)
    values = _values_from_reference(ref)
    assert check_output(item, values, ref) == ([], 0)
    inside = copy.deepcopy(values)
    inside["rows"][10][1] += 0.5 * workloads.OMEGA_ABS_TOL
    assert check_output(item, inside, ref)[0] == []
    outside = copy.deepcopy(values)
    outside["rows"][10][2] += 2 * workloads.OMEGA_ABS_TOL
    assert check_output(item, outside, ref)[0]


def test_gate_rejects_nudged_kappa_except_on_degenerate_rows():
    item, ref = _spectrum_case(degenerate=False)
    values = _values_from_reference(ref)
    values["rows"][5][3] *= 1 + 2 * workloads.KAPPA_REL_TOL
    assert check_output(item, values, ref)[0]
    item, ref = _spectrum_case(degenerate=True)
    values = _values_from_reference(ref)
    values["rows"][5][3] *= 1.2
    assert check_output(item, values, ref) == ([], 1)


def test_gate_rejects_nudged_cfl_and_flipped_stable():
    item, ref = make_items("stability", 0)[0], load_reference("stability")[0]
    assert item["command"] == "cfl"
    values = {"rc": 0, "status": ["ok"], "rows": copy.deepcopy(ref["rows"])}
    assert check_output(item, values, ref)[0] == []
    values["rows"][0][2] *= 1 + 0.5 * workloads.CFL_REL_TOL
    assert check_output(item, values, ref)[0] == []
    values["rows"][0][2] *= 1 + 2 * workloads.CFL_REL_TOL
    assert check_output(item, values, ref)[0]
    flipped = {"rc": 0, "status": ["ok"], "rows": copy.deepcopy(ref["rows"])}
    flipped["rows"][0][3] = 1.0 - flipped["rows"][0][3]
    assert check_output(item, flipped, ref)[0]


def test_gate_rejects_nudged_predicted_rate_and_failed_verify():
    item, ref = make_items("timedomain", 0)[0], load_reference("timedomain")[0]
    values = {"passed": True, "predicted": ref["predicted"], "k": ref["k"]}
    assert check_output(item, values, ref)[0] == []
    floor = max(abs(ref["predicted"]), 1e-3 * ref["k"])
    nudged = dict(values, predicted=ref["predicted"] + 2 * workloads.PREDICTED_REL_TOL * floor)
    assert check_output(item, nudged, ref)[0]
    assert check_output(item, dict(values, passed=False), None)[0]


def test_invariants_without_reference():
    item, ref = _spectrum_case(degenerate=False)
    values = _values_from_reference(ref)
    assert check_output(item, values, None) == ([], 0)
    values["rows"][3][3] = 0.5
    assert check_output(item, values, None)[0]
    values = _values_from_reference(ref)
    values["status"] = ["error:EigensolverError", "ok"]
    assert check_output(item, values, None)[0]


# -- tracing -------------------------------------------------------------------------


def _synthetic_tracer() -> tracing.Tracer:
    tracer = tracing.Tracer()
    # root [1, 11] with children a [2, 5] (grandchild [3, 4]) and b [6, 10];
    # a second top-level span [11, 12]; the pass covers [0, 13].
    spans = [("cli.main", 1, 11, -1), ("spectrum.analyze", 2, 5, 0),
             ("spectrum.eigensolve", 3, 4, 1), ("spectrum.analyze", 6, 10, 0),
             ("advect.rhs", 11, 12, -1)]
    for name, start, end, parent in spans:
        tracer.names.append(name)
        tracer.starts.append(float(start))
        tracer.ends.append(float(end))
        tracer.parents.append(parent)
        tracer.items.append(0)
    return tracer


def test_self_time_arithmetic_on_synthetic_tree():
    tracer = _synthetic_tracer()
    assert tracing.self_times(tracer.starts, tracer.ends, tracer.parents) == [3.0, 2.0, 1.0, 4.0, 1.0]
    metrics = tracing.layer_metrics(tracer, wall=13.0)
    assert metrics["cli.main.self_s"] == 3.0
    assert metrics["spectrum.analyze.calls"] == 2
    assert metrics["spectrum.analyze.self_s"] == 6.0
    assert metrics["spectrum.eigensolve.self_s"] == 1.0
    assert metrics["advect.rhs.self_s"] == 1.0
    assert metrics["untraced_s"] == 2.0


def test_wrappers_reach_by_name_imports_and_undo():
    import frspectra.advect
    import frspectra.basis
    import frspectra.operator
    import frspectra.spectrum

    original = frspectra.basis.make_points
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        for module in (frspectra, frspectra.basis, frspectra.spectrum, frspectra.advect,
                       frspectra.operator):
            assert module.make_points.__wrapped__ is original
        workloads.run_item(make_items("sweep2d", 0, tiny=True)[0])
    finally:
        undo()
    assert frspectra.spectrum.make_points is original
    metrics = tracing.layer_metrics(tracer, wall=1e9)
    analyzes = metrics["spectrum.analyze.calls"]
    assert analyzes > 64
    # one Gauss-point derivation per plane-wave sample, plus one for the operators
    assert metrics["basis.make_points.calls"] == analyzes + 1
    assert metrics["spectrum.eigensolve.calls"] == analyzes
    assert metrics["spectrum.eigensolve.n3"] == analyzes * 16 ** 3
    assert metrics["spectrum.rows_per_eigensolve"] == 64 / analyzes
