"""frspectra benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sweep2d --seed 0 --seconds 25 --trace 0

Each pass of a workload runs in a fresh worker process; passes repeat until
``--seconds`` have elapsed (at least MIN_PASSES, more when they fit), and
every metric is the median over passes. Every output of every pass goes
through the correctness gate in ``workloads.py``. With ``--trace 1`` the
passes alternate untraced and traced, and the per-layer metrics come from
the traced ones. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans,
per-pass figures and the outputs of non-default seeds go to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import EXACT_METRICS  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, check_output, load_reference, make_items, parse_output,
)

MIN_PASSES = 4
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 150
# Times are calibrated to a reference machine speed (see worker.py).
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"),
)
# Printed and recorded next to the end-to-end metrics, but not bounded: raw
# times follow the drifting speed of a shared machine, and a bounded metric
# must never be 0, so ok_frac stands in for fail_frac.
UNBOUNDED = (("raw_setup_s", "s"), ("raw_wall_s", "s"), ("raw_cpu_s", "s"),
             ("fail_frac", "ratio"))


class BenchError(RuntimeError):
    """A worker crashed, so the run has nothing to measure."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload: str, seed: int, traced: bool, tiny: bool) -> dict:
    """Run one pass in a fresh worker process and add its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * traced + ["--tiny"] * tiny
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t_spawn = _monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["t_ready"] - t_spawn
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    return result


def check_pass(items, result, refs) -> tuple[int, list[str], int]:
    """Failed item count, failure messages and recorded kappa departures."""
    failed, messages, departures = 0, [], 0
    for item, out in zip(items, result["outputs"]):
        ref = refs.get(item["label"]) if refs is not None else None
        if "error" in out:
            problems = [out["error"].strip().splitlines()[-1]]
        elif refs is not None and ref is None:
            problems = ["no reference output"]
        else:
            problems, n = check_output(item, parse_output(item, out), ref)
            departures += n
        if problems:
            failed += 1
            messages.append(f"{item['label']}: {'; '.join(problems)}")
    return failed, messages, departures


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # no parent repos
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    items = make_items(workload, seed, tiny)
    refs = ({ref["label"]: ref for ref in load_reference(workload)}
            if seed == DEFAULT_SEED else None)
    plain, traced = [], []
    start = _monotonic()
    while True:
        elapsed = _monotonic() - start
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_TRACED_PASSES)
        typical = (statistics.median(p["raw_setup_s"] + p["raw_wall_s"] for p in plain + traced)
                   if plain else 0)
        if enough and elapsed + typical > seconds:
            break
        want_traced = trace and len(traced) < len(plain)
        (traced if want_traced else plain).append(run_pass(workload, seed, want_traced, tiny))

    attempted = failed = departures = 0
    messages: list[str] = []
    for result in plain + traced:
        f, m, n = check_pass(items, result, refs)
        attempted += len(items)
        failed += f
        departures += n
        messages += m
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace), "tiny": tiny,
        "passes": len(plain), "traced_passes": len(traced),
        "attempted": attempted, "failed": failed, "kappa_departures_degenerate": departures,
        "messages": sorted(set(messages)),
    }
    medians = {name: statistics.median(p[name] for p in plain) for name in
               ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "raw_setup_s", "raw_wall_s",
                "raw_cpu_s")}
    medians["ok_frac"] = (attempted - failed) / attempted
    medians["fail_frac"] = failed / attempted
    summary["end_to_end"] = {name: medians[name] for name, _ in END_TO_END}
    summary["unbounded"] = {name: medians[name] for name, _ in UNBOUNDED}
    if trace:
        count_mismatch = []
        layers = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            if name in EXACT_METRICS:
                layers[name] = values[0]
                if len(set(values)) != 1:
                    count_mismatch.append(f"{name} varies across traced passes: {values}")
            else:
                layers[name] = statistics.median(values)
        traced_wall = statistics.median(p["raw_wall_s"] for p in traced)
        layers["trace_overhead_s"] = traced_wall - medians["raw_wall_s"]
        summary["layers"] = layers
        summary["messages"] += count_mismatch
        summary["counts_repeat"] = not count_mismatch
    summary["env"] = dict(plain[0]["env"], git_commit=git_commit(), source_digest=source_digest(),
                          seed=seed, workload=workload)
    summary["per_pass"] = [{k: p[k] for k in ("setup_s", "wall_s", "cpu_s", "raw_setup_s",
                                              "raw_wall_s", "raw_cpu_s", "peak_rss_mb")}
                           | {"traced": i >= len(plain)} for i, p in enumerate(plain + traced)]
    _write_artifacts(workload, seed, trace, tiny, summary, items, plain[0], traced)
    return summary


def _write_artifacts(workload, seed, trace, tiny, summary, items, first, traced) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}" + ("-tiny" if tiny else "")
    with open(out / f"result-{tag}-trace{int(trace)}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    if seed != DEFAULT_SEED:
        outputs = [{"label": item["label"], **(parse_output(item, o) if "error" not in o else o)}
                   for item, o in zip(items, first["outputs"])]
        with open(out / f"outputs-{tag}.json", "w") as fh:
            json.dump(outputs, fh)
    for i, result in enumerate(traced):
        with open(out / f"spans-{tag}-pass{i}.jsonl", "w") as fh:
            fh.write("# name, start, end, parent, item\n")
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")


def result_line(summary: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in summary["layers"].items()}
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in summary["end_to_end"].items()}
    correct = summary["failed"] == 0 and summary.get("counts_repeat", True)
    return {"correct": correct, "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("rows_per_eigensolve") else "count"


def print_summary(summary: dict) -> None:
    print(f"== {summary['workload']} seed={summary['seed']} passes={summary['passes']}"
          f" traced_passes={summary['traced_passes']} items={summary['attempted']}"
          f" failed={summary['failed']}")
    units = dict(END_TO_END + UNBOUNDED)
    for name, value in (summary["end_to_end"] | summary["unbounded"]).items():
        print(f"  {name:<14} {value:12.6g} {units[name]}")
    print("  (setup_s, wall_s and cpu_s are calibrated to the reference kernel speed)")
    for name, value in summary.get("layers", {}).items():
        print(f"  {name:<40} {value:14.6g} {_layer_unit(name)}")
    if summary["kappa_departures_degenerate"]:
        print(f"  kappa departs from the reference at {summary['kappa_departures_degenerate']}"
              " degenerate rows (recorded, not failed)")
    for message in summary["messages"][:20]:
        print(f"  FAIL {message}")
    print("env: " + json.dumps(summary["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="first item of each kind only (smoke tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "frspectra" / "__init__.py").is_file():
        print(f"run.py: no frspectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.tiny)
                     for w in workloads]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    lines = [result_line(s, bool(args.trace)) for s in summaries]
    for summary in summaries:
        print_summary(summary)
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{s['workload']}.{name}": m for s, line in zip(summaries, lines)
                        for name, m in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
