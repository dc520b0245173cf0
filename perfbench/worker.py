"""One pass of a workload in a fresh process.

Run by ``run.py``, once per pass:

    python3 perfbench/worker.py --workload sweep2d --seed 0 [--trace] [--tiny]

Prints one JSON object: the monotonic clock reading once imports and
argument parsing are done (the parent subtracts its spawn time to get
set-up time) with the factor that calibrates it, calibrated and raw wall
and CPU time summed over the items, peak resident memory, the raw output of
every item, the environment and, when traced, the per-layer metrics and
spans.

Calibration: the speed of a shared machine drifts by about 20% over tens
of seconds, more than any useful bound. So a fixed kernel runs right after
set-up and after every item, and each time is scaled by
REFERENCE_KERNEL_S over the kernel's duration next to it (for an item, the
mean of the runs before and after it). Machine drift cancels; a change in
the program's own speed does not. Kernel time is not part of any figure.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import frspectra
import frspectra.cli  # noqa: F401  (import cost belongs to set-up)
from workloads import make_items, run_item


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Calibration kernel: a fixed batch of 16x16 eigensolves, small enough that
# BLAS runs it on one thread. Bound before tracing wraps numpy.linalg.
_EIG = np.linalg.eig
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((16, 16))
PROBE_REPS = 20
# Typical warm kernel duration on the 2-core Xeon VM (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31) the benchmark was defined on: calibrated times are seconds
# at that speed.
REFERENCE_KERNEL_S = 0.0025


def probe() -> float:
    """Duration of one run of the calibration kernel."""
    t0 = _monotonic()
    for _ in range(PROBE_REPS):
        _EIG(_PROBE_MATRIX)
    return _monotonic() - t0


def blas_info() -> dict:
    """BLAS library, version and the thread count it runs with."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": threads,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def environment() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "frspectra": frspectra.__version__,
        "blas": blas_info(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    items = make_items(args.workload, args.seed, args.tiny)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    outputs = []
    wall = cpu = raw_wall = raw_cpu = 0.0
    t_ready = _monotonic()
    probe()  # the first run pays one-off LAPACK and page-fault costs
    before = setup_kernel_s = probe()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0, c0 = _monotonic(), time.process_time()
        try:
            out = run_item(item)
        except Exception:
            out = {"error": traceback.format_exc(limit=4)}
        dt, dc = _monotonic() - t0, time.process_time() - c0
        after = probe()
        scale = REFERENCE_KERNEL_S / (0.5 * (before + after))
        wall, cpu = wall + dt * scale, cpu + dc * scale
        raw_wall, raw_cpu = raw_wall + dt, raw_cpu + dc
        before = after
        if tracer is not None and "csv" in out:
            tracer.counters["cli.rows"] += out["csv"].count("\n") - 1
        outputs.append(out)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "t_ready": t_ready,
        "setup_scale": REFERENCE_KERNEL_S / setup_kernel_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "outputs": outputs,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, raw_wall)
        result["spans"] = tracer.spans()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
