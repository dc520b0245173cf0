"""Layer spans recorded from outside the package under test.

``install`` wraps the public functions of each ``frspectra`` module, in
every module namespace that imported them by name, and the LAPACK entry
points ``numpy.linalg.eig``/``eigvals``/``svd``. Each call records a span
(name, start, end, parent, item) in memory. A LAPACK span is named after
the module of the nearest enclosing span (``spectrum.eigensolve``,
``temporal.eigensolve``, ...). Nothing under ``src/`` changes.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute) pairs wrapped as layer spans; "Class.method" wraps a method.
LAYER_FUNCTIONS = (
    ("basis", "make_points"),
    ("basis", "build_operators"),
    ("operator", "assemble_symbol"),
    ("operator", "build_blocks"),
    ("spectrum", "analyze"),
    ("spectrum", "track_branches"),
    ("spectrum", "dispersion_sweep"),
    ("temporal", "cfl_limit"),
    ("temporal", "build_update"),
    ("temporal", "fully_discrete_sweep"),
    ("advect", "check_decay_rate"),
    ("advect", "physical_eigenvector"),
    ("advect", "AdvectionProblem.rhs"),
    ("cli", "main"),
)
LAPACK_FUNCTIONS = (("eig", "eigensolve"), ("eigvals", "eigensolve"), ("svd", "svd"))

# Span names reported with .calls and .self_s.
REPORTED_SPANS = (
    "basis.make_points", "basis.build_operators",
    "operator.assemble_symbol", "operator.build_blocks",
    "spectrum.analyze", "spectrum.dispersion_sweep", "spectrum.eigensolve",
    "spectrum.svd", "spectrum.track_branches",
    "temporal.cfl_limit", "temporal.eigensolve", "temporal.svd",
    "temporal.build_update", "temporal.fully_discrete_sweep",
    "advect.check_decay_rate", "advect.physical_eigenvector", "advect.rhs",
    "cli.main",
)
# Work counters reported as they are.
REPORTED_COUNTERS = (
    "spectrum.eigensolve.n3", "temporal.eigensolve.n3",
    "spectrum.track_branches.mode_steps", "cli.rows",
)
# Counts that must repeat exactly between two traced runs of one input.
EXACT_METRICS = tuple(f"{s}.calls" for s in REPORTED_SPANS) + REPORTED_COUNTERS


class Tracer:
    """In-memory span recorder; spans nest by call order (one thread).

    Span fields live in parallel lists of numbers and strings, which the
    cyclic garbage collector does not have to traverse span by span.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: list[int] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.item = -1

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.items.append(self.item)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def enclosing_module(self) -> str:
        return self.names[self.stack[-1]].split(".")[0] if self.stack else "outside"

    def spans(self) -> list[tuple]:
        """Recorded spans as (name, start, end, parent, item) tuples."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.items))


def _span_wrapper(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer, args, result)
        return result

    return wrapper


def _lapack_wrapper(tracer: Tracer, kind: str, fn):
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        module = tracer.enclosing_module()
        if kind == "eigensolve":
            shape = np.shape(a)
            batch = 1
            for n in shape[:-2]:
                batch *= n
            tracer.counters[f"{module}.eigensolve.n3"] += batch * shape[-1] ** 3
        idx = tracer.open(f"{module}.{kind}")
        try:
            return fn(a, *args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _count_mode_steps(tracer, args, result):
    mode_sets = args[0]
    tracer.counters["spectrum.track_branches.mode_steps"] += (
        (len(mode_sets) - 1) * np.asarray(mode_sets[0]).size
    )


def _count_k_points(tracer, args, result):
    tracer.counters["spectrum.dispersion_sweep.k_points"] += int(result.k_hat.size)


COUNTERS = {
    "spectrum.track_branches": _count_mode_steps,
    "spectrum.dispersion_sweep": _count_k_points,
}


def install(tracer: Tracer):
    """Wrap every layer function for ``tracer``; returns a function undoing it."""
    for module_name, _ in LAYER_FUNCTIONS:
        importlib.import_module(f"frspectra.{module_name}")
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "frspectra" or n.startswith("frspectra."))]
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for module_name, attr in LAYER_FUNCTIONS:
        module = sys.modules[f"frspectra.{module_name}"]
        name = f"{module_name}.{attr.split('.')[-1]}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            patch(cls, method, _span_wrapper(tracer, name, getattr(cls, method)))
            continue
        original = getattr(module, attr)
        wrapped = _span_wrapper(tracer, name, original, COUNTERS.get(name))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    patch(m, key, wrapped)
    for attr, kind in LAPACK_FUNCTIONS:
        patch(np.linalg, attr, _lapack_wrapper(tracer, kind, getattr(np.linalg, attr)))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for start, end in zip(starts, ends)]
    for duration, parent in zip(list(out), parents):
        if parent >= 0:
            out[parent] -= duration
    return out


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer calls, self time and work counts of one traced pass.

    ``untraced_s`` is the part of ``wall`` covered by no span.
    """
    calls: Counter = Counter()
    self_s: Counter = Counter()
    covered = 0.0
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    for i, name in enumerate(tracer.names):
        calls[name] += 1
        self_s[name] += own[i]
        if tracer.parents[i] < 0:
            covered += tracer.ends[i] - tracer.starts[i]
    out: dict[str, float] = {}
    for name in REPORTED_SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in REPORTED_COUNTERS:
        out[name] = tracer.counters[name]
    solves = calls["spectrum.eigensolve"]
    k_points = tracer.counters["spectrum.dispersion_sweep.k_points"]
    out["spectrum.rows_per_eigensolve"] = k_points / solves if solves else 0.0
    out["untraced_s"] = wall - covered
    return out
