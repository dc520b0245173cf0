"""Workload definitions, item execution and the correctness gate.

A workload is a fixed list of items run one after another in one process
(closed loop, one client, the CLI default ``--threads 1``). A sweep item is
one ``frspectra`` CLI invocation at one incidence angle; a time-domain item
is one ``check_decay_rate`` call, the library call behind ``verify``.

The seed only shifts each angle grid by a fraction of its step, so every
seed runs the same number of items at nearby angles. Seed 0 keeps the
exact 0/45/90 degree points and is checked against the checked-in
reference; other seeds are checked for what holds at any angle.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

WORKLOADS = ("sweep2d", "sweep3d", "stability", "timedomain")
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Tolerances of the gate, taken from the accuracy of the code under test.
OMEGA_ABS_TOL = 1e-9  # normalized units; eigenvalue round-off scales with |lambda|max
KAPPA_REL_TOL = 1e-6
CFL_REL_TOL = 2e-4  # twice the bisection width of cfl_limit
PREDICTED_REL_TOL = 1e-9


def grid_shift(seed: int) -> float:
    """Fraction of a grid step by which the seed shifts every angle grid."""
    return 0.0 if seed == DEFAULT_SEED else random.Random(seed).random()


def angle_grid(step: float, count: int, shift: float) -> list[float]:
    """``count`` angles ``step`` apart, shifted by ``shift`` steps, capped at 90."""
    return [min(90.0, i * step + shift * step) for i in range(count)]


def _cli_item(command: str, d: int, p: int, theta: float, phi: float, extra=()):
    argv = [command, "--d", str(d), "--p", str(p), "--family", "huynh", "--alpha", "1"]
    argv += ["--theta", repr(theta)]
    if d == 3:
        argv += ["--phi", repr(phi)]
    argv += list(extra)
    label = f"{command} d={d} p={p} theta={theta:g}" + (f" phi={phi:g}" if d == 3 else "")
    return {"kind": "cli", "command": command, "d": d, "p": p,
            "theta": theta, "phi": phi, "argv": argv, "label": label}


def _decay_item(d: int, p: int, alpha: float, theta: float):
    return {
        "kind": "decay",
        "label": f"check_decay_rate d={d} p={p} alpha={alpha:g} theta={theta:g}",
        "kwargs": {"p": p, "family_kind": "huynh-g2", "alpha": alpha, "d": d,
                   "theta": math.radians(theta), "k_hat": 1.0},
    }


def make_items(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The item list of a workload; ``tiny`` keeps the first item of each kind."""
    shift = grid_shift(seed)
    if workload == "sweep2d":
        groups = [[_cli_item("dispersion", 2, 3, t, 0.0) for t in angle_grid(3.0, 31, shift)]]
    elif workload == "sweep3d":
        groups = [[_cli_item("dispersion", 3, 3, 30.0, f) for f in angle_grid(15.0, 7, shift)]]
    elif workload == "stability":
        rk = ["--rk", "rk44"]
        groups = [
            [_cli_item("cfl", 2, 4, t, 0.0, rk) for t in angle_grid(10.0, 10, shift)],
            [_cli_item("fully-discrete", 2, 3, t, 0.0, rk + ["--tau", "0.18"])
             for t in angle_grid(5.0, 19, shift)],
        ]
    elif workload == "timedomain":
        theta_2d = angle_grid(15.0, 1, shift)[0] + 30.0
        groups = [[
            _decay_item(d, p, alpha, theta_2d if d == 2 else 0.0)
            for d in (1, 2) for p in (2, 3, 4) for alpha in (1.0, 0.5)
        ]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny:
        groups = [g[:1] for g in groups]
    return [item for group in groups for item in group]


# -- execution -----------------------------------------------------------------


def run_item(item: dict) -> dict:
    """Execute one item and return its raw output."""
    if item["kind"] == "cli":
        from frspectra import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(item["argv"]))
        return {"rc": rc, "csv": buf.getvalue()}
    from frspectra import advect

    check = advect.check_decay_rate(**item["kwargs"])
    return {"passed": bool(check.passed), "predicted": float(check.predicted),
            "measured": float(check.measured), "rel_error": float(check.rel_error),
            "k": float(check.k)}


# -- parsing and checking ----------------------------------------------------------

SPECTRUM_FIELDS = ("khat", "re_omega_hat", "im_omega_hat", "kappa")
CFL_FIELDS = ("cfl_limit", "cfl_crossing", "tau_limit", "stable")


def parse_output(item: dict, output: dict) -> dict:
    """Reduce a raw output to the values the gate compares."""
    if item["kind"] == "decay":
        return {"passed": output["passed"], "predicted": output["predicted"], "k": output["k"]}
    rows = list(csv.DictReader(io.StringIO(output["csv"])))
    fields = CFL_FIELDS if item["command"] == "cfl" else SPECTRUM_FIELDS
    return {
        "rc": output["rc"],
        "status": sorted({r["status"] for r in rows}),
        "rows": [[float(r[f]) for f in fields] for r in rows],
    }


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


def check_output(item: dict, values: dict, ref: dict | None) -> tuple[list[str], int]:
    """Problems found in one parsed output, and the number of degenerate rows
    whose kappa departs from the reference (recorded, not failed).

    With ``ref`` the values are compared against the reference at the gate's
    tolerances; without it only what holds at any angle is checked.
    """
    problems: list[str] = []
    if item["kind"] == "decay":
        if not values["passed"]:
            problems.append("decay-rate check did not pass")
        if ref is not None:
            floor = max(abs(ref["predicted"]), 1e-3 * ref["k"])
            if abs(values["predicted"] - ref["predicted"]) > PREDICTED_REL_TOL * floor:
                problems.append(
                    f"predicted {values['predicted']!r} departs from {ref['predicted']!r}"
                )
        return problems, 0
    if values["rc"] != 0 or values["status"] != ["ok"]:
        problems.append(f"exit code {values['rc']}, statuses {values['status']}")
    rows = values["rows"]
    if not rows:
        problems.append("no rows")
    if item["command"] == "cfl":
        for row in rows:
            if not all(math.isfinite(v) for v in row):
                problems.append(f"non-finite CFL row {row}")
    else:
        for khat, re, im, kappa in rows:
            if not (math.isfinite(re) and math.isfinite(im)):
                problems.append(f"non-finite omega_hat at khat={khat}")
            if not kappa >= 1.0 - 1e-12:
                problems.append(f"kappa {kappa} < 1 at khat={khat}")
    if ref is None or problems:
        return problems[:5], 0
    if len(rows) != len(ref["rows"]):
        return [f"{len(rows)} rows, reference has {len(ref['rows'])}"], 0
    kappa_departures = 0
    for row, ref_row in zip(rows, ref["rows"]):
        if item["command"] == "cfl":
            for name, v, r in zip(CFL_FIELDS[:3], row, ref_row):
                if _rel(v, r) > CFL_REL_TOL:
                    problems.append(f"{name} {v!r} departs from {r!r}")
            if row[3] != ref_row[3]:
                problems.append(f"stable {row[3]} differs from {ref_row[3]}")
            continue
        khat, re, im, kappa = row
        r_khat, r_re, r_im, r_kappa, degenerate = ref_row
        if _rel(khat, r_khat) > 1e-12:
            problems.append(f"khat {khat!r} differs from {r_khat!r}")
        if abs(complex(re, im) - complex(r_re, r_im)) > OMEGA_ABS_TOL:
            problems.append(f"omega_hat {complex(re, im)!r} departs from "
                            f"{complex(r_re, r_im)!r} at khat={khat}")
        if _rel(kappa, r_kappa) > KAPPA_REL_TOL:
            if degenerate:
                kappa_departures += 1
            else:
                problems.append(f"kappa {kappa!r} departs from {r_kappa!r} at khat={khat}")
    return problems[:5], kappa_departures


def load_reference(workload: str) -> list[dict]:
    """Reference values of the workload's items at the default seed."""
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        doc = json.load(fh)
    return doc["items"]
