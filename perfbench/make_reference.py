"""Regenerate the reference outputs the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Runs every item of each workload at the default seed and writes
``perfbench/reference/<workload>.json``. Each dispersion or fully-discrete
row also records whether ``analyze`` flags the symbol at that wavenumber
as degenerate; the gate does not fail kappa on those rows, since kappa
there depends on the eigenvector basis LAPACK picks.
Only rerun this when outputs are meant to change, and say why.
"""
from __future__ import annotations

import json
import math
import sys

from frspectra import (
    SchemeConfig, StretchedStencil, WaveProbe, analyze, make_family, symbol_for,
)
from frspectra.spectrum import normalization_factor
from workloads import (
    DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, make_items, parse_output, run_item,
)


def degenerate_flags(item: dict, khats) -> list[bool]:
    p, d = item["p"], item["d"]
    scheme = SchemeConfig(p, make_family("huynh-g2", p), 1.0, d)
    stencil = StretchedStencil.uniform(d)
    theta, phi = math.radians(item["theta"]), math.radians(item["phi"])
    factor = normalization_factor(theta, phi, stencil, p)
    return [
        analyze(symbol_for(scheme, stencil, WaveProbe(k=kh / factor, theta=theta, phi=phi))).degenerate
        for kh in khats
    ]


def reference_item(item: dict) -> dict:
    values = parse_output(item, run_item(item))
    ref = {"label": item["label"]}
    if item["kind"] == "decay":
        if not values["passed"]:
            raise SystemExit(f"{item['label']}: decay-rate check did not pass")
        return ref | {"predicted": values["predicted"], "k": values["k"]}
    if values["status"] != ["ok"]:
        raise SystemExit(f"{item['label']}: statuses {values['status']}")
    rows = values["rows"]
    if item["command"] != "cfl":
        flags = degenerate_flags(item, [row[0] for row in rows])
        rows = [row + [flag] for row, flag in zip(rows, flags)]
    return ref | {"rows": rows}


def main(names) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or WORKLOADS:
        items = [reference_item(item) for item in make_items(workload, DEFAULT_SEED)]
        lines = ",\n".join(json.dumps(item) for item in items)
        with open(REFERENCE_DIR / f"{workload}.json", "w") as fh:
            fh.write(f'{{"workload": "{workload}", "seed": {DEFAULT_SEED}, "items": [\n{lines}\n]}}\n')
        print(f"{workload}: {len(items)} items")


if __name__ == "__main__":
    main(sys.argv[1:])
