#!/usr/bin/env python3
"""Mesh quality statistics versus jitter factor for a fixed seed."""
import argparse
import sys

from frspectra.cli import parse_range
from frspectra.mesh import generate


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, default=20)
    parser.add_argument("--extent", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jitters", default="0:0.8:0.1", help="v or start:stop:step")
    parser.add_argument("-o", "--output", default="jitter_quality.csv")
    args = parser.parse_args(argv)

    jitters = parse_range(args.jitters)
    with open(args.output, "w") as fh:
        fh.write("jitter_factor,mean_qh,min_qh,max_qh\n")
        for jf in jitters:
            mesh = generate((args.dims,) * 3, args.extent, float(jf), args.seed)
            qh = mesh.per_element_qh
            fh.write(f"{float(jf)!r},{qh.mean()!r},{qh.min()!r},{qh.max()!r}\n")
            print(f"jf={jf:.2f}: mean q_h = {qh.mean():.6f} min = {qh.min():.6f}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
