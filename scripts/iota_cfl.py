#!/usr/bin/env python3
"""CFL limit as the correction-family parameter iota is swept.

Sweeps iota densely at several incidence angles and reports, per angle,
the iota maximizing the crossing-time CFL; the grid-aligned argmax is the
operational notion of the peak-stability family member. Writes a CSV of
the full sweep.
"""
import argparse
import sys
from math import radians

import numpy as np

from frspectra.basis import CorrectionFamily, iota_huynh, iota_min
from frspectra.operator import SchemeConfig, StretchedStencil
from frspectra.temporal import cfl_limit, rk_from_name


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=4)
    parser.add_argument("--rk", default="rk44")
    parser.add_argument("--gx", type=float, default=1.0)
    parser.add_argument("--gy", type=float, default=1.0)
    parser.add_argument("--angles", default="0,15,30,45")
    parser.add_argument("--points", type=int, default=41)
    parser.add_argument("-o", "--output", default="iota_cfl.csv")
    args = parser.parse_args(argv)

    p = args.p
    rk = rk_from_name(args.rk)
    lo = 0.9 * iota_min(p)  # strictly inside the stable range
    hi = 4.0 * iota_huynh(p)
    iotas = np.linspace(lo, hi, args.points)
    angles = [float(a) for a in args.angles.split(",")]
    stencil = StretchedStencil(2, (1.0, 1.0), (args.gx, args.gy))

    rows = []
    best = {}
    for deg in angles:
        curve = []
        for iota in iotas:
            scheme = SchemeConfig(p, CorrectionFamily.osfr(p, float(iota)), 1.0, 2)
            res = cfl_limit(scheme, stencil, rk, radians(deg))
            curve.append(res.cfl_crossing)
            rows.append((deg, float(iota), res.cfl_limit, res.cfl_crossing, int(res.stable)))
        best[deg] = iotas[int(np.argmax(curve))]

    with open(args.output, "w") as fh:
        fh.write("theta,iota,cfl_limit,cfl_crossing,stable\n")
        for deg, iota, climit, crossing, stable in rows:
            fh.write(f"{deg!r},{iota!r},{climit!r},{crossing!r},{stable}\n")
    print(f"wrote {args.output}")
    for deg, iota in best.items():
        print(f"theta={deg:5.1f}: argmax-CFL iota = {iota:.6g} "
              f"(huynh-g2 iota = {iota_huynh(p):.6g}, dg iota = 0)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
