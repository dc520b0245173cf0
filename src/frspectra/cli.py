"""Command-line front end: parameter sweeps with deterministic CSV/JSON output.

Commands: dispersion (alias condition), cfl, fully-discrete, verify, mesh.
Numeric flags accept either a single value or an inclusive range
``start:stop:step``. Angles are given in degrees. Output is byte-identical
for identical invocations (the JSON mirror carries a ``created`` timestamp
that comparisons should exclude). Exit codes: 0 ok, 1 user error, 2
numerical failure (failed rows are marked and the run continues).

Every emitted value is recomputable through library calls; the CLI only
orchestrates sweeps and serialization.
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial
from itertools import product
from math import isfinite, prod, radians
from pathlib import Path

import numpy as np

from . import __version__
from .advect import AMPLIFICATION_TOL, check_decay_rate
from .basis import DG, HUYNH_G2, OSFR, make_family
from .operator import SchemeConfig, StretchedStencil
from .spectrum import (
    EigensolverError,
    ModeAmbiguityError,
    default_k_hat_grid,
    dispersion_sweep,
)
from .temporal import check_time_step, cfl_limit, fully_discrete_sweep, rk_from_name

# Columns constant over a combo's rows, then the per-row columns of each command.
_KEY_COLUMNS = ["p", "family", "iota", "alpha", "gx", "gy", "gz", "aspect", "theta", "phi"]
_SPECTRUM_COLUMNS = ["khat", "re_omega_hat", "im_omega_hat", "kappa", "status"]
_CFL_COLUMNS = [
    "khat", "cfl_limit", "cfl_crossing", "tau_limit", "worst_k", "stable", "status",
]


# Most values a range may expand to, and most combos a sweep may run.
MAX_VALUES = 1_000_000


class UserInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserInputError(message)


def parse_range(text: str, integer: bool = False):
    """Parse finite ``v`` or ``start:stop:step`` (inclusive when step divides)."""
    parts = text.split(":")
    try:
        numbers = [float(v) for v in parts]
        if not all(isfinite(v) for v in numbers):
            raise ValueError("values must be finite")
        if len(parts) == 1:
            values = numbers
        elif len(parts) == 3:
            start, stop, step = numbers
            if step <= 0:
                raise ValueError("step must be > 0")
            count = np.floor((stop - start) / step + 1e-9) + 1
            if count < 1:
                raise ValueError("empty range")
            if count > MAX_VALUES:
                raise ValueError(f"more than {MAX_VALUES} values")
            values = [start + i * step for i in range(int(count))]
        else:
            raise ValueError("expected 'v' or 'start:stop:step'")
        if integer and not all(v.is_integer() for v in values):
            raise ValueError("integer values required")
    except ValueError as exc:
        raise UserInputError(f"bad range {text!r}: {exc}") from exc
    return [int(v) for v in values] if integer else values


def _families(text: str):
    names = [t.strip().lower() for t in text.split(",") if t.strip()]
    alias = {"dg": DG, "huynh": HUYNH_G2, "huynh-g2": HUYNH_G2, "osfr": OSFR}
    out = []
    for name in names:
        if name not in alias:
            raise UserInputError(
                f"--family: unknown family {name!r} (choose dg, huynh, osfr)"
            )
        out.append(alias[name])
    if not out:
        raise UserInputError("--family: at least one family required")
    return out


def _rk_scheme(name: str):
    try:
        return rk_from_name(name)
    except ValueError as exc:
        raise UserInputError(f"--rk: {exc}") from exc


def _check_angles(flag, degrees):
    if any(not 0.0 <= t <= 90.0 for t in degrees):
        raise UserInputError(f"{flag}: angles must lie in [0, 90] degrees")


def _format_csv_value(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return "%.17e" % v
    if isinstance(v, (int, np.integer, np.bool_)):  # bool and np.bool_ as 1/0
        return str(int(v))
    return str(v)


def _sanitize_json(v):
    if isinstance(v, (float, np.floating)):
        return float(v) if np.isfinite(v) else None
    if isinstance(v, (int, np.integer, np.bool_)):  # 1/0, as the CSV prints them
        return int(v)
    return v


def _emit(groups, row_columns, args, spec_echo):
    """Write ``(key, rows)`` groups: one combo's key fields and its row dicts."""
    columns = _KEY_COLUMNS + row_columns
    if args.format == "csv":
        lines = [",".join(columns)]
        for key, rows in groups:
            prefix = "".join(_format_csv_value(key[c]) + "," for c in _KEY_COLUMNS)
            lines.extend(
                prefix + ",".join(_format_csv_value(row.get(c)) for c in row_columns)
                for row in rows
            )
        text = "\n".join(lines) + "\n"
    else:
        import json
        from datetime import datetime, timezone

        doc = {
            "command": args.command,
            "metadata": {
                "version": __version__,
                "numpy": np.__version__,
                "created": datetime.now(timezone.utc).isoformat(),
                "seed": getattr(args, "seed", None),
                "spec": spec_echo,
            },
            "columns": columns,
            "rows": [
                [_sanitize_json(key[c]) for c in _KEY_COLUMNS]
                + [_sanitize_json(row.get(c)) for c in row_columns]
                for key, rows in groups
                for row in rows
            ],
        }
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        _write_file(args.output, lambda path: Path(path).write_text(text))


def _write_file(path, write):
    """Run ``write(path)``; a path that cannot be written is a user error."""
    try:
        write(path)
    except OSError as exc:
        raise UserInputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _spec_echo(args, skip=("output", "threads", "func", "command")):
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def _add_sweep_flags(sub, with_khat=True):
    sub.add_argument("--d", type=int, default=2, choices=(1, 2, 3))
    sub.add_argument("--p", default="3", help="order, value or range")
    sub.add_argument("--family", default="huynh", help="comma list: dg,huynh,osfr")
    sub.add_argument("--iota", default=None, help="osfr parameter, value or range")
    sub.add_argument("--alpha", default="1.0", help="upwind ratio, value or range")
    sub.add_argument("--gx", default="1.0", help="x expansion factor, value or range")
    sub.add_argument("--gy", default="1.0")
    sub.add_argument("--gz", default="1.0")
    sub.add_argument("--dx", default="1.0", help="x spacing, value or range")
    sub.add_argument("--dy", default="1.0")
    sub.add_argument("--dz", default="1.0")
    sub.add_argument("--theta", default="0:90:1", help="degrees, value or range")
    sub.add_argument("--phi", default="0", help="degrees (3D), value or range")
    if with_khat:
        sub.add_argument(
            "--khat",
            default=None,
            help="normalized wavenumbers, value or range; default 64 log-spaced",
        )
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("-o", "--output", default=None)


def _positive_range(args, name):
    """The values of ``--name``, every one of which must be > 0."""
    values = parse_range(getattr(args, name))
    if min(values) <= 0:
        raise UserInputError(f"--{name}: values must be > 0, got {getattr(args, name)!r}")
    return values


def _sweep_combos(args):
    ps = parse_range(args.p, integer=True)
    if min(ps) < 1:
        raise UserInputError(f"--p: orders must be >= 1, got {args.p!r}")
    fams = _families(args.family)
    iotas = parse_range(args.iota) if args.iota is not None else [None]
    alphas = parse_range(args.alpha)
    gxs, gys, gzs, dxs, dys, dzs = (
        _positive_range(args, name) for name in ("gx", "gy", "gz", "dx", "dy", "dz")
    )
    thetas = parse_range(args.theta)
    phis = parse_range(args.phi)
    d = args.d
    if d == 1:
        thetas = [0.0]
    if d < 3:
        phis = [0.0]
        gzs, dzs = [1.0], [1.0]
    if d < 2:
        gys, dys = [1.0], [1.0]
    _check_angles("--theta", thetas)
    _check_angles("--phi", phis)
    if OSFR in fams and args.iota is None:
        raise UserInputError("--iota is required with --family osfr")
    fam_iotas = [(fam, iota) for fam in fams for iota in (iotas if fam == OSFR else [None])]
    axes = (ps, fam_iotas, alphas, gxs, gys, gzs, dxs, dys, dzs, thetas, phis)
    if prod(map(len, axes)) > MAX_VALUES:
        raise UserInputError(f"the sweep has more than {MAX_VALUES} combinations")
    return [
        dict(
            p=p, family=fam, iota=iota, alpha=alpha, gx=gx, gy=gy, gz=gz,
            dx=dx, dy=dy, dz=dz, theta=theta, phi=phi, d=d,
        )
        for p, (fam, iota), alpha, gx, gy, gz, dx, dy, dz, theta, phi in product(*axes)
    ]


_ROW_ERRORS = (EigensolverError, ModeAmbiguityError, OverflowError, ValueError)


def _run_spectrum_command(args):
    khat_grid = (
        np.array(parse_range(args.khat)) if args.khat else default_k_hat_grid()
    )
    if khat_grid[0] <= 0:  # ranges ascend
        raise UserInputError(f"--khat: values must be > 0, got {args.khat!r}")
    if khat_grid[-1] > np.pi:  # above pi the wave aliases
        raise UserInputError(f"--khat: values must be <= pi, got {args.khat!r}")
    sweep = partial(dispersion_sweep, k_hat=khat_grid)
    if args.command == "fully-discrete":
        rk = _rk_scheme(args.rk)
        try:
            check_time_step(args.tau)
        except ValueError as exc:
            raise UserInputError(f"--tau: {exc}") from exc
        sweep = partial(fully_discrete_sweep, rk=rk, tau=args.tau, k_hat=khat_grid)

    def rows_for(scheme, stencil, theta, phi):
        result = sweep(scheme, stencil, theta=theta, phi=phi)
        return [
            {
                "khat": khat, "re_omega_hat": omega_hat.real,
                "im_omega_hat": omega_hat.imag, "kappa": kappa, "status": "ok",
            }
            for khat, omega_hat, kappa in zip(
                result.k_hat, result.omega_hat_physical, result.kappa
            )
        ]

    return _run_sweep(args, _SPECTRUM_COLUMNS, rows_for, khat_grid)


def _run_cfl(args):
    rk = _rk_scheme(args.rk)

    def rows_for(scheme, stencil, theta, phi):
        # every CFL column but khat and status is a CflResult field
        return [{**vars(cfl_limit(scheme, stencil, (theta, phi), rk)), "status": "ok"}]

    return _run_sweep(args, _CFL_COLUMNS, rows_for)


def _run_sweep(args, row_columns, rows_for, khat_grid=(None,)):
    """Emit every combo's rows, in combo order; exit code 2 if any row failed.

    ``rows_for(scheme, stencil, theta, phi)`` gives one combo's rows, with
    the angles in radians. A numerical error gives one error row per
    ``khat_grid`` value instead. A combo's key echoes the iota of the family
    its scheme is built from, or the input iota when no family can be built.
    """
    combos = _sweep_combos(args)
    if args.threads < 1:
        raise UserInputError(f"--threads: must be >= 1, got {args.threads}")

    def worker(c):
        key = {**c, "aspect": c["dy"] / c["dx"]}
        try:
            family = make_family(c["family"], c["p"], c["iota"])
            key["iota"] = family.iota
            scheme = SchemeConfig(c["p"], family, c["alpha"], c["d"])
            d = c["d"]
            stencil = StretchedStencil(
                d, (c["dx"], c["dy"], c["dz"])[:d], (c["gx"], c["gy"], c["gz"])[:d]
            )
            return key, rows_for(scheme, stencil, radians(c["theta"]), radians(c["phi"]))
        except _ROW_ERRORS as exc:
            return key, [{"khat": kh, "status": f"error:{type(exc).__name__}"} for kh in khat_grid]

    # no more threads than combos or CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(args.threads, len(combos), cpus or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(worker, combos))
    else:
        groups = [worker(c) for c in combos]
    _emit(groups, row_columns, args, _spec_echo(args))
    return 2 if any(r["status"] != "ok" for _, rows in groups for r in rows) else 0


def _single(flag, text, integer=False):
    """The one value of a flag that takes no range."""
    if ":" in text:
        raise UserInputError(f"{flag}: takes a single value, got the range {text!r}")
    return parse_range(text, integer)[0]


def _run_verify(args):
    fam = _families(args.family)
    if len(fam) != 1:
        raise UserInputError("--family: verify takes a single family")
    p = _single("--p", args.p, integer=True)
    alpha = _single("--alpha", args.alpha)
    theta = _single("--theta", args.theta)
    k_hat = _single("--khat", args.khat)
    iota = _single("--iota", args.iota) if args.iota else None
    _check_angles("--theta", [theta])
    rk = _rk_scheme(args.rk)
    try:
        check = check_decay_rate(
            p, fam[0], alpha, args.d, radians(theta), k_hat, rk, tol=args.tol, iota=iota
        )
    except ValueError as exc:  # input rejected by its checks
        raise UserInputError(str(exc)) from exc
    except _ROW_ERRORS as exc:
        print(f"verify failed to run: {exc}", file=sys.stderr)
        return 2
    print(f"config: {check.config}")
    print(f"wavenumber: k = {check.k:.6g} (khat = {check.k_hat:.6g})")
    print(f"predicted rate 2*Im(omega): {check.predicted:.12e}")
    print(f"measured solver decay rate: {check.measured:.12e}")
    print(f"relative error: {check.rel_error:.3e} (tolerance {check.tol:.1e})")
    print(f"amplification residual: {check.residual:.3e} (bound {AMPLIFICATION_TOL:.1e})")
    print("PASS" if check.passed else "FAIL")
    return 0 if check.passed else 2


def _run_mesh(args):
    from .mesh import MeshGenerationError, generate, write_mesh

    dims = parse_range(args.dims, integer=True)
    dims = tuple(dims * 3 if len(dims) == 1 else dims)
    if len(dims) != 3:
        raise UserInputError("--dims: give one value or an inclusive 3-value range")
    try:
        mesh = generate(dims, args.extent, args.jitter, args.seed)
    except ValueError as exc:  # input rejected by the generator's checks
        raise UserInputError(str(exc)) from exc
    except MeshGenerationError as exc:
        print(f"mesh generation failed: {exc}", file=sys.stderr)
        return 2
    if args.output:
        _write_file(args.output, partial(write_mesh, mesh))
    qh = mesh.per_element_qh
    print(
        f"mesh {dims[0]}x{dims[1]}x{dims[2]} jitter={args.jitter} seed={args.seed}: "
        f"q_h mean={qh.mean():.17e} min={qh.min():.17e} max={qh.max():.17e}"
    )
    return 0


@cache
def build_parser() -> _Parser:
    """The parser, built once per process on first use (parsing leaves it unchanged)."""
    parser = _Parser(prog="frspectra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    disp = sub.add_parser("dispersion", aliases=["condition"], help="physical-mode sweep")
    _add_sweep_flags(disp)
    disp.set_defaults(func=_run_spectrum_command)

    cfl = sub.add_parser("cfl", help="CFL limit sweep")
    _add_sweep_flags(cfl, with_khat=False)
    cfl.add_argument("--rk", default="rk44", help="euler | rk33 | rk44")
    cfl.set_defaults(func=_run_cfl)

    fd = sub.add_parser("fully-discrete", help="fully-discrete sweep at fixed tau")
    _add_sweep_flags(fd)
    fd.add_argument("--rk", default="rk44")
    fd.add_argument("--tau", type=float, required=True)
    fd.set_defaults(func=_run_spectrum_command)

    ver = sub.add_parser("verify", help="solver decay rate vs eigenanalysis")
    ver.add_argument("--p", default="2")
    ver.add_argument("--d", type=int, default=1, choices=(1, 2))
    ver.add_argument("--family", default="huynh")
    ver.add_argument("--iota", default=None)
    ver.add_argument("--alpha", default="1.0")
    ver.add_argument("--theta", default="0")
    ver.add_argument("--khat", default="1.0")
    ver.add_argument("--rk", default="rk44")
    ver.add_argument("--tol", type=float, default=1e-6)
    ver.set_defaults(func=_run_verify)

    mesh = sub.add_parser("mesh", help="jittered hex mesh generation")
    mesh.add_argument("--dims", default="8")
    mesh.add_argument("--extent", type=float, default=1.0)
    mesh.add_argument("--jitter", type=float, default=0.0)
    mesh.add_argument("--seed", type=int, default=0)
    mesh.add_argument("-o", "--output", default=None)
    mesh.set_defaults(func=_run_mesh)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UserInputError as exc:
        print(f"frspectra: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
