"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is pinned here, not calibrated elsewhere.

Criterion 5b is expected to fail and is kept as stated: it asserts that the
two-dimensional grid-aligned CFL limit sits strictly (>= 1%) below the
one-dimensional limit, but for this operator the grid-aligned 2D symbol is
an exact Kronecker lift of the 1D symbol, so the spectra, the stability
boundary, and hence the CFL limits coincide identically. The suite reports
the honest equality instead of weakening the check.
"""
import numpy as np
import pytest

import frspectra as fr
from frspectra.advect import DECAY_TOL, AdvectionProblem, PeriodicGrid, check_decay_rate
from frspectra.mesh import CUBE_SHAPE_FACTOR, generate, shape_factor
from frspectra.spectrum import dispersion_sweep, wavenumber_for
from frspectra.temporal import RK44, cfl_limit, fully_discrete_sweep


def report(number, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {name} {detail}")
    return passed


def eigen_sweep_worst(alpha, reducer):
    worst = 0.0
    for d in (1, 2):
        stencil = fr.StretchedStencil.uniform(d)
        angles = [0.0] if d == 1 else np.linspace(0.0, np.pi / 2, 8)
        for p in range(1, 6):
            scheme = fr.SchemeConfig(p, fr.CorrectionFamily.huynh_g2(p), alpha, d)
            for theta in angles:
                k_nq = wavenumber_for(np.pi, theta, 0.0, stencil, p)
                for k in np.linspace(k_nq / 64, k_nq, 64):
                    probe = fr.WaveProbe(k=k, theta=theta)
                    lam = np.linalg.eigvals(
                        fr.assemble_symbol(scheme, stencil, probe).Q
                    )
                    worst = max(worst, reducer(lam))
    return worst


def test_criterion_1_energy_neutrality():
    worst = eigen_sweep_worst(0.5, lambda lam: float(np.abs(lam.real).max()))
    assert report(
        1, "central-flux energy neutrality", worst <= 1e-10, f"(max |Re| = {worst:.2e})"
    )


def test_criterion_2_upwind_stability():
    worst = eigen_sweep_worst(1.0, lambda lam: float(lam.real.max()))
    assert report(
        2, "upwind stability", worst <= 1e-10, f"(max Re = {worst:.2e})"
    )


def test_criterion_3_expanding_grid_instability():
    scheme = fr.SchemeConfig(4, fr.CorrectionFamily.huynh_g2(4), 1.0, 1)
    k_hat = np.linspace(0.05, 0.5 * np.pi, 24)
    uniform = dispersion_sweep(scheme, fr.StretchedStencil.uniform(1), k_hat=k_hat)
    ok = True
    detail = []
    for gamma in (1.1, 1.2):
        sweep = dispersion_sweep(scheme, fr.StretchedStencil.stretched((gamma,)), k_hat=k_hat)
        positive = float(sweep.omega_hat_physical.imag.max())
        ok &= positive > 0.0
        detail.append(f"gamma={gamma}: max Im = {positive:+.2e}")
    low = k_hat <= 0.5 * np.pi / 2
    for gamma in (0.8, 0.9):
        sweep = dispersion_sweep(scheme, fr.StretchedStencil.stretched((gamma,)), k_hat=k_hat)
        below = np.all(
            sweep.omega_hat_physical.imag[low] < uniform.omega_hat_physical.imag[low]
        )
        ok &= bool(below)
        detail.append(f"gamma={gamma}: below uniform = {below}")
    assert report(3, "1D expanding-grid instability", ok, "; ".join(detail))


def test_criterion_4_cross_stabilization():
    scheme = fr.SchemeConfig(3, fr.CorrectionFamily.huynh_g2(3), 1.0, 2)
    k_hat = np.linspace(0.05, 0.9, 10)
    plain = fr.StretchedStencil(2, (1.0, 1.0), (1.1, 1.0))
    crossed = fr.StretchedStencil(2, (1.0, 1.0), (1.1, 0.9))
    at45_plain = dispersion_sweep(scheme, plain, np.pi / 4, 0.0, k_hat)
    at45_crossed = dispersion_sweep(scheme, crossed, np.pi / 4, 0.0, k_hat)
    smaller = np.all(
        at45_crossed.omega_hat_physical.imag < at45_plain.omega_hat_physical.imag
    )
    at0_plain = dispersion_sweep(scheme, plain, 0.0, 0.0, k_hat)
    at0_crossed = dispersion_sweep(scheme, crossed, 0.0, 0.0, k_hat)
    aligned_equal = (
        np.abs(at0_plain.omega_hat_physical - at0_crossed.omega_hat_physical).max()
        <= 1e-12
    )
    ok = bool(smaller and aligned_equal)
    assert report(
        4,
        "2D cross-stabilization",
        ok,
        f"(45deg Im reduced everywhere: {smaller}; theta=0 identical: {aligned_equal})",
    )


def test_criterion_5a_cfl_minimum_at_diagonal():
    # evaluated on the crossing-time CFL normalization, in which the
    # geometric structure of the limit is visible (see CflResult docs)
    ok = True
    details = []
    thetas = np.radians(np.arange(0, 91, 5))
    for p in (3, 4):
        scheme = fr.SchemeConfig(p, fr.CorrectionFamily.huynh_g2(p), 1.0, 2)
        for ratio in (0.5, 1.0, 2.0):
            stencil = fr.StretchedStencil(2, (1.0, ratio), (1.0, 1.0))
            values = [
                cfl_limit(scheme, stencil, RK44, theta).cfl_crossing
                for theta in thetas
            ]
            argmin_deg = 5 * int(np.argmin(values))
            target = np.degrees(np.arctan(ratio))
            ok &= abs(argmin_deg - target) <= 5.0
            details.append(f"p={p} dy/dx={ratio}: argmin {argmin_deg} (target {target:.1f})")
    assert report(5, "CFL minimum at diagonal incidence (5a)", ok, "; ".join(details))


def test_criterion_5b_quasi_1d_cfl_below_1d():
    """Kept as stated; equality is the true outcome for this operator.

    Proof: at theta = 0, a_y = 0, so Q = -a_x I (x) S_x (xi index fastest),
    which has the 1D spectrum; the 2D and 1D CFL limits therefore coincide.
    """
    results = {}
    for p in (3, 4):
        family = fr.CorrectionFamily.huynh_g2(p)
        one_d = cfl_limit(
            fr.SchemeConfig(p, family, 1.0, 1), fr.StretchedStencil.uniform(1), RK44
        )
        two_d = cfl_limit(
            fr.SchemeConfig(p, family, 1.0, 2),
            fr.StretchedStencil.uniform(2),
            RK44,
            0.0,
        )
        results[p] = (two_d.cfl_limit, one_d.cfl_limit)
    strictly_below = all(two < 0.99 * one for two, one in results.values())
    detail = "; ".join(
        f"p={p}: 2D {two:.6f} vs 1D {one:.6f}" for p, (two, one) in results.items()
    )
    assert report(5, "quasi-1D CFL strictly below 1D (5b)", strictly_below, detail)


def test_criterion_6_conditioning_trends():
    k_hat = np.linspace(np.pi / 4, 3 * np.pi / 4, 16)
    stencil = fr.StretchedStencil.uniform(2)
    kappas = {}
    for kind in ("huynh-g2", "dg"):
        scheme = fr.SchemeConfig(2, fr.make_family(kind, 2), 1.0, 2)
        for theta in (0.0, np.pi / 4):
            kappas[(kind, theta)] = dispersion_sweep(scheme, stencil, theta, 0.0, k_hat).kappa
    angle_trend = all(
        kappas[(kind, np.pi / 4)].mean() > kappas[(kind, 0.0)].mean()
        for kind in ("huynh-g2", "dg")
    )
    matched = np.concatenate(
        [kappas[("huynh-g2", t)] >= kappas[("dg", t)] for t in (0.0, np.pi / 4)]
    )
    family_trend = matched.mean() >= 0.9
    ok = bool(angle_trend and family_trend)
    assert report(
        6,
        "conditioning trends",
        ok,
        f"(angle trend: {angle_trend}; huynh >= dg share: {matched.mean():.2f})",
    )


def test_criterion_7_solver_vs_spectrum():
    assert DECAY_TOL == 1e-6  # the tolerance the criterion states
    configs = [
        (p, kind, alpha, d, theta)
        for p in (2, 3)
        for kind in ("dg", "huynh-g2")
        for alpha in (0.5, 1.0)
        for (d, theta) in ((1, 0.0), (2, 0.0), (2, np.radians(30)), (2, np.radians(45)))
    ]
    failures = []
    worst = 0.0
    for p, kind, alpha, d, theta in configs:
        check = check_decay_rate(p, kind, alpha, d, theta=theta, k_hat=1.0)
        worst = max(worst, check.rel_error)
        if not check.passed:
            failures.append((p, kind, alpha, d, np.degrees(theta), check.rel_error))
    assert report(
        7,
        "solver decay rate vs eigenanalysis",
        not failures,
        f"({len(configs)} configurations, worst rel err {worst:.2e})",
    ), failures


def test_criterion_8_fully_discrete():
    scheme = fr.SchemeConfig(3, fr.CorrectionFamily.huynh_g2(3), 1.0, 2)
    uniform = fr.StretchedStencil.uniform(2)
    k_hat = np.linspace(0.1, 2.5, 16)
    theta = np.radians(20)
    semi = dispersion_sweep(scheme, uniform, theta, 0.0, k_hat)
    tiny = fully_discrete_sweep(scheme, uniform, RK44, 1e-4, theta, 0.0, k_hat)
    rel = np.abs(
        (tiny.omega_physical - semi.omega_physical) / semi.omega_physical
    ).max()
    expanding = fr.StretchedStencil(2, (1.0, 1.0), (1.1, 1.0))
    fd = fully_discrete_sweep(
        scheme, expanding, RK44, 0.18, theta, 0.0, np.linspace(0.02, 1.2, 16)
    )
    persists = float(fd.omega_hat_physical.imag.max())
    ok = bool(rel <= 1e-3 and persists > 0.0)
    assert report(
        8,
        "fully-discrete consistency and persistence",
        ok,
        f"(tau->0 rel err {rel:.2e}; max Im at tau=0.18, gx=1.1: {persists:+.2e})",
    )


def test_criterion_9_mesh_metric():
    unit_cube = np.array(
        [
            [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
            [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1],
        ],
        dtype=float,
    )
    cube_exact = abs(shape_factor(unit_cube) - np.sqrt(np.pi / 6)) <= 1e-12
    flat = generate((6, 6, 6), 1.0, 0.0, seed=1)
    uniform_ok = np.abs(flat.per_element_qh - CUBE_SHAPE_FACTOR).max() <= 1e-12
    golden = generate((20, 20, 20), 1.0, 0.5, seed=42)
    golden_ok = float(golden.per_element_qh.mean()) == 0.68471567768923225
    means = [
        generate((12, 12, 12), 2.0, jf, seed=7).per_element_qh.mean()
        for jf in np.arange(0.0, 0.81, 0.1)
    ]
    monotone = bool(np.all(np.diff(means) <= 1e-12))
    ok = bool(cube_exact and uniform_ok and golden_ok and monotone)
    assert report(
        9,
        "mesh quality metric",
        ok,
        f"(cube: {cube_exact}; uniform: {uniform_ok}; golden: {golden_ok}; "
        f"monotone: {monotone})",
    )


def test_criterion_10_order_of_accuracy():
    ok = True
    details = []
    for p in (1, 2, 3):
        scheme = fr.SchemeConfig(p, fr.CorrectionFamily.dg(p), 1.0, 1)
        errors = []
        cells = [8, 16, 32]
        for nc in cells:
            grid = PeriodicGrid.uniform((nc,), 1.0 / nc)
            problem = AdvectionProblem(grid, scheme)
            # solution points of cell c at c/nc + (xi + 1)/(2 nc)
            x = (np.arange(nc)[:, None] + 0.5 * (problem.points.nodes + 1.0)) / nc
            tau = 0.05 / nc
            nsteps = int(round(0.25 / tau))
            final, _ = problem.march(np.exp(np.sin(2 * np.pi * x)), RK44, tau, nsteps)
            exact = np.exp(np.sin(2 * np.pi * (x - nsteps * tau)))
            errors.append(np.sqrt(problem.l2_energy(final - exact)))
        order = float(np.polyfit(np.log(cells), -np.log(errors), 1)[0])
        ok &= order >= p + 0.5
        details.append(f"p={p}: order {order:.2f}")
    assert report(10, "solver order of accuracy", ok, "; ".join(details))
