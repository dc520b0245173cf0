"""Time-domain solver tests: oracles against the eigenanalysis and hand stencils."""
import warnings
from functools import reduce

import numpy as np
import pytest

from frspectra import advect
from frspectra.advect import (
    AMPLIFICATION_TOL,
    BLOWUP_THRESHOLD,
    AdvectionProblem,
    DivergenceError,
    FieldState,
    PeriodicGrid,
    check_decay_rate,
    commensurate_wave,
    dump_state,
    eigenmode_state,
    physical_eigenvector,
    plane_wave_state,
)
from frspectra.basis import CorrectionFamily
from frspectra.operator import (
    SchemeConfig,
    StretchedStencil,
    WaveProbe,
    direction_cosines,
    symbol_for,
)
from frspectra.spectrum import analyze, normalization_factor
from frspectra.temporal import EULER, RK33, RK44, cfl_limit


def scheme(p, alpha=1.0, d=1, kind="huynh"):
    fam = CorrectionFamily.dg(p) if kind == "dg" else CorrectionFamily.huynh_g2(p)
    return SchemeConfig(p, fam, alpha, d)


def dense_wave_mode(sch, stencil, theta, phi, k):
    """The dense mode of analyze() with the largest plane-wave weight |beta|.

    Its eigenvectors are Kronecker products of the 1D ones, so its beta is
    the product of the 1D weights and the largest is the product of the 1D
    largest. analyze() samples the wave at the real k, so the stencil must
    be uniform.
    """
    assert stencil.gamma == (1.0,) * stencil.d
    res = analyze(symbol_for(sch, stencil, WaveProbe(k=k, theta=theta, phi=phi)))
    return complex(res.omega_physical), res.eigvecs[:, res.physical_index]


def dense_mode(sch, stencil, theta, phi, k):
    """The dense symbol at k with its analysis."""
    sym = symbol_for(sch, stencil, WaveProbe(k=k, theta=theta, phi=phi))
    return sym.Q, analyze(sym)


def eigen_residual(q, omega, vec):
    """||Q v - lambda v|| with lambda = -i omega, for unit-norm v."""
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    return np.linalg.norm(q @ vec + 1j * omega * vec)


def sum_of_1d_dense_modes(sch, stencil, theta, k):
    """sum_m a_m omega_m(k a_m), each 1D mode the dense wave-carrying one."""
    line = SchemeConfig(sch.p, sch.family, sch.alpha, 1)
    total = 0j
    for m, a in enumerate((np.cos(theta), np.sin(theta))):
        sub = StretchedStencil(1, stencil.delta[m : m + 1], stencil.gamma[m : m + 1])
        total += a * dense_wave_mode(line, sub, 0.0, 0.0, k * a)[0]
    return total


def elementwise_rhs(problem, values):
    """The element-wise right-hand side: interface fluxes re-derived per call."""
    ops, alpha = problem.ops, problem.scheme.alpha
    inv_jac = tuple(2.0 / w for w in problem.grid.spacings)
    if problem.grid.d == 1:
        a = problem.velocity[0]
        f = a * values
        f_left = f @ ops.lL
        f_right = f @ ops.lR
        west = alpha * np.roll(f_right, 1) + (1.0 - alpha) * f_left
        east = np.roll(west, -1)
        div = f @ ops.D.T
        div += np.multiply.outer(west - f_left, ops.hL)
        div += np.multiply.outer(east - f_right, ops.hR)
        return -div * inv_jac[0][:, None]

    a, b = problem.velocity
    f = a * values
    g = b * values
    f_left = np.einsum("yxji,i->yxj", f, ops.lL)
    f_right = np.einsum("yxji,i->yxj", f, ops.lR)
    west = alpha * np.roll(f_right, 1, axis=1) + (1.0 - alpha) * f_left
    east = np.roll(west, -1, axis=1)
    div_x = np.einsum("im,yxjm->yxji", ops.D, f)
    div_x += np.einsum("yxj,i->yxji", west - f_left, ops.hL)
    div_x += np.einsum("yxj,i->yxji", east - f_right, ops.hR)

    g_bottom = np.einsum("yxji,j->yxi", g, ops.lL)
    g_top = np.einsum("yxji,j->yxi", g, ops.lR)
    south = alpha * np.roll(g_top, 1, axis=0) + (1.0 - alpha) * g_bottom
    north = np.roll(south, -1, axis=0)
    div_y = np.einsum("jm,yxmi->yxji", ops.D, g)
    div_y += np.einsum("yxi,j->yxji", south - g_bottom, ops.hL)
    div_y += np.einsum("yxi,j->yxji", north - g_top, ops.hR)

    return -(
        div_x * inv_jac[0][None, :, None, None]
        + div_y * inv_jac[1][:, None, None, None]
    )


def reference_rhs(problem, values):
    """The transposing right-hand side: L_m left-multiplies direction m's lines."""
    d = problem.grid.d
    dtype = np.result_type(values, np.float64)
    out = np.zeros(values.shape, dtype)
    for m in range(d):
        op = problem._axis_operator(m)
        axes = (d - 1 - m, 2 * d - 1 - m)
        order = axes + tuple(i for i in range(2 * d) if i not in axes)
        front = values.transpose(order)
        lines = np.ascontiguousarray(front.reshape(op.shape[0], -1), dtype=dtype)
        # the real L_m acts on the real and imaginary parts in one product
        moved = (op @ lines.view(np.float64)).view(dtype)
        out += moved.reshape(front.shape).transpose(np.argsort(order))
    return out


def reference_step(problem, values, rk, tau):
    """One RK step as the matrix power sum sum_m c_m (tau L)^m values."""
    term = values
    acc = rk.coeffs[0] * values
    for c in rk.coeffs[1:]:
        term = tau * reference_rhs(problem, term)
        acc = acc + c * term
    return acc


def reference_cell_integrals(problem, values):
    """Per-cell quadrature: node weights along each node axis, then the cell measure."""
    measure = reduce(np.multiply.outer, [0.5 * w for w in problem.grid.spacings[::-1]])
    per_cell = values
    for _ in range(problem.grid.d):
        per_cell = per_cell @ problem.points.weights
    return measure * per_cell


def reference_energy(problem, values):
    return reference_cell_integrals(problem, np.abs(values) ** 2).sum()


NONUNIFORM_2D = PeriodicGrid.explicit(
    np.array([1.0, 0.5, 2.0, 0.7, 1.1]), np.array([0.9, 1.4, 0.6, 1.0])
)


def random_state(grid, p, seed):
    n = p + 1
    shape = (grid.cells_per_dir[0], n) if grid.d == 1 else (*grid.cells_per_dir[::-1], n, n)
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestGrids:
    def test_uniform_extent(self):
        grid = PeriodicGrid.uniform((8,), 0.5)
        assert grid.extent == (4.0,)
        assert grid.cells_per_dir == (8,)
        assert PeriodicGrid.uniform(8.0).cells_per_dir == (8,)  # an integral float is a count

    def test_mirrored_geometric_closes(self):
        grid = PeriodicGrid.mirrored_geometric(10, 1.3)
        w = grid.spacings[0]
        assert np.allclose(w, w[::-1])
        assert w.size == 10
        with pytest.raises(ValueError):
            PeriodicGrid.mirrored_geometric(7, 1.3)

    def test_minimum_cells(self):
        with pytest.raises(ValueError):
            PeriodicGrid.uniform((3,))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PeriodicGrid.mirrored_geometric(8, np.nan),
            lambda: PeriodicGrid.explicit([1.0, np.inf, 1.0, 1.0]),
            lambda: PeriodicGrid.uniform([8, 8], [1.0, np.nan]),
        ],
        ids=["mirrored-nan-gamma", "explicit-inf-width", "uniform-nan-delta"],
    )
    def test_non_finite_widths_rejected(self, build):
        with pytest.raises(ValueError, match="finite and > 0"):
            build()

    @pytest.mark.parametrize("cells", [8.5, (8, 6.5), np.nan, np.inf])
    def test_uniform_needs_integer_cell_counts(self, cells):
        with pytest.raises(ValueError, match="integers"):
            PeriodicGrid.uniform(cells)

    @pytest.mark.parametrize("velocity", [(np.nan, 0.5), (1.0, np.inf)])
    def test_velocity_must_be_finite(self, velocity):
        with pytest.raises(ValueError, match="finite"):
            AdvectionProblem(PeriodicGrid.uniform((8, 8)), scheme(2, d=2), velocity)


class TestSample:
    def test_broadcast_layout(self):
        problem = AdvectionProblem(NONUNIFORM_2D, scheme(2, 1.0, 2), (1.0, 0.0))
        x, y = problem.node_coordinates(0), problem.node_coordinates(1)
        got = problem.sample(lambda x, y: x + 10.0 * y)
        assert got.shape == (4, 5, 3, 3)
        assert np.array_equal(got, x[None, :, None, :] + 10.0 * y[:, None, :, None])

    def test_1d_is_node_coordinates(self):
        problem = AdvectionProblem(PeriodicGrid.mirrored_geometric(6, 1.2), scheme(2))
        assert np.array_equal(problem.sample(lambda x: x), problem.node_coordinates(0))


class TestRhs:
    @pytest.mark.parametrize(
        "grid",
        [
            PeriodicGrid.uniform((6,)),
            PeriodicGrid.mirrored_geometric(8, 1.2),
            NONUNIFORM_2D,
        ],
    )
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_constant_state_is_steady(self, grid, alpha):
        sch = scheme(3, alpha, grid.d)
        vel = (1.0,) if grid.d == 1 else (np.cos(0.4), np.sin(0.4))
        problem = AdvectionProblem(grid, sch, vel)
        shape = (
            (grid.cells_per_dir[0], 4)
            if grid.d == 1
            else (grid.cells_per_dir[1], grid.cells_per_dir[0], 4, 4)
        )
        values = np.full(shape, 2.7 + 0.0j)
        assert np.abs(problem.rhs(values)).max() < 1e-12

    @pytest.mark.parametrize(
        "grid,velocity",
        [
            (PeriodicGrid.mirrored_geometric(8, 1.2), (1.0,)),
            (NONUNIFORM_2D, (np.cos(0.4), np.sin(0.4))),
            (NONUNIFORM_2D, (1.0, 0.0)),
        ],
    )
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_matches_elementwise_rhs(self, grid, velocity, alpha, p):
        kind = "dg" if p == 0 else "huynh"
        problem = AdvectionProblem(grid, scheme(p, alpha, grid.d, kind), velocity)
        values = random_state(grid, p, seed=p)
        ref = elementwise_rhs(problem, values)
        assert np.abs(problem.rhs(values) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_p0_upwind_is_fv_stencil(self):
        grid = PeriodicGrid.uniform((8,), 0.5)
        problem = AdvectionProblem(grid, scheme(0, 1.0, kind="dg"))
        rng = np.random.default_rng(3)
        u = rng.normal(size=(8, 1)) + 0j
        expected = -(u - np.roll(u, 1, axis=0)) / 0.5
        assert np.abs(problem.rhs(u) - expected).max() < 1e-13

    def test_plane_wave_matches_symbol_action(self):
        # on a uniform commensurate grid the sampled plane wave is a Bloch
        # vector: the solver's rhs must equal the symbol acting cellwise
        p, nc, delta = 3, 8, 1.0
        k = 2 * np.pi * 2 / (nc * delta)
        sch = scheme(p)
        grid = PeriodicGrid.uniform((nc,), delta)
        problem = AdvectionProblem(grid, sch)
        state = plane_wave_state(problem, k)
        sym = symbol_for(sch, StretchedStencil.uniform(1, delta), WaveProbe(k=k))
        got = problem.rhs(state.values)
        phases = np.exp(1j * k * grid.origins(0))
        expected = phases[:, None] * (sym.Q @ state.values[0])
        assert np.abs(got - expected).max() < 1e-10

    def test_eigenmode_rhs_is_scalar_multiple(self):
        p, nc = 2, 8
        k = 2 * np.pi * 2 / nc
        sch = scheme(p)
        problem = AdvectionProblem(PeriodicGrid.uniform((nc,)), sch)
        state, omega = eigenmode_state(problem, k)
        got = problem.rhs(state.values)
        assert np.abs(got - (-1j * omega) * state.values).max() < 1e-8

    def test_grid_aligned_2d_eigenmode_is_constant_along_y(self):
        k, delta = commensurate_wave(2, 0.0, 3.0, (8, 8))
        grid = PeriodicGrid.uniform((8, 8), delta)
        state, omega = eigenmode_state(AdvectionProblem(grid, scheme(3, 1.0, 2), (1.0, 0.0)), k)
        values = state.values  # axes: cell y, cell x, node y, node x
        assert np.array_equal(values, np.broadcast_to(values[:1, :, :1, :], values.shape))
        line = AdvectionProblem(PeriodicGrid.uniform((8,), delta[0]), scheme(3))
        assert omega == eigenmode_state(line, k)[1]

    def test_2d_eigenmode_rhs(self):
        p = 2
        theta = np.radians(30)
        k, delta = commensurate_wave(2, theta, 3.0, (8, 8))
        sch = scheme(p, 1.0, 2)
        grid = PeriodicGrid.uniform((8, 8), delta)
        problem = AdvectionProblem(grid, sch, (np.cos(theta), np.sin(theta)))
        state, omega = eigenmode_state(problem, k, theta)
        got = problem.rhs(state.values)
        assert np.abs(got - (-1j * omega) * state.values).max() < 1e-8

    @pytest.mark.parametrize(
        "d,theta,velocity",
        [
            (2, np.radians(30), (1.0, 0.0)),
            (2, np.radians(30), (2 * np.cos(np.radians(30)), 2 * np.sin(np.radians(30)))),
            (1, 0.0, (2.0,)),
        ],
    )
    def test_eigenmode_needs_the_velocity_of_its_angles(self, d, theta, velocity):
        # the mode comes from theta, the Bloch phases from the velocity: these
        # cases gave max|L u + i omega u| / max|u| of 14.4, 33.2 and 28.4
        k, delta = commensurate_wave(d, theta, 3.0, (8,) * d)
        problem = AdvectionProblem(PeriodicGrid.uniform((8,) * d, delta), scheme(3, 1.0, d), velocity)
        with pytest.raises(ValueError, match="unit direction"):
            eigenmode_state(problem, k, theta)

    def test_eigenmode_needs_a_uniform_grid(self):
        k, theta = 2 * np.pi * 2 / (8 * 0.3), np.radians(30)
        stretched = AdvectionProblem(PeriodicGrid.mirrored_geometric(8, 1.1), scheme(3))
        with pytest.raises(ValueError, match="uniform grid"):
            eigenmode_state(stretched, k)
        # uniform in x, so only the y widths can reject it
        grid = PeriodicGrid.explicit([1.0] * 8, [1.0, 1.0, 1.2, 1.2] * 2)
        problem = AdvectionProblem(grid, scheme(3, 1.0, 2), (np.cos(theta), np.sin(theta)))
        with pytest.raises(ValueError, match="uniform grid"):
            eigenmode_state(problem, k, theta)
        uniform = AdvectionProblem(PeriodicGrid.uniform((8,), 0.3), scheme(3))
        _, omega = eigenmode_state(uniform, k)
        stencil = StretchedStencil(1, (0.3,), (1.0,))
        assert omega == physical_eigenvector(scheme(3), stencil, 0.0, 0.0, k)[0]


class TestStep:
    def test_central_preserves_l2_energy(self):
        # nodal DG member: central flux conserves the plain L2 norm
        sch = scheme(2, 0.5, kind="dg")
        problem = AdvectionProblem(PeriodicGrid.uniform((8,)), sch)
        state = plane_wave_state(problem, 2 * np.pi * 2 / 8)
        tau = 1e-3
        _, energies = problem.energy_history(state, RK44, tau, 100)
        drift = np.abs(np.diff(energies)).max()
        assert drift < 1e-10 * energies[0]

    @pytest.mark.parametrize(
        "alpha,grid",
        [(a, g) for g in (PeriodicGrid.uniform((8,)), NONUNIFORM_2D) for a in (0.5, 1.0)],
        ids=["0.5", "1.0", "2d-0.5", "2d-1.0"],
    )
    def test_conservation_per_step(self, alpha, grid):
        sch = scheme(3, alpha, grid.d)
        velocity = (1.0,) if grid.d == 1 else (np.cos(0.4), np.sin(0.4))
        problem = AdvectionProblem(grid, sch, velocity)
        state = FieldState(random_state(grid, 3, seed=7))
        total0 = problem.total_integral(state.values)
        for _ in range(50):
            state = problem.step(state, RK44, 5e-3)
            assert abs(problem.total_integral(state.values) - total0) < 1e-10
            total0 = problem.total_integral(state.values)

    def test_stability_bracketing_against_cfl(self):
        p = 2
        sch = scheme(p)
        stencil = StretchedStencil.uniform(1)
        res = cfl_limit(sch, stencil, 0.0, RK44)
        grid = PeriodicGrid.uniform((32,))
        problem = AdvectionProblem(grid, sch)
        rng = np.random.default_rng(11)
        values = rng.normal(size=(32, p + 1)) + 1j * rng.normal(size=(32, p + 1))
        state = FieldState(values)
        # below the limit: bounded for 10^4 steps
        final = problem.advance(state, RK44, 0.95 * res.tau_limit, 10_000)
        assert np.abs(final.values).max() < 1e3
        # slightly above: the divergence signal fires
        with pytest.raises(DivergenceError) as info:
            problem.advance(state, RK44, 1.1 * res.tau_limit, 10_000)
        assert 0 < info.value.step_index <= 10_000

    def test_expanding_region_collects_low_k_energy(self):
        # mirrored periodic grid: before transit mixes the halves, the energy
        # of a resolved low-wavenumber wave grows in the expanding half and
        # decays in the contracting half (qualitative sign check)
        sch = scheme(4)
        grid = PeriodicGrid.mirrored_geometric(12, 1.25)
        problem = AdvectionProblem(grid, sch)
        k = 2 * np.pi * 3 / grid.extent[0]
        state = plane_wave_state(problem, k)
        e0 = problem.energy_by_cell(state.values)
        final = problem.advance(state, RK44, 2.5e-3, 4)
        e1 = problem.energy_by_cell(final.values)
        w = grid.spacings[0]
        expanding = np.array([w[(i + 1) % w.size] > w[i] for i in range(w.size)])
        expanding_ratio = e1[expanding].sum() / e0[expanding].sum()
        contracting_ratio = e1[~expanding].sum() / e0[~expanding].sum()
        assert expanding_ratio > 1.0 > contracting_ratio


MARCH_GRIDS = [PeriodicGrid.uniform((8,)), PeriodicGrid.mirrored_geometric(8, 1.2), NONUNIFORM_2D]
MARCH_IDS = ["uniform", "mirrored", "2d"]


def march_problem(grid, p, alpha=1.0):
    kind = "dg" if p == 0 else "huynh"
    velocity = (1.0,) if grid.d == 1 else (np.cos(0.4), np.sin(0.4))
    return AdvectionProblem(grid, scheme(p, alpha, grid.d, kind), velocity)


class TestGridMarch:
    """The solution-point-grid march against the transposing power-sum reference."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("grid", MARCH_GRIDS, ids=MARCH_IDS)
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_matches_reference_step(self, p, alpha, grid, real):
        # every RK degree, looped inside so the test ids stay: the update's
        # number of terms in powers of tau L_1 depends on the degree
        problem = march_problem(grid, p, alpha)
        values = random_state(grid, p, seed=p)
        if real:
            values = values.real.copy()
        state, tau = FieldState(values, time=0.5), 0.02
        for rk in (EULER, RK33, RK44):
            ref = reference_step(problem, values, rk, tau)
            got = problem.step(state, rk, tau)
            assert got.values.dtype == ref.dtype
            assert np.abs(got.values - ref).max() <= 1e-13 * np.abs(ref).max(), rk.name
            assert got.time == 0.5 + tau

            ref, ref_energies = values, [reference_energy(problem, values)]
            for _ in range(50):
                ref = reference_step(problem, ref, rk, tau)
                ref_energies.append(reference_energy(problem, ref))
            final, energies = problem.energy_history(state, rk, tau, 50)
            assert final.values.dtype == ref.dtype
            assert np.abs(final.values - ref).max() <= 1e-13 * np.abs(ref).max(), rk.name
            assert np.abs(energies / ref_energies - 1.0).max() <= 1e-12, rk.name
            assert np.array_equal(problem.advance(state, rk, tau, 50).values, final.values)

    @pytest.mark.parametrize("grid", MARCH_GRIDS, ids=MARCH_IDS)
    @pytest.mark.parametrize("rk", [EULER, RK33, RK44], ids=lambda rk: rk.name)
    def test_update_is_dense_horner_polynomial(self, rk, grid):
        # the expansion in powers of tau L_1 against R(tau L) in Horner form,
        # L the dense Kronecker sum of the line operators, column by column
        problem, tau = march_problem(grid, 3, 0.5), 0.02
        ops = [problem._axis_operator(m) for m in range(grid.d)]
        dense = reduce(
            lambda acc, op: np.kron(op, np.eye(len(acc))) + np.kron(np.eye(len(op)), acc), ops
        )
        horner = rk.coeffs[-1] * np.eye(len(dense))
        for c in rk.coeffs[-2::-1]:
            horner = tau * dense @ horner + c * np.eye(len(dense))
        units = np.eye(len(dense)).reshape(len(dense), *problem._shape)
        update = problem._apply_update(units, problem._rk_update(rk, tau))
        got = update.reshape(len(dense), -1).T
        assert np.abs(got - horner).max() <= 1e-13 * np.abs(horner).max()

    def test_march_builds_the_update_once(self, monkeypatch):
        # one build per march and one application per step; a per-step
        # rebuild or a return to staged operator applications fails here
        calls = {"_rk_update": 0, "_apply_update": 0, "_apply": 0}

        def counting(name):
            method = getattr(AdvectionProblem, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            return spy

        for name in calls:
            monkeypatch.setattr(AdvectionProblem, name, counting(name))
        problem = march_problem(NONUNIFORM_2D, 2)
        state = FieldState(random_state(NONUNIFORM_2D, 2, seed=3))
        marches = [(problem.advance, 7), (problem.energy_history, 5), (problem.advance, 0)]
        for march, nsteps in marches:
            calls.update(dict.fromkeys(calls, 0))
            march(state, RK44, 0.02, nsteps)
            assert calls == {"_rk_update": 1, "_apply_update": nsteps, "_apply": 0}
        calls.update(dict.fromkeys(calls, 0))
        problem.step(state, RK44, 0.02)
        assert calls == {"_rk_update": 1, "_apply_update": 1, "_apply": 0}

    @pytest.mark.parametrize("tau,scale", [(1e40, 1.0), (1e80, 1.0), (1e-3, 1e200)])
    @pytest.mark.parametrize("grid", [PeriodicGrid.uniform((8,)), PeriodicGrid.uniform((8, 8))],
                             ids=["1d", "2d"])
    def test_overflow_diverges_at_step_1_without_warning(self, grid, tau, scale):
        # tau = 1e80 overflows while the update is built, 1e40 in the first
        # |z|^2 and a 1e200 state in the initial energy; each used to warn
        problem = march_problem(grid, 2)
        state = FieldState(scale * random_state(grid, 2, seed=5))
        for march in (problem.advance, problem.energy_history):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DivergenceError) as info:
                    march(state, RK44, tau, 3)
            assert info.value.step_index == 1

    @pytest.mark.parametrize("grid", [PeriodicGrid.uniform((8,)), PeriodicGrid.uniform((8, 8))],
                             ids=["1d", "2d"])
    def test_step_overflow_diverges_at_step_1_without_warning(self, grid):
        # a single step is a march of one step and reports overflow the same way
        problem = march_problem(grid, 2)
        state = FieldState(1e300 * random_state(grid, 2, seed=5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                problem.step(state, RK44, 1e3)
        assert info.value.step_index == 1

    @pytest.mark.parametrize("grid", MARCH_GRIDS, ids=MARCH_IDS)
    def test_real_state_stays_real(self, grid):
        problem = march_problem(grid, 3)
        values = random_state(grid, 3, seed=4)
        marches = [
            lambda v: problem.rhs(v),
            lambda v: problem.step(FieldState(v), RK44, 0.02).values,
            lambda v: problem.advance(FieldState(v), RK44, 0.02, 5).values,
        ]
        for march in marches:
            # L is real, so a real state marches as the real part of the complex one
            got, whole = march(values.real.copy()), march(values)
            assert got.dtype == np.float64
            assert np.abs(got - whole.real).max() <= 1e-14 * np.abs(whole).max()

    def test_divergence_step_matches_reference(self):
        p, grid = 2, PeriodicGrid.uniform((32,))
        problem = march_problem(grid, p)
        tau = 1.1 * cfl_limit(scheme(p), StretchedStencil.uniform(1), 0.0, RK44).tau_limit
        values = random_state(grid, p, seed=11)
        ref = values
        for expected in range(1, 10_001):
            ref = reference_step(problem, ref, RK44, tau)
            if np.abs(ref).max() > BLOWUP_THRESHOLD:
                break
        else:
            pytest.fail("the reference march did not diverge")
        with pytest.raises(DivergenceError) as info:
            problem.advance(FieldState(values), RK44, tau, 10_000)
        assert info.value.step_index == expected

    @pytest.mark.parametrize("grid", MARCH_GRIDS, ids=MARCH_IDS)
    def test_quadrature_matches_reference(self, grid):
        problem = march_problem(grid, 3)
        values = random_state(grid, 3, seed=2)
        ref_cells = reference_cell_integrals(problem, np.abs(values) ** 2)
        got_cells = problem.energy_by_cell(values)
        assert got_cells.shape == ref_cells.shape
        assert np.abs(got_cells - ref_cells).max() <= 1e-14 * ref_cells.max()
        scale = reference_cell_integrals(problem, np.abs(values)).sum()
        for v in (values, values.real.copy()):
            ref_total = reference_cell_integrals(problem, v).sum()
            assert abs(problem.total_integral(v) - ref_total) <= 1e-14 * scale


class TestMarchInputs:
    @pytest.fixture
    def problem_and_state(self):
        problem = march_problem(PeriodicGrid.uniform((8,)), 2)
        return problem, plane_wave_state(problem, 2 * np.pi * 2 / 8)

    @pytest.mark.parametrize("tau", [0.0, -1e-3, np.nan, np.inf])
    def test_time_step_must_be_finite_and_positive(self, problem_and_state, tau):
        problem, state = problem_and_state
        with pytest.raises(ValueError, match="finite and > 0"):
            problem.step(state, RK44, tau)
        with pytest.raises(ValueError, match="finite and > 0"):
            problem.advance(state, RK44, tau, 5)
        with pytest.raises(ValueError, match="finite and > 0"):
            problem.energy_history(state, RK44, tau, 3)

    def test_step_count_must_not_be_negative(self, problem_and_state):
        problem, state = problem_and_state
        with pytest.raises(ValueError, match=">= 0"):
            problem.advance(state, RK44, 1e-3, -3)
        with pytest.raises(ValueError, match=">= 0"):
            problem.energy_history(state, RK44, 1e-3, -3)
        final, energies = problem.energy_history(state, RK44, 1e-3, 0)
        assert np.array_equal(final.values, state.values) and final.time == state.time
        assert energies.shape == (1,)

    def test_non_finite_state_diverges_at_that_step(self, problem_and_state):
        problem, state = problem_and_state
        values = state.values.copy()
        values[3, 1] = np.nan
        for march in (problem.advance, problem.energy_history):
            with pytest.raises(DivergenceError) as info:
                march(FieldState(values), RK44, 1e-3, 5)
            assert info.value.step_index == 1

    def test_decay_check_needs_a_step_before_solving(self, monkeypatch):
        def solve(*args):
            raise AssertionError("solved before checking nsteps")

        monkeypatch.setattr(advect, "make_family", solve)
        for nsteps in (0, -1):
            with pytest.raises(ValueError, match=">= 1"):
                check_decay_rate(2, "huynh-g2", 1.0, 1, nsteps=nsteps)

    @pytest.mark.parametrize("k_hat", [0.0, -1.0, np.nan, np.inf, np.pi * (1 + 1e-12), 50.0])
    def test_decay_check_needs_k_hat_in_0_to_pi(self, monkeypatch, k_hat):
        def solve(*args):
            raise AssertionError("solved before checking k_hat")

        monkeypatch.setattr(advect, "make_family", solve)
        with pytest.raises(ValueError, match=r"k_hat must be finite and in \(0, pi\]"):
            check_decay_rate(2, "huynh-g2", 1.0, 1, k_hat=k_hat)

    @pytest.mark.parametrize("tol", [np.nan, -1e-6, 0.0, np.inf])
    def test_decay_check_needs_finite_positive_tol(self, monkeypatch, tol):
        def solve(*args):
            raise AssertionError("solved before checking tol")

        monkeypatch.setattr(advect, "make_family", solve)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            check_decay_rate(2, "huynh-g2", 1.0, 1, tol=tol)

    @pytest.mark.parametrize("cells", [0, -8, 3, 8.5, np.nan, np.inf])
    def test_decay_check_needs_an_integer_cell_count_of_at_least_4(self, monkeypatch, cells):
        def solve(*args):
            raise AssertionError("solved before checking cells")

        monkeypatch.setattr(advect, "make_family", solve)
        with pytest.raises(ValueError, match="cells must be an integer >= 4"):
            check_decay_rate(2, "huynh-g2", 1.0, 1, cells=cells)


class TestRateChecks:
    @pytest.mark.parametrize(
        "p,kind,alpha,d,theta_deg",
        [
            (1, "dg", 1.0, 1, 0.0),
            (4, "huynh", 1.0, 1, 0.0),
            (2, "huynh", 0.5, 2, 45.0),
            (3, "dg", 1.0, 2, 30.0),
        ],
    )
    def test_decay_rate_matches_spectrum(self, p, kind, alpha, d, theta_deg):
        kind_name = "dg" if kind == "dg" else "huynh-g2"
        check = check_decay_rate(p, kind_name, alpha, d, theta=np.radians(theta_deg), k_hat=1.0)
        assert check.passed, (
            f"rate mismatch: predicted {check.predicted}, measured {check.measured}, "
            f"rel {check.rel_error}"
        )

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("k_hat", [0.3, 1.0, 2.2])
    def test_physical_eigenvector_matches_dense_tracking(self, alpha, k_hat):
        sch = scheme(3, alpha, 2)
        stencil = StretchedStencil.uniform(2)
        theta = np.radians(30)
        k = k_hat / normalization_factor(theta, 0.0, stencil, 3)
        omega, vec = physical_eigenvector(sch, stencil, theta, 0.0, k)
        dense_omega, dense_vec = dense_wave_mode(sch, stencil, theta, 0.0, k)
        assert abs(omega - dense_omega) < 1e-12
        assert abs(abs(np.vdot(dense_vec, vec)) - 1.0) < 1e-12
        q, _ = dense_mode(sch, stencil, theta, 0.0, k)
        assert eigen_residual(q, omega, vec) <= 1e-12
        assert abs(omega - sum_of_1d_dense_modes(sch, stencil, theta, k)) < 1e-12

    def test_decay_rate_follows_sum_of_1d_modes(self):
        # a plane-wave-weight tie-break over dense modes gave rate -5.163111136102
        check = check_decay_rate(5, "huynh-g2", 1.0, 2, np.radians(35), 1.5)
        assert check.passed
        assert abs(check.predicted / -6.488780685168e-01 - 1.0) < 1e-9

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_low_k_mode_has_largest_plane_wave_weight(self, p):
        stencil = StretchedStencil.uniform(2)
        for alpha in (0.5, 1.0):
            sch = scheme(p, alpha, 2)
            for theta in np.radians(np.arange(5, 90, 10)):
                k = 0.3 / normalization_factor(theta, 0.0, stencil, p)
                omega, vec = physical_eigenvector(sch, stencil, theta, 0.0, k)
                q, res = dense_mode(sch, stencil, theta, 0.0, k)
                assert abs(omega - res.modes[int(np.argmax(np.abs(res.beta)))]) < 1e-12
                assert eigen_residual(q, omega, vec) <= 1e-12

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_diagonal_mode_is_twice_the_1d_mode(self, p):
        # uniform grid at 45 degrees: Q = a (S(ka) (x) I + I (x) S(ka)), a = 1/sqrt(2)
        stencil, theta, a = StretchedStencil.uniform(2), np.pi / 4, np.sqrt(0.5)
        for alpha in (0.5, 1.0):
            sch = scheme(p, alpha, 2)
            for k_hat in (0.3, 1.0, 1.3, 2.0):
                k = k_hat / normalization_factor(theta, 0.0, stencil, p)
                omega, vec = physical_eigenvector(sch, stencil, theta, 0.0, k)
                line = dense_wave_mode(
                    scheme(p, alpha), StretchedStencil.uniform(1), 0.0, 0.0, k * a
                )[0]
                assert abs(omega - 2 * a * line) <= 1e-12 * abs(omega)
                q, _ = dense_mode(sch, stencil, theta, 0.0, k)
                assert eigen_residual(q, omega, vec) <= 1e-12

    def test_stretched_mode_grows_on_expanding_cells(self):
        # the mode of each direction grows where gamma_m > 1 and decays where
        # gamma_m < 1, as omega_ex does
        stencil = StretchedStencil(3, (0.5, 2.0, 1.0), (1.5, 0.8, 1.2))
        theta = phi = np.radians(89)
        k = 0.01 / normalization_factor(theta, phi, stencil, 1)
        omega, _ = physical_eigenvector(scheme(1, 0.5, 3), stencil, theta, phi, k)
        expected = 0j
        for m, a in enumerate(direction_cosines(theta, phi, 3)):
            line = StretchedStencil(1, stencil.delta[m : m + 1], stencil.gamma[m : m + 1])
            omega_m, _ = physical_eigenvector(scheme(1, 0.5), line, 0.0, 0.0, k * a)
            assert np.sign(omega_m.imag) == np.sign(np.log(stencil.gamma[m]))
            expected += a * omega_m
        assert abs(omega - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("k_hat", [0.6, 0.65, 0.7])
    def test_mode_leaves_the_avoided_crossing_with_the_wave(self, k_hat):
        # 1D DG p = 4 central: a spurious branch meets omega_hat = k_hat in an
        # avoided crossing near 0.565, where the sorted branches part from the wave
        sch, stencil = scheme(4, 0.5, kind="dg"), StretchedStencil.uniform(1)
        factor = normalization_factor(0.0, 0.0, stencil, 4)
        omega, _ = physical_eigenvector(sch, stencil, 0.0, 0.0, k_hat / factor)
        assert abs(omega * factor - k_hat) < 1e-3

    @pytest.mark.parametrize("gamma,sign", [(1.5, 1.0), (0.8, -1.0)])
    def test_expanding_cell_grows_and_contracting_cell_decays(self, gamma, sign):
        stencil = StretchedStencil(1, (0.5,), (gamma,))
        omega, _ = physical_eigenvector(scheme(1, 0.5), stencil, 0.0, 0.0, 7.3e-6)
        assert np.sign(omega.imag) == sign

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_marched_mode_carries_the_plane_wave(self, d, p, alpha):
        # the timedomain benchmark items; every central mode has zero decay,
        # so the energy cannot show that the marched mode is the wave: the
        # weight and the amplification residual do
        theta = np.radians(30) if d == 2 else 0.0
        check = check_decay_rate(p, "huynh-g2", alpha, d, theta, 1.0)
        assert check.passed and check.weight > 0.9
        assert check.config["nsteps"] == 16
        assert check.residual <= AMPLIFICATION_TOL
        gain = check.predicted_amplification
        assert abs(check.amplification - gain) <= AMPLIFICATION_TOL * abs(gain)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_short_march_keeps_the_prediction(self, d, p, alpha):
        # predicted and k do not depend on the march length, and the fitted
        # rate of an exact eigenvector moves by roundoff only
        theta = np.radians(30) if d == 2 else 0.0
        short = check_decay_rate(p, "huynh-g2", alpha, d, theta, 1.0)
        long = check_decay_rate(p, "huynh-g2", alpha, d, theta, 1.0, nsteps=256)
        assert long.passed
        assert short.predicted.hex() == long.predicted.hex()
        assert short.k.hex() == long.k.hex()
        floor = max(abs(long.predicted), 1e-3 * long.k)
        assert abs(short.measured - long.measured) <= 1e-10 * floor

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_wavenumber_must_be_finite_and_positive(self, d, k):
        sch = scheme(3, 1.0, d)
        theta = np.radians(30) if d == 2 else 0.0
        with pytest.raises(ValueError, match="wavenumber must be finite and > 0"):
            physical_eigenvector(sch, StretchedStencil.uniform(d), theta, 0.0, k)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_stretched_3d_mode_is_an_eigenpair(self, alpha):
        stencil = StretchedStencil(3, (1.0, 0.7, 1.3), (1.1, 0.9, 1.0))
        sch = scheme(3, alpha, 3)
        theta, phi = np.radians(30), np.radians(20)
        for k_hat in (0.3, 1.0, 2.0):
            k = k_hat / normalization_factor(theta, phi, stencil, 3)
            omega, vec = physical_eigenvector(sch, stencil, theta, phi, k)
            q, _ = dense_mode(sch, stencil, theta, phi, k)
            assert eigen_residual(q, omega, vec) <= 1e-12

    def test_commensurate_wave_is_exact(self):
        k, delta = commensurate_wave(2, np.radians(30), 3.0, (8, 8))
        # both components must fit an integer number of periods in the box
        mx = k * np.cos(np.radians(30)) * 8 * delta[0] / (2 * np.pi)
        my = k * np.sin(np.radians(30)) * 8 * delta[1] / (2 * np.pi)
        assert abs(mx - round(mx)) < 1e-12
        assert abs(my - round(my)) < 1e-12

    def test_commensurate_wave_scales_with_delta_x(self):
        theta = np.radians(30)
        k, delta = commensurate_wave(2, theta, 30.0, (8, 8), delta_x=0.1)
        assert delta[0] == 0.1
        assert abs(delta[1] / delta[0] - 1.0) < 0.2
        for a, width in zip((np.cos(theta), np.sin(theta)), delta):
            modes = k * a * 8 * width / (2 * np.pi)
            assert abs(modes - round(modes)) < 1e-12
        assert type(k) is float and all(type(w) is float for w in delta)

    @pytest.mark.parametrize("d", [2, 3])
    def test_commensurate_wave_grid_aligned_is_1d(self, d):
        # the wave moves along x at theta = 0 and along y at theta = 90 degrees
        k_1d, (w_1d,) = commensurate_wave(1, 0.0, 3.0, (8,), 0.5)
        assert commensurate_wave(d, 0.0, 3.0, (8,) * d, 0.5) == (k_1d, (w_1d,) * d)
        assert commensurate_wave(d, np.pi / 2, 3.0, (8,) * d, 0.5) == (k_1d, (w_1d,) * d)


def mutate_mode(monkeypatch, mutate):
    """Hand eigenmode_state ``mutate(omega, vec, scheme, stencil, theta, phi, k)``
    in place of the wave-carrying mode (omega, vec)."""
    exact = advect.physical_eigenvector

    def mutated(*probe):
        return mutate(*exact(*probe), *probe)

    monkeypatch.setattr(advect, "physical_eigenvector", mutated)


def other_mode(omega, vec, *probe):
    """The wave's eigenvector with the frequency of the nearest other mode."""
    _, res = dense_mode(*probe)
    others = [w for w in res.modes if abs(w - omega) > 1e-8]
    return complex(min(others, key=lambda w: abs(w - omega))), vec


class TestAmplificationSeesTheMode:
    """A wrong frequency or mode fails the amplification test, also where the
    energy fit passes it."""

    ITEMS = [(d, p) for d in (1, 2) for p in (2, 3, 4)]  # the timedomain benchmark items

    @staticmethod
    def check(d, p, alpha):
        check = check_decay_rate(p, "huynh-g2", alpha, d, np.radians(30) if d == 2 else 0.0, 1.0)
        assert check.residual > AMPLIFICATION_TOL and not check.passed
        return check

    @pytest.mark.parametrize("d,p", ITEMS)
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_frequency_off_by_1e_9(self, monkeypatch, d, p, alpha):
        mutate_mode(monkeypatch, lambda omega, vec, *probe: (omega * (1 + 1e-9), vec))
        check = self.check(d, p, alpha)
        assert check.rel_error <= check.tol

    @pytest.mark.parametrize("d,p", ITEMS)
    def test_frequency_of_another_mode(self, monkeypatch, d, p):
        # central modes all have zero decay; the energy fit fails only where
        # the time step chosen for the other mode is too long for the marched one
        mutate_mode(monkeypatch, other_mode)
        self.check(d, p, 0.5)

    @pytest.mark.parametrize("d,p", ITEMS)
    def test_central_frequency_with_the_wrong_real_part(self, monkeypatch, d, p):
        mutate_mode(monkeypatch, lambda omega, vec, *probe: (-omega.conjugate(), vec))
        check = self.check(d, p, 0.5)
        assert check.rel_error <= check.tol


class TestOrderOfAccuracy:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_convergence_order(self, p):
        sch = scheme(p, 1.0, kind="dg")
        errors = []
        cells = [8, 16, 32]
        for nc in cells:
            grid = PeriodicGrid.uniform((nc,), 1.0 / nc)
            problem = AdvectionProblem(grid, sch)
            state = FieldState(problem.sample(lambda x: np.exp(np.sin(2 * np.pi * x))))
            tau = 0.05 / nc
            nsteps = int(round(0.25 / tau))
            final = problem.advance(state, RK44, tau, nsteps)
            t = nsteps * tau
            errors.append(
                problem.l2_error(final.values, lambda x: np.exp(np.sin(2 * np.pi * (x - t))))
            )
        order = np.polyfit(np.log(cells), -np.log(errors), 1)[0]
        assert order >= p + 0.5


class TestDump:
    def test_dump_roundtrip_values(self, tmp_path):
        problem = AdvectionProblem(PeriodicGrid.uniform((4,)), scheme(1))
        state = plane_wave_state(problem, 2 * np.pi / 4)
        path = tmp_path / "state.txt"
        dump_state(problem, state, path)
        rows = np.loadtxt(path)
        assert rows.shape == (4 * 2, 4)  # cell, x, re, im
        values = rows[:, 2] + 1j * rows[:, 3]
        assert np.abs(values - state.values.ravel()).max() < 1e-15

    def test_dump_2d_records(self, tmp_path):
        sch = scheme(1, 1.0, 2)
        problem = AdvectionProblem(NONUNIFORM_2D, sch, (np.cos(0.4), np.sin(0.4)))
        state = FieldState(random_state(NONUNIFORM_2D, 1, seed=5))
        path = tmp_path / "state2d.txt"
        dump_state(problem, state, path)
        rows = np.loadtxt(path)
        x, y = problem.node_coordinates(0), problem.node_coordinates(1)
        ncy, ncx = state.values.shape[:2]
        expected = [
            (cy * ncx + cx, x[cx, i], y[cy, j], state.values[cy, cx, j, i])
            for cy in range(ncy) for cx in range(ncx) for j in range(2) for i in range(2)
        ]
        assert rows.shape == (len(expected), 5)
        for row, (cell, xi, yj, v) in zip(rows, expected):
            assert row.tolist() == [cell, xi, yj, v.real, v.imag]

    def test_dump_2d_header(self, tmp_path):
        sch = scheme(1, 1.0, 2)
        problem = AdvectionProblem(PeriodicGrid.uniform((4, 4)), sch, (1.0, 0.0))
        state = FieldState(np.zeros((4, 4, 2, 2), dtype=complex))
        path = tmp_path / "state2d.txt"
        dump_state(problem, state, path)
        head = path.read_text().splitlines()[:4]
        assert head[0].startswith("# frspectra state dump")
        assert "cell node_x node_y re_value im_value" in head[3]
