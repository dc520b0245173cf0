"""Time-domain flux reconstruction solver for linear advection.

Periodic stretched rectilinear grids in 1D/2D, complex-valued states, and
exact upwinding at the interfaces (the Riemann problem for linear
advection). For linear fluxes the discontinuous-plus-correction update
coincides with nodal DG when the zero-parameter correction member is
used.

This solver is built directly from the element-wise definition of the
scheme (interpolate, form common interface fluxes, distribute the jump
through the correction derivatives), so the semi-discrete symbol of the
``operator`` module can be checked against it: growth and decay rates
fitted from time marching must reproduce the eigenanalysis.

The semi-discrete operator is the Kronecker sum L = L_1 (+) ... (+) L_d of
dense per-direction line operators, assembled once per problem by applying
that recipe to unit vectors (see :meth:`AdvectionProblem.rhs`).

One writer per state; independent runs parallelize at the case level.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from math import factorial, pi

import numpy as np

from .basis import make_family, make_points
from .operator import (
    SchemeConfig,
    StretchedStencil,
    WaveProbe,
    direction_cosines,
    operators_for,
    symbol_for,
)
from .spectrum import analyze, dispersion_sweep, normalization_factor
from .temporal import RK44, RkScheme

BLOWUP_THRESHOLD = 1e10


class DivergenceError(RuntimeError):
    """Raised when the solution magnitude exceeds the blow-up threshold."""

    def __init__(self, step_index: int, magnitude: float):
        super().__init__(
            f"solution diverged at step {step_index} (max magnitude {magnitude:.3e})"
        )
        self.step_index = step_index
        self.magnitude = magnitude


@dataclass(frozen=True)
class PeriodicGrid:
    """Periodic rectilinear grid given by per-cell widths per direction."""

    d: int
    spacings: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("time marching supports d = 1 or 2")
        if len(self.spacings) != self.d:
            raise ValueError("one spacing array per direction required")
        for w in self.spacings:
            if w.size < 4:
                raise ValueError("at least 4 cells per direction required")
            if np.any(w <= 0):
                raise ValueError("cell widths must be positive")

    @classmethod
    def uniform(cls, cells, delta=1.0) -> "PeriodicGrid":
        cells = np.atleast_1d(cells)
        delta = np.broadcast_to(np.atleast_1d(delta).astype(float), cells.shape)
        return cls(cells.size, tuple(np.full(int(c), dx) for c, dx in zip(cells, delta)))

    @classmethod
    def mirrored_geometric(cls, cells: int, gamma: float, delta0: float = 1.0) -> "PeriodicGrid":
        """Expansion followed by the mirrored contraction, so the domain closes.

        A one-sided geometric grid cannot be periodic; the mirrored form
        keeps the local expansion mechanism while allowing clean periodic
        time marching.
        """
        if cells % 2:
            raise ValueError("mirrored geometric grids need an even cell count")
        half = delta0 * gamma ** np.arange(cells // 2)
        return cls(1, (np.concatenate([half, half[::-1]]),))

    @classmethod
    def explicit(cls, *spacings) -> "PeriodicGrid":
        arrays = tuple(np.asarray(w, dtype=float) for w in spacings)
        return cls(len(arrays), arrays)

    @property
    def extent(self) -> tuple[float, ...]:
        return tuple(float(w.sum()) for w in self.spacings)

    @property
    def cells_per_dir(self) -> tuple[int, ...]:
        return tuple(w.size for w in self.spacings)

    def origins(self, m: int) -> np.ndarray:
        w = self.spacings[m]
        return np.concatenate(([0.0], np.cumsum(w)))[:-1]


@dataclass(frozen=True)
class FieldState:
    """Nodal values with the current time.

    Values have d cell axes, then d node axes (p+1 each), both in reverse
    direction order: 1D (cells, p+1), 2D (cells_y, cells_x, p+1, p+1) with
    the xi (x) node index last.
    """

    values: np.ndarray
    time: float = 0.0


class AdvectionProblem:
    """Grid + scheme + velocity with precomputed element operators."""

    def __init__(self, grid: PeriodicGrid, scheme: SchemeConfig, velocity=None):
        if scheme.d != grid.d:
            raise ValueError(f"scheme d={scheme.d} does not match grid d={grid.d}")
        if velocity is None:
            velocity = (1.0,) * grid.d
        velocity = tuple(float(v) for v in velocity)
        if len(velocity) != grid.d:
            raise ValueError("one velocity component per direction required")
        if any(v < 0 for v in velocity):
            raise ValueError("upwinding assumes non-negative velocity components")
        self.grid = grid
        self.scheme = scheme
        self.velocity = velocity
        self.points = make_points(scheme.p, scheme.rule)
        self.ops = operators_for(scheme)
        # cell axes run (..., y, x), hence the reversed direction order
        self._cell_measure = reduce(np.multiply.outer, [0.5 * w for w in grid.spacings[::-1]])
        # per direction: L_m, an axis order putting its cell and node axes first, its inverse
        self._axis_ops = []
        for m in range(grid.d):
            axes = (grid.d - 1 - m, 2 * grid.d - 1 - m)
            order = axes + tuple(i for i in range(2 * grid.d) if i not in axes)
            self._axis_ops.append((self._axis_operator(m), order, tuple(np.argsort(order))))

    # -- geometry -----------------------------------------------------------

    def node_coordinates(self, m: int) -> np.ndarray:
        """Physical node coordinates along direction m, shape (cells, p+1)."""
        w = self.grid.spacings[m]
        return self.grid.origins(m)[:, None] + 0.5 * (self.points.nodes + 1.0) * w[:, None]

    def sample(self, fn) -> np.ndarray:
        """Sample ``fn(x, y, ...)`` at all solution points, in the FieldState
        layout: coordinate m has length 1 off its own cell and node axes."""
        coords = (  # order[2:] lists the axes other than direction m's own two
            np.expand_dims(self.node_coordinates(m), order[2:])
            for m, (_, order, _) in enumerate(self._axis_ops)
        )
        return np.asarray(fn(*coords))

    # -- semi-discrete right-hand side ---------------------------------------

    def _axis_operator(self, m: int) -> np.ndarray:
        """Operator L_m of one periodic grid line along direction m.

        Column j is the element-wise recipe applied to unit vector j.
        """
        ops, alpha = self.ops, self.scheme.alpha
        w = self.grid.spacings[m]
        size = w.size * (self.scheme.p + 1)
        f = self.velocity[m] * np.eye(size).reshape(size, w.size, -1)
        f_left = f @ ops.lL
        f_right = f @ ops.lR
        west = alpha * np.roll(f_right, 1, axis=1) + (1.0 - alpha) * f_left
        east = np.roll(west, -1, axis=1)
        div = f @ ops.D.T
        div += (west - f_left)[..., None] * ops.hL
        div += (east - f_right)[..., None] * ops.hR
        columns = -div * (2.0 / w)[:, None]
        return np.ascontiguousarray(columns.reshape(size, size).T)

    def rhs(self, values: np.ndarray) -> np.ndarray:
        """d(values)/dt = L values with L = L_1 (+) ... (+) L_d (Kronecker sum).

        Direction m is one product: L_m left-multiplies its grid lines. That
        costs O((cells_m*(p+1))^2) per line against O(cells_m*(p+1)^2)
        element-wise, which pays at the at most 32 cells per direction that
        callers use. On a 2-core x86 machine: 2D 32x32 cells, p = 4, 1.3 ms
        per call against 7.3 ms; 1D, p = 4, breaks even between 64 and 128
        cells, and 256 cells take 1.8 ms against 0.09 ms.
        """
        dtype = np.result_type(values, np.float64)
        out = np.zeros(values.shape, dtype)
        for op, order, inverse in self._axis_ops:
            front = values.transpose(order)
            lines = np.ascontiguousarray(front.reshape(op.shape[0], -1), dtype=dtype)
            # the real L_m acts on the real and imaginary parts in one product
            moved = (op @ lines.view(np.float64)).view(dtype)
            out += moved.reshape(front.shape).transpose(inverse)
        return out

    # -- time marching --------------------------------------------------------

    def step(self, state: FieldState, rk: RkScheme, tau: float) -> FieldState:
        """One explicit RK step using the scheme's stability polynomial.

        For a linear right-hand side the staged update equals the matrix
        polynomial sum_m c_m (tau L)^m applied to the state, which is how
        it is evaluated here.
        """
        if tau <= 0:
            raise ValueError(f"time step must be > 0, got {tau}")
        term = state.values
        acc = rk.coeffs[0] * state.values
        for c in rk.coeffs[1:]:
            term = tau * self.rhs(term)
            acc = acc + c * term
        return FieldState(values=acc, time=state.time + tau)

    def _march(self, state: FieldState, rk: RkScheme, tau: float, nsteps: int):
        """Yield the state after each of nsteps steps; raise on blow-up."""
        for i in range(nsteps):
            state = self.step(state, rk, tau)
            peak = float(np.abs(state.values).max())
            if peak > BLOWUP_THRESHOLD:
                raise DivergenceError(i + 1, peak)
            yield state

    def advance(self, state: FieldState, rk: RkScheme, tau: float, nsteps: int) -> FieldState:
        for state in self._march(state, rk, tau, nsteps):
            pass
        return state

    def energy_history(
        self, state: FieldState, rk: RkScheme, tau: float, nsteps: int
    ) -> tuple[FieldState, np.ndarray]:
        energies = [self.l2_energy(state.values)]
        for state in self._march(state, rk, tau, nsteps):
            energies.append(self.l2_energy(state.values))
        return state, np.array(energies)

    # -- quadrature functionals ------------------------------------------------

    def _cell_integrals(self, values: np.ndarray) -> np.ndarray:
        """Quadrature of values over each cell, shape = the cell axes."""
        per_cell = values
        for _ in range(self.grid.d):
            per_cell = per_cell @ self.points.weights
        return self._cell_measure * per_cell

    def total_integral(self, values: np.ndarray) -> complex:
        return complex(self._cell_integrals(values).sum())

    def l2_energy(self, values: np.ndarray) -> float:
        return float(self.energy_by_cell(values).sum())

    def l2_error(self, values: np.ndarray, exact_fn) -> float:
        return np.sqrt(self.l2_energy(values - self.sample(exact_fn)))

    def energy_by_cell(self, values: np.ndarray) -> np.ndarray:
        return self._cell_integrals(np.abs(values) ** 2)


# -- plane-wave initial data ----------------------------------------------------


def plane_wave_state(problem: AdvectionProblem, k: float) -> FieldState:
    """Sample exp(i k (a.x)) at the solution points (direct sampling)."""

    def wave(*coords):
        return np.exp(1j * k * sum(a * x for a, x in zip(problem.velocity, coords)))

    return FieldState(problem.sample(wave))


def physical_eigenvector(
    scheme: SchemeConfig,
    stencil: StretchedStencil,
    theta: float,
    phi: float,
    k: float,
) -> tuple[complex, np.ndarray]:
    """Physical-mode frequency and unit eigenvector of Q at one wavenumber.

    Q is the Kronecker sum of Q_m(k) = a_m S_m(k a_m), with S_m the 1D
    symbol of direction m's cells. So the physical mode is omega = sum_m
    a_m omega_m(k a_m), and its eigenvector is the Kronecker product of the
    1D ones (xi index fastest); a direction with a_m = 0 contributes the
    constant vector. In 1D the branch is the physical one of
    :func:`~frspectra.spectrum.dispersion_sweep` on a grid geometric through
    the low decades and linear near the target (small matching steps where
    branches can cross), matched to the dense :func:`~frspectra.spectrum.analyze`
    at the exact target, the one point that needs the eigenvector.
    """
    if scheme.d > 1:
        n = scheme.p + 1
        omega, vec = 0j, np.ones(1)
        for m, a in enumerate(direction_cosines(theta, phi, scheme.d)):
            if a == 0.0:
                omega_m, vec_m = 0j, np.full(n, n**-0.5)
            else:
                line = StretchedStencil(1, stencil.delta[m : m + 1], stencil.gamma[m : m + 1])
                omega_m, vec_m = physical_eigenvector(replace(scheme, d=1), line, 0.0, 0.0, k * a)
            omega += a * omega_m
            vec = np.kron(vec_m, vec)
        return complex(omega), vec
    factor = normalization_factor(theta, phi, stencil, scheme.p)
    k_hat = k * factor
    lo = min(1e-3, 0.1 * k_hat)
    grid = np.concatenate(
        [np.geomspace(lo, 0.5 * k_hat, 24, endpoint=False), np.linspace(0.5 * k_hat, k_hat, 24)]
    )
    tracked = dispersion_sweep(scheme, stencil, theta, phi, grid).omega_physical[-1]
    res = analyze(symbol_for(scheme, stencil, WaveProbe(k=k, theta=theta, phi=phi)))
    idx = int(np.argmin(np.abs(res.modes - tracked)))
    return complex(res.modes[idx]), res.eigvecs[:, idx]


def eigenmode_state(
    problem: AdvectionProblem, k: float, theta: float = 0.0, phi: float = 0.0
) -> tuple[FieldState, complex]:
    """Initial data projected exactly onto the physical mode.

    The cell values are the Kronecker product of the 1D physical
    eigenvectors of :func:`physical_eigenvector` times the Bloch phase of
    each cell, so a direction the wave does not move in carries exactly
    constant values. Requires a uniform grid per direction so the Bloch
    eigenvector applies unchanged in every cell; wavenumber components
    must be commensurate with the periodic extents for the mode to be an
    exact eigenvector of the update (see :func:`commensurate_wave`).
    """
    widths = [np.unique(w) for w in problem.grid.spacings]
    if any(w.size != 1 for w in widths):
        raise ValueError("eigenmode initial data requires a uniform grid")
    delta = tuple(float(w[0]) for w in widths)
    stencil = StretchedStencil(problem.grid.d, delta, (1.0,) * problem.grid.d)
    omega, vec = physical_eigenvector(problem.scheme, stencil, theta, phi, k)
    d, n = problem.grid.d, problem.scheme.p + 1
    phases = [np.exp(1j * k * a * problem.grid.origins(m)) for m, a in enumerate(problem.velocity)]
    cellwise = reduce(np.multiply.outer, phases[::-1])
    return FieldState(np.multiply.outer(cellwise, vec.reshape((n,) * d))), omega


def commensurate_wave(
    d: int, theta: float, k_target: float, cells, delta_x: float = 1.0
) -> tuple[float, tuple[float, ...]]:
    """Snap (k, cell widths) so the inclined wave is periodic on the box.

    Over the directions the wave moves in (a_m != 0), each rounds its mode
    count k a_m cells_m delta_x / (2 pi) to an integer >= 1. The first
    fixes k on cells of width ``delta_x``; each later one gets the width
    that makes its component exact, so the incidence angle stays exact.
    Returns k and the per-direction widths as Python floats.
    """
    cells = np.atleast_1d(cells)
    vel = direction_cosines(theta, 0.0, d)
    k, widths = float(k_target), [float(delta_x)] * d
    for i, m in enumerate(np.flatnonzero(vel)):
        a, n = float(vel[m]), int(cells[m])
        count = max(1, round(k * a * n * delta_x / (2 * pi)))
        if i == 0:
            k = 2 * pi * count / (a * n * delta_x)
        else:
            widths[m] = 2 * pi * count / (k * a * n)
    return k, tuple(widths)


@dataclass
class RateCheck:
    """Outcome of a decay-rate comparison between solver and eigenanalysis."""

    predicted: float
    measured: float
    rel_error: float
    tol: float
    passed: bool
    k: float
    k_hat: float
    omega: complex
    config: dict


def check_decay_rate(
    p: int,
    family_kind: str,
    alpha: float,
    d: int,
    theta: float = 0.0,
    k_hat: float = 1.0,
    rk: RkScheme = RK44,
    cells: int = 8,
    nsteps: int = 256,
    tol: float = 1e-6,
    iota: float | None = None,
) -> RateCheck:
    """Fit the solver's exponential energy rate and compare with 2*Im(omega).

    The initial state is the physical Bloch mode, so the discrete energy
    follows a clean exponential and the fit is exact; the only systematic
    deviation is the RK truncation bias, which the automatic time-step
    choice keeps below the tolerance. The relative error uses
    max(|predicted|, 1e-3*k) as denominator so energy-neutral central
    schemes (predicted rate 0) are judged against the natural frequency
    scale of the mode.
    """
    family = make_family(family_kind, p, iota)
    scheme = SchemeConfig(p, family, alpha, d)
    provisional = StretchedStencil.uniform(d)
    factor = normalization_factor(theta, 0.0, provisional, p)
    k_target = k_hat / factor
    cells_per_dir = (cells,) * d
    k, delta = commensurate_wave(d, theta, k_target, cells_per_dir)
    stencil = StretchedStencil(d, delta, (1.0,) * d)
    grid = PeriodicGrid.uniform(cells_per_dir, delta)
    problem = AdvectionProblem(grid, scheme, direction_cosines(theta, 0.0, d))
    state0, omega = eigenmode_state(problem, k, theta)
    predicted = 2.0 * omega.imag
    floor = max(abs(predicted), 1e-3 * k)
    # RK truncation bias on the fitted rate is ~ tau^s |omega|^(s+1) / (s+1)!
    s = len(rk.coeffs) - 1
    omega_scale = max(abs(omega), 0.2 * k)
    tau = min(
        0.05 / omega_scale,
        (0.5 * tol * floor * factorial(s + 1) / (2.0 * omega_scale ** (s + 1)))
        ** (1.0 / s),
    )
    _, energies = problem.energy_history(state0, rk, tau, nsteps)
    times = tau * np.arange(nsteps + 1)
    measured = float(np.polyfit(times, np.log(energies), 1)[0])
    rel = abs(measured - predicted) / floor
    return RateCheck(
        predicted=predicted,
        measured=measured,
        rel_error=rel,
        tol=tol,
        passed=bool(rel <= tol),
        k=k,
        k_hat=k * normalization_factor(theta, 0.0, stencil, p),
        omega=omega,
        config={
            "p": p,
            "family": family_kind,
            "alpha": alpha,
            "d": d,
            "theta": theta,
            "rk": rk.name,
            "tau": tau,
            "cells": cells,
        },
    )


# -- state dump -------------------------------------------------------------------


def dump_state(problem: AdvectionProblem, state: FieldState, path) -> None:
    """Write one record per cell per node: cell index, coordinates, value.

    Columnar text; the header documents the layout, one ``node_x``,
    ``node_y``, ... column per direction. Records and cell indices run
    row-major over the :class:`FieldState` axes (cell iy * cells_x + ix in 2D).
    """
    d = problem.grid.d
    coords = problem.sample(lambda *xs: np.broadcast_arrays(*xs)).reshape(d, -1).T
    per_cell = (problem.scheme.p + 1) ** d
    names = " ".join(f"node_{axis}" for axis in "xyz"[:d])
    with open(path, "w") as fh:
        fh.write("# frspectra state dump v1\n")
        fh.write(f"# d {d}\n")
        fh.write(f"# time {state.time!r}\n")
        fh.write(f"# columns: cell {names} re_value im_value\n")
        for i, (xs, v) in enumerate(zip(coords.tolist(), state.values.ravel().tolist())):
            fields = "".join(f"{x!r} " for x in xs)
            fh.write(f"{i // per_cell} {fields}{v.real!r} {v.imag!r}\n")
