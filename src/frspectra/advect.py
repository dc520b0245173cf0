"""Time-domain flux reconstruction solver for linear advection.

Periodic stretched rectilinear grids in 1D/2D, complex-valued states, and
exact upwinding at the interfaces (the Riemann problem for linear
advection). For linear fluxes the discontinuous-plus-correction update
coincides with nodal DG when the zero-parameter correction member is
used.

This solver is built directly from the element-wise definition of the
scheme (interpolate, form common interface fluxes, distribute the jump
through the correction derivatives), so the semi-discrete symbol of the
``operator`` module can be checked against it: a marched Bloch mode must
follow its predicted amplification, and growth and decay rates fitted from
time marching must reproduce the eigenanalysis.

The semi-discrete operator is the Kronecker sum L = L_0 (+) ... (+) L_{d-1} of
dense per-direction line operators, assembled once per problem by applying
that recipe to unit vectors (see :meth:`AdvectionProblem.rhs`).

Time marching keeps the state on the solution-point grid: an array of
shape (N_{d-1}, ..., N_0) with N_m = cells_m*(p+1) and index c*(p+1)+n
along axis m, behind a leading plane axis that holds the real and
imaginary parts (one plane for a real state). There L_m acts along one
axis as one matrix product. :class:`FieldState` keeps its (cells..., nodes...)
layout; the public methods convert at the boundary only.

An RK step applies the stability polynomial R(z) = sum_j c_j z^j of degree
s to tau L. The terms of the Kronecker sum L = L_0 (+) L_1 commute, so
R(tau L) = sum_{n=0..s} (tau L_1)^n E_n exactly, with
E_n = R^(n)(tau L_0)/n! = sum_l c_{n+l} C(n+l, n) (tau L_0)^l; in 1D only
E_0 = R(tau L_0) remains. A march builds the E_n and the powers of tau L_1
once from the line operators and the RK coefficients (never from the
symbol), after which a step is two matrix products (one in 1D). The
expansion is written for d <= 2, the limit of :class:`PeriodicGrid`.

One writer per state; independent runs parallelize at the case level.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb, factorial, isfinite, pi, sqrt

import numpy as np

from .basis import make_family, make_points
from .operator import SchemeConfig, StretchedStencil, direction_cosines, operators_for
from .spectrum import normalization_factor, physical_eigenvector, wavenumber_for
from .temporal import RK44, RkScheme, check_time_step

BLOWUP_THRESHOLD = 1e10
# bound on check_decay_rate's amplification residual; a census of 376 checks
# read at most 7.3e-15 at the default 16 steps and 8.0e-14 at 256
AMPLIFICATION_TOL = 1e-12


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
            if not np.all(np.isfinite(w) & (w > 0)):
                raise ValueError(f"cell widths must be finite and > 0, got {w}")

    @classmethod
    def uniform(cls, cells, delta=1.0) -> "PeriodicGrid":
        cells = np.atleast_1d(cells)
        if not all(float(c).is_integer() for c in cells):
            raise ValueError(f"cell counts must be integers, got {cells}")
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
        if not all(isfinite(v) for v in velocity):
            raise ValueError(f"velocity components must be finite, got {velocity}")
        if any(v < 0 for v in velocity):
            raise ValueError("upwinding assumes non-negative velocity components")
        self.grid = grid
        self.scheme = scheme
        self.velocity = velocity
        self.points = make_points(scheme.p, scheme.rule)
        self.ops = operators_for(scheme)
        d, n = grid.d, scheme.p + 1
        # FieldState axes (plane, cells..., nodes...) -> (plane, c_{d-1}, n_{d-1}, ..., c_0, n_0)
        self._order = (0, *(1 + np.arange(2 * d).reshape(2, d).T.ravel()).tolist())
        self._inverse = tuple(np.argsort(self._order).tolist())
        self._split = tuple(s for c in grid.cells_per_dir[::-1] for s in (c, n))
        self._shape = tuple(c * n for c in grid.cells_per_dir[::-1])  # (N_{d-1}, ..., N_0)
        # direction 0 is x @ L_0^T; direction 1 (2D only) is L_1 @ x over (planes, N_1, N_0)
        self._l0t = np.ascontiguousarray(self._axis_operator(0).T)
        self._l1 = self._axis_operator(1) if d == 2 else None
        # per-node quadrature weight: the outer product of 0.5 * w_c * weight_n per direction
        self._weights = reduce(
            np.multiply.outer,
            [np.outer(0.5 * w, self.points.weights).ravel() for w in grid.spacings[::-1]],
        )

    # -- geometry -----------------------------------------------------------

    def node_coordinates(self, m: int) -> np.ndarray:
        """Physical node coordinates along direction m, shape (cells, p+1)."""
        w = self.grid.spacings[m]
        return self.grid.origins(m)[:, None] + 0.5 * (self.points.nodes + 1.0) * w[:, None]

    def sample(self, fn) -> np.ndarray:
        """Sample ``fn(x, y, ...)`` at all solution points, in the FieldState
        layout: coordinate m has length 1 off its own cell and node axes."""
        d = self.grid.d
        coords = (  # direction m owns the two axes i with i % d == d - 1 - m
            np.expand_dims(
                self.node_coordinates(m), [i for i in range(2 * d) if i % d != d - 1 - m]
            )
            for m in range(d)
        )
        return np.asarray(fn(*coords))

    # -- layout ---------------------------------------------------------------

    def _to_grid(self, values: np.ndarray) -> np.ndarray:
        """FieldState values -> (planes, N_{d-1}, ..., N_0) float64 planes."""
        values = np.asarray(values)
        planes = np.stack((values.real, values.imag)) if np.iscomplexobj(values) else values[None]
        planes = np.asarray(planes, dtype=np.float64).transpose(self._order)
        return planes.reshape(len(planes), *self._shape)

    def _from_grid(self, x: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_to_grid`: one plane gives a real array, two a complex one."""
        planes = x.reshape(len(x), *self._split).transpose(self._inverse)
        if len(planes) == 1:
            return planes[0].copy()
        values = np.empty(planes.shape[1:], complex)
        values.real, values.imag = planes
        return values

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

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """L x on the solution-point grid, one matrix product per direction."""
        out = x.reshape(-1, self._l0t.shape[0]) @ self._l0t
        if self._l1 is not None:
            out += (self._l1 @ x).reshape(out.shape)
        return out.reshape(x.shape)

    def rhs(self, values: np.ndarray) -> np.ndarray:
        """d(values)/dt = L values with L = L_0 (+) ... (+) L_{d-1} (Kronecker sum).

        On the solution-point grid direction m is one matrix product along
        axis N_m: ``x @ L_0^T`` for direction 0 and ``L_1 @ x`` over the
        (N_1, N_0) planes for direction 1, with no transposes. That costs
        O(N_m^2) per grid line against O(cells_m*(p+1)^2) element-wise, which
        pays at the at most 32 cells per direction that callers use but not
        on long 1D lines. ``values`` and the result are in the FieldState
        layout, converted once each way; a real state gives a real result.
        """
        return self._from_grid(self._apply(self._to_grid(values)))

    # -- time marching --------------------------------------------------------

    def _rk_update(self, rk: RkScheme, tau: float) -> tuple[np.ndarray, np.ndarray | None]:
        """R(tau L) as the factors (right, left) of R(tau L) x = sum_n (tau L_1)^n x E_n^T.

        ``right`` holds E_0^T, ..., E_s^T side by side, shape (N_0, (s+1) N_0),
        with E_n = sum_l c_{n+l} C(n+l, n) (tau L_0)^l; ``left`` holds
        (tau L_1)^0, ..., (tau L_1)^s interleaved to match, shape
        (N_1, N_1 (s+1)). In 1D ``right`` is E_0^T = R(tau L_0)^T and
        ``left`` is None. A huge tau overflows here; that is built without
        warnings and left for the march to report as divergence at step 1.
        """
        coeffs, n0 = rk.coeffs, len(self._l0t)
        count = len(coeffs)
        terms = count if self._l1 is not None else 1
        taylor = [  # row n: the coefficients of R^(n)(z)/n! in powers of z
            [comb(n + j, n) * coeffs[n + j] if n + j < count else 0.0 for j in range(count)]
            for n in range(terms)
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            right = np.tensordot(taylor, _powers(tau * self._l0t, count), 1)
            right = right.transpose(1, 0, 2).reshape(n0, -1)
            if self._l1 is None:
                return right, None
            left = np.stack(_powers(tau * self._l1, terms), axis=-1)
        return right, left.reshape(len(left), -1)

    def _apply_update(self, x: np.ndarray, update) -> np.ndarray:
        """R(tau L) x on the solution-point grid from the factors of
        :meth:`_rk_update`: every x E_n^T in one matrix product, then their
        sum weighted by (tau L_1)^n in a second. Never writes to ``x``."""
        right, left = update
        y = x.reshape(-1, len(right)) @ right
        if left is None:
            return y.reshape(x.shape)
        return left @ y.reshape(len(x), left.shape[1], -1)

    def step(self, state: FieldState, rk: RkScheme, tau: float) -> FieldState:
        """One explicit RK step, R(tau L) applied to the state: a march of one
        step (:meth:`_march`), so it raises :class:`DivergenceError` as the
        march does."""
        return self._march(state, rk, tau, 1)[0]

    def _march(
        self, state: FieldState, rk: RkScheme, tau: float, nsteps: int
    ) -> tuple[FieldState, np.ndarray]:
        """March nsteps steps; return the final state and the energy before
        the first step and after each one.

        The state is converted to the solution-point grid once at entry and
        back once at exit, and the update R(tau L) is built once
        (:meth:`_rk_update`), so a step costs two matrix products (one in
        1D). Each step forms |z|^2 once and takes from it both the peak
        magnitude, which raises :class:`DivergenceError` when it exceeds
        ``BLOWUP_THRESHOLD`` or is not finite, and the energy. Overflow and
        invalid operations are not warned about, as that check reports them.
        """
        check_time_step(tau)
        if nsteps < 0:
            raise ValueError(f"number of steps must be >= 0, got {nsteps}")
        x = self._to_grid(state.values)
        update = self._rk_update(rk, tau)
        weights = self._weights.ravel()
        energies = np.empty(nsteps + 1)
        time = state.time
        with np.errstate(over="ignore", invalid="ignore"):
            energies[0] = weights @ np.square(x).sum(axis=0).ravel()
            for i in range(nsteps):
                x = self._apply_update(x, update)
                squared = np.square(x).sum(axis=0).ravel()
                peak = sqrt(squared.max())
                if not peak <= BLOWUP_THRESHOLD:
                    raise DivergenceError(i + 1, peak)
                energies[i + 1] = weights @ squared
                time += tau
        return FieldState(self._from_grid(x), time), energies

    def advance(self, state: FieldState, rk: RkScheme, tau: float, nsteps: int) -> FieldState:
        return self._march(state, rk, tau, nsteps)[0]

    def energy_history(
        self, state: FieldState, rk: RkScheme, tau: float, nsteps: int
    ) -> tuple[FieldState, np.ndarray]:
        return self._march(state, rk, tau, nsteps)

    # -- quadrature functionals ------------------------------------------------

    def _cell_sums(self, y: np.ndarray) -> np.ndarray:
        """Quadrature of grid array y, shape (N_{d-1}, ..., N_0), over each cell."""
        per_node = (self._weights * y).reshape(self._split)
        return per_node.sum(axis=tuple(range(1, per_node.ndim, 2)))

    def total_integral(self, values: np.ndarray) -> complex:
        return complex(*(self._cell_sums(plane).sum() for plane in self._to_grid(values)))

    def l2_energy(self, values: np.ndarray) -> float:
        return float(self.energy_by_cell(values).sum())

    def l2_error(self, values: np.ndarray, exact_fn) -> float:
        return np.sqrt(self.l2_energy(values - self.sample(exact_fn)))

    def energy_by_cell(self, values: np.ndarray) -> np.ndarray:
        return self._cell_sums(np.square(self._to_grid(values)).sum(axis=0))


def _powers(a: np.ndarray, count: int) -> list[np.ndarray]:
    """a^0, ..., a^(count-1) for a square matrix a."""
    out = [np.eye(len(a))]
    for _ in range(1, count):
        out.append(out[-1] @ a)
    return out


# -- plane-wave initial data ----------------------------------------------------


def plane_wave_state(problem: AdvectionProblem, k: float) -> FieldState:
    """Sample exp(i k (a.x)) at the solution points (direct sampling)."""

    def wave(*coords):
        return np.exp(1j * k * sum(a * x for a, x in zip(problem.velocity, coords)))

    return FieldState(problem.sample(wave))


def eigenmode_state(
    problem: AdvectionProblem, k: float, theta: float = 0.0, phi: float = 0.0
) -> tuple[FieldState, complex]:
    """Initial data projected exactly onto the wave-carrying mode.

    The cell values are the Kronecker product of the per-direction modes
    of :func:`~frspectra.spectrum.physical_eigenvector` times the Bloch phase
    of each cell, so a direction the wave does not move in carries exactly
    constant values. The state is an exact eigenvector of the update only on
    a uniform grid per direction, with ``problem.velocity`` the direction of
    the angles and wavenumber components commensurate with the box
    (:func:`commensurate_wave`).
    """
    if not np.allclose(problem.velocity, direction_cosines(theta, phi, problem.grid.d), 0, 1e-12):
        raise ValueError(f"velocity {problem.velocity} is not the unit direction of the angles")
    widths = problem.grid.spacings  # not np.unique, whose first call imports numpy.ma
    if any((w != w[0]).any() for w in widths):
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

    predicted: float  # 2 Im(omega): the energy rate of the marched mode
    measured: float  # energy rate fitted to the march
    rel_error: float  # |measured - predicted| / max(|predicted|, 1e-3 k)
    tol: float
    passed: bool  # rel_error <= tol and residual <= AMPLIFICATION_TOL
    k: float
    k_hat: float
    omega: complex
    weight: float  # mass-weighted cosine between the marched state and the plane wave
    # measured per-step gain: the n-th root of <u_0, u_n> / <u_0, u_0> nearest R(tau lambda)
    amplification: complex
    predicted_amplification: complex  # R(tau lambda), lambda = -i omega
    residual: float  # mass-weighted ||u_n - R(tau lambda)^n u_0|| / ||u_0||
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
    nsteps: int = 16,
    tol: float = 1e-6,
    iota: float | None = None,
) -> RateCheck:
    """March the wave-carrying Bloch mode and test it against the eigenanalysis.

    The initial state u_0 is the wave-carrying Bloch mode, and ``weight`` its
    mass-weighted cosine with the sampled plane wave. Two tests decide
    ``passed``:

    - Amplification: on a uniform grid u_0 is an exact eigenvector of the
      update, so after n steps u_n = R(tau lambda)^n u_0 with
      lambda = -i omega, to roundoff. The mass-weighted ``residual``
      ||u_n - R(tau lambda)^n u_0|| / ||u_0|| must stay within
      ``AMPLIFICATION_TOL``. This tests omega in full, real part included,
      and that the marched state is its eigenvector, which the energy cannot
      show for the zero decay of central fluxes.
    - Decay rate: the exponential energy rate fitted to the march must match
      2 Im(omega) within ``tol``. The relative error uses
      max(|predicted|, 1e-3*k) as denominator so energy-neutral central
      schemes (predicted rate 0) are judged against the natural frequency
      scale of the mode. The only systematic deviation is the RK truncation
      bias, which the automatic time-step choice keeps below ``tol``.

    A short march suffices for both. The energy of an exact eigenvector is an
    exact exponential, so the fitted rate depends on the march length only
    through roundoff, which settles by 16 steps: within 3e-12 of the 256-step
    fit, relative to the denominator, where 8 steps leave 2e-11. Roundoff in
    the residual grows with the number of steps.
    """
    if nsteps < 1:  # the fit needs at least two energies
        raise ValueError(f"number of steps must be >= 1, got {nsteps}")
    if not (float(cells).is_integer() and cells >= 4):  # nan and inf are not integers
        raise ValueError(f"cells must be an integer >= 4, got {cells}")
    if not (isfinite(k_hat) and 0 < k_hat <= pi):  # above pi the wave aliases
        raise ValueError(f"k_hat must be finite and in (0, pi], got {k_hat}")
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    family = make_family(family_kind, p, iota)
    scheme = SchemeConfig(p, family, alpha, d)
    k_target = wavenumber_for(k_hat, theta, 0.0, StretchedStencil.uniform(d), p)
    cells_per_dir = (cells,) * d
    k, delta = commensurate_wave(d, theta, k_target, cells_per_dir)
    stencil = StretchedStencil(d, delta, (1.0,) * d)
    grid = PeriodicGrid.uniform(cells_per_dir, delta)
    problem = AdvectionProblem(grid, scheme, direction_cosines(theta, 0.0, d))
    state0, omega = eigenmode_state(problem, k, theta)
    u, v = plane_wave_state(problem, k).values, state0.values
    weight = abs(problem.total_integral(np.conj(u) * v))
    weight /= np.sqrt(problem.l2_energy(u) * problem.l2_energy(v))
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
    final, energies = problem.energy_history(state0, rk, tau, nsteps)
    times = tau * np.arange(nsteps + 1)
    measured = float(np.polyfit(times, np.log(energies), 1)[0])
    rel = abs(measured - predicted) / floor
    gain = complex(rk.stability(-1j * omega * tau))
    total = gain**nsteps
    residual = sqrt(problem.l2_energy(final.values - total * v) / energies[0])
    overlap = problem.total_integral(np.conj(v) * final.values) / energies[0]
    return RateCheck(
        predicted=predicted,
        measured=measured,
        rel_error=rel,
        tol=tol,
        passed=bool(rel <= tol and residual <= AMPLIFICATION_TOL),
        k=k,
        k_hat=k * normalization_factor(theta, 0.0, stencil, p),
        omega=omega,
        weight=float(weight),
        amplification=gain * (overlap / total) ** (1.0 / nsteps),
        predicted_amplification=gain,
        residual=residual,
        config={
            "p": p,
            "family": family_kind,
            "alpha": alpha,
            "d": d,
            "theta": theta,
            "rk": rk.name,
            "tau": tau,
            "cells": cells,
            "nsteps": nsteps,
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
