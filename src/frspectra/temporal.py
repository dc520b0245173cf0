"""Fully-discrete analysis: RK update operators and CFL limits.

The update operator is the RK stability polynomial evaluated at tau*Q.
Stability requires its spectral radius to stay <= 1 (up to a documented
roundoff allowance of 1e-9) over all resolvable wavenumbers; the CFL
limit is found by bisection on tau and reported through

    CFL_d = tau * sum_m a_m / delta_m

with a_m the velocity components and delta_m the central spacings.

Pure functions; CFL searches for different configurations can run
concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isfinite, sqrt

import numpy as np

from .operator import (
    DirectionSymbols,
    SchemeConfig,
    SemiDiscreteSymbol,
    StretchedStencil,
)
from .spectrum import (
    KAPPA_ILL_CONDITIONED,
    ModeSweep,
    SpectrumResult,
    checked_eig,
    factored_sweep,
    factored_spectra,
    normalization_factor,
    nyquist_wavenumber,
    plane_wave_samples,
    track_branches,
)

RHO_TOL = 1e-9  # spectral-radius allowance absorbing roundoff


@dataclass(frozen=True)
class RkScheme:
    """Explicit RK scheme identified by its stability polynomial R(z)."""

    name: str
    coeffs: tuple[float, ...]  # R(z) = sum coeffs[m] * z^m

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1.0:
            raise ValueError("stability polynomial must satisfy R(0) = 1")
        if len(self.coeffs) < 2:
            raise ValueError("an explicit RK scheme has at least one stage (degree >= 1)")

    def stability(self, z: np.ndarray) -> np.ndarray:
        """Evaluate R(z) elementwise in Horner form, starting from c_s z + c_{s-1}
        (no per-call array set-up; a complex z gives a complex result)."""
        out = self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            out = out * z + c
        return out


EULER = RkScheme("euler", (1.0, 1.0))
RK33 = RkScheme("rk33", (1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0))
RK44 = RkScheme("rk44", (1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0))

_BY_NAME = {s.name: s for s in (EULER, RK33, RK44)}


def rk_from_name(name: str) -> RkScheme:
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown RK scheme {name!r}; choose from {sorted(_BY_NAME)}")


def check_time_step(tau: float) -> None:
    """Reject a time step that is not finite and > 0."""
    if not (isfinite(tau) and tau > 0):
        raise ValueError(f"time step must be finite and > 0, got {tau}")


@dataclass
class UpdateOperator:
    """One-step update matrix R = R(tau*Q) with its time step."""

    R: np.ndarray
    tau: float


def build_update(symbol: SemiDiscreteSymbol, rk: RkScheme, tau: float) -> UpdateOperator:
    """Evaluate the stability polynomial at tau*Q (matrix Horner form)."""
    check_time_step(tau)
    z = tau * symbol.Q
    eye = np.eye(z.shape[0])
    with np.errstate(all="ignore"):
        out = rk.coeffs[-1] * eye
        for c in rk.coeffs[-2::-1]:
            out = out @ z + c * eye
    if not np.isfinite(out).all():
        raise OverflowError(f"update operator overflowed at tau = {tau}")
    return UpdateOperator(R=out, tau=tau)


@dataclass
class CflResult:
    """Outcome of a CFL-limit search.

    ``tau_limit`` is the ray supremum: the largest step at which the
    spectral radius stays within 1 + ``RHO_TOL`` for every sampled
    wavenumber k (cos phi cos theta, cos phi sin theta, sin phi), k up to
    the Nyquist limit of that incidence. ``cfl_limit`` is tau times the sum
    of velocity components over spacings. That number depends weakly on
    the angle; it is not angle-independent. On a uniform 2D grid, p = 4
    with RK44 gives 0.189084 at 0 and 90 degrees, 0.189245 at 10, 0.189414
    at 30 and 0.189654 at 40 and 50 degrees: the ray passes through the
    binding point of the whole wavevector space only at special angles.
    ``cfl_crossing`` (tau times the largest per-direction velocity/spacing
    ratio, i.e. tau over the wave's cell-crossing time) is the
    normalization in which the geometric structure of the limit is
    visible, with its minimum at the diagonal incidence
    atan(delta_y/delta_x).

    ``stable`` is False when the semi-discrete spectrum already has
    eigenvalues in the right half plane (e.g. expanding grids), in which
    case the limits are reported as 0 rather than raising: such schemes
    are formally unstable yet boundedly usable.
    """

    cfl_limit: float
    tau_limit: float
    worst_k: float
    stable: bool
    cfl_crossing: float = 0.0
    theta: float = 0.0
    phi: float = 0.0


def _golden_max(f, a: float, b: float, iters: int = 30) -> tuple[float, float]:
    """Deterministic golden-section maximization of f on [a, b]."""
    invphi = (sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def cfl_limit(
    scheme: SchemeConfig,
    stencil: StretchedStencil,
    probe_angles: tuple[float, float] | float,
    rk: RkScheme,
    nk: int = 257,
    rel_tol: float = 1e-4,
) -> CflResult:
    """Largest stable CFL number at fixed incidence angles.

    Bisects on tau the supremum over sampled k in (0, k_nyquist] of the
    spectral radius of R(tau, k); the k grid is uniform with ``nk`` points
    (an integer >= 1) plus golden-section refinement around the running
    maximum. The bisection converges to relative width ``rel_tol``, which
    must be finite and in (0, 1).

    The search runs twice at most. The first pass decides each step by
    the grid alone (the grid's spectral radius above 1 + ``RHO_TOL``);
    the full test also exceeds when the golden-section refinement does.
    The refinement then runs once, at the first pass's lower end tau_lo.
    If tau_lo passes it too, the first pass's bracket is the answer. Every
    step the first pass found not exceeding is <= tau_lo, so under the
    monotone decision that bisection already assumes, the full test
    passes there as well. At every other step the grid exceeds, and so
    does the full test, since the refinement can only raise the grid
    maximum. Both tests thus take the same branch at every step, so a
    pass with the full test would visit the same steps and return the
    same bracket. If the refinement overturns tau_lo, or the first pass
    finds no upper end or halves below 1e-300, the same search runs again
    with the full test, which refines only the steps whose grid stays
    within the bound. When the bracket doubles tau at least once, its
    lower end is the previous, already non-exceeding tau (doubling is
    exact), so it is not tested again. The grid evaluation and the
    refinement are both cached per tau, so the second pass evaluates no
    step's grid again. The reported ``worst_k`` is the refined peak at
    the final upper end.

    The spectrum of R is the stability polynomial applied to tau times the
    eigenvalues of Q, taken from per-direction 1D eigensolves
    (:func:`~frspectra.spectrum.factored_spectra`). The direction symbols
    are built once per search (:class:`~frspectra.operator.DirectionSymbols`),
    so the whole k grid costs one batched call and each wavenumber the
    golden-section refinement visits one formula evaluation and one
    single-k ``eigvals`` call. Only those eigenvalues are cached per k,
    since the refinement revisits many k points at other tau.
    """
    if not (isfinite(rel_tol) and 0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must be finite and in (0, 1), got {rel_tol}")
    if isinstance(nk, bool) or not isinstance(nk, (int, np.integer)) or nk < 1:
        raise ValueError(f"nk must be an integer >= 1, got {nk!r}")
    theta, phi = probe_angles if isinstance(probe_angles, tuple) else (probe_angles, 0.0)
    symbols = DirectionSymbols(scheme, stencil, theta, phi)
    k_nq = nyquist_wavenumber(theta, phi, stencil, scheme.p)
    ks = np.linspace(0.0, k_nq, nk + 1)[1:]
    lam_grid = factored_spectra(symbols, ks)[0]

    @cache
    def eigenvalues(k: float) -> np.ndarray:
        return factored_spectra(symbols, np.array([k]))[0][0]

    def rho(tau: float, k: float) -> float:
        return float(np.abs(rk.stability(tau * eigenvalues(k))).max())

    ratios = [symbols.velocity[m] / stencil.delta[m] for m in range(scheme.d)]
    cfl_per_tau = float(sum(ratios))
    crossing_per_tau = float(max(ratios))

    lam_scale = float(np.abs(lam_grid).max())
    re_max = float(lam_grid.real.max())
    if re_max > RHO_TOL * max(1.0, lam_scale):
        worst = float(ks[int(np.argmax(lam_grid.real.max(axis=1)))])
        return CflResult(0.0, 0.0, worst, stable=False, theta=theta, phi=phi)

    @cache
    def grid_rho(tau: float) -> np.ndarray:
        return np.abs(rk.stability(tau * lam_grid)).max(axis=1)

    @cache
    def sup_rho(tau: float) -> tuple[float, float]:
        rho_grid = grid_rho(tau)
        j = int(np.argmax(rho_grid))
        best_k, best_rho = float(ks[j]), float(rho_grid[j])
        lo = ks[j - 1] if j > 0 else ks[0] * 0.5
        hi = ks[j + 1] if j + 1 < ks.size else k_nq
        k_ref, rho_ref = _golden_max(lambda k: rho(tau, k), lo, hi)
        if rho_ref > best_rho:
            best_k, best_rho = float(k_ref), rho_ref
        return best_rho, best_k

    def exceeds_grid(tau: float) -> bool:
        return grid_rho(tau).max() > 1.0 + RHO_TOL

    def exceeds(tau: float) -> bool:
        # refinement only ever raises the grid maximum, so it runs only
        # when the grid alone cannot decide
        return exceeds_grid(tau) or sup_rho(tau)[0] > 1.0 + RHO_TOL

    def bracket(test) -> tuple[float, float] | None:
        # the final (tau_lo, tau_hi) under one step test; tau_lo is 0 when
        # halving reaches the floor, and None means no upper end was found
        tau_lo, tau_hi = 0.0, 1.0 / lam_scale
        for _ in range(200):
            if test(tau_hi):
                break
            tau_lo, tau_hi = tau_hi, tau_hi * 2.0
        else:
            return None
        if tau_lo == 0.0:  # the first step already exceeds: halve down to a stable one
            tau_lo = tau_hi / 2.0
            while test(tau_lo):
                tau_lo /= 2.0
                if tau_lo < 1e-300:
                    return 0.0, tau_hi
        while (tau_hi - tau_lo) > rel_tol * tau_hi:
            mid = 0.5 * (tau_lo + tau_hi)
            if test(mid):
                tau_hi = mid
            else:
                tau_lo = mid
        return tau_lo, tau_hi

    found = bracket(exceeds_grid)
    if found is None or found[0] == 0.0 or exceeds(found[0]):
        found = bracket(exceeds)
        if found is None:
            raise RuntimeError("failed to bracket the stability boundary from above")
    # tau_lo = 0: unstable for every positive step despite a left-half-plane
    # spectrum, reported as a flagged zero limit
    tau_lo, tau_hi = found
    return CflResult(
        cfl_limit=tau_lo * cfl_per_tau,
        tau_limit=tau_lo,
        worst_k=sup_rho(tau_hi)[1],
        stable=tau_lo > 0.0,
        cfl_crossing=tau_lo * crossing_per_tau,
        theta=theta,
        phi=phi,
    )


def fully_discrete_spectrum(
    symbol: SemiDiscreteSymbol, rk: RkScheme, tau: float
) -> SpectrumResult:
    """Modified frequencies of the fully-discrete update at one wavenumber.

    The eigenvalues lambda of e^{i k tau} R are mapped to omega through
    the principal branch of

        omega = k + i log(lambda) / tau

    so that omega reduces to the semi-discrete value as tau -> 0. An
    exactly zero eigenvalue (an over-dissipated mode) is reported with
    dissipation -inf rather than raising. The physical index is the largest
    plane-wave weight |beta|, as in :func:`~frspectra.spectrum.analyze`.
    Branch continuity across a k sweep is handled by
    :func:`fully_discrete_sweep`; callers are responsible for choosing tau
    below the stability limit unless an unstable regime is deliberately
    probed.
    """
    update = build_update(symbol, rk, tau)
    r_eigs, vecs = checked_eig(update.R)
    k = symbol.probe.k
    lam = np.exp(1j * k * tau) * r_eigs
    omega = np.empty_like(lam)
    nonzero = np.abs(lam) > 0
    omega[nonzero] = k + 1j * np.log(lam[nonzero]) / tau
    omega[~nonzero] = complex(k, -np.inf)
    order = np.lexsort((omega.imag, omega.real))
    omega, vecs = omega[order], vecs[:, order]
    sv = np.linalg.svd(vecs, compute_uv=False)
    kappa = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    u0 = plane_wave_samples(symbol)
    beta = np.linalg.lstsq(vecs, u0, rcond=None)[0]
    return SpectrumResult(
        modes=omega,
        eigvecs=vecs,
        physical_index=int(np.argmax(np.abs(beta))),
        k_hat=abs(k) * normalization_factor(
            symbol.probe.theta, symbol.probe.phi, symbol.stencil, symbol.scheme.p
        ),
        kappa=kappa,
        beta=beta,
        degenerate=False,
        ill_conditioned=bool(kappa > KAPPA_ILL_CONDITIONED),
    )


def fully_discrete_sweep(
    scheme: SchemeConfig,
    stencil: StretchedStencil,
    rk: RkScheme,
    tau: float,
    theta: float = 0.0,
    phi: float = 0.0,
    k_hat: np.ndarray | None = None,
) -> ModeSweep:
    """Branch-tracked fully-discrete frequencies over a k sweep.

    The update e^{i k tau} R(tau Q) has the eigenvalues e^{i k tau}
    R(tau lambda), with lambda from :func:`~frspectra.spectrum.factored_sweep`,
    and the eigenvectors (hence kappa) of Q. Amplification factors are
    tracked along k and the complex logarithm is unwrapped along each
    branch, seeded from the small-k limit where the principal branch is
    exact. The dense :func:`fully_discrete_spectrum` is the reference.
    """
    check_time_step(tau)

    def frequencies(ks: np.ndarray, lam: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            amp = np.exp(1j * ks * tau)[:, None] * rk.stability(tau * lam)
        if not np.isfinite(amp).all():
            raise OverflowError(f"update operator overflowed at tau = {tau}")
        tracked_amp = track_branches(amp)
        with np.errstate(divide="ignore"):
            magnitude = np.log(np.abs(tracked_amp))
        args = np.unwrap(np.angle(tracked_amp), axis=0)
        return ks[:, None] - args / tau + 1j * magnitude / tau

    return factored_sweep(scheme, stencil, theta, phi, k_hat, frequencies)
