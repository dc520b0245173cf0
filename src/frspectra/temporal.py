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
    plane_wave_samples,
    track_branches,
)

RHO_TOL = 1e-9  # spectral-radius allowance absorbing roundoff
CFL_GRID_POINTS = 257  # uniform k_hat points of the CFL search in (0, pi]
CFL_REL_TOL = 1e-4  # relative width at which the CFL bisection stops


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
        """Evaluate R(z) elementwise in Horner form, in place on one fresh array.

        out = z c_s + c_{s-1}, then out *= z and out += c for each lower
        coefficient: the IEEE operations of out = out * z + c in the same
        order, so the same bits. z is never written, so a read-only array
        is fine; a scalar gives a scalar and a complex z a complex result.
        """
        out = z * self.coeffs[-1]
        out += self.coeffs[-2]
        for c in self.coeffs[-3::-1]:
            out *= z
            out += c
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
    are formally unstable yet boundedly usable. On an expanding stencil
    with upwind fluxes that is almost all metric growth: Q acts on
    width-weighted values, which grow at Re lambda_ex = sum_m a_m
    ln(gamma_m) / delta_m whatever the scheme (in a census of 130
    expanding 1D and 2D cases the largest Re lambda exceeded it by at most
    1.1e-2 at alpha = 1, but by up to 26 at alpha = 0.5, where most of the
    growth is the scheme's). Nor is the frozen stencil's verdict the limit
    of a periodic stretched grid, whose cells expand and contract in turn.
    """

    cfl_limit: float
    tau_limit: float
    worst_k: float
    stable: bool
    cfl_crossing: float = 0.0


def _golden_sections(f, brackets: dict, iters: int = 30) -> dict:
    """Deterministic golden-section maximizations on several brackets in lockstep.

    ``brackets`` maps a key to its interval (a, b), and ``f(keys, points)``
    returns the values at one list of points per key. The first call
    evaluates both interior points of every bracket and each of the
    ``iters`` steps one new point per bracket, so a bracket visits the
    points, and takes the branches, of a maximization of its own. Returns
    (x, f(x)) at the best point, per key.
    """
    invphi = (sqrt(5.0) - 1.0) / 2.0
    keys = list(brackets)
    a, b = (list(ends) for ends in zip(*brackets.values()))
    x1 = [hi - invphi * (hi - lo) for lo, hi in zip(a, b)]
    x2 = [lo + invphi * (hi - lo) for lo, hi in zip(a, b)]
    f1, f2 = (list(values) for values in zip(*f(keys, [list(pair) for pair in zip(x1, x2)])))
    for _ in range(iters):
        up = [u < v for u, v in zip(f1, f2)]  # the maximum lies right of x1
        for i in range(len(keys)):
            if up[i]:
                a[i], x1[i], f1[i] = x1[i], x2[i], f2[i]
                x2[i] = a[i] + invphi * (b[i] - a[i])
            else:
                b[i], x2[i], f2[i] = x2[i], x1[i], f1[i]
                x1[i] = b[i] - invphi * (b[i] - a[i])
        new = [[x2[i] if up[i] else x1[i]] for i in range(len(keys))]
        for i, (value,) in enumerate(f(keys, new)):
            if up[i]:
                f2[i] = value
            else:
                f1[i] = value
    return {key: (x1[i], f1[i]) if f1[i] >= f2[i] else (x2[i], f2[i]) for i, key in enumerate(keys)}


def cfl_limit(
    scheme: SchemeConfig,
    stencil: StretchedStencil,
    rk: RkScheme,
    theta: float = 0.0,
    phi: float = 0.0,
) -> CflResult:
    """Largest stable CFL number at fixed incidence angles (radians).

    Bisects on tau the supremum over sampled k in (0, k_nyquist] of the
    spectral radius of R(tau, k); the k grid is uniform in k_hat,
    ``CFL_GRID_POINTS`` points in (0, pi], plus a golden-section refinement
    in k_hat around the grid's peak. The bisection converges to relative
    width ``CFL_REL_TOL``.

    A first pass decides each step by the grid alone. The refinement can
    only raise the grid's maximum, and every step that pass found stable is
    at or below its lower end tau_lo. So if tau_lo passes the refinement
    too, a pass that refined every step the grid leaves undecided would
    take the same branches (under the monotone decision bisection assumes)
    and return the same bracket. The refinements at tau_lo, this confirm,
    and at the upper end, for ``worst_k``, run in lockstep
    (:func:`_golden_sections`), one eigensolve call per step for both. If
    the confirm fails, or the first pass finds no upper end or halves below
    1e-300, the search runs again with that full test. Each step's grid and
    refinement and each probed k_hat's eigenvalues are cached per search,
    so nothing is solved twice. ``worst_k`` is the refined peak at the
    final upper end, as k = k_hat / F
    (:func:`~frspectra.spectrum.normalization_factor`).

    Eigenvalues come from :func:`~frspectra.spectrum.factored_spectra`. The
    grid's enter its memo, so at every angle of a uniform stencil the
    leading direction's are solved once; the probes are solved uncached.
    """
    symbols = DirectionSymbols(scheme, stencil, theta, phi)
    factor = normalization_factor(theta, phi, stencil, scheme.p)
    k_hat = np.linspace(0.0, np.pi, CFL_GRID_POINTS + 1)[1:]  # up to the Nyquist limit
    lam_grid = factored_spectra(symbols, k_hat)[0]
    lam_probe = {}  # k_hat -> eigenvalues; the refinement revisits k_hat at other steps

    def rho(taus: list[float], ks: list[list[float]]) -> list[list[float]]:
        # the spectral radius at each step's points; the wavenumbers this
        # search has not solved yet are solved together, in one call
        flat = [k for row in ks for k in row]
        new = [k for k in dict.fromkeys(flat) if k not in lam_probe]
        if new:
            lam_probe.update(zip(new, factored_spectra(symbols, np.array(new), memo=False)[0]))
        z = np.repeat(taus, len(ks[0]))[:, None] * np.array([lam_probe[k] for k in flat])
        return np.abs(rk.stability(z)).max(axis=1).reshape(len(ks), -1).tolist()

    ratios = [symbols.velocity[m] / stencil.delta[m] for m in range(scheme.d)]
    cfl_per_tau = float(sum(ratios))
    crossing_per_tau = float(max(ratios))

    lam_scale = float(np.abs(lam_grid).max())
    re_max = float(lam_grid.real.max())
    if re_max > RHO_TOL * max(1.0, lam_scale):
        worst = float(k_hat[int(np.argmax(lam_grid.real.max(axis=1)))]) / factor
        return CflResult(0.0, 0.0, worst, stable=False)

    @cache
    def grid_rho(tau: float) -> np.ndarray:
        return np.abs(rk.stability(tau * lam_grid)).max(axis=1)

    refined = {}  # step -> (rho, k_hat) at its refined peak

    def sup_rho(*taus: float) -> list[tuple[float, float]]:
        # the refined peak at each step; the steps not refined yet run their
        # golden sections, around the grid's peak, in lockstep
        peaks = {tau: int(np.argmax(grid_rho(tau))) for tau in taus if tau not in refined}
        if peaks:
            brackets = {
                tau: (k_hat[j - 1] if j > 0 else k_hat[0] * 0.5,
                      k_hat[j + 1] if j + 1 < CFL_GRID_POINTS else np.pi)
                for tau, j in peaks.items()
            }
            for tau, (k_ref, rho_ref) in _golden_sections(rho, brackets).items():
                j = peaks[tau]
                best = (float(grid_rho(tau)[j]), float(k_hat[j]))
                refined[tau] = (rho_ref, float(k_ref)) if rho_ref > best[0] else best
        return [refined[tau] for tau in taus]

    def exceeds_grid(tau: float) -> bool:
        return grid_rho(tau).max() > 1.0 + RHO_TOL

    def exceeds(tau: float) -> bool:
        # refinement only ever raises the grid maximum, so it runs only
        # when the grid alone cannot decide
        return exceeds_grid(tau) or sup_rho(tau)[0][0] > 1.0 + RHO_TOL

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
        while (tau_hi - tau_lo) > CFL_REL_TOL * tau_hi:
            mid = 0.5 * (tau_lo + tau_hi)
            if test(mid):
                tau_hi = mid
            else:
                tau_lo = mid
        return tau_lo, tau_hi

    found = bracket(exceeds_grid)
    # the grid passes at tau_lo, so its refinement alone confirms it;
    # tau_hi's, for worst_k, runs in the same lockstep
    if found is None or found[0] == 0.0 or sup_rho(*found)[0][0] > 1.0 + RHO_TOL:
        found = bracket(exceeds)
        if found is None:
            raise RuntimeError("failed to bracket the stability boundary from above")
    # tau_lo = 0: unstable for every positive step despite a left-half-plane
    # spectrum, reported as a flagged zero limit
    tau_lo, tau_hi = found
    return CflResult(
        cfl_limit=tau_lo * cfl_per_tau,
        tau_limit=tau_lo,
        worst_k=sup_rho(tau_hi)[0][1] / factor,
        stable=tau_lo > 0.0,
        cfl_crossing=tau_lo * crossing_per_tau,
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
