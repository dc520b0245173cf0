"""Semi-discrete eigenanalysis of the Bloch symbol.

Extracts per-mode complex frequencies omega (Re = dispersion, Im =
dissipation), identifies the physical branch, normalizes wavenumbers by
the angle- and stretch-dependent Nyquist limit, and measures the modal
conditioning kappa(W) of the eigenvector matrix. One rule, the largest
plane-wave weight (:func:`wave_modes`), picks the physical mode: the
Bloch mode the time-domain solver marches (:func:`physical_eigenvector`)
and the anchor of the sweeps' tracked branch (:func:`factored_sweep`).

``analyze`` is pure; sweeps over (k, theta, phi) tuples can run
concurrently as long as results are gathered in a deterministic order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from math import isfinite, sqrt
from typing import Callable, Sequence

import numpy as np

from .basis import make_points
from .operator import (
    DirectionSymbols,
    SchemeConfig,
    SemiDiscreteSymbol,
    StretchedStencil,
    direction_cosines,
)

KAPPA_ILL_CONDITIONED = 1e8
DEGENERACY_TOL = 1e-12


class EigensolverError(RuntimeError):
    """Eigendecomposition failed or returned non-finite values."""


class ModeAmbiguityError(RuntimeError):
    """A distinct branch starts at the physical mode: tracking cannot tell them apart."""


def normalization_factor(
    theta: float, phi: float, stencil: StretchedStencil, p: int
) -> float:
    """Factor F such that the normalized wavenumber is k_hat = k * F.

    F = max_m |a_m| * (1/(p+1)) * sqrt(sum_m (delta_m a_m / gamma_m)^2)

    with a_m the direction cosines. Aligned with an axis this reduces to
    the 1D normalization k_hat = k * delta / (p + 1) on unstretched cells,
    and the supported wavenumber before aliasing grows as 1/cos(theta) for
    theta <= 45 degrees. Implemented exactly as stated, including the
    leading max{} factor, so normalized results stay comparable across
    angles; k_hat spans [0, pi] up to the angle-dependent Nyquist limit.
    Raises ValueError where the square root overflows or underflows.
    """
    a = direction_cosines(theta, phi, stencil.d)
    return float(np.max(np.abs(a)) / (p + 1) * _stretched_length(a.tolist(), stencil))


def _stretched_length(a: list[float], stencil: StretchedStencil) -> float:
    """sqrt(sum_m (delta_m a_m / gamma_m)^2), the length behind k_hat.

    Raises ValueError unless finite and > 0: an inf would put every k at 0.
    """
    length = sqrt(sum(
        (delta * a_m / gamma) * (delta * a_m / gamma)
        for delta, a_m, gamma in zip(stencil.delta, a, stencil.gamma)
    ))
    if not (isfinite(length) and length > 0):
        raise ValueError(f"the stencil's normalization length is {length}, not finite and > 0")
    return length


def wavenumber_for(
    k_hat: float, theta: float, phi: float, stencil: StretchedStencil, p: int
) -> float:
    """The physical wavenumber k = k_hat / F of :func:`normalization_factor`."""
    return k_hat / normalization_factor(theta, phi, stencil, p)


def plane_wave_samples(symbol: SemiDiscreteSymbol) -> np.ndarray:
    """Sample the probe plane wave at the central cell's solution points.

    The cell origin sits at 0 in every direction; coordinates within the
    cell are 0.5*(xi+1)*delta per direction, flattened xi-fastest to match
    the operator ordering.
    """
    scheme, stencil, probe = symbol.scheme, symbol.stencil, symbol.probe
    nodes = make_points(scheme.p).nodes
    vel = probe.velocity(scheme.d)
    phase = np.zeros((1,) * scheme.d)
    for m in range(scheme.d):
        coord = 0.5 * (nodes + 1.0) * stencil.delta[m]
        shape = [1] * scheme.d
        shape[scheme.d - 1 - m] = nodes.size  # last axis is the xi direction
        phase = phase + (vel[m] * coord).reshape(shape)
    return np.exp(1j * probe.k * phase).ravel()


@dataclass
class SpectrumResult:
    """Eigenanalysis of one symbol.

    ``modes`` holds all (p+1)^d complex frequencies sorted by (Re, Im);
    ``eigvecs`` the matching unit-norm eigenvector columns.  ``beta``
    solves W beta = plane-wave samples.  ``degenerate`` flags coincident
    eigenvalues (beta then comes from least squares) and
    ``ill_conditioned`` flags kappa > 1e8.
    """

    modes: np.ndarray
    eigvecs: np.ndarray
    physical_index: int
    k_hat: float
    kappa: float
    beta: np.ndarray
    degenerate: bool = False
    ill_conditioned: bool = False

    @property
    def omega_physical(self) -> complex:
        return self.modes[self.physical_index]


def checked_eig(q: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Batched ``np.linalg.eig`` (``eigvals`` and None without ``vectors``); a
    LAPACK failure or a non-finite result raises :class:`EigensolverError`."""
    try:
        lam, vecs = np.linalg.eig(q) if vectors else (np.linalg.eigvals(q), None)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed: {exc}") from exc
    if not (np.isfinite(lam).all() and (vecs is None or np.isfinite(vecs).all())):
        raise EigensolverError("eigendecomposition returned non-finite values")
    return lam, vecs


def _eig_sorted(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lam, vecs = checked_eig(q)
    omega = 1j * lam
    order = np.lexsort((omega.imag, omega.real))
    return omega[order], vecs[:, order]


def analyze(symbol: SemiDiscreteSymbol) -> SpectrumResult:
    """Full eigenanalysis of one semi-discrete symbol.

    Modes are the eigenvalues of iQ. The physical index is the largest
    plane-wave weight |beta|, the rule of :func:`wave_modes` on the dense
    eigenvectors with the wave sampled at the real k. Branch-tracked sweeps
    (:func:`dispersion_sweep`) follow the branch from their anchor.
    """
    omega, vecs = _eig_sorted(symbol.Q)
    sv = np.linalg.svd(vecs, compute_uv=False)
    kappa = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    gap = np.abs(omega[:, None] - omega[None, :])
    np.fill_diagonal(gap, np.inf)
    degenerate = bool(gap.min() < DEGENERACY_TOL)
    u0 = plane_wave_samples(symbol)
    if degenerate or not np.isfinite(kappa):
        beta = np.linalg.lstsq(vecs, u0, rcond=None)[0]
    else:
        beta = np.linalg.solve(vecs, u0)
    k = symbol.probe.k
    return SpectrumResult(
        modes=omega,
        eigvecs=vecs,
        physical_index=int(np.argmax(np.abs(beta))),
        k_hat=abs(k) * normalization_factor(
            symbol.probe.theta, symbol.probe.phi, symbol.stencil, symbol.scheme.p
        ),
        kappa=kappa,
        beta=beta,
        degenerate=degenerate,
        ill_conditioned=bool(kappa > KAPPA_ILL_CONDITIONED),
    )


def diagonalization_residual(symbol: SemiDiscreteSymbol, result: SpectrumResult) -> float:
    """Relative residual of Q against its reconstructed eigendecomposition."""
    lam = result.modes / 1j
    rec = result.eigvecs @ np.diag(lam) @ np.linalg.inv(result.eigvecs)
    return float(
        np.linalg.norm(symbol.Q - rec, ord="fro") / np.linalg.norm(symbol.Q, ord="fro")
    )


def _match_to_previous(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Permutation aligning ``cur`` with ``prev`` by complex closeness.

    Greedy nearest-neighbour assignment followed by pairwise swap repair
    until the total distance stops improving; deterministic. A repair pass
    scans the pairs (i, j), i < j, in lexicographic order and swaps a pair
    whenever that lowers its cost by more than 1e-15; passes repeat until
    one makes no swap. Between swaps nothing changes, so each step jumps
    to the first improving pair after the last swap.

    Row-wise nearest columns that are all distinct are that answer: greedy
    gives each row i its first minimum own_i, and no swap follows, since
    dist[i, perm[j]] >= own_i, dist[j, perm[i]] >= own_j and rounded addition
    is monotone, so no swapped cost falls below own_i + own_j - 1e-15.

    When a row's nearest column is already taken, greedy gives it the
    first minimum of dist[i] + taken, where taken is 0 on a free column and
    +inf on a taken one. For finite distances that has the values, hence
    the first minimum, of dist[i] with the taken columns set to +inf.

    The repair tests every pair once, into an upper-triangular boolean
    matrix whose entry (a, b) is dist[a, perm[b]] + dist[b, perm[a]] <
    own_a + own_b - 1e-15, own_a = dist[a, perm[a]]. An entry reads perm
    and own only at a and b, so a swap of (i, j) changes only rows and
    columns i and j. Those are recomputed from one 2 x n expression whose
    row r, entry c, tests the pair {r, c}: it is written to row r right of
    the diagonal and to column r above it. A column entry (c, r) adds the
    same two terms as the full test, in the other order, and IEEE
    addition commutes, so every entry has the bits of a recompute of the
    whole matrix; the swaps, hence the permutation, are the same.

    Rows and columns are addressed by position: ``take`` on an index
    array, on dist and on a contiguous copy of dist.T made once per call,
    and scalar writes to perm and own. A gather copies elements and does no
    arithmetic, so every operand is the one list indexing would give, and
    every sum and comparison runs in the same order on the same bits.
    """
    n = prev.size
    dist = np.abs(prev[:, None] - cur[None, :])
    nearest = dist.argmin(axis=1)
    columns = nearest.tolist()
    if len(set(columns)) == n:
        return nearest
    rows = np.arange(n)
    perm = np.full(n, -1)
    free = [True] * n
    taken = np.zeros(n)  # 0 for a free column, +inf for a taken one
    for i in np.argsort(dist[rows, nearest]).tolist():  # the row minima
        j = columns[i]  # the first minimum stays first among free columns
        if not free[j]:
            j = int((dist[i] + taken).argmin())
        perm[i] = j
        free[j] = False
        taken[j] = np.inf
    own = dist[rows, perm]
    crossed = dist.take(perm, 1)
    improves = crossed + crossed.T < own[:, None] + own[None, :] - 1e-15
    improves &= rows[:, None] < rows[None, :]
    flat = improves.ravel()  # a view, so it sees every update below
    dist_t = np.ascontiguousarray(dist.T)
    pair = np.empty(2, dtype=int)
    last, swapped = -1, False  # flat index of the last swap in this pass
    while True:
        tail = flat[last + 1:]
        hit = int(tail.argmax())
        if tail[hit]:
            last += 1 + hit
            i, j = divmod(last, n)
            pair[0], pair[1] = i, j
            perm[i], perm[j] = perm[j], perm[i]
            gathered = dist.take(pair, 0).take(perm, 1)
            own[i], own[j] = gathered[0, i], gathered[1, j]
            crossing = dist_t.take(perm.take(pair), 0)
            fresh = gathered + crossing < own.take(pair)[:, None] + own - 1e-15
            for r, row in zip((i, j), fresh):
                improves[r, r + 1:] = row[r + 1:]
                improves[:r, r] = row[:r]
            swapped = True
        elif swapped:
            last, swapped = -1, False
        else:
            return perm


def track_branches(mode_sets: Sequence[np.ndarray]) -> np.ndarray:
    """Align eigenvalue sets along an ascending k sweep into branches.

    Returns an array of shape (n_k, n_modes) whose columns are continuous
    branches, matched between consecutive k samples by minimal total
    complex distance (:func:`_match_to_previous`). ``mode_sets`` must be a
    non-empty sequence of equal-size sets of finite values; anything else
    raises ``ValueError``. A step whose rows have distinct nearest columns
    is settled by the matcher's first test, without the greedy pass.
    """
    try:
        sets = np.asarray(mode_sets, dtype=complex)
    except ValueError as exc:
        raise ValueError("mode sets must all have the same size") from exc
    if sets.ndim != 2 or 0 in sets.shape:
        raise ValueError(
            f"mode sets must be a non-empty sequence of non-empty 1D sets, got shape {sets.shape}"
        )
    if not np.isfinite(sets).all():
        raise ValueError("mode sets must be finite")
    tracked = np.empty_like(sets)
    tracked[0] = sets[0]
    for i in range(1, len(sets)):
        tracked[i] = sets[i][_match_to_previous(tracked[i - 1], sets[i])]
    return tracked


def _check_anchor(modes: np.ndarray, physical: int, k0: float) -> None:
    """Raise :class:`ModeAmbiguityError` when a branch starts within 1e-6 *
    k0 of the physical one (row 0) and later departs from it; copies pass."""
    near = np.abs(modes[0] - modes[0, physical]) < 1e-6 * k0
    scale = max(1.0, float(np.abs(modes).max()))
    for j in np.flatnonzero(near).tolist():
        if np.abs(modes[:, j] - modes[:, physical]).max() > 1e-9 * scale:
            raise ModeAmbiguityError(
                f"a distinct branch starts within {1e-6 * k0:.3e} of the physical mode "
                f"at k = {k0}"
            )


def default_k_hat_grid() -> np.ndarray:
    """64 log-spaced normalized wavenumbers from 0.01 pi up to the Nyquist limit."""
    return np.geomspace(0.01 * np.pi, np.pi, 64)


def _anchor_ladder(first_k_hat: float) -> np.ndarray:
    """Unreported leading wavenumbers seeding branch identification.

    Starts at a resolved anchor, where :func:`wave_modes` picks the physical
    mode, and climbs geometrically so consecutive eigenvalue sets stay
    close for matching, regardless of how coarse or high the grid is. Past
    the anchor, the sweeps solve it for eigenvalues only (no kappa is shown).
    """
    anchor = min(1e-4, 0.01 * first_k_hat)
    steps = max(2, int(np.ceil(4 * np.log(first_k_hat / anchor))))
    return np.geomspace(anchor, first_k_hat, steps, endpoint=False)


@dataclass
class ModeSweep:
    """Branch-tracked spectra over an ascending wavenumber sweep."""

    k: np.ndarray
    k_hat: np.ndarray
    modes: np.ndarray  # (n_k, (p+1)^#active), branch-aligned; idle directions add none
    physical: int
    kappa: np.ndarray
    scale: float  # omega_hat = omega * scale

    @property
    def omega_physical(self) -> np.ndarray:
        return self.modes[:, self.physical]

    @property
    def omega_hat_physical(self) -> np.ndarray:
        return self.omega_physical * self.scale


def _kronecker_sum(lam_1d: np.ndarray) -> np.ndarray:
    """Sums of one eigenvalue per direction, (n_k, n_dir, n) -> (n_k, n^n_dir),
    in the order of the lifted basis (the first direction fastest)."""
    n_k, n_active, n = lam_1d.shape
    lam = np.zeros((n_k,) + (n,) * n_active, dtype=complex)
    for col in range(n_active):
        shape = [n_k] + [1] * n_active
        shape[n_active - col] = n  # the first direction is the last axis
        lam = lam + lam_1d[:, col].reshape(shape)
    return lam.reshape(n_k, -1)


def _unit_spectra(s: np.ndarray, with_kappa: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues of a stack of unit-speed symbols S, and kappa of each
    unit-column eigenvector matrix when ``with_kappa`` is set, else None."""
    lam, vecs = checked_eig(s, vectors=with_kappa)
    if not with_kappa:
        return lam, None
    sv = np.linalg.svd(vecs, compute_uv=False)
    with np.errstate(divide="ignore"):
        return lam, sv[..., 0] / sv[..., -1]


@lru_cache(maxsize=32)
def _line_spectra(
    scheme: SchemeConfig, delta: float, gamma: float, q_bytes: bytes, with_kappa: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`_unit_spectra` of one direction's S(q) over a grid of q, read-only.

    S depends on the scheme, delta and gamma alone, so the key holds those
    and the bytes of q. A hit returns the arrays of the identical
    computation, so it never changes an output.
    """
    line = DirectionSymbols(replace(scheme, d=1), StretchedStencil(1, (delta,), (gamma,)), 0.0, 0.0)
    out = _unit_spectra(line.unit(np.frombuffer(q_bytes)[:, None])[:, 0], with_kappa)
    for arr in out:
        if arr is not None:
            arr.setflags(write=False)
    return out


def factored_spectra(
    symbols: DirectionSymbols,
    k_hat: np.ndarray,
    with_kappa: bool = False,
    memo: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues of Q at each normalized wavenumber from per-direction 1D eigensolves.

    Q is the Kronecker sum of the direction symbols Q_m, so its eigenvalues
    are the sums of one eigenvalue of each Q_m and its eigenvectors are
    Kronecker products of theirs (Horn & Johnson, Topics in Matrix
    Analysis, 4.4). The unit-column eigenvector matrix W is then the
    Kronecker product of the 1D ones, and kappa(W) = prod_m kappa(W_m).
    Only directions the wave moves in (``symbols.active``) are summed. Any
    other direction has Q_m = 0: it would only repeat the spectrum of the
    others p+1 times, with the identity basis (kappa_m = 1), so it is left
    out.

    Each Q_m(k) = a_m S_m(k a_m), with S_m the unit-speed symbol of
    :class:`~frspectra.operator.DirectionSymbols`: its eigenvalues are a_m
    eig(S_m(q_m)) and its eigenvectors, hence kappa_m, those of S_m, at
    q_m = k a_m = k_hat (p+1) (a_m / max|a|) / ||delta a / gamma|| for k =
    k_hat / F (:func:`normalization_factor`). On a uniform stencil the
    leading direction has q_m = k_hat (p+1) / ||a|| at every angle, so with
    ``memo`` (the default, for grids) each direction's 1D spectra are
    memoized per process in a bounded LRU cache of read-only arrays, keyed
    on the scheme, delta_m, gamma_m, the bytes of q_m and ``with_kappa``. A
    hit returns the arrays of the identical computation, so it never
    changes an output. Wavenumbers that never repeat across angles, such as
    the probes of a CFL refinement, are passed with ``memo=False``: they are
    solved in one batched eigensolve over the active directions and never
    enter or evict the memo. Without ``with_kappa`` a solve is
    eigenvalue-only (``eigvals``, the bits of ``eig``).

    Returns the eigenvalues, shape (n_k, (p+1)^len(active)) in the order
    of the lifted basis of the active directions (:func:`_kronecker_sum`),
    and kappa(W) per k when ``with_kappa`` is set, else None. The dense
    :func:`analyze` of :func:`~frspectra.operator.assemble_symbol` is the
    reference.
    """
    a, stencil, active = symbols.velocity.tolist(), symbols.stencil, symbols.active.tolist()
    a_max, length = max(map(abs, a)), _stretched_length(a, stencil)
    rates = [(symbols.scheme.p + 1) * (a[m] / a_max) / length for m in active]  # q_m / k_hat
    k_hat = np.asarray(k_hat, dtype=float)
    if not memo:
        lam_1d, kappa_1d = _unit_spectra(symbols.unit(k_hat[:, None] * rates), with_kappa)
    else:
        parts = [
            _line_spectra(
                symbols.scheme, stencil.delta[m], stencil.gamma[m], (k_hat * rate).tobytes(),
                with_kappa,
            )
            for m, rate in zip(active, rates)
        ]
        lam_1d = np.stack([lam for lam, _ in parts], axis=1)
        kappa_1d = np.stack([kappa for _, kappa in parts], axis=1) if with_kappa else None
    lam = _kronecker_sum(symbols.velocity[active][:, None] * lam_1d)
    return lam, kappa_1d.prod(axis=1) if with_kappa else None


def tracked_frequencies(lam: np.ndarray) -> np.ndarray:
    """Branch-tracked frequencies omega = i*lambda along an ascending k sweep.

    ``lam`` holds the eigenvalues of Q, shape (n_k, n_modes). Each row is
    sorted by (Re, Im), as :func:`analyze` sorts its modes, before
    :func:`track_branches` aligns the rows into branches, returned in the
    column order of ``lam[0]``.
    """
    omega = 1j * lam
    order = np.lexsort((omega.imag, omega.real), axis=-1)
    tracked = track_branches(np.take_along_axis(omega, order, axis=-1))
    return tracked[:, np.argsort(order[0])]


def wave_modes(
    symbols: DirectionSymbols, k: float
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Eigenvalues (len(active), p+1) and unit eigenvectors (len(active),
    p+1, p+1) of the active Q_m at one k, and per active direction the index
    of the mode carrying the plane wave: the largest |beta_j| of W_m beta =
    u_m (least squares; Moura, Sherwin & Peiro, JCP 2015). u_m = exp(i kt_m
    a_m x) at the solution points, x = (xi + 1) delta_m / 2, with kt_m = k /
    gamma_m + i ln(gamma_m) / (a_m delta_m), where the uniform upwind symbol
    equals Q_m (:class:`~frspectra.operator.DirectionSymbols`). The sweeps'
    anchor row is the Kronecker sum of these eigenvalues, so k is solved once.
    """
    lam, vecs = checked_eig(symbols.evaluate(np.array([k]))[0])
    xi = make_points(symbols.scheme.p).nodes
    picks = []
    for col, m in enumerate(symbols.active):
        a, delta, gamma = symbols.velocity[m], symbols.stencil.delta[m], symbols.stencil.gamma[m]
        k_tilde = k / gamma + 1j * np.log(gamma) / (a * delta)
        wave = np.exp(1j * k_tilde * a * 0.5 * (xi + 1.0) * delta)
        picks.append(int(np.argmax(np.abs(np.linalg.lstsq(vecs[col], wave, rcond=None)[0]))))
    return lam, vecs, picks


def physical_eigenvector(
    scheme: SchemeConfig,
    stencil: StretchedStencil,
    theta: float,
    phi: float,
    k: float,
) -> tuple[complex, np.ndarray]:
    """Wave-carrying frequency and unit eigenvector of Q at one wavenumber k > 0.

    Q is the Kronecker sum of the direction symbols Q_m, so omega = sum_m
    i lambda_m and the eigenvector is the Kronecker product (xi fastest) of
    one eigenvector per direction, constant where a_m = 0. Each moving
    direction keeps the eigenpair of :func:`wave_modes`. No branch is
    tracked, so a sweep can differ at a central-flux avoided crossing
    (``dispersion --d 1 --p 4 --family dg --alpha 0.5 --khat 0.6``).
    """
    if not (isfinite(k) and k > 0):
        raise ValueError(f"wavenumber must be finite and > 0, got {k}")
    n = scheme.p + 1
    symbols = DirectionSymbols(scheme, stencil, theta, phi)
    lam, vecs, picks = wave_modes(symbols, k)
    omega, parts = 0j, [np.full(n, n**-0.5)] * scheme.d
    for col, (m, idx) in enumerate(zip(symbols.active, picks)):
        omega += 1j * lam[col, idx]
        parts[m] = vecs[col, :, idx]
    return complex(omega), reduce(lambda vec, part: np.kron(part, vec), parts, np.ones(1))


def factored_sweep(
    scheme: SchemeConfig,
    stencil: StretchedStencil,
    theta: float,
    phi: float,
    k_hat: np.ndarray | None,
    frequencies: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> ModeSweep:
    """Branch-tracked sweep over a normalized wavenumber grid.

    Validates ``k_hat`` (the default grid when None; at most pi) and prepends the
    unreported :func:`_anchor_ladder`. ``frequencies(ks, lam)`` maps the
    wavenumbers and the eigenvalues of Q to branches in the column order of
    ``lam[0]``. Each k is solved once, as far as the output reads: the anchor
    ``ks[0]`` by :func:`wave_modes`, whose picks give the physical column
    (their Kronecker index), the ladder for eigenvalues, the grid with kappa.
    The ladder and the grid go to :func:`factored_spectra` as normalized
    wavenumbers, so at every angle of a uniform stencil the leading
    direction's 1D spectra come from its per-process cache.
    """
    if k_hat is None:
        k_hat = default_k_hat_grid()
    k_hat = np.asarray(k_hat, dtype=float)
    if not (k_hat.size and np.isfinite(k_hat).all() and (np.diff(k_hat, prepend=0.0) > 0).all()):
        raise ValueError("k_hat must be finite, positive, strictly increasing and non-empty")
    if k_hat[-1] > np.pi:  # above pi the wave aliases
        raise ValueError(f"k_hat must be <= pi, got {k_hat[-1]}")
    factor = normalization_factor(theta, phi, stencil, scheme.p)
    lead = _anchor_ladder(k_hat[0])
    ks = np.concatenate((lead, k_hat)) / factor
    n_lead = lead.size
    symbols = DirectionSymbols(scheme, stencil, theta, phi)
    lam_1d, _, picks = wave_modes(symbols, ks[0])
    physical = sum(idx * (scheme.p + 1) ** col for col, idx in enumerate(picks))
    ladder, _ = factored_spectra(symbols, lead[1:])
    lam, kappa = factored_spectra(symbols, k_hat, with_kappa=True)
    modes = frequencies(ks, np.concatenate((_kronecker_sum(lam_1d[None]), ladder, lam)))
    _check_anchor(modes, physical, ks[0])
    return ModeSweep(
        k=ks[n_lead:],
        k_hat=k_hat,
        modes=modes[n_lead:],
        physical=physical,
        kappa=kappa,
        scale=factor,
    )


def dispersion_sweep(
    scheme: SchemeConfig,
    stencil: StretchedStencil,
    theta: float = 0.0,
    phi: float = 0.0,
    k_hat: np.ndarray | None = None,
) -> ModeSweep:
    """Analyze a k sweep at fixed angles with branch tracking.

    Spectra come from per-direction 1D eigensolves (:func:`factored_spectra`):
    the (p+1)^#active modes at each k are the sums of the 1D eigenvalues of
    the directions the wave moves in, sorted by (Re, Im) and branch-tracked
    as a whole (:func:`tracked_frequencies`), and kappa is the product of
    the 1D values. A direction with |a_m| at or below machine epsilon is
    idle: it adds no modes and counts as kappa = 1, so the sweep equals the
    one in the lower dimension. The dense :func:`analyze` of the
    assembled symbol remains the reference. The grid, its seeding ladder
    and the physical branch, the largest plane-wave weight at the anchor
    tracked from there, are those of :func:`factored_sweep`.
    """
    return factored_sweep(
        scheme, stencil, theta, phi, k_hat, lambda ks, lam: tracked_frequencies(lam)
    )
