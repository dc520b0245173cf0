"""Semi-discrete eigenanalysis of the Bloch symbol.

Extracts per-mode complex frequencies omega (Re = dispersion, Im =
dissipation), identifies the physical branch, normalizes wavenumbers by
the angle- and stretch-dependent Nyquist limit, and measures the modal
conditioning kappa(W) of the eigenvector matrix.

``analyze`` is pure; sweeps over (k, theta, phi) tuples can run
concurrently as long as results are gathered in a deterministic order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .basis import make_points
from .operator import (
    DirectionSymbols,
    SchemeConfig,
    SemiDiscreteSymbol,
    StretchedStencil,
    WaveProbe,
    direction_cosines,
)

KAPPA_ILL_CONDITIONED = 1e8
DEGENERACY_TOL = 1e-12


class EigensolverError(RuntimeError):
    """Eigendecomposition failed or returned non-finite values."""


class ModeAmbiguityError(RuntimeError):
    """Two branches match the physical-mode criterion equally well."""


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
    """
    a = direction_cosines(theta, phi, stencil.d)
    scaled = [
        stencil.delta[m] * a[m] / stencil.gamma[m] for m in range(stencil.d)
    ]
    return float(np.max(np.abs(a)) / (p + 1) * np.sqrt(np.sum(np.square(scaled))))


def normalize_wavenumber(
    k: float, probe: WaveProbe, stencil: StretchedStencil, p: int
) -> float:
    """Map a physical wavenumber to k_hat in [0, pi]."""
    if k < 0:
        raise ValueError("normalization expects k >= 0")
    return k * normalization_factor(probe.theta, probe.phi, stencil, p)


def wavenumber_for(
    k_hat: float, theta: float, phi: float, stencil: StretchedStencil, p: int
) -> float:
    """Inverse of :func:`normalize_wavenumber` at fixed angles."""
    return k_hat / normalization_factor(theta, phi, stencil, p)


def nyquist_wavenumber(
    theta: float, phi: float, stencil: StretchedStencil, p: int
) -> float:
    """Largest supported physical wavenumber (k_hat = pi) at these angles."""
    return np.pi / normalization_factor(theta, phi, stencil, p)


def plane_wave_samples(symbol: SemiDiscreteSymbol) -> np.ndarray:
    """Sample the probe plane wave at the central cell's solution points.

    The cell origin sits at 0 in every direction; coordinates within the
    cell are 0.5*(xi+1)*delta per direction, flattened xi-fastest to match
    the operator ordering.
    """
    scheme, stencil, probe = symbol.scheme, symbol.stencil, symbol.probe
    nodes = make_points(scheme.p, scheme.rule).nodes
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

    Modes are the eigenvalues of iQ. The physical index is chosen by
    closeness of omega/k to the exact unit-speed response, which is
    reliable for small and moderate k; branch-tracked sweeps
    (:func:`dispersion_sweep`) are authoritative near and beyond the
    Nyquist limit.
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
    if abs(k) > 1e-300:
        physical = int(np.argmin(np.abs(omega / k - 1.0)))
    else:
        physical = int(np.argmin(np.abs(omega)))
    return SpectrumResult(
        modes=omega,
        eigvecs=vecs,
        physical_index=physical,
        k_hat=normalize_wavenumber(abs(k), symbol.probe, symbol.stencil, symbol.scheme.p),
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


def _settled_by_copies(dist: np.ndarray, nearest: np.ndarray, cur: np.ndarray) -> bool:
    """Whether the copy exit of :func:`track_branches` settles a contested step.

    ``dist`` and ``nearest`` are the step's distances and row-wise first
    minima. ``ties`` marks each row's minimum-distance columns and
    ``copies`` the columns with the bits of its nearest value. A copy has
    the distance of the column it copies, so ``copies`` lies within
    ``ties``, and condition (a) is their equality. Under (a) the rows tied
    at a column are the rows whose nearest value it copies, so (b)
    compares the column and row counts of ``ties``. Values that are all
    distinct as numbers, hence in bits, have one copy each, and a nearest
    column shared by two rows already breaks (b).
    """
    n = cur.size
    if len(set(cur.tolist())) == n:
        return False
    ties = dist == dist[np.arange(n), nearest][:, None]
    re, im = cur.real.view(np.int64), cur.imag.view(np.int64)
    copies = (re[nearest, None] == re) & (im[nearest, None] == im)
    return np.array_equal(ties, copies) and bool((ties.sum(0)[nearest] <= ties.sum(1)).all())


def track_branches(mode_sets: Sequence[np.ndarray]) -> np.ndarray:
    """Align eigenvalue sets along an ascending k sweep into branches.

    Returns an array of shape (n_k, n_modes) whose columns are continuous
    branches, matched between consecutive k samples by minimal total
    complex distance (:func:`_match_to_previous`). ``mode_sets`` must be a
    non-empty sequence of equal-size sets of finite values; anything else
    raises ``ValueError``.

    A step whose rows have distinct nearest columns, or whose competing
    rows all want exact copies of one value, is settled here without the
    matcher. Let v_r be the nearest value of row r. A copy of a value is
    a column with the same bits, so -0.0 and +0.0 differ. The copy exit
    settles row r as v_r when (a) the minimum-distance columns of every
    row r are exactly the copies of v_r, and (b) no value is v_r for more
    rows than it has copies. Then the matcher gives every row a copy of
    its v_r. Greedy takes the row's first minimum, a copy of v_r, while it
    is free; otherwise its fallback takes the first minimum over free
    columns, and a copy of v_r is still free: earlier rows took only
    copies of their own nearest values, and by (b) fewer of them than v_r
    has copies share v_r. So every row ends at its row minimum, and no
    swap follows, by the argument of :func:`_match_to_previous` for
    distinct nearest columns. Whichever copy greedy picked, the row's
    value has the bits of v_r.
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
    n_k, n = sets.shape
    tracked = np.empty((n_k, n), dtype=complex)
    tracked[0] = sets[0]
    for i in range(1, n_k):
        prev, cur = tracked[i - 1], sets[i]
        dist = np.abs(prev[:, None] - cur[None, :])
        nearest = dist.argmin(axis=1)
        if len(set(nearest.tolist())) < n and not _settled_by_copies(dist, nearest, cur):
            nearest = _match_to_previous(prev, cur)
        tracked[i] = cur[nearest]
    return tracked


def physical_candidates(scores: np.ndarray) -> list[int]:
    """The best branch by ``scores`` (|omega/k - 1| at the smallest k), then
    the near-ties: scores < 0.1 and < max(10 * best, 1e-6), ascending."""
    best, *rest = np.argsort(scores).tolist()
    cutoff = min(0.1, max(10.0 * scores[best], 1e-6))
    return [best] + [j for j in rest if scores[j] < cutoff]


def physical_mode_select(tracked: np.ndarray, k_values: np.ndarray) -> int:
    """Index of the physical branch in a branch-tracked mode array.

    The physical branch passes through the origin with unit slope, so it
    is the one with omega/k closest to 1 at the smallest k of the sweep.
    A near-tie (:func:`physical_candidates`) between genuinely distinct
    branches is reported rather than silently resolved; exact multiplicity
    copies (grid-aligned multi-dimensional sweeps repeat the 1D branch)
    collapse to the lowest index.
    """
    k0 = k_values[0]
    scores = np.abs(tracked[0] / k0 - 1.0)
    best, *ties = physical_candidates(scores)
    scale = max(1.0, float(np.abs(tracked).max()))
    for j in ties:
        if np.abs(tracked[:, j] - tracked[:, best]).max() > 1e-9 * scale:
            raise ModeAmbiguityError(
                f"two distinct branches match the physical criterion at k = {k0}: "
                f"scores {scores[best]:.3e} and {scores[j]:.3e}"
            )
    return best


def default_k_hat_grid(n: int = 64, lo: float = 0.01 * np.pi) -> np.ndarray:
    """Log-spaced normalized wavenumbers up to the Nyquist limit."""
    return np.geomspace(lo, np.pi, n)


def _anchor_ladder(first_k_hat: float) -> np.ndarray:
    """Unreported leading wavenumbers seeding branch identification.

    Starts low enough that the physical branch is unambiguous and climbs
    geometrically so consecutive eigenvalue sets stay close for matching,
    regardless of how coarse or high the requested grid is.
    """
    anchor = min(1e-4, 0.01 * first_k_hat)
    steps = max(2, int(np.ceil(4 * np.log(first_k_hat / anchor))))
    return np.geomspace(anchor, first_k_hat, steps, endpoint=False)


@dataclass
class ModeSweep:
    """Branch-tracked spectra over an ascending wavenumber sweep."""

    k: np.ndarray
    k_hat: np.ndarray
    modes: np.ndarray  # (n_k, n_modes), branch-aligned
    physical: int
    kappa: np.ndarray
    scale: float  # omega_hat = omega * scale

    @property
    def omega_physical(self) -> np.ndarray:
        return self.modes[:, self.physical]

    @property
    def omega_hat_physical(self) -> np.ndarray:
        return self.omega_physical * self.scale


def factored_spectra(
    symbols: DirectionSymbols,
    ks: np.ndarray,
    with_kappa: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues of Q(k) at each k from per-direction 1D eigensolves.

    Q is the Kronecker sum of the direction symbols Q_m, so its eigenvalues
    are the sums of one eigenvalue of each Q_m and its eigenvectors are
    Kronecker products of theirs (Horn & Johnson, Topics in Matrix
    Analysis, 4.4). The unit-column eigenvector matrix W is then the
    Kronecker product of the 1D ones, and kappa(W) = prod_m kappa(W_m).
    Only directions the wave moves in (``symbols.active``) are solved; any
    other direction has Q_m = 0 and contributes exact zeros and the
    identity basis (kappa_m = 1).

    ``symbols`` is the configuration's
    :class:`~frspectra.operator.DirectionSymbols`, built once by the
    caller, so a call costs one evaluation of its formula at ``ks`` and one
    batched eigensolve for every k, whether there are many or one.

    Returns the eigenvalues, shape (n_k, (p+1)^d) in the order of the
    lifted basis (xi index fastest), and kappa(W) per k when
    ``with_kappa`` is set, else None. The dense :func:`analyze` of
    :func:`~frspectra.operator.assemble_symbol` is the reference.
    """
    lam_1d, vecs = checked_eig(symbols.evaluate(ks), vectors=with_kappa)
    n_k, n, d = len(ks), symbols.scheme.p + 1, symbols.scheme.d
    lam = np.zeros((n_k,) + (n,) * d, dtype=complex)
    for col, m in enumerate(symbols.active):
        shape = [n_k] + [1] * d
        shape[d - m] = n  # the xi direction (m = 0) is the last axis
        lam = lam + lam_1d[:, col].reshape(shape)
    lam = lam.reshape(n_k, -1)
    if not with_kappa:
        return lam, None
    sv = np.linalg.svd(vecs, compute_uv=False)
    with np.errstate(divide="ignore"):
        kappa = (sv[..., 0] / sv[..., -1]).prod(axis=1)
    return lam, kappa


def tracked_frequencies(lam: np.ndarray) -> np.ndarray:
    """Branch-tracked frequencies omega = i*lambda along an ascending k sweep.

    ``lam`` holds the eigenvalues of Q, shape (n_k, n_modes). Each row is
    sorted by (Re, Im), as :func:`analyze` sorts its modes, before
    :func:`track_branches` aligns the rows into branches.
    """
    omega = 1j * lam
    order = np.lexsort((omega.imag, omega.real), axis=-1)
    return track_branches(np.take_along_axis(omega, order, axis=-1))


def physical_branch(lam: np.ndarray, ks: np.ndarray, a: float) -> np.ndarray:
    """Physical branch omega_m(k a) of S_m along an ascending k sweep, given the
    eigenvalues ``lam`` (n_k, p+1) of Q_m(k) = a S_m(k a), a != 0: the tracked
    frequencies i*lam/a with omega / (k a) closest to 1 at the smallest k."""
    tracked = tracked_frequencies(lam / a)
    return tracked[:, physical_mode_select(tracked, ks * a)]


def factored_sweep(
    scheme: SchemeConfig,
    stencil: StretchedStencil,
    theta: float,
    phi: float,
    k_hat: np.ndarray | None,
    frequencies: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> ModeSweep:
    """Branch-tracked sweep over a normalized wavenumber grid.

    Validates ``k_hat`` (the default grid when None) and prepends the
    unreported :func:`_anchor_ladder` that seeds the physical branch.
    ``frequencies(ks, lam)`` maps the wavenumbers and the eigenvalues of Q
    from :func:`factored_spectra` to branch-tracked frequencies.
    """
    if k_hat is None:
        k_hat = default_k_hat_grid()
    k_hat = np.asarray(k_hat, dtype=float)
    if k_hat.size == 0 or np.any(np.diff(k_hat) <= 0) or k_hat[0] <= 0:
        raise ValueError("k_hat must be a non-empty strictly increasing positive grid")
    factor = normalization_factor(theta, phi, stencil, scheme.p)
    lead = _anchor_ladder(k_hat[0])
    ks = np.concatenate((lead, k_hat)) / factor
    n_lead = lead.size
    symbols = DirectionSymbols(scheme, stencil, theta, phi)
    lam, kappa = factored_spectra(symbols, ks, with_kappa=True)
    modes = frequencies(ks, lam)
    physical = physical_mode_select(modes, ks)
    return ModeSweep(
        k=ks[n_lead:],
        k_hat=k_hat,
        modes=modes[n_lead:],
        physical=physical,
        kappa=kappa[n_lead:],
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
    the (p+1)^d modes at each k are the sums of the 1D eigenvalues, sorted
    by (Re, Im) and branch-tracked as a whole (:func:`tracked_frequencies`),
    and kappa is the product of the 1D values (a direction with |a_m| below
    machine epsilon counts as kappa = 1). The dense :func:`analyze` of the
    assembled symbol remains the reference. The grid, its seeding ladder
    and the physical branch are those of :func:`factored_sweep`.
    """
    return factored_sweep(
        scheme, stencil, theta, phi, k_hat, lambda ks, lam: tracked_frequencies(lam)
    )
