"""A sweep decomposes each wavenumber once, and only as far as its output reads.

The anchor ``ks[0]`` is solved with eigenvectors, which the plane-wave
weight reads; the rest of the unreported ladder for eigenvalues only; the
reported grid with eigenvectors and their SVD, which kappa reads. Counts
are of matrices: a call on a stack of shape (..., n, n) counts each one.
The 1D spectra of a grid are memoized per process, so the counts start
from a cleared memo.
"""
import numpy as np
import pytest

from frspectra import spectrum
from frspectra.basis import CorrectionFamily
from frspectra.cli import main
from frspectra.operator import DirectionSymbols, SchemeConfig, StretchedStencil
from frspectra.spectrum import (
    _anchor_ladder,
    default_k_hat_grid,
    dispersion_sweep,
    normalization_factor,
)
from frspectra.temporal import RK44, fully_discrete_sweep

SCHEME = SchemeConfig(3, CorrectionFamily.huynh_g2(3), 1.0, 2)
STENCIL = StretchedStencil.uniform(2)
THETA = np.radians(30)  # both directions move
N_DIRECTIONS = 2
SWEEPS = {
    "dispersion": lambda: dispersion_sweep(SCHEME, STENCIL, THETA),
    "fully_discrete": lambda: fully_discrete_sweep(SCHEME, STENCIL, RK44, 0.18, THETA),
}


def sweep_wavenumbers():
    grid = default_k_hat_grid()
    factor = normalization_factor(THETA, 0.0, STENCIL, SCHEME.p)
    return np.concatenate((_anchor_ladder(grid[0]), grid)) / factor


@pytest.fixture
def work(monkeypatch):
    """Matrices passed to each LAPACK entry point, every k the dense formula
    is evaluated at, and every phase wavenumber q of a unit-speed symbol
    (one per direction and k), from a cleared memo."""
    spectrum._line_spectra.cache_clear()
    matrices = dict.fromkeys(("eig", "eigvals", "svd"), 0)
    evaluated, phases = [], []
    for name in matrices:

        def spy(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            matrices[_name] += int(np.prod(np.shape(a)[:-2]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    evaluate = DirectionSymbols.evaluate

    def spy_evaluate(self, ks):
        evaluated.extend(np.asarray(ks, dtype=float).tolist())
        return evaluate(self, ks)

    monkeypatch.setattr(DirectionSymbols, "evaluate", spy_evaluate)
    unit = DirectionSymbols.unit

    def spy_unit(self, q):
        phases.extend(np.ravel(q).tolist())
        return unit(self, q)

    monkeypatch.setattr(DirectionSymbols, "unit", spy_unit)
    return matrices, evaluated, phases


@pytest.mark.parametrize("sweep", SWEEPS)
def test_each_wavenumber_is_decomposed_once_as_far_as_read(work, sweep):
    matrices, evaluated, phases = work
    result = SWEEPS[sweep]()
    n_reported = result.k.size
    n_ladder = sweep_wavenumbers().size - n_reported
    assert (n_reported, n_ladder) == (64, 23)
    assert matrices == {
        "eig": (n_reported + 1) * N_DIRECTIONS,  # the grid and the anchor
        "eigvals": (n_ladder - 1) * N_DIRECTIONS,  # the rest of the ladder
        "svd": n_reported * N_DIRECTIONS,
    }
    assert evaluated == [sweep_wavenumbers()[0]]  # the anchor, by the dense formula
    # the rest of the ladder and the grid, once per direction
    assert len(phases) == len(set(phases)) == (n_ladder - 1 + n_reported) * N_DIRECTIONS


def test_eigenvalue_only_solve_has_the_bits_of_eig():
    """The ladder's eigvals rows equal the eig rows they replace, so the
    tracked branches, hence every output, keep their bits."""
    q = DirectionSymbols(SCHEME, STENCIL, THETA, 0.0).evaluate(sweep_wavenumbers())
    assert np.linalg.eigvals(q).tobytes() == np.linalg.eig(q)[0].tobytes()


def cli_bytes(tmp_path, argv, name):
    path = tmp_path / name
    assert main(argv + ["-o", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("command", ["dispersion", "cfl"])
def test_memo_never_changes_an_output(tmp_path, command):
    """The bytes of a sweep are those of a cold memo, whether the memo is
    warm from other angles or from another scheme."""
    config = [command, "--d", "2", "--p", "2"]
    sweep, one_angle = config + ["--theta", "0:90:15"], config + ["--theta", "30"]
    spectrum._line_spectra.cache_clear()
    cold = cli_bytes(tmp_path, sweep, "cold.csv")
    spectrum._line_spectra.cache_clear()
    alone = cli_bytes(tmp_path, one_angle, "alone.csv")
    spectrum._line_spectra.cache_clear()
    cli_bytes(tmp_path, config + ["--theta", "0:90:45"], "other_angles.csv")
    assert cli_bytes(tmp_path, one_angle, "after_angles.csv") == alone
    spectrum._line_spectra.cache_clear()
    cli_bytes(tmp_path, config + ["--family", "dg", "--theta", "0:90:15"], "dg.csv")
    assert cli_bytes(tmp_path, sweep, "after_scheme.csv") == cold


def test_memo_holds_read_only_arrays_and_is_bounded():
    grid = default_k_hat_grid() * (SCHEME.p + 1)
    lam, kappa = spectrum._line_spectra(
        SCHEME.family, SCHEME.alpha, 1.0, 1.0, grid.tobytes(), True
    )
    assert lam.shape == (grid.size, SCHEME.p + 1) and kappa.shape == (grid.size,)
    for arr in (lam, kappa):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    size = spectrum._line_spectra.cache_info().maxsize
    assert isinstance(size, int)
    for shift in range(size + 3):
        spectrum._line_spectra(
            SCHEME.family, SCHEME.alpha, 1.0, 1.0, (grid + shift).tobytes(), False
        )
    assert spectrum._line_spectra.cache_info().currsize == size


def test_an_angle_sweep_decomposes_the_leading_grid_once_per_rounding(tmp_path, monkeypatch):
    """On a uniform stencil the direction with the largest |a_m| has k a_m =
    k_hat (p+1) / ||a|| at every angle, so its 64-point grid is solved once
    for each value ||a|| rounds to: 1 and 1 - 2^-53 over these 31 angles.
    At 45 degrees sin rounds one ulp below cos, so the other direction's
    grid is a third one, one ulp from the leading grid. Without the memo
    the count reads 32: every angle, and the other direction at 45."""
    p, eig = 3, np.linalg.eig
    line = DirectionSymbols(
        SchemeConfig(p, CorrectionFamily.huynh_g2(p), 1.0, 1), StretchedStencil.uniform(1), 0.0, 0.0
    )
    leading = line.evaluate(default_k_hat_grid() * (p + 1))[:, 0]  # a = 1: Q = S
    solves = []

    def spy(a, *args, **kwargs):
        a = np.asarray(a)
        if a.shape[0] == leading.shape[0]:  # a stack over the grid: one slot per direction
            for stack in np.moveaxis(a.reshape(a.shape[0], -1, p + 1, p + 1), 1, 0):
                scale = np.vdot(leading, stack) / np.vdot(leading, leading)
                solves.append(np.abs(stack - scale * leading).max() < 1e-10 * np.abs(stack).max())
        return eig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", spy)
    spectrum._line_spectra.cache_clear()
    cli_bytes(tmp_path, ["dispersion", "--d", "2", "--p", str(p), "--theta", "0:90:3"], "31.csv")
    assert 1 <= sum(solves) <= 3
