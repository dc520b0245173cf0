"""A sweep decomposes each wavenumber once, and only as far as its output reads.

The anchor ``ks[0]`` is solved with eigenvectors, which the plane-wave
weight reads; the rest of the unreported ladder for eigenvalues only; the
reported grid with eigenvectors and their SVD, which kappa reads. Counts
are of matrices: a call on a stack of shape (..., n, n) counts each one.
"""
import numpy as np
import pytest

from frspectra.basis import CorrectionFamily
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
    """Matrices passed to each LAPACK entry point, and every k evaluated."""
    matrices = dict.fromkeys(("eig", "eigvals", "svd"), 0)
    evaluated = []
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
    return matrices, evaluated


@pytest.mark.parametrize("sweep", SWEEPS)
def test_each_wavenumber_is_decomposed_once_as_far_as_read(work, sweep):
    matrices, evaluated = work
    result = SWEEPS[sweep]()
    n_reported = result.k.size
    n_ladder = sweep_wavenumbers().size - n_reported
    assert (n_reported, n_ladder) == (64, 23)
    assert matrices == {
        "eig": (n_reported + 1) * N_DIRECTIONS,  # the grid and the anchor
        "eigvals": (n_ladder - 1) * N_DIRECTIONS,  # the rest of the ladder
        "svd": n_reported * N_DIRECTIONS,
    }
    assert len(evaluated) == len(set(evaluated)) == n_ladder + n_reported


def test_eigenvalue_only_solve_has_the_bits_of_eig():
    """The ladder's eigvals rows equal the eig rows they replace, so the
    tracked branches, hence every output, keep their bits."""
    q = DirectionSymbols(SCHEME, STENCIL, THETA, 0.0).evaluate(sweep_wavenumbers())
    assert np.linalg.eigvals(q).tobytes() == np.linalg.eig(q)[0].tobytes()
