"""What the stretched symbol measures, checked against the time-domain solver.

The dense reference reuses the symbol's metric and phase factors, so it
cannot catch a wrong one at gamma != 1. Two identities can:

1. The symbol acts on width-weighted values. With L the solver's operator
   (built from the element-wise recipe) and W the width of each node's
   cell, W L W^-1 applied to a Bloch vector equals Q(k; delta = w_j, gamma) u
   at every cell j whose neighbours are w_j/gamma and gamma*w_j wide: the
   interior cells of a mirrored-geometric half. L itself does not.
2. The exact frozen value. A constant-amplitude wave has width-weighted
   values that grow by gamma per cell, so at resolved k the upwind physical
   mode tends to omega_ex = k sum_m a_m^2/gamma_m + i sum_m a_m ln(gamma_m)/delta_m,
   with an error that falls with the order of the scheme.

With upwind fluxes a third, exact identity holds: stretching is a complex
wavenumber, Q_m(k; delta, gamma) = Q_m(k/gamma + i ln(gamma)/(a delta); delta, 1).
For upwind DG a fourth follows (identity B): every eigenvalue lambda of Q_m
satisfies e^{i k a delta/gamma}/gamma = R(-lambda delta/a), with R the [p/(p+1)]
Pade approximant of e^z, which gives the scheme error in closed form.
"""
from functools import reduce
from math import factorial

import numpy as np
import pytest

from frspectra.advect import AdvectionProblem, PeriodicGrid
from frspectra.basis import CorrectionFamily
from frspectra.operator import (
    DirectionSymbols,
    SchemeConfig,
    StretchedStencil,
    WaveProbe,
    assemble_symbol,
    build_blocks,
    direction_cosines,
)
from frspectra.spectrum import dispersion_sweep, normalization_factor
from frspectra.temporal import RK44, fully_discrete_sweep


def scheme(p, alpha, d, kind):
    fam = CorrectionFamily.dg(p) if kind == "dg" else CorrectionFamily.huynh_g2(p)
    return SchemeConfig(p, fam, alpha, d)


def bloch_residuals(sch, grid, gamma, theta, k, cells):
    """Largest relative residual of W L W^-1 against Q over ``cells`` (cell
    indices in FieldState order), and the smallest residual of L itself."""
    d, n = grid.d, sch.p + 1
    velocity = direction_cosines(theta, 0.0, d)
    problem = AdvectionProblem(grid, sch, velocity)
    widths = reduce(np.multiply.outer, grid.spacings[::-1])[(...,) + (None,) * d]
    phase = reduce(
        np.multiply.outer,
        [np.exp(1j * k * a * grid.origins(m)) for m, a in enumerate(velocity)][::-1],
    )
    rng = np.random.default_rng(3)
    u = rng.standard_normal(n**d) + 1j * rng.standard_normal(n**d)
    bloch = np.multiply.outer(phase, u.reshape((n,) * d))
    weighted = widths * problem.rhs(bloch / widths)
    plain = problem.rhs(bloch)
    worst_weighted, best_plain = 0.0, np.inf
    for cell in cells:
        delta = tuple(float(grid.spacings[m][cell[d - 1 - m]]) for m in range(d))
        stencil = StretchedStencil(d, delta, gamma)
        q_u = assemble_symbol(sch, stencil, WaveProbe(k, theta)).Q @ u
        res = [np.linalg.norm(f[cell].ravel() / phase[cell] - q_u) for f in (weighted, plain)]
        worst_weighted = max(worst_weighted, res[0] / np.linalg.norm(q_u))
        best_plain = min(best_plain, res[1] / np.linalg.norm(q_u))
    return worst_weighted, best_plain


class TestWidthWeightedValues:
    @pytest.mark.parametrize("p", [1, 3, 4])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("kind", ["dg", "huynh"])
    @pytest.mark.parametrize("gamma", [0.8, 1.2, 1.5])
    def test_1d_line(self, p, alpha, kind, gamma):
        grid = PeriodicGrid.mirrored_geometric(16, gamma, 0.7)
        for k in (0.3, 1.7, 4.0):
            weighted, plain = bloch_residuals(
                scheme(p, alpha, 1, kind), grid, (gamma,), 0.0, k, [(j,) for j in range(1, 7)]
            )
            assert weighted < 1e-13
            assert plain > 0.03

    @pytest.mark.parametrize("p", [1, 3, 4])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("kind", ["dg", "huynh"])
    def test_2d_tensor_grid(self, p, alpha, kind):
        gamma = (1.2, 0.8)
        grid = PeriodicGrid.explicit(
            PeriodicGrid.mirrored_geometric(12, gamma[0], 0.7).spacings[0],
            PeriodicGrid.mirrored_geometric(12, gamma[1], 0.5).spacings[0],
        )
        cells = [(j, i) for j in range(1, 5) for i in range(1, 5)]  # (y, x)
        sch = scheme(p, alpha, 2, kind)
        for k in (0.3, 1.7, 4.0):
            weighted, plain = bloch_residuals(sch, grid, gamma, 0.5, k, cells)
            assert weighted < 1e-13
            assert plain > 0.03


def exact_frequency(stencil, theta, phi, k):
    a = direction_cosines(theta, phi, stencil.d)
    return sum(
        k * a[m] ** 2 / stencil.gamma[m] + 1j * a[m] * np.log(stencil.gamma[m]) / stencil.delta[m]
        for m in range(stencil.d)
    )


STRETCHED_CASES = [
    (StretchedStencil(1, (1.0,), (1.25,)), 0.0, 0.0),
    (StretchedStencil(1, (1.0,), (0.8,)), 0.0, 0.0),
    (StretchedStencil(2, (1.0, 0.5), (1.3, 0.8)), 0.6, 0.0),
    (StretchedStencil(3, (1.0, 0.7, 0.5), (1.2, 0.9, 1.1)), 0.5, 0.4),
]


class TestExactFrozenValue:
    # relative error bound at k_hat = 0.05 by order: 2.1e-5, 1.7e-8 and
    # 1.3e-11 measured (Huynh g2; DG is smaller)
    BOUND = {2: 5e-5, 3: 5e-8, 4: 5e-11}

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["dg", "huynh"])
    @pytest.mark.parametrize(
        "stencil, theta, phi", STRETCHED_CASES, ids=["1d-expand", "1d-contract", "2d", "3d"]
    )
    def test_upwind_mode_tends_to_omega_ex(self, p, kind, stencil, theta, phi):
        sweep = dispersion_sweep(scheme(p, 1.0, stencil.d, kind), stencil, theta, phi, [0.05])
        exact = exact_frequency(stencil, theta, phi, sweep.k[0])
        assert abs(sweep.omega_physical[0] - exact) < self.BOUND[p] * abs(exact)
        if kind == "dg" and p == 4:
            assert abs(sweep.omega_physical[0] - exact) < 1e-12 * abs(exact)


def uniform_symbol_at(sch, delta, a, k):
    """The uniform (gamma = 1) direction symbol at a complex wavenumber k,
    from the scheme's blocks."""
    blocks = build_blocks(sch)
    return -a * (2.0 / delta) * (
        blocks.c_minus * np.exp(-1j * k * a * delta)
        + blocks.c_zero
        + blocks.c_plus * np.exp(1j * k * a * delta)
    )


class TestStretchingIsAComplexWavenumber:
    """Identity A: at alpha = 1 the symbol has no downstream block, so the x
    symbol on a stretched stencil equals the uniform one at the complex
    wavenumber kt = k/gamma + i ln(gamma)/(a delta). The central block keeps
    the real phase e^{i k a delta}, so the identity fails for alpha < 1."""

    THETA = 0.6  # a = cos 0.6

    def largest_difference(self, p, kind, alpha, gamma, delta):
        sch = scheme(p, alpha, 2, kind)
        stencil = StretchedStencil(2, (delta, 1.0), (gamma, 1.0))
        a = np.cos(self.THETA)
        ks = np.array([0.3, 1.7, 4.0])
        stretched = DirectionSymbols(sch, stencil, self.THETA, 0.0).evaluate(ks)[:, 0]
        worst = 0.0
        for k, q in zip(ks, stretched):
            k_tilde = k / gamma + 1j * np.log(gamma) / (a * delta)
            diff = np.abs(q - uniform_symbol_at(sch, delta, a, k_tilde)).max()
            worst = max(worst, diff / np.abs(q).max())
        return worst

    @pytest.mark.parametrize("delta", [0.7, 1.3])
    @pytest.mark.parametrize("gamma", [0.8, 1.25])
    @pytest.mark.parametrize("p", [1, 3, 5])
    @pytest.mark.parametrize("kind", ["dg", "huynh"])
    def test_upwind_symbol_is_uniform_symbol_at_complex_k(self, kind, p, gamma, delta):
        assert self.largest_difference(p, kind, 1.0, gamma, delta) < 1e-13

    @pytest.mark.parametrize("kind", ["dg", "huynh"])
    def test_fails_with_a_downstream_block(self, kind):
        # measured 1.02 at alpha = 0.5
        assert self.largest_difference(3, kind, 0.5, 1.25, 0.7) > 0.1


class TestExpandingCellsGrow:
    """The physical mode of a sweep grows where the cells expand, as
    omega_ex does. These sweeps once anchored on the mode with omega/k
    nearest 1, which on a stretched stencil is not the physical one."""

    GAMMA_3D = StretchedStencil.stretched((0.8, 1.25, 1.1))
    ANGLE = np.radians(45)
    K_HAT = np.array([0.05, 0.1, 0.15, 0.2])

    def test_3d_upwind_dg_follows_omega_ex(self):
        # Im omega_hat read +0.000554, then -0.000815 to -0.004958 (decay)
        sweep = dispersion_sweep(
            scheme(4, 1.0, 3, "dg"), self.GAMMA_3D, self.ANGLE, self.ANGLE, self.K_HAT
        )
        exact = exact_frequency(self.GAMMA_3D, self.ANGLE, self.ANGLE, sweep.k) * sweep.scale
        assert np.abs(sweep.omega_hat_physical - exact).max() < 1e-6
        assert (exact.imag > 0).all()

    def test_3d_upwind_dg_fully_discrete_grows(self):
        sweep = fully_discrete_sweep(
            scheme(4, 1.0, 3, "dg"), self.GAMMA_3D, RK44, 0.02, self.ANGLE, self.ANGLE, self.K_HAT
        )
        assert (sweep.omega_hat_physical.imag > 0).all()

    def test_2d_g2_partly_upwind_grows(self):
        # read -0.003256; omega_ex gives +0.068161
        stencil, theta = StretchedStencil(2, (1.0, 0.5), (1.3, 0.8)), np.radians(10)
        sweep = dispersion_sweep(scheme(1, 0.75, 2, "huynh"), stencil, theta, 0.0, [0.05])
        assert sweep.omega_hat_physical[0].imag > 0
        exact = exact_frequency(stencil, theta, 0.0, sweep.k[0]) * sweep.scale
        assert exact.imag > 0


def pade_exp(p):
    """The [p/(p+1)] Pade approximant of e^z, with coefficients from factorials."""
    n, m = p, p + 1

    def coefficient(j, degree):
        return factorial(n + m - j) * factorial(degree) / (
            factorial(n + m) * factorial(j) * factorial(degree - j)
        )

    num = [coefficient(j, n) for j in range(n + 1)]
    den = [coefficient(j, m) * (-1) ** j for j in range(m + 1)]
    return lambda z: np.polyval(num[::-1], z) / np.polyval(den[::-1], z)


class TestUpwindDgIsPade:
    """Identity B: at alpha = 1 the DG symbol couples only to the upstream
    cell, through the rank-one block C_minus, so by the matrix determinant
    lemma each eigenvalue lambda of Q_m satisfies e^{i k a delta/gamma}/gamma
    = R(-lambda delta/a), R the [p/(p+1)] Pade approximant of e^z (Lesaint &
    Raviart 1974; Ainsworth, JCP 2004). R shares no code with the basis.

    The exact value lambda_ex = (a/delta) z_ex, z_ex = ln(gamma) - i k a
    delta/gamma, solves the relation with e^z itself, so the Pade remainder
    gives the physical error lambda - lambda_ex ~ (a/delta) (-1)^p C_p
    z_ex^{2p+2}, C_p = p!(p+1)!/((2p+1)!(2p+2)!). At gamma != 1, z_ex does
    not vanish as k -> 0, so the error tends to a constant there."""

    # 1D gives a = 1; 2D at theta = 0.6 gives a = cos 0.6 and sin 0.6
    CONFIGS = [(1, 0.0), (2, 0.6)]
    KS = np.linspace(0.1, 6.0, 12)

    @pytest.mark.parametrize("delta", [0.7, 1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.8, 1.0, 1.25, 1.5])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_every_eigenvalue_satisfies_the_pade_relation(self, p, gamma, delta):
        # measured at most 2.4e-14
        pade = pade_exp(p)
        for d, theta in self.CONFIGS:
            stencil = StretchedStencil(d, (delta,) * d, (gamma,) * d)
            symbols = DirectionSymbols(scheme(p, 1.0, d, "dg"), stencil, theta, 0.0)
            lam = np.linalg.eigvals(symbols.evaluate(self.KS))
            for col, m in enumerate(symbols.active):
                a = symbols.velocity[m]
                target = (np.exp(1j * self.KS * a * delta / gamma) / gamma)[:, None]
                residual = np.abs(pade(-lam[:, col] * delta / a) - target) / np.abs(target)
                assert residual.max() < 1e-12, (d, a)

    @pytest.mark.parametrize("gamma", [1.0, 1.25, 0.8])
    @pytest.mark.parametrize(
        "p, k", [(1, 0.2), (1, 0.4), (2, 0.2), (2, 0.4), (3, 0.2), (3, 0.4), (4, 0.4), (4, 0.6)]
    )
    def test_error_constant_predicts_the_physical_error(self, p, k, gamma):
        # measured misfit 2.5-15.4%, the size of the next term; at p = 4,
        # k = 0.2 and at p = 5 the predicted error is below round-off
        a, delta = 1.0, 1.0
        stencil = StretchedStencil(1, (delta,), (gamma,))
        symbols = DirectionSymbols(scheme(p, 1.0, 1, "dg"), stencil, 0.0, 0.0)
        lam = np.linalg.eigvals(symbols.evaluate(np.array([k])))[0, 0]
        z_ex = np.log(gamma) - 1j * k * a * delta / gamma
        lam_ex = a * z_ex / delta
        physical = lam[np.argmin(np.abs(lam - lam_ex))]
        c_p = factorial(p) * factorial(p + 1) / (factorial(2 * p + 1) * factorial(2 * p + 2))
        predicted = (a / delta) * (-1) ** p * c_p * z_ex ** (2 * p + 2)
        assert abs((physical - lam_ex) - predicted) < 0.2 * abs(predicted)
