"""Interface-coupling blocks and the semi-discrete Bloch symbol.

Assembles, for a plane wave travelling at a prescribed incidence through a
3^d rectilinear stencil of stretched cells, the matrix Q governing the
evolution of the nodal values in the central cell:

    du/dt = Q u

Each direction contributes three blocks: coupling to the upstream
neighbour, the in-cell term, and coupling to the downstream neighbour.
Metric factors are per-direction and per-cell (the x-direction terms are
scaled by the x-spacing of the cell the block reads from, and likewise in
y and z); phase factors use the upstream spacing for the upstream block
and the central spacing for the downstream one.

Pure functions over immutable inputs; symbols for different (k, theta,
phi) may be assembled concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import cos, isfinite, sin

import numpy as np

from .basis import (
    GAUSS_LEGENDRE,
    BasisOperators,
    CorrectionFamily,
    build_operators,
    make_points,
)

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SchemeConfig:
    """Flux reconstruction scheme: order, correction family, upwinding, dims.

    alpha = 1 is fully upwind, alpha = 0.5 central; values outside
    [0.5, 1] are rejected.
    """

    p: int
    family: CorrectionFamily
    alpha: float
    d: int = 1
    rule: str = GAUSS_LEGENDRE

    def __post_init__(self):
        if not 0.5 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0.5, 1], got {self.alpha}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimensionality must be 1, 2 or 3, got {self.d}")
        if self.family.order != self.p:
            raise ValueError(
                f"family order {self.family.order} does not match p = {self.p}"
            )


@cache
def operators_for(scheme: SchemeConfig) -> BasisOperators:
    """The scheme's 1D basis operators at its solution points.

    Built once per scheme: a repeated call (or a value-equal scheme)
    returns the same object, whose arrays are read-only.
    """
    ops = build_operators(make_points(scheme.p, scheme.rule), scheme.family)
    for arr in vars(ops).values():
        arr.setflags(write=False)
    return ops


@dataclass(frozen=True)
class StretchedStencil:
    """Per-direction spacings and geometric expansion factors.

    The central cell has width delta[m] in direction m; the upstream
    neighbour has width delta[m]/gamma[m] and the downstream neighbour
    gamma[m]*delta[m]. gamma = 1 everywhere reproduces the uniform grid.
    At gamma != 1 the symbol acts on width-weighted values
    (:class:`DirectionSymbols`), and at resolved k the upwind physical mode
    tends to omega_ex = k sum_m a_m^2/gamma_m + i sum_m a_m ln(gamma_m)/delta_m.
    So omega_hat/k_hat = 0.8 at gamma = 1.25 in 1D is 1/gamma, not a 20%
    dispersion error.
    """

    d: int
    delta: tuple[float, ...]
    gamma: tuple[float, ...]

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimensionality must be 1, 2 or 3, got {self.d}")
        if len(self.delta) != self.d or len(self.gamma) != self.d:
            raise ValueError("delta and gamma must have one entry per direction")
        if any(dx <= 0 or not isfinite(dx) for dx in self.delta):
            raise ValueError(f"spacings must be finite and > 0, got {self.delta}")
        if any(g <= 0 or not isfinite(g) for g in self.gamma):
            raise ValueError(f"expansion factors must be finite and > 0, got {self.gamma}")

    @classmethod
    def uniform(cls, d: int, delta: float = 1.0) -> "StretchedStencil":
        return cls(d, (delta,) * d, (1.0,) * d)

    @classmethod
    def stretched(
        cls,
        gamma,
        delta=None,
    ) -> "StretchedStencil":
        gamma = tuple(float(g) for g in np.atleast_1d(gamma))
        if delta is None:
            delta = (1.0,) * len(gamma)
        delta = tuple(float(dx) for dx in np.atleast_1d(delta))
        return cls(len(gamma), delta, gamma)


@dataclass(frozen=True)
class WaveProbe:
    """Plane-wave probe: wavenumber and incidence angles (radians).

    Typical use has k > 0; any finite k (including 0 and negative values,
    handy for conjugate-symmetry checks) is accepted. Angles are limited
    to the first quadrant so all velocity components are >= 0.
    """

    k: float
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not isfinite(self.k):
            raise ValueError(f"wavenumber must be finite, got {self.k}")
        if not 0.0 <= self.theta <= np.pi / 2:
            raise ValueError("theta must lie in [0, pi/2]")
        if not 0.0 <= self.phi <= np.pi / 2:
            raise ValueError("phi must lie in [0, pi/2]")

    def velocity(self, d: int) -> np.ndarray:
        """Unit velocity [cos phi cos theta, cos phi sin theta, sin phi][:d].

        d < 3 requires phi = 0 (1D also theta = 0). |a_m| <= machine epsilon,
        such as cos(pi/2), is set to exactly 0: the wave does not move in m.
        """
        if d < 3 and self.phi != 0.0:
            raise ValueError("phi is only meaningful in 3D")
        if d == 1 and self.theta != 0.0:
            raise ValueError("theta = 0 is mandatory in 1D")
        cos_phi = cos(self.phi)
        a = (cos_phi * cos(self.theta), cos_phi * sin(self.theta), sin(self.phi))[:d]
        return np.array([a_m if abs(a_m) > _EPS else 0.0 for a_m in a])


def direction_cosines(theta: float, phi: float, d: int) -> np.ndarray:
    return WaveProbe(k=1.0, theta=theta, phi=phi).velocity(d)


def lift_to_dimension(mat: np.ndarray, direction: int, d: int) -> np.ndarray:
    """Tensor-lift a 1D nodal operator so it acts along one direction.

    Nodal values are flattened lexicographically with the xi index fastest,
    then eta, then zeta; the lift is the Kronecker product with identities
    on the other directions.
    """
    n = mat.shape[0]
    eye = np.eye(n)
    out = np.ones((1, 1))
    for axis in range(d - 1, -1, -1):
        out = np.kron(out, mat if axis == direction else eye)
    return out


@dataclass(frozen=True)
class FrBlocks:
    """The three 1D interface-coupling blocks of a scheme, (p+1)x(p+1) each.

    c_minus couples to the upstream neighbour, c_plus to the downstream
    one, c_zero is the in-cell operator. They depend on the scheme alone:
    :func:`build_blocks` forms them once per scheme.
    """

    c_minus: np.ndarray
    c_zero: np.ndarray
    c_plus: np.ndarray


@cache
def build_blocks(scheme: SchemeConfig) -> FrBlocks:
    """The scheme's three 1D coupling blocks, from :func:`operators_for`.

    Built once per scheme: a repeated call (or a value-equal scheme)
    returns the same object, whose arrays are read-only.
    """
    ops, a = operators_for(scheme), scheme.alpha
    c_minus = a * np.outer(ops.hL, ops.lR)
    c_plus = (1.0 - a) * np.outer(ops.hR, ops.lL)
    c_zero = ops.D - a * np.outer(ops.hL, ops.lL) - (1.0 - a) * np.outer(ops.hR, ops.lR)
    for arr in (c_minus, c_zero, c_plus):
        arr.setflags(write=False)
    return FrBlocks(c_minus, c_zero, c_plus)


@dataclass(frozen=True)
class SemiDiscreteSymbol:
    """The Bloch symbol Q with the configuration that produced it."""

    Q: np.ndarray
    probe: WaveProbe
    stencil: StretchedStencil
    scheme: SchemeConfig


class DirectionSymbols:
    """The per-direction symbols Q_m of one configuration, ready for any k.

    Per direction m with velocity component a_m and central spacing
    delta_m,

        Q_m(k) = -a_m * [ (2/d_up) C_minus e^{-i k a_m d_up}
                        + (2/delta_m) C_zero
                        + (2/d_dn) C_plus e^{+i k a_m delta_m} ]

    with d_up = delta_m/gamma_m the upstream width and d_dn =
    gamma_m*delta_m the downstream width. Upstream and downstream blocks
    carry their own cells' metric factors, so Q_m acts on width-weighted
    values (nodal value times cell width): on a line of the time-domain
    solver, W L W^-1 with W the cell widths equals Q_m on a Bloch vector at
    every cell of width delta_m whose neighbours are d_up and d_dn wide.
    A constant-amplitude wave has width-weighted values that grow by
    gamma_m per cell, hence the ln(gamma_m) in the omega_ex of
    :class:`StretchedStencil`. The blocks C are the scheme's own, from
    :func:`build_blocks` (built once per scheme).

    With upwind fluxes C_plus = 0, so Q_m(k; delta_m, gamma_m) equals the
    uniform Q_m(kt; delta_m, 1) at kt = k/gamma_m + i ln(gamma_m)/(a_m
    delta_m): expansion (gamma_m > 1) lifts kt into the upper half-plane,
    hence growth. For alpha < 1 C_plus keeps a real phase and this fails.

    Factoring out the speed, Q_m(k) = a_m S_m(k a_m) with the unit-speed
    symbol

        S_m(q) = -[ (2/d_up) C_minus e^{-i q d_up} + (2/delta_m) C_zero
                  + (2/d_dn) C_plus e^{+i q delta_m} ],

    which depends on the scheme, delta_m and gamma_m alone, not on the
    angle. So the eigenvalues of Q_m are a_m times those of S_m at q = k
    a_m, with the same eigenvectors; :meth:`unit` evaluates S_m.

    Building one runs every check that does not depend on k (scheme and
    stencil dimensions, and the angles through :class:`WaveProbe`), finds
    the directions the wave moves in (``active``: a_m != 0, with |a_m| at
    or below machine epsilon set to exactly 0) and forms their
    metric-scaled blocks once.
    :meth:`evaluate` and :meth:`unit` then cost one broadcast expression at
    any k. :meth:`evaluate` scales the blocks first and keeps the operation
    order of the formula for Q_m above, so each entry of the dense oracles
    is bit-identical to the unfactored expression.
    """

    def __init__(
        self,
        scheme: SchemeConfig,
        stencil: StretchedStencil,
        theta: float,
        phi: float,
    ):
        if scheme.d != stencil.d:
            raise ValueError(
                f"dimension mismatch: scheme d={scheme.d}, stencil d={stencil.d}"
            )
        self.scheme, self.stencil, self.theta, self.phi = scheme, stencil, theta, phi
        blocks = build_blocks(scheme)
        self.velocity = direction_cosines(theta, phi, scheme.d)
        self.active = np.flatnonzero(self.velocity)
        # axes: direction, then the (p+1)x(p+1) block
        self._a = self.velocity[self.active][:, None, None]
        d_c = np.array(stencil.delta)[self.active][:, None, None]
        gamma = np.array(stencil.gamma)[self.active][:, None, None]
        self._d_up, self._d_c = d_c / gamma, d_c
        self._c_minus = (2.0 / self._d_up) * blocks.c_minus
        self._c_zero = (2.0 / d_c) * blocks.c_zero
        self._c_plus = (2.0 / (d_c * gamma)) * blocks.c_plus

    def unit(self, q: np.ndarray) -> np.ndarray:
        """S_m(q) of the active directions, shape (n_q, len(active), p+1, p+1).

        ``q`` holds one phase wavenumber q_m = k a_m per active direction,
        shape (n_q, len(active)); Q_m(k) = a_m S_m(k a_m). A non-finite
        entry raises ``ValueError``.
        """
        q = np.asarray(q, dtype=float)[..., None, None]
        s = -(
            self._c_minus * np.exp(-1j * q * self._d_up)
            + self._c_zero
            + self._c_plus * np.exp(1j * q * self._d_c)
        )
        if not np.isfinite(s).all():
            raise ValueError("symbol assembly produced non-finite entries")
        return s

    def evaluate(self, ks: np.ndarray) -> np.ndarray:
        """Q_m(k) of the active directions, shape (n_k, len(active), p+1, p+1).

        A non-finite k or a non-finite entry raises ``ValueError``.
        """
        ks = np.asarray(ks, dtype=float)
        if not np.isfinite(ks).all():
            raise ValueError(f"wavenumbers must be finite, got {ks[~np.isfinite(ks)]}")
        k, a = ks[:, None, None, None], self._a
        q = -a * (
            self._c_minus * np.exp(-1j * k * a * self._d_up)
            + self._c_zero
            + self._c_plus * np.exp(1j * k * a * self._d_c)
        )
        if not np.isfinite(q).all():
            raise ValueError("symbol assembly produced non-finite entries")
        return q


def assemble_symbol(
    scheme: SchemeConfig,
    stencil: StretchedStencil,
    probe: WaveProbe,
) -> SemiDiscreteSymbol:
    """Assemble the dense Q for one (k, theta, phi) on the given stencil.

    Q is the Kronecker sum of the per-direction symbols Q_m of
    :class:`DirectionSymbols`, each tensor-lifted to act along its own
    direction on the flattened (p+1)^d vector; a direction with a_m = 0
    adds nothing. The coupling blocks come from the scheme
    (:func:`build_blocks`, built once per scheme).
    """
    symbols = DirectionSymbols(scheme, stencil, probe.theta, probe.phi)
    q = sum(
        lift_to_dimension(q_m, m, scheme.d)
        for m, q_m in zip(symbols.active, symbols.evaluate([probe.k])[0])
    )
    return SemiDiscreteSymbol(Q=q, probe=probe, stencil=stencil, scheme=scheme)


def symbol_for(
    scheme: SchemeConfig,
    stencil: StretchedStencil,
    probe: WaveProbe,
) -> SemiDiscreteSymbol:
    """The dense Q of one probe: :func:`assemble_symbol`, whose blocks are
    the scheme's own (built once per scheme)."""
    return assemble_symbol(scheme, stencil, probe)
