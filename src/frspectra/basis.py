"""Polynomial building blocks on the reference interval [-1, 1].

Provides the Gauss-Legendre solution points, Lagrange interpolation in
barycentric form (stable at high order; no monomial coefficients
anywhere), and the one-parameter family of energy-stable correction
functions together with the endpoint-derivative vectors needed to build
flux reconstruction operators.

All objects are immutable after construction and safe to share between
threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial, isfinite

import numpy as np
from numpy.polynomial import legendre as npleg

DG = "dg"
HUYNH_G2 = "huynh-g2"
OSFR = "osfr"

@dataclass(frozen=True)
class PointSet:
    """Gauss-Legendre solution points on [-1, 1].

    Attributes:
        order: polynomial order p; there are p + 1 nodes.
        nodes: the p + 1 interior nodes, strictly increasing and symmetric about 0.
        weights: quadrature weights matching ``nodes``.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@cache
def make_points(p: int) -> PointSet:
    """The p + 1 Gauss-Legendre points of order ``p`` >= 0.

    Cached: a repeated call returns the same point set, with read-only arrays.
    """
    if p < 0:
        raise ValueError(f"polynomial order must be >= 0, got {p}")
    nodes, weights = npleg.leggauss(p + 1)
    # enforce exact symmetry about the origin
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return PointSet(order=p, nodes=nodes, weights=weights)


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / diff.prod(axis=1)


def lagrange_values(pts: PointSet, x: float) -> np.ndarray:
    """Values of all p + 1 Lagrange basis polynomials at a single point."""
    nodes = pts.nodes
    exact = np.nonzero(nodes == x)[0]
    if exact.size:
        out = np.zeros(nodes.size)
        out[exact[0]] = 1.0
        return out
    w = barycentric_weights(nodes)
    terms = w / (x - nodes)
    return terms / terms.sum()


def lagrange_derivative_matrix(pts: PointSet) -> np.ndarray:
    """Differentiation matrix D with D[i, j] = dl_j/dxi at node i.

    Built from barycentric weights; the diagonal is the negated row sum,
    so constants are annihilated exactly and polynomials of degree <= p
    are differentiated exactly at the nodes.
    """
    nodes = pts.nodes
    w = barycentric_weights(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def _legendre_scale(p: int) -> int:
    # (a_p p!)^2 with a_p = (2p)!/(2^p (p!)^2); the product is the
    # integer double factorial (2p-1)!! squared
    q = factorial(2 * p) // (2**p * factorial(p))
    return q * q


def iota_huynh(p: int) -> float:
    """Family parameter recovering the Huynh g2 correction at order p >= 1."""
    if p < 1:
        raise ValueError("Huynh g2 correction needs p >= 1")
    return 2.0 * (p + 1) / ((2 * p + 1) * p * _legendre_scale(p))


def iota_min(p: int) -> float:
    """Lower bound of the stable family range (excluded: singular there)."""
    return -2.0 / ((2 * p + 1) * _legendre_scale(p))


@dataclass(frozen=True)
class CorrectionFamily:
    """A member of the one-parameter correction function family.

    ``iota`` is the resolved family parameter itself (no hidden rescaling):
    0 recovers nodal DG and :func:`iota_huynh` recovers Huynh g2. Values
    at or below :func:`iota_min` are rejected because the construction is
    singular at the bound and unstable below it.
    """

    kind: str
    order: int
    iota: float

    @classmethod
    def dg(cls, p: int) -> "CorrectionFamily":
        if p < 0:
            raise ValueError("order must be >= 0")
        return cls(DG, p, 0.0)

    @classmethod
    def huynh_g2(cls, p: int) -> "CorrectionFamily":
        return cls(HUYNH_G2, p, iota_huynh(p))

    @classmethod
    def osfr(cls, p: int, iota: float) -> "CorrectionFamily":
        if p < 0:
            raise ValueError("order must be >= 0")
        if not isfinite(iota):
            raise ValueError(f"iota must be finite, got {iota}")
        if p == 0 and iota != 0.0:
            raise ValueError("only iota = 0 is defined at p = 0")
        if p >= 1 and iota <= iota_min(p):
            raise ValueError(
                f"iota = {iota} is outside the stable range (> {iota_min(p)})"
            )
        return cls(OSFR, p, float(iota))


def make_family(kind: str, p: int, iota: float | None = None) -> CorrectionFamily:
    """Construct a correction family from its name."""
    if kind == DG:
        return CorrectionFamily.dg(p)
    if kind == HUYNH_G2:
        return CorrectionFamily.huynh_g2(p)
    if kind == OSFR:
        if iota is None:
            raise ValueError("osfr requires an explicit iota")
        return CorrectionFamily.osfr(p, iota)
    raise ValueError(f"unknown correction family {kind!r}")


def correction_legendre_coeffs(family: CorrectionFamily) -> tuple[np.ndarray, np.ndarray]:
    """Legendre-series coefficients of the left and right correction functions.

    Both are polynomials of degree p + 1 with h_L(-1) = 1, h_L(+1) = 0 and
    the mirror image h_R(xi) = h_L(-xi).
    """
    p, iota = family.order, family.iota
    eta = 0.5 * iota * (2 * p + 1) * _legendre_scale(p)
    sign = -1.0 if p % 2 else 1.0
    c_left = np.zeros(p + 2)
    c_left[p] = 0.5 * sign
    c_left[p + 1] = -0.5 * sign / (1.0 + eta)
    if p >= 1:
        c_left[p - 1] = -0.5 * sign * eta / (1.0 + eta)
    # mirror: L_n(-xi) = (-1)^n L_n(xi)
    c_right = c_left * (-1.0) ** np.arange(p + 2)
    return c_left, c_right


def correction_derivatives(
    family: CorrectionFamily, pts: PointSet
) -> tuple[np.ndarray, np.ndarray]:
    """Sample dh_L/dxi and dh_R/dxi at the solution points."""
    if family.order != pts.order:
        raise ValueError(
            f"family order {family.order} does not match point set order {pts.order}"
        )
    c_left, c_right = correction_legendre_coeffs(family)
    h_left = npleg.legval(pts.nodes, npleg.legder(c_left))
    h_right = npleg.legval(pts.nodes, npleg.legder(c_right))
    return h_left, h_right


@dataclass(frozen=True)
class BasisOperators:
    """1D operators of a flux reconstruction element.

    Attributes:
        D: (p+1)x(p+1) Lagrange derivative matrix at the nodes.
        lL, lR: basis values at xi = -1 and xi = +1.
        hL, hR: correction-function derivatives dh/dxi at the nodes.
    """

    D: np.ndarray
    lL: np.ndarray
    lR: np.ndarray
    hL: np.ndarray
    hR: np.ndarray


def build_operators(pts: PointSet, family: CorrectionFamily) -> BasisOperators:
    h_left, h_right = correction_derivatives(family, pts)
    return BasisOperators(
        D=lagrange_derivative_matrix(pts),
        lL=lagrange_values(pts, -1.0),
        lR=lagrange_values(pts, 1.0),
        hL=h_left,
        hR=h_right,
    )
