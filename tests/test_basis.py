"""Basis-level tests: point sets, derivative matrices, correction functions.

Expected values come from independent constructions evaluated inside the
tests (Newton root-finding on the raw Legendre recurrence, Radau
polynomials built from the same recurrence), never from the code under
test.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg

from frspectra.basis import (
    CorrectionFamily,
    build_operators,
    correction_derivatives,
    correction_legendre_coeffs,
    iota_huynh,
    iota_min,
    lagrange_derivative_matrix,
    lagrange_values,
    make_family,
    make_points,
)


def legendre_recurrence(n, x):
    """P_n(x) and P_n'(x) via the raw three-term recurrence (test oracle)."""
    p_prev, p = np.ones_like(x), np.asarray(x, dtype=float)
    if n == 0:
        return p_prev, np.zeros_like(p_prev)
    dp_prev, dp = np.zeros_like(p_prev), np.ones_like(p_prev)
    for m in range(1, n):
        p_next = ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
        dp_next = ((2 * m + 1) * (p + x * dp) - m * dp_prev) / (m + 1)
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
    return p, dp


def gauss_nodes_newton(n):
    """Roots of P_n by Newton iteration from the cosine initial guess."""
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (i - 0.25) / (n + 0.5))
    for _ in range(60):
        p, dp = legendre_recurrence(n, x)
        dx = p / dp
        x = x - dx
        if np.abs(dx).max() < 1e-15:
            break
    return np.sort(x)


class TestPointSets:
    def test_two_point_gauss(self):
        pts = make_points(1)
        assert np.allclose(pts.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)

    def test_midpoint(self):
        pts = make_points(0)
        assert pts.nodes.tolist() == [0.0]
        assert pts.weights.tolist() == [2.0]

    def test_gauss_p4_against_newton_oracle(self):
        pts = make_points(4)
        assert np.abs(pts.nodes - gauss_nodes_newton(5)).max() < 1e-12

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            make_points(-1)

    def test_repeated_call_shares_one_read_only_set(self):
        pts = make_points(3)
        assert make_points(3) is pts
        assert not pts.nodes.flags.writeable and not pts.weights.flags.writeable
        for _ in range(2):  # a rejected input is not cached
            with pytest.raises(ValueError):
                make_points(-1)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_nodes_symmetric_increasing(self, p):
        pts = make_points(p)
        assert np.all(np.diff(pts.nodes) > 0)
        assert np.abs(pts.nodes + pts.nodes[::-1]).max() == 0.0
        assert pts.nodes.min() >= -1.0 and pts.nodes.max() <= 1.0

    @pytest.mark.parametrize("p", range(0, 8))
    def test_weights_integrate_monomials(self, p):
        pts = make_points(p)
        for deg in range(0, 2 * p + 2):
            exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
            assert abs(pts.weights @ pts.nodes**deg - exact) < 1e-13


class TestDerivativeMatrix:
    def test_linear_basis_slopes(self):
        pts = make_points(1)  # nodes -1/sqrt(3), 1/sqrt(3)
        d = lagrange_derivative_matrix(pts)
        half_root3 = np.sqrt(3) / 2
        assert np.allclose(d, [[-half_root3, half_root3]] * 2, atol=1e-15)

    @pytest.mark.parametrize("p", range(0, 9))
    def test_annihilates_constants(self, p):
        d = lagrange_derivative_matrix(make_points(p))
        assert np.abs(d @ np.ones(p + 1)).max() < 1e-12

    def test_cubic_monomial(self):
        pts = make_points(3)
        d = lagrange_derivative_matrix(pts)
        assert np.abs(d @ pts.nodes**3 - 3 * pts.nodes**2).max() < 1e-12

    @given(p=st.integers(1, 8), deg=st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_exact_on_polynomials_up_to_p(self, p, deg):
        deg = min(deg, p)
        pts = make_points(p)
        d = lagrange_derivative_matrix(pts)
        derivative = deg * pts.nodes ** (deg - 1) if deg else np.zeros(p + 1)
        assert np.abs(d @ pts.nodes**deg - derivative).max() < 1e-11

    def test_endpoint_values_partition_of_unity(self):
        for p in range(0, 8):
            pts = make_points(p)
            assert abs(lagrange_values(pts, -1.0).sum() - 1.0) < 1e-12
            assert abs(lagrange_values(pts, 1.0).sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("p", range(0, 6))
    def test_values_at_a_node_are_the_unit_vector(self, p):
        pts = make_points(p)
        for i, x in enumerate(pts.nodes):
            assert lagrange_values(pts, x).tolist() == np.eye(p + 1)[i].tolist()


def right_radau_values(p, x):
    """Degree p+1 right-Radau polynomial from the recurrence (test oracle)."""
    lp, _ = legendre_recurrence(p, x)
    lp1, _ = legendre_recurrence(p + 1, x)
    return 0.5 * (-1.0) ** p * (lp - lp1)


class TestCorrectionFunctions:
    @pytest.mark.parametrize("p", range(0, 9))
    def test_endpoint_conditions_all_families(self, p):
        families = [CorrectionFamily.dg(p)]
        if p >= 1:
            families.append(CorrectionFamily.huynh_g2(p))
            families.append(CorrectionFamily.osfr(p, 0.5 * iota_huynh(p)))
        for fam in families:
            c_left, c_right = correction_legendre_coeffs(fam)
            assert abs(npleg.legval(-1.0, c_left) - 1.0) < 1e-12
            assert abs(npleg.legval(1.0, c_left)) < 1e-12
            assert abs(npleg.legval(1.0, c_right) - 1.0) < 1e-12
            assert abs(npleg.legval(-1.0, c_right)) < 1e-12

    def test_dg_p2_is_right_radau(self):
        fam = CorrectionFamily.dg(2)
        probes = np.array([-0.9, -0.3, 0.1, 0.6, 0.95])
        c_left, _ = correction_legendre_coeffs(fam)
        assert np.abs(npleg.legval(probes, c_left) - right_radau_values(2, probes)).max() < 1e-12

    @pytest.mark.parametrize("p", range(1, 7))
    def test_huynh_equals_osfr_at_iota_hu(self, p):
        pts = make_points(p)
        h_left, h_right = correction_derivatives(CorrectionFamily.huynh_g2(p), pts)
        o_left, o_right = correction_derivatives(
            CorrectionFamily.osfr(p, iota_huynh(p)), pts
        )
        assert np.abs(h_left - o_left).max() < 1e-12
        assert np.abs(h_right - o_right).max() < 1e-12

    def test_dg_equals_osfr_zero(self):
        pts = make_points(3)
        d_left, _ = correction_derivatives(CorrectionFamily.dg(3), pts)
        o_left, _ = correction_derivatives(CorrectionFamily.osfr(3, 0.0), pts)
        assert np.abs(d_left - o_left).max() < 1e-12

    @given(
        p=st.integers(1, 8),
        frac=st.floats(0.01, 0.99),
    )
    @settings(max_examples=30, deadline=None)
    def test_mirror_symmetry_on_symmetric_nodes(self, p, frac):
        # h_R'(xi) = -h_L'(-xi), so on symmetric nodes hR[i] = -hL[p-i]
        iota = iota_min(p) * (1 - frac) + frac * 2 * iota_huynh(p)
        fam = CorrectionFamily.osfr(p, iota)
        pts = make_points(p)
        h_left, h_right = correction_derivatives(fam, pts)
        assert np.abs(h_right - (-h_left[::-1])).max() < 1e-11

    def test_rejects_iota_at_or_below_bound(self):
        with pytest.raises(ValueError):
            CorrectionFamily.osfr(3, iota_min(3))
        with pytest.raises(ValueError):
            CorrectionFamily.osfr(3, 2 * iota_min(3))

    def test_p0_only_dg(self):
        with pytest.raises(ValueError):
            CorrectionFamily.huynh_g2(0)
        with pytest.raises(ValueError):
            CorrectionFamily.osfr(0, 0.1)
        fam = CorrectionFamily.dg(0)
        pts = make_points(0)
        h_left, h_right = correction_derivatives(fam, pts)
        assert np.allclose(h_left, [-0.5]) and np.allclose(h_right, [0.5])

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            correction_derivatives(CorrectionFamily.dg(2), make_points(3))

    def test_make_family_names(self):
        assert make_family("dg", 3).iota == 0.0
        assert make_family("huynh-g2", 3).iota == iota_huynh(3)
        assert make_family("osfr", 3, 0.1).iota == 0.1
        with pytest.raises(ValueError):
            make_family("osfr", 3)
        with pytest.raises(ValueError):
            make_family("radau", 3)


class TestBuildOperators:
    def test_shapes_and_consistency(self):
        pts = make_points(4)
        ops = build_operators(pts, CorrectionFamily.huynh_g2(4))
        assert ops.D.shape == (5, 5)
        for v in (ops.lL, ops.lR, ops.hL, ops.hR):
            assert v.shape == (5,)
        # correction derivative vectors integrate to the endpoint jump:
        # integral of h' over [-1,1] is h(1) - h(-1) = -1 for the left one
        assert abs(pts.weights @ ops.hL + 1.0) < 1e-12
        assert abs(pts.weights @ ops.hR - 1.0) < 1e-12
