"""Block assembly and symbol tests against hand-computed oracles."""
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frspectra import operator as operator_module
from frspectra.advect import AdvectionProblem, PeriodicGrid
from frspectra.basis import CorrectionFamily, build_operators
from frspectra.operator import (
    DirectionSymbols,
    SchemeConfig,
    StretchedStencil,
    WaveProbe,
    assemble_symbol,
    build_blocks,
    lift_to_dimension,
    operators_for,
    symbol_for,
)
from frspectra.spectrum import wavenumber_for


def scheme(p, alpha, d=1, kind="huynh"):
    fam = CorrectionFamily.dg(p) if kind == "dg" else CorrectionFamily.huynh_g2(p)
    return SchemeConfig(p, fam, alpha, d)


def spectrum_of(sym):
    return np.sort_complex(np.linalg.eigvals(sym.Q))


class TestConfigValidation:
    def test_alpha_bounds(self):
        fam = CorrectionFamily.dg(2)
        with pytest.raises(ValueError):
            SchemeConfig(2, fam, 0.4, 1)
        with pytest.raises(ValueError):
            SchemeConfig(2, fam, 1.01, 1)
        SchemeConfig(2, fam, 0.5, 1)
        SchemeConfig(2, fam, 1.0, 1)

    def test_family_order_match(self):
        with pytest.raises(ValueError):
            SchemeConfig(3, CorrectionFamily.dg(2), 1.0, 1)

    def test_stencil_validation(self):
        with pytest.raises(ValueError):
            StretchedStencil(2, (1.0,), (1.0, 1.0))
        with pytest.raises(ValueError):
            StretchedStencil(1, (-1.0,), (1.0,))
        with pytest.raises(ValueError):
            StretchedStencil(1, (1.0,), (0.0,))

    @pytest.mark.parametrize(
        "d, delta, gamma",
        [
            (1, (1e200,), (1e200,)),  # gamma*delta overflows
            (1, (1e-300,), (1e300,)),  # delta/gamma underflows to 0
            (1, (1e300,), (1e-300,)),  # delta/gamma overflows
            (1, (1e-200,), (1e-200,)),  # gamma*delta underflows to 0
            (1, (5e-324,), (2.0,)),  # half the least subnormal rounds to 0
            (2, (1.0, 1e200), (1.0, 1e200)),  # only the second direction
            (3, (1.0, 1.0, 1e-300), (1.0, 1.0, 1e300)),  # only the third
            (2, (np.float64(1e200), 1.0), (np.float64(1e200), 1.0)),  # numpy entries
        ],
        ids=[
            "downstream-overflow",
            "upstream-underflow",
            "upstream-overflow",
            "downstream-underflow",
            "least-subnormal",
            "second-direction",
            "third-direction",
            "numpy-floats",
        ],
    )
    def test_neighbour_widths_must_be_finite_and_positive(self, d, delta, gamma):
        # each entry is valid alone; the widths delta/gamma and gamma*delta of
        # the neighbours are not floats > 0 (a numpy warning fails the test)
        with pytest.raises(ValueError, match="neighbour widths must be finite and > 0"):
            StretchedStencil(d, delta, gamma)

    @pytest.mark.parametrize(
        "delta, gamma",
        [
            (1e150, 1e150),
            (1e-150, 1e150),
            (sys.float_info.max, 1.0),
            (5e-324, 1.0),
        ],
        ids=["downstream-1e300", "upstream-1e-300", "largest-float", "least-subnormal"],
    )
    def test_neighbour_widths_up_to_the_float_range_accepted(self, delta, gamma):
        stencil = StretchedStencil(1, (delta,), (gamma,))
        assert (stencil.delta, stencil.gamma) == ((delta,), (gamma,))

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            WaveProbe(k=np.inf)
        with pytest.raises(ValueError):
            WaveProbe(k=1.0, theta=2.0)
        with pytest.raises(ValueError):
            WaveProbe(k=1.0, theta=0.3).velocity(1)
        for d in (1, 2):
            with pytest.raises(ValueError):
                WaveProbe(1.0, 0.0, 0.3).velocity(d)

    def test_velocity_snaps_round_off_to_zero(self):
        # cos(pi/2) = 6.1e-17: the wave does not move in x, exactly as at theta = 0 in y
        half_pi = np.pi / 2
        assert WaveProbe(1.0, half_pi).velocity(2).tolist() == [0.0, 1.0]
        assert WaveProbe(1.0, 0.0).velocity(2).tolist() == [1.0, 0.0]
        assert WaveProbe(1.0, half_pi, half_pi).velocity(3).tolist() == [0.0, 0.0, 1.0]
        assert WaveProbe(1.0, 0.3, half_pi).velocity(3).tolist() == [0.0, 0.0, 1.0]
        assert WaveProbe(1.0, half_pi, 0.3).velocity(3)[0] == 0.0
        # components above machine epsilon are kept as computed
        tiny = 1e-15
        assert WaveProbe(1.0, tiny).velocity(2).tolist() == [np.cos(tiny), np.sin(tiny)]

    def test_velocity_unit_magnitude(self):
        for d, th, ph in [(1, 0.0, 0.0), (2, 0.7, 0.0), (3, 0.4, 1.1)]:
            v = WaveProbe(k=1.0, theta=th, phi=ph).velocity(d)
            assert abs(v @ v - 1.0) < 1e-14


class TestBlocks:
    def test_outer_product_identities(self):
        sch = scheme(3, 0.7)
        ops = operators_for(sch.family)
        blocks = build_blocks(sch.family, sch.alpha)
        assert np.allclose(blocks.c_minus, 0.7 * np.outer(ops.hL, ops.lR), atol=1e-15)
        assert np.allclose(blocks.c_plus, 0.3 * np.outer(ops.hR, ops.lL), atol=1e-15)
        expected_zero = (
            ops.D - 0.7 * np.outer(ops.hL, ops.lL) - 0.3 * np.outer(ops.hR, ops.lR)
        )
        assert np.allclose(blocks.c_zero, expected_zero, atol=1e-15)

    def test_upwind_kills_downwind_block(self):
        sch = scheme(4, 1.0)
        blocks = build_blocks(sch.family, sch.alpha)
        assert np.all(blocks.c_plus == 0.0)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("p", [0, 1, 3, 5])
    def test_row_sum_identity(self, p, alpha):
        fam = CorrectionFamily.dg(p)
        blocks = build_blocks(fam, alpha)
        total = blocks.c_minus + blocks.c_zero + blocks.c_plus
        assert np.abs(total @ np.ones(p + 1)).max() < 1e-12

    def test_p0_upwind_reduces_to_first_order_fv(self):
        sch = SchemeConfig(0, CorrectionFamily.dg(0), 1.0, 1)
        delta = 0.7
        stencil = StretchedStencil(1, (delta,), (1.0,))
        for k in (0.0, 0.4, 1.3, 3.0):
            sym = symbol_for(sch, stencil, WaveProbe(k=k))
            expected = -(1.0 - np.exp(-1j * k * delta)) / delta
            assert abs(sym.Q[0, 0] - expected) < 1e-14


class TestBuiltOncePerFamily:
    """The basis operators read the correction family alone (its order is p)
    and the coupling blocks the family and alpha, so schemes that differ only
    in alpha or d share one operator set, and in d one block set."""

    def test_schemes_share_what_they_read_and_arrays_are_read_only(self, monkeypatch):
        operators_for.cache_clear()
        build_blocks.cache_clear()
        builds = []

        def spy(*args):
            builds.append(args)
            return build_operators(*args)

        monkeypatch.setattr(operator_module, "build_operators", spy)
        sch = scheme(3, 0.7, 2)
        variants = (sch, replace(sch, alpha=1.0), replace(sch, d=1), replace(sch, alpha=0.5, d=3))
        for variant in variants:
            DirectionSymbols(variant, StretchedStencil.uniform(variant.d), 0.0, 0.0)
        AdvectionProblem(PeriodicGrid.uniform((4, 4)), sch)
        assert len(builds) == 1
        assert build_blocks.cache_info().misses == 3  # alpha 0.7, 1 and 0.5
        ops, blocks = operators_for(sch.family), build_blocks(sch.family, sch.alpha)
        twin = CorrectionFamily.huynh_g2(3)  # a distinct but value-equal family
        assert twin is not sch.family
        assert operators_for(twin) is ops and build_blocks(twin, 0.7) is blocks
        assert len(builds) == 1
        arrays = [ops.D, ops.lL, ops.lR, ops.hL, ops.hR,
                  blocks.c_minus, blocks.c_zero, blocks.c_plus]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("work, builds", [
        # the benchmark's 12 decay checks: 3 families, 6 (family, alpha) pairs
        ("""
for d in (1, 2):
    for p in (2, 3, 4):
        for alpha in (1.0, 0.5):
            check_decay_rate(p, "huynh-g2", alpha, d, theta=math.radians(30.0) if d == 2 else 0.0)
""", 3),
        # one 2D sweep: its d = 2 symbols and its memoized 1D lines share the family
        ("""
with contextlib.redirect_stdout(io.StringIO()):
    main(["dispersion", "--d", "2", "--p", "3", "--family", "huynh", "--theta", "30"])
""", 1),
    ], ids=["timedomain", "dispersion"])
    def test_a_fresh_process_builds_each_family_once(self, work, builds):
        code = f"""
import contextlib, io, math
from frspectra import operator
from frspectra.advect import check_decay_rate
from frspectra.cli import main
calls = []
build = operator.build_operators

def spy(*args):
    calls.append(args)
    return build(*args)

operator.build_operators = spy
{work}
print(len(calls))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) == builds


class TestSymbol:
    def test_constant_mode_steady(self):
        for d in (1, 2, 3):
            sch = scheme(2, 1.0, d)
            sym = symbol_for(sch, StretchedStencil.uniform(d), WaveProbe(k=0.0))
            assert np.abs(sym.Q @ np.ones((sch.p + 1) ** d)).max() < 1e-12

    def test_grid_aligned_reduction_2d(self):
        p = 3
        s1 = scheme(p, 1.0, 1)
        s2 = scheme(p, 1.0, 2)
        st1 = StretchedStencil.stretched((1.3,))
        # gamma_y and delta_y arbitrary: their velocity component vanishes
        st2 = StretchedStencil(2, (1.0, 2.37), (1.3, 0.7))
        k = 2.345
        lam1 = spectrum_of(symbol_for(s1, st1, WaveProbe(k=k)))
        lam2 = spectrum_of(symbol_for(s2, st2, WaveProbe(k=k, theta=0.0)))
        assert np.abs(np.repeat(lam1, p + 1) - lam2).max() < 1e-10

    def test_grid_aligned_reduction_3d(self):
        p = 2
        s1 = scheme(p, 1.0, 1)
        s3 = scheme(p, 1.0, 3)
        st1 = StretchedStencil.stretched((0.9,))
        st3 = StretchedStencil(3, (1.0, 0.5, 2.0), (0.9, 1.4, 0.8))
        k = 1.777
        lam1 = spectrum_of(symbol_for(s1, st1, WaveProbe(k=k)))
        lam3 = spectrum_of(symbol_for(s3, st3, WaveProbe(k=k, theta=0.0, phi=0.0)))
        assert np.abs(np.repeat(lam1, (p + 1) ** 2) - lam3).max() < 1e-10

    @given(
        k=st.floats(0.01, 10.0),
        theta_frac=st.floats(0.0, 1.0),
        p=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_central_uniform_energy_neutral(self, k, theta_frac, p):
        sch = scheme(p, 0.5, 2)
        sym = symbol_for(
            sch,
            StretchedStencil.uniform(2),
            WaveProbe(k=k, theta=theta_frac * np.pi / 2),
        )
        lam = np.linalg.eigvals(sym.Q)
        assert np.abs(lam.real).max() < 1e-10 * max(1.0, np.abs(lam).max())

    @given(
        k=st.floats(0.01, 10.0),
        theta_frac=st.floats(0.0, 1.0),
        alpha=st.floats(0.5, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_upwind_uniform_stable(self, k, theta_frac, alpha):
        sch = SchemeConfig(3, CorrectionFamily.huynh_g2(3), alpha, 2)
        sym = symbol_for(
            sch,
            StretchedStencil.uniform(2),
            WaveProbe(k=k, theta=theta_frac * np.pi / 2),
        )
        lam = np.linalg.eigvals(sym.Q)
        assert lam.real.max() < 1e-10 * max(1.0, np.abs(lam).max())

    def test_conjugate_symmetry(self):
        sch = scheme(3, 1.0, 2)
        stencil = StretchedStencil(2, (1.0, 0.8), (1.1, 0.9))
        theta = 0.6
        k = 1.9
        plus = spectrum_of(symbol_for(sch, stencil, WaveProbe(k=k, theta=theta)))
        minus = spectrum_of(symbol_for(sch, stencil, WaveProbe(k=-k, theta=theta)))
        assert np.abs(np.sort_complex(np.conj(plus)) - minus).max() < 1e-12

    def test_dimension_mismatch_rejected(self):
        for d_scheme, d_stencil in [(2, 1), (1, 2), (3, 2)]:
            with pytest.raises(ValueError, match="dimension mismatch"):
                symbol_for(
                    scheme(2, 1.0, d_scheme), StretchedStencil.uniform(d_stencil), WaveProbe(k=1.0)
                )

    def test_theta_zero_mandatory_in_1d(self):
        sch = scheme(2, 1.0, 1)
        with pytest.raises(ValueError):
            symbol_for(sch, StretchedStencil.uniform(1), WaveProbe(k=1.0, theta=0.2))

    def test_expanding_grid_positive_dissipation_exists(self):
        # eigenvalues of iQ must cross into Im > 0 for gamma > 1 at low k
        sch = scheme(4, 1.0, 1)
        stencil = StretchedStencil.stretched((1.2,))
        found = False
        for k in np.linspace(0.2, 0.5 * np.pi * 5, 24):
            sym = symbol_for(sch, stencil, WaveProbe(k=k))
            omega = 1j * np.linalg.eigvals(sym.Q)
            physical = omega[np.argmin(np.abs(omega / k - 1.0))]
            if physical.imag > 1e-6:
                found = True
                break
        assert found


def scalar_direction_symbols(scheme, stencil, probe):
    """Per-probe, per-direction loop: the oracle for DirectionSymbols."""
    blocks = build_blocks(scheme.family, scheme.alpha)
    vel = probe.velocity(scheme.d)
    k = probe.k
    out = []
    for m in range(scheme.d):
        d_c = stencil.delta[m]
        d_up = d_c / stencil.gamma[m]
        d_dn = d_c * stencil.gamma[m]
        a_m = vel[m]
        out.append(
            -a_m * (
                (2.0 / d_up) * blocks.c_minus * np.exp(-1j * k * a_m * d_up)
                + (2.0 / d_c) * blocks.c_zero
                + (2.0 / d_dn) * blocks.c_plus * np.exp(1j * k * a_m * d_c)
            )
        )
    return out


class TestSymbolBatch:
    GAMMA = (1.1, 0.9, 1.05)
    # at theta = 90 degrees a_x = cos(pi/2) snaps to 0: x is not an active direction
    ANGLES = {1: [(0.0, 0.0)], 2: [(0.6, 0.0), (np.pi / 2, 0.0)], 3: [(0.5, 0.4), (np.pi / 2, 0.4)]}

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_equals_scalar_loop_bit_for_bit(self, d, alpha):
        sch = scheme(3, alpha, d)
        stencil = StretchedStencil.stretched(self.GAMMA[:d], (1.0, 0.8, 1.3)[:d])
        for theta, phi in self.ANGLES[d]:
            k_nq = wavenumber_for(np.pi, theta, phi, stencil, sch.p)
            ks = np.array([0.0, -1.7, 1e-4, 0.9, k_nq * (1 - 1e-12), k_nq, -k_nq])
            symbols = DirectionSymbols(sch, stencil, theta, phi)  # built once
            active = symbols.active.tolist()
            assert active == [m for m in range(d) if not (theta == np.pi / 2 and m == 0)]
            evaluated = symbols.evaluate(ks)
            assert evaluated.shape == (ks.size, len(active), sch.p + 1, sch.p + 1)
            for k, row_active in zip(ks, evaluated):
                probe = WaveProbe(k=k, theta=theta, phi=phi)
                ref = scalar_direction_symbols(sch, stencil, probe)
                assert np.array_equal(row_active, [ref[m] for m in active])
                assert np.array_equal(symbols.evaluate([k])[0], row_active)
                dense = sum(lift_to_dimension(q_m, m, d) for m, q_m in enumerate(ref))
                assert np.array_equal(assemble_symbol(sch, stencil, probe).Q, dense)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_wavenumber_in_batch_rejected(self, bad):
        symbols = DirectionSymbols(scheme(2, 1.0, 2), StretchedStencil.uniform(2), 0.3, 0.0)
        with pytest.raises(ValueError, match="finite"):
            symbols.evaluate(np.array([0.5, bad, 1.0]))

    def test_non_finite_entries_rejected(self):
        # a finite but subnormal spacing makes the metric factor 2/delta overflow
        stencil = StretchedStencil(2, (1e-310, 1), (1, 1))
        with pytest.raises(ValueError, match="non-finite entries"), np.errstate(all="ignore"):
            DirectionSymbols(scheme(2, 1.0, 2), stencil, 0.3, 0.0).evaluate(np.array([1.0]))

    def test_batch_keeps_probe_angle_checks(self):
        sch = scheme(2, 1.0, 2)
        stencil = StretchedStencil.uniform(2)
        for theta, phi in [(2.0, 0.0), (-0.1, 0.0), (0.3, 0.2)]:
            with pytest.raises(ValueError):
                DirectionSymbols(sch, stencil, theta, phi)
