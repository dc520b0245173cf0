"""Eigenanalysis tests: consistency, branch tracking, normalization, kappa."""
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frspectra import spectrum, temporal
from frspectra.basis import CorrectionFamily
from frspectra.operator import (
    DirectionSymbols,
    SchemeConfig,
    StretchedStencil,
    WaveProbe,
    assemble_symbol,
    direction_cosines,
    symbol_for,
)
from frspectra.spectrum import (
    EigensolverError,
    ModeAmbiguityError,
    _anchor_ladder,
    _check_anchor,
    _match_to_previous,
    analyze,
    diagonalization_residual,
    dispersion_sweep,
    factored_spectra,
    normalization_factor,
    physical_eigenvector,
    track_branches,
    wavenumber_for,
)
from frspectra.temporal import RK44, cfl_limit, fully_discrete_sweep


def scheme(p, alpha=1.0, d=1, kind="huynh"):
    fam = CorrectionFamily.dg(p) if kind == "dg" else CorrectionFamily.huynh_g2(p)
    return SchemeConfig(p, fam, alpha, d)


class TestAnalyze:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_small_k_consistency(self, p):
        stencil = StretchedStencil.uniform(1)
        k = wavenumber_for(1e-6, 0.0, 0.0, stencil, p)
        res = analyze(symbol_for(scheme(p), stencil, WaveProbe(k=k)))
        assert abs(res.omega_physical / k - 1.0) < 1e-4

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mode_count(self, d):
        p = 2
        sch = scheme(p, 1.0, d)
        res = analyze(symbol_for(sch, StretchedStencil.uniform(d), WaveProbe(k=1.0)))
        assert res.modes.size == (p + 1) ** d
        assert res.beta.size == (p + 1) ** d
        assert 0 <= res.physical_index < res.modes.size

    def test_kappa_at_least_one(self):
        res = analyze(
            symbol_for(scheme(3, 1.0, 2), StretchedStencil.uniform(2), WaveProbe(k=2.0, theta=0.5))
        )
        assert res.kappa >= 1.0

    def test_central_mode_sum_neutral(self):
        sch = scheme(3, 0.5, 2)
        for k in (0.5, 2.0, 6.0):
            res = analyze(
                symbol_for(sch, StretchedStencil.uniform(2), WaveProbe(k=k, theta=0.9))
            )
            assert abs(res.modes.imag.sum()) < 1e-10 * max(1.0, np.abs(res.modes).max())

    def test_beta_reconstructs_plane_wave(self):
        sym = symbol_for(scheme(2, 1.0, 2), StretchedStencil.uniform(2), WaveProbe(k=1.5, theta=0.4))
        res = analyze(sym)
        from frspectra.spectrum import plane_wave_samples

        assert np.abs(res.eigvecs @ res.beta - plane_wave_samples(sym)).max() < 1e-9

    def test_diagonalization_residual_small(self):
        sym = symbol_for(scheme(4, 1.0, 1), StretchedStencil.uniform(1), WaveProbe(k=3.0))
        res = analyze(sym)
        assert res.kappa < 1e8 and not res.ill_conditioned
        assert diagonalization_residual(sym, res) < 1e-9

    def test_kappa_invariant_under_origin_shift(self):
        # Q depends on spacings only; shifting the cell origin multiplies the
        # plane-wave samples by a global phase, leaving W and kappa unchanged
        sch = scheme(2, 1.0, 2)
        stencil = StretchedStencil.uniform(2)
        sym = symbol_for(sch, stencil, WaveProbe(k=2.2, theta=0.7))
        res = analyze(sym)
        shift = np.exp(1j * 2.2 * 0.37)
        beta_shifted = np.linalg.solve(res.eigvecs, shift * (res.eigvecs @ res.beta))
        assert np.abs(np.abs(beta_shifted) - np.abs(res.beta)).max() < 1e-9

    def test_kappa_increases_with_angle(self):
        sch = scheme(2, 1.0, 2)
        stencil = StretchedStencil.uniform(2)
        k45 = analyze(
            symbol_for(sch, stencil, WaveProbe(k=wavenumber_for(np.pi / 2, np.pi / 4, 0.0, stencil, 2), theta=np.pi / 4))
        ).kappa
        k0 = analyze(
            symbol_for(sch, stencil, WaveProbe(k=wavenumber_for(np.pi / 2, 0.0, 0.0, stencil, 2)))
        ).kappa
        assert k45 > k0

    def test_contracting_grid_over_dissipates(self):
        p = 4
        sch = scheme(p)
        contracted = StretchedStencil.stretched((0.8,))
        uniform = StretchedStencil.uniform(1)
        k_hat = np.linspace(0.1, 0.9, 9)
        sweep_c = dispersion_sweep(sch, contracted, k_hat=k_hat)
        sweep_u = dispersion_sweep(sch, uniform, k_hat=k_hat)
        im_c = sweep_c.omega_hat_physical.imag
        im_u = sweep_u.omega_hat_physical.imag
        assert np.all(im_c < 0)
        assert np.all(im_c < im_u)


class TestBranchTracking:
    def test_track_identity_on_constant_sets(self):
        sets = [np.array([1 + 1j, 2.0, -1j])] * 5
        tracked = track_branches(sets)
        assert np.all(tracked == sets[0])

    def test_track_follows_permutations(self):
        base = np.array([0.0 + 0j, 1.0, 2.0])
        drift = [base + 0.01j * i for i in range(8)]
        shuffled = [v[np.random.default_rng(i).permutation(3)] for i, v in enumerate(drift)]
        tracked = track_branches(shuffled)
        for col in range(3):
            assert np.abs(np.diff(tracked[:, col])).max() < 0.011

    def test_rejects_an_empty_sequence(self):
        with pytest.raises(ValueError, match="non-empty"):
            track_branches([])

    def test_rejects_sets_of_different_sizes(self):
        with pytest.raises(ValueError, match="same size"):
            track_branches([[1, 2], [1.1, 2.1, 3.1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_values(self, bad):
        # a nan row once came back as [1.2, 1.2] at the next step: 2.2 was
        # lost, so the rows stopped being permutations of the input
        with pytest.raises(ValueError, match="finite"):
            track_branches([[1, 2], [bad, 2.1], [1.2, 2.2]])

    def test_p0_single_mode(self):
        sch = SchemeConfig(0, CorrectionFamily.dg(0), 1.0, 1)
        sweep = dispersion_sweep(sch, StretchedStencil.uniform(1), k_hat=np.linspace(0.1, 3.0, 12))
        assert sweep.physical == 0

    def test_monotone_dispersion_through_origin_p3(self):
        sweep = dispersion_sweep(
            scheme(3), StretchedStencil.uniform(1), k_hat=np.linspace(0.02, 2.0, 40)
        )
        re = sweep.omega_hat_physical.real
        assert re[0] > 0
        assert np.all(np.diff(re) > 0)

    def test_small_k_group_velocity_unit(self):
        # compare against the numerical small-k expansion of the symbol
        sweep = dispersion_sweep(
            scheme(3), StretchedStencil.uniform(1), k_hat=np.array([1e-4, 2e-4])
        )
        slope = np.diff(sweep.omega_physical.real) / np.diff(sweep.k)
        assert abs(slope[0] - 1.0) < 1e-6

    def test_selection_stable_under_halved_step_p5(self):
        sch = scheme(5)
        stencil = StretchedStencil.uniform(1)
        coarse = np.linspace(0.05, 3.0, 30)
        fine = np.linspace(0.05, 3.0, 59)  # same endpoints, halved step
        sweep_c = dispersion_sweep(sch, stencil, k_hat=coarse)
        sweep_f = dispersion_sweep(sch, stencil, k_hat=fine)
        assert np.abs(sweep_f.omega_physical[::2] - sweep_c.omega_physical).max() < 1e-8

    def test_ambiguity_reported_for_distinct_tied_branches(self):
        # branch 1 starts 1e-12 from the physical branch 0 at k0 = 1e-3,
        # within 1e-6 * k0, and departs from it later
        tracked = np.array([[1e-3 + 0j, 1e-3 + 1e-12j], [2e-3, 2.2e-3]])
        with pytest.raises(ModeAmbiguityError):
            _check_anchor(tracked, 0, 1e-3)
        # a copy that never departs, or a branch starting 2e-6 * k0 away, passes
        _check_anchor(np.array([[1e-3 + 0j, 1e-3], [2e-3, 2e-3]]), 0, 1e-3)
        _check_anchor(np.array([[1e-3 + 0j, 1e-3 + 2e-9j], [2e-3, 2.2e-3]]), 0, 1e-3)


class TestNormalization:
    def test_grid_aligned_reduction(self):
        stencil = StretchedStencil(2, (0.7, 1.3), (1.0, 1.0))
        assert abs(2.0 * normalization_factor(0.0, 0.0, stencil, 3) - 2.0 * 0.7 / 4) < 1e-14

    def test_forty_five_degidentity_golden(self):
        # frozen evaluation of the normalization at 45 degrees, unit spacings
        stencil = StretchedStencil.uniform(2)
        factor = normalization_factor(np.pi / 4, 0.0, stencil, 3)
        expected = (1 / np.sqrt(2)) * 0.25 * np.sqrt(0.5 + 0.5)
        assert abs(factor - expected) < 1e-15

    def test_nyquist_grows_as_inverse_cosine(self):
        stencil = StretchedStencil.uniform(2)
        base = wavenumber_for(np.pi, 0.0, 0.0, stencil, 3)
        for deg in (10, 25, 40, 45):
            th = np.radians(deg)
            assert abs(wavenumber_for(np.pi, th, 0.0, stencil, 3) - base / np.cos(th)) < 1e-9

    def test_round_trip(self):
        stencil = StretchedStencil(2, (1.1, 0.6), (1.2, 0.8))
        k = wavenumber_for(1.3, 0.5, 0.0, stencil, 4)
        assert abs(k * normalization_factor(0.5, 0.0, stencil, 4) - 1.3) < 1e-12

    @pytest.mark.parametrize(
        "delta, gamma", [(1e200, 1.0), (1e-170, 1.0)], ids=["overflow", "underflow"]
    )
    def test_length_beyond_the_floats_raises(self, delta, gamma):
        # an infinite length put every wavenumber at k = 0; a zero one has no k
        stencil = StretchedStencil(2, (delta, delta), (gamma, gamma))
        with pytest.raises(ValueError, match="normalization length"):
            normalization_factor(np.pi / 6, 0.0, stencil, 3)

    @given(
        k=st.floats(0.0, 50.0),
        theta=st.floats(0.0, np.pi / 2),
        p=st.integers(0, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_linear_in_k(self, k, theta, p):
        stencil = StretchedStencil.uniform(2)
        factor = normalization_factor(theta, 0.0, stencil, p)
        assert factor > 0
        assert abs(wavenumber_for(k * factor, theta, 0.0, stencil, p) - k) <= 1e-12 * max(k, 1.0)

    def test_sweep_rejects_bad_grid(self):
        sch = scheme(2)
        stencil = StretchedStencil.uniform(1)
        with pytest.raises(ValueError):
            dispersion_sweep(sch, stencil, k_hat=np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            dispersion_sweep(sch, stencil, k_hat=np.array([]))


class TestThreeDimensions:
    def test_sweep_mode_count_and_consistency(self):
        sch = scheme(2, 1.0, 3)
        stencil = StretchedStencil.uniform(3)
        sweep = dispersion_sweep(
            sch, stencil, theta=0.5, phi=0.4, k_hat=np.linspace(0.05, 1.0, 6)
        )
        assert sweep.modes.shape == (6, 27)
        assert abs(sweep.omega_physical[0] / sweep.k[0] - 1.0) < 1e-3

    def test_kappa_grows_off_axis(self):
        # oblique incidence conditions the modal projection worse than
        # grid-aligned, in 3D as in 2D
        sch = scheme(2, 1.0, 3)
        stencil = StretchedStencil.uniform(3)
        k_hat = np.array([np.pi / 2])
        aligned = dispersion_sweep(sch, stencil, 0.0, 0.0, k_hat).kappa[0]
        oblique = dispersion_sweep(
            sch, stencil, np.pi / 4, np.arctan(1 / np.sqrt(2)), k_hat
        ).kappa[0]
        assert oblique > aligned


class TestScaleInvariance:
    @pytest.mark.parametrize("s", [0.25, 3.0])
    def test_normalized_spectrum_invariant_under_rescaling(self, s):
        # delta -> s*delta with khat fixed leaves omega_hat unchanged
        sch = scheme(3, 1.0, 2)
        k_hat = np.linspace(0.1, 2.0, 8)
        base = dispersion_sweep(
            sch, StretchedStencil(2, (1.0, 1.0), (1.0, 0.9)), 0.6, 0.0, k_hat
        )
        scaled = dispersion_sweep(
            sch, StretchedStencil(2, (s, s), (1.0, 0.9)), 0.6, 0.0, k_hat
        )
        assert np.abs(
            scaled.omega_hat_physical - base.omega_hat_physical
        ).max() < 1e-10
        assert np.abs(scaled.kappa - base.kappa).max() < 1e-8 * np.abs(base.kappa).max()


def reference_greedy(prev, cur):
    """Greedy stage of reference_match: rows in order of their nearest
    distance take their nearest free column."""
    n = prev.size
    dist = np.abs(prev[:, None] - cur[None, :])
    perm = np.full(n, -1)
    used = np.zeros(n, dtype=bool)
    for i in np.argsort(dist.min(axis=1)):
        j = int(np.argmin(np.where(used, np.inf, dist[i])))
        perm[i] = j
        used[j] = True
    return perm


def reference_match(prev, cur):
    """Scalar greedy-plus-swap matcher: the oracle for _match_to_previous."""
    n = prev.size
    dist = np.abs(prev[:, None] - cur[None, :])
    perm = reference_greedy(prev, cur)
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                cost_now = dist[i, perm[i]] + dist[j, perm[j]]
                cost_swapped = dist[i, perm[j]] + dist[j, perm[i]]
                if cost_swapped < cost_now - 1e-15:
                    perm[i], perm[j] = perm[j], perm[i]
                    improved = True
    return perm


def reference_track(mode_sets):
    """track_branches built step by step on reference_match."""
    tracked = [mode_sets[0]]
    for cur in mode_sets[1:]:
        tracked.append(cur[reference_match(tracked[-1], cur)])
    return np.array(tracked)


def matcher_case(n, copies, drift, coarse, seed, ulps=0.0):
    """prev holds n values, each of ceil(n / copies) random values repeated
    ``copies`` times, as the Kronecker sum does for a direction with
    a_m = 0; cur moves every value by ``drift`` times a normal deviate and
    shuffles them. ``coarse`` rounds to a 0.1 grid, which makes many
    distances tie exactly; ``ulps`` then moves each value of cur by up to
    4 * ulps per part, so that swaps gain amounts near the 1e-15 margin."""
    rng = np.random.default_rng(seed)
    m = -(-n // copies)
    base = rng.normal(size=m) + 1j * rng.normal(size=m)
    moved = base + drift * (rng.normal(size=m) + 1j * rng.normal(size=m))
    if coarse:
        base, moved = np.round(base, 1), np.round(moved, 1)
    prev, cur = np.repeat(base, copies)[:n], rng.permutation(np.repeat(moved, copies)[:n])
    if ulps:
        cur = cur + ulps * (rng.integers(-4, 5, n) + 1j * rng.integers(-4, 5, n))
    return prev, cur


SWAP_HEAVY = [(n, copies, drift) for n in (16, 64) for copies in (4, 16) for drift in (1e-3, 0.1)]


class TestMatcher:
    def test_swap_repair_beats_greedy(self):
        # greedy gives 0.6 to the row at 1.0 (its nearest), leaving 1.7 for
        # the row at 0; the swap lowers the total distance from 2.1 to 1.3
        prev = np.array([0.0, 1.0], dtype=complex)
        cur = np.array([0.6, 1.7], dtype=complex)
        assert list(_match_to_previous(prev, cur)) == [0, 1]
        assert list(reference_match(prev, cur)) == [0, 1]

    @given(
        path=st.sampled_from(["early_exit", "greedy_repair", "swap_heavy", "near_tie", "any"]),
        n=st.integers(1, 70),
        copies=st.integers(1, 4),
        drift=st.sampled_from([1e-9, 1e-3, 0.1, 1.0, 5.0]),
        heavy=st.sampled_from(SWAP_HEAVY),
        coarse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=240, deadline=None)
    def test_same_permutation_as_scalar_reference(
        self, path, n, copies, drift, heavy, coarse, seed
    ):
        # "early_exit" cases move distinct values by at most 5e-9, so every
        # row keeps its own nearest column; in "greedy_repair" cases repeated
        # rows share one nearest column; "swap_heavy" cases are those of
        # test_swap_heavy_cases_make_the_repair_swap; "near_tie" cases are
        # those of test_near_tie_cases_respect_the_margin
        ulps = 0.0
        if path == "early_exit":
            copies, coarse, drift = 1, False, drift * 1e-9
        elif path == "greedy_repair":
            n, copies = max(n, 2), max(copies, 2)
        elif path == "swap_heavy":
            n, copies, drift = heavy
        elif path == "near_tie":
            n, copies, drift, coarse, ulps = max(n, 8), 2, 0.1, True, 1e-15
        prev, cur = matcher_case(n, copies, drift, coarse, seed, ulps)
        nearest = np.abs(prev[:, None] - cur[None, :]).argmin(axis=1)
        if path in ("early_exit", "greedy_repair"):
            assert (np.unique(nearest).size == n) == (path == "early_exit")
        assert np.array_equal(_match_to_previous(prev, cur), reference_match(prev, cur))

    def test_swap_heavy_cases_make_the_repair_swap(self):
        # the swap_heavy family above reaches the swap repair, not only the
        # greedy pass: some of its cases end away from the greedy permutation
        swapped = 0
        for (n, copies, drift), coarse, seed in product(SWAP_HEAVY, (False, True), range(10)):
            prev, cur = matcher_case(n, copies, drift, coarse, seed)
            perm = _match_to_previous(prev, cur)
            assert np.array_equal(perm, reference_match(prev, cur))
            swapped += not np.array_equal(perm, reference_greedy(prev, cur))
        assert swapped > 0

    def test_near_tie_cases_respect_the_margin(self):
        # costs a few 1e-15 apart: a swap counts only when it gains more than
        # 1e-15, in the first test of every pair and in each retest after a swap
        for seed in range(60):
            prev, cur = matcher_case(24, 2, 0.1, True, seed, ulps=1e-15)
            assert np.array_equal(_match_to_previous(prev, cur), reference_match(prev, cur))

    @pytest.mark.parametrize("phi_deg", [0, 15, 75, 90])
    def test_tracks_3d_sweep_as_scalar_reference(self, monkeypatch, phi_deg):
        # the sorted mode sets that dispersion_sweep tracks at d = 3, p = 3,
        # theta = 30 deg: 16 modes at 0 deg (z idle) and 4 at 90 deg (x and y
        # idle), and 64 with the rows where the tracker hops branches at 15
        # and 75 deg
        mode_sets = []

        def recording(sets):
            mode_sets.append(np.array(sets))
            return track_branches(sets)

        monkeypatch.setattr(spectrum, "track_branches", recording)
        dispersion_sweep(
            scheme(3, d=3), StretchedStencil.uniform(3), np.radians(30), np.radians(phi_deg)
        )
        (sets,) = mode_sets
        assert sets.shape[1] == {0: 16, 15: 64, 75: 64, 90: 4}[phi_deg]
        assert np.array_equal(track_branches(sets), reference_track(sets))

    def test_never_writes_to_its_input(self):
        rng = np.random.default_rng(3)
        sets = [matcher_case(64, 4, 0.1, False, seed)[1] for seed in range(6)]
        for mode_sets in (sets, np.array(sets)):
            before = [row.tobytes() for row in mode_sets]
            track_branches(mode_sets)
            assert [row.tobytes() for row in mode_sets] == before
        prev, cur = sets[0], rng.permutation(sets[0])
        before = prev.tobytes(), cur.tobytes()
        _match_to_previous(prev, cur)
        assert (prev.tobytes(), cur.tobytes()) == before


COPY_KINDS = ("coarse", "demand", "signed_zero")


def copy_steps(n, copies, steps, drift, kind, seed):
    """steps + 1 mode sets; set t is the cur of matcher_case at drift
    t * drift, so ceil(n / copies) values move along straight lines, each
    repeated ``copies`` times and shuffled.

    "coarse" rounds the values to a 0.1 grid, so a value other than a row's
    nearest often ties exactly at the row's minimum. "demand" moves the
    upper half of the values (by real part) 10 to the right at odd steps,
    so their rows find their nearest value among the others and the rows
    of two values share one nearest value, more rows than it has copies.
    "signed_zero" keeps the real parts, with an imaginary part of +0.0,
    or at odd steps +0.0 or -0.0 at random, so copies equal as numbers
    differ in their bits.
    """
    rng = np.random.default_rng(seed)
    sets = []
    for t in range(steps + 1):
        cur = matcher_case(n, copies, t * drift, kind == "coarse", seed)[1]
        if kind == "demand" and t % 2:
            cur = cur + 10.0 * (cur.real > np.median(cur.real))
        elif kind == "signed_zero":
            cur = cur.real.astype(complex)
            cur.imag = np.where(rng.random(n) < 0.5 * (t % 2), -0.0, 0.0)
        sets.append(cur)
    return sets


class TestCopyExit:
    """Tracking of exactly repeated values, as dense grid-aligned symbols
    hold them."""

    @given(
        kind=st.sampled_from(COPY_KINDS),
        n=st.integers(2, 48),
        copies=st.sampled_from([2, 4, 16]),
        steps=st.integers(1, 5),
        drift=st.sampled_from([1e-3, 0.05, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_tracks_exact_copies_as_scalar_reference(self, kind, n, copies, steps, drift, seed):
        sets = copy_steps(n, copies, steps, drift, kind, seed)
        # compare bits, since -0.0 == 0.0
        got = track_branches(sets).view(np.int64)
        assert np.array_equal(got, reference_track(sets).view(np.int64))

    @pytest.mark.parametrize(
        "d, theta_deg, phi_deg, tau, contested",
        [
            (2, 0, 0, None, 0),
            (2, 90, 0, None, 0),
            (3, 30, 90, None, 0),
            (2, 0, 0, 0.18, 0),
            (3, 30, 0, None, 7),
        ],
    )
    def test_matcher_runs_only_where_copies_do_not_settle(
        self, monkeypatch, d, theta_deg, phi_deg, tau, contested
    ):
        # an idle direction (a_m = 0) adds no modes, so grid-aligned sweeps
        # track (p+1)^#active distinct values and no rows want one nearest
        # column; at (30, 0) deg the 16 values of x and y compete on 7 of
        # the 86 steps, which the greedy pass and swap repair settle
        recorded = []
        track = spectrum.track_branches

        def recording(sets):
            recorded.append(np.array(sets))
            return track(sets)

        monkeypatch.setattr(spectrum, "track_branches", recording)
        monkeypatch.setattr(temporal, "track_branches", recording)
        sch, stencil = scheme(3, d=d), StretchedStencil.uniform(d)
        theta, phi = np.radians(theta_deg), np.radians(phi_deg)
        if tau is None:
            sweep = dispersion_sweep(sch, stencil, theta, phi)
        else:
            sweep = fully_discrete_sweep(sch, stencil, RK44, tau, theta, phi)
        (sets,) = recorded
        active = DirectionSymbols(sch, stencil, theta, phi).active.size
        assert len(sweep.k) == 64 and sets.shape[1] == 4**active
        tracked = track(sets)
        repeats = [
            np.unique(np.abs(prev[:, None] - cur[None, :]).argmin(axis=1)).size < cur.size
            for prev, cur in zip(tracked, sets[1:])
        ]
        assert sum(repeats) == contested


def dense_sweep_omega_hat(sch, stencil, theta, phi, k_hat):
    """Physical omega_hat from dense analyze() at every k, tracked in full
    from the mode with the largest plane-wave weight |beta| at the first k."""
    factor = normalization_factor(theta, phi, stencil, sch.p)
    lead = _anchor_ladder(k_hat[0])
    ks = np.concatenate((lead, k_hat)) / factor
    results = [
        analyze(assemble_symbol(sch, stencil, WaveProbe(k=k, theta=theta, phi=phi)))
        for k in ks
    ]
    tracked = track_branches([res.modes for res in results])
    return tracked[lead.size:, results[0].physical_index] * factor


class TestFactoredSpectra:
    GAMMA = (1.1, 0.9, 1.05)

    def stretched(self, d):
        return StretchedStencil.stretched(self.GAMMA[:d])

    def test_dense_symbol_is_lifted_sum(self):
        sch = scheme(2, 0.8, 3)
        stencil = self.stretched(3)
        probe = WaveProbe(k=1.7, theta=0.5, phi=0.4)
        q_x, q_y, q_z = DirectionSymbols(sch, stencil, 0.5, 0.4).evaluate([probe.k])[0]
        eye = np.eye(3)
        lifted = (
            np.kron(eye, np.kron(eye, q_x))
            + np.kron(eye, np.kron(q_y, eye))
            + np.kron(q_z, np.kron(eye, eye))
        )
        assert np.abs(assemble_symbol(sch, stencil, probe).Q - lifted).max() < 1e-14

    @pytest.mark.parametrize("d, theta, phi", [(2, 0.6, 0.0), (3, 0.5, 0.4), (3, 0.0, 0.7)])
    def test_eigenvalues_match_dense(self, d, theta, phi):
        sch = scheme(3, 1.0, d)
        stencil = self.stretched(d)
        ks = np.array([0.3, 1.9, 4.2])
        k_hat = ks * normalization_factor(theta, phi, stencil, sch.p)
        lam, _ = factored_spectra(DirectionSymbols(sch, stencil, theta, phi), k_hat)
        for k, factored in zip(ks, lam):
            probe = WaveProbe(k=k, theta=theta, phi=phi)
            dense = np.linalg.eigvals(assemble_symbol(sch, stencil, probe).Q)
            # an idle direction repeats every factored value p+1 times in Q
            factored = np.repeat(factored, dense.size // factored.size)
            aligned = factored[_match_to_previous(dense, factored)]
            assert np.abs(aligned - dense).max() < 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("d", [2, 3])
    def test_kappa_is_product_of_direction_values(self, d):
        sch = scheme(3, 1.0, d)
        stencil = self.stretched(d)
        theta, phi, k = 0.6, (0.4 if d == 3 else 0.0), 2.3
        dense = analyze(assemble_symbol(sch, stencil, WaveProbe(k=k, theta=theta, phi=phi)))
        assert not dense.degenerate
        symbols = DirectionSymbols(sch, stencil, theta, phi)
        k_hat = k * normalization_factor(theta, phi, stencil, sch.p)
        _, kappa = factored_spectra(symbols, np.array([k_hat]), True)
        assert abs(kappa[0] - dense.kappa) < 1e-8 * dense.kappa

    @pytest.mark.parametrize(
        "d, theta, phi, k_hat",
        [(2, 0.6, 0.0, np.linspace(0.05, 2.8, 24)), (3, 0.5, 0.4, np.linspace(0.05, 2.0, 10))],
    )
    def test_sweep_matches_dense_sweep(self, d, theta, phi, k_hat):
        sch = scheme(3 if d == 2 else 2, 1.0, d)
        stencil = self.stretched(d)
        sweep = dispersion_sweep(sch, stencil, theta, phi, k_hat)
        dense = dense_sweep_omega_hat(sch, stencil, theta, phi, k_hat)
        assert np.abs(sweep.omega_hat_physical - dense).max() < 1e-10

    def test_kappa_continuous_at_degenerate_diagonal(self):
        # the dense eigenvector basis at exactly 45 degrees is LAPACK's
        # choice within a repeated eigenvalue (kappa 13.2305 there); the
        # factored kappa does not depend on it
        sch = scheme(3, 1.0, 2)
        stencil = StretchedStencil.uniform(2)
        kappa = {
            deg: dispersion_sweep(sch, stencil, np.radians(deg), 0.0, np.array([2.0])).kappa[0]
            for deg in (44.999, 45.0, 45.001)
        }
        assert round(kappa[45.0], 4) == 11.1402
        for deg in (44.999, 45.001):
            assert abs(kappa[deg] - kappa[45.0]) < 1e-5 * kappa[45.0]

    def test_zero_direction_counts_as_identity(self):
        # at theta = 0 the y symbol vanishes and kappa is the 1D value
        sch2 = scheme(3, 1.0, 2)
        k_hat = np.array([0.5, 2.0])
        aligned = dispersion_sweep(sch2, StretchedStencil.uniform(2), 0.0, 0.0, k_hat)
        one_d = dispersion_sweep(scheme(3), StretchedStencil.uniform(1), k_hat=k_hat)
        assert np.abs(aligned.kappa - one_d.kappa).max() < 1e-12 * one_d.kappa.max()
        assert np.abs(aligned.omega_hat_physical - one_d.omega_hat_physical).max() < 1e-12

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda sch, stencil, theta, phi, k_hat: dispersion_sweep(
                sch, stencil, theta, phi, k_hat
            ),
            lambda sch, stencil, theta, phi, k_hat: fully_discrete_sweep(
                sch, stencil, RK44, 0.18, theta, phi, k_hat
            ),
        ],
        ids=["dispersion", "fully_discrete"],
    )
    @pytest.mark.parametrize("d, theta, phi", [(2, 0.0, 0.0), (2, 90.0, 0.0), (3, 30.0, 90.0)])
    def test_grid_aligned_angles_equal_1d(self, sweep, d, theta, phi):
        # cos(pi/2) = 6.1e-17 is not zero, yet that direction adds less than
        # round-off to every eigenvalue, so it counts as inactive as at a_m = 0
        k_hat = np.array([0.0314, 0.5, 2.0])
        angles = np.radians(theta), np.radians(phi)
        aligned = sweep(scheme(3, 1.0, d), StretchedStencil.uniform(d), *angles, k_hat)
        one_d = sweep(scheme(3), StretchedStencil.uniform(1), 0.0, 0.0, k_hat)
        assert round(one_d.kappa[0], 4) == 3.3297
        assert np.abs(aligned.kappa - one_d.kappa).max() < 1e-12 * one_d.kappa.max()
        assert np.abs(aligned.omega_hat_physical - one_d.omega_hat_physical).max() < 1e-12


def idle_reduction(d, idle, angle, gamma):
    """Angles (deg) of a d-dimensional wave that does not move in direction
    ``idle`` and moves at ``angle`` in the others, and the lower-dimensional
    (d, theta, phi, gamma) whose moving direction cosines have the same bits."""
    if d == 2:
        return (90.0, 0.0) if idle == 0 else (0.0, 0.0), (1, 0.0, 0.0, (gamma[1 - idle],))
    full = {0: (90.0, angle), 1: (0.0, angle), 2: (angle, 0.0)}[idle]
    return full, (2, angle, 0.0, tuple(g for m, g in enumerate(gamma) if m != idle))


def sweep_outcome(run):
    """The bits of a sweep's physical omega_hat and kappa, a CFL result's
    fields, or the name of the error raised."""
    try:
        out = run()
    except (ModeAmbiguityError, EigensolverError) as exc:
        return type(exc).__name__
    if hasattr(out, "tau_limit"):
        return out.cfl_limit, out.tau_limit, out.worst_k, out.stable, out.cfl_crossing
    return out.omega_hat_physical.tobytes(), out.kappa.tobytes()


class TestIdleDirection:
    """A direction the wave does not move in adds no modes: the sweep equals
    the one without that direction, bit for bit."""

    @given(
        d=st.sampled_from([2, 3]),
        idle=st.integers(0, 2),
        p=st.integers(1, 4),
        kind=st.sampled_from(["dg", "huynh"]),
        alpha=st.sampled_from([1.0, 0.75, 0.5]),
        gamma=st.tuples(*[st.floats(0.8, 1.25)] * 3),
        angle=st.floats(1.0, 89.0),
        analysis=st.sampled_from(["dispersion", "fully_discrete", "cfl"]),
    )
    # tracked over the repeated modes of the idle direction, the first of
    # these fully-discrete sweeps raised ModeAmbiguityError and the second
    # departed from the 2D values
    @example(3, 1, 4, "huynh", 0.75, (1.0, 1.0, 1.0), 45.0, "fully_discrete")
    @example(3, 1, 3, "dg", 0.5, (1.1, 0.9, 1.05), 45.0, "fully_discrete")
    @settings(max_examples=60, deadline=None)
    def test_equals_lower_dimensional_call(self, d, idle, p, kind, alpha, gamma, angle, analysis):
        idle %= d
        full, (d_low, theta_low, phi_low, gamma_low) = idle_reduction(d, idle, angle, gamma)

        def outcome(dim, theta_deg, phi_deg, gammas):
            sch, stencil = scheme(p, alpha, dim, kind), StretchedStencil.stretched(gammas)
            theta, phi = np.radians(theta_deg), np.radians(phi_deg)
            if analysis == "dispersion":
                return sweep_outcome(lambda: dispersion_sweep(sch, stencil, theta, phi))
            if analysis == "fully_discrete":
                return sweep_outcome(
                    lambda: fully_discrete_sweep(sch, stencil, RK44, 0.05, theta, phi)
                )
            return sweep_outcome(lambda: cfl_limit(sch, stencil, RK44, theta, phi))

        assert outcome(d, *full, gamma[:d]) == outcome(d_low, theta_low, phi_low, gamma_low)


class TestGridDependence:
    """At a resolved k_hat, a sweep's physical mode should not depend on the
    other wavenumbers of its grid. Case: 2D, p = 4, DG, upwind, delta = (1,
    0.5), gamma = (1.3, 0.8), theta = 0.6 rad, k_hat = 0.4, on the grids
    [0.4] and [0.1, 0.4]. The expected value is the per-direction mode of
    physical_eigenvector, 0.369004 - 0.004251i, within 1e-6 of omega_ex."""

    STENCIL = StretchedStencil(2, (1.0, 0.5), (1.3, 0.8))
    THETA = 0.6
    GRIDS = ([0.4], [0.1, 0.4])

    def expected(self):
        factor = normalization_factor(self.THETA, 0.0, self.STENCIL, 4)
        sch = scheme(4, 1.0, 2, "dg")
        omega, _ = physical_eigenvector(sch, self.STENCIL, self.THETA, 0.0, 0.4 / factor)
        return omega * factor

    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_1d_sweeps_per_direction_do_not_depend_on_the_grid(self, grid):
        factor = normalization_factor(self.THETA, 0.0, self.STENCIL, 4)
        omega = 0j
        for m, a in enumerate(direction_cosines(self.THETA, 0.0, 2)):
            line = StretchedStencil(1, self.STENCIL.delta[m:m + 1], self.STENCIL.gamma[m:m + 1])
            line_k_hat = np.array(grid) / factor * a * normalization_factor(0.0, 0.0, line, 4)
            sweep = dispersion_sweep(scheme(4, 1.0, 1, "dg"), line, 0.0, 0.0, line_k_hat)
            omega += a * sweep.omega_physical[-1]
        assert abs(omega * factor - self.expected()) < 1e-9

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="tracking the summed 2D modes hops branches at a resolved k_hat when the "
        "grid starts at 0.1; ROADMAP direction 2 (track each direction in 1D) mends it",
    )
    def test_summed_sweep_does_not_depend_on_the_grid(self):
        expected = self.expected()
        for grid in self.GRIDS:
            sweep = dispersion_sweep(scheme(4, 1.0, 2, "dg"), self.STENCIL, self.THETA, 0.0, grid)
            assert abs(sweep.omega_hat_physical[-1] - expected) < 1e-9
