"""Update operators, CFL limits, fully-discrete spectra."""
from functools import cache

import numpy as np
import pytest

from frspectra.basis import CorrectionFamily
from frspectra import spectrum, temporal
from frspectra.operator import (
    DirectionSymbols,
    SchemeConfig,
    StretchedStencil,
    WaveProbe,
    assemble_symbol,
    symbol_for,
)
from frspectra.spectrum import (
    _anchor_ladder,
    analyze,
    dispersion_sweep,
    factored_spectra,
    normalization_factor,
    track_branches,
)
from frspectra.temporal import (
    EULER,
    RHO_TOL,
    RK33,
    RK44,
    CflResult,
    RkScheme,
    _golden_sections,
    build_update,
    cfl_limit,
    fully_discrete_spectrum,
    fully_discrete_sweep,
    rk_from_name,
)


def scheme(p, alpha=1.0, d=1):
    return SchemeConfig(p, CorrectionFamily.huynh_g2(p), alpha, d)


def dense_fully_discrete_sweep(sch, stencil, rk, tau, theta, k_hat):
    """Physical omega and kappa from eig(R(tau Q)) of the dense symbol at every
    k, tracked from the mode with the largest plane-wave weight |beta| of
    analyze() at the first k."""
    factor = normalization_factor(theta, 0.0, stencil, sch.p)
    lead = _anchor_ladder(k_hat[0])
    ks = np.concatenate((lead, k_hat)) / factor
    amp_sets, kappas = [], []
    for k in ks:
        update = build_update(symbol_for(sch, stencil, WaveProbe(k=k, theta=theta)), rk, tau)
        r_eigs, vecs = np.linalg.eig(update.R)
        amp_sets.append(np.exp(1j * k * tau) * r_eigs)
        sv = np.linalg.svd(vecs, compute_uv=False)
        kappas.append(sv[0] / sv[-1])
        if k == ks[0]:
            first_vecs = vecs
    tracked_amp = track_branches(amp_sets)
    args = np.unwrap(np.angle(tracked_amp), axis=0)
    omega = ks[:, None] - args / tau + 1j * np.log(np.abs(tracked_amp)) / tau
    # R(tau Q) has the eigenvectors of Q: the anchor is the column along that mode
    first = analyze(symbol_for(sch, stencil, WaveProbe(k=ks[0], theta=theta)))
    overlap = np.abs(first_vecs.conj().T @ first.eigvecs[:, first.physical_index])
    return omega[lead.size:, int(np.argmax(overlap))], np.array(kappas[lead.size:])


def _golden_max(f, a, b, iters=30):
    """Golden-section maximization of a scalar f on [a, b]: one bracket of
    :func:`~frspectra.temporal._golden_sections`, one point per call of f."""
    def values(_, points):
        return [[f(x) for x in row] for row in points]
    return _golden_sections(values, {0: (a, b)}, iters)[0]


def reference_cfl_limit(scheme, stencil, rk, theta=0.0, phi=0.0):
    """The CFL search with a refined supremum at every bisection step.

    Kept verbatim as the oracle for :func:`~frspectra.temporal.cfl_limit`,
    which refines only when the k grid cannot decide a step. Both search in
    k_hat through the same ``factored_spectra``, on the grid and at every
    probe, and report ``worst_k`` as k = k_hat / F, so their search logic
    is compared by exact ``==``. It reads the grid size and the bisection
    width from the module's constants when called, as the search does.
    """
    symbols = DirectionSymbols(scheme, stencil, theta, phi)
    factor = normalization_factor(theta, phi, stencil, scheme.p)
    ks = np.linspace(0.0, np.pi, temporal.CFL_GRID_POINTS + 1)[1:]
    lam_grid = factored_spectra(symbols, ks)[0]

    @cache
    def eigenvalues(k: float) -> np.ndarray:
        return factored_spectra(symbols, np.array([k]))[0][0]

    def rho(tau: float, k: float) -> float:
        return float(np.abs(rk.stability(tau * eigenvalues(k))).max())

    vel = WaveProbe(k=1.0, theta=theta, phi=phi).velocity(scheme.d)
    ratios = [vel[m] / stencil.delta[m] for m in range(scheme.d)]
    cfl_per_tau = float(sum(ratios))
    crossing_per_tau = float(max(ratios))

    lam_scale = float(np.abs(lam_grid).max())
    re_max = float(lam_grid.real.max())
    if re_max > RHO_TOL * max(1.0, lam_scale):
        worst = float(ks[int(np.argmax(lam_grid.real.max(axis=1)))]) / factor
        return CflResult(0.0, 0.0, worst, stable=False)

    def sup_rho(tau: float) -> tuple[float, float]:
        rho_grid = np.abs(rk.stability(tau * lam_grid)).max(axis=1)
        j = int(np.argmax(rho_grid))
        best_k, best_rho = float(ks[j]), float(rho_grid[j])
        lo = ks[j - 1] if j > 0 else ks[0] * 0.5
        hi = ks[j + 1] if j + 1 < ks.size else np.pi
        k_ref, rho_ref = _golden_max(lambda k: rho(tau, k), lo, hi)
        if rho_ref > best_rho:
            best_k, best_rho = k_ref, rho_ref
        return best_rho, best_k / factor

    def exceeds(tau: float) -> bool:
        return sup_rho(tau)[0] > 1.0 + RHO_TOL

    tau_hi = 1.0 / lam_scale
    for _ in range(200):
        if exceeds(tau_hi):
            break
        tau_hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the stability boundary from above")
    tau_lo = tau_hi / 2.0
    while exceeds(tau_lo):
        tau_lo /= 2.0
        if tau_lo < 1e-300:
            # unstable for every positive step despite a left-half-plane
            # spectrum; report as a flagged zero limit
            return CflResult(0.0, 0.0, sup_rho(tau_hi)[1], stable=False)
    while (tau_hi - tau_lo) > temporal.CFL_REL_TOL * tau_hi:
        mid = 0.5 * (tau_lo + tau_hi)
        if exceeds(mid):
            tau_hi = mid
        else:
            tau_lo = mid
    _, worst_k = sup_rho(tau_hi)
    return CflResult(
        cfl_limit=tau_lo * cfl_per_tau,
        tau_limit=tau_lo,
        worst_k=worst_k,
        stable=True,
        cfl_crossing=tau_lo * crossing_per_tau,
    )


def counting_stability(monkeypatch):
    """Count ``RkScheme.stability`` calls from here on, in a one-element list."""
    calls, stability = [0], RkScheme.stability

    def spy(self, z):
        calls[0] += 1
        return stability(self, z)

    monkeypatch.setattr(RkScheme, "stability", spy)
    return calls


def search_log(monkeypatch):
    """Log each step ``cfl_limit`` evaluates, as (name, tau, value) in call order.

    A ``grid_rho`` entry wraps the ``functools.cache`` the search applies to
    its grid evaluation, so it is a cache miss: a step's grid evaluated once.
    A ``sup_rho`` entry wraps ``_golden_sections``: one per step whose golden
    section ran, in the order of the lockstep's keys, valued (rho, k_hat) at
    the best point that section found.
    """
    log = []

    def logged_cache(fn):
        if fn.__name__ != "grid_rho":
            return cache(fn)

        def spy(tau):
            out = fn(tau)
            log.append((fn.__name__, tau, out))
            return out
        return cache(spy)

    sections = temporal._golden_sections

    def logged_sections(f, brackets, *args, **kwargs):
        out = sections(f, brackets, *args, **kwargs)
        log.extend(("sup_rho", tau, (value, k)) for tau, (k, value) in out.items())
        return out

    monkeypatch.setattr(temporal, "cache", logged_cache)
    monkeypatch.setattr(temporal, "_golden_sections", logged_sections)
    return log


GRID = temporal.CFL_GRID_POINTS  # the k grid of cfl_limit


class RecordingRk:
    """An RK scheme that logs the spectral-radius maximum of each k-grid evaluation.

    A lockstep batch of refinement probes is 2-D too, one row per probe,
    but holds at most two probes per step, so only a stack of ``GRID`` rows
    is the whole k grid at one tau.
    """

    def __init__(self, rk, events):
        self.rk, self.events = rk, events

    def stability(self, z):
        out = self.rk.stability(z)
        if np.ndim(z) == 2 and len(z) == GRID:
            self.events.append(("grid", float(np.abs(out).max()), z.tobytes()))
        return out


class TestRkSchemes:
    def test_rk33_polynomial(self):
        assert RK33.coeffs == (1.0, 1.0, 0.5, 1.0 / 6.0)

    def test_names(self):
        assert rk_from_name("RK44") is RK44
        assert rk_from_name("euler") is EULER
        with pytest.raises(ValueError):
            rk_from_name("rk99")

    def test_r_of_zero_is_one(self):
        for rk in (EULER, RK33, RK44):
            assert rk.stability(np.array([0.0])).tolist() == [1.0 + 0j]

    @pytest.mark.parametrize("rk", [EULER, RK33, RK44], ids=lambda rk: rk.name)
    def test_in_place_horner_has_the_bits_of_the_expression(self, rk):
        def expression(z):  # out = out * z + c, a fresh array at every stage
            out = rk.coeffs[-1]
            for c in rk.coeffs[-2::-1]:
                out = out * z + c
            return out

        signed_zeros = np.array([0.0, -0.0, 0j, -0j, complex(0.0, -0.0), complex(-0.0, -0.0)])
        mixed = np.array([[1.5 - 0.25j, -2.0 + 3.0j, -0.0 - 0.0j], [1e-300j, -7.5, 2.0 + 1e10j]])
        frozen = (0.3 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 9)) - 0.1).reshape(3, 3)
        frozen.setflags(write=False)  # as the spectrum memo returns its arrays
        for z in (signed_zeros, mixed, frozen):
            before = z.tobytes()
            out = rk.stability(z)
            assert out.dtype == complex and out.tobytes() == expression(z).tobytes()
            assert z.tobytes() == before
        for z in (complex(-0.75, 1.25), np.complex128(-0.75 + 1.25j), complex(-0.0, -0.0)):
            out = rk.stability(z)
            assert type(out) is type(z * 1.0)
            assert np.complex128(out).tobytes() == np.complex128(expression(z)).tobytes()

    def test_rk44_imaginary_axis_interval(self):
        # |R| <= 1 exactly for tau*lambda <= 2*sqrt(2) on the imaginary axis
        y = np.linspace(0.0, 2 * np.sqrt(2), 200)
        assert np.all(np.abs(RK44.stability(1j * y)) <= 1.0 + 1e-12)
        assert np.abs(RK44.stability(1j * (2 * np.sqrt(2) + 1e-3))) > 1.0


class TestUpdateOperator:
    def test_identity_limit(self):
        sym = symbol_for(scheme(3), StretchedStencil.uniform(1), WaveProbe(k=2.0))
        up = build_update(sym, RK44, 1e-12)
        assert np.abs(up.R - np.eye(4)).max() < 1e-10

    def test_euler_p0_unit_cfl(self):
        # first-order upwind with forward Euler at tau = delta: |R| = 1 for all k
        sch = SchemeConfig(0, CorrectionFamily.dg(0), 1.0, 1)
        delta = 0.9
        stencil = StretchedStencil(1, (delta,), (1.0,))
        for k in np.linspace(0.1, 2 * np.pi / delta, 17):
            sym = symbol_for(sch, stencil, WaveProbe(k=k))
            up = build_update(sym, EULER, delta)
            expected = 1.0 - (1.0 - np.exp(-1j * k * delta))
            assert abs(up.R[0, 0] - expected) < 1e-14
            assert abs(abs(up.R[0, 0]) - abs(expected)) < 1e-14

    def test_update_spectrum_equals_polynomial_of_eigenvalues(self):
        sym = symbol_for(scheme(3, 1.0, 2), StretchedStencil.uniform(2), WaveProbe(k=1.7, theta=0.5))
        tau = 0.1
        up = build_update(sym, RK44, tau)
        direct = np.sort_complex(np.linalg.eigvals(up.R))
        mapped = np.sort_complex(RK44.stability(tau * np.linalg.eigvals(sym.Q)))
        assert np.abs(direct - mapped).max() < 1e-10

    def test_rejects_bad_tau(self):
        sym = symbol_for(scheme(2), StretchedStencil.uniform(1), WaveProbe(k=1.0))
        with pytest.raises(ValueError):
            build_update(sym, RK44, 0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_rejects_non_finite_tau(self, tau):
        sym = symbol_for(scheme(2), StretchedStencil.uniform(1), WaveProbe(k=1.0))
        with pytest.raises(ValueError, match="finite"):
            build_update(sym, RK44, tau)

    def test_overflow_reported(self):
        sym = symbol_for(scheme(2), StretchedStencil.uniform(1), WaveProbe(k=1.0))
        with pytest.raises(OverflowError):
            build_update(sym, RK44, 1e200)


class TestCflLimit:
    def test_boundary_brackets(self):
        sch = scheme(3)
        stencil = StretchedStencil.uniform(1)
        res = cfl_limit(sch, stencil, RK44)
        assert res.stable
        lam = {}

        def sup_rho(tau):
            worst = 0.0
            for k in np.linspace(1e-3, 4 * np.pi, 801):
                if k not in lam:
                    lam[k] = np.linalg.eigvals(
                        symbol_for(sch, stencil, WaveProbe(k=k)).Q
                    )
                worst = max(worst, np.abs(RK44.stability(tau * lam[k])).max())
            return worst

        assert sup_rho(res.tau_limit * (1 - 1e-6)) <= 1.0 + 1e-9
        assert sup_rho(res.tau_limit * (1 + 1e-3)) > 1.0 + 1e-9

    def test_scale_invariance(self):
        sch = scheme(3, 1.0, 2)
        r1 = cfl_limit(sch, StretchedStencil(2, (1.0,) * 2, (1.0,) * 2), RK44, 0.4)
        r2 = cfl_limit(sch, StretchedStencil(2, (3.0,) * 2, (1.0,) * 2), RK44, 0.4)
        assert abs(r1.cfl_limit - r2.cfl_limit) < 1e-3 * r1.cfl_limit
        assert abs(r2.tau_limit - 3.0 * r1.tau_limit) < 1e-3 * r2.tau_limit

    def test_factored_eigenvalues_match_dense(self, monkeypatch):
        # the eigenvalues the search evaluates, on the grid and in the
        # golden-section refinement, give the dense spectral radius
        sch = scheme(4, 1.0, 2)
        stencil = StretchedStencil.stretched((0.9, 0.95))
        factored, calls = temporal.factored_spectra, []

        def recording(*args, **kwargs):
            out = factored(*args, **kwargs)
            calls.append((args[1], out[0]))
            return out

        monkeypatch.setattr(temporal, "factored_spectra", recording)
        cfl_limit(sch, stencil, RK44, 0.5)
        factor = normalization_factor(0.5, 0.0, stencil, sch.p)
        grid_ks, grid_lam = calls[0][0] / factor, calls[0][1]
        rows = [int(np.argmin(np.abs(grid_ks - k))) for k in (0.4, 2.5, 7.0)]
        evaluated = [(grid_ks[j], grid_lam[j]) for j in rows]
        evaluated += [(k_hat[0] / factor, lam[0]) for k_hat, lam in calls[1:4]]
        for k, lam in evaluated:
            dense = np.linalg.eigvals(symbol_for(sch, stencil, WaveProbe(k=k, theta=0.5)).Q)
            for tau in (0.05, 0.2):
                expected = np.abs(RK44.stability(tau * dense)).max()
                assert abs(np.abs(RK44.stability(tau * lam)).max() - expected) < 1e-12

    @pytest.mark.parametrize(
        "d, gamma, angles",
        [(2, (0.9, 0.95), (0.5, 0.0)), (3, (0.95, 1.0, 0.9), (0.5, 0.4))],
    )
    def test_limit_matches_dense_eigenvalue_search(self, monkeypatch, d, gamma, angles):
        sch = scheme(3 if d == 2 else 2, 1.0, d)
        stencil = StretchedStencil.stretched(gamma)
        factored = cfl_limit(sch, stencil, RK44, *angles)

        def dense_spectra(symbols, k_hat, with_kappa=False, memo=True):
            scheme, stencil, theta, phi = (
                symbols.scheme, symbols.stencil, symbols.theta, symbols.phi
            )
            factor = normalization_factor(theta, phi, stencil, scheme.p)
            return np.array([
                np.linalg.eigvals(
                    assemble_symbol(scheme, stencil, WaveProbe(k=k, theta=theta, phi=phi)).Q
                )
                for k in np.asarray(k_hat) / factor
            ]), None

        monkeypatch.setattr(temporal, "factored_spectra", dense_spectra)
        dense = cfl_limit(sch, stencil, RK44, *angles)
        assert factored.stable and dense.stable
        assert abs(factored.tau_limit - dense.tau_limit) < 1e-12 * dense.tau_limit

    def test_accepts_any_integer_grid_size(self, monkeypatch):
        # the grid size is read when the search runs: a numpy integer gives
        # the default's result, and one point still finds a stable limit
        sch, stencil = scheme(2), StretchedStencil.uniform(1)
        default = cfl_limit(sch, stencil, RK44)
        monkeypatch.setattr(temporal, "CFL_GRID_POINTS", np.int64(257))
        assert cfl_limit(sch, stencil, RK44) == default
        monkeypatch.setattr(temporal, "CFL_GRID_POINTS", 1)
        assert cfl_limit(sch, stencil, RK44).stable

    @pytest.mark.parametrize("rel_tol", [1e-2, 1e-3, 1e-6])
    def test_bisection_stops_at_the_module_tolerance(self, rel_tol, monkeypatch):
        # the limit is the stable end of a bracket of relative width
        # CFL_REL_TOL, which holds the limit of any finer bisection
        args = (scheme(3, 1.0, 2), StretchedStencil.stretched((0.9, 0.95)), RK44, 0.5)
        monkeypatch.setattr(temporal, "CFL_REL_TOL", 1e-10)
        fine = cfl_limit(*args).tau_limit
        monkeypatch.setattr(temporal, "CFL_REL_TOL", rel_tol)
        coarse = cfl_limit(*args).tau_limit
        assert coarse <= fine <= coarse / (1.0 - rel_tol)

    def test_one_eigvals_call_per_lockstep_step(self, monkeypatch):
        # the grid is solved in one call per direction; the refinement of
        # both bracket ends in one call per golden-section step, over both
        # directions, holding each probed wavenumber the first time only
        sizes, probed, eigvals = [], [], np.linalg.eigvals

        def counting(q):
            sizes.append(q.shape[:-2])
            return eigvals(q)

        def sections(f, brackets, **kw):
            def recording(keys, points):
                probed.extend(k for row in points for k in row)
                return f(keys, points)
            return _golden_sections(recording, brackets, **kw)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        monkeypatch.setattr(temporal, "_golden_sections", sections)
        spectrum._line_spectra.cache_clear()
        args = (scheme(4, 1.0, 2), StretchedStencil.stretched((0.9, 0.95)), RK44, 0.5)
        res = cfl_limit(*args)
        assert res.stable
        assert sizes[:2] == [(257,)] * 2  # the whole k grid in one call per direction
        assert len(sizes[2:]) == 31  # both ends' 2 + 30 golden-section points
        assert all(size[1:] == (2,) for size in sizes[2:])
        assert sum(size[0] for size in sizes[2:]) == len(set(probed))
        assert len(probed) > len(set(probed)) > 0  # revisits come from the cache
        sizes.clear()
        assert cfl_limit(*args) == res
        assert (257,) not in sizes  # the grid's 1D spectra come from the memo

    def test_search_adds_only_grids_to_the_spectrum_memo(self):
        # the refinement's probes never enter the memo, and on a uniform
        # stencil the leading direction's grid is the same at every angle
        sch, stencil = SchemeConfig(4, CorrectionFamily.dg(4), 1.0, 2), StretchedStencil.uniform(2)
        spectrum._line_spectra.cache_clear()
        assert cfl_limit(sch, stencil, RK44, 0.5).stable
        first = spectrum._line_spectra.cache_info()
        assert (first.hits, first.misses, first.currsize) == (0, 2, 2)  # one grid per direction
        assert cfl_limit(sch, stencil, RK44, 0.3).stable
        again = spectrum._line_spectra.cache_info()
        assert (again.hits, again.misses, again.currsize) == (1, 3, 3)  # the other direction's

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP direction 6, defect 4: the refinement brackets only the grid's peak, "
        "so rho above the bound below the first grid wavenumber goes unseen",
    )
    def test_no_step_above_the_bound_below_the_first_grid_wavenumber(self):
        sch, stencil = SchemeConfig(5, CorrectionFamily.dg(5), 1.0, 2), StretchedStencil.uniform(2)
        res = cfl_limit(sch, stencil, RK44, 0.4)
        if res.tau_limit != 0.05619324217242684:  # a moved step is a plain failure, not this one
            pytest.fail(f"the search moved to tau = {res.tau_limit!r}")
        k_hat = np.geomspace(1e-6, np.pi / 257, 400)
        lam = factored_spectra(DirectionSymbols(sch, stencil, 0.4, 0.0), k_hat, memo=False)[0]
        rho = np.abs(RK44.stability(res.tau_limit * lam)).max(axis=1)
        # today 1 + 1.83e-4, reached at k_hat = 1e-6
        assert rho.max() <= 1.0 + RHO_TOL

    def test_expanding_grid_flagged_zero(self):
        res = cfl_limit(scheme(4), StretchedStencil.stretched((1.2,)), RK44)
        assert not res.stable
        assert res.cfl_limit == 0.0 and res.tau_limit == 0.0

    def test_euler_central_matches_scalar_imaginary_test(self):
        # purely imaginary spectrum; Euler admits only the origin, so the
        # bisected limit must match |1 + i tau y| = 1 + tol on the worst mode
        sch = scheme(2, 0.5)
        stencil = StretchedStencil.uniform(1)
        res = cfl_limit(sch, stencil, EULER)
        y_max = 0.0
        for k in np.linspace(1e-3, 3 * np.pi, 601):
            y_max = max(
                y_max,
                np.abs(np.linalg.eigvals(symbol_for(sch, stencil, WaveProbe(k=k)).Q).imag).max(),
            )
        tau_scalar = np.sqrt((1 + 1e-9) ** 2 - 1) / y_max
        assert abs(res.tau_limit - tau_scalar) < 2e-4 * tau_scalar

    def test_rk33_central_matches_imaginary_interval(self):
        # RK33 is marginally stable on the imaginary axis up to sqrt(3)
        sch = scheme(2, 0.5)
        stencil = StretchedStencil.uniform(1)
        res = cfl_limit(sch, stencil, RK33)
        y_max = 0.0
        for k in np.linspace(1e-3, 3 * np.pi, 601):
            y_max = max(
                y_max,
                np.abs(np.linalg.eigvals(symbol_for(sch, stencil, WaveProbe(k=k)).Q).imag).max(),
            )
        assert abs(res.tau_limit - np.sqrt(3) / y_max) < 5e-3 * res.tau_limit

    def test_rho_monotone_beyond_boundary(self):
        sch = scheme(3)
        stencil = StretchedStencil.uniform(1)
        res = cfl_limit(sch, stencil, RK44)
        k = res.worst_k
        lam = np.linalg.eigvals(symbol_for(sch, stencil, WaveProbe(k=k)).Q)
        rhos = [
            np.abs(RK44.stability(t * lam)).max()
            for t in res.tau_limit * np.array([1.0, 1.1, 1.3, 1.6, 2.0])
        ]
        assert np.all(np.diff(rhos) > 0)

    def test_minimum_crossing_cfl_at_diagonal(self):
        sch = scheme(4, 1.0, 2)
        vals = {}
        for deg in range(0, 91, 5):
            res = cfl_limit(sch, StretchedStencil.uniform(2), RK44, np.radians(deg))
            vals[deg] = res.cfl_crossing
        argmin = min(vals, key=vals.get)
        assert abs(argmin - 45) <= 5
        assert abs(vals[0] - vals[90]) < 2e-3 * vals[0]


class TestCflShortCircuit:
    """``cfl_limit`` refines only when the k grid cannot decide a step."""

    @pytest.mark.parametrize(
        "gamma",
        [(1.0, 1.0), (0.9, 0.95), (0.95, 1.0, 0.9), (1.0, 1.0, 1.0)],
        ids=["uniform", "stretched", "3d-stretched", "3d-uniform"],
    )
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("rk", [EULER, RK33, RK44], ids=lambda rk: rk.name)
    def test_equals_reference(self, rk, p, alpha, gamma, monkeypatch):
        d = len(gamma)
        angles = (0.5, 0.0) if d == 2 else (0.5, 0.4)
        args = (scheme(p, alpha, d), StretchedStencil(d, (1.0, 0.5, 0.8)[:d], gamma), rk, *angles)
        calls = counting_stability(monkeypatch)
        res = cfl_limit(*args)
        if alpha == 0.5 and gamma != (1.0,) * d:
            # central flux on these stretched stencils has Re lambda above
            # RHO_TOL: the search returns the flagged result before any grid
            assert not res.stable and calls == [0]
        assert res == reference_cfl_limit(*args)

    @pytest.mark.parametrize(
        "delta,angles,expected",
        [((1.0, 0.5), (0.5, 0.0), 0.310901), ((1.0, 0.7, 0.5), (0.5, 0.4), 0.315539)],
        ids=["2d", "3d"],
    )
    def test_central_flux_reaches_the_bisection(self, delta, angles, expected, monkeypatch):
        d = len(delta)
        args = (scheme(3, 0.5, d), StretchedStencil(d, delta, (1.0,) * d), RK44, *angles)
        calls = counting_stability(monkeypatch)
        res = cfl_limit(*args)
        # 16 grid steps, then both ends' golden sections in 1 + 30 lockstep steps
        assert res.stable and calls == [16 + 31]
        assert abs(res.cfl_limit - expected) < 5e-7
        assert res == reference_cfl_limit(*args)

    def test_expanding_grid_equals_reference(self):
        args = (scheme(2, 1.0, 2), StretchedStencil(2, (1.0, 0.5), (1.2, 1.0)), RK44, 0.5)
        res = cfl_limit(*args)
        assert not res.stable
        assert res == reference_cfl_limit(*args)

    def test_3d_equals_reference(self):
        args = (scheme(2, 1.0, 3), StretchedStencil.stretched((0.95, 1.0, 0.9)), RK44, 0.5, 0.4)
        res = cfl_limit(*args)
        assert res.stable
        assert res == reference_cfl_limit(*args)

    @pytest.mark.parametrize("nk", [1, 2, 3, 33, 1025])
    @pytest.mark.parametrize(
        "args",
        [
            (scheme(2, 1.0, 1), StretchedStencil.uniform(1), RK44),
            (scheme(3, 1.0, 2), StretchedStencil.stretched((0.9, 0.95)), RK33, 0.5),
        ],
        ids=["1d-uniform", "2d-stretched"],
    )
    def test_any_grid_size_equals_reference(self, args, nk, monkeypatch):
        # the refinement's bracket at the first and last grid point, which a
        # grid of one to three points always reaches
        monkeypatch.setattr(temporal, "CFL_GRID_POINTS", nk)
        res = cfl_limit(*args)
        assert res.stable
        assert res == reference_cfl_limit(*args)

    def test_halving_bracket_equals_reference(self):
        # Euler with central fluxes is stable only within the roundoff
        # allowance, so the first trial step 1/max|lambda| already exceeds
        events = []
        sch, stencil = scheme(2, 0.5, 2), StretchedStencil.uniform(2)
        res = cfl_limit(sch, stencil, RecordingRk(EULER, events), 0.5)
        assert events[0][0] == "grid" and events[0][1] > 1.0 + RHO_TOL
        assert res.stable
        assert res == reference_cfl_limit(sch, stencil, EULER, 0.5)

    def test_halving_to_the_floor_is_a_flagged_zero(self):
        class AmplifiesEverywhere:  # |R| = 2 at every step and wavenumber
            def stability(self, z):
                return 2.0 + 0.0 * z

        args = (scheme(2, 1.0, 2), StretchedStencil.uniform(2), AmplifiesEverywhere(), 0.5)
        res = cfl_limit(*args)
        assert not res.stable and res.tau_limit == res.cfl_limit == res.cfl_crossing == 0.0
        assert res == reference_cfl_limit(*args)

    def test_refines_only_undecided_steps(self, monkeypatch):
        # the grid decides every step, so only the two bracket ends refine
        self.check_schedule(monkeypatch, 4)

    def test_worst_k_reuses_the_final_refinement(self, monkeypatch):
        # the refinement overturns the grid's lower end, and the full search
        # refines the final upper end, so worst_k reuses that refinement
        self.check_schedule(monkeypatch, 5)

    @pytest.mark.parametrize(
        "sch,theta,rk",
        [
            (scheme(2, 1.0, 2), 0.5, EULER),
            (SchemeConfig(3, CorrectionFamily.dg(3), 1.0, 2), np.radians(30.0), RK44),
        ],
        ids=["euler-upwind", "rk44-dg"],
    )
    def test_overturned_lower_end_runs_the_full_search(self, sch, theta, rk, monkeypatch):
        stencil = StretchedStencil(2, (1.0, 0.5), (1.0, 1.0))
        log = search_log(monkeypatch)
        res = cfl_limit(sch, stencil, rk, theta)
        refined = [(tau, out) for name, tau, out in log if name == "sup_rho"]
        # the first refinement, at the grid-only lower end, exceeds the bound,
        # so the full search runs and refines below that end
        assert refined[0][1][0] > 1.0 + RHO_TOL and len(refined) > 2
        assert res.stable and res.tau_limit < refined[0][0]
        assert res == reference_cfl_limit(sch, stencil, rk, theta)

    @staticmethod
    def check_schedule(monkeypatch, p):
        sch, stencil = scheme(p, 1.0, 2), StretchedStencil.stretched((0.9, 0.95))
        grids = []
        solves, calls = {"cfl_limit": 0, "reference": 0}, {"cfl_limit": 0, "reference": 0}

        def counting(key, solve):
            def spy(symbols, k_hat, *a, **kw):
                if k_hat.size < GRID:  # refinement probes
                    solves[key] += k_hat.size
                    calls[key] += 1
                return solve(symbols, k_hat, *a, **kw)
            return spy

        monkeypatch.setattr(temporal, "factored_spectra", counting("cfl_limit", factored_spectra))
        log = search_log(monkeypatch)
        res = cfl_limit(sch, stencil, RecordingRk(RK44, grids), 0.5)
        monkeypatch.setitem(globals(), "factored_spectra", counting("reference", factored_spectra))
        assert res == reference_cfl_limit(sch, stencil, RK44, 0.5)

        # no tau has its grid evaluated twice, and each refinement runs once
        names = [name for name, _, _ in log]
        grid_taus = [tau for name, tau, _ in log if name == "grid_rho"]
        refined = {tau: out for name, tau, out in log if name == "sup_rho"}
        assert len(grids) == len(grid_taus) == len({g[2] for g in grids})
        assert len(refined) == names.count("sup_rho")
        # the grid-only search evaluates grids alone, then refines its lower end
        first = names.index("sup_rho")
        assert set(names[:first]) == {"grid_rho"}
        tau_g = max(tau for _, tau, out in log[:first] if out.max() <= 1.0 + RHO_TOL)
        rho_g = log[first][2][0]
        assert log[first][1] == tau_g
        # the final upper end is the smallest step above the limit, and
        # worst_k is its refined peak: the golden section's best point, or
        # the grid's peak where that is higher
        tau_hi = min(tau for _, tau, _ in log if tau > res.tau_limit)
        assert tau_hi - res.tau_limit <= 1e-4 * tau_hi
        rho_ref, k_ref = refined[tau_hi]
        rho_grid = next(out for name, tau, out in log if name == "grid_rho" and tau == tau_hi)
        j = int(np.argmax(rho_grid))
        k_peak = k_ref if rho_ref > rho_grid[j] else np.linspace(0.0, np.pi, GRID + 1)[j + 1]
        factor = normalization_factor(0.5, 0.0, stencil, p)
        assert res.worst_k == k_peak / factor and type(res.worst_k) is float
        if p == 4:  # confirmed: both bracket ends refine in lockstep, after the grids
            assert rho_g <= 1.0 + RHO_TOL and tau_g == res.tau_limit
            assert names == ["grid_rho"] * first + ["sup_rho"] * 2
            assert list(refined) == [res.tau_limit, tau_hi]
            assert calls["cfl_limit"] == 31 and calls["reference"] == solves["reference"]
            assert 0 < solves["cfl_limit"] < solves["reference"]
        else:  # overturned: the full search reruns over the cached grids
            assert rho_g > 1.0 + RHO_TOL and tau_hi == tau_g
            assert len(refined) > 2
            # its refinements solve each wavenumber the reference solves, once
            assert 0 < calls["cfl_limit"] < solves["cfl_limit"] == solves["reference"]


class TestFullyDiscrete:
    def test_tau_to_zero_consistency_first_order(self):
        sym = symbol_for(scheme(3), StretchedStencil.uniform(1), WaveProbe(k=2.0))
        semi = dispersion_sweep(
            scheme(3), StretchedStencil.uniform(1), k_hat=np.array([2.0 * 0.25])
        ).omega_physical[0]
        errs = []
        for tau in (2e-3, 1e-3):
            fd = fully_discrete_spectrum(sym, RK44, tau)
            errs.append(abs(fd.modes[fd.physical_index] - semi))
        assert errs[1] < 0.6 * errs[0]

    def test_sentinel_for_annihilated_mode(self):
        # a mode Euler annihilates exactly (R = 1 + tau*q = 0) reports
        # -inf dissipation instead of raising on log(0)
        from frspectra.operator import SemiDiscreteSymbol

        sch = SchemeConfig(0, CorrectionFamily.dg(0), 1.0, 1)
        sym = SemiDiscreteSymbol(
            Q=np.array([[-2.0 + 0.0j]]),
            probe=WaveProbe(k=1.0),
            stencil=StretchedStencil.uniform(1),
            scheme=sch,
        )
        res = fully_discrete_spectrum(sym, EULER, 0.5)
        assert res.modes[0].imag == -np.inf
        assert np.isfinite(res.modes[0].real)

    def test_ill_conditioned_uses_shared_threshold(self, monkeypatch):
        sym = symbol_for(scheme(2), StretchedStencil.uniform(1), WaveProbe(k=1.0))
        assert not fully_discrete_spectrum(sym, RK44, 1e-2).ill_conditioned
        monkeypatch.setattr(temporal, "KAPPA_ILL_CONDITIONED", 0.5)
        assert fully_discrete_spectrum(sym, RK44, 1e-2).ill_conditioned

    def test_finite_modes_in_regular_case(self):
        sym = symbol_for(scheme(1), StretchedStencil.uniform(1), WaveProbe(k=1.0))
        res = fully_discrete_spectrum(sym, RK44, 1e-2)
        assert np.all(np.isfinite(res.modes.real))
        assert np.all(np.isfinite(res.modes.imag))

    def test_expanding_instability_persists_fully_discrete(self):
        sch = scheme(3, 1.0, 2)
        stencil = StretchedStencil(2, (1.0, 1.0), (1.1, 1.0))
        fd = fully_discrete_sweep(
            sch, stencil, RK44, 0.18, np.radians(20), 0.0, np.linspace(0.02, 1.2, 16)
        )
        assert fd.omega_hat_physical.imag.max() > 1e-4

    def test_large_tau_reduces_high_k_dissipation(self):
        sch = scheme(3)
        stencil = StretchedStencil.uniform(1)
        band = np.linspace(1.6, 2.2, 8)
        semi = dispersion_sweep(sch, stencil, k_hat=band)
        fd = fully_discrete_sweep(sch, stencil, RK44, 0.18, k_hat=band)
        assert (
            np.abs(fd.omega_hat_physical.imag).mean()
            < np.abs(semi.omega_hat_physical.imag).mean()
        )

    def test_small_tau_matches_semi_discrete_everywhere(self):
        sch = scheme(2, 1.0, 2)
        stencil = StretchedStencil.uniform(2)
        khat = np.linspace(0.1, 2.8, 12)
        semi = dispersion_sweep(sch, stencil, 0.3, 0.0, khat)
        fd = fully_discrete_sweep(sch, stencil, RK44, 1e-4, 0.3, 0.0, khat)
        rel = np.abs(fd.omega_physical - semi.omega_physical) / np.abs(semi.omega_physical)
        assert rel.max() < 1e-6

    def test_sweep_matches_dense_update_eigenvalues(self):
        sch = scheme(3, 1.0, 2)
        stencil = StretchedStencil.stretched((1.1, 0.9))
        theta, khat = np.radians(20), np.linspace(0.05, 2.8, 24)
        fd = fully_discrete_sweep(sch, stencil, RK44, 0.18, theta, 0.0, khat)
        omega, kappa = dense_fully_discrete_sweep(sch, stencil, RK44, 0.18, theta, khat)
        assert np.abs(fd.omega_physical - omega).max() < 1e-10 * np.abs(omega).max()
        assert np.abs(fd.kappa / kappa - 1.0).max() < 1e-8

    def test_sweep_overflow_reported(self):
        with pytest.raises(OverflowError):
            fully_discrete_sweep(scheme(2), StretchedStencil.uniform(1), RK44, 1e200)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_sweep_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match="finite"):
            fully_discrete_sweep(scheme(2), StretchedStencil.uniform(1), RK44, tau)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda sch, stencil, k_hat: dispersion_sweep(sch, stencil, k_hat=k_hat),
        lambda sch, stencil, k_hat: fully_discrete_sweep(sch, stencil, RK44, 0.1, k_hat=k_hat),
    ],
    ids=["dispersion", "fully_discrete"],
)
@pytest.mark.parametrize(
    "k_hat",
    [[], [2.0, 1.0], [1.0, 1.0], [0.0, 1.0], [-0.5, 1.0], [np.nan], [np.inf], [4.0], [1.0, 3.2]],
)
def test_sweeps_reject_bad_k_hat_grids(sweep, k_hat):
    with pytest.raises(ValueError, match="k_hat must be"):
        sweep(scheme(2), StretchedStencil.uniform(1), np.array(k_hat))
