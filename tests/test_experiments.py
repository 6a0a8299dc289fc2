import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modeweaver import circuit as circuit_mod
from modeweaver import experiments
from modeweaver.circuit import CoincidenceConfig
from modeweaver.errors import (
    FitDiverged,
    InsufficientSpan,
    InvalidInput,
    ModeweaverError,
)
from modeweaver.experiments import (
    GAUSS_FWHM_FACTOR,
    PaperTarget,
    default_delay_grid,
    default_power_grid,
    fit_gaussian,
    fit_sinusoid,
    reproduce_all,
    run_hom_dip,
    run_hom_peak,
    run_noon,
    run_splitting_vs_N,
)
from modeweaver.fock import PhotonPairSource, hom_visibility


class TestGaussianFit:
    def test_exact_recovery(self):
        x = np.arange(-200.0, 201.0, 5.0)
        y = 5.0 + 3.0 * np.exp(-((x - 2.0) ** 2) / (2 * 40.0**2))
        fit = fit_gaussian(x, y)
        assert fit.amplitude == pytest.approx(3.0, abs=1e-8)
        assert fit.center == pytest.approx(2.0, abs=1e-8)
        assert fit.sigma == pytest.approx(40.0, abs=1e-8)
        assert fit.offset == pytest.approx(5.0, abs=1e-8)
        assert fit.fwhm == pytest.approx(GAUSS_FWHM_FACTOR * 40.0, abs=1e-6)
        assert fit.visibility == pytest.approx(0.6, abs=1e-8)

    def test_dip_sign(self):
        x = np.arange(-300.0, 301.0, 10.0)
        y = 1000.0 * (1.0 - 0.9 * np.exp(-(x**2) / (2 * 70.0**2)))
        fit = fit_gaussian(x, y)
        assert fit.amplitude == pytest.approx(-900.0, abs=1e-6)
        assert fit.visibility == pytest.approx(0.9, abs=1e-8)

    def test_noisy_recovery(self, rng):
        sigma_true = 168.0 / GAUSS_FWHM_FACTOR
        x = np.arange(-500.0, 501.0, 10.0)
        clean = 2000.0 * (1.0 - 0.9 * np.exp(-(x**2) / (2 * sigma_true**2)))
        y = clean + rng.normal(scale=0.05 * clean)
        fit = fit_gaussian(x, y)
        assert fit.visibility == pytest.approx(0.9, abs=0.03)
        assert fit.fwhm == pytest.approx(168.0, abs=10.0)

    def test_flat_data(self):
        x = np.linspace(0, 100, 30)
        fit = fit_gaussian(x, np.full_like(x, 7.0))
        assert fit.amplitude == 0.0
        assert fit.offset == pytest.approx(7.0)

    def test_too_few_points(self):
        with pytest.raises(InvalidInput):
            fit_gaussian([0, 1, 2], [1, 2, 1])


class TestSinusoidFit:
    def test_exact_recovery(self):
        x = np.arange(0.0, 4.0001, 0.05)
        y = 10.0 + 4.0 * np.cos(2 * np.pi * x / 1.3 + 0.7)
        fit = fit_sinusoid(x, y)
        assert fit.period == pytest.approx(1.3, abs=1e-8)
        assert fit.amplitude == pytest.approx(4.0, abs=1e-8)
        assert fit.offset == pytest.approx(10.0, abs=1e-8)
        assert math.cos(fit.phase) == pytest.approx(math.cos(0.7), abs=1e-8)
        assert fit.visibility == pytest.approx(0.4, abs=1e-8)

    def test_constant_data(self):
        x = np.linspace(0, 10, 40)
        with pytest.raises(InsufficientSpan):
            fit_sinusoid(x, np.full_like(x, 3.0))

    def test_short_span(self):
        x = np.linspace(0.0, 2.0, 30)
        y = 5.0 + np.cos(2 * np.pi * x / 10.0)
        with pytest.raises(InsufficientSpan):
            fit_sinusoid(x, y)

    def test_noisy_period(self, rng):
        x = np.arange(0.0, 2.6001, 0.05)
        y = 500.0 + 200.0 * np.cos(2 * np.pi * x / 1.3 + 0.2)
        y = y + rng.normal(scale=10.0, size=len(y))
        fit = fit_sinusoid(x, y)
        assert fit.period == pytest.approx(1.3, abs=0.05)

    def test_too_few_points(self):
        with pytest.raises(InvalidInput):
            fit_sinusoid([0, 1, 2], [1, 2, 1])

    def test_repeated_scan_point(self):
        # a zero spacing must not stretch the frequency grid to ~1e12
        x = np.linspace(0.0, 2.6, 53)
        x = np.append(x, x[0])
        y = 500.0 + 200.0 * np.cos(2 * np.pi * x / 1.3 + 0.2)
        fit = fit_sinusoid(x, y)
        assert fit.period == pytest.approx(1.3, abs=1e-8)
        assert fit.amplitude == pytest.approx(200.0, abs=1e-6)


def _loop_best_frequency(x, y, freqs):
    """Reference: one least-squares fit per frequency, first least residual."""
    best_index, best_sse = 0, math.inf
    for i, f in enumerate(freqs):
        _, sse = experiments._harmonic_ls(x, y, f, (1.0,))
        if sse < best_sse:
            best_index, best_sse = i, sse
    return best_index


def _searched_indices(run):
    """Call `run()` and return (periodogram index, reference index) for each
    frequency search it made, on the exact inputs `fit_sinusoid` passed.

    A RuntimeWarning in the search fails the test, and so does a LinAlgError,
    which is not a ModeweaverError and propagates."""
    searches = []
    search = experiments._best_frequency

    def checked_search(x, y, freqs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            index = search(x, y, freqs)
        searches.append((index, _loop_best_frequency(x, y, freqs)))
        return index

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_best_frequency", checked_search)
        try:
            run()
        except ModeweaverError:
            pass  # a fit may fail after its search; the search is what is checked
    return searches


class TestFrequencySearch:
    """The periodogram picks the same grid frequency as per-frequency lstsq."""

    def test_paper_fringe(self):
        searches = _searched_indices(lambda: run_noon(0.66, 0.66))
        assert len(searches) == 1  # the two-photon fringe starts from the classical
        [(index, reference)] = searches
        assert index == reference

    def test_dense_fringe(self):
        grid = np.arange(0.0, 5.2 + 1e-9, 0.005)
        assert len(grid) == 1041
        [(index, reference)] = _searched_indices(
            lambda: run_noon(0.66, 0.66, power_grid=grid)
        )
        assert index == reference

    def test_nyquist_top_frequency(self):
        # every uniform grid ends at Nyquist, where the sin column vanishes;
        # here the data oscillate at Nyquist, so the top frequency wins
        x = np.linspace(0.0, 2.6, 53)
        y = 3.0 + np.cos(np.pi * np.arange(53)) + 0.2 * np.cos(2 * np.pi * x / 1.3)
        [(index, reference)] = _searched_indices(lambda: fit_sinusoid(x, y))
        assert index == reference == 1999

    def test_nonuniform_x(self, rng):
        x = np.sort(rng.uniform(0.0, 5.0, 60))
        y = 3.0 + np.cos(2 * np.pi * x / 0.9) + 0.3 * rng.normal(size=60)
        [(index, reference)] = _searched_indices(lambda: fit_sinusoid(x, y))
        assert index == reference

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(8, 80),
        uniform=st.booleans(),
        cycles=st.floats(1.5, 20.0),
        noise=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noisy_fringes(self, n, uniform, cycles, noise, seed):
        assume(cycles <= n / 4)  # at least four samples per period
        rng = np.random.default_rng(seed)
        x = np.linspace(0.0, 4.0, n) if uniform else np.sort(rng.uniform(0.0, 4.0, n))
        phase = rng.uniform(0.0, 2 * np.pi)
        y = 2.0 + np.cos(2 * np.pi * cycles * x / 4.0 + phase)
        y = y + noise * rng.normal(size=n)
        [(index, reference)] = _searched_indices(lambda: fit_sinusoid(x, y))
        assert index == reference


class TestGaussNewton:
    def test_divergence_reports_cost_and_damping(self):
        x = np.linspace(0.0, 1.0, 20)
        y = np.exp(3.0 * x)

        def residual(p):
            return np.exp(p[0] * x) - y

        def jacobian(p):
            return (x * np.exp(p[0] * x))[:, None]

        with pytest.raises(FitDiverged) as info:
            experiments._damped_gauss_newton(residual, jacobian, [0.0], max_iter=1)
        message = str(info.value)
        assert "no convergence after 1 iterations" in message
        assert "final cost" in message and "damping lambda" in message
        assert "\n" not in message


class TestLeakageFit:
    def test_pure_fundamental(self):
        x = np.arange(0.0, 2.6001, 0.05)
        y = 100.0 + 40.0 * np.cos(2 * np.pi * x / 0.65 + 0.3)
        fit = fit_sinusoid(x, y, leakage_start_period=0.65)
        assert fit.period == pytest.approx(0.65, abs=1e-8)
        assert fit.amplitude == pytest.approx(40.0, abs=1e-6)

    def test_with_subharmonic(self):
        # the half-frequency component must not bias the main period
        x = np.arange(0.0, 2.6001, 0.05)
        y = (
            100.0
            + 40.0 * np.cos(2 * np.pi * x / 0.65 + 0.3)
            + 18.0 * np.cos(np.pi * x / 0.65 - 0.4)
        )
        fit = fit_sinusoid(x, y, leakage_start_period=0.6)
        assert fit.period == pytest.approx(0.65, abs=1e-8)
        assert fit.amplitude == pytest.approx(40.0, abs=1e-6)
        plain = fit_sinusoid(x, y)
        assert abs(plain.period - 0.65) > abs(fit.period - 0.65)


class TestGrids:
    def test_default_grids(self):
        delays = default_delay_grid()
        assert delays[0] == -500.0 and delays[-1] == 500.0
        assert len(delays) == 101
        powers = default_power_grid()
        assert powers[0] == 0.0 and powers[-1] == pytest.approx(2.6)


class TestHomDip:
    def test_visibility_tracks_eta(self):
        for eta in (0.5, 0.55, 0.64):
            result = run_hom_dip(eta)
            expected = 0.92 * hom_visibility(eta)
            assert result.metrics["visibility"] == pytest.approx(expected, abs=1e-3)

    def test_dip_shape(self):
        result = run_hom_dip(0.55)
        assert result.metrics["center_um"] == pytest.approx(0.0, abs=1e-6)
        assert result.metrics["fwhm_um"] == pytest.approx(
            PhotonPairSource().overlap_fwhm_um(), abs=2.0
        )

    def test_scan_result_round_trip(self):
        result = run_hom_dip(0.55)
        assert result.observable in result.counts
        d = result.fit_dict()
        assert d["fit_kind"] == "gaussian"
        assert d["config"]["eta"] == 0.55
        assert set(d["params"]) == {"amplitude", "center", "sigma", "offset"}
        assert set(d["stderr"]) == set(d["params"])
        assert d["residual_norm"] == result.fit.residual_norm


class TestCompileOncePerScan:
    @pytest.fixture
    def compiles(self, monkeypatch):
        calls = []
        compile_circuit = circuit_mod.compile_circuit

        def counting(circuit):
            calls.append(circuit)
            return compile_circuit(circuit)

        monkeypatch.setattr(circuit_mod, "compile_circuit", counting)
        return calls

    def test_dip(self, compiles):
        result = run_hom_dip(0.55, delay_grid=np.linspace(-500.0, 500.0, 101))
        assert len(result.counts["scan_value"]) == 101
        assert len(compiles) == 1

    def test_noon_compiles_once_per_fringe(self, compiles):
        classical, quantum = run_noon(0.66, 0.66)
        assert len(classical.counts["net"]) == len(quantum.counts["net"]) == 53
        assert len(compiles) == 2


class TestSplittingTable:
    def test_rows(self):
        rows = run_splitting_vs_N(0.041, [15, 20, 25])
        by_n = {r["N"]: r for r in rows}
        assert by_n[20]["eta"] == pytest.approx(0.534574224327031, abs=1e-12)
        for n in (15, 20, 25):
            row = by_n[n]
            assert row["visibility_measured"] == pytest.approx(
                0.92 * row["visibility_ideal"], abs=1e-12
            )

    def test_invalid_kappa(self):
        with pytest.raises(InvalidInput):
            run_splitting_vs_N(0.0, [10])


class TestHomPeak:
    def test_enhancement_both_arms(self):
        peaks = run_hom_peak(0.55)
        for arm in ("arm_a", "arm_b"):
            ratio = peaks[arm].metrics["enhancement_ratio"]
            assert ratio == pytest.approx(1.92, abs=1e-3)

    def test_peak_width_matches_dip(self):
        dip = run_hom_dip(0.55)
        peaks = run_hom_peak(0.55)
        assert peaks["arm_a"].metrics["fwhm_um"] == pytest.approx(
            dip.metrics["fwhm_um"], rel=0.02
        )

    def test_eta_bounds(self):
        with pytest.raises(InvalidInput):
            run_hom_peak(0.0)


class TestNoon:
    def test_period_halving_exact(self):
        for eta in (0.5, 0.66):
            _, quantum = run_noon(eta, eta)
            assert quantum.metrics["period_ratio"] == pytest.approx(
                0.5, abs=1e-6
            )

    def test_classical_period_is_p2pi(self):
        classical, _ = run_noon(0.66, 0.66)
        assert classical.metrics["period_w"] == pytest.approx(1.3, abs=1e-6)

    def test_balanced_visibilities(self):
        classical, quantum = run_noon(0.5, 0.5)
        assert classical.metrics["visibility"] == pytest.approx(1.0, abs=1e-6)
        # two-photon fringe visibility is limited by the source overlap
        assert quantum.metrics["visibility"] == pytest.approx(0.92, abs=0.01)

    def test_unbalanced_visibilities(self):
        classical, quantum = run_noon(0.66, 0.66)
        assert classical.metrics["visibility"] == pytest.approx(0.82, abs=0.08)
        assert quantum.metrics["visibility"] == pytest.approx(0.886, abs=0.01)


class TestPaperTargets:
    def test_tolerance_invariant(self):
        with pytest.raises(InvalidInput):
            PaperTarget("x", 1.0, 0.1, 0.05)

    def test_passed(self):
        assert PaperTarget("x", 1.0, 0.0, 0.1, computed=1.05).passed
        assert not PaperTarget("x", 1.0, 0.0, 0.1, computed=1.2).passed
        assert not PaperTarget("x", 1.0, 0.0, 0.1).passed  # nan computed

    def test_reproduce_all_passes(self):
        scans, tables, targets = reproduce_all()
        assert len(targets) == 15
        names = [t.name for t in targets]
        assert len(set(names)) == len(names)
        failed = [t.name for t in targets if not t.passed]
        assert failed == []
        assert "hom_dip" in scans and "noon_quantum" in scans
        assert "grating_design" in tables and "splitting_vs_n" in tables

    def test_reproduce_all_deterministic(self):
        _, _, t1 = reproduce_all(seed=5, poisson=True)
        _, _, t2 = reproduce_all(seed=5, poisson=True)
        assert [t.computed for t in t1] == [t.computed for t in t2]
