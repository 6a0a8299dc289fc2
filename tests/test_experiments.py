import dataclasses
import math

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
)
from modeweaver.experiments import (
    DELAY_GRID_UM,
    GAUSS_FWHM_FACTOR,
    POWER_GRID_W,
    PaperTarget,
    fit_gaussian,
    fit_sinusoid,
    reproduce_all,
    run_hom_dip,
    run_hom_peak,
    run_noon,
    run_splitting_vs_N,
    scan_grid,
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

    def test_non_gaussian_dip_centred_at_zero_converges(self):
        # the centre ends at roundoff, about 1e-16, where no step is below
        # 1e-12 of it; it converges against the scale of the other parameters
        x = np.arange(-300.0, 301.0, 10.0)
        fit = fit_gaussian(x, 100.0 - 60.0 / (1.0 + (x / 80.0) ** 2))
        assert abs(fit.center) < 1e-12
        assert fit.residual_norm == pytest.approx(13.2672, abs=1e-4)

    def test_flat_data(self):
        x = np.linspace(0, 100, 30)
        with pytest.raises(InsufficientSpan, match="^flat data: no dip or peak to fit$"):
            fit_gaussian(x, np.full_like(x, 7.0))

    def test_too_few_points(self):
        with pytest.raises(InvalidInput):
            fit_gaussian([0, 1, 2], [1, 2, 1])


class TestSinusoidFit:
    def test_exact_recovery(self):
        x = np.arange(0.0, 4.0001, 0.05)
        y = 10.0 + 4.0 * np.cos(2 * np.pi * x / 1.3 + 0.7)
        fit = fit_sinusoid(x, y, 1.25)
        assert fit.period == pytest.approx(1.3, abs=1e-8)
        assert fit.amplitude == pytest.approx(4.0, abs=1e-8)
        assert fit.offset == pytest.approx(10.0, abs=1e-8)
        assert math.cos(fit.phase) == pytest.approx(math.cos(0.7), abs=1e-8)
        assert fit.visibility == pytest.approx(0.4, abs=1e-8)

    def test_constant_data(self):
        x = np.linspace(0, 10, 40)
        with pytest.raises(InsufficientSpan):
            fit_sinusoid(x, np.full_like(x, 3.0), 1.25)

    def test_short_span(self):
        x = np.linspace(0.0, 2.0, 30)
        y = 5.0 + np.cos(2 * np.pi * x / 10.0)
        with pytest.raises(InsufficientSpan):
            fit_sinusoid(x, y, 9.5)

    def test_sparse_scan_is_refused(self):
        # TestStartPeriod's draw n = 8, cycles = 2, noise = 0, drift = 1,
        # seed = 0 (nonuniform, poisson): a gap of 1.09 periods, across which
        # the true and the drifted start would fit different minima
        rng = np.random.default_rng(0)
        x = _scan_points(8, "nonuniform", rng)
        period = (x[-1] - x[0]) / 2.0
        y = 2.0 + np.cos(2 * np.pi * x / period + rng.uniform(0.0, 7.0))
        y = y + 0.0 * rng.normal(size=8)
        y = rng.poisson(50.0 * np.abs(y)).astype(float)
        for start in (period, period * 1.125):
            with pytest.raises(InsufficientSpan, match="largest step 1.723"):
                fit_sinusoid(x, y, start)

    def test_noisy_period(self, rng):
        x = np.arange(0.0, 2.6001, 0.05)
        y = 500.0 + 200.0 * np.cos(2 * np.pi * x / 1.3 + 0.2)
        y = y + rng.normal(scale=10.0, size=len(y))
        fit = fit_sinusoid(x, y, 1.25)
        assert fit.period == pytest.approx(1.3, abs=0.05)

    def test_too_few_points(self):
        with pytest.raises(InvalidInput):
            fit_sinusoid([0, 1, 2], [1, 2, 1], 1.0)

    @pytest.mark.parametrize(
        "start", [math.nan, math.inf, 0.0, -0.65, 5e-324],
        ids=["nan", "inf", "zero", "negative", "subnormal"],
    )
    def test_start_period_must_be_finite_and_positive(self, capfd, start):
        x = np.arange(0.0, 4.0001, 0.05)
        y = 10.0 + 4.0 * np.cos(2 * np.pi * x / 1.3 + 0.7)
        with pytest.raises(InvalidInput):
            fit_sinusoid(x, y, start)
        assert capfd.readouterr().err == ""  # nothing from LAPACK


def _scan_points(n, layout, rng):
    """Sorted scan points: uniform, non-uniform, or uniform with every point
    repeated, over a span of 1-10 that may start away from 0."""
    start, span = rng.uniform(-5.0, 5.0), rng.uniform(1.0, 10.0)
    if layout == "uniform":
        return np.linspace(start, start + span, n)
    if layout == "nonuniform":
        return np.sort(rng.uniform(start, start + span, n))
    return np.repeat(np.linspace(start, start + span, (n + 1) // 2), 2)[:n]


class TestStartPeriod:
    """Gauss-Newton measures the period from the counts: a start within a
    quarter cycle of drift over the span ends where the true period does."""

    @pytest.mark.parametrize("poisson", [False, True], ids=["gaussian", "poisson"])
    @pytest.mark.parametrize("layout", ["uniform", "nonuniform", "repeated"])
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(8, 3000),
        cycles=st.floats(2.0, 20.0),
        noise=st.floats(0.0, 0.5),
        drift=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_period_as_a_true_start(
        self, layout, poisson, n, cycles, noise, drift, seed
    ):
        rng = np.random.default_rng(seed)
        x = _scan_points(n, layout, rng)
        assume(cycles <= len(np.unique(x)) / 4)  # four scan points per period
        period = (x[-1] - x[0]) / cycles
        y = 2.0 + np.cos(2 * np.pi * x / period + rng.uniform(0.0, 7.0))
        y = y + noise * rng.normal(size=n)
        if poisson:
            y = rng.poisson(50.0 * np.abs(y)).astype(float)
        start = period * (1.0 + drift * 0.25 / cycles)
        # the fit refuses a scan with a step not below half its start period
        assume(np.max(np.diff(x)) < 0.5 * min(period, start))
        reference = fit_sinusoid(x, y, period)
        assert fit_sinusoid(x, y, start).period == pytest.approx(
            reference.period, rel=1e-8
        )


class TestGaussNewton:
    @pytest.fixture
    def fits(self, monkeypatch):
        """The cost of every evaluation, one list per fit, in call order."""
        fits = []
        solve = experiments._damped_gauss_newton

        def recording(evaluate, p0, **kwargs):
            costs = []
            fits.append(costs)

            def counted(p):
                r, j = evaluate(p)
                costs.append(float(r @ r))
                return r, j

            return solve(counted, p0, **kwargs)

        monkeypatch.setattr(experiments, "_damped_gauss_newton", recording)
        return fits

    def test_divergence_reports_cost_and_damping(self):
        x = np.linspace(0.0, 1.0, 20)
        y = np.exp(3.0 * x)

        def evaluate(p):
            e = np.exp(p[0] * x)
            return e - y, (x * e)[:, None]

        with pytest.raises(FitDiverged) as info:
            experiments._damped_gauss_newton(evaluate, [0.0], max_iter=1)
        message = str(info.value)
        assert "no convergence after 1 iterations" in message
        assert "final cost" in message and "damping lambda" in message
        assert "\n" not in message

    def test_non_finite_start_fails_at_once(self):
        calls = []

        def evaluate(p):
            calls.append(p)
            return np.array([np.nan, 1.0]), np.ones((2, 1))

        with pytest.raises(FitDiverged) as info:
            experiments._damped_gauss_newton(evaluate, [0.0])
        assert len(calls) == 1
        assert str(info.value) == "starting cost is not finite (nan)"

    def test_rejected_step_at_the_roundoff_floor_ends_the_fit(self):
        """A cost of 1e-22 at p = 0 that every step raises, as roundoff
        does: the first rejected step ends the fit at the start."""
        calls = []

        def evaluate(p):
            calls.append(p.copy())
            return np.array([1e-11 * (1.0 + abs(p[0]))]), np.ones((1, 1))

        p, _, r = experiments._damped_gauss_newton(evaluate, [0.0])
        assert len(calls) == 2 and calls[1][0] != 0.0
        assert p.tolist() == [0.0] and r.tolist() == [1e-11]

    def test_exact_fringe_at_zero_phase_ends_at_its_first_rejected_step(self, fits):
        # exact data, so the cost is roundoff from the start; the phase sits
        # near 0, where no step is small against it
        x = np.arange(0.0, 2.6001, 0.05)
        fit = fit_sinusoid(x, 100.0 + 40.0 * np.cos(2 * np.pi * x / 0.65), 0.65)
        [costs] = fits
        assert costs[0] < 1e-20
        assert abs(fit.phase) < 1e-14
        assert costs[-1] > min(costs[:-1])  # the last step was rejected
        assert costs[:-1] == sorted(costs[:-1], reverse=True)  # no other was

    def test_paper_two_photon_fit_takes_at_most_four_evaluations(self, fits):
        classical, quantum = run_noon(0.66, 0.66)
        assert len(fits) == 2
        assert len(fits[1]) <= 4
        assert quantum.metrics["period_ratio"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_gaussian_residual_norm_is_at_the_returned_params(self, rng, noise):
        # a noise-free Lorentzian dip has a residual that roundoff does not set
        x = np.arange(-300.0, 301.0, 10.0)
        y = 100.0 - 60.0 / (1.0 + ((x - 7.0) / 80.0) ** 2)
        y = y + noise * 100.0 * rng.standard_normal(len(x))
        fit = fit_gaussian(x, y)
        model = fit.offset + fit.amplitude * np.exp(
            -((x - fit.center) ** 2) / (2.0 * fit.sigma**2)
        )
        assert fit.residual_norm == pytest.approx(
            np.linalg.norm(model - y), rel=1e-12
        )

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_sinusoid_residual_norm_is_at_the_returned_params(self, rng, noise):
        # noise-free, the half-frequency term leaves a residual of its own
        x = np.arange(0.0, 2.6001, 0.05)
        y = (
            100.0
            + 40.0 * np.cos(2 * np.pi * x / 0.65 + 0.3)
            + 18.0 * np.cos(np.pi * x / 0.65 - 0.4)
        )
        y = y + noise * 100.0 * rng.standard_normal(len(x))
        fit = fit_sinusoid(x, y, 0.6)
        model = fit.offset + fit.amplitude * np.cos(
            2 * np.pi * x / fit.period + fit.phase
        )
        assert fit.residual_norm == pytest.approx(
            np.linalg.norm(model - y), rel=1e-12
        )


class TestLeakageFit:
    def test_pure_fundamental(self):
        x = np.arange(0.0, 2.6001, 0.05)
        y = 100.0 + 40.0 * np.cos(2 * np.pi * x / 0.65 + 0.3)
        fit = fit_sinusoid(x, y, 0.625, leakage=True)
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
        fit = fit_sinusoid(x, y, 0.6, leakage=True)
        assert fit.period == pytest.approx(0.65, abs=1e-8)
        assert fit.amplitude == pytest.approx(40.0, abs=1e-6)
        plain = fit_sinusoid(x, y, 0.6)
        assert abs(plain.period - 0.65) > abs(fit.period - 0.65)


class TestGrids:
    def test_default_grids(self):
        delays = scan_grid(*DELAY_GRID_UM)
        assert delays[0] == -500.0 and delays[-1] == 500.0
        assert len(delays) == 101
        powers = scan_grid(*POWER_GRID_W)
        assert powers[0] == 0.0 and powers[-1] == pytest.approx(2.6)
        assert len(powers) == 53
        # the bits np.arange gives the paper's grids, which the golden
        # outputs were written from
        for grid, (start, stop, step) in ((delays, DELAY_GRID_UM), (powers, POWER_GRID_W)):
            assert grid.tobytes() == np.arange(start, stop + 1e-9, step).tobytes()


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

    @staticmethod
    def _standalone(elements, source, config, grid, delay=0.0, outputs=(0, 1)):
        """The counts of one fringe or arm from its own circuit, compiled
        for it alone."""
        unitary = circuit_mod.compile_circuit(circuit_mod.Circuit(
            max(max(e.channels) for e in elements) + 1, elements
        ))
        return circuit_mod.simulate_counts(unitary, source, config, grid, delay, outputs)

    @staticmethod
    def _assert_same_bits(counts, expected):
        assert list(counts) == list(expected)
        for name, column in counts.items():
            assert column.tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("config", [
        CoincidenceConfig(), CoincidenceConfig(poisson=True, seed=7),
    ], ids=["expected", "poisson"])
    def test_noon_compiles_once(self, compiles, config):
        """Both fringes come from one compile, each with the counts it has
        when simulated on its own."""
        source = PhotonPairSource()
        classical, quantum = run_noon(0.66, 0.66, source=source, config=config)
        assert len(classical.counts["net"]) == len(quantum.counts["net"]) == 53
        assert len(compiles) == 1
        grid = scan_grid(*POWER_GRID_W)
        elements = (
            circuit_mod.GratingBS((0, 1), 0.66),
            circuit_mod.PhaseShifter((1,), circuit_mod.heater_phase(1.3, grid)),
            circuit_mod.GratingBS((0, 1), 0.66),
        )
        lit = dataclasses.replace(
            source, singles_rates_hz=(source.singles_rates_hz[0], 0.0)
        )
        for scan, fringe_source in ((classical, lit), (quantum, source)):
            self._assert_same_bits(
                scan.counts, self._standalone(elements, fringe_source, config, grid)
            )

    @pytest.mark.parametrize("config", [
        CoincidenceConfig(), CoincidenceConfig(poisson=True, seed=7),
    ], ids=["expected", "poisson"])
    def test_hom_peak_compiles_once(self, compiles, config):
        """Both arms come from one compile, each with the counts it has
        when simulated on its own."""
        source = PhotonPairSource(singles_rates_hz=(1.1e5, 0.9e5))
        peaks = run_hom_peak(0.55, source, config=config)
        assert len(compiles) == 1
        grid = scan_grid(*DELAY_GRID_UM)
        elements = (
            circuit_mod.GratingBS((0, 1), 0.55),
            circuit_mod.GratingBS((0, 2), 0.5),
            circuit_mod.GratingBS((1, 3), 0.5),
        )
        for arm, outputs in (("arm_a", (0, 2)), ("arm_b", (1, 3))):
            self._assert_same_bits(
                peaks[arm].counts,
                self._standalone(elements, source, config, grid, grid, outputs),
            )


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
        with pytest.raises(InvalidInput, match="kappa and N must be non-negative"):
            run_splitting_vs_N(-0.01, [10])

    @pytest.mark.parametrize("overlap", [-1e-12, -1.0, 1.0 + 1e-12, 2.0])
    def test_overlap_outside_unit_interval(self, overlap):
        with pytest.raises(InvalidInput, match=r"intrinsic overlap must lie in \[0, 1\]"):
            run_splitting_vs_N(0.041, [20], overlap)


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

    def test_equal_arms_share_one_fit(self):
        peaks = run_hom_peak(0.55)
        arm_a, arm_b = peaks["arm_a"].fit, peaks["arm_b"].fit
        assert arm_b is arm_a
        direct = fit_gaussian(scan_grid(*DELAY_GRID_UM), peaks["arm_b"].counts["net"])
        assert _fit_bits(arm_b) == _fit_bits(direct)

    @pytest.mark.parametrize("config", [
        # expected counts: the arms' singles differ, their net columns do not
        CoincidenceConfig(),
        # drawn counts: the net columns differ too
        CoincidenceConfig(poisson=True, seed=7),
    ])
    def test_unequal_arms_fit_their_own_net(self, config):
        source = PhotonPairSource(singles_rates_hz=(30000.0, 10000.0))
        peaks = run_hom_peak(0.55, source, config=config)
        arm_a, arm_b = peaks["arm_a"].counts, peaks["arm_b"].counts
        assert arm_a["singles_a"].tobytes() != arm_b["singles_a"].tobytes()
        for scan in peaks.values():
            direct = fit_gaussian(scan_grid(*DELAY_GRID_UM), scan.counts["net"])
            assert _fit_bits(scan.fit) == _fit_bits(direct)


def _fit_bits(fit) -> dict:
    """Every float of a fit, its stderr entries included, by bit pattern."""
    fields = fit._asdict()
    stderr = fields.pop("stderr")
    stderr = {f"stderr_{key}": value for key, value in stderr.items()}
    return {key: float(value).hex() for key, value in {**fields, **stderr}.items()}


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

    def test_dense_grid_resolves_the_fringe(self):
        # 10 401 points: 2000 frequencies would be spaced wider than a peak
        grid = np.arange(0.0, 5.2 + 1e-9, 0.0005)
        assert len(grid) == 10401
        classical, quantum = run_noon(0.66, 0.66, power_grid=grid)
        assert classical.metrics["period_w"] == pytest.approx(1.3, abs=1e-6)
        assert quantum.metrics["period_ratio"] == pytest.approx(0.5, abs=1e-6)

    def test_balanced_visibilities(self):
        classical, quantum = run_noon(0.5, 0.5)
        assert classical.metrics["visibility"] == pytest.approx(1.0, abs=1e-6)
        # two-photon fringe visibility is limited by the source overlap
        assert quantum.metrics["visibility"] == pytest.approx(0.92, abs=0.01)

    @pytest.mark.parametrize("p_2pi_w", [1e-300, 0.1])
    def test_power_step_must_resolve_the_fringe(self, p_2pi_w):
        # the 0.05 W default step against P_2pi/4, the two-photon Nyquist limit
        with pytest.raises(InsufficientSpan, match="not below half the start period"):
            run_noon(0.66, 0.66, p_2pi_w)

    def test_unbalanced_visibilities(self):
        classical, quantum = run_noon(0.66, 0.66)
        assert classical.metrics["visibility"] == pytest.approx(0.82, abs=0.08)
        assert quantum.metrics["visibility"] == pytest.approx(0.886, abs=0.01)


class TestRecordedSettings:
    def test_fit_documents_record_the_fixed_setup(self):
        # repr compares key order and True, 2.0 and None as written too
        config = CoincidenceConfig(poisson=True, seed=3)
        dip = run_hom_dip(0.55)
        classical, quantum = run_noon(
            0.66, 0.66, 2.6, np.arange(0.0, 5.2, 0.05), config=config
        )
        assert repr(dip.config["config"]) == repr({
            "window_ns": 2.0,
            "integration_time_s": 1.0,
            "subtract_accidentals": True,
            "poisson": False,
            "seed": None,
        })
        for fringe in (classical, quantum):
            assert repr(fringe.config["config"]) == repr({
                "window_ns": 2.0,
                "integration_time_s": 1.0,
                "subtract_accidentals": True,
                "poisson": True,
                "seed": 3,
            })
            assert repr(fringe.config["heater"]) == repr(
                {"p_2pi_w": 2.6, "phi0_rad": 0.0}
            )


class TestPaperTargets:
    def test_table_states_its_invariants(self):
        # summary.json and stdout list the targets in this order
        _, _, targets = reproduce_all()
        names = [t.name for t in targets]
        assert len(set(names)) == len(names)
        assert [t.name for t in targets if t.tolerance < t.uncertainty] == []
        assert names == [
            "grating_period_design_um",
            "grating_period_fixed_dn_um",
            "splitting_ratio_n20",
            "splitting_bracket_n15",
            "splitting_bracket_n20",
            "splitting_bracket_n25",
            "hom_dip_visibility",
            "hom_ideal_visibility",
            "dip_fwhm_um",
            "hom_te0_te1_visibility",
            "coalescence_ratio_ideal",
            "coalescence_ratio_measured",
            "noon_classical_visibility",
            "noon_period_ratio",
            "noon_quantum_visibility",
        ]

    def test_passed(self):
        assert PaperTarget("x", 1.0, 0.0, 0.1, computed=1.05).passed
        assert not PaperTarget("x", 1.0, 0.0, 0.1, computed=1.2).passed
        assert not PaperTarget("x", 1.0, 0.0, 0.1).passed  # nan computed

    def test_reproduce_all_passes(self):
        scans, tables, targets = reproduce_all()
        failed = [t.name for t in targets if not t.passed]
        assert failed == []
        assert "hom_dip" in scans and "noon_quantum" in scans
        assert "grating_design" in tables and "splitting_vs_n" in tables

    def test_reproduce_all_deterministic(self):
        _, _, t1 = reproduce_all(seed=5, poisson=True)
        _, _, t2 = reproduce_all(seed=5, poisson=True)
        assert [t.computed for t in t1] == [t.computed for t in t2]
