import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from modeweaver.circuit import (
    Circuit,
    CoincidenceConfig,
    GratingBS,
    HeaterModel,
    Loss,
    PhaseShifter,
    RelativeDelay,
    accidentals,
    compile_circuit,
    heater_phase,
    reck_decompose,
    reck_recompose,
    simulate_counts,
)
from modeweaver.coupling import coupler_unitary
from modeweaver.errors import ChannelMismatch, InvalidInput, NotUnitary
from modeweaver.fock import (
    PhotonPairSource,
    spectral_overlap,
    transition_amplitude,
    two_photon_coincidence,
)


def dip_circuit(eta=0.5):
    return Circuit(
        num_channels=2,
        elements=(
            RelativeDelay(arm=0, delay_um=0.0),
            GratingBS(channels=(0, 1), eta=eta),
        ),
    )


def delay_scan(circuit, source, config, delays):
    """Counts with the delay on input arm 0 swept over `delays`."""
    delays = np.asarray(delays, dtype=float)
    return simulate_counts(circuit.with_delay(0, delays), source, config, delays)


class TestCompile:
    def test_empty_is_identity(self):
        compiled = compile_circuit(Circuit(num_channels=3, elements=()))
        assert np.allclose(compiled.unitary, np.eye(3))
        assert np.allclose(compiled.transmission, 1.0)
        assert compiled.delays_um == {}

    def test_grating_embedding(self):
        circuit = Circuit(3, (GratingBS(channels=(0, 2), eta=0.55),))
        u = compile_circuit(circuit).unitary
        block = coupler_unitary(0.55)
        assert u[0, 0] == block[0, 0]
        assert u[0, 2] == block[0, 1]
        assert u[2, 0] == block[1, 0]
        assert u[2, 2] == block[1, 1]
        assert u[1, 1] == 1.0

    def test_element_order(self):
        circuit = Circuit(
            2,
            (
                GratingBS(channels=(0, 1), eta=0.3),
                PhaseShifter(channels=(1,), phase_rad=0.7),
                GratingBS(channels=(0, 1), eta=0.6),
            ),
        )
        u = compile_circuit(circuit).unitary
        b1 = coupler_unitary(0.3)
        phase = np.diag([1.0, np.exp(0.7j)])
        b2 = coupler_unitary(0.6)
        assert np.allclose(u, b2 @ phase @ b1)

    def test_chain_stays_unitary(self, rng):
        elements = []
        for _ in range(12):
            a, b = rng.choice(4, size=2, replace=False)
            elements.append(GratingBS(channels=(int(a), int(b)), eta=float(rng.uniform())))
            elements.append(
                PhaseShifter(channels=(int(rng.integers(4)),), phase_rad=float(rng.uniform(0, 7)))
            )
        u = compile_circuit(Circuit(4, tuple(elements))).unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_loss_and_delay_factored_out(self):
        circuit = Circuit(
            2,
            (
                RelativeDelay(arm=0, delay_um=120.0),
                RelativeDelay(arm=0, delay_um=30.0),
                Loss(3.0),
                Loss(1.0, channels=(1,)),
            ),
        )
        compiled = compile_circuit(circuit)
        assert np.allclose(compiled.unitary, np.eye(2))
        assert compiled.delays_um == {0: 150.0}
        assert compiled.transmission[0] == pytest.approx(10 ** -0.3)
        assert compiled.transmission[1] == pytest.approx(10 ** -0.4)

    def test_channel_mismatch(self):
        with pytest.raises(ChannelMismatch):
            compile_circuit(Circuit(2, (GratingBS(channels=(0, 5), eta=0.5),)))
        with pytest.raises(ChannelMismatch):
            compile_circuit(Circuit(2, (GratingBS(channels=(1, 1), eta=0.5),)))
        with pytest.raises(ChannelMismatch):
            compile_circuit(Circuit(2, (PhaseShifter(channels=(3,), phase_rad=1.0),)))

    def test_with_phase_and_delay_are_copies(self):
        circuit = Circuit(
            2,
            (
                RelativeDelay(arm=0, delay_um=0.0),
                PhaseShifter(channels=(1,), name="heater"),
            ),
        )
        moved = circuit.with_delay(0, 42.0).with_phase("heater", 1.5)
        assert compile_circuit(circuit).delays_um == {0: 0.0}
        compiled = compile_circuit(moved)
        assert compiled.delays_um == {0: 42.0}
        assert compiled.unitary[1, 1] == pytest.approx(np.exp(1.5j))


    def test_swept_settings_compile_to_arrays(self):
        circuit = Circuit(
            2,
            (
                RelativeDelay(arm=0),
                GratingBS(channels=(0, 1), eta=0.3),
                PhaseShifter(channels=(1,), name="heater"),
                GratingBS(channels=(0, 1), eta=0.6),
            ),
        )
        phases = np.linspace(0.0, 6.0, 7)
        delays = np.linspace(-5.0, 5.0, 7)
        compiled = compile_circuit(
            circuit.with_phase("heater", phases).with_delay(0, delays)
        )
        assert compiled.unitary.shape == (7, 2, 2)
        for phase, u in zip(phases, compiled.unitary):
            single = compile_circuit(circuit.with_phase("heater", float(phase)))
            assert np.array_equal(u, single.unitary)
        assert np.array_equal(compiled.delays_um[0], delays)


class TestHeaterAndAccidentals:
    def test_heater_linear(self):
        model = HeaterModel(p_2pi_w=1.3)
        assert heater_phase(model, 0.0) == 0.0
        assert heater_phase(model, 1.3) == pytest.approx(2 * math.pi)
        assert heater_phase(model, 0.65) == pytest.approx(math.pi)
        phases = heater_phase(model, np.array([0.0, 0.65, 1.3]))
        assert phases == pytest.approx([0.0, math.pi, 2 * math.pi])

    def test_heater_offset(self):
        model = HeaterModel(p_2pi_w=1.3, phi0_rad=0.4)
        assert heater_phase(model, 0.0) == 0.4

    def test_heater_validation(self):
        with pytest.raises(InvalidInput):
            HeaterModel(p_2pi_w=0.0)
        with pytest.raises(InvalidInput):
            heater_phase(HeaterModel(), -0.1)
        with pytest.raises(InvalidInput):
            heater_phase(HeaterModel(), np.array([0.1, -0.1]))

    def test_accidentals_value(self):
        assert accidentals(30000, 30000, 2.0) == pytest.approx(1.8)
        assert accidentals(0, 30000, 2.0) == 0.0
        rates = np.array([0.0, 30000.0])
        assert accidentals(rates, 30000, 2.0) == pytest.approx([0.0, 1.8])
        with pytest.raises(InvalidInput):
            accidentals(np.array([1.0, -1.0]), 30000, 2.0)


class TestSimulateCounts:
    SOURCE = PhotonPairSource(intrinsic_overlap=1.0)
    CONFIG = CoincidenceConfig()

    def test_perfect_dip_at_zero_delay(self):
        counts = delay_scan(dip_circuit(0.5), self.SOURCE, self.CONFIG, [0.0])
        assert counts["net"][0] == pytest.approx(0.0, abs=1e-9)

    def test_raw_is_net_plus_accidentals(self):
        counts = delay_scan(dip_circuit(0.55), self.SOURCE, self.CONFIG, [0.0, 200.0])
        assert counts["raw"] == pytest.approx(counts["net"] + counts["accidentals"])

    def test_large_delay_closed_form(self):
        delay = 5000.0
        counts = delay_scan(dip_circuit(0.55), self.SOURCE, self.CONFIG, [delay])
        overlap = spectral_overlap(self.SOURCE, delay)
        u = coupler_unitary(0.55)
        p = two_photon_coincidence(u, (0, 1), (0, 1), overlap)
        assert counts["net"][0] == pytest.approx(self.SOURCE.pair_rate_hz * p)

    def test_loss_scales_rates(self):
        lossy = Circuit(
            2,
            dip_circuit(0.55).elements + (Loss(3.0),),
        )
        lossless = delay_scan(dip_circuit(0.55), self.SOURCE, self.CONFIG, [5000.0])
        lossy = delay_scan(lossy, self.SOURCE, self.CONFIG, [5000.0])
        t = 10 ** -0.3
        assert lossy["net"][0] == pytest.approx(lossless["net"][0] * t * t)
        assert lossy["singles_a"][0] == pytest.approx(lossless["singles_a"][0] * t)

    def test_seeded_poisson_reproducible(self):
        config = CoincidenceConfig(poisson=True, seed=11)
        grid = np.linspace(-300, 300, 21)
        a = delay_scan(dip_circuit(0.55), self.SOURCE, config, grid)
        b = delay_scan(dip_circuit(0.55), self.SOURCE, config, grid)
        assert a["raw"].tolist() == b["raw"].tolist()
        assert all(raw.is_integer() for raw in a["raw"].tolist())

    def test_poisson_mean_matches_expectation(self):
        expected = delay_scan(
            dip_circuit(0.55), self.SOURCE, self.CONFIG, [5000.0]
        )["raw"][0]
        config = CoincidenceConfig(poisson=True, seed=3)
        draws = delay_scan(dip_circuit(0.55), self.SOURCE, config, [5000.0] * 400)
        mean = np.mean(draws["raw"])
        # 4 sigma band for the mean of 400 Poisson draws
        assert abs(mean - expected) < 4 * math.sqrt(expected / 400)

    @pytest.mark.parametrize("poisson", [False, True])
    def test_columns_are_float_arrays(self, poisson):
        config = CoincidenceConfig(poisson=poisson, seed=5)
        counts = delay_scan(dip_circuit(0.55), self.SOURCE, config, [0.0, 100.0])
        assert list(counts) == [
            "scan_value", "raw", "accidentals", "net", "singles_a", "singles_b",
            "stderr",
        ]
        for column in counts.values():
            assert isinstance(column, np.ndarray)
            assert (column.dtype, column.shape) == (np.float64, (2,))
        assert counts["scan_value"].tolist() == [0.0, 100.0]

    def test_swept_setting_must_match_grid(self):
        swept = dip_circuit().with_delay(0, np.zeros(3))
        with pytest.raises(InvalidInput, match="the scan has 2 points"):
            simulate_counts(swept, self.SOURCE, self.CONFIG, [0.0, 1.0])
        with pytest.raises(InvalidInput, match="one-dimensional"):
            simulate_counts(dip_circuit(), self.SOURCE, self.CONFIG, [[0.0]])

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            CoincidenceConfig(window_ns=0.0)


# The count columns of simulate_counts in the row order of reference_counts.
ROW_COLUMNS = ("raw", "accidentals", "net", "singles_a", "singles_b", "stderr")


def reference_counts(circuit, source, config, delays, phases):
    """Expected counts computed point by point: one compile and one
    permanent per scan point. Rows of (raw, accidentals, net,
    singles_a, singles_b, stderr), and the pair coincidence probability."""
    m = circuit.num_channels
    i, j = circuit.input_channels
    k, l = circuit.output_channels
    occ_in = tuple(int(c in (i, j)) for c in range(m))
    occ_out = tuple(int(c in (k, l)) for c in range(m))
    t_int = config.integration_time_s
    rows, probabilities = [], []
    for delay, phase in zip(delays, phases):
        point = circuit.with_delay(i, delay).with_phase("sweep", phase)
        compiled = compile_circuit(point)
        d = compiled.delays_um
        x = spectral_overlap(source, d.get(i, 0.0) - d.get(j, 0.0))
        u = compiled.unitary
        prob = np.abs(u) ** 2
        p_dist = prob[k, i] * prob[l, j] + prob[k, j] * prob[l, i]
        p_indist = abs(transition_amplitude(u, occ_in, occ_out)) ** 2
        p = x * p_indist + (1 - x) * p_dist
        t_k, t_l = compiled.transmission[k], compiled.transmission[l]
        s_in = source.singles_rates_hz
        singles_k = (s_in[0] * prob[k, i] + s_in[1] * prob[k, j]) * t_k
        singles_l = (s_in[0] * prob[l, i] + s_in[1] * prob[l, j]) * t_l
        acc = accidentals(singles_k, singles_l, config.window_ns) * t_int
        raw = source.pair_rate_hz * p * t_k * t_l * t_int + acc
        rows.append(
            (raw, acc, raw - acc, singles_k * t_int, singles_l * t_int, math.sqrt(raw))
        )
        probabilities.append(p)
    return np.array(rows), np.array(probabilities)


class TestBatchedScanOracle:
    """simulate_counts over a whole grid against the per-point loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 4),
        num_gratings=st.integers(1, 4),
        overlap=st.floats(0.0, 1.0),
        points=st.integers(1, 25),
        sweep_delay=st.booleans(),
        sweep_phase=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_point_loop(
        self, m, num_gratings, overlap, points, sweep_delay, sweep_phase, seed,
    ):
        rng = np.random.default_rng(seed)
        i, j = (int(c) for c in rng.choice(m, 2, replace=False))
        k, l = (int(c) for c in rng.choice(m, 2, replace=False))
        elements = [
            RelativeDelay(arm=i),
            RelativeDelay(arm=j, delay_um=float(rng.uniform(-50.0, 50.0))),
        ]
        for _ in range(num_gratings):
            a, b = (int(c) for c in rng.choice(m, 2, replace=False))
            elements.append(GratingBS(channels=(a, b), eta=float(rng.uniform())))
            elements.append(
                PhaseShifter(channels=(int(rng.integers(m)),), name="sweep")
            )
        elements += [
            Loss(float(rng.uniform(0.0, 6.0)), channels=(c,)) for c in range(m)
        ]
        circuit = Circuit(m, tuple(elements), (i, j), (k, l))
        source = PhotonPairSource(
            intrinsic_overlap=overlap,
            pair_rate_hz=float(rng.uniform(1.0, 1e4)),
            singles_rates_hz=tuple(float(s) for s in rng.uniform(0.0, 5e4, 2)),
        )
        config = CoincidenceConfig()
        delays = rng.uniform(-500.0, 500.0, points)
        phases = rng.uniform(0.0, 2 * np.pi, points)
        if not sweep_delay:
            delays[:] = delays[0]
        if not sweep_phase:
            phases[:] = phases[0]
        swept = circuit.with_delay(i, delays if sweep_delay else float(delays[0]))
        swept = swept.with_phase("sweep", phases if sweep_phase else float(phases[0]))
        labels = np.arange(points, dtype=float)

        counts = simulate_counts(swept, source, config, labels)
        got = np.column_stack([counts[name] for name in ROW_COLUMNS])
        want, probabilities = reference_counts(circuit, source, config, delays, phases)
        assert counts["scan_value"].tolist() == labels.tolist()
        for columns in ((0, 1, 2), (3, 4), (5,)):
            scale = np.abs(want[:, columns]).max()
            np.testing.assert_allclose(
                got[:, columns], want[:, columns], rtol=1e-12, atol=1e-12 * scale
            )
        # the batched probability itself, unscaled: unit pair rate, no singles
        bare = dataclasses.replace(
            source, pair_rate_hz=1.0, singles_rates_hz=(0.0, 0.0)
        )
        t = compile_circuit(circuit).transmission
        p_batched = simulate_counts(swept, bare, config, labels)["raw"] / (t[k] * t[l])
        np.testing.assert_allclose(p_batched, probabilities, rtol=1e-12, atol=1e-15)
        assert np.all((p_batched >= -1e-15) & (p_batched <= 1.0 + 1e-12))

        # one Poisson draw over the grid takes the per-point stream
        noisy = dataclasses.replace(config, poisson=True, seed=seed)
        draws = simulate_counts(swept, source, noisy, labels)
        stream = np.random.default_rng(seed)
        for point in range(points):
            for name in ("raw", "singles_a", "singles_b"):
                expected = counts[name][point]
                assert draws[name][point] == float(stream.poisson(expected))

        # counts are never negative; only net subtracts the accidentals
        for table in (counts, draws):
            for name in ROW_COLUMNS:
                if name != "net":
                    assert (table[name] >= 0).all(), name


@pytest.mark.parametrize(
    "make",
    [
        lambda: Loss(math.nan),
        lambda: HeaterModel(p_2pi_w=math.nan),
        lambda: heater_phase(HeaterModel(), math.nan),
        lambda: CoincidenceConfig(window_ns=math.inf),
    ],
    ids=["loss", "heater_model", "heater_phase", "coincidence_window"],
)
def test_validators_reject_non_finite(make):
    with pytest.raises(InvalidInput, match="must be finite"):
        make()


class TestReck:
    def test_identity_has_no_stages(self):
        decomposition = reck_decompose(np.eye(4))
        assert decomposition.stages == ()
        assert np.allclose(reck_recompose(decomposition), np.eye(4))

    def test_single_coupler(self):
        u = coupler_unitary(0.3)
        decomposition = reck_decompose(u)
        assert len(decomposition.stages) == 1
        assert decomposition.stages[0].eta == pytest.approx(0.3, abs=1e-12)
        assert np.max(np.abs(reck_recompose(decomposition) - u)) < 1e-12

    def test_random_unitaries_round_trip(self, rng):
        # Haar, permutation, diagonal-phase and permutation x phase inputs
        for m in (2, 3, 4, 6, 8, 12, 16):
            permutation = np.eye(m)[rng.permutation(m)]
            phases = np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, m)))
            for u in (haar_unitary(m, rng), permutation, phases, permutation @ phases):
                decomposition = reck_decompose(u)
                assert len(decomposition.stages) <= m * (m - 1) // 2
                err = np.max(np.abs(reck_recompose(decomposition) - u))
                assert err < 1e-10

    def test_stages_are_adjacent_channel(self, rng):
        u = haar_unitary(5, rng)
        for stage in reck_decompose(u).stages:
            assert stage.channels[1] == stage.channels[0] + 1
            assert 0.0 <= stage.eta <= 1.0

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            reck_decompose(np.ones((3, 3)))

    def test_size_cap(self):
        with pytest.raises(InvalidInput):
            reck_decompose(np.eye(17))
