import math

import numpy as np
import pytest

from conftest import haar_unitary
from modeweaver.circuit import (
    Circuit,
    CoincidenceConfig,
    GratingBS,
    HeaterModel,
    Loss,
    MeasurementRecord,
    MultiplexerIn,
    PhaseShifter,
    RelativeDelay,
    accidentals,
    compile_circuit,
    heater_phase,
    reck_decompose,
    reck_recompose,
    records_to_csv,
    simulate_counts,
)
from modeweaver.coupling import DirectionalCouplerSpec, coupler_unitary
from modeweaver.errors import ChannelMismatch, InvalidInput, NotUnitary
from modeweaver.fock import PhotonPairSource, spectral_overlap, two_photon_coincidence


def dip_circuit(eta=0.5):
    return Circuit(
        num_channels=2,
        elements=(
            RelativeDelay(arm=0, delay_um=0.0),
            GratingBS(channels=(0, 1), eta=eta),
        ),
    )


def set_delay(circuit, value):
    return circuit.with_delay(0, value)


class TestCompile:
    def test_empty_is_identity(self):
        compiled = compile_circuit(Circuit(num_channels=3, elements=()))
        assert np.allclose(compiled.unitary, np.eye(3))
        assert np.allclose(compiled.transmission, 1.0)
        assert compiled.delays_um == {}
        assert compiled.crosstalk == 0.0

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

    def test_multiplexer_crosstalk_recorded(self):
        spec = DirectionalCouplerSpec(target_channel=0, crosstalk=0.02)
        circuit = Circuit(2, (MultiplexerIn(spec),))
        assert compile_circuit(circuit).crosstalk == 0.02

    def test_channel_mismatch(self):
        with pytest.raises(ChannelMismatch):
            compile_circuit(Circuit(2, (GratingBS(channels=(0, 5), eta=0.5),)))
        with pytest.raises(ChannelMismatch):
            compile_circuit(Circuit(2, (GratingBS(channels=(1, 1), eta=0.5),)))
        with pytest.raises(ChannelMismatch):
            compile_circuit(Circuit(2, (PhaseShifter(channels=(3,), phase_rad=1.0),)))
        with pytest.raises(ChannelMismatch):
            compile_circuit(
                Circuit(2, (MultiplexerIn(DirectionalCouplerSpec(target_channel=4)),))
            )

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


class TestHeaterAndAccidentals:
    def test_heater_linear(self):
        model = HeaterModel(p_2pi_w=1.3)
        assert heater_phase(model, 0.0) == 0.0
        assert heater_phase(model, 1.3) == pytest.approx(2 * math.pi)
        assert heater_phase(model, 0.65) == pytest.approx(math.pi)

    def test_heater_offset(self):
        model = HeaterModel(p_2pi_w=1.3, phi0_rad=0.4)
        assert heater_phase(model, 0.0) == 0.4

    def test_heater_validation(self):
        with pytest.raises(InvalidInput):
            HeaterModel(p_2pi_w=0.0)
        with pytest.raises(InvalidInput):
            heater_phase(HeaterModel(), -0.1)

    def test_accidentals_value(self):
        assert accidentals(30000, 30000, 2.0) == pytest.approx(1.8)
        assert accidentals(0, 30000, 2.0) == 0.0


class TestSimulateCounts:
    SOURCE = PhotonPairSource(intrinsic_overlap=1.0)
    CONFIG = CoincidenceConfig()

    def test_perfect_dip_at_zero_delay(self):
        records = simulate_counts(
            dip_circuit(0.5), self.SOURCE, self.CONFIG, [0.0], set_delay
        )
        assert records[0].net == pytest.approx(0.0, abs=1e-9)

    def test_raw_is_net_plus_accidentals(self):
        records = simulate_counts(
            dip_circuit(0.55), self.SOURCE, self.CONFIG, [0.0, 200.0], set_delay
        )
        for r in records:
            assert r.raw == pytest.approx(r.net + r.accidentals)

    def test_large_delay_closed_form(self):
        delay = 5000.0
        records = simulate_counts(
            dip_circuit(0.55), self.SOURCE, self.CONFIG, [delay], set_delay
        )
        overlap = spectral_overlap(self.SOURCE, delay)
        u = coupler_unitary(0.55)
        p = two_photon_coincidence(u, (0, 1), (0, 1), overlap)
        assert records[0].net == pytest.approx(self.SOURCE.pair_rate_hz * p)

    def test_loss_scales_rates(self):
        lossy = Circuit(
            2,
            dip_circuit(0.55).elements + (Loss(3.0),),
        )
        r_lossless = simulate_counts(
            dip_circuit(0.55), self.SOURCE, self.CONFIG, [5000.0], set_delay
        )[0]
        r_lossy = simulate_counts(
            lossy, self.SOURCE, self.CONFIG, [5000.0], set_delay
        )[0]
        t = 10 ** -0.3
        assert r_lossy.net == pytest.approx(r_lossless.net * t * t)
        assert r_lossy.singles[0] == pytest.approx(r_lossless.singles[0] * t)

    def test_crosstalk_fills_dip(self):
        spec = DirectionalCouplerSpec(target_channel=0, crosstalk=0.1)
        leaky = Circuit(2, (MultiplexerIn(spec),) + dip_circuit(0.5).elements)
        r = simulate_counts(leaky, self.SOURCE, self.CONFIG, [0.0], set_delay)[0]
        assert r.net > 1.0  # the x = 1 dip is no longer dark

    def test_crosstalk_reaches_singles(self):
        # 10 % of the photon entering channel 0 leaks into channel 1 before
        # a 0.3 coupler; only input arm 0 is lit
        spec = DirectionalCouplerSpec(target_channel=0, crosstalk=0.1)
        circuit = Circuit(
            2, (MultiplexerIn(spec), GratingBS(channels=(0, 1), eta=0.3))
        )
        source = PhotonPairSource(singles_rates_hz=(30000.0, 0.0))
        r = simulate_counts(circuit, source, self.CONFIG, [0.0], lambda c, v: c)[0]
        assert r.singles[0] == pytest.approx(30000.0 * (0.9 * 0.7 + 0.1 * 0.3))
        assert r.singles[1] == pytest.approx(30000.0 * (0.9 * 0.3 + 0.1 * 0.7))

    def test_seeded_poisson_reproducible(self):
        config = CoincidenceConfig(poisson=True, seed=11)
        grid = np.linspace(-300, 300, 21)
        a = simulate_counts(dip_circuit(0.55), self.SOURCE, config, grid, set_delay)
        b = simulate_counts(dip_circuit(0.55), self.SOURCE, config, grid, set_delay)
        assert [r.raw for r in a] == [r.raw for r in b]
        assert all(float(r.raw).is_integer() for r in a)

    def test_poisson_mean_matches_expectation(self):
        expected = simulate_counts(
            dip_circuit(0.55), self.SOURCE, self.CONFIG, [5000.0], set_delay
        )[0].raw
        config = CoincidenceConfig(poisson=True, seed=3)
        draws = simulate_counts(
            dip_circuit(0.55), self.SOURCE, config, [5000.0] * 400, set_delay
        )
        mean = np.mean([r.raw for r in draws])
        # 4 sigma band for the mean of 400 Poisson draws
        assert abs(mean - expected) < 4 * math.sqrt(expected / 400)

    def test_csv_round_trip_columns(self):
        records = simulate_counts(
            dip_circuit(0.5), self.SOURCE, self.CONFIG, [0.0, 10.0], set_delay
        )
        lines = records_to_csv(records).splitlines()
        assert lines[0] == "scan_value,raw,accidentals,net,singles_a,singles_b,stderr"
        assert len(lines) == 3
        assert float(lines[2].split(",")[0]) == 10.0

    def test_record_validation(self):
        with pytest.raises(InvalidInput):
            MeasurementRecord(0.0, -1.0, 0.0, 0.0, (0.0, 0.0), 0.0)
        with pytest.raises(InvalidInput):
            CoincidenceConfig(window_ns=0.0)


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
        for m in (2, 3, 4, 6):
            u = haar_unitary(m, rng)
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
