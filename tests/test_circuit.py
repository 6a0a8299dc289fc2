import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from modeweaver.circuit import (
    DEVICE_TRANSMISSION,
    INTEGRATION_TIME_S,
    RECK_SIZE_CAP,
    WINDOW_NS,
    Circuit,
    CoincidenceConfig,
    GratingBS,
    PhaseShifter,
    compile_circuit,
    heater_phase,
    reck_circuit,
    reck_decompose,
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
    """The HOM dip circuit: one coupler between the pair's channels."""
    return Circuit(num_channels=2, elements=(GratingBS(channels=(0, 1), eta=eta),))


def delay_scan(eta, source, config, delays):
    """Counts of `dip_circuit` with the pair's delay swept over `delays`."""
    delays = np.asarray(delays, dtype=float)
    return simulate_counts(dip_circuit(eta), source, config, delays, delays)


class TestCompile:
    def test_empty_is_identity(self):
        assert np.array_equal(compile_circuit(Circuit(num_channels=3, elements=())), np.eye(3))

    def test_grating_embedding(self):
        circuit = Circuit(3, (GratingBS(channels=(0, 2), eta=0.55),))
        u = compile_circuit(circuit)
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
        u = compile_circuit(circuit)
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
        u = compile_circuit(Circuit(4, tuple(elements)))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(ChannelMismatch):
            compile_circuit(Circuit(2, (GratingBS(channels=(0, 5), eta=0.5),)))
        with pytest.raises(ChannelMismatch):
            compile_circuit(Circuit(2, (GratingBS(channels=(1, 1), eta=0.5),)))
        with pytest.raises(ChannelMismatch):
            compile_circuit(Circuit(2, (PhaseShifter(channels=(3,), phase_rad=1.0),)))

    def test_swept_settings_compile_to_arrays(self):
        """A swept phase compiles to a stack: one unitary per phase, each
        the unitary of that phase alone."""
        def circuit(phase):
            return Circuit(
                2,
                (
                    GratingBS(channels=(0, 1), eta=0.3),
                    PhaseShifter(channels=(1,), phase_rad=phase),
                    GratingBS(channels=(0, 1), eta=0.6),
                ),
            )

        phases = np.linspace(0.0, 6.0, 7)
        stack = compile_circuit(circuit(phases))
        assert stack.shape == (7, 2, 2)
        for phase, u in zip(phases, stack):
            assert np.array_equal(u, compile_circuit(circuit(float(phase))))


def _explicit_product(circuit: Circuit) -> np.ndarray:
    """The unitary as the product of each element's m x m matrix, a swept
    phase as a stack of diagonal matrices."""
    m = circuit.num_channels
    unitary = np.eye(m, dtype=np.complex128)
    for element in circuit.elements:
        if isinstance(element, GratingBS):
            a, b = element.channels
            step = np.eye(m, dtype=np.complex128)
            step[np.ix_([a, b], [a, b])] = coupler_unitary(element.eta)
        else:
            phase = np.asarray(element.phase_rad, dtype=float)
            step = np.zeros(phase.shape + (m, m), dtype=np.complex128)
            step[..., range(m), range(m)] = 1.0
            for ch in element.channels:
                step[..., ch, ch] = np.exp(1j * phase)
        unitary = step @ unitary
    return unitary


class TestRowWiseCompile:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_explicit_product(self, seed):
        """Random circuits over 2-6 channels, with couplers on any channel
        pair, phase shifters on several channels, swept and unswept phases."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        points = int(rng.integers(1, 9))
        elements = []
        for _ in range(int(rng.integers(1, 12))):
            kind = rng.integers(3)
            if kind == 0:
                a, b = rng.choice(m, size=2, replace=False)
                elements.append(GratingBS(channels=(int(a), int(b)), eta=float(rng.uniform())))
            else:
                count = int(rng.integers(1, m + 1))
                channels = tuple(int(c) for c in rng.choice(m, size=count, replace=False))
                phase = rng.uniform(-7, 7, size=points) if kind == 1 else rng.uniform(-7, 7)
                elements.append(PhaseShifter(channels=channels, phase_rad=phase))
        circuit = Circuit(m, tuple(elements))
        u = compile_circuit(circuit)
        expected = _explicit_product(circuit)
        assert u.shape == expected.shape
        assert np.max(np.abs(u - expected)) < 1e-14
        gram = np.swapaxes(u.conj(), -1, -2) @ u
        assert np.max(np.abs(gram - np.eye(m))) < 1e-13


class TestHeaterAndAccidentals:
    def test_heater_linear(self):
        assert heater_phase(1.3, 0.0) == 0.0
        assert heater_phase(1.3, 1.3) == pytest.approx(2 * math.pi)
        assert heater_phase(1.3, 0.65) == pytest.approx(math.pi)
        phases = heater_phase(1.3, np.array([0.0, 0.65, 1.3]))
        assert phases == pytest.approx([0.0, math.pi, 2 * math.pi])

    def test_heater_validation(self):
        with pytest.raises(InvalidInput):
            heater_phase(1.3, -0.1)
        with pytest.raises(InvalidInput):
            heater_phase(1.3, np.array([0.1, -0.1]))

    @pytest.mark.parametrize(
        "p_2pi_w, message",
        [
            (0.0, "P_2pi must be positive"),
            (-1.0, "P_2pi must be positive"),
            (math.nan, "p_2pi_w must be finite, got nan"),
            (math.inf, "p_2pi_w must be finite, got inf"),
        ],
    )
    def test_heater_refuses_p_2pi(self, p_2pi_w, message):
        # P_2pi is checked before the powers, which are bad here too
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            heater_phase(p_2pi_w, np.array([0.1, -0.1]))


class TestSimulateCounts:
    SOURCE = PhotonPairSource(intrinsic_overlap=1.0)
    CONFIG = CoincidenceConfig()

    def test_perfect_dip_at_zero_delay(self):
        counts = delay_scan(0.5, self.SOURCE, self.CONFIG, [0.0])
        assert counts["net"][0] == pytest.approx(0.0, abs=1e-9)

    def test_raw_is_net_plus_accidentals(self):
        counts = delay_scan(0.55, self.SOURCE, self.CONFIG, [0.0, 200.0])
        assert counts["raw"] == pytest.approx(counts["net"] + counts["accidentals"])

    def test_large_delay_closed_form(self):
        """Coincidences pass the chip's 0.2 dB transmission on both outputs,
        singles on one."""
        delay = 5000.0
        counts = delay_scan(0.55, self.SOURCE, self.CONFIG, [delay])
        overlap = spectral_overlap(self.SOURCE, delay)
        u = coupler_unitary(0.55)
        p = two_photon_coincidence(u, (0, 1), (0, 1), overlap)
        t = 10 ** -0.02
        assert DEVICE_TRANSMISSION == pytest.approx(t)
        assert counts["net"][0] == pytest.approx(self.SOURCE.pair_rate_hz * p * t * t)
        s_in = self.SOURCE.singles_rates_hz
        singles = s_in[0] * abs(u[0, 0]) ** 2 + s_in[1] * abs(u[0, 1]) ** 2
        assert counts["singles_a"][0] == pytest.approx(singles * t)

    def test_seeded_poisson_reproducible(self):
        config = CoincidenceConfig(poisson=True, seed=11)
        grid = np.linspace(-300, 300, 21)
        a = delay_scan(0.55, self.SOURCE, config, grid)
        b = delay_scan(0.55, self.SOURCE, config, grid)
        assert a["raw"].tolist() == b["raw"].tolist()
        assert all(raw.is_integer() for raw in a["raw"].tolist())

    def test_poisson_mean_matches_expectation(self):
        expected = delay_scan(0.55, self.SOURCE, self.CONFIG, [5000.0])["raw"][0]
        config = CoincidenceConfig(poisson=True, seed=3)
        draws = delay_scan(0.55, self.SOURCE, config, [5000.0] * 400)
        mean = np.mean(draws["raw"])
        # 4 sigma band for the mean of 400 Poisson draws
        assert abs(mean - expected) < 4 * math.sqrt(expected / 400)

    def test_poisson_accidentals_follow_drawn_singles(self):
        config = CoincidenceConfig(poisson=True, seed=7)
        counts = delay_scan(0.55, self.SOURCE, config, np.linspace(-300, 300, 41))
        implied = (counts["singles_a"] * counts["singles_b"] * WINDOW_NS
                   * 1e-9 / INTEGRATION_TIME_S)
        assert counts["accidentals"].tolist() == implied.tolist()
        assert len(set(implied.tolist())) > 1
        net_plus_accidentals = counts["net"] + counts["accidentals"]
        assert net_plus_accidentals.tolist() == counts["raw"].tolist()

    @pytest.mark.parametrize("poisson", [False, True])
    def test_columns_are_float_arrays(self, poisson):
        config = CoincidenceConfig(poisson=poisson, seed=5)
        counts = delay_scan(0.55, self.SOURCE, config, [0.0, 100.0])
        assert list(counts) == [
            "scan_value", "raw", "accidentals", "net", "singles_a", "singles_b",
            "stderr",
        ]
        for column in counts.values():
            assert isinstance(column, np.ndarray)
            assert (column.dtype, column.shape) == (np.float64, (2,))
        assert counts["scan_value"].tolist() == [0.0, 100.0]

    @pytest.mark.parametrize("poisson", [False, True])
    @pytest.mark.parametrize("delay", [0.0, -0.0, 130.0, -4000.0])
    def test_scalar_delay_is_the_repeated_delay_bit_for_bit(self, delay, poisson):
        """One delay for the whole scan counts as that delay at every point,
        for a fixed unitary and for a swept phase, drawn or not."""
        config = CoincidenceConfig(poisson=poisson, seed=19)
        source = PhotonPairSource()
        phases = np.linspace(0.0, 6.0, 9)
        swept = Circuit(2, (
            GratingBS(channels=(0, 1), eta=0.66),
            PhaseShifter(channels=(1,), phase_rad=phases),
            GratingBS(channels=(0, 1), eta=0.4),
        ))
        for circuit in (dip_circuit(0.55), swept):
            once = simulate_counts(circuit, source, config, phases, delay)
            repeated = simulate_counts(circuit, source, config, phases, np.full(9, delay))
            for name, column in once.items():
                assert column.tobytes() == repeated[name].tobytes(), name

    def test_swept_setting_must_match_grid(self):
        with pytest.raises(InvalidInput, match="the scan has 2 points"):
            simulate_counts(dip_circuit(), self.SOURCE, self.CONFIG, [0.0, 1.0], np.zeros(3))
        swept = Circuit(2, (PhaseShifter(channels=(1,), phase_rad=np.zeros(3)),))
        with pytest.raises(InvalidInput, match="the scan has 2 points"):
            simulate_counts(swept, self.SOURCE, self.CONFIG, [0.0, 1.0])
        with pytest.raises(InvalidInput, match="one-dimensional"):
            simulate_counts(dip_circuit(), self.SOURCE, self.CONFIG, [[0.0]])


# The count columns of simulate_counts in the row order of reference_counts.
ROW_COLUMNS = ("raw", "accidentals", "net", "singles_a", "singles_b", "stderr")


def reference_counts(build, source, delays, phases):
    """Expected counts computed point by point: one compile of `build(phase)`
    and one permanent per scan point, the pair at relative delay `delay`.
    Rows of (raw, accidentals, net, singles_a, singles_b, stderr), and the
    pair coincidence probability; the pair enters channels 0 and 1."""
    circuit = build(0.0)
    m = circuit.num_channels
    i, j = 0, 1
    k, l = circuit.output_channels
    occ_in = tuple(int(c in (i, j)) for c in range(m))
    occ_out = tuple(int(c in (k, l)) for c in range(m))
    t_int = INTEGRATION_TIME_S
    rows, probabilities = [], []
    for delay, phase in zip(delays, phases):
        u = compile_circuit(build(phase))
        x = spectral_overlap(source, delay)
        prob = np.abs(u) ** 2
        p_dist = prob[k, i] * prob[l, j] + prob[k, j] * prob[l, i]
        p_indist = abs(transition_amplitude(u, occ_in, occ_out)) ** 2
        p = x * p_indist + (1 - x) * p_dist
        t = DEVICE_TRANSMISSION
        s_in = source.singles_rates_hz
        singles_k = (s_in[0] * prob[k, i] + s_in[1] * prob[k, j]) * t
        singles_l = (s_in[0] * prob[l, i] + s_in[1] * prob[l, j]) * t
        acc = singles_k * singles_l * WINDOW_NS * 1e-9 * t_int
        raw = source.pair_rate_hz * p * t * t * t_int + acc
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
        k, l = (int(c) for c in rng.choice(m, 2, replace=False))
        offset = float(rng.uniform(-50.0, 50.0))
        couplers = []
        for _ in range(num_gratings):
            a, b = (int(c) for c in rng.choice(m, 2, replace=False))
            couplers.append(((a, b), float(rng.uniform()), int(rng.integers(m))))

        def build(phase):
            """The circuit with every phase shifter at `phase`."""
            elements = []
            for channels, eta, shifted in couplers:
                elements.append(GratingBS(channels=channels, eta=eta))
                elements.append(PhaseShifter(channels=(shifted,), phase_rad=phase))
            return Circuit(m, tuple(elements), (k, l))

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
        swept = build(phases if sweep_phase else float(phases[0]))
        # the pair's delay, with a fixed offset added
        delay = (delays if sweep_delay else float(delays[0])) + offset
        labels = np.arange(points, dtype=float)

        counts = simulate_counts(swept, source, config, labels, delay)
        got = np.column_stack([counts[name] for name in ROW_COLUMNS])
        want, probabilities = reference_counts(
            build, source, delays + offset, phases
        )
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
        t = DEVICE_TRANSMISSION
        p_batched = simulate_counts(swept, bare, config, labels, delay)["raw"] / (t * t)
        np.testing.assert_allclose(p_batched, probabilities, rtol=1e-12, atol=1e-15)
        assert np.all((p_batched >= -1e-15) & (p_batched <= 1.0 + 1e-12))

        # one Poisson draw over the grid takes the per-point stream
        noisy = CoincidenceConfig(poisson=True, seed=seed)
        draws = simulate_counts(swept, source, noisy, labels, delay)
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
        lambda: heater_phase(math.nan, 0.1),
        lambda: heater_phase(1.3, math.nan),
    ],
    ids=["heater_model", "heater_phase"],
)
def test_validators_reject_non_finite(make):
    with pytest.raises(InvalidInput, match="must be finite"):
        make()


def _recompose(decomposition) -> np.ndarray:
    """The mesh unitary through the device circuit."""
    return compile_circuit(reck_circuit(decomposition))


def _stage_product(decomposition) -> np.ndarray:
    """Oracle: the dense product of each stage's block [[c, -s], [s*, c]]
    embedded in the identity, applied after the output phases."""
    m = decomposition.size
    unitary = np.diag(np.exp(1j * decomposition.output_phases))
    for stage in reversed(decomposition.stages):
        c = math.sqrt(1.0 - stage.eta)
        s = math.sqrt(stage.eta) * np.exp(1j * stage.phase_rad)
        step = np.eye(m, dtype=np.complex128)
        step[np.ix_(stage.channels, stage.channels)] = [[c, -s], [np.conj(s), c]]
        unitary = step @ unitary
    return unitary


def _mesh_inputs(m, rng):
    """Haar, permutation, diagonal-phase and permutation x phase unitaries."""
    permutation = np.eye(m)[rng.permutation(m)]
    phases = np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, m)))
    return haar_unitary(m, rng), permutation, phases, permutation @ phases


class TestReck:
    def test_identity_has_no_stages(self):
        decomposition = reck_decompose(np.eye(4))
        assert decomposition.stages == ()
        assert np.allclose(_recompose(decomposition), np.eye(4))

    def test_single_coupler(self):
        u = coupler_unitary(0.3)
        decomposition = reck_decompose(u)
        assert len(decomposition.stages) == 1
        assert decomposition.stages[0].eta == pytest.approx(0.3, abs=1e-12)
        assert np.max(np.abs(_recompose(decomposition) - u)) < 1e-12

    def test_random_unitaries_round_trip(self, rng):
        """The device circuit rebuilds the input, and agrees with the dense
        stage product."""
        for m in range(2, RECK_SIZE_CAP + 1):
            for u in _mesh_inputs(m, rng):
                decomposition = reck_decompose(u)
                assert len(decomposition.stages) <= m * (m - 1) // 2
                recomposed = _recompose(decomposition)
                assert np.max(np.abs(recomposed - u)) < 1e-10
                oracle = _stage_product(decomposition)
                assert np.max(np.abs(recomposed - oracle)) < 1e-13

    def test_circuit_is_couplers_between_phase_shifters(self, rng):
        decomposition = reck_decompose(haar_unitary(4, rng))
        elements = reck_circuit(decomposition).elements
        m = decomposition.size
        assert [(e.channels, e.phase_rad) for e in elements[:m]] == [
            ((j,), phase) for j, phase in enumerate(decomposition.output_phases)
        ]
        stages = elements[m:]
        assert len(stages) == 3 * len(decomposition.stages)
        for (before, coupler, after), stage in zip(
            zip(*[iter(stages)] * 3), reversed(decomposition.stages)
        ):
            q = stage.channels[1]
            assert isinstance(coupler, GratingBS)
            assert (coupler.channels, coupler.eta) == (stage.channels, stage.eta)
            assert before.channels == after.channels == (q,)
            assert before.phase_rad == -after.phase_rad == stage.phase_rad + math.pi / 2

    def test_stages_are_adjacent_channel(self, rng):
        u = haar_unitary(5, rng)
        for stage in reck_decompose(u).stages:
            assert stage.channels[1] == stage.channels[0] + 1
            assert 0.0 <= stage.eta <= 1.0

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary, match=r"by 3\.000e\+00 > 1e-10"):
            reck_decompose(np.ones((3, 3)))

    def test_size_cap(self):
        with pytest.raises(InvalidInput):
            reck_decompose(np.eye(17))
