"""Circuit composition over spatial-mode channels.

Elements compile to an m x m unitary plus a per-channel power transmission
and an input-arm delay map. Loss is uniform-or-per-channel scalar power
transmission applied to rates, never to amplitudes; delays act on the
source overlap, not on the mode unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coupling import (
    DirectionalCouplerSpec,
    GratingSpec,
    coupler_unitary,
    multiplexer_transfer,
)
from .errors import (
    ChannelMismatch,
    InvalidInput,
    NonUnitaryElement,
    NotUnitary,
    require_finite,
)
from .fock import PhotonPairSource, check_unitary, spectral_overlap, two_photon_coincidence


def _embed_two_mode(block: np.ndarray, channels: tuple[int, int], m: int) -> np.ndarray:
    a, b = channels
    if a == b:
        raise ChannelMismatch("coupler channels must differ")
    if not (0 <= a < m and 0 <= b < m):
        raise ChannelMismatch(f"channels {channels} outside 0..{m - 1}")
    u = np.eye(m, dtype=np.complex128)
    u[a, a] = block[0, 0]
    u[a, b] = block[0, 1]
    u[b, a] = block[1, 0]
    u[b, b] = block[1, 1]
    return u


@dataclass(frozen=True)
class MultiplexerIn:
    """Maps a single-mode input port onto a mode channel of the circuit."""

    spec: DirectionalCouplerSpec


@dataclass(frozen=True)
class MultiplexerOut:
    """Maps a mode channel back out to a single-mode port."""

    spec: DirectionalCouplerSpec


@dataclass(frozen=True)
class GratingBS:
    """Grating mode-beamsplitter acting on a channel pair."""

    channels: tuple[int, int]
    spec: GratingSpec | None = None
    eta: float | None = None  # direct splitting ratio, bypassing the spec

    def splitting(self) -> float:
        if self.eta is not None:
            return self.eta
        if self.spec is None:
            raise InvalidInput("GratingBS needs a spec or an explicit eta")
        return self.spec.eta


@dataclass(frozen=True)
class PhaseShifter:
    """Differential phase on a channel subset."""

    channels: tuple[int, ...]
    phase_rad: float = 0.0
    name: str = "phase"


@dataclass(frozen=True)
class RelativeDelay:
    """Free-space path delay on one input arm (affects distinguishability)."""

    arm: int
    delay_um: float = 0.0


@dataclass(frozen=True)
class Loss:
    """Power loss in dB, uniform or on selected channels."""

    loss_db: float
    channels: tuple[int, ...] | None = None

    def __post_init__(self):
        require_finite(loss_db=self.loss_db)
        if self.loss_db < 0:
            raise InvalidInput("loss must be >= 0 dB")


Element = MultiplexerIn | MultiplexerOut | GratingBS | PhaseShifter | RelativeDelay | Loss


@dataclass(frozen=True)
class HeaterModel:
    """Linear power-to-phase heater: phi = 2 pi P / P_2pi + phi0."""

    p_2pi_w: float = 1.3
    phi0_rad: float = 0.0

    def __post_init__(self):
        require_finite(p_2pi_w=self.p_2pi_w, phi0_rad=self.phi0_rad)
        if self.p_2pi_w <= 0:
            raise InvalidInput("P_2pi must be positive")


def heater_phase(model: HeaterModel, power_w: float) -> float:
    require_finite(power_w=power_w)
    if power_w < 0:
        raise InvalidInput("heater power must be >= 0")
    return 2.0 * math.pi * power_w / model.p_2pi_w + model.phi0_rad


def accidentals(singles_1_hz: float, singles_2_hz: float, window_ns: float) -> float:
    """Accidental coincidence rate S1 * S2 * window."""
    if singles_1_hz < 0 or singles_2_hz < 0 or window_ns < 0:
        raise InvalidInput("rates and window must be >= 0")
    return singles_1_hz * singles_2_hz * window_ns * 1e-9


@dataclass(frozen=True)
class Circuit:
    """Ordered element list over m mode channels, plus measured ports."""

    num_channels: int
    elements: tuple[Element, ...]
    input_channels: tuple[int, int] = (0, 1)
    output_channels: tuple[int, int] = (0, 1)

    def with_phase(self, name: str, phase_rad: float) -> "Circuit":
        """Copy of the circuit with the named phase shifter set."""
        new_elements = tuple(
            replace(e, phase_rad=phase_rad)
            if isinstance(e, PhaseShifter) and e.name == name
            else e
            for e in self.elements
        )
        return replace(self, elements=new_elements)

    def with_delay(self, arm: int, delay_um: float) -> "Circuit":
        """Copy of the circuit with the delay on `arm` set."""
        new_elements = tuple(
            replace(e, delay_um=delay_um)
            if isinstance(e, RelativeDelay) and e.arm == arm
            else e
            for e in self.elements
        )
        return replace(self, elements=new_elements)


@dataclass(frozen=True)
class CompiledCircuit:
    unitary: np.ndarray
    transmission: np.ndarray  # per-channel power factor
    delays_um: dict  # input arm -> accumulated delay
    crosstalk: float  # multiplexer leak fraction (incoherent)


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Multiply element matrices in order; factor out loss and delays.

    Multiplexers with zero crosstalk contribute identity routing (channel
    indexing is fixed by the circuit); nonzero crosstalk is recorded and
    folded into the distinguishable paths by simulate_counts.
    """
    m = circuit.num_channels
    if m < 1:
        raise ChannelMismatch("need at least one channel")
    unitary = np.eye(m, dtype=np.complex128)
    transmission = np.ones(m)
    delays: dict[int, float] = {}
    crosstalk = 0.0
    for element in circuit.elements:
        if isinstance(element, (MultiplexerIn, MultiplexerOut)):
            if element.spec.target_channel >= m:
                raise ChannelMismatch(
                    f"multiplexer channel {element.spec.target_channel} >= m"
                )
            crosstalk = max(crosstalk, element.spec.crosstalk)
        elif isinstance(element, GratingBS):
            block = coupler_unitary(element.splitting())
            step = _embed_two_mode(block, element.channels, m)
            _check_element_unitary(step)
            unitary = step @ unitary
        elif isinstance(element, PhaseShifter):
            step = np.eye(m, dtype=np.complex128)
            for ch in element.channels:
                if not 0 <= ch < m:
                    raise ChannelMismatch(f"phase channel {ch} outside 0..{m - 1}")
                step[ch, ch] = np.exp(1j * element.phase_rad)
            unitary = step @ unitary
        elif isinstance(element, RelativeDelay):
            delays[element.arm] = delays.get(element.arm, 0.0) + element.delay_um
        elif isinstance(element, Loss):
            factor = 10.0 ** (-element.loss_db / 10.0)
            if element.channels is None:
                transmission *= factor
            else:
                for ch in element.channels:
                    if not 0 <= ch < m:
                        raise ChannelMismatch(f"loss channel {ch} outside 0..{m - 1}")
                    transmission[ch] *= factor
        else:
            raise InvalidInput(f"unknown element {element!r}")
    return CompiledCircuit(unitary, transmission, delays, crosstalk)


def _check_element_unitary(matrix: np.ndarray, tol: float = 1e-12) -> None:
    try:
        check_unitary(matrix, tol)
    except NotUnitary as exc:
        raise NonUnitaryElement(str(exc)) from exc


@dataclass(frozen=True)
class CoincidenceConfig:
    """Detection parameters for count simulation."""

    window_ns: float = 2.0
    integration_time_s: float = 1.0
    subtract_accidentals: bool = True
    poisson: bool = False
    seed: int | None = None

    def __post_init__(self):
        require_finite(
            window_ns=self.window_ns, integration_time_s=self.integration_time_s
        )
        if self.window_ns <= 0:
            raise InvalidInput("coincidence window must be positive")
        if self.integration_time_s <= 0:
            raise InvalidInput("integration time must be positive")


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts at one scan point (expected values, or Poisson samples)."""

    scan_value: float
    raw: float
    accidentals: float
    net: float
    singles: tuple[float, float]
    stderr: float

    def __post_init__(self):
        if min(self.raw, self.accidentals) < 0 or min(self.singles) < 0:
            raise InvalidInput("counts must be non-negative")


def _relative_delay_um(compiled: CompiledCircuit, arms: tuple[int, int]) -> float:
    d = compiled.delays_um
    return d.get(arms[0], 0.0) - d.get(arms[1], 0.0)


def _arrival(prob: np.ndarray, channel: int, crosstalk: float) -> np.ndarray:
    """Output power distribution of one photon entering `channel`, given
    prob = |U|^2. The multiplexer routes it into `channel` or leaks it into
    the other channels; with no crosstalk this is a column of prob.
    """
    return prob @ multiplexer_transfer(channel, crosstalk, len(prob))


def _coincidence_probability(
    compiled: CompiledCircuit,
    circuit: Circuit,
    overlap: float,
) -> float:
    """Pair coincidence probability including incoherent multiplexer leak."""
    i, j = circuit.input_channels
    k, l = circuit.output_channels
    u = compiled.unitary
    eps = compiled.crosstalk
    p_routed = two_photon_coincidence(u, (i, j), (k, l), overlap)
    if eps == 0.0:
        return p_routed
    # misrouted photons are distinguishable; average over uniform leaks
    prob = np.abs(u) ** 2
    p_total = (1.0 - eps) ** 2 * p_routed
    arr_i, arr_j = _arrival(prob, i, eps), _arrival(prob, j, eps)
    # at least one photon leaked: classical assignment probabilities
    p_cross = arr_i[k] * arr_j[l] + arr_j[k] * arr_i[l]
    p_routed_dist = (
        prob[k, i] * prob[l, j] + prob[k, j] * prob[l, i]
    ) * (1.0 - eps) ** 2
    p_total += p_cross - p_routed_dist
    return float(p_total)


def simulate_counts(
    circuit: Circuit,
    source: PhotonPairSource,
    config: CoincidenceConfig,
    scan_values,
    set_point,
) -> list[MeasurementRecord]:
    """Expected (or Poisson-sampled) counts over a scan.

    `set_point(circuit, value)` returns the circuit configured at one scan
    value (e.g. a delay or a heater phase). Deterministic without a seed;
    bitwise reproducible with one.
    """
    rng = np.random.default_rng(config.seed) if config.poisson else None
    records = []
    t_int = config.integration_time_s
    for value in scan_values:
        configured = set_point(circuit, value)
        compiled = compile_circuit(configured)
        delay = _relative_delay_um(compiled, configured.input_channels)
        overlap = spectral_overlap(source, delay)
        p_cc = _coincidence_probability(compiled, configured, overlap)
        k, l = configured.output_channels
        t_k = compiled.transmission[k]
        t_l = compiled.transmission[l]
        net_rate = source.pair_rate_hz * p_cc * t_k * t_l
        prob = np.abs(compiled.unitary) ** 2
        s_in = source.singles_rates_hz
        i, j = configured.input_channels
        arr_i = _arrival(prob, i, compiled.crosstalk)
        arr_j = _arrival(prob, j, compiled.crosstalk)
        singles_k = (s_in[0] * arr_i[k] + s_in[1] * arr_j[k]) * t_k
        singles_l = (s_in[0] * arr_i[l] + s_in[1] * arr_j[l]) * t_l
        acc_rate = accidentals(singles_k, singles_l, config.window_ns)
        raw = (net_rate + acc_rate) * t_int
        acc = acc_rate * t_int
        singles = (singles_k * t_int, singles_l * t_int)
        if rng is not None:
            raw = float(rng.poisson(raw))
            singles = tuple(float(rng.poisson(s)) for s in singles)
        net = raw - acc if config.subtract_accidentals else raw
        stderr = math.sqrt(max(raw, 0.0))
        records.append(
            MeasurementRecord(
                scan_value=float(value),
                raw=float(raw),
                accidentals=float(acc),
                net=float(net),
                singles=singles,
                stderr=stderr,
            )
        )
    return records


def records_to_csv(records: list[MeasurementRecord]) -> str:
    lines = ["scan_value,raw,accidentals,net,singles_a,singles_b,stderr"]
    for r in records:
        lines.append(
            f"{r.scan_value:.12g},{r.raw:.12g},{r.accidentals:.12g},"
            f"{r.net:.12g},{r.singles[0]:.12g},{r.singles[1]:.12g},{r.stderr:.12g}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReckStage:
    """One two-channel coupler of a triangular mesh."""

    channels: tuple[int, int]
    eta: float
    phase_rad: float

    def matrix(self, m: int) -> np.ndarray:
        c = math.sqrt(1.0 - self.eta)
        s = math.sqrt(self.eta) * np.exp(1j * self.phase_rad)
        block = np.array([[c, -s], [np.conj(s), c]], dtype=np.complex128)
        return _embed_two_mode(block, self.channels, m)


@dataclass(frozen=True)
class ReckDecomposition:
    size: int
    stages: tuple[ReckStage, ...]
    output_phases: np.ndarray  # diagonal phases, length m


def reck_decompose(target: np.ndarray, tol: float = 1e-10) -> ReckDecomposition:
    """Factor a unitary into a triangular mesh of two-channel couplers.

    Adjacent-channel Givens-style rotations null the below-diagonal entries
    column by column, leaving a diagonal phase matrix. Capped at m = 16.
    """
    u = check_unitary(target, tol)
    m = u.shape[0]
    if m > 16:
        raise InvalidInput("decomposition capped at m = 16")
    work = u.copy()
    givens: list[tuple[int, float, complex]] = []  # (upper row p, c, s)
    for col in range(m):
        for row in range(m - 1, col, -1):
            a = work[row - 1, col]
            b = work[row, col]
            if abs(b) < 1e-14:
                continue
            r = math.hypot(abs(a), abs(b))
            if abs(a) < 1e-14:
                c, s = 0.0, 1.0 + 0.0j
            else:
                c = abs(a) / r
                s = np.conj(c * b / a)
            g = np.array([[c, s], [-np.conj(s), c]], dtype=np.complex128)
            work[[row - 1, row], :] = g @ work[[row - 1, row], :]
            givens.append((row - 1, c, complex(s)))
    phases = np.angle(np.diag(work))
    stages = tuple(
        ReckStage(channels=(p, p + 1), eta=float(abs(s) ** 2),
                  phase_rad=float(np.angle(s)) if abs(s) > 0 else 0.0)
        for p, c, s in givens
        if abs(s) ** 2 > 1e-28
    )
    return ReckDecomposition(size=m, stages=stages, output_phases=phases)


def reck_recompose(decomposition: ReckDecomposition) -> np.ndarray:
    """Rebuild the unitary from its mesh factors."""
    m = decomposition.size
    matrix = np.diag(np.exp(1j * decomposition.output_phases)).astype(np.complex128)
    for stage in reversed(decomposition.stages):
        matrix = stage.matrix(m) @ matrix
    return matrix
