"""Circuit composition over spatial-mode channels.

Elements compile to an m x m unitary plus a per-channel power transmission
and an input-arm delay map. Loss is uniform-or-per-channel scalar power
transmission applied to rates, never to amplitudes; delays act on the
source overlap, not on the mode unitary.

A scan compiles once: its swept delay or phase is an array with one value
per scan point, a swept phase compiles to a stack of unitaries, and
`simulate_counts` computes every column of every record as array
expressions over the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coupling import coupler_unitary
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
class GratingBS:
    """Grating mode-beamsplitter acting on a channel pair."""

    channels: tuple[int, int]
    eta: float  # splitting ratio


@dataclass(frozen=True)
class PhaseShifter:
    """Differential phase on a channel subset."""

    channels: tuple[int, ...]
    phase_rad: float | np.ndarray = 0.0  # an array sweeps it, one per scan point
    name: str = "phase"


@dataclass(frozen=True)
class RelativeDelay:
    """Free-space path delay on one input arm (affects distinguishability)."""

    arm: int
    delay_um: float | np.ndarray = 0.0  # an array sweeps it, one per scan point


@dataclass(frozen=True)
class Loss:
    """Power loss in dB, uniform or on selected channels."""

    loss_db: float
    channels: tuple[int, ...] | None = None

    def __post_init__(self):
        require_finite(loss_db=self.loss_db)
        if self.loss_db < 0:
            raise InvalidInput("loss must be >= 0 dB")


Element = GratingBS | PhaseShifter | RelativeDelay | Loss


@dataclass(frozen=True)
class HeaterModel:
    """Linear power-to-phase heater: phi = 2 pi P / P_2pi + phi0."""

    p_2pi_w: float = 1.3
    phi0_rad: float = 0.0

    def __post_init__(self):
        require_finite(p_2pi_w=self.p_2pi_w, phi0_rad=self.phi0_rad)
        if self.p_2pi_w <= 0:
            raise InvalidInput("P_2pi must be positive")


def heater_phase(model: HeaterModel, power_w):
    """Phase at heater power `power_w` (W), a float or an array of powers."""
    power = np.asarray(power_w, dtype=float)
    finite = np.isfinite(power)
    if not finite.all():
        raise InvalidInput(f"power_w must be finite, got {power[~finite][0]}")
    if (power < 0).any():
        raise InvalidInput("heater power must be >= 0")
    return 2.0 * math.pi * power / model.p_2pi_w + model.phi0_rad


def accidentals(singles_1_hz, singles_2_hz, window_ns: float):
    """Accidental coincidence rate S1 * S2 * window; the rates may be arrays."""
    if (np.less(singles_1_hz, 0).any() or np.less(singles_2_hz, 0).any()
            or window_ns < 0):
        raise InvalidInput("rates and window must be >= 0")
    return singles_1_hz * singles_2_hz * window_ns * 1e-9


@dataclass(frozen=True)
class Circuit:
    """Ordered element list over m mode channels, plus measured ports."""

    num_channels: int
    elements: tuple[Element, ...]
    input_channels: tuple[int, int] = (0, 1)
    output_channels: tuple[int, int] = (0, 1)

    def with_phase(self, name: str, phase_rad) -> "Circuit":
        """Copy of the circuit with the named phase shifter set; an array of
        phases sweeps it."""
        new_elements = tuple(
            replace(e, phase_rad=phase_rad)
            if isinstance(e, PhaseShifter) and e.name == name
            else e
            for e in self.elements
        )
        return replace(self, elements=new_elements)

    def with_delay(self, arm: int, delay_um) -> "Circuit":
        """Copy of the circuit with the delay on `arm` set; an array of
        delays sweeps it."""
        new_elements = tuple(
            replace(e, delay_um=delay_um)
            if isinstance(e, RelativeDelay) and e.arm == arm
            else e
            for e in self.elements
        )
        return replace(self, elements=new_elements)


@dataclass(frozen=True)
class CompiledCircuit:
    unitary: np.ndarray  # (m, m), or (N, m, m) when a phase is swept
    transmission: np.ndarray  # per-channel power factor
    delays_um: dict  # input arm -> accumulated delay (an array when swept)


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Multiply element matrices in order; factor out loss and delays.

    A phase shifter whose phase is an array of N values makes the unitary an
    (N, m, m) stack.
    """
    m = circuit.num_channels
    if m < 1:
        raise ChannelMismatch("need at least one channel")
    unitary = np.eye(m, dtype=np.complex128)
    transmission = np.ones(m)
    delays: dict[int, float] = {}
    for element in circuit.elements:
        if isinstance(element, GratingBS):
            block = coupler_unitary(element.eta)
            step = _embed_two_mode(block, element.channels, m)
            _check_element_unitary(step)
            unitary = step @ unitary
        elif isinstance(element, PhaseShifter):
            phase = np.asarray(element.phase_rad, dtype=float)
            step = np.zeros(phase.shape + (m, m), dtype=np.complex128)
            step[..., range(m), range(m)] = 1.0
            for ch in element.channels:
                if not 0 <= ch < m:
                    raise ChannelMismatch(f"phase channel {ch} outside 0..{m - 1}")
                step[..., ch, ch] = np.exp(1j * phase)
            unitary = step @ unitary
        elif isinstance(element, RelativeDelay):
            delay = np.asarray(element.delay_um, dtype=float)
            delays[element.arm] = delays.get(element.arm, 0.0) + delay
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
    return CompiledCircuit(unitary, transmission, delays)


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


def _relative_delay_um(compiled: CompiledCircuit, arms: tuple[int, int]):
    d = compiled.delays_um
    return d.get(arms[0], 0.0) - d.get(arms[1], 0.0)


def simulate_counts(
    circuit: Circuit,
    source: PhotonPairSource,
    config: CoincidenceConfig,
    scan_values,
) -> list[MeasurementRecord]:
    """Expected (or Poisson-sampled) counts over a scan.

    `circuit` holds the whole scan: its swept delay or phase is an array
    with one value per entry of `scan_values`, which label the records
    (see `Circuit.with_delay` and `Circuit.with_phase`). The circuit
    compiles once and every column is computed over the grid at once.
    Deterministic without a seed; bitwise reproducible with one.
    """
    values = np.asarray(scan_values, dtype=float)
    if values.ndim != 1:
        raise InvalidInput(f"scan values must be one-dimensional, got {values.shape}")
    n = len(values)
    compiled = compile_circuit(circuit)
    i, j = circuit.input_channels
    k, l = circuit.output_channels
    delay = np.asarray(_relative_delay_um(compiled, (i, j)), dtype=float)
    for shape in (delay.shape, compiled.unitary.shape[:-2]):
        if shape not in ((), (n,)):
            raise InvalidInput(
                f"a swept circuit setting has shape {shape}; the scan has {n} points"
            )
    overlap = np.array(
        [spectral_overlap(source, d) for d in delay.ravel().tolist()]
    ).reshape(delay.shape)
    p_cc = two_photon_coincidence(compiled.unitary, (i, j), (k, l), overlap)
    prob = np.abs(compiled.unitary) ** 2
    t_k = compiled.transmission[k]
    t_l = compiled.transmission[l]
    net_rate = source.pair_rate_hz * p_cc * t_k * t_l
    s_in = source.singles_rates_hz
    singles_k = (s_in[0] * prob[..., k, i] + s_in[1] * prob[..., k, j]) * t_k
    singles_l = (s_in[0] * prob[..., l, i] + s_in[1] * prob[..., l, j]) * t_l
    acc_rate = accidentals(singles_k, singles_l, config.window_ns)
    t_int = config.integration_time_s
    # one row per point, [raw, singles_k, singles_l]: a single Poisson draw
    # over it takes the same stream as per-point draws in that order
    counts = np.empty((n, 3))
    counts[:, 0] = (net_rate + acc_rate) * t_int
    counts[:, 1] = singles_k * t_int
    counts[:, 2] = singles_l * t_int
    if config.poisson:
        counts = np.random.default_rng(config.seed).poisson(counts).astype(float)
    raw = counts[:, 0]
    acc = np.broadcast_to(acc_rate * t_int, (n,))
    net = raw - acc if config.subtract_accidentals else raw
    stderr = np.sqrt(np.maximum(raw, 0.0))
    return [
        MeasurementRecord(
            scan_value=value,
            raw=r,
            accidentals=a,
            net=d,
            singles=(s_a, s_b),
            stderr=e,
        )
        for value, r, a, d, s_a, s_b, e in zip(
            values.tolist(), raw.tolist(), acc.tolist(), net.tolist(),
            counts[:, 1].tolist(), counts[:, 2].tolist(), stderr.tolist(),
        )
    ]


def records_to_csv(records: list[MeasurementRecord]) -> str:
    lines = ["scan_value,raw,accidentals,net,singles_a,singles_b,stderr"]
    for r in records:
        lines.append(
            f"{r.scan_value:.12g},{r.raw:.12g},{r.accidentals:.12g},"
            f"{r.net:.12g},{r.singles[0]:.12g},{r.singles[1]:.12g},{r.stderr:.12g}"
        )
    return "\n".join(lines) + "\n"


# Largest unitary reck_decompose factors.
RECK_SIZE_CAP = 16


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
    column by column, leaving a diagonal phase matrix. Capped at
    m = RECK_SIZE_CAP.
    """
    u = check_unitary(target, tol)
    m = u.shape[0]
    if m > RECK_SIZE_CAP:
        raise InvalidInput(f"decomposition capped at m = {RECK_SIZE_CAP}")
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
