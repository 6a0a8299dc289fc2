"""Circuit composition over spatial-mode channels.

Couplers and phase shifters compile to the m x m mode unitary. The
relative delay of the photon pair acts on the source overlap, not on the
mode unitary, and the chip's insertion loss is a power transmission applied
to rates, never to amplitudes; `simulate_counts` takes the one and applies
the other.

A scan's circuit is built with its sweep in place: a swept phase is a
phase shifter holding an array with one value per scan point, and a swept
delay is such an array passed to `simulate_counts`. The circuit compiles
once per scan, a swept phase to a stack of unitaries, and
`simulate_counts` takes that unitary and computes every count column as
an array expression over the grid; count sets of one scan that differ
only in their source or measured outputs share the one compile.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .coupling import coupler_unitary
from .errors import ChannelMismatch, InvalidInput, require_finite
from .fock import (
    PhotonPairSource, check_unitary, spectral_overlap, times, two_photon_coincidence,
)


# Value holders that check nothing are NamedTuples: a class of them is
# created several times faster at import than a frozen dataclass. Classes
# that check their input are frozen dataclasses, so that the check runs on
# every construction, dataclasses.replace included. Every class here is a
# NamedTuple: what is checked is checked where it is used, a coupler's eta
# by coupler_unitary, channels by compile_circuit and P_2pi by heater_phase.
class GratingBS(NamedTuple):
    """Grating mode-beamsplitter acting on a channel pair."""

    channels: tuple[int, int]
    eta: float  # splitting ratio


class PhaseShifter(NamedTuple):
    """Differential phase on a channel subset."""

    channels: tuple[int, ...]
    phase_rad: float | np.ndarray = 0.0  # an array sweeps it, one per scan point


Element = GratingBS | PhaseShifter

# Power transmission of the chip, 0.2 dB insertion loss, on every output.
DEVICE_TRANSMISSION = 10.0 ** (-0.2 / 10.0)

# The detection setup: coincidence window (ns) and integration time (s).
WINDOW_NS = 2.0
INTEGRATION_TIME_S = 1.0


def heater_phase(p_2pi_w: float, power_w):
    """Phase of the linear heater, phi = 2 pi P / P_2pi, at heater power
    `power_w` (W), a float or an array of powers; `p_2pi_w` is the power
    per 2 pi (W), checked first."""
    require_finite(p_2pi_w=p_2pi_w)
    if p_2pi_w <= 0:
        raise InvalidInput("P_2pi must be positive")
    power = np.asarray(power_w, dtype=float)
    finite = np.isfinite(power)
    if not finite.all():
        raise InvalidInput(f"power_w must be finite, got {power[~finite][0]}")
    if (power < 0).any():
        raise InvalidInput("heater power must be >= 0")
    with np.errstate(over="ignore"):
        phase = 2.0 * math.pi * power / p_2pi_w
    if not np.isfinite(phase).all():
        raise InvalidInput(
            f"heater phase overflows: power up to {power.max()} W, "
            f"P_2pi {p_2pi_w} W"
        )
    return phase


class Circuit(NamedTuple):
    """Ordered element list over m mode channels; the photon pair enters
    channels 0 and 1."""

    num_channels: int
    elements: tuple[Element, ...]


def compile_circuit(circuit: Circuit) -> np.ndarray:
    """The mode unitary: the elements applied in order to the rows of the
    identity.

    A coupler mixes its two rows with its 2x2 block and a phase shifter
    multiplies its rows by e^{i phi}. The unitary is (m, m), or an (N, m, m)
    stack when a phase shifter's phase is an array of N values.
    """
    m = circuit.num_channels
    if m < 1:
        raise ChannelMismatch("need at least one channel")
    # real and imaginary parts indexed [row, column, *sweep], so that a row
    # over the whole sweep is one contiguous array
    re, im = np.eye(m), np.zeros((m, m))
    for element in circuit.elements:
        if isinstance(element, GratingBS):
            rows = a, b = element.channels
            if a == b:
                raise ChannelMismatch("coupler channels must differ")
            if not (0 <= a < m and 0 <= b < m):
                raise ChannelMismatch(f"channels {rows} outside 0..{m - 1}")
            mixed = []
            for weights in coupler_unitary(element.eta).tolist():
                (x_re, x_im), (y_re, y_im) = (
                    times(w.real, w.imag, re[c], im[c]) for w, c in zip(weights, rows)
                )
                mixed.append((x_re + y_re, x_im + y_im))
            for c, (row_re, row_im) in zip(rows, mixed):
                re[c], im[c] = row_re, row_im
        elif isinstance(element, PhaseShifter):
            phase = np.asarray(element.phase_rad, dtype=float)
            sweep = np.broadcast_shapes(re.shape[2:], phase.shape)
            if sweep != re.shape[2:]:  # new sweep axes lead, as in broadcasting
                shape = (m, m) + (1,) * (len(sweep) + 2 - re.ndim) + re.shape[2:]
                re, im = (
                    np.broadcast_to(part.reshape(shape), (m, m) + sweep).copy()
                    for part in (re, im)
                )
            factor = np.exp(1j * phase)
            for ch in dict.fromkeys(element.channels):
                if not 0 <= ch < m:
                    raise ChannelMismatch(f"phase channel {ch} outside 0..{m - 1}")
                re[ch], im[ch] = times(factor.real, factor.imag, re[ch], im[ch])
        else:
            raise InvalidInput(f"unknown element {element!r}")
    unitary = np.empty(re.shape[2:] + (m, m), dtype=np.complex128)
    sweep_first = (*range(2, re.ndim), 0, 1)
    unitary.real, unitary.imag = re.transpose(sweep_first), im.transpose(sweep_first)
    return unitary


class CoincidenceConfig(NamedTuple):
    """How counts are drawn: expected values, or Poisson draws from `seed`."""

    poisson: bool = False
    seed: int | None = None

    def to_dict(self) -> dict:
        """The detection settings as a fit document records them."""
        return {
            "window_ns": WINDOW_NS,
            "integration_time_s": INTEGRATION_TIME_S,
            "subtract_accidentals": True,
            "poisson": self.poisson,
            "seed": self.seed,
        }


def simulate_counts(
    unitary: np.ndarray,
    source: PhotonPairSource,
    config: CoincidenceConfig,
    scan_values,
    delay_um=0.0,
    outputs: tuple[int, int] = (0, 1),
) -> dict[str, np.ndarray]:
    """Expected (or Poisson-sampled) counts over a scan, as columns.

    `unitary` is a compiled circuit, `compile_circuit`'s (m, m) unitary or
    its (N, m, m) stack for a swept phase; the photon pair enters channels
    0 and 1 and coincidences are taken between the channels `outputs`,
    singles_a of the first and singles_b of the second. `delay_um` is the
    relative delay of the photon pair, the one entering channel 0 against
    the one entering channel 1. It and the unitary hold one value, or one
    per entry of `scan_values`. Every column is computed over the grid at
    once; every rate passes the chip's transmission DEVICE_TRANSMISSION on
    each output, and counts are taken over INTEGRATION_TIME_S with a
    coincidence window of WINDOW_NS. Returns one float array per column,
    keyed scan_value, raw, accidentals, net, singles_a, singles_b, stderr;
    net is raw - accidentals, and every other count column is non-negative.
    Poisson sampling draws raw, singles_a and singles_b from a generator
    seeded afresh on every call; accidentals then follow from the drawn
    singles (singles_a * singles_b * window / integration time), so net
    subtracts the accidentals of the counts it sits beside. Deterministic
    without a seed; bitwise reproducible with one.
    """
    values = np.asarray(scan_values, dtype=float)
    if values.ndim != 1:
        raise InvalidInput(f"scan values must be one-dimensional, got {values.shape}")
    n = len(values)
    k, l = outputs
    delay = np.asarray(delay_um, dtype=float)
    for shape in (delay.shape, unitary.shape[:-2]):
        if shape not in ((), (n,)):
            raise InvalidInput(
                f"a swept delay or phase has shape {shape}; the scan has {n} points"
            )
    overlap = spectral_overlap(source, delay)
    p_cc = two_photon_coincidence(unitary, (0, 1), outputs, overlap)
    prob = np.abs(unitary) ** 2
    t = DEVICE_TRANSMISSION
    net_rate = source.pair_rate_hz * p_cc * t * t
    s_in = source.singles_rates_hz
    singles_k = (s_in[0] * prob[..., k, 0] + s_in[1] * prob[..., k, 1]) * t
    singles_l = (s_in[0] * prob[..., l, 0] + s_in[1] * prob[..., l, 1]) * t
    acc_rate = singles_k * singles_l * WINDOW_NS * 1e-9
    t_int = INTEGRATION_TIME_S
    # one row per point, [raw, singles_k, singles_l]: a single Poisson draw
    # over it takes the same stream as per-point draws in that order
    counts = np.empty((n, 3))
    counts[:, 0] = (net_rate + acc_rate) * t_int
    counts[:, 1] = singles_k * t_int
    counts[:, 2] = singles_l * t_int
    if config.poisson:
        counts = np.random.default_rng(config.seed).poisson(counts).astype(float)
        # the accidentals the drawn singles imply
        acc = counts[:, 1] * counts[:, 2] * WINDOW_NS * 1e-9 / t_int
    else:
        acc = np.full(n, acc_rate * t_int)
    raw = counts[:, 0]
    return {
        "scan_value": values,
        "raw": raw,
        "accidentals": acc,
        "net": raw - acc,
        "singles_a": counts[:, 1],
        "singles_b": counts[:, 2],
        "stderr": np.sqrt(np.maximum(raw, 0.0)),
    }


# Largest unitary reck_decompose factors.
RECK_SIZE_CAP = 16

# Largest deviation of U^H U from the identity that reck_decompose accepts.
RECK_UNITARY_TOL = 1e-10


class ReckStage(NamedTuple):
    """One two-channel coupler of a triangular mesh: the block [[c, -s], [s*, c]]
    on its channels, c = sqrt(1 - eta), s = sqrt(eta) e^{i phase_rad}."""

    channels: tuple[int, int]
    eta: float
    phase_rad: float


class ReckDecomposition(NamedTuple):
    stages: tuple[ReckStage, ...]
    output_phases: np.ndarray  # diagonal phases, length m

    @property
    def size(self) -> int:
        return len(self.output_phases)


def reck_decompose(target: np.ndarray) -> ReckDecomposition:
    """Factor a unitary into a triangular mesh of two-channel couplers.

    Adjacent-channel Givens-style rotations null the below-diagonal entries
    column by column, leaving a diagonal phase matrix. Capped at
    m = RECK_SIZE_CAP.
    """
    # A huge entry overflows U^H U to inf or NaN, which check_unitary
    # rejects. Its warnings are silenced here, for a matrix from outside,
    # rather than in check_unitary, which every evolve calls:
    # np.errstate adds about 2.5 us a call (numpy 2.4, 2-core x86 host),
    # a tenth of a two-photon evolve.
    with np.errstate(over="ignore", invalid="ignore"):
        u = check_unitary(target, RECK_UNITARY_TOL)
    m = u.shape[0]
    if m > RECK_SIZE_CAP:
        raise InvalidInput(f"decomposition capped at m = {RECK_SIZE_CAP}")
    work = u.copy()
    stages = []
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
            eta = abs(complex(s)) ** 2
            if eta > 1e-28:
                stages.append(ReckStage((row - 1, row), eta, float(np.angle(s))))
    return ReckDecomposition(tuple(stages), np.angle(np.diag(work)))


def reck_circuit(decomposition: ReckDecomposition) -> Circuit:
    """The mesh as device elements: the output phases, then each stage in
    reverse order as a grating coupler [[t, i r], [i r, t]] between phase
    shifters of theta = phase_rad + pi/2 and -theta on its second channel,
    which make it the stage's block [[c, -s], [s*, c]]."""
    elements: list[Element] = [
        PhaseShifter((j,), phase)
        for j, phase in enumerate(decomposition.output_phases.tolist())
    ]
    for stage in reversed(decomposition.stages):
        q = stage.channels[1]
        theta = stage.phase_rad + math.pi / 2
        elements += (
            PhaseShifter((q,), theta),
            GratingBS(stage.channels, stage.eta),
            PhaseShifter((q,), -theta),
        )
    return Circuit(decomposition.size, tuple(elements))
