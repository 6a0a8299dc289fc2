"""Workload definitions: what one round of each workload runs, and the
seeded inputs of its Fock-engine operations.

Every workload runs the same kinds of operation, so every run reports
every end-to-end metric; the workload sets the scale of each kind:

- ``paper``: the published grids, and the two-photon Fock work of the
  paper's circuits.
- ``dense_scans``: 10-20x denser CLI grids, plus four invalid-input probes.
- ``fock``: multi-photon evolution and large permanents.

Shared by ``run.py`` (which checks outputs) and ``worker.py`` (which runs
them), so both see the same operations and the same inputs for a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from pathlib import Path

import numpy as np

WORKLOADS = ("paper", "dense_scans", "fock")

# Device parameters passed explicitly on every scan command; the output
# checks in run.py use the same values.
ETA_DIP = 0.55
OVERLAP = 0.92
FILTER_FWHM_NM = 3.0
WAVELENGTH_NM = 808.0
ETA_NOON = 0.66
P_2PI_W = 1.3
HEIGHT_NM = 190.0
PAPER_SEED = 7

# (delays um, heater powers W, widths nm, modes)
GRIDS = {
    "paper": ("-500:500:10", "0:2.6:0.05", "400:2000:25", "TE0,TE1,TE2"),
    "dense": ("-500:500:1", "0:5.2:0.005", "400:3000:2",
              "TE0,TE1,TE2,TE3,TM0,TM1"),
}

# Inputs that must be rejected with exit 2 and a one-line message.
PROBES = (
    ("probe_dispersion_height_nan", ("dispersion", "--height", "nan")),
    ("probe_grating_depth_nan",
     ("design-grating", "--depth", "nan", "--format", "json")),
    ("probe_hom_delays_nan", ("hom-scan", "--delays=0:nan:1")),
    ("probe_noon_p2pi_nan", ("noon-scan", "--p2pi", "nan")),
)

# Name suffix of the second pass over the CLI commands in a `fock` round.
REPEAT_SUFFIX = "_again"

# Two-photon Fock work of `paper` and `dense_scans`: the round's in-process
# CLI commands compute this many two-photon coincidences, each from one 2x2
# permanent (counted with spans.Tracer over one round). The round makes as
# many 2x2 permanents directly, and as many evolves of the HOM input |1,1>
# in two modes, which give the coincidence amplitude and both bunched ones.
TWO_PHOTON_COINCIDENCES = {"paper": 919, "dense_scans": 5648}
# (modes m, photons n) of `fock`: a multi-photon grid up to
# D = C(m+n-1, n) = 126, and permanent sizes n.
LARGE_EVOLVES = ((4, 2), (5, 3), (6, 3), (5, 4), (6, 4))
LARGE_PERMANENTS = (10, 12, 14, 16)
# |1,1> in the PureState basis order (2,0), (1,1), (0,2).
HOM_INPUT = np.array([0.0, 1.0, 0.0], dtype=np.complex128)


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    kind: "process" (fresh interpreter), "cli" (in-process ``cli.main``),
    "probe" (in-process invalid input), "evolve" or "permanent".
    metric: the end-to-end metric whose time it counts towards, if any.
    points: units of work for rate metrics (scan points or mode solves).
    output: output directory of a command, if it writes one.
    index: position of an evolve or permanent op's batch of inputs.
    """

    name: str
    kind: str
    metric: str | None = None
    argv: tuple = ()
    points: int = 0
    output: str | None = None
    index: int = 0


def grid(text: str) -> np.ndarray:
    """Values of an inclusive start:stop:step grid."""
    start, stop, step = (float(p) for p in text.split(":"))
    count = int(round((stop - start) / step)) + 1
    return start + step * np.arange(count)


def haar_unitary(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, phases fixed by R."""
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_state(rng: np.random.Generator, modes: int, photons: int) -> np.ndarray:
    """Normalised amplitudes over all C(m+n-1, n) basis states, none zero."""
    dim = comb(modes + photons - 1, photons)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def fock_inputs(workload: str, seed: int) -> dict:
    """Seeded inputs of one workload's Fock-engine operations, as batches:
    one batch per op, each a list of (m, n, unitary, amplitudes) for
    ``evolve`` and of square matrices for ``permanent``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "fock":
        return {
            "evolve": [[(m, n, haar_unitary(rng, m), dense_state(rng, m, n))]
                       for m, n in LARGE_EVOLVES],
            "permanent": [[haar_unitary(rng, n)] for n in LARGE_PERMANENTS],
        }
    count = TWO_PHOTON_COINCIDENCES[workload]
    return {
        "evolve": [[(2, 2, haar_unitary(rng, 2), HOM_INPUT) for _ in range(count)]],
        "permanent": [[haar_unitary(rng, 2) for _ in range(count)]],
    }


def _cli_ops(scale: str, workdir: Path, suffix: str = "") -> list[Op]:
    """``reproduce-paper`` as a process and in-process, then the four scans
    on one grid scale."""
    delays, powers, widths, modes = GRIDS[scale]
    n_delay, n_power = len(grid(delays)), len(grid(powers))
    n_solves = len(grid(widths)) * len(modes.split(","))
    source = ("--overlap", str(OVERLAP), "--filter-fwhm", str(FILTER_FWHM_NM),
              "--wavelength", str(WAVELENGTH_NM))
    reproduce = ("reproduce-paper", "--seed", str(PAPER_SEED))
    specs = (
        ("paper_process", "process", "paper_process_s", 0, reproduce),
        ("reproduce", "cli", "reproduce_s", 0, reproduce),
        ("hom_scan", "cli", "delay_scan_points_per_s", n_delay,
         ("hom-scan", "--eta", str(ETA_DIP), f"--delays={delays}") + source),
        ("hom_peak", "cli", "delay_scan_points_per_s", 2 * n_delay,
         ("hom-peak", "--eta", str(ETA_DIP), f"--delays={delays}") + source),
        ("noon_scan", "cli", "fringe_scan_points_per_s", 2 * n_power,
         ("noon-scan", "--eta1", str(ETA_NOON), "--eta2", str(ETA_NOON),
          "--p2pi", str(P_2PI_W), "--powers", powers) + source),
        ("dispersion", "cli", "mode_solves_per_s", n_solves,
         ("dispersion", "--height", str(HEIGHT_NM), "--widths", widths,
          "--modes", modes, "--wavelength", str(WAVELENGTH_NM))),
    )
    ops = []
    for name, kind, metric, points, argv in specs:
        out = str(workdir / (name + suffix))
        ops.append(Op(name + suffix, kind, metric, argv + ("--output", out),
                      points, out))
    return ops


def round_ops(workload: str, workdir: Path) -> list[Op]:
    """The operations of one round of ``workload``, in execution order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    ops = _cli_ops("dense" if workload == "dense_scans" else "paper", workdir)
    if workload == "dense_scans":
        ops += [Op(name, "probe", argv=argv) for name, argv in PROBES]
    if workload == "fock":
        ops += [Op(f"evolve_{i}_m{m}_n{n}", "evolve", "evolve_s", index=i)
                for i, (m, n) in enumerate(LARGE_EVOLVES)]
        ops += [Op(f"permanent_{i}_n{n}", "permanent", "permanent_s", index=i)
                for i, n in enumerate(LARGE_PERMANENTS)]
        # Its long rounds give few samples per run; a second pass over the
        # CLI commands doubles the samples behind their metrics.
        ops += _cli_ops("paper", workdir, REPEAT_SUFFIX)
    else:
        count = TWO_PHOTON_COINCIDENCES[workload]
        ops += [Op(f"evolve_hom_x{count}", "evolve", "evolve_s"),
                Op(f"permanent_2x2_x{count}", "permanent", "permanent_s")]
    return ops
