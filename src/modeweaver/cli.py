"""Command-line front end.

Exit codes: 0 success, 1 reference-target failure, 2 usage/config error,
3 computational error, 141 (128 + SIGPIPE) when a write to stdout fails
because its reader has closed it, as after `| head`. Config values come
from (lowest to highest precedence) the MODEWEAVER_DEFAULTS file, --config,
then flags. Every CSV table and JSON document is formatted here, and all
output numbers carry 12 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import circuit as circuit_mod
from . import coupling, experiments, wgmodes
from .circuit import HeaterModel, reck_decompose
from .errors import InvalidInput, ModeweaverError
from .fock import PhotonPairSource
from .wgmodes import MaterialStack, ModeId, WaveguideGeometry

# Largest start:stop:step grid a command accepts.
MAX_GRID_POINTS = 100_000


class ConfigError(Exception):
    pass


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _csv(header, rows) -> str:
    """CSV text with a header line: floats to 12 significant digits, every
    other value by str."""
    # column by column: one comprehension per column is faster than a join
    # over a generator per row
    columns = [
        [f"{v:.12g}" if isinstance(v, float) else str(v) for v in column]
        for column in zip(*rows)
    ]
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


def _dump_json(obj) -> str:
    try:
        text = json.dumps(_round12(obj), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InvalidInput(f"non-finite number in output: {exc}") from exc
    return text + "\n"


def _parse_range(text: str, name: str) -> list[float]:
    """Parse start:stop:step into an inclusive grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad number in {name}: {exc}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"non-finite number in {name}={text!r}")
    if step <= 0 or stop < start:
        raise ConfigError(f"empty sweep: {name}={text!r}")
    intervals = (stop - start) / step
    if not intervals < MAX_GRID_POINTS:
        raise ConfigError(
            f"{name}={text!r} has more than {MAX_GRID_POINTS} points"
        )
    count = math.floor(intervals + 1e-9) + 1
    return [start + i * step for i in range(count)]


def _parse_modes(text: str) -> list[ModeId]:
    try:
        return [ModeId.parse(m) for m in text.split(",") if m.strip()]
    except ModeweaverError as exc:
        raise ConfigError(str(exc)) from exc


class Option(NamedTuple):
    """One command setting: its config key, the kind that converts its value,
    its default and the help text of its flag --key. An option without help
    text declares no flag."""

    key: str
    kind: type | None
    default: object = None
    help: str | None = None


class Settings:
    """The settings of the parsed command: flag beats config file beats the
    option's default. Indexing converts with the option's kind; a float
    must be finite."""

    def __init__(self, args):
        self.args = args
        self.options = {o.key: o for o in COMMANDS[args.command][2]}
        self.config: dict = {}
        for p in filter(None, [os.environ.get("MODEWEAVER_DEFAULTS"), args.config]):
            try:
                with open(p, encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {p}: {exc}") from exc
            if not isinstance(data, dict):
                raise ConfigError(f"config {p} must hold a JSON object")
            unknown = set(data) - set(self.options)
            if unknown:
                raise ConfigError(
                    f"unknown config keys in {p}: {', '.join(sorted(unknown))}"
                )
            self.config.update(data)

    def __getitem__(self, key: str):
        option = self.options[key]
        flag = getattr(self.args, key, None)
        value = flag if flag is not None else self.config.get(key, option.default)
        if option.kind is not None and value is not None:
            try:
                value = option.kind(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        return value


def _emit(args, text: str, filename: str | None = None) -> None:
    if args.output and filename:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text, encoding="utf-8")
    else:
        # A write larger than the buffer that meets a closed pipe comes back
        # short and TextIOWrapper drops the rest silently; writes that fit
        # the buffer raise BrokenPipeError instead.
        step = io.DEFAULT_BUFFER_SIZE
        for start in range(0, len(text), step):
            sys.stdout.write(text[start:start + step])


def _stack(settings: Settings) -> MaterialStack:
    wavelength = settings["wavelength"]
    return MaterialStack(
        n_core=wgmodes.silicon_nitride_index(wavelength),
        n_clad=wgmodes.silica_index(wavelength),
        wavelength_nm=wavelength,
    )


def _source(settings: Settings) -> PhotonPairSource:
    return PhotonPairSource(
        intrinsic_overlap=settings["overlap"],
        filter_fwhm_nm=settings["filter_fwhm"],
        center_wavelength_nm=settings["wavelength"],
    )


def _count_config(settings: Settings) -> circuit_mod.CoincidenceConfig:
    return circuit_mod.CoincidenceConfig(
        poisson=settings["poisson"], seed=settings.args.seed
    )


# ---------------------------------------------------------------------------
# commands


def cmd_dispersion(args) -> int:
    settings = Settings(args)
    height = settings["height"]
    widths = _parse_range(settings["widths"], "widths")
    modes = _parse_modes(settings["modes"])
    if not modes:
        raise ConfigError("no modes requested")
    stack = _stack(settings)
    rows = wgmodes.dispersion_sweep(widths, modes, stack, height)
    if args.format == "json":
        payload = {
            "sweep_param": "width",
            "wavelength_nm": stack.wavelength_nm,
            "rows": [
                {"sweep_value": v, "mode": str(m), "n_eff": n} for v, m, n in rows
            ],
        }
        _emit(args, _dump_json(payload), "dispersion.json")
    else:
        table = _csv(
            ("sweep_param", "mode_family", "mode_order", "n_eff"),
            ((v, m.family, m.order, n) for v, m, n in rows),
        )
        _emit(args, table, "dispersion.csv")
    return 0


def cmd_design_grating(args) -> int:
    settings = Settings(args)
    width = settings["width"]
    height = settings["height"]
    modes = _parse_modes(settings["modes"])
    if len(modes) != 2:
        raise ConfigError("design-grating needs exactly two modes")
    depth = settings["depth"]
    periods = settings["periods"]
    kappa = settings["kappa"]
    geometry = WaveguideGeometry(width, height, _stack(settings))
    spec = coupling.grating_from_geometry(
        geometry,
        (modes[0], modes[1]),
        depth_nm=depth,
        num_periods=periods,
        kappa_override=kappa,
    )
    _emit(args, _dump_json(spec.to_dict()), "grating.json")
    return 0


def cmd_splitting(args) -> int:
    settings = Settings(args)
    kappa = settings["kappa"]
    periods_text = settings["periods"]
    if "," in periods_text:
        try:
            n_values = [int(p) for p in periods_text.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad period count: {exc}") from exc
    else:
        n_values = [int(v) for v in _parse_range(periods_text, "periods")]
    rows = experiments.run_splitting_vs_N(kappa, n_values, settings["overlap"])
    if args.format == "json":
        _emit(args, _dump_json(rows), "splitting.json")
    else:
        header = ("N", "eta", "visibility_ideal", "visibility_measured")
        table = _csv(header, ([r[key] for key in header] for r in rows))
        _emit(args, table, "splitting.csv")
    return 0


def _emit_scans(args, results) -> None:
    """Serialise every result, then write: a failing result writes nothing."""
    texts = []
    for result in results:
        if args.output or args.format == "csv":
            counts = result.counts
            columns = (column.tolist() for column in counts.values())
            table = _csv(counts.keys(), zip(*columns))
            texts.append((table, f"{result.name}.csv"))
        if args.output or args.format == "json":
            texts.append((_dump_json(result.fit_dict()), f"{result.name}.fit.json"))
    for text, filename in texts:
        _emit(args, text, filename)


def cmd_hom_scan(args) -> int:
    settings = Settings(args)
    eta = settings["eta"]
    grid = _parse_range(settings["delays"], "delays")
    result = experiments.run_hom_dip(
        eta, _source(settings), np.array(grid), _count_config(settings)
    )
    _emit_scans(args, [result])
    return 0


def cmd_hom_peak(args) -> int:
    settings = Settings(args)
    eta = settings["eta"]
    grid = _parse_range(settings["delays"], "delays")
    results = experiments.run_hom_peak(
        eta, _source(settings), np.array(grid), _count_config(settings)
    )
    _emit_scans(args, results.values())
    return 0


def cmd_noon_scan(args) -> int:
    settings = Settings(args)
    eta1 = settings["eta1"]
    eta2 = settings["eta2"]
    powers = _parse_range(settings["powers"], "powers")
    heater = HeaterModel(p_2pi_w=settings["p2pi"])
    results = experiments.run_noon(
        eta1, eta2, heater, np.array(powers), _source(settings),
        _count_config(settings),
    )
    _emit_scans(args, results)
    return 0


def cmd_decompose(args) -> int:
    settings = Settings(args)
    if "unitary" in settings.config:
        try:
            matrix = np.array(
                [[complex(c[0], c[1]) for c in row] for row in settings["unitary"]]
            )
        except (TypeError, ValueError, IndexError, KeyError, OverflowError) as exc:
            raise ConfigError(
                "unitary must be a nested list of [re, im] pairs"
            ) from exc
        if not np.isfinite(matrix).all():
            raise ConfigError("unitary entries must be finite")
    elif args.seed is not None or "size" in settings.config:
        size = settings["size"]
        if not 1 <= size <= circuit_mod.RECK_SIZE_CAP:
            raise ConfigError(
                f"size must lie in 1..{circuit_mod.RECK_SIZE_CAP}, got {size}"
            )
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        q, r = np.linalg.qr(z)
        matrix = q * (np.diag(r) / np.abs(np.diag(r)))
    else:
        raise ConfigError("decompose needs a 'unitary' (or 'size' plus --seed)")
    decomposition = reck_decompose(matrix)
    payload = {
        "size": decomposition.size,
        "stages": [
            {
                "channels": list(s.channels),
                "eta": s.eta,
                "phase_rad": s.phase_rad,
            }
            for s in decomposition.stages
        ],
        "output_phases_rad": [float(p) for p in decomposition.output_phases],
        "recomposition_error": float(
            np.max(np.abs(circuit_mod.reck_recompose(decomposition) - matrix))
        ),
    }
    _emit(args, _dump_json(payload), "decomposition.json")
    return 0


def cmd_reproduce_paper(args) -> int:
    poisson = Settings(args)["poisson"]
    args.output = args.output or "paper_outputs"
    scans, tables, targets = experiments.reproduce_all(
        seed=args.seed, poisson=poisson
    )
    _emit_scans(args, scans.values())
    for name, rows in tables.items():
        _emit(args, _dump_json(rows), f"{name}.json")
    all_pass = all(t.passed for t in targets)
    summary = {
        "seed": args.seed,
        "poisson": poisson,
        "targets": [t.to_dict() for t in targets],
        "all_passed": all_pass,
    }
    _emit(args, _dump_json(summary), "summary.json")
    for t in targets:
        status = "pass" if t.passed else "FAIL"
        sys.stdout.write(
            f"{status}  {t.name}: {t.computed:.6g} "
            f"(expected {t.expected:.6g} +- {t.tolerance:.3g})\n"
        )
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------


# Options shared by several commands.
HEIGHT = Option("height", float, 190.0, "waveguide height in nm")
WAVELENGTH = Option("wavelength", float, 808.0, "wavelength in nm")
OVERLAP = Option("overlap", float, 0.92, "source overlap x0")
SOURCE = (
    OVERLAP,
    Option("filter_fwhm", float, 3.0, "filter FWHM in nm"),
    WAVELENGTH,
)
# Every command has the --poisson flag; it is a config key only where read.
POISSON = Option("poisson", bool, False)
DELAY_SCAN = (
    Option("eta", float, 0.55, "splitting ratio"),
    *SOURCE,
    Option("delays", str, "-500:500:10", "delay grid start:stop:step in um"),
    POISSON,
)

# command -> (handler, help, options); flags appear in --help in this order.
COMMANDS = {
    "dispersion": (cmd_dispersion, "effective-index sweep to CSV", (
        HEIGHT,
        Option("widths", str, "400:2000:25", "width sweep start:stop:step in nm"),
        Option("modes", str, "TE0,TE1,TE2", "comma-separated mode list, e.g. TE0,TE2"),
        WAVELENGTH,
    )),
    "design-grating": (cmd_design_grating, "grating spec from waveguide geometry", (
        Option("width", float, 1600.0, "waveguide width in nm"),
        HEIGHT,
        Option("modes", str, "TE0,TE2", "mode pair, e.g. TE0,TE2"),
        Option("depth", float, 24.0, "grating depth in nm"),
        Option("periods", int, 20, "number of grating periods"),
        Option("kappa", float, None, "override kappa per period"),
        WAVELENGTH,
    )),
    "splitting": (cmd_splitting, "splitting ratio vs period count", (
        Option("kappa", float, 0.041, "coupling per period (rad)"),
        Option("periods", str, "0:40:1", "N list '15,20,25' or range start:stop:step"),
        OVERLAP,
    )),
    "hom-scan": (cmd_hom_scan, "two-photon dip vs delay", DELAY_SCAN),
    "hom-peak": (cmd_hom_peak, "bunching peak per output arm", DELAY_SCAN),
    "noon-scan": (cmd_noon_scan, "classical and two-photon fringes", (
        Option("eta1", float, 0.66, "first coupler splitting ratio"),
        Option("eta2", float, 0.66, "second coupler splitting ratio"),
        *SOURCE,
        Option("powers", str, "0:2.6:0.05", "heater power grid start:stop:step in W"),
        Option("p2pi", float, 1.3, "heater power per 2 pi (W)"),
        POISSON,
    )),
    "decompose": (cmd_decompose, "triangular mesh factorization of a unitary", (
        Option("unitary", None),
        Option("size", int, 4),
    )),
    "reproduce-paper": (
        cmd_reproduce_paper, "run all reference experiments and compare targets",
        (POISSON,),
    ),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage text."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}"
        )
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modeweaver",
        description="Design and simulate multimode-waveguide quantum circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output", help="output directory (default: stdout)")
        p.add_argument("--seed", type=_seed, help="random seed")
        p.add_argument("--poisson", action="store_true", default=None,
                       help="sample Poisson counts instead of expectations")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        for option in options:
            if option.help:
                p.add_argument("--" + option.key.replace("_", "-"),
                               type=option.kind, help=option.help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit does not
        # raise again on the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ModeweaverError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
