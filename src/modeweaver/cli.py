"""Command-line front end.

Exit codes: 0 success, 1 reference-target failure, 2 usage/config error,
3 computational error, 141 (128 + SIGPIPE) when a write to stdout fails
because its reader has closed it, as after `| head`. Config values come
from (lowest to highest precedence) the MODEWEAVER_DEFAULTS file, --config,
then flags; main resolves and checks every option of the command once,
before the command runs, and each command reads its options as attributes
of the parsed arguments. Every CSV table and JSON document is formatted
here, and all output numbers carry 12 significant digits so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import circuit as circuit_mod
from . import coupling, experiments, wgmodes
from .circuit import reck_circuit, reck_decompose
from .errors import InvalidInput, ModeCutoff, ModeweaverError
from .fock import PhotonPairSource
from .wgmodes import MaterialStack, ModeId, WaveguideGeometry

# Largest start:stop:step grid a command accepts.
MAX_GRID_POINTS = 100_000


class ConfigError(Exception):
    pass


def _csv(header, columns) -> str:
    """CSV text with a header line, from one sequence per column of a
    shared length: a float64 array to 12 significant digits, any other
    column by `%s`. Each column's format is chosen once, and the table
    takes a single `%`. A float64 array that holds one bit pattern (0.0
    and -0.0 differ) is formatted once, into the row format itself."""
    formats = []
    cells = []
    for column in columns:
        if isinstance(column, np.ndarray) and column.dtype == np.float64:
            if _one_pattern(column):
                formats.append("%.12g" % column[0])
                continue
            column = column.tolist()
            formats.append("%.12g")
        else:
            formats.append("%s")
        cells.append(column)
    # the row format once per row takes the cells in row-major order
    rows = len(next(iter(columns), ()))
    flat = [None] * (rows * len(cells))
    for k, column in enumerate(cells):
        flat[k::len(cells)] = column
    return ",".join(header) + "\n" + ((",".join(formats) + "\n") * rows) % tuple(flat)


def _one_pattern(column: np.ndarray) -> bool:
    """Whether a non-empty float64 array holds one bit pattern on every row."""
    bits = column.view(np.int64)
    return bool(column.size) and bool((bits == bits[0]).all())


def _dump_json(obj) -> str:
    """JSON text of `obj` with every float rounded to 12 significant digits,
    laid out as json.dumps(..., indent=2, sort_keys=True) lays it out, plus a
    final newline. InvalidInput on NaN or an infinity."""
    return _json(obj, "\n") + "\n"


def _json(obj, newline: str) -> str:
    """`obj` as JSON, its nested lines starting with `newline` plus two
    spaces per level."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise InvalidInput(f"non-finite number in output: {obj}")
        return _json_float("%.12g" % obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [f"{encode_basestring_ascii(key)}: {_json(obj[key], inner)}"
                 for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if isinstance(obj, _JsonTexts):
            items = obj
        elif set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            items = list(map(_json_float, map("%.12g".__mod__, obj)))
        else:
            items = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    return json.dumps(obj)


class _JsonTexts(list):
    """The JSON texts of finite floats, which `_json` writes as they are."""


def _json_float(text: str) -> str:
    """The JSON text of a finite float from its `%.12g` text: what repr
    writes for the float that text parses to. Without an exponent the two
    differ only in repr's `.0` on a whole number; only a text with an
    exponent is parsed back, since `%g` writes one from 1e12 and repr only
    from 1e16."""
    if "e" in text:
        return repr(float(text))
    return text if "." in text else text + ".0"


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


class Command(NamedTuple):
    """A subcommand: its handler, its help text, its options (their flags
    appear in --help in this order), the output formats it writes, which
    --format takes, the first by default (a command with no format choice
    declares none and takes no --format), and whether it reads --seed."""

    handler: object
    help: str
    options: tuple
    formats: tuple = ("csv", "json")
    seeded: bool = False


class Option(NamedTuple):
    """One command setting: its config key, the kind that converts its value,
    its default and the help text of its flag --key, a switch for a bool.
    An option without help text declares no flag."""

    key: str
    kind: type | None
    default: object = None
    help: str | None = None


def _resolve(args) -> None:
    """Set every option of the parsed command on `args`: flag beats config
    file beats the option's default. Each value converts with the option's
    kind, and only where nothing is lost: a bool takes only true or false,
    an int only an integral number, no other kind a bool, and a float must
    be finite. `args.config_keys` holds the keys the config files gave."""
    options = COMMANDS[args.command].options
    config: dict = {}
    for p in filter(None, [os.environ.get("MODEWEAVER_DEFAULTS"), args.config]):
        try:
            with open(p, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {p}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {p} must hold a JSON object")
        unknown = set(data) - {o.key for o in options}
        if unknown:
            raise ConfigError(
                f"unknown config keys in {p}: {', '.join(sorted(unknown))}"
            )
        config.update(data)
    args.config_keys = set(config)
    for key, kind, default, _ in options:
        flag = getattr(args, key, None)
        value = flag if flag is not None else config.get(key, default)
        if kind is not None and value is not None:
            integral = isinstance(value, int) or (
                isinstance(value, float) and value.is_integer()
            )
            if isinstance(value, bool) != (kind is bool) or (
                kind is int and not integral
            ):
                raise ConfigError(f"bad value for {key}: {value!r}")
            try:
                value = kind(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        setattr(args, key, value)


def _emit(args, text: str, filename: str) -> None:
    if args.output:
        out_dir = Path(args.output)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / filename).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {out_dir / filename}: {exc}") from exc
    else:
        # A write larger than the buffer that meets a closed pipe comes back
        # short and TextIOWrapper drops the rest silently; writes that fit
        # the buffer raise BrokenPipeError instead.
        step = io.DEFAULT_BUFFER_SIZE
        for start in range(0, len(text), step):
            sys.stdout.write(text[start:start + step])


def _stack(args) -> MaterialStack:
    return MaterialStack(
        n_core=wgmodes.silicon_nitride_index(args.wavelength),
        n_clad=wgmodes.silica_index(args.wavelength),
        wavelength_nm=args.wavelength,
    )


def _source(args) -> PhotonPairSource:
    return PhotonPairSource(
        intrinsic_overlap=args.overlap,
        filter_fwhm_nm=args.filter_fwhm,
        center_wavelength_nm=args.wavelength,
    )


def _count_config(args) -> circuit_mod.CoincidenceConfig:
    return circuit_mod.CoincidenceConfig(poisson=args.poisson, seed=args.seed)


# ---------------------------------------------------------------------------
# commands


def cmd_dispersion(args) -> int:
    widths = _parse_range(args.widths, "widths")
    modes = _parse_modes(args.modes)
    if not modes:
        raise ConfigError("no modes requested")
    stack = _stack(args)
    grid = wgmodes.dispersion_sweep(widths, modes, stack, args.height)
    # the guided (width, mode) pairs, width-major in the requested mode order
    rows, columns = np.nonzero(~np.isnan(grid))
    if not len(rows):
        raise ModeCutoff(
            f"no requested mode guided at any width, height {args.height:g} nm, "
            f"wavelength {stack.wavelength_nm:g} nm"
        )
    n_eff = grid[rows, columns]
    if args.format == "json":
        if not np.isfinite(n_eff).all():
            raise InvalidInput(
                f"non-finite number in output: {n_eff[~np.isfinite(n_eff)][0]}"
            )
        # each width and each mode name are formatted once; a row's text is
        # its dict as `_dump_json` lays it out at this depth
        width_texts = [_json_float("%.12g" % w) for w in widths]
        name_texts = [encode_basestring_ascii(str(m)) for m in modes]
        row = '{\n      "mode": %s,\n      "n_eff": %s,\n      "sweep_value": %s\n    }'
        payload = {
            "sweep_param": "width",
            "wavelength_nm": stack.wavelength_nm,
            "rows": _JsonTexts(
                row % (name_texts[j], _json_float("%.12g" % n), width_texts[i])
                for i, j, n in zip(rows.tolist(), columns.tolist(), n_eff.tolist())
            ),
        }
        _emit(args, _dump_json(payload), "dispersion.json")
    else:
        # each width and each mode are formatted once
        width_texts = np.array(["%.12g" % w for w in widths], dtype=object)
        mode_texts = np.array([f"{m.family},{m.order}" for m in modes], dtype=object)
        table = _csv(
            ("sweep_param", "mode_family", "mode_order", "n_eff"),
            # one mode cell fills both the mode_family and mode_order fields
            (width_texts[rows].tolist(), mode_texts[columns].tolist(), n_eff),
        )
        _emit(args, table, "dispersion.csv")
    return 0


def cmd_design_grating(args) -> int:
    modes = _parse_modes(args.modes)
    if len(modes) != 2:
        raise ConfigError("design-grating needs exactly two modes")
    geometry = WaveguideGeometry(args.width, args.height, _stack(args))
    spec = coupling.grating_from_geometry(
        geometry,
        (modes[0], modes[1]),
        depth_nm=args.depth,
        num_periods=args.periods,
        kappa_override=args.kappa,
    )
    _emit(args, _dump_json(spec.to_dict()), "grating.json")
    return 0


def cmd_splitting(args) -> int:
    periods_text = args.periods
    if ":" not in periods_text:
        try:
            n_values = [int(p) for p in periods_text.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad period count: {exc}") from exc
        if not n_values:
            raise ConfigError(f"no period count in periods={periods_text!r}")
    else:
        grid = _parse_range(periods_text, "periods")
        if not all(v.is_integer() for v in grid):
            raise ConfigError(f"periods={periods_text!r} has a non-integer count")
        n_values = [int(v) for v in grid]
    rows = experiments.run_splitting_vs_N(args.kappa, n_values, args.overlap)
    if args.format == "json":
        _emit(args, _dump_json(rows), "splitting.json")
    else:
        header = ("N", "eta", "visibility_ideal", "visibility_measured")
        table = _csv(header, [[r["N"] for r in rows]] + [
            np.array([r[key] for r in rows]) for key in header[1:]
        ])
        _emit(args, table, "splitting.csv")
    return 0


# The fit document's config key for the grid of each swept quantity.
_GRID_KEYS = {"delay": "delay_grid", "heater_power": "power_grid"}


def _emit_scans(args, results) -> None:
    """Serialise every result, then write: a failing result writes nothing.
    Each distinct scan grid is formatted once per call, and its texts fill
    the scan_value column of every table and the grid of every fit
    document that holds it. Each distinct table, keyed by the names and
    bytes of its count columns, goes through `_csv` once per call; a result
    whose columns equal an earlier one's bit for bit, such as hom-peak's
    arm B, reuses that CSV text."""
    tables = args.output or args.format == "csv"
    documents = args.output or args.format == "json"
    grids = {}  # the grid's bytes -> its scan_value column, its JSON texts
    csv_texts = {}  # the count columns' (name, bytes) pairs -> the CSV text
    texts = []
    for result in results:
        values = result.counts["scan_value"]
        key = values.tobytes()
        if key not in grids:
            grid = list(map("%.12g".__mod__, values.tolist()))
            grids[key] = (
                # one bit pattern stays an array: `_csv` writes it as a literal
                values if _one_pattern(values) else grid,
                # a non-finite grid is left to `_json`, which refuses it
                _JsonTexts(map(_json_float, grid))
                if documents and np.isfinite(values).all() else None,
            )
        column, json_texts = grids[key]
        if tables:
            table = tuple(
                (name, array.tobytes()) for name, array in result.counts.items()
            )
            if table not in csv_texts:
                counts = dict(result.counts, scan_value=column)
                csv_texts[table] = _csv(counts.keys(), counts.values())
            texts.append((csv_texts[table], f"{result.name}.csv"))
        if documents:
            document = result.fit_dict()
            if json_texts is not None:
                # a copy: results of one scan may share their config
                document["config"] = {
                    **document["config"], _GRID_KEYS[result.scan[0]]: json_texts
                }
            texts.append((_dump_json(document), f"{result.name}.fit.json"))
    for text, filename in texts:
        _emit(args, text, filename)


def cmd_hom_scan(args) -> int:
    grid = _parse_range(args.delays, "delays")
    result = experiments.run_hom_dip(
        args.eta, _source(args), np.array(grid), _count_config(args)
    )
    _emit_scans(args, [result])
    return 0


def cmd_hom_peak(args) -> int:
    grid = _parse_range(args.delays, "delays")
    results = experiments.run_hom_peak(
        args.eta, _source(args), np.array(grid), _count_config(args)
    )
    _emit_scans(args, results.values())
    return 0


def cmd_noon_scan(args) -> int:
    powers = _parse_range(args.powers, "powers")
    results = experiments.run_noon(
        args.eta1, args.eta2, args.p2pi, np.array(powers),
        _source(args), _count_config(args),
    )
    _emit_scans(args, results)
    return 0


def cmd_decompose(args) -> int:
    if "unitary" in args.config_keys:
        rows = args.unitary
        try:
            matrix = np.array([[complex(re, im) for re, im in row] for row in rows])
            # complex() would take JSON true and false as 1 and 0
            parts = {type(x) for row in rows for pair in row for x in pair}
            if not matrix.size or bool in parts:
                raise ValueError("no entries, or a boolean part")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                "unitary must be a nested list of [re, im] pairs"
            ) from exc
        if not np.isfinite(matrix).all():
            raise ConfigError("unitary entries must be finite")
    elif args.seed is not None or "size" in args.config_keys:
        size = args.size
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
    recomposed = circuit_mod.compile_circuit(reck_circuit(decomposition))
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
        "recomposition_error": float(np.max(np.abs(recomposed - matrix))),
    }
    _emit(args, _dump_json(payload), "decomposition.json")
    return 0


def cmd_reproduce_paper(args) -> int:
    args.output = args.output or "paper_outputs"
    scans, tables, targets = experiments.reproduce_all(
        seed=args.seed, poisson=args.poisson
    )
    _emit_scans(args, scans.values())
    for name, rows in tables.items():
        _emit(args, _dump_json(rows), f"{name}.json")
    all_pass = all(t.passed for t in targets)
    summary = {
        "seed": args.seed,
        "poisson": args.poisson,
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
POISSON = Option("poisson", bool, False, "sample Poisson counts instead of expectations")
DELAY_SCAN = (
    Option("eta", float, 0.55, "splitting ratio"),
    *SOURCE,
    Option("delays", str, "-500:500:10", "delay grid start:stop:step in um"),
    POISSON,
)

COMMANDS = {
    "dispersion": Command(cmd_dispersion, "effective-index sweep to CSV", (
        HEIGHT,
        Option("widths", str, "400:2000:25", "width sweep start:stop:step in nm"),
        Option("modes", str, "TE0,TE1,TE2", "comma-separated mode list, e.g. TE0,TE2"),
        WAVELENGTH,
    )),
    "design-grating": Command(
        cmd_design_grating, "grating spec from waveguide geometry",
        (
            Option("width", float, 1600.0, "waveguide width in nm"),
            HEIGHT,
            Option("modes", str, "TE0,TE2", "mode pair, e.g. TE0,TE2"),
            Option("depth", float, 24.0, "grating depth in nm"),
            Option("periods", int, 20, "number of grating periods"),
            Option("kappa", float, None, "override kappa per period"),
            WAVELENGTH,
        ),
        ("json",),
    ),
    "splitting": Command(cmd_splitting, "splitting ratio vs period count", (
        Option("kappa", float, 0.041, "coupling per period (rad)"),
        Option("periods", str, "0:40:1", "N list '15,20,25' or range start:stop:step"),
        OVERLAP,
    )),
    "hom-scan": Command(
        cmd_hom_scan, "two-photon dip vs delay", DELAY_SCAN, seeded=True
    ),
    "hom-peak": Command(
        cmd_hom_peak, "bunching peak per output arm", DELAY_SCAN, seeded=True
    ),
    "noon-scan": Command(cmd_noon_scan, "classical and two-photon fringes", (
        Option("eta1", float, 0.66, "first coupler splitting ratio"),
        Option("eta2", float, 0.66, "second coupler splitting ratio"),
        *SOURCE,
        Option("powers", str, "0:2.6:0.05", "heater power grid start:stop:step in W"),
        Option("p2pi", float, experiments.P_2PI_W, "heater power per 2 pi (W)"),
        POISSON,
    ), seeded=True),
    "decompose": Command(
        cmd_decompose, "triangular mesh factorization of a unitary",
        (Option("unitary", None), Option("size", int, 4)),
        ("json",),
        seeded=True,
    ),
    "reproduce-paper": Command(
        cmd_reproduce_paper, "run all reference experiments and compare targets",
        (POISSON,),
        (),  # it always writes both formats, to files
        seeded=True,
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


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing fills a new
    namespace each time and leaves the parser unchanged."""
    parser = _Parser(
        prog="modeweaver",
        description="Design and simulate multimode-waveguide quantum circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options, formats, seeded) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output", help="output directory (default: stdout)")
        if seeded:
            p.add_argument("--seed", type=_seed, help="random seed")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        for option in options:
            if option.help:
                # a bool option is a switch; None leaves the config's value
                kind = ({"action": "store_true", "default": None}
                        if option.kind is bool else {"type": option.kind})
                p.add_argument("--" + option.key.replace("_", "-"),
                               help=option.help, **kind)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _resolve(args)
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
