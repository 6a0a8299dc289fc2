"""Command-line front end.

Exit codes: 0 success, 1 reference-target failure, 2 usage/config error,
3 computational error. Config values come from (lowest to highest
precedence) the MODEWEAVER_DEFAULTS file, --config, then flags. All output
numbers carry 12 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

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


def _load_config(path: str | None, allowed: set[str]) -> dict:
    merged: dict = {}
    for p in filter(None, [os.environ.get("MODEWEAVER_DEFAULTS"), path]):
        try:
            with open(p, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {p}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {p} must hold a JSON object")
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(
                f"unknown config keys in {p}: {', '.join(sorted(unknown))}"
            )
        merged.update(data)
    return merged


def _setting(args, config: dict, key: str, default, kind=None):
    """Flag beats config file beats default.

    `kind` converts a value that is not None; a float must be finite.
    """
    flag = getattr(args, key.replace("-", "_"), None)
    value = flag if flag is not None else config.get(key, default)
    if kind is not None and value is not None:
        try:
            value = kind(value)
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
        sys.stdout.write(text)


def _stack(args, config) -> MaterialStack:
    wavelength = _setting(args, config, "wavelength", 808.0, float)
    return MaterialStack(
        n_core=wgmodes.silicon_nitride_index(wavelength),
        n_clad=wgmodes.silica_index(wavelength),
        wavelength_nm=wavelength,
    )


def _source(args, config) -> PhotonPairSource:
    return PhotonPairSource(
        intrinsic_overlap=_setting(args, config, "overlap", 0.92, float),
        filter_fwhm_nm=_setting(args, config, "filter_fwhm", 3.0, float),
        center_wavelength_nm=_setting(args, config, "wavelength", 808.0, float),
    )


def _count_config(args, config) -> circuit_mod.CoincidenceConfig:
    return circuit_mod.CoincidenceConfig(
        poisson=_setting(args, config, "poisson", False, bool),
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_dispersion(args) -> int:
    config = _load_config(
        args.config, {"height", "widths", "modes", "wavelength"}
    )
    height = _setting(args, config, "height", 190.0, float)
    widths = _parse_range(
        _setting(args, config, "widths", "400:2000:25", str), "widths"
    )
    modes = _parse_modes(_setting(args, config, "modes", "TE0,TE1,TE2", str))
    if not modes:
        raise ConfigError("no modes requested")
    curve = wgmodes.dispersion_sweep(
        widths, modes, _stack(args, config), "width", height
    )
    if args.format == "json":
        payload = {
            "sweep_param": curve.sweep_param,
            "wavelength_nm": curve.wavelength_nm,
            "rows": [
                {"sweep_value": v, "mode": str(m), "n_eff": n}
                for v, m, n in curve.rows
            ],
        }
        _emit(args, _dump_json(payload), "dispersion.json")
    else:
        _emit(args, curve.to_csv(), "dispersion.csv")
    return 0


def cmd_design_grating(args) -> int:
    config = _load_config(
        args.config,
        {"width", "height", "modes", "depth", "periods", "kappa", "wavelength"},
    )
    width = _setting(args, config, "width", 1600.0, float)
    height = _setting(args, config, "height", 190.0, float)
    modes = _parse_modes(_setting(args, config, "modes", "TE0,TE2", str))
    if len(modes) != 2:
        raise ConfigError("design-grating needs exactly two modes")
    depth = _setting(args, config, "depth", 24.0, float)
    periods = _setting(args, config, "periods", 20, int)
    kappa = _setting(args, config, "kappa", None, float)
    geometry = WaveguideGeometry(width, height, _stack(args, config))
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
    config = _load_config(args.config, {"kappa", "periods", "overlap"})
    kappa = _setting(args, config, "kappa", 0.041, float)
    periods_text = _setting(args, config, "periods", "0:40:1", str)
    if "," in periods_text:
        try:
            n_values = [int(p) for p in periods_text.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad period count: {exc}") from exc
    else:
        n_values = [int(v) for v in _parse_range(periods_text, "periods")]
    overlap = _setting(args, config, "overlap", 0.92, float)
    rows = experiments.run_splitting_vs_N(kappa, n_values, overlap)
    if args.format == "json":
        _emit(args, _dump_json(rows), "splitting.json")
    else:
        lines = ["N,eta,visibility_ideal,visibility_measured"]
        for r in rows:
            lines.append(
                f"{r['N']},{r['eta']:.12g},{r['visibility_ideal']:.12g},"
                f"{r['visibility_measured']:.12g}"
            )
        _emit(args, "\n".join(lines) + "\n", "splitting.csv")
    return 0


def _emit_scan(args, result: experiments.ScanResult) -> None:
    if args.output:
        _emit(args, result.to_csv(), f"{result.name}.csv")
        _emit(args, _dump_json(result.fit_dict()), f"{result.name}.fit.json")
    elif args.format == "json":
        sys.stdout.write(_dump_json(result.fit_dict()))
    else:
        sys.stdout.write(result.to_csv())


def cmd_hom_scan(args) -> int:
    config = _load_config(
        args.config, {"eta", "overlap", "filter_fwhm", "wavelength", "delays",
                      "poisson"}
    )
    eta = _setting(args, config, "eta", 0.55, float)
    grid = _parse_range(
        _setting(args, config, "delays", "-500:500:10", str), "delays"
    )
    result = experiments.run_hom_dip(
        eta, _source(args, config), np.array(grid), _count_config(args, config)
    )
    _emit_scan(args, result)
    return 0


def cmd_hom_peak(args) -> int:
    config = _load_config(
        args.config, {"eta", "overlap", "filter_fwhm", "wavelength", "delays",
                      "poisson"}
    )
    eta = _setting(args, config, "eta", 0.55, float)
    grid = _parse_range(
        _setting(args, config, "delays", "-500:500:10", str), "delays"
    )
    results = experiments.run_hom_peak(
        eta, _source(args, config), np.array(grid), _count_config(args, config)
    )
    for result in results.values():
        _emit_scan(args, result)
    return 0


def cmd_noon_scan(args) -> int:
    config = _load_config(
        args.config,
        {"eta1", "eta2", "overlap", "filter_fwhm", "wavelength", "powers",
         "p2pi", "poisson"},
    )
    eta1 = _setting(args, config, "eta1", 0.66, float)
    eta2 = _setting(args, config, "eta2", 0.66, float)
    powers = _parse_range(
        _setting(args, config, "powers", "0:2.6:0.05", str), "powers"
    )
    heater = HeaterModel(p_2pi_w=_setting(args, config, "p2pi", 1.3, float))
    classical, quantum = experiments.run_noon(
        eta1, eta2, heater, np.array(powers), _source(args, config),
        _count_config(args, config),
    )
    _emit_scan(args, classical)
    _emit_scan(args, quantum)
    return 0


def cmd_decompose(args) -> int:
    config = _load_config(args.config, {"unitary", "size"})
    if "unitary" in config:
        raw = config["unitary"]
        try:
            matrix = np.array(
                [[complex(c[0], c[1]) for c in row] for row in raw]
            )
        except (TypeError, IndexError) as exc:
            raise ConfigError(
                "unitary must be a nested list of [re, im] pairs"
            ) from exc
    elif args.seed is not None or "size" in config:
        size = _setting(args, config, "size", 4, int)
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
    config = _load_config(args.config, {"poisson"})
    out_dir = Path(args.output if args.output else "paper_outputs")
    out_dir.mkdir(parents=True, exist_ok=True)
    poisson = _setting(args, config, "poisson", False, bool)
    scans, tables, targets = experiments.reproduce_all(
        seed=args.seed, poisson=poisson
    )
    for name, scan in sorted(scans.items()):
        (out_dir / f"{name}.csv").write_text(scan.to_csv(), encoding="utf-8")
        (out_dir / f"{name}.fit.json").write_text(
            _dump_json(scan.fit_dict()), encoding="utf-8"
        )
    for name, rows in sorted(tables.items()):
        (out_dir / f"{name}.json").write_text(_dump_json(rows), encoding="utf-8")
    all_pass = all(t.passed for t in targets)
    summary = {
        "seed": args.seed,
        "poisson": poisson,
        "targets": [t.to_dict() for t in targets],
        "all_passed": all_pass,
    }
    (out_dir / "summary.json").write_text(_dump_json(summary), encoding="utf-8")
    for t in targets:
        status = "pass" if t.passed else "FAIL"
        sys.stdout.write(
            f"{status}  {t.name}: {t.computed:.6g} "
            f"(expected {t.expected:.6g} +- {t.tolerance:.3g})\n"
        )
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modeweaver",
        description="Design and simulate multimode-waveguide quantum circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output", help="output directory (default: stdout)")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--poisson", action="store_true", default=None,
                       help="sample Poisson counts instead of expectations")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)
        return p

    p = add("dispersion", cmd_dispersion, "effective-index sweep to CSV")
    p.add_argument("--height", type=float, help="waveguide height in nm")
    p.add_argument("--widths", help="width sweep start:stop:step in nm")
    p.add_argument("--modes", help="comma-separated mode list, e.g. TE0,TE2")
    p.add_argument("--wavelength", type=float, help="wavelength in nm")

    p = add("design-grating", cmd_design_grating,
            "grating spec from waveguide geometry")
    p.add_argument("--width", type=float, help="waveguide width in nm")
    p.add_argument("--height", type=float, help="waveguide height in nm")
    p.add_argument("--modes", help="mode pair, e.g. TE0,TE2")
    p.add_argument("--depth", type=float, help="grating depth in nm")
    p.add_argument("--periods", type=int, help="number of grating periods")
    p.add_argument("--kappa", type=float, help="override kappa per period")
    p.add_argument("--wavelength", type=float, help="wavelength in nm")

    p = add("splitting", cmd_splitting, "splitting ratio vs period count")
    p.add_argument("--kappa", type=float, help="coupling per period (rad)")
    p.add_argument("--periods", help="N list '15,20,25' or range start:stop:step")
    p.add_argument("--overlap", type=float, help="source overlap x0")

    for name, func, help_text in (
        ("hom-scan", cmd_hom_scan, "two-photon dip vs delay"),
        ("hom-peak", cmd_hom_peak, "bunching peak per output arm"),
    ):
        p = add(name, func, help_text)
        p.add_argument("--eta", type=float, help="splitting ratio")
        p.add_argument("--overlap", type=float, help="source overlap x0")
        p.add_argument("--filter-fwhm", dest="filter_fwhm", type=float,
                       help="filter FWHM in nm")
        p.add_argument("--wavelength", type=float, help="wavelength in nm")
        p.add_argument("--delays", help="delay grid start:stop:step in um")

    p = add("noon-scan", cmd_noon_scan, "classical and two-photon fringes")
    p.add_argument("--eta1", type=float, help="first coupler splitting ratio")
    p.add_argument("--eta2", type=float, help="second coupler splitting ratio")
    p.add_argument("--overlap", type=float, help="source overlap x0")
    p.add_argument("--filter-fwhm", dest="filter_fwhm", type=float,
                   help="filter FWHM in nm")
    p.add_argument("--wavelength", type=float, help="wavelength in nm")
    p.add_argument("--powers", help="heater power grid start:stop:step in W")
    p.add_argument("--p2pi", type=float, help="heater power per 2 pi (W)")

    add("decompose", cmd_decompose, "triangular mesh factorization of a unitary")
    add("reproduce-paper", cmd_reproduce_paper,
        "run all reference experiments and compare targets")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ModeweaverError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
