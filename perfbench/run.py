"""modeweaver benchmark: one workload, timed end to end or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

It runs whole rounds of the workload in a worker process for
``--seconds``, sampling the set-up time (a fresh interpreter importing
``modeweaver.cli``) between them, then
checks every output against the oracles in ``oracles.py`` and against
properties the method must have. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Exits non-zero without a result if it cannot run.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import oracles
import workloads
from spans import LAYER_UNITS

HERE = Path(__file__).resolve().parent
WORKER_GRACE_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "paper_process_s": "s",
    "reproduce_s": "s",
    "delay_scan_points_per_s": "points/s",
    "fringe_scan_points_per_s": "points/s",
    "mode_solves_per_s": "solves/s",
    "evolve_s": "s",
    "permanent_s": "s",
    "peak_rss_mb": "MB",
}


class Checks:
    """Collects failed checks as readable lines."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def close(self, what: str, value: float, target: float, tol: float) -> None:
        self.expect(
            value is not None and abs(value - target) <= tol,
            f"{what}: {value!r} not within {tol:g} of {target!r}",
        )


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_column(path: Path, column: str) -> list[float]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def _metrics(outdir: Path, name: str) -> dict:
    return _load_json(outdir / f"{name}.fit.json")["metrics"]


def check_paper(checks: Checks, first: dict, workdir: Path) -> None:
    """reproduce-paper: targets pass, byte-identical reruns, closed forms."""
    for name in ("paper_process", "reproduce"):
        checks.expect(first[name]["code"] == 0,
                      f"{name}: exit {first[name]['code']}, targets failed")
    checks.expect(
        first["paper_process"]["files_digest"] == first["reproduce"]["files_digest"],
        "reproduce-paper: the process and in-process output directories differ",
    )
    outdir = workdir / "reproduce"
    checks.expect(_load_json(outdir / "summary.json")["all_passed"] is True,
                  "reproduce-paper: summary.json all_passed is not true")
    fwhm = oracles.dip_fwhm_um(workloads.WAVELENGTH_NM, workloads.FILTER_FWHM_NM)
    for scan, eta in (("hom_dip", 0.55), ("hom_dip_te0_te1", 0.64)):
        m = _metrics(outdir, scan)
        checks.close(f"paper {scan} visibility", m["visibility"],
                     oracles.dip_visibility(eta, workloads.OVERLAP), 1e-3)
        checks.close(f"paper {scan} fwhm_um", m["fwhm_um"], fwhm, 0.01 * fwhm)
    for arm in ("arm_a", "arm_b"):
        checks.close(f"paper hom_peak_{arm} enhancement",
                     _metrics(outdir, f"hom_peak_{arm}")["enhancement_ratio"],
                     1.0 + workloads.OVERLAP, 1e-3)
    checks.close("paper noon period ratio",
                 _metrics(outdir, "noon_quantum")["period_ratio"], 0.5, 1e-6)


def check_scans(checks: Checks, first: dict, workdir: Path, scale: str) -> None:
    """The four CLI scans on one grid scale."""
    delays, powers, widths, modes = workloads.GRIDS[scale]
    for name in ("hom_scan", "hom_peak", "noon_scan", "dispersion"):
        checks.expect(first[name]["code"] == 0,
                      f"{name}: exit {first[name]['code']}: {first[name]['stderr']}")
    fwhm = oracles.dip_fwhm_um(workloads.WAVELENGTH_NM, workloads.FILTER_FWHM_NM)
    delay_grid = workloads.grid(delays)

    def same_grid(what, path, expected):
        got = _csv_column(path, "scan_value")
        checks.expect(
            len(got) == len(expected)
            and np.allclose(got, expected, rtol=0, atol=1e-9 * max(1.0, np.ptp(expected))),
            f"{what}: scan values are not the requested {len(expected)}-point grid",
        )

    out = workdir / "hom_scan"
    m = _metrics(out, "hom_dip")
    checks.close("hom-scan visibility", m["visibility"],
                 oracles.dip_visibility(workloads.ETA_DIP, workloads.OVERLAP), 1e-3)
    checks.close("hom-scan fwhm_um", m["fwhm_um"], fwhm, 0.01 * fwhm)
    checks.close("hom-scan center_um", m["center_um"], 0.0, 1e-6)
    same_grid("hom-scan", out / "hom_dip.csv", delay_grid)

    out = workdir / "hom_peak"
    for arm in ("arm_a", "arm_b"):
        m = _metrics(out, f"hom_peak_{arm}")
        checks.close(f"hom-peak {arm} enhancement", m["enhancement_ratio"],
                     1.0 + workloads.OVERLAP, 1e-3)
        checks.close(f"hom-peak {arm} fwhm_um", m["fwhm_um"], fwhm, 0.01 * fwhm)
        same_grid(f"hom-peak {arm}", out / f"hom_peak_{arm}.csv", delay_grid)

    out = workdir / "noon_scan"
    checks.close("noon-scan classical period_w",
                 _metrics(out, "noon_classical")["period_w"],
                 workloads.P_2PI_W, 1e-6 * workloads.P_2PI_W)
    checks.close("noon-scan period ratio",
                 _metrics(out, "noon_quantum")["period_ratio"], 0.5, 1e-6)
    for part in ("classical", "quantum"):
        same_grid(f"noon-scan {part}", out / f"noon_{part}.csv",
                  workloads.grid(powers))

    mode_pairs = [(m[:2], int(m[2:])) for m in modes.split(",")]
    width_grid = workloads.grid(widths)
    table = oracles.dispersion_table(width_grid, workloads.HEIGHT_NM, mode_pairs,
                                     workloads.WAVELENGTH_NM)
    expected = {(round(w, 6), f, o): n for (w, f, o), n in table.items()
                if n is not None}
    got = {}
    with open(workdir / "dispersion" / "dispersion.csv", encoding="utf-8",
              newline="") as fh:
        for row in csv.DictReader(fh):
            key = (round(float(row["sweep_param"]), 6), row["mode_family"],
                   int(row["mode_order"]))
            got[key] = float(row["n_eff"])
    checks.expect(set(got) == set(expected),
                  f"dispersion: {len(set(got) ^ set(expected))} (width, mode) "
                  "pairs guided in one solver and cut off in the other")
    worst = max((abs(got[k] - expected[k]) for k in set(got) & set(expected)),
                default=0.0)
    checks.expect(worst <= 1e-9,
                  f"dispersion: n_eff differs from the tangent-form solver by {worst:.3g}")


def _complex(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.complex128)


def check_fock(checks: Checks, first: dict, ops, inputs: dict, seed: int) -> None:
    """Permanents against Glynn (and the permutation sum for n <= 8);
    evolved states for norm and sampled amplitudes."""
    rng = np.random.default_rng(seed)
    for op in ops:
        if op.kind not in ("evolve", "permanent") or "values" not in first[op.name]:
            continue  # a failed operation is counted by the worker
        batch = inputs[op.kind][op.index]
        values = _complex(first[op.name]["values"])
        if op.kind == "permanent":
            checks.expect(len(values) == len(batch), f"{op.name}: wrong count")
            for k, (matrix, got) in enumerate(zip(batch, values)):
                n = len(matrix)
                ref = complex(oracles.permanent_glynn(matrix))
                # Relative to the permanent, or to the RMS permanent of an
                # n x n Haar unitary, sqrt(n!/n^n), when cancellation makes
                # this one smaller: rounding error scales with the terms,
                # not the sum.
                tol = 1e-10 * max(abs(ref), math.sqrt(math.factorial(n) / n**n))
                checks.expect(abs(got - ref) <= tol,
                              f"{op.name}[{k}]: {got} vs Glynn {ref}")
                if n <= 8:
                    ref = oracles.permanent_permutations(matrix)
                    checks.expect(abs(got - ref) <= tol,
                                  f"{op.name}[{k}]: {got} vs permutation sum {ref}")
            continue
        dims = [len(amps) for _, _, _, amps in batch]
        checks.expect(len(values) == sum(dims), f"{op.name}: wrong basis sizes")
        offsets = np.cumsum([0] + dims)
        for k, (m, n, unitary, amps) in enumerate(batch):
            out = values[offsets[k]:offsets[k + 1]]
            checks.expect(abs(np.linalg.norm(out) - np.linalg.norm(amps)) <= 1e-10,
                          f"{op.name}[{k}]: norm {np.linalg.norm(out)!r} not preserved")
            basis = oracles.fock_basis(n, m)
            picks = range(len(basis)) if len(basis) <= 10 else \
                rng.choice(len(basis), size=6, replace=False)
            for i in picks:
                ref = oracles.fock_amplitude(unitary, amps, n, basis[i])
                checks.expect(abs(out[i] - ref) <= 1e-10,
                              f"{op.name}[{k}]: amplitude of {basis[i]} is "
                              f"{out[i]}, oracle {ref}")


def _warm_import(env: dict) -> None:
    """One untimed ``import modeweaver.cli`` in a fresh interpreter: it
    writes the bytecode caches before the worker times set-up."""
    subprocess.run([sys.executable, "-c", "import modeweaver.cli"], env=env,
                   check=True, timeout=60)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % (1 << 63)

    root = Path.cwd()
    src = root / "src"
    if not (src / "modeweaver" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'modeweaver'}; "
              "run from the root of a modeweaver checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)

    try:
        _warm_import(env)
    except subprocess.CalledProcessError:
        print("perfbench: importing modeweaver.cli failed", file=sys.stderr)
        return 1

    scratch = root / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir)],
            env=env, capture_output=True, text=True,
            timeout=args.seconds + WORKER_GRACE_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
            return 1
        report = json.loads(proc.stdout.splitlines()[-1])

        first = report["first"]
        ops = workloads.round_ops(args.workload, workdir)
        inputs = workloads.fock_inputs(args.workload, seed)
        checks = Checks()
        for name in report["inconsistent"]:
            checks.problems.append(f"{name}: output changed between rounds")
        for op in ops:
            if not first[op.name]["ok"] and op.kind != "probe":
                checks.problems.append(f"{op.name}: operation failed")
            base = op.name.removesuffix(workloads.REPEAT_SUFFIX)
            checks.expect(first[op.name]["files_digest"] == first[base]["files_digest"],
                          f"{op.name}: output differs from {base}")
        scale = "dense" if args.workload == "dense_scans" else "paper"
        for check, check_args in (
            (check_paper, (first, workdir)),
            (check_scans, (first, workdir, scale)),
            (check_fock, (first, ops, inputs, seed)),
        ):
            try:
                check(checks, *check_args)
            except (OSError, KeyError, ValueError) as exc:
                checks.problems.append(f"{check.__name__}: unreadable output: {exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        values = dict(report["metrics"], peak_rss_mb=report["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{report['rounds']} rounds, {report['attempted']} operations attempted, "
          f"{report['failed']} failed, {report['setup_samples']} set-up samples")
    failed_probes = [op.name for op in ops
                     if op.kind == "probe" and not first[op.name]["ok"]]
    if failed_probes:
        print("invalid inputs not rejected: " + ", ".join(failed_probes))
    raw = report["raw_metrics"]
    for name, metric in metrics.items():
        wall = f"  (wall {raw[name]:.6g})" if name in raw else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{wall}")
    # The same medians from wall-clock times, for checking a claimed gain
    # against times that the speed probe has not rescaled.
    print("wall: " + json.dumps(raw, sort_keys=True))
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
