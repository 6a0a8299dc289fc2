"""Runs the rounds of one workload inside a single program process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the package source.
It times every operation in wall and nominal-speed seconds (``speed.py``),
samples the set-up time (a fresh interpreter importing ``modeweaver.cli``)
about once a second between operations, keeps the first round's outputs
for the checks in ``run.py``, compares every later round's outputs with
them, and prints one JSON document on stdout. It loads nothing but the program, numpy and
the files beside it, so its peak resident memory is the program's.

    python3 perfbench/worker.py --workload paper --seed 1 --seconds 30 \
        --trace 0 --workdir <empty directory>
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import workloads
from spans import Tracer
from speed import SpeedProbe

import modeweaver
from modeweaver import cli, fock
from modeweaver.fock import PureState

# Same entry point as the installed ``modeweaver`` console script.
CONSOLE_SCRIPT = "import sys; from modeweaver.cli import main; sys.exit(main())"
PROCESS_TIMEOUT_S = 120
SETUP_COMMAND = (sys.executable, "-c", "import modeweaver.cli")
SETUP_EVERY_S = 1.0  # an untraced run samples set-up this often


def _tree_digest(path: str | None) -> tuple[str, int]:
    """sha256 over the relative paths and bytes of a directory's files."""
    digest = hashlib.sha256()
    size = 0
    if path is not None and os.path.isdir(path):
        for file in sorted(Path(path).rglob("*")):
            if file.is_file():
                data = file.read_bytes()
                digest.update(str(file.relative_to(path)).encode() + b"\0")
                digest.update(data)
                size += len(data)
    return digest.hexdigest(), size


def _run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # an escaped exception is what a user would see
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _fingerprint(outcome: dict) -> str:
    """Outcome as compared between rounds. Of a traceback only its last line
    counts, because traced rounds add the tracer's frames to it."""
    stable = {k: v for k, v in outcome.items() if k != "error"}
    if "Traceback" in stable.get("stderr", ""):
        stable["stderr"] = stable["stderr"].strip().splitlines()[-1]
    return json.dumps(stable, sort_keys=True)


def _probe_ok(code: int, stderr: str) -> bool:
    """Rejected as a usage error: exit 2, one line on stderr, no traceback."""
    lines = stderr.strip().splitlines()
    return code == 2 and len(lines) == 1 and "Traceback" not in stderr


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path,
                 sample_setup: bool):
        self.sample_setup = sample_setup
        self.setup_timings: list[tuple] = []  # (start, end, wall s)
        self._last_setup = float("-inf")
        self.ops = workloads.round_ops(workload, workdir)
        self.inputs = workloads.fock_inputs(workload, seed)
        self.first: dict = {}  # op name -> outcome of the first round
        self.fingerprints: dict = {}
        self.inconsistent: set = set()
        self.failed = 0
        self.attempted = 0
        self.speed = SpeedProbe()

    def _sample_setup(self) -> None:
        """Time one fresh interpreter through ``import modeweaver.cli`` if
        SETUP_EVERY_S have passed since the last, so that the samples spread
        over the whole run."""
        if perf_counter() - self._last_setup < SETUP_EVERY_S:
            return
        timing, _ = self.speed.timed(
            lambda: subprocess.run(SETUP_COMMAND, check=True,
                                   timeout=PROCESS_TIMEOUT_S),
            child=True,
        )
        self.setup_timings.append(timing)
        self._last_setup = perf_counter()

    def _execute(self, op) -> tuple[tuple, dict, bool]:
        """Run one op; returns ((start, end, wall s), outcome, succeeded)."""
        if op.output:
            shutil.rmtree(op.output, ignore_errors=True)
        if op.kind == "process":
            timing, proc = self.speed.timed(
                lambda: subprocess.run(
                    [sys.executable, "-c", CONSOLE_SCRIPT, *op.argv],
                    capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
                ),
                child=True,
            )
            outcome = {"code": proc.returncode, "stdout": proc.stdout,
                       "stderr": proc.stderr}
            return timing, outcome, proc.returncode == 0
        if op.kind in ("cli", "probe"):
            timing, (code, stdout, stderr) = self.speed.timed(
                lambda: _run_cli(op.argv))
            outcome = {"code": code, "stdout": stdout, "stderr": stderr}
            ok = _probe_ok(code, stderr) if op.kind == "probe" else code == 0
            return timing, outcome, ok
        batch = self.inputs[op.kind][op.index]
        try:
            if op.kind == "evolve":
                states = [(u, PureState(m, n, amps)) for m, n, u, amps in batch]
                timing, results = self.speed.timed(
                    lambda: [fock.evolve(u, state) for u, state in states])
                values = np.concatenate([np.asarray(r.amplitudes, dtype=np.complex128)
                                         for r in results])
            else:
                timing, results = self.speed.timed(
                    lambda: [fock.permanent(matrix) for matrix in batch])
                values = np.asarray(results, dtype=np.complex128)
        except Exception:  # recorded and reported as a failed operation
            return (0.0, 0.0, 0.0), {"error": traceback.format_exc()}, False
        return timing, {"values": values.view(np.float64).tolist()}, True

    def run_round(self, tracer: Tracer | None) -> tuple[dict, int]:
        """One round; returns (op name -> (start, end, wall seconds), bytes
        the CLI wrote). Traced rounds run without the speed probe."""
        timings = {}
        output_bytes = 0
        if tracer is not None:
            tracer.reset()
            tracer.install()
        else:
            self.speed.start()
        try:
            for op in self.ops:
                if self.sample_setup:
                    self._sample_setup()
                timings[op.name], outcome, ok = self._execute(op)
                self.attempted += 1
                if not ok:
                    self.failed += 1
                files_digest, size = _tree_digest(op.output)
                outcome["files_digest"] = files_digest
                if op.kind in ("cli", "probe"):
                    output_bytes += size + len(outcome["stdout"].encode())
                fingerprint = _fingerprint(outcome)
                if op.name not in self.first:
                    outcome["ok"] = ok
                    self.first[op.name] = outcome
                    self.fingerprints[op.name] = fingerprint
                elif fingerprint != self.fingerprints[op.name]:
                    self.inconsistent.add(op.name)
        finally:
            if tracer is not None:
                tracer.uninstall()
            else:
                self.speed.stop()
        return timings, output_bytes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.workdir,
                    sample_setup=not args.trace)
    tracer = Tracer() if args.trace else None
    rounds = []
    start = perf_counter()
    # Traced runs alternate untraced and traced rounds, so the tracing
    # overhead is measured in the same process.
    min_rounds = 2 if tracer is not None else 1
    while len(rounds) < min_rounds or perf_counter() - start < args.seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        timings, output_bytes = runner.run_round(tracer if traced else None)
        entry = {"traced": traced, "timings": timings,
                 "raw": {name: t[2] for name, t in timings.items()}}
        if traced:
            entry["layers"] = tracer.layer_metrics(output_bytes)
        rounds.append(entry)
    for entry in rounds:
        if not entry["traced"]:
            names = list(entry["timings"])
            nominal = runner.speed.nominal([entry["timings"][n] for n in names])
            entry["times"] = dict(zip(names, nominal))

    ops = {op.name: op for op in runner.ops}
    result = {
        "provenance": {
            "permanent_backend": modeweaver.PERMANENT_BACKEND,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "rounds": len(rounds),
        "setup_samples": len(runner.setup_timings),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "inconsistent": sorted(runner.inconsistent),
        "first": runner.first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": _end_to_end(rounds, ops),
        "raw_metrics": _end_to_end(rounds, ops, "raw"),
    }
    if runner.setup_timings:
        result["metrics"]["setup_s"] = median(
            runner.speed.nominal(runner.setup_timings))
        result["raw_metrics"]["setup_s"] = median(
            t[2] for t in runner.setup_timings)
    if tracer is not None:
        result["layers"] = _layers(rounds, ops)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _end_to_end(rounds, ops, key: str = "times") -> dict:
    """Median over untraced rounds of each metric's value per pass of a
    round (a `fock` round makes two passes over the CLI commands), from
    nominal-speed times (``times``) or wall times (``raw``)."""
    samples = {}
    for entry in rounds:
        if entry["traced"]:
            continue
        seconds, points = {}, {}
        for name, t in entry[key].items():
            op = ops[name]
            if op.metric is None:
                continue
            part = (op.metric, name.endswith(workloads.REPEAT_SUFFIX))
            seconds[part] = seconds.get(part, 0.0) + t
            points[part] = points.get(part, 0) + op.points
        for (metric, again), t in seconds.items():
            value = points[metric, again] / t if metric.endswith("_per_s") else t
            samples.setdefault(metric, []).append(value)
    return {metric: median(values) for metric, values in samples.items()}


def _layers(rounds, ops) -> dict:
    """Median over traced rounds of each per-layer value, plus the tracing
    overhead: traced against untraced in-process time per round."""
    traced = [r for r in rounds if r["traced"]]
    values = {name: median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}

    def in_process_s(entry):
        return sum(t for n, t in entry["raw"].items()
                   if ops[n].kind != "process")

    with_trace = median(in_process_s(r) for r in traced)
    plain = median(in_process_s(r) for r in rounds if not r["traced"])
    values["trace.overhead_pct"] = 100.0 * (with_trace / plain - 1.0)
    return values


if __name__ == "__main__":
    sys.exit(main())
