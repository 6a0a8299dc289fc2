"""The output contract as hashes: each reference command line's exit code
and the sha256 of its stdout, its stderr and each file it writes.

`golden.json` maps each line of LINES to what running it through
`cli.main` in an empty directory gives. The same run checks that every JSON
document the line writes, to stdout or to a file, is laid out as
`json.dumps(..., indent=2, sort_keys=True)` lays it out. Four lines (FRESH)
also run in a fresh interpreter, as the console script runs them, and must
give the same manifest entry. A deliberate output change shows as changed
hashes in that file; regenerate it with

    PYTHONPATH=src python tests/test_golden.py

which first prints to stderr each line whose entry it changes and where
(`<line>: exit, stderr`), or that it adds or removes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest

from modeweaver.cli import main

MANIFEST = Path(__file__).with_name("golden.json")

# Config files written beside every run; they are inputs, not outputs.
CONFIGS = {
    "size16.json": '{"size": 16}',
    # a 3x3 unitary whose entries are exact in decimal: a rotation of
    # channels 0, 1 and then a coupler of channels 1, 2
    "unitary.json": '{"unitary": [[[0.6, 0], [0.8, 0], [0, 0]], '
                    '[[-0.48, 0], [0.36, 0], [0, 0.8]], '
                    '[[0, -0.64], [0, 0.48], [0.6, 0]]]}',
}

_SOURCE = "--overlap 0.92 --filter-fwhm 3.0 --wavelength 808.0"


def _workload_commands(delays, powers, widths, modes):
    """The benchmark workloads' four scans on one grid, as they run them."""
    return (
        f"hom-scan --eta 0.55 --delays={delays} {_SOURCE} --output out",
        f"hom-peak --eta 0.55 --delays={delays} {_SOURCE} --output out",
        f"noon-scan --eta1 0.66 --eta2 0.66 --p2pi 1.3 --powers {powers} "
        f"{_SOURCE} --output out",
        f"dispersion --height 190.0 --widths {widths} --modes {modes} "
        "--wavelength 808.0 --output out",
    )


LINES = (
    "reproduce-paper --seed 7",
    "reproduce-paper --seed 7 --poisson --output out",
    *_workload_commands("-500:500:10", "0:2.6:0.05", "400:2000:25", "TE0,TE1,TE2"),
    *_workload_commands("-500:500:1", "0:5.2:0.005", "400:3000:2",
                        "TE0,TE1,TE2,TE3,TM0,TM1"),
    # defaults, to stdout
    "dispersion",
    "dispersion --format json",
    "design-grating",
    "design-grating --format json",
    "splitting",
    "splitting --format json",
    "splitting --periods 15,20,25",
    "splitting --periods 15,20,25 --format json",
    "splitting --periods 15,20,25 --output out",
    "hom-scan",
    "hom-scan --format json",
    "hom-peak",
    "hom-peak --format json",
    "noon-scan",
    "noon-scan --format json",
    "decompose --seed 3",
    "decompose --seed 5",
    "decompose --seed 3 --config size16.json",
    "decompose --config unitary.json",
    # dense and off-default scans
    "dispersion --widths 400:3000:2 --modes TE0,TE1,TE2,TE3,TM0,TM1 --format json",
    "noon-scan --powers 0:5.2:0.005 --format json",
    "hom-scan --delays=-500:500:1 --format json",
    # two documents on stdout that share one grid
    "hom-peak --delays=-500:500:1 --format json",
    # a grid whose texts carry an exponent: 5e-06 in the CSV tables
    "noon-scan --p2pi 1e-4 --powers 0:2.6e-4:5e-6 --output out",
    # every count column varies, so the CSV writer formats each value
    "hom-scan --poisson --seed 3 --delays=-500:500:1 --format csv",
    "noon-scan --eta1 0.7 --eta2 0.5 --poisson --seed 3 --powers 0:3:0.02 --output out",
    "hom-scan --eta 0.6 --overlap 0.8 --filter-fwhm 2.0 --delays=-400:400:20 "
    "--poisson --seed 11 --format json",
    "hom-peak --eta 0.45 --wavelength 780 --delays=-300:300:15",
    "design-grating --width 2000 --modes TE0,TE1 --depth 12 --periods 30",
    "dispersion --height 220 --widths 300:1500:100 --modes TM0,TM1 --wavelength 1550",
    # unsorted modes, a duplicate, and cut-off holes that interleave
    "dispersion --widths 300:2500:50 --modes TE3,TM1,TE0,TE3",
    "dispersion --widths 300:2500:50 --modes TE3,TM1,TE0,TE3 --format json",
    # the vertical TM slab rounds onto the cladding index; TE is guided
    "dispersion --height 1.466e-05 --widths 1e9:1e10:1e9 --modes TM0,TE0,TE1,TM1",
    "splitting --kappa 0.02 --periods 0:100:5 --overlap 0.5",
    # the benchmark's invalid-input probes
    "dispersion --height nan",
    "design-grating --depth nan --format json",
    "hom-scan --delays=0:nan:1",
    "noon-scan --p2pi nan",
    # single errors and edge values
    "frobnicate",
    "hom-scan --eta abc",
    "hom-scan --seed=-1",
    "dispersion --seed 5",
    "dispersion --widths 2000:400:25",
    "dispersion --modes TX9",
    "decompose",
    "design-grating --format csv",
    "decompose --seed 3 --format csv",
    "reproduce-paper --seed 7 --format csv",
    "reproduce-paper --seed 7 --format json",
    "splitting --periods 15,abc",
    "dispersion --height 1e-300",
    "hom-scan --eta 1.5",
    # no dip to fit: the Gaussian fit refuses flat data
    "hom-scan --eta 0 --format json",
    "hom-scan --wavelength 1e300 --format json",
    "noon-scan --p2pi 0.1",
    # P_2pi must be positive
    "noon-scan --p2pi 0",
    "noon-scan --p2pi -1.3",
    "splitting --kappa -1",
    "splitting --kappa 0",
    "design-grating --kappa 0",
    "splitting --overlap 2",
    "splitting --overlap -1",
)


# Lines also run in a fresh interpreter: the paper run and three dense scans.
FRESH = (
    "reproduce-paper --seed 7",
    "dispersion --format json",
    "noon-scan --powers 0:5.2:0.005 --format json",
    "hom-scan --delays=-500:500:1 --format json",
)

# Same entry point as the installed ``modeweaver`` console script.
CONSOLE_SCRIPT = "import sys; from modeweaver.cli import main; sys.exit(main())"
SRC = Path(__file__).resolve().parents[1] / "src"

# Commands that print only JSON.
JSON_COMMANDS = ("design-grating", "decompose")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Run(NamedTuple):
    """What a command line gives: its exit code, its stdout and stderr, and
    the bytes of each file it writes by path relative to its directory."""

    exit: int
    stdout: str
    stderr: str
    files: dict

    def entry(self) -> dict:
        """The run as a manifest entry: the exit code and sha256 hashes."""
        return {
            "exit": self.exit,
            "stdout": _sha(self.stdout.encode()),
            "stderr": _sha(self.stderr.encode()),
            "files": {name: _sha(data) for name, data in self.files.items()},
        }


def _prepare(directory: Path) -> None:
    for name, text in CONFIGS.items():
        (directory / name).write_text(text)


def _written_files(directory: Path) -> dict:
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file() and path.name not in CONFIGS
    }


def run_line(line: str, directory: Path) -> Run:
    """Run `line` through `cli.main` with `directory` as the working
    directory and no MODEWEAVER_DEFAULTS. A warning counts as a stderr line
    `Category: message`."""
    _prepare(directory)
    out, err = io.StringIO(), io.StringIO()
    saved_cwd, saved_defaults = os.getcwd(), os.environ.pop("MODEWEAVER_DEFAULTS", None)
    os.chdir(directory)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(line.split())
    finally:
        os.chdir(saved_cwd)
        if saved_defaults is not None:
            os.environ["MODEWEAVER_DEFAULTS"] = saved_defaults
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return Run(code, out.getvalue(), err.getvalue(), _written_files(directory))


def run_fresh(line: str, directory: Path) -> Run:
    """Run `line` as the console script does, in a fresh interpreter with
    `directory` as the working directory, `src` as PYTHONPATH and no
    MODEWEAVER_DEFAULTS."""
    _prepare(directory)
    env = {k: v for k, v in os.environ.items() if k != "MODEWEAVER_DEFAULTS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", CONSOLE_SCRIPT, *line.split()],
        cwd=directory, env=env, stdin=subprocess.DEVNULL, capture_output=True,
        timeout=120,
    )
    return Run(proc.returncode, proc.stdout.decode(), proc.stderr.decode(),
               _written_files(directory))


def json_outputs(line: str, run: Run):
    """(name, text) of each JSON output of `line`: every `.json` file it
    writes, and its stdout when the command prints JSON."""
    if "--format json" in line or line.split()[0] in JSON_COMMANDS:
        yield "stdout", run.stdout
    for name, data in run.files.items():
        if name.endswith(".json"):
            yield name, data.decode("utf-8")


def misplaced_documents(text: str) -> list:
    """Offsets of the JSON documents in `text` that differ from their
    `json.dumps(..., indent=2, sort_keys=True)` layout plus a newline, or
    that do not parse. Stdout may hold several documents, one after another."""
    decoder = json.JSONDecoder()
    misplaced = []
    start = 0
    while start < len(text):
        try:
            value, end = decoder.raw_decode(text, start)
        except json.JSONDecodeError:
            return misplaced + [start]
        document = text[start:end + 1]
        if json.dumps(value, indent=2, sort_keys=True) + "\n" != document:
            misplaced.append(start)
        start = end + 1
    return misplaced


@functools.cache
def _checked(line: str) -> tuple:
    """Run `line` once for both in-process tests: its manifest entry, and
    each JSON document it lays out differently from json.dumps."""
    with tempfile.TemporaryDirectory() as tmp:
        run = run_line(line, Path(tmp))
    misplaced = tuple(
        f"{name} at offset {offset}"
        for name, text in json_outputs(line, run)
        for offset in misplaced_documents(text)
    )
    return run.entry(), misplaced


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def _differences(got: dict, expected: dict) -> list:
    return [
        key for key in ("exit", "stdout", "stderr") if got[key] != expected[key]
    ] + sorted(
        name for name in got["files"].keys() | expected["files"].keys()
        if got["files"].get(name) != expected["files"].get(name)
    )


def test_manifest_lists_every_line():
    assert list(_manifest()) == list(LINES)


@pytest.mark.parametrize("line", LINES)
def test_output_matches_manifest(line):
    expected = _manifest().get(line)
    assert expected is not None, f"{line}: no manifest entry"
    mismatched = _differences(_checked(line)[0], expected)
    assert not mismatched, f"{line}: differs in {', '.join(mismatched)}"


@pytest.mark.parametrize("line", LINES)
def test_json_is_laid_out_as_json_dumps(line):
    misplaced = _checked(line)[1]
    assert not misplaced, f"{line}: laid out differently: {', '.join(misplaced)}"


@pytest.mark.parametrize("line", FRESH)
def test_fresh_process_matches_manifest(line, tmp_path):
    mismatched = _differences(run_fresh(line, tmp_path).entry(), _manifest()[line])
    assert not mismatched, f"{line}: a fresh process differs in {', '.join(mismatched)}"


if __name__ == "__main__":
    stored = _manifest() if MANIFEST.exists() else {}
    manifest = {}
    for line in LINES:
        with tempfile.TemporaryDirectory() as tmp:
            manifest[line] = run_line(line, Path(tmp)).entry()
        if line not in stored:
            print(f"{line}: new", file=sys.stderr)
        elif changed := _differences(manifest[line], stored[line]):
            print(f"{line}: {', '.join(changed)}", file=sys.stderr)
    for line in (line for line in stored if line not in manifest):
        print(f"{line}: removed", file=sys.stderr)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} lines to {MANIFEST}", file=sys.stderr)
