import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeweaver.cli import COMMANDS, _dump_json, main
from modeweaver.errors import InvalidInput


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispersion:
    def test_csv_stdout(self, capsys):
        code, out, _ = run(
            capsys, "dispersion", "--widths", "400:1600:400", "--modes", "TE0"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sweep_param,mode_family,mode_order,n_eff"
        assert len(lines) == 5

    def test_json_to_directory(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "dispersion",
            "--widths", "400:800:200",
            "--modes", "TE0,TE1",
            "--format", "json",
            "--output", str(tmp_path),
        )
        assert code == 0
        assert out == ""
        payload = json.loads((tmp_path / "dispersion.json").read_text())
        assert payload["sweep_param"] == "width"
        assert all(row["mode"].startswith("TE") for row in payload["rows"])

    def test_reversed_sweep_is_usage_error(self, capsys):
        code, _, err = run(capsys, "dispersion", "--widths", "2000:400:25")
        assert code == 2
        assert "empty sweep" in err

    def test_bad_mode_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "dispersion", "--modes", "TX9")
        assert code == 2


class TestDesignGrating:
    def test_default_design(self, capsys):
        code, out, _ = run(capsys, "design-grating")
        assert code == 0
        spec = json.loads(out)
        assert spec["period_um"] == pytest.approx(6.675, rel=0.25)
        assert spec["mode_pair"] == ["TE0", "TE2"]
        assert spec["symmetry"] == "symmetric"

    def test_degenerate_pair_is_compute_error(self, capsys):
        code, _, err = run(capsys, "design-grating", "--modes", "TE0,TE0")
        assert code == 3
        assert "DegeneratePhaseMatch" in err

    def test_needs_two_modes(self, capsys):
        code, _, _ = run(capsys, "design-grating", "--modes", "TE0,TE1,TE2")
        assert code == 2


class TestSplitting:
    def test_explicit_period_list(self, capsys):
        code, out, _ = run(capsys, "splitting", "--periods", "15,20,25")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,eta,visibility_ideal,visibility_measured"
        n20 = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert float(n20["eta"]) == pytest.approx(0.534574224327, abs=1e-9)


class TestCsvTables:
    """Every CSV table comes from one writer: a header line, then floats to
    12 significant digits and every other value as text."""

    def test_scan_columns(self, capsys):
        code, out, _ = run(capsys, "hom-scan")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "scan_value,raw,accidentals,net,singles_a,singles_b,stderr"
        assert len(lines) == 102
        assert float(lines[1].split(",")[0]) == -500.0
        assert float(lines[-1].split(",")[0]) == 500.0

    def test_dispersion_rows(self, capsys):
        code, out, _ = run(
            capsys, "dispersion", "--widths", "420:1600:1180", "--modes", "TE0"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sweep_param,mode_family,mode_order,n_eff"
        assert lines[1].startswith("420,TE,0,")
        assert len(lines) == 3

    def test_cut_off_rows_are_absent(self, capsys):
        code, out, _ = run(
            capsys, "dispersion", "--widths", "400:1600:1200", "--modes", "TE2"
        )
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1600"]

    def test_integers_are_not_rounded(self, capsys):
        code, out, _ = run(capsys, "splitting", "--periods", "0:1e13:1e12")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "0,0,0,0"
        assert lines[2].startswith("1000000000000,0.987670559549,")
        assert len(lines) == 12


class TestScans:
    def test_hom_scan_json(self, capsys):
        code, out, _ = run(
            capsys, "hom-scan", "--eta", "0.55", "--delays=-400:400:20",
            "--format", "json",
        )
        assert code == 0
        fit = json.loads(out)
        assert fit["fit_kind"] == "gaussian"
        assert fit["metrics"]["visibility"] == pytest.approx(0.902, abs=0.002)

    def test_hom_peak_files(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "hom-peak", "--delays=-400:400:25",
            "--output", str(tmp_path),
        )
        assert code == 0
        for arm in ("arm_a", "arm_b"):
            assert (tmp_path / f"hom_peak_{arm}.csv").exists()
            fit = json.loads((tmp_path / f"hom_peak_{arm}.fit.json").read_text())
            assert fit["metrics"]["enhancement_ratio"] == pytest.approx(
                1.92, abs=1e-3
            )

    def test_noon_scan_json(self, capsys):
        code, out, _ = run(capsys, "noon-scan", "--format", "json")
        assert code == 0
        # two JSON documents are concatenated; split on the boundary
        docs = out.replace("}\n{", "}\x00{").split("\x00")
        assert len(docs) == 2
        quantum = json.loads(docs[1])
        assert quantum["metrics"]["period_ratio"] == pytest.approx(0.5, abs=1e-6)


class TestDecompose:
    def test_explicit_unitary(self, capsys, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "unitary": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
        }))
        code, out, _ = run(capsys, "decompose", "--config", str(config))
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 2
        assert payload["recomposition_error"] < 1e-12

    def test_random_unitary_by_seed(self, capsys, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"size": 5}))
        code, out, _ = run(
            capsys, "decompose", "--config", str(config), "--seed", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 5
        assert len(payload["stages"]) <= 10
        assert payload["recomposition_error"] < 1e-10

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "decompose")
        assert code == 2
        assert "decompose needs" in err

    @pytest.mark.parametrize(
        "unitary",
        [[[{"re": 1}]], [[[10**400, 0]]], [[[1, 0], [0, 0]], [[0, 0]]]],
        ids=["dict_pair", "int_overflow", "ragged_rows"],
    )
    def test_malformed_unitary_is_usage_error(self, capsys, tmp_path, unitary):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"unitary": unitary}))
        code, _, err = run(capsys, "decompose", "--config", str(config))
        assert code == 2
        assert err == "config error: unitary must be a nested list of [re, im] pairs\n"


    def test_overflowing_unitary_is_one_line_error(self, capsys, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "unitary": [[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]],
        }))
        code, out, err = run(capsys, "decompose", "--config", str(config))
        assert (code, out) == (3, "")
        assert err == "error: NotUnitary: U^H U deviates from identity by inf > 1e-10\n"


class TestConfigPrecedence:
    def test_env_defaults(self, capsys, monkeypatch, tmp_path):
        defaults = tmp_path / "defaults.json"
        defaults.write_text(json.dumps({"periods": "20:20:1"}))
        monkeypatch.setenv("MODEWEAVER_DEFAULTS", str(defaults))
        code, out, _ = run(capsys, "splitting")
        assert code == 0
        assert len(out.splitlines()) == 2  # header plus the single N = 20 row

    def test_flag_beats_config(self, capsys, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"kappa": 0.02}))
        code, out, _ = run(
            capsys, "splitting", "--config", str(config),
            "--kappa", "0.041", "--periods", "20,21",
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(0.534574224327, abs=1e-9)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"banana": 1}))
        code, _, err = run(capsys, "splitting", "--config", str(config))
        assert code == 2
        assert "unknown config keys" in err

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "splitting", "--config", str(tmp_path / "missing.json")
        )
        assert code == 2


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("dispersion", "--height", "nan"),
            ("design-grating", "--depth", "nan", "--format", "json"),
            ("hom-scan", "--delays=0:nan:1"),
            ("noon-scan", "--p2pi", "nan"),
            ("hom-scan", "--eta", "inf"),
            ("hom-scan", "--delays=0:1e9:1e-3"),
            ("dispersion", "--widths", "0:1e308:1e-308"),
            ("splitting", "--periods", "15,abc"),
            ("hom-scan", "--eta", "abc"),
            ("hom-scan", "--poisson", "--seed=-1"),
            ("decompose", "--seed", "x"),
        ],
    )
    def test_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("hom-scan", '{"eta": NaN}'),
            ("hom-scan", '{"eta": -Infinity}'),
            ("hom-scan", '{"eta": "nan"}'),
            ("design-grating", '{"periods": NaN}'),
            ("decompose", '{"size": "abc"}'),
            ("decompose", '{"size": 0}'),
            ("decompose", '{"size": -1}'),
            ("decompose", '{"size": 17}'),
            ("decompose", '{"size": 3000}'),
            ("decompose", '{"unitary": [[[NaN, 0]]]}'),
            ("decompose", '{"unitary": [[[Infinity, 0]]]}'),
        ],
    )
    def test_config_value(self, capsys, tmp_path, command, text):
        config = tmp_path / "c.json"
        config.write_text(text)
        code, _, err = run(capsys, command, "--config", str(config))
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: ")

    def test_wavelength_overflow_is_compute_error(self, capsys):
        code, out, err = run(
            capsys, "hom-scan", "--wavelength", "1e300", "--format", "json"
        )
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: InvalidInput: ")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("hom-scan", "--delays=-1e300:1e300:1e298"), 0),
            (("hom-peak", "--delays=-1e300:1e300:1e298"), 0),
            (("hom-scan", "--delays=-1e157:1e157:1e155"), 3),
            (("hom-peak", "--delays=-1e157:1e157:1e155"), 3),
        ],
    )
    def test_huge_delay_grid(self, capsys, argv, expected):
        # the overlap of a huge delay is 0; the fit of a grid whose squared
        # span overflows has no finite cost
        code, _, err = run(capsys, *argv)
        assert code == expected
        if expected == 0:
            assert err == ""
        else:
            assert len(err.splitlines()) == 1
            assert err.startswith("error: FitDiverged: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("design-grating", f"--periods={10**400}"), "kappa * N = inf"),
            (("design-grating", "--kappa=1e300", "--periods=10000000000"),
             "kappa * N = inf"),
            (("splitting", "--kappa=1e300", "--periods=0:1e13:1e12"),
             "kappa * N = inf"),
            (("noon-scan", "--powers=1e300:1e300:1", "--p2pi=1e-300"),
             "heater phase overflows"),
        ],
    )
    def test_overflow_is_compute_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: InvalidInput: {message}")

    @pytest.mark.parametrize("command", ["dispersion", "design-grating"])
    def test_sellmeier_overflow_is_compute_error(self, capsys, command):
        code, out, err = run(capsys, command, "--wavelength", "1e300")
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: InvalidInput: ")

    def test_failed_scan_writes_nothing(self, capsys, tmp_path):
        # the classical fringe fits; the quantum fit of a 0.1 W period
        # sampled every 0.05 W is not finite
        argv = ("noon-scan", "--p2pi", "0.1")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, out) == (3, "")
        assert err.startswith("error: InvalidInput: non-finite number")
        code, out, _ = run(capsys, *argv, "--output", str(tmp_path / "run"))
        assert (code, out) == (3, "")
        assert not (tmp_path / "run").exists()

    def test_non_finite_output_is_compute_error(self):
        with pytest.raises(InvalidInput):
            _dump_json({"x": float("nan")})


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_reproduce_paper(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "reproduce-paper", "--output", str(tmp_path / "run")
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 15
        assert all(l.startswith("pass") for l in lines)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["all_passed"] is True

    def test_seeded_poisson_reproduce_is_byte_identical(self, capsys, tmp_path):
        runs = []
        for name in ("run1", "run2"):
            out_dir = tmp_path / name
            code, out, err = run(
                capsys, "reproduce-paper", "--seed", "7", "--poisson",
                "--output", str(out_dir),
            )
            files = {
                str(path.relative_to(out_dir)): path.read_bytes()
                for path in sorted(out_dir.rglob("*"))
                if path.is_file()
            }
            runs.append((code, out, err, files))
        assert runs[0][3]
        assert runs[0] == runs[1]

    def test_closed_stdout_exits_141(self):
        # A 20001-row CSV is far more than a pipe holds, so the reader goes
        # away during the write, as in `| head -3`: hom-peak writes two such
        # CSVs, hom-scan only one.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        for command in ("hom-peak", "hom-scan"):
            proc = subprocess.Popen(
                [sys.executable, "-m", "modeweaver.cli", command,
                 "--delays=-500:500:0.05"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=path),
            )
            try:
                head = [proc.stdout.readline() for _ in range(3)]
                proc.stdout.close()
                code = proc.wait(timeout=120)
                err = proc.stderr.read().decode()
            finally:
                proc.kill()
                proc.stderr.close()
            assert head[0].startswith(b"scan_value,")
            assert (command, code, err) == (command, 141, "")


# Values every drawn option may take, beside ordinary ones.
EXTREMES = ("nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-300", "-1e-300")
GRID_EXTREMES = (
    "5:0:1",  # reversed
    "0:1:0",
    "0:1:-1",
    "0:nan:1",
    "-inf:0:1",
    "0:1e9:1e-3",  # more points than the cap
    "-1e300:1e300:1e298",
    "-1e157:1e157:1e155",
    "1e300:1e300:1",
    "1:2",
    "",
)
MODE_LISTS = ("TE0", "TE0,TE2", "TE0,TE1,TE2", "TM0,TM1", "TE0,TE0", "TX9", ",", "TE99")


def _finite_number():
    return st.floats(-1e4, 1e4, allow_nan=False).map(repr)


@st.composite
def _grid(draw):
    """start:stop:step text of at most 30 points, or an extreme one."""
    if draw(st.booleans()):
        return draw(st.sampled_from(GRID_EXTREMES))
    scale = draw(st.sampled_from((1e-300, 1e-3, 1.0, 100.0, 1e150, 1e300)))
    start = draw(st.floats(-5.0, 5.0)) * scale
    step = draw(st.floats(0.01, 1.0)) * scale
    stop = start + step * draw(st.integers(0, 29))
    return f"{start!r}:{stop!r}:{step!r}"


def _value(option):
    """A flag value for `option`: extreme, ordinary or its default."""
    if option.key == "modes":
        return st.sampled_from(MODE_LISTS)
    if option.kind is str:
        lists = st.lists(st.integers(-3, 60), max_size=4).map(
            lambda ns: ",".join(map(str, ns))
        )
        return st.one_of(_grid(), lists) if option.key == "periods" else _grid()
    ordinary = (
        st.integers(-3, 60).map(str) if option.kind is int else _finite_number()
    )
    default = [] if option.default is None else [st.just(str(option.default))]
    return st.one_of(st.sampled_from(EXTREMES + (str(10**400),)), ordinary, *default)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for option in COMMANDS[command][2]:
        if option.help and draw(st.booleans()):
            argv.append(f"--{option.key.replace('_', '-')}={draw(_value(option))}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.sampled_from(('-1', '0', '7', str(2**70))))}")
    if draw(st.booleans()):
        argv.append("--poisson")
    argv.append(f"--format={draw(st.sampled_from(('csv', 'json')))}")
    return argv


class TestArgvProperty:
    @settings(max_examples=60, deadline=None)
    @given(argv=_argv())
    def test_exit_code_and_one_line_error(self, argv):
        """Any argv built from the option table exits 0-3 without a
        traceback, and a failure says why in at most one stderr line."""
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if argv[0] == "reproduce-paper":  # it writes files by default
                argv = argv + ["--output", tmp]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code:
            assert len(err.splitlines()) <= 1, err
