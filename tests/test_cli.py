import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeweaver import cli, experiments
from modeweaver.cli import COMMANDS, _dump_json, main
from modeweaver.errors import InvalidInput, ModeCutoff
from modeweaver.wgmodes import (
    MaterialStack,
    ModeId,
    WaveguideGeometry,
    effective_indices,
)


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_guided_row_is_mode_cutoff(self, capsys, fmt):
        code, out, err = run(
            capsys, "dispersion", "--height", "1e-300", "--format", fmt
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: ModeCutoff: no requested mode guided at any width, "
            "height 1e-300 nm, wavelength 808 nm\n"
        )


@st.composite
def _sweep_request(draw):
    """A width grid and a mode list for `dispersion`: modes unsorted, maybe
    repeated, with orders cut off over part of the grid; at the tiny height
    the vertical TM slab is cut off as well."""
    height, scale = draw(st.sampled_from([(190.0, 1.0), (1.466e-05, 1e6)]))
    start = draw(st.floats(50.0, 3000.0)) * scale
    step = draw(st.floats(10.0, 500.0)) * scale
    widths = f"{start!r}:{start + step * draw(st.integers(0, 12))!r}:{step!r}"
    modes = draw(st.lists(
        st.builds(ModeId, st.sampled_from(["TE", "TM"]), st.integers(0, 5)),
        min_size=1, max_size=6,
    ))
    return height, widths, modes


class TestDispersionTable:
    @settings(max_examples=40, deadline=None)
    @given(sweep=_sweep_request())
    def test_rows_match_per_point_solves(self, sweep):
        """One CSV line and one JSON row per guided (width, mode), width-major
        in the requested mode order, each n_eff from its own solve."""
        height, widths, modes = sweep
        stack = MaterialStack()
        rows = []
        for width in cli._parse_range(widths, "widths"):
            geometry = WaveguideGeometry(width, height, stack)
            for mode in modes:
                try:
                    (n,) = effective_indices(geometry, [mode])
                except ModeCutoff:
                    continue
                rows.append((width, mode, n))
        argv = ["dispersion", f"--height={height!r}", f"--widths={widths}",
                "--modes=" + ",".join(map(str, modes))]
        for fmt in ("csv", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + [f"--format={fmt}"])
            if not rows:
                assert (code, out.getvalue()) == (3, "")
                assert err.getvalue().startswith("error: ModeCutoff: ")
                continue
            assert (code, err.getvalue()) == (0, "")
            if fmt == "csv":
                expected = "sweep_param,mode_family,mode_order,n_eff\n" + "".join(
                    "%.12g,%s,%d,%.12g\n" % (w, m.family, m.order, n)
                    for w, m, n in rows
                )
            else:
                expected = _dump_json_oracle({
                    "sweep_param": "width",
                    "wavelength_nm": 808.0,
                    "rows": [{"sweep_value": w, "mode": str(m), "n_eff": n}
                             for w, m, n in rows],
                })
            assert out.getvalue() == expected


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--modes", "TE0,TE9"), "TE9 not guided at width 1600 nm, height 190 nm"),
            (("--width", "1e308"), "TE0 not guided at width 1e+308 nm, height 190 nm"),
        ],
    )
    def test_cutoff_names_the_requested_mode(self, capsys, argv, message):
        code, out, err = run(capsys, "design-grating", *argv)
        assert (code, out) == (3, "")
        assert err == f"error: ModeCutoff: {message}\n"

    def test_integral_config_values_accepted(self, capsys, tmp_path):
        config = tmp_path / "c.json"
        config.write_text('{"periods": 25.0, "depth": 12}')
        code, out, _ = run(capsys, "design-grating", "--config", str(config))
        assert code == 0
        spec = json.loads(out)
        assert (spec["num_periods"], spec["depth_nm"]) == (25, 12.0)

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

    def test_single_count_is_a_list(self, capsys):
        _, out, _ = run(capsys, "splitting", "--periods", "15,20,25")
        code, single, _ = run(capsys, "splitting", "--periods", "20")
        assert code == 0
        assert single.splitlines() == out.splitlines()[:1] + out.splitlines()[2:3]

    @pytest.mark.parametrize("command", ["splitting", "hom-scan", "hom-peak", "noon-scan"])
    @pytest.mark.parametrize("overlap", ["2", "-1"])
    def test_overlap_outside_unit_interval_is_compute_error(self, capsys, command, overlap):
        code, out, err = run(capsys, command, "--overlap", overlap)
        assert (code, out) == (3, "")
        assert err == "error: InvalidInput: intrinsic overlap must lie in [0, 1]\n"

    def test_zero_kappa_is_the_zero_depth_grating(self, capsys):
        """Both commands that take kappa accept 0, where nothing splits."""
        code, out, err = run(
            capsys, "splitting", "--kappa", "0", "--periods", "0,20", "--format", "json"
        )
        assert (code, err) == (0, "")
        assert [row["eta"] for row in json.loads(out)] == [0.0, 0.0]
        code, out, err = run(capsys, "design-grating", "--kappa", "0")
        assert (code, err) == (0, "")
        assert json.loads(out)["eta"] == 0.0


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

        code, out, _ = run(
            capsys, "dispersion", "--widths", "400:3000:200", "--modes", "TE0,TM1,TE2"
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["sweep_param", "mode_family", "mode_order", "n_eff"]
        assert rows
        assert all(len(row) == 4 for row in rows)
        assert {tuple(row[1:3]) for row in rows} == {
            ("TE", "0"), ("TM", "1"), ("TE", "2")
        }

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


def _round12_oracle(obj):
    """Every float rounded to 12 significant digits, tuples as lists."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12_oracle(v) for v in obj]
    return obj


def _dump_json_oracle(obj) -> str:
    text = json.dumps(_round12_oracle(obj), indent=2, sort_keys=True, allow_nan=False)
    return text + "\n"


def _csv_oracle(header, rows) -> str:
    """The CSV table formatted value by value."""
    columns = [
        [f"{v:.12g}" if isinstance(v, float) else str(v) for v in column]
        for column in zip(*rows)
    ]
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e12, 1e16),
    st.floats(-1e16, -1e12),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 123456789012.5]),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(),
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(FLOATS, min_size=1, max_size=8)
        | st.dictionaries(st.text(max_size=8), children, max_size=5)
    ),
    max_leaves=25,
)
CSV_ROWS = 8
# Values whose runs the CSV writer must keep apart: signed zeros, NaNs with
# and without the sign bit, and numbers that format alike but differ.
RUN_VALUES = FLOATS | st.sampled_from([math.nan, -math.nan, 0.1, 0.1 + 2**-56])


def _float_runs(runs) -> np.ndarray:
    """A float64 column of CSV_ROWS values: each (value, length) run in
    turn, repeated from the start until the column is full."""
    values = np.repeat([v for v, _ in runs], [k for _, k in runs])
    return np.resize(values, CSV_ROWS)


CSV_COLUMNS = {
    "int": st.lists(st.integers(), min_size=CSV_ROWS, max_size=CSV_ROWS),
    "str": st.lists(st.text(), min_size=CSV_ROWS, max_size=CSV_ROWS),
    "bool": st.lists(st.booleans(), min_size=CSV_ROWS, max_size=CSV_ROWS),
    "float64 array": st.lists(
        RUN_VALUES, min_size=CSV_ROWS, max_size=CSV_ROWS
    ).map(np.array),
    "float64 runs": st.lists(
        st.tuples(RUN_VALUES, st.integers(1, CSV_ROWS)), min_size=1, max_size=4
    ).map(_float_runs),
}


# A count that varies only in roundoff: c (1 + k 2^-52), unsorted.
NEAR_CONSTANT = 29313.0 * (1.0 + np.array([0, 3, 1, 7, 2, 0, 5]) * 2.0**-52)


class TestSerialisers:
    """The JSON and CSV writers produce the bytes of the straightforward
    formatting they replace."""

    @settings(max_examples=300, deadline=None)
    @given(obj=JSON_VALUES)
    def test_json_matches_rounding_and_json_dumps(self, obj):
        assert _dump_json(obj) == _dump_json_oracle(obj)

    @settings(max_examples=200, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(sorted(CSV_COLUMNS)), max_size=5),
        rows=st.integers(0, CSV_ROWS),
        data=st.data(),
    )
    def test_csv_matches_value_by_value(self, kinds, rows, data):
        columns = [data.draw(CSV_COLUMNS[kind])[:rows] for kind in kinds]
        header = [f"c{i}" for i in range(len(columns))]
        assert cli._csv(header, columns) == _csv_oracle(header, zip(*columns))

    @pytest.mark.parametrize(
        "columns",
        [
            [np.full(6, 0.1)],
            [np.repeat([0.0, -0.0, 0.0, -0.0], [2, 3, 1, 2])],
            [np.repeat([math.nan, -math.nan, 1.0, math.nan], [4, 2, 1, 3])],
            [np.repeat([1.5, 2.5, 1e-5, 1e12, 1.5], [1, 5, 2, 9, 3])],
            [np.linspace(-1.0, 1.0, 7), np.full(7, 3.0), np.repeat([1.0, 2.0], [3, 4])],
            [np.full(4, 2.0), np.full(4, -0.0), np.full(4, 3.5), np.full(4, math.nan)],
            # first and last print alike, the maximum does not
            [np.array([1.000000000004, 0.9999999999996, 1.000000000006, 1.000000000004])],
            [NEAR_CONSTANT, -NEAR_CONSTANT],
            [np.array([0.0, -0.0, 0.0])],
            [np.array([-0.0, 0.0])],
            [np.array([2.5, math.nan, 2.5, 2.5])],
            [np.array([math.inf, -math.inf, math.inf]), np.array([-1e308, 1e308, -1e308]),
             np.array([math.inf, 1e308, math.inf])],
        ],
        ids=["one_value", "signed_zeros", "nan_runs", "mixed_run_lengths",
             "constant_beside_varying", "every_column_constant",
             "unsorted_across_rounding", "near_constant", "zero_between_zeros",
             "negative_zero_first", "nan_among_numbers", "infinities"],
    )
    def test_float_runs_match_value_by_value(self, columns):
        """Constant and varying float64 columns read as the per-value
        formatting, one line per row."""
        header = [f"c{i}" for i in range(len(columns))]
        text = cli._csv(header, columns)
        assert text == _csv_oracle(header, zip(*columns))
        assert len(text.splitlines()) == 1 + len(columns[0])

    @pytest.mark.parametrize(
        "value",
        [100.0, -500.0, -0.0, 5e-324, 1e-4, 1e-5, 1e11, 999999999999.6, 1e12,
         1.5e15, 9.99999999999e15, 1e16],
    )
    @pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [0.5, v, -2.0]],
                             ids=["scalar", "float_list"])
    def test_json_float_edges(self, value, wrap):
        """Whole numbers, signed zero, subnormals, and both sides of where
        `%g` (1e12) and repr (1e16) switch to an exponent."""
        assert _dump_json(wrap(value)) == _dump_json_oracle(wrap(value))

    @pytest.mark.parametrize("column", [NEAR_CONSTANT, -NEAR_CONSTANT],
                             ids=["positive", "negative"])
    def test_roundoff_column_is_one_text(self, column):
        """A column that varies only in its last bits prints as one text."""
        assert len(set(column.tolist())) > 1
        assert cli._one_text(column) == "%.12g" % column[0]

    def test_empty_table_is_its_header(self):
        assert cli._csv(("a", "b"), ([], [])) == "a,b\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda v: v,
            lambda v: [1.0, v, 2.0],
            lambda v: {"a": {"b": [True, v]}},
            lambda v: (1, "x", v),
        ],
    )
    def test_non_finite_raises(self, value, wrap):
        with pytest.raises(InvalidInput, match="^non-finite number in output"):
            _dump_json(wrap(value))


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


@st.composite
def _delay_grid(draw):
    """A start:stop:step delay grid across the dip, in um. A start shifted
    off a whole number of steps puts a point within 1e-4 of zero, whose
    text carries an exponent."""
    step = draw(st.floats(2.0, 40.0))
    steps_below_zero = draw(st.integers(8, 60))
    shift = draw(st.sampled_from((0.0, 3e-5, -7e-7, 1e-9)))
    start = -steps_below_zero * step + shift
    return f"{start!r}:{-start + draw(st.floats(0.0, 1.0)) * step!r}:{step!r}"


@st.composite
def _power_grid(draw):
    """A start:stop:step heater power grid of two P_2pi, and that P_2pi;
    at 1e-4 W and 1e13 W every nonzero text carries an exponent."""
    p2pi = draw(st.sampled_from((1e-4, 1.3, 1e13))) * draw(st.floats(0.5, 2.0))
    step = p2pi / draw(st.integers(10, 60))
    start = draw(st.sampled_from((0.0, step / 3.0)))
    return f"{start!r}:{start + 2.0 * p2pi!r}:{step!r}", repr(p2pi)


def _scans_and_files(argv):
    """The exit code of `argv` run with --output, the results it passes to
    `cli._scan_files`, and the files it writes."""
    emitted = []
    scan_files = cli._scan_files

    def capture(args, results):
        results = list(results)
        emitted.extend(results)
        return scan_files(args, results)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_scan_files", capture)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--output", tmp])
        files = {p.name: p.read_text() for p in Path(tmp).iterdir()}
    return code, emitted, files


class TestParseRange:
    @settings(max_examples=300, deadline=None)
    @given(
        start=st.floats(-1e6, 1e6),
        step=st.floats(1e-6, 1e3),
        intervals=st.integers(0, 400),
        over=st.floats(0.0, 1.0),
    )
    def test_grid_is_start_plus_i_step(self, start, step, intervals, over):
        """The grid's values are start + i * step bit for bit, and its texts
        are the values formatted one by one."""
        stop = start + (intervals + over) * step
        grid = cli._parse_range(f"{start!r}:{stop!r}:{step!r}", "grid")
        count = math.floor((stop - start) / step + 1e-9) + 1
        expected = [start + i * step for i in range(count)]
        assert list(map(float.hex, grid.tolist())) == list(map(float.hex, expected))
        assert cli._grid_texts(grid.tolist()) == list(map("%.12g".__mod__, expected))


class TestSharedGrid:
    """Each command formats its grid once for all its tables and documents;
    the bytes are those of formatting every result value by value."""

    @staticmethod
    def _check(code, results, files):
        assert code == 0
        assert len(files) == 2 * len(results)
        for result in results:
            counts = result.counts
            assert files[f"{result.name}.csv"] == _csv_oracle(
                counts.keys(), zip(*counts.values())
            )
            assert files[f"{result.name}.fit.json"] == _dump_json_oracle(
                result.fit_dict()
            )

    @settings(max_examples=40, deadline=None)
    @given(delays=_delay_grid(), command=st.sampled_from(("hom-scan", "hom-peak")))
    def test_delay_scans_match_value_by_value(self, delays, command):
        self._check(*_scans_and_files([command, f"--delays={delays}"]))

    @settings(max_examples=40, deadline=None)
    @given(grid=_power_grid())
    def test_noon_scan_matches_value_by_value(self, grid):
        powers, p2pi = grid
        self._check(*_scans_and_files(
            ["noon-scan", f"--powers={powers}", f"--p2pi={p2pi}"]
        ))

    def test_exponent_texts(self):
        """A grid of 5e-06 W steps writes exponents in both formats."""
        code, results, files = _scans_and_files(
            ["noon-scan", "--p2pi", "1e-4", "--powers", "0:2.6e-4:5e-6"]
        )
        self._check(code, results, files)
        assert files["noon_quantum.csv"].splitlines()[2].startswith("5e-06,")
        assert "\n      5e-06,\n" in files["noon_quantum.fit.json"]


class TestTableReuse:
    def test_each_table_is_csv_of_its_own_columns(self, tmp_path):
        """Equal tables share one CSV text; tables that differ only in the
        sign of a zero do not."""
        base = experiments.run_hom_dip(0.55, delay_grid=np.arange(-500.0, 501.0, 100.0))
        counts = dict(base.counts, raw=np.zeros(len(base.counts["raw"])))
        equal = {key: column.copy() for key, column in counts.items()}
        signed = dict(counts, raw=counts["raw"].copy())
        signed["raw"][3] = -0.0
        results = [
            base._replace(name=name, counts=table)
            for name, table in (("first", counts), ("equal", equal), ("signed", signed))
        ]
        args = cli.build_parser().parse_args(["hom-scan", "--output", str(tmp_path)])
        cli._emit(args, cli._scan_files(args, results))
        texts = {r.name: (tmp_path / f"{r.name}.csv").read_text() for r in results}
        for result in results:
            assert texts[result.name] == cli._csv(
                result.counts.keys(), result.counts.values()
            )
        assert texts["first"] == texts["equal"] != texts["signed"]


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
        for size in (5, 16):
            config.write_text(json.dumps({"size": size}))
            code, out, _ = run(
                capsys, "decompose", "--config", str(config), "--seed", "3"
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["size"] == size
            assert len(payload["stages"]) <= size * (size - 1) // 2
            assert payload["recomposition_error"] < 1e-10

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "decompose")
        assert code == 2
        assert "decompose needs" in err

    @pytest.mark.parametrize(
        "unitary",
        [
            [[{"re": 1}]],
            [[[10**400, 0]]],
            [[[1, 0], [0, 0]], [[0, 0]]],
            [[[1, 0, 5]]],
            [[[True, 0]]],
            [],
        ],
        ids=["dict_pair", "int_overflow", "ragged_rows", "three_components",
             "boolean_part", "empty"],
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
            ("splitting", "--periods", "0:3:0.5"),
            ("splitting", "--periods", ",,"),
            ("hom-scan", "--eta", "abc"),
            ("hom-scan", "--poisson", "--seed=-1"),
            ("decompose", "--seed", "x"),
            # --poisson is declared only by the commands that count photons
            ("dispersion", "--poisson"),
            ("design-grating", "--poisson"),
            ("splitting", "--poisson"),
            ("decompose", "--poisson"),
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
            ("reproduce-paper", '{"poisson": "false"}'),
            ("reproduce-paper", '{"poisson": 0}'),
            ("design-grating", '{"periods": 20.7}'),
            ("design-grating", '{"periods": true}'),
            ("design-grating", '{"periods": "20"}'),
            ("hom-scan", '{"eta": true}'),
            ("decompose", '{"size": 3.9}'),
            # every option is checked, also one the command does not use
            ("decompose", '{"size": "abc", "unitary": '
                          '[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}'),
            ("decompose", '{"size": 2.5, "unitary": '
                          '[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}'),
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
            (("hom-scan", "--delays=-1e300:1e300:1e298"), 3),
            (("hom-peak", "--delays=-1e300:1e300:1e298"), 3),
            (("hom-scan", "--delays=-1e157:1e157:1e155"), 3),
            (("hom-peak", "--delays=-1e157:1e157:1e155"), 3),
        ],
    )
    def test_huge_delay_grid(self, capsys, argv, expected):
        # the overlap of a huge delay is 0, so a step far wider than the dip
        # leaves flat counts with no dip to fit; the fit of a grid whose
        # squared span overflows has no finite cost
        code, out, err = run(capsys, *argv)
        assert (code, out) == (expected, "")
        assert len(err.splitlines()) == 1
        reason = (
            "FitDiverged: starting cost is not finite" if "1e157" in argv[1]
            else "InsufficientSpan: flat data: no dip or peak to fit"
        )
        assert err.startswith(f"error: {reason}")

    def test_flat_peak_scan_is_compute_error(self, capsys):
        # no source overlap: no bunching peak, and the counts are flat
        code, out, err = run(capsys, "hom-peak", "--overlap", "0", "--format", "json")
        assert (code, out) == (3, "")
        assert err == "error: InsufficientSpan: flat data: no dip or peak to fit\n"

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

    @pytest.mark.parametrize(
        "option, message",
        [
            pytest.param(
                "--p2pi=1e-300",
                "largest step 0.05 is not below half the start period 1e-300",
                id="1e-300",
            ),
            pytest.param(
                "--p2pi=0.1",
                "largest step 0.05 is not below half the start period 0.1",
                id="0.1",
            ),
            pytest.param(
                "--powers=0:1.9:0.05", "span 1.9 < 1.5 periods (1.3 each)",
                id="short-span",
            ),
        ],
    )
    def test_undersampled_fringe_is_compute_error(self, capsys, option, message):
        code, out, err = run(capsys, "noon-scan", option)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: InsufficientSpan: {message}")

    @pytest.mark.parametrize("command", ["dispersion", "design-grating"])
    def test_sellmeier_overflow_is_compute_error(self, capsys, command):
        code, out, err = run(capsys, command, "--wavelength", "1e300")
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: InvalidInput: ")

    def test_undersampled_scan_writes_nothing(self, capsys, tmp_path):
        # a 0.05 W power step cannot resolve the 0.05 W two-photon period
        argv = ("noon-scan", "--p2pi", "0.1")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, out) == (3, "")
        assert err.startswith("error: InsufficientSpan: ")
        code, out, _ = run(capsys, *argv, "--output", str(tmp_path / "run"))
        assert (code, out) == (3, "")
        assert not (tmp_path / "run").exists()

    def test_failed_scan_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # the classical result serialises, then the quantum one fails
        run_noon = experiments.run_noon

        def non_finite_second(*args):
            classical, quantum = run_noon(*args)
            return classical, quantum._replace(metrics={"x": math.nan})

        monkeypatch.setattr(experiments, "run_noon", non_finite_second)
        for output in (("--format", "json"), ("--output", str(tmp_path / "run"))):
            code, out, err = run(capsys, "noon-scan", *output)
            assert (code, out) == (3, "")
            assert len(err.splitlines()) == 1
            assert err.startswith("error: InvalidInput: non-finite number in output")
        assert not (tmp_path / "run").exists()

    def test_non_finite_output_is_compute_error(self):
        with pytest.raises(InvalidInput):
            _dump_json({"x": float("nan")})


# One cheap invocation of every command; each writes files under --output.
WRITING_COMMANDS = (
    ("dispersion", "--widths", "400:800:400"),
    ("design-grating",),
    ("splitting", "--periods", "20"),
    ("hom-scan", "--delays=-500:500:100"),
    ("hom-peak", "--delays=-500:500:100"),
    ("noon-scan",),
    ("decompose", "--seed", "3"),
    ("reproduce-paper",),
)


class TestOutputTarget:
    @pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, argv, below):
        """--output naming a file, or a path under a file, exits 2 with one
        line naming the path."""
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        target = blocker / below if below else blocker
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: cannot write {target}")
        assert len(err.splitlines()) == 1
        assert blocker.read_text() == "kept"


class TestTopLevel:
    def test_shared_parser_keeps_no_parsed_value(self, capsys):
        """One parser serves every main() call of a process: a value parsed
        for one call never reaches the next."""
        calls = [
            ("hom-scan", "--poisson", "--seed", "3", "--format", "json"),
            ("hom-scan",),
            ("splitting", "--periods", "15,20", "--format", "json"),
            ("splitting", "--periods", "15,20"),
            ("decompose", "--seed", "5"),
            ("decompose",),
        ]
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [run(capsys, *argv) for argv in calls] == fresh
        assert fresh[1][1].startswith("scan_value,")
        assert fresh[5][0] == 2
        args = cli.build_parser().parse_args(["hom-scan"])
        assert (args.poisson, args.seed, args.format) == (None, None, "csv")

    def test_defaults_are_the_paper_run(self, capsys, tmp_path):
        """Every device default is the paper run's value: each scan command
        run without flags writes the CSV tables of `reproduce-paper` byte
        for byte, and design-grating and splitting print its two tables."""
        paper = tmp_path / "paper"
        argv = ("reproduce-paper", "--seed", "7", "--output", str(paper))
        assert run(capsys, *argv)[0] == 0
        for command, names in (
            ("hom-scan", ["hom_dip"]),
            ("hom-peak", ["hom_peak_arm_a", "hom_peak_arm_b"]),
            ("noon-scan", ["noon_classical", "noon_quantum"]),
        ):
            out_dir = tmp_path / command
            assert run(capsys, command, "--output", str(out_dir)) == (0, "", "")
            for name in names:
                table = f"{name}.csv"
                assert (out_dir / table).read_bytes() == (paper / table).read_bytes()
        code, out, _ = run(capsys, "design-grating")
        assert code == 0
        design = json.loads((paper / "grating_design.json").read_text())
        assert [json.loads(out)] == design
        code, out, _ = run(capsys, "splitting", "--periods", "15,20,25", "--format", "json")
        assert (code, out) == (0, (paper / "splitting_vs_n.json").read_text())

    def test_each_call_writes_its_own_grid(self, capsys, tmp_path):
        """Two calls in a row with different grids of one length each write
        their own grid: no formatted grid outlives its main() call."""
        grids = {"first": "-500:500:10", "second": "-400:600:10"}
        for name, delays in grids.items():
            argv = ("hom-scan", f"--delays={delays}", "--output", str(tmp_path / name))
            assert run(capsys, *argv)[0] == 0
        for name, delays in grids.items():
            grid = cli._parse_range(delays, "delays")
            table = (tmp_path / name / "hom_dip.csv").read_text().splitlines()
            assert [row.split(",")[0] for row in table[1:]] == [f"{v:.12g}" for v in grid]
            fit = json.loads((tmp_path / name / "hom_dip.fit.json").read_text())
            assert fit["config"]["delay_grid"] == [float(f"{v:.12g}") for v in grid]

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_format_takes_the_formats_a_command_writes(self, capsys):
        parse = cli.build_parser().parse_args
        for name, command in COMMANDS.items():
            assert getattr(parse([name]), "format", None) == (
                command.formats[0] if command.formats else None
            )
            for fmt in ("csv", "json"):
                if fmt in command.formats:
                    assert parse([name, "--format", fmt]).format == fmt
                else:
                    with pytest.raises(SystemExit):
                        parse([name, "--format", fmt])

    def test_seed_only_on_commands_that_read_it(self, capsys):
        """A command that draws nothing at random refuses --seed with
        argparse's one-line error."""
        parse = cli.build_parser().parse_args
        for name, command in COMMANDS.items():
            if command.seeded:
                assert parse([name, "--seed", "5"]).seed == 5
                continue
            assert not hasattr(parse([name]), "seed")
            code, out, err = run(capsys, name, "--seed", "5")
            assert (code, out) == (2, "")
            assert err == "modeweaver: error: unrecognized arguments: --seed 5\n"

    @pytest.mark.parametrize(
        "argv", [("design-grating",), ("decompose", "--seed", "3")]
    )
    def test_json_only_command_rejects_csv(self, capsys, argv):
        """A command that writes only JSON refuses --format csv with
        argparse's one-line error, and writes the same JSON with or without
        --format json."""
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, out) == (2, "")
        assert err.startswith(
            f"modeweaver {argv[0]}: error: argument --format: invalid choice: 'csv'"
        )
        assert len(err.splitlines()) == 1
        assert run(capsys, *argv, "--format", "json") == run(capsys, *argv)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reproduce_paper_takes_no_format(self, capsys, tmp_path, fmt):
        """reproduce-paper always writes both formats, so --format is a
        usage error with argparse's one-line message, and nothing is
        written."""
        code, out, err = run(
            capsys, "reproduce-paper", "--seed", "7", "--format", fmt,
            "--output", str(tmp_path / "run"),
        )
        assert (code, out) == (2, "")
        assert err == f"modeweaver: error: unrecognized arguments: --format {fmt}\n"
        assert not (tmp_path / "run").exists()

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
            flag = f"--{option.key.replace('_', '-')}"
            argv.append(flag if option.kind is bool else f"{flag}={draw(_value(option))}")
    if COMMANDS[command].seeded and draw(st.booleans()):
        argv.append(f"--seed={draw(st.sampled_from(('-1', '0', '7', str(2**70))))}")
    if COMMANDS[command].formats:
        argv.append(f"--format={draw(st.sampled_from(COMMANDS[command].formats))}")
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
