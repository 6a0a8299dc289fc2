import json

import pytest

from modeweaver.cli import _dump_json, main
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
