import json
import math

import pytest

from magnonsteer.cli import main
from magnonsteer.model import DIFFUSION_MODES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# parameter documents that are valid JSON (NaN and Infinity included) but
# not valid parameters, with the parameter the error must name
MALFORMED_PARAMS = [
    ({"temperature": math.nan}, "temperature"),
    ({"kappa_c": math.nan}, "kappa_c"),
    ({"g_q": math.nan}, "g_q"),
    ({"temperature": math.inf}, "temperature"),
    ({"g_q_ratio": "x"}, "g_q_ratio"),
]


class TestSolve:
    def test_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "solve")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["LN_qm"] > 0
        assert "lyap_residual" in payload and "min_symplectic_eig" in payload

    def test_params_file_and_diffusion_override(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"epsilon": 0.86, "temperature": 0.2}))
        code, out, _ = run_cli(capsys, "solve", "--params", str(params),
                               "--diffusion", "consistent")
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_diffusion_choices_cover_every_mode(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"epsilon": 0.86}))
        code, out, _ = run_cli(capsys, "solve", "--params", str(params),
                               "--diffusion", "input_output")
        assert code == 0
        assert json.loads(out)["min_symplectic_eig"] >= 0.5 - 1e-10

    def test_unstable_exit_code(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"drive_power": 1e4, "g_q": 0.2e6}))
        code, out, _ = run_cli(capsys, "solve", "--params", str(params))
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "unstable"
        assert payload["max_real_part"] > 0

    def test_bad_params_exit_code(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        for document, named in [({"bogus": 1}, "unknown parameter keys")] + MALFORMED_PARAMS:
            params.write_text(json.dumps(document))
            code, out, err = run_cli(capsys, "solve", "--params", str(params))
            assert code == 3, document
            assert out == "", document
            assert err.startswith("error: ") and named in err, document

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--params", "/nonexistent.json")
        assert code == 3
        assert "cannot read" in err


class TestSweep:
    def test_sweep_to_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "base": {"epsilon": 0.0},
            "axis1": {"param": "temperature", "start": 0.0, "stop": 0.1, "count": 3},
            "outputs": ["LN_qm", "LN_cm"],
        }))
        out_csv = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", str(spec),
                             "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "temperature,LN_qm,LN_cm,lyap_residual,min_symplectic_eig,status"
        assert len(lines) == 4
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_invalid_spec_exit_code(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"axis1": {"param": "verdet", "start": 0,
                                              "stop": 1, "count": 3}}))
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("change, named", [
        ({"axis1": {"param": "temperature", "start": 0, "stop": 0.1, "count": 3.5}},
         "axis count"),
        ({"axis1": {"param": "temperature", "start": "0", "stop": 0.1, "count": 3}},
         "axis start"),
        ({"axis1": {"param": "temperature", "values": [0.0, "x"]}}, "axis value"),
        ({"axis1": {"param": "temperature", "values": 0.1}}, "axis values"),
        ({"outputs": "LN_qm"}, "outputs"),
        ({"base": [0.5]}, "parameter document"),
        ({"axis1": {"param": "temperature", "values": [0.0, math.nan]}}, "temperature"),
    ] + [({"base": document}, named) for document, named in MALFORMED_PARAMS])
    def test_malformed_spec_exit_code(self, capsys, tmp_path, change, named):
        document = {"axis1": {"param": "temperature", "start": 0, "stop": 0.1,
                              "count": 3},
                    "outputs": ["LN_qm"]}
        document.update(change)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert named in err


class TestPreset:
    def test_preset_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "--id", "fig3a")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("temperature,LN_cm,LN_cq,LN_qm")
        assert len(lines) == 201

    def test_unknown_preset_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "preset", "--id", "fig99")
        assert code == 3
        assert "unknown preset" in err


class TestThreshold:
    def test_preset_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--preset", "fig3a",
                               "--measure", "LN_qm")
        assert code == 0
        payload = json.loads(out)
        assert payload["axis"] == "temperature"
        assert 0.14 <= payload["threshold"] <= 0.26

    def test_no_crossing_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--preset", "fig3a",
                               "--measure", "LN_cm")
        assert code == 3
        assert json.loads(out)["error"] == "NoCrossing"


class TestValidateOracle:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate-oracle", "--trials", "25",
                               "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["trials"] == 25
        assert payload["max_relative_deviation"] <= 1e-8

    def test_every_diffusion_mode_is_checked(self, capsys):
        code, out, _ = run_cli(capsys, "validate-oracle", "--trials", "7",
                               "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        by_mode = payload["by_mode"]
        assert list(by_mode) == list(DIFFUSION_MODES)
        assert [by_mode[mode]["trials"] for mode in DIFFUSION_MODES] == [3, 2, 2]
        for mode in DIFFUSION_MODES:
            assert 0.0 < by_mode[mode]["max_relative_deviation"] <= 1e-8
        assert payload["max_relative_deviation"] == max(
            entry["max_relative_deviation"] for entry in by_mode.values())


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
