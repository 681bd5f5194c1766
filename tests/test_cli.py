import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from magnonsteer import cli, sweep
from magnonsteer.cli import build_parser, main
from magnonsteer.measures import MEASURE_KEYS
from magnonsteer.model import NUMERIC_FIELDS, default_params
from magnonsteer.sweep import PRESET_IDS


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
    ({"temperature": True}, "parameter temperature must be a number"),
    ({"epsilon": "0.5"}, "parameter epsilon must be a number"),
]

# finite parameters out of their range; kept apart from MALFORMED_PARAMS and
# parametrized after every older case, so the older cases keep their test ids
NEGATIVE_PARAMS = [
    ({"temperature": -1e-3}, "temperature must be non-negative"),
    ({"drive_power": -1e-3}, "couplings and drive power must be non-negative"),
    ({"g_q": -1e6}, "couplings and drive power must be non-negative"),
]


# documents whose model quantities overflow or underflow to inf, with the
# exit code and what the output must hold
EXTREME_PARAMS = [
    ({"kappa_c": 1e-300}, 3, "parameter g_q must be finite"),
    ({"sphere_radius": 1e-200}, 3, "parameter g_q must be finite"),
    ({"B0": 1e-320}, 2, "residual"),
    ({"kappa_m": 1e300}, 2, "gate"),
    ({"temperature": 1e200}, 2, "residual"),  # the residual bound overflows
]


class TestSolve:
    def test_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "solve")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["LN_qm"] > 0
        assert "lyap_residual" in payload and "min_symplectic_eig" in payload
        assert len(MEASURE_KEYS) == 34
        assert set(payload) == {*MEASURE_KEYS, "lyap_residual", "min_symplectic_eig", "status"}

    def test_params_file_and_diffusion_override(self, capsys, tmp_path):
        # the diffusion mode of a point comes from its document
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"epsilon": 0.86, "temperature": 0.2,
                                      "diffusion_mode": "consistent"}))
        code, out, _ = run_cli(capsys, "solve", "--params", str(params))
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_diffusion_choices_cover_every_mode(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"epsilon": 0.86, "diffusion_mode": "input_output"}))
        code, out, _ = run_cli(capsys, "solve", "--params", str(params))
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
        assert payload["reason"] == "gate"

    def test_residual_reject_names_its_check(self, capsys, tmp_path):
        # passes the Hurwitz gate by a hair, then fails the residual bound
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"epsilon": 0.4947298263, "theta": 0.0}))
        code, out, _ = run_cli(capsys, "solve", "--params", str(params))
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "unstable"
        assert payload["max_real_part"] < 0
        assert payload["reason"] == "residual"

    def test_bad_params_exit_code(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        for document, named in ([({"bogus": 1}, "unknown parameter keys")]
                                + MALFORMED_PARAMS + NEGATIVE_PARAMS):
            params.write_text(json.dumps(document))
            code, out, err = run_cli(capsys, "solve", "--params", str(params))
            assert code == 3, document
            assert out == "", document
            assert err.startswith("error: ") and named in err, document

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--params", "/nonexistent.json")
        assert code == 3
        assert "cannot read" in err

    @pytest.mark.parametrize("document, expected, named", EXTREME_PARAMS,
                             ids=[next(iter(d)) for d, _, _ in EXTREME_PARAMS])
    def test_extreme_parameters_exit_code(self, capsys, tmp_path, document, expected, named):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "solve", "--params", str(params))
        assert code == expected
        if expected == 3:
            assert out == "" and err == f"error: {named}\n"
        else:
            payload = json.loads(out)
            assert (payload["status"], payload["reason"]) == ("unstable", named)


def strict_json(text: str):
    """``json.loads`` that rejects NaN and Infinity, as strict JSON readers do."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


# edge documents with the exit code each must give, and what it must print
EDGE_DOCUMENTS = [
    ({"sphere_radius": 1e200}, 0, "ok"),  # the sphere volume overflows to inf
    ({"drive_wavelength": 0}, 3, "parameter drive_wavelength must be positive"),
    ({"drive_wavelength": -1}, 3, "parameter drive_wavelength must be positive"),
    # gyromagnetic_ratio * B0 underflows to a zero magnon frequency, whose
    # occupation is inf above T = 0, as at B0 = 1e-320: the residual bound fails
    ({"B0": 1e-3, "gyromagnetic_ratio": 5e-324}, 2, "unstable"),
    # a JSON integer beyond the largest double
    ({"temperature": 10**400}, 3, "parameter temperature does not fit in a double"),
    # a hot magnon, x' variance 7.4e15 against the qubit's 0.79: well
    # conditioned once each mode is scaled, so it is measured
    ({"B0": 1e-18, "drive_power": 1e-11}, 0, "ok"),
]


@pytest.mark.parametrize("document, expected, shown", EDGE_DOCUMENTS,
                         ids=["sphere_radius", "wavelength_zero", "wavelength_negative",
                              "magnon_frequency_zero", "temperature_huge_integer", "hot_magnon"])
def test_edge_documents_exit_codes(capsys, tmp_path, document, expected, shown):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "solve", "--params", str(params))
    assert code == expected
    if expected == 3:
        assert out == "" and err == f"error: {shown}\n"
        return
    assert strict_json(out)["status"] == shown


def test_solve_output_is_strict_json(capsys, tmp_path):
    # the drift of this point has an infinite entry, so it has no eigenvalue
    # to report: its max_real_part is NaN, written as null
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"kappa_c": 1e-300, "g_q": 1e6}))
    code, out, _ = run_cli(capsys, "solve", "--params", str(params))
    assert code == 2
    payload = strict_json(out)
    assert payload["max_real_part"] is None
    assert (payload["status"], payload["reason"]) == ("unstable", "gate")
    with pytest.raises(ValueError, match="NaN"):
        strict_json('{"max_real_part": NaN}')


# a numeric field of a parameter document: zero, a subnormal, or a magnitude
# log-uniform in [1e-300, 1e300], of either sign
EDGE_VALUE = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from((1.0, -1.0)),
              st.one_of(st.floats(5e-324, 2e-308), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)))
    .map(lambda signed: signed[0] * signed[1]))


def run_quietly(*argv):
    """``main(argv)``, its exit code and output; a warning raises, as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(list(argv))
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(document=st.dictionaries(st.sampled_from(NUMERIC_FIELDS + ("g_q_ratio",)), EDGE_VALUE,
                                max_size=3),
       field=st.sampled_from(NUMERIC_FIELDS), value=EDGE_VALUE)
def test_every_finite_document_gives_an_exit_code(document, field, value):
    # solve on the document with one more field, and a sweep and a threshold
    # scan over that field from its default to the drawn value (sorted, as
    # bisection needs); every call ends in exit 0, 2 or 3 with no traceback
    # and no warning, and what solve and threshold print is strict JSON
    axis = {"param": field, "values": sorted([getattr(default_params(), field), value])}
    with tempfile.TemporaryDirectory() as directory:
        params, spec = Path(directory, "params.json"), Path(directory, "spec.json")
        params.write_text(json.dumps({**document, field: value}))
        spec.write_text(json.dumps({"base": document, "axis1": axis}))
        code, out = run_quietly("solve", "--params", str(params))
        if code != 3:
            assert strict_json(out)["status"] == ("ok" if code == 0 else "unstable")
        run_quietly("sweep", "--spec", str(spec))
        out = run_quietly("threshold", "--spec", str(spec), "--measure", "LN_qm")[1]
        if out:
            strict_json(out)


# an end of a linspace axis: an EDGE_VALUE, or the largest finite float of
# either sign, so that a span can overflow
AXIS_END = st.one_of(st.just(-sys.float_info.max), st.just(sys.float_info.max), EDGE_VALUE)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(NUMERIC_FIELDS), ends=st.lists(AXIS_END, min_size=2, max_size=2),
       count=st.sampled_from((2, 3, 10**12, 2**62, 10**30)))
def test_every_linspace_axis_gives_an_exit_code(field, ends, count):
    # a sweep and a threshold scan over a linspace axis between the drawn ends,
    # sorted; the large counts lie above the sweep size bound
    axis = {"param": field, "start": min(ends), "stop": max(ends), "count": count}
    with tempfile.TemporaryDirectory() as directory:
        spec = Path(directory, "spec.json")
        spec.write_text(json.dumps({"axis1": axis}))
        run_quietly("sweep", "--spec", str(spec))
        out = run_quietly("threshold", "--spec", str(spec), "--measure", "LN_qm")[1]
        if out:
            strict_json(out)


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
    ] + [({"base": document}, named) for document, named in MALFORMED_PARAMS]
      + [({"axis2": falsy}, "axis must be an object") for falsy in (0, False, [], "", {})]
      + [({"base": document}, named) for document, named in NEGATIVE_PARAMS]
      + [({"axis1": {"param": "temperature", "values": [0.01, 0.02], "count": 200}},
          "not both"),
         ({"axis1": {"param": "temperature", "start": 0, "stop": 0.1, "count": 3,
                     "step": 0.05}}, "unknown axis keys: ['step']")]
      # a span that overflows, and counts above the sweep size bound
      + [({"axis1": {"param": "theta", "start": -1e308, "stop": 1e308, "count": 3}},
          "axis stop - start must be finite")]
      + [({"axis1": {"param": "theta", "start": 0, "stop": 1, "count": count}},
          f"cannot make an axis of {count} points") for count in (2**62, 2**63, 10**30)]
      # JSON integers beyond the largest double, as a value and as an end
      + [({"axis1": {"param": "temperature", "values": [0.1, 10**400]}},
          "axis value does not fit in a double"),
         ({"axis1": {"param": "temperature", "start": -10**400, "stop": 0.1, "count": 3}},
          "axis start does not fit in a double"),
         ({"axis1": {"param": "temperature", "start": 0, "stop": 10**400, "count": 3}},
          "axis stop does not fit in a double")]
      # an axis states exactly one form: a non-empty values list, or a whole linspace
      + [({"axis1": {"param": "temperature", "values": []}}, "non-empty list"),
         ({"axis1": {"param": "temperature"}}, "missing ['start', 'stop', 'count']"),
         ({"axis1": {"param": "temperature", "count": 5}}, "missing ['start', 'stop']"),
         ({"axis1": {"param": "temperature", "start": 0.1, "count": 5}}, "missing ['stop']"),
         ({"axis1": {"param": "temperature", "stop": 0.5, "count": 5}}, "missing ['start']")]
      # one axis, and a grid of two axes, over the sweep size bound: numpy
      # would try to allocate them
      + [({"axis1": {"param": "temperature", "start": 0, "stop": 1, "count": 10**12}},
          "cannot make an axis of 1000000000000 points"),
         ({"axis1": {"param": "temperature", "start": 0, "stop": 1, "count": 10**5},
           "axis2": {"param": "epsilon", "start": 0, "stop": 0.5, "count": 10**5}},
          "cannot make a grid of 10000000000 points")])
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

    @pytest.mark.parametrize("text, named", [
        ('{"axis1": ', "invalid JSON in"),
        ('[{"axis1": {"param": "temperature", "values": [0.1]}}]', "must contain a JSON object"),
    ])
    def test_spec_file_that_is_not_a_json_object(self, capsys, tmp_path, text, named):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and named in err


    def test_mixed_two_dimensional_sweep_is_written_from_its_columns(self, capsys, tmp_path):
        # every point at epsilon = 0.3 is stable, every one at 0.9 unstable
        document = {"axis1": {"param": "theta", "start": 0.0, "stop": 0.5, "count": 8},
                    "axis2": {"param": "epsilon", "values": [0.3, 0.9]}}
        spec = sweep.spec_from_dict(document)
        columns = sweep.sweep_columns(spec)
        assert list(columns) == ["theta", "epsilon", *MEASURE_KEYS,
                                 "lyap_residual", "min_symplectic_eig", "status"]
        assert columns["status"] == ["ok"] * 8 + ["unstable"] * 8
        assert sweep.run_sweep(spec) == [dict(zip(columns, row))
                                         for row in zip(*columns.values())]
        spec_path, out_csv = tmp_path / "spec.json", tmp_path / "mixed.csv"
        spec_path.write_text(json.dumps(document))
        code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec_path), "--out", str(out_csv))
        assert (code, out) == (0, "")
        assert out_csv.read_bytes() == sweep.format_csv(columns).encode()
        for line in out_csv.read_text().splitlines()[9:]:
            cells = line.split(",")
            assert cells[-1] == "unstable"
            assert cells[1] == "0.9" and cells[2:-1] == [""] * (len(columns) - 3)

    @pytest.mark.parametrize("document", [
        {"axis1": {"param": "kappa_m", "values": [6e6, 6e300]}},
        {"base": {"g_q": 1e6}, "axis1": {"param": "sphere_radius", "values": [1e-4, 1e-200]}},
    ], ids=["kappa_m", "sphere_radius"])
    def test_overflowing_axis_gives_an_unstable_row(self, capsys, tmp_path, document):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**document, "outputs": ["LN_qm"]}))
        code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 0
        assert out.splitlines()[-1].endswith(",,,,unstable")

    def test_duplicate_outputs_exit_code(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "axis1": {"param": "temperature", "start": 0, "stop": 0.1, "count": 3},
            "outputs": ["LN_qm", "LN_qm"]}))
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 3
        assert out == ""
        assert err == "error: duplicate measure keys: ['LN_qm']\n"

    @pytest.mark.parametrize("command", ["sweep", "preset", "threshold", "solve"])
    def test_out_of_memory_exit_code(self, capsys, tmp_path, monkeypatch, command):
        # a command whose arrays do not fit in memory ends in one error line, no traceback
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 91.6 MiB")

        for name in ("sweep_columns", "find_threshold", "run_point"):
            monkeypatch.setattr(cli, name, out_of_memory)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"axis1": {"param": "temperature", "start": 0, "stop": 1,
                                              "count": 400000}}))
        source = {"sweep": ["--spec", str(spec)], "preset": ["--id", "fig5"],
                  "threshold": ["--spec", str(spec), "--measure", "LN_qm"], "solve": []}
        code, out, err = run_cli(capsys, command, *source[command])
        assert code == 3
        assert out == ""
        assert err == f"error: not enough memory to run {command}\n"

    def test_hot_magnon_sweep(self, capsys, tmp_path):
        # one B0 row whose magnon x' variance is 7.4e15 against the qubit's 0.79
        # is measured like the others; no row aborts the sweep
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"base": {"drive_power": 1e-11},
                                    "axis1": {"param": "B0", "values": [0.1, 1e-9, 1e-18]}}))
        code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 0
        assert [line.rpartition(",")[2] for line in out.splitlines()[1:]] == ["ok"] * 3


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

    @pytest.mark.parametrize("preset_id", PRESET_IDS)
    def test_preset_is_an_ordinary_sweep_document(self, capsys, tmp_path, preset_id):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(sweep._PRESETS[preset_id]))
        code, from_document, _ = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 0
        code, from_preset, _ = run_cli(capsys, "preset", "--id", preset_id)
        assert code == 0
        assert from_document == from_preset

    def test_unwritable_output_exit_code(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "fig3a.csv"
        code, out, err = run_cli(capsys, "preset", "--id", "fig3a", "--out", str(target))
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: cannot write {target}")


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

    def test_steering_class_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "threshold", "--preset", "fig3a",
                                 "--measure", "class_cq")
        assert code == 3
        assert out == ""
        assert "numeric measure" in err

    def test_unstable_point_names_its_check(self, capsys, tmp_path):
        # the last grid point passes the Hurwitz gate and fails the residual bound
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "base": {"theta": 0.0},
            "axis1": {"param": "epsilon", "values": [0.1, 0.2, 0.4947298263]},
        }))
        code, out, err = run_cli(capsys, "threshold", "--spec", str(spec),
                                 "--measure", "LN_qm")
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["status"] == "unstable"
        assert payload["reason"] == "residual"
        assert payload["max_real_part"] < 0


    def test_unordered_axis_values_exit_code(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "base": {"epsilon": 0.86, "diffusion_mode": "input_output"},
            "axis1": {"param": "temperature", "values": [0.0, 0.5, 0.05, 0.3]}}))
        code, out, err = run_cli(capsys, "threshold", "--spec", str(spec),
                                 "--measure", "LN_qm")
        assert code == 3
        assert out == ""
        assert "strictly increasing" in err


# files json cannot read: a byte that is not UTF-8, arrays nested deeper than
# the decoder recurses, and an integer of more digits than int() converts
UNREADABLE_JSON = [b'{"temperature": 0.1\xff}', b"[" * 100_000 + b"]" * 100_000,
                   b'{"temperature": 1' + b"0" * 5000 + b"}"]


@pytest.mark.parametrize("content", UNREADABLE_JSON, ids=["not_utf8", "nested", "long_integer"])
@pytest.mark.parametrize("command, option", [("solve", "--params"), ("sweep", "--spec")])
def test_unreadable_json_file_exit_code(capsys, tmp_path, command, option, content):
    path = tmp_path / "document.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, command, option, str(path))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: invalid JSON in {path}: ")


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0


# the closed form (magnonsteer.analytic) is a test oracle, not a product path:
# importing the package and its command line, in a fresh interpreter, leaves it
# unloaded
def test_command_line_never_loads_the_closed_form():
    code = ("import sys, magnonsteer, magnonsteer.cli; "
            "print(*sorted(name for name in sys.modules if name.startswith('magnonsteer')))")
    done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, check=True)
    loaded = done.stdout.split()
    assert "magnonsteer.cli" in loaded and "magnonsteer.sweep" in loaded
    assert "magnonsteer.analytic" not in loaded


# a usage error is an invalid call, so it exits 3 like an invalid document;
# argparse's own code, 2, is the code for "no steady state"
@pytest.mark.parametrize("argv, message", [
    (["solve", "--diffusion", "paper"], "unrecognized arguments: --diffusion paper"),
    (["validate-oracle"], "invalid choice: 'validate-oracle'"),
    (["threshold", "--preset", "fig6", "--measure", "LN_cm", "--direction", "rising"],
     "unrecognized arguments: --direction rising"),
    (["sweep"], "the following arguments are required: --spec"),
])
def test_usage_error_exit_code(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == cli.EXIT_SPEC == 3
    assert captured.out == ""
    assert captured.err.startswith("usage: magnonsteer")
    assert message in captured.err


# an empty path names no file to read; it is not an omitted option
@pytest.mark.parametrize("argv", [
    ["solve", "--params", ""],
    ["threshold", "--spec", "", "--measure", "LN_qm"],
    ["sweep", "--spec", ""],
])
def test_empty_path_cannot_be_read(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot read")


class TestParserReuse:
    def test_one_parser_serves_every_call(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"axis1": {"param": "temperature", "values": [0.0, 0.1]},
                                    "outputs": ["LN_qm"]}))
        calls = [
            ["solve"],
            ["preset", "--id", "fig3a"],
            ["sweep", "--spec", str(spec)],
            ["threshold", "--preset", "fig3a", "--measure", "LN_qm"],
            ["solve", "--diffusion", "paper"],
            ["--version"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"exit {exc.code}"
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        build_parser.cache_clear()
        shared = [outcome(argv) for argv in calls]
        assert build_parser.cache_info().misses == 1
        assert shared == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, "exit 3", "exit 0"]
        assert "unrecognized arguments: --diffusion paper" in fresh[4][2]
