"""Tests of the benchmark itself: small runs, the correctness gate, seeding
and the repeatability of the traced counts."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from magnonsteer import cli, sweep
from perfbench import bench

ROOT = Path(__file__).resolve().parent.parent

# point_stream draws points with non-positive feedback damping on purpose
pytestmark = pytest.mark.filterwarnings("ignore:feedback damping is non-positive")
TINY = {"presets": 1, "point_stream": 40, "oracle_check": 100}


def tiny_run(workload, tmp_path, seed=0, trace=False):
    return bench.run(workload, seed, 0.0, trace, tmp_path, TINY[workload])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_has_no_failures(workload, tmp_path):
    result = tiny_run(workload, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == result["points_per_pass"] * result["passes"] > 0
    assert all(value > 0 for value, _ in result["metrics"].values())


def test_tiny_run_off_the_reference_seed(tmp_path):
    result = tiny_run("point_stream", tmp_path, seed=7)
    assert result["correct"] and result["attempted"] == TINY["point_stream"]


def _scale_ln_qm(result):
    report = dataclasses.replace(result.report, ln_pairs={
        **result.report.ln_pairs, "qm": result.report.ln_pairs["qm"] * (1 + 1e-6) + 1e-9})
    return dataclasses.replace(result, report=report)


def _shift_asym_cq(result):
    report = dataclasses.replace(result.report, asymmetry={
        **result.report.asymmetry, "cq": result.report.asymmetry["cq"] + 1e-6})
    return dataclasses.replace(result, report=report)


def _flip_status(result):
    return dataclasses.replace(result, status="unstable", report=None)


# the reference catches any change at seed 0; the seed-independent checks
# catch a broken invariant at any seed
@pytest.mark.parametrize("seed, change", [
    (0, _scale_ln_qm), (0, _flip_status), (7, _flip_status), (7, _shift_asym_cq)])
def test_perturbed_point_is_a_failed_point(seed, change, tmp_path, monkeypatch):
    inputs = bench.make_inputs("point_stream", seed, TINY["point_stream"])
    original = sweep.run_point
    target = next(p for p in inputs if original(p).status == "ok")
    monkeypatch.setattr(sweep, "run_point",
                        lambda p: change(original(p)) if p == target else original(p))
    result = tiny_run("point_stream", tmp_path, seed=seed)
    assert (result["failed"], result["correct"]) == (1, False)


def test_perturbed_preset_cell_is_a_failed_point(tmp_path, monkeypatch):
    original = cli.format_csv

    def format_csv(rows):
        lines = original(rows).splitlines(keepends=True)
        cells = lines[5].split(",")
        cells[3] = repr(float(cells[3]) * (1 + 1e-8))
        lines[5] = ",".join(cells)
        return "".join(lines)

    monkeypatch.setattr(cli, "format_csv", format_csv)
    result = tiny_run("presets", tmp_path)
    assert (result["failed"], result["correct"]) == (1, False)


def test_preset_file_not_written_fails_every_row(tmp_path, monkeypatch):
    # a file from an earlier run must not stand in for the one this run writes
    shutil.copy(bench.REFERENCE_DIR / "fig3a.csv", tmp_path / "fig3a.csv")
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    result = tiny_run("presets", tmp_path)
    assert result["failed"] == result["attempted"] > 0
    assert not result["correct"]


def test_seed_changes_random_inputs_only():
    for workload in ("point_stream", "oracle_check"):
        assert (bench.make_inputs(workload, 0, 5) == bench.make_inputs(workload, 0, 5)
                != bench.make_inputs(workload, 1, 5))
    assert bench.make_inputs("presets", 0, 7) == bench.make_inputs("presets", 1, 7)


def declared(kind):
    return {m["name"]: m["unit"]
            for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def test_linalg_counts_repeat_and_patches_are_removed(tmp_path):
    originals = {name: getattr(sweep, name) for name in ("run_point", "correlation_report")}
    counts = []
    for _ in range(2):
        metrics = tiny_run("point_stream", tmp_path, trace=True)["metrics"]
        counts.append({k: v for k, v in metrics.items() if k.startswith("linalg.")})
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("per_layer")
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eigvals.per_point"][0] > 0
    assert all(getattr(sweep, name) is fn for name, fn in originals.items())


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_stream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_command_line_prints_every_declared_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_stream", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == declared("end_to_end"))
