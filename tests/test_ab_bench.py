"""The summary of tools/ab_bench.py on synthetic run records, with no benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("ab_bench", _ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


def record(failed=0, **metrics):
    return {"correct": 10 - failed, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()}}


def test_summary_counts_wins_in_each_metrics_direction():
    parent = [100.0, 110.0, 120.0, 130.0]
    change = [105.0, 110.0, 115.0, 140.0]  # ahead, tied, behind, ahead
    pairs = [(record(rate=a, wall=a), record(rate=b, wall=b)) for a, b in zip(parent, change)]
    lines = ab_bench.summary(pairs, [("rate", "higher"), ("wall", "lower"), ("absent", "lower")])
    assert lines == [
        "rate (higher is better): parent 115 [107.5, 122.5]  change 112.5 [108.75, 121.25]"
        "  median -2.2%  change ahead in 2 of 4 (behind in 1)",
        "wall (lower is better): parent 115 [107.5, 122.5]  change 112.5 [108.75, 121.25]"
        "  median -2.2%  change ahead in 1 of 4 (behind in 2)",
    ]


def test_summary_of_one_pair():
    (line,) = ab_bench.summary([(record(rate=2.0), record(rate=3.0))], [("rate", "higher")])
    assert line.endswith("parent 2 [2, 2]  change 3 [3, 3]  median +50.0%"
                         "  change ahead in 1 of 1 (behind in 0)")


def test_last_line_is_the_record_and_failures_raise():
    text = "a summary line\n" + json.dumps(record(rate=1.0)) + "\n"
    assert ab_bench.last_record(text)["metrics"]["rate"]["value"] == 1.0
    with pytest.raises(ab_bench.RunFailed, match="1 of 10 operations failed"):
        ab_bench.last_record(json.dumps(record(failed=1, rate=1.0)))
    for stdout in ("", "a summary line\n", json.dumps(record(rate=1.0)) + "\ntrailing text\n"):
        with pytest.raises(ab_bench.RunFailed, match="no JSON record"):
            ab_bench.last_record(stdout)


def test_end_to_end_metrics_are_the_declared_ones():
    metrics = dict(ab_bench.end_to_end(_ROOT))
    assert metrics["points_per_s"] == "higher" and metrics["wall_s"] == "lower"
