"""Compare the benchmark's end-to-end metrics of two checkouts in alternating runs.

Usage: python tools/ab_bench.py PARENT CHANGE --workload NAME
                                [--pairs 10] [--seconds 20] [--seed 0]

PARENT and CHANGE are the roots of two checkouts. Each pair runs
``perfbench/run.py --trace 0`` once in each, one after the other; the side
that runs first alternates from pair to pair, the parent first in pair 1.
Only the JSON object on the last line of each run's standard output is read.

For each end-to-end metric that CHANGE's ``BENCHMARK.json`` declares, prints
each side's median and quartiles (``statistics.quantiles``, inclusive), the
change of the median, and how many pairs the change won: a pair is won when
the change's value is better in the metric's declared direction, and a tie
counts for neither side. Exits 1 as soon as a run exits non-zero or reports
``"failed"`` above 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


class RunFailed(Exception):
    """A benchmark run that exited non-zero or failed some of its operations."""


def end_to_end(checkout: Path) -> list[tuple[str, str]]:
    """The (name, "higher" or "lower") of each end-to-end metric a checkout declares."""
    declared = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(metric["name"], metric["better"]) for metric in declared["end_to_end"]]


def last_record(stdout: str) -> dict:
    """The JSON object on the last line of a run's output, checked for failed operations."""
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RunFailed(f"no JSON record on the last line of the output ({exc})") from exc
    if record["failed"] > 0:
        raise RunFailed(f"{record['failed']} of {record['attempted']} operations failed")
    return record


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RunFailed(f"{checkout}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return last_record(done.stdout)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(pairs: list[tuple[dict, dict]], metrics: list[tuple[str, str]]) -> list[str]:
    """One line per metric that every record reports, over (parent, change) record pairs."""
    lines = []
    for name, better in metrics:
        if not all(name in record["metrics"] for pair in pairs for record in pair):
            continue
        parent, change = ([record["metrics"][name]["value"] for record in side]
                          for side in zip(*pairs))
        sign = 1.0 if better == "higher" else -1.0
        won = sum(sign * (b - a) > 0.0 for a, b in zip(parent, change))
        lost = sum(sign * (b - a) < 0.0 for a, b in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
        shift = f"{100.0 * (cm - pm) / pm:+.1f}%" if pm else "n/a"
        lines.append(f"{name} ({better} is better): parent {pm:.6g} [{p1:.6g}, {p3:.6g}]"
                     f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  median {shift}"
                     f"  change ahead in {won} of {len(pairs)} (behind in {lost})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    checkouts, pairs = (args.parent, args.change), []
    try:
        for index in range(args.pairs):
            records = [None, None]
            for side in (0, 1) if index % 2 == 0 else (1, 0):
                records[side] = run_once(checkouts[side], args.workload, args.seconds, args.seed)
            pairs.append(tuple(records))
            print(f"pair {index + 1} of {args.pairs} done", file=sys.stderr)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed} {args.pairs} pairs of {args.seconds:g} s runs")
    print("\n".join(summary(pairs, end_to_end(args.change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
