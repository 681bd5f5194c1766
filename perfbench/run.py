"""Benchmark of the magnonsteer package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload presets --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
readable summary with the run's provenance goes to standard error, and a
record of the run to ``.perfbench_out/`` in the checkout. See NOTES.md.
"""

import time

T0 = time.perf_counter()  # setup_s is counted from here, before numpy is imported

import os  # noqa: E402

# single process, single thread: pinned before numpy loads its BLAS
THREAD_ENV = {
    "MAGNONSTEER_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("presets", "point_stream", "oracle_check"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up timing, in a fresh process
    return parser.parse_args(argv)


def import_bench():
    """Import the benchmark with the package from this checkout's source tree."""
    if not (SRC / "magnonsteer" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'magnonsteer'}")
    sys.path[0:1] = [str(SRC), str(ROOT)]  # replaces this script's own directory
    from perfbench import bench
    import magnonsteer

    if Path(magnonsteer.__file__).resolve().parent != SRC / "magnonsteer":
        raise SystemExit(f"error: magnonsteer imported from {magnonsteer.__file__}")
    return bench


def probe_setup(args) -> None:
    bench = import_bench()
    inputs = bench.make_inputs(args.workload, args.seed, bench.DEFAULT_SIZE[args.workload])
    bench.warm_up(args.workload, inputs, OUT / "probe")
    print(repr(time.perf_counter() - T0))


def setup_seconds(args, speed) -> list[float]:
    """Set-up time of fresh processes: import, build inputs, one warm-up call.

    Each is taken to reference speed with kernel samples from just before
    and just after it.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        first = len(speed.samples)
        for _ in range(5):
            speed.sample()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: set-up probe exited with {done.returncode}")
        for _ in range(5):
            speed.sample()
        measured = float(done.stdout.strip().splitlines()[-1])
        times.append((measured, measured * speed.factor(speed.samples[first:])))
    return times


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, result) -> dict:
    import magnonsteer
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "package_version": magnonsteer.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "warning_filters": "python default" if not sys.warnoptions else sys.warnoptions,
        "workload": args.workload,
        "seed": args.seed,
        "input_size": result["latency_samples"],
        "points_per_pass": result["points_per_pass"],
        "passes": result["passes"],
        "latency_samples": result["latency_samples"],
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    bench = import_bench()
    from perfbench.speed import SpeedProbe

    OUT.mkdir(exist_ok=True)
    setup = None if args.trace else setup_seconds(args, SpeedProbe())
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       OUT / args.workload)
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = (statistics.median(ref for _, ref in setup), "s")
        result["measured"]["setup_s"] = (statistics.median(raw for raw, _ in setup), "s")
    if args.trace:
        result["tracer"].write(OUT / f"trace-{args.workload}.csv", result["origin"])

    record = {
        "provenance": provenance(args, result),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "measured": {name: {"value": v, "unit": u} for name, (v, u) in result["measured"].items()},
        "speed_factor": result["speed_factor"],
        "speed_samples": result["speed_samples"],
        "setup_s_samples": setup,
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    summary = [f"{args.workload} seed={args.seed} trace={args.trace}",
               json.dumps(record["provenance"]),
               f"  error_rate = {record['error_rate']} ratio "
               f"({result['failed']} of {result['attempted']} points)"]
    summary += [f"  {name} = {v} {u}" for name, (v, u) in metrics.items()]
    summary += [f"  speed factor {result['speed_factor']:.4f}; as measured:"]
    summary += [f"    {name} = {v} {u}" for name, (v, u) in result["measured"].items()]
    print("\n".join(summary), file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
