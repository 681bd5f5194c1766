"""Workloads, output checks and the timed loop of the magnonsteer benchmark.

Every workload is a closed loop with one caller: each call into the package
starts when the previous one has returned. Outputs are kept during a pass and
checked after it, outside the timed region.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import resource
import statistics
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from magnonsteer import analytic, cli, model, sweep

from .spans import LAYERS, LINALG, REQUEST, NullTracer, Tracer
from .speed import SpeedProbe

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
POINT_STREAM_REFERENCE = REFERENCE_DIR / "point_stream_seed0.csv.gz"

WORKLOADS = ("presets", "point_stream", "oracle_check")
PRESET_IDS = ("fig3a", "fig3b", "fig2", "fig5", "fig6", "fig10", "fig11")
DEFAULT_SIZE = {"presets": len(PRESET_IDS), "point_stream": 2000, "oracle_check": 10000}
# the seed whose point_stream outputs are stored in POINT_STREAM_REFERENCE
REFERENCE_SEED = 0

# Comparison rule. Numeric cells agree to REL_TOL relative with an absolute
# floor of measures.ZERO_CLAMP, so last-digit changes pass; status and class
# cells agree exactly; the steady-state residual is held to the solver's bound
# RESIDUAL_TOL * max(1, ||D||_F) instead of its golden value, because any
# change of solver path moves it at roundoff.
REL_TOL = 1e-10
ABS_TOL = 1e-12
RESIDUAL_TOL = 1e-10
ORACLE_TOL = 1e-8          # validate-oracle's default relative tolerance
ORACLE_MASK = 1e-12        # validate-oracle skips entries below this
STABILITY_TOL = 1e-9       # the Hurwitz gate's margin, relative to ||Q||_F
STEERING_CLASSES = frozenset(("no_way", "one_way_ab", "one_way_ba",
                              "two_way_asymmetric", "two_way_symmetric"))
PAIRS = ("cq", "cm", "qm")
TIME_UNITS = ("s", "ms", "us")


# --- inputs ------------------------------------------------------------------


def _random_document(rng: np.random.Generator) -> dict:
    return {
        "epsilon": float(rng.uniform(0.0, 0.95)),
        "theta": float(rng.uniform(0.0, 2.0 * math.pi)),
        "temperature": float(rng.uniform(0.0, 1.0)),
        "g_q_ratio": float(rng.uniform(0.5, 3.0)),
        "diffusion_mode": ("paper", "consistent")[int(rng.integers(2))],
    }


def _derive_quietly(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # derive warns on non-positive damping
        return model.derive(params)


def drift_spectrum(params) -> tuple[float, float]:
    """Largest real part of the drift eigenvalues, and the gate's tolerance.

    An eigen-solve of its own, independent of the package's stability gates.
    """
    drift = model.build_drift(params, _derive_quietly(params))
    return (float(np.max(np.linalg.eigvals(drift).real)),
            STABILITY_TOL * float(np.linalg.norm(drift)))


def make_inputs(workload: str, seed: int, size: int) -> list:
    """The workload's inputs. Points are drawn one at a time, so a smaller
    size gives a prefix of a larger one."""
    if workload == "presets":
        return list(PRESET_IDS[:size])
    rng = np.random.default_rng(seed)
    if workload == "point_stream":
        return [model.params_from_dict(_random_document(rng)) for _ in range(size)]
    points = []
    while len(points) < size:
        params = model.params_from_dict(_random_document(rng))
        max_real, tol = drift_spectrum(params)
        if max_real < -tol:
            points.append(params)
    return points


# --- the calls that are timed --------------------------------------------------


def _call_point(params):
    return sweep.run_point(params)


def _call_oracle(params):
    numeric = sweep.steady_state_covariance(params)
    closed = analytic.analytic_covariance(params, model.derive(params))
    return numeric, closed


def caller(workload: str, outdir: Path):
    """The function making one call of the workload into the package.

    Package functions are looked up on their modules at each call, so that a
    traced pass goes through the tracer's wrappers.
    """
    if workload == "presets":
        def call_preset(preset_id):
            return cli.main(["preset", "--id", preset_id,
                             "--out", str(outdir / f"{preset_id}.csv")])
        return call_preset
    return _call_point if workload == "point_stream" else _call_oracle


def run_pass(call, inputs, tracer, speed: SpeedProbe) -> tuple[list, list[float], list[float]]:
    """One closed-loop pass: outputs, per-call seconds and call start times.

    An exception is kept as the call's output and counted as failed points.
    """
    outputs, latencies, starts = [], [], []
    speed.sample()
    for item in inputs:
        speed.maybe_sample()
        with tracer.request():
            t0 = perf_counter()
            try:
                out = call(item)
            except Exception as exc:  # noqa: BLE001 - the checker records it
                out = exc
            latencies.append(perf_counter() - t0)
        starts.append(t0)
        outputs.append(out)
    speed.sample()
    return outputs, latencies, starts


# --- checks ------------------------------------------------------------------


def close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL)


def cell_matches(column: str, got: str, want: str, residual_bound: float) -> bool:
    """One output cell against its golden cell, both as CSV text."""
    if got == "" or want == "":
        return got == want
    if column == "status" or column.startswith("class_"):
        return got == want
    try:
        value = float(got)
    except ValueError:
        return False
    if column == "lyap_residual":
        return value <= residual_bound
    return close(value, float(want))


def rows_failed(got: list[dict], want: list[dict], bounds: list[float]) -> int:
    """Rows of ``got`` that differ from the golden rows; missing rows fail."""
    failed = abs(len(got) - len(want))
    columns = list(want[0]) if want else []
    for row, ref, bound in zip(got, want, bounds):
        if any(col not in row or not cell_matches(col, row[col], ref[col], bound)
               for col in columns):
            failed += 1
    return failed


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def residual_bound(params) -> float:
    diffusion = model.build_diffusion(params, _derive_quietly(params))
    return RESIDUAL_TOL * max(1.0, float(np.linalg.norm(diffusion)))


@dataclass
class Checked:
    points: int
    failed: int
    unstable: int


class PresetCheck:
    """Each preset CSV against its golden file.

    Each file is deleted once checked, and any file already there is deleted
    at the start, so that every pass is checked on the files it wrote itself.
    A missing file fails every row of its preset.
    """

    def __init__(self, inputs, outdir: Path):
        self.outdir = outdir
        self.golden = {pid: read_csv((REFERENCE_DIR / f"{pid}.csv").read_text())
                       for pid in inputs}
        self.bounds = {pid: [residual_bound(p) for p in sweep.grid_points(sweep.preset(pid))]
                       for pid in inputs}
        for pid in inputs:  # the warm-up's file, or one left by an earlier run
            self.path(pid).unlink(missing_ok=True)

    def path(self, preset_id: str) -> Path:
        return self.outdir / f"{preset_id}.csv"

    def __call__(self, inputs, outputs) -> Checked:
        points = failed = unstable = 0
        for pid, code in zip(inputs, outputs):
            want = self.golden[pid]
            points += len(want)
            path = self.path(pid)
            if code != 0 or not path.is_file():
                failed += len(want)
            else:
                got = read_csv(path.read_text())
                failed += rows_failed(got, want, self.bounds[pid])
                unstable += sum(row.get("status") == "unstable" for row in got)
            path.unlink(missing_ok=True)
        return Checked(points, failed, unstable)


def read_point_stream_reference() -> list[dict]:
    with gzip.open(POINT_STREAM_REFERENCE, "rt", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class PointCheck:
    """Seed-independent checks on every point, plus the stored outputs at
    the reference seed."""

    def __init__(self, inputs, seed: int):
        reference = read_point_stream_reference()
        self.keys = [k for k in reference[0] if k not in ("point", "status")]
        self.reference = reference[:len(inputs)] if seed == REFERENCE_SEED else []
        self.spectra = [drift_spectrum(p) for p in inputs]
        self.bounds = [residual_bound(p) for p in inputs]

    def point_ok(self, index: int, out) -> bool:
        if not hasattr(out, "to_flat_dict"):
            return False
        flat = out.to_flat_dict()
        status = flat.get("status")
        max_real, tol = self.spectra[index]
        if abs(max_real + tol) > 1e-3 * tol:  # outside that, the gate's answer is clear
            if status != ("unstable" if max_real >= -tol else "ok"):
                return False
        if status == "unstable":
            if any(flat.get(k) is not None for k in self.keys):
                return False
        elif status == "ok":
            if not self._measures_ok(flat, self.bounds[index]):
                return False
        else:
            return False
        if index < len(self.reference):
            ref = self.reference[index]
            got = {k: self._text(flat.get(k)) for k in ref if k != "point"}
            if not all(cell_matches(k, got[k], ref[k], self.bounds[index]) for k in got):
                return False
        return True

    @staticmethod
    def _text(value) -> str:
        if value is None:
            return ""
        return value if isinstance(value, str) else repr(float(value))

    def _measures_ok(self, flat: dict, bound: float) -> bool:
        for key in self.keys:
            value = flat.get(key)
            if key.startswith("class_"):
                if value not in STEERING_CLASSES:
                    return False
            elif not isinstance(value, float) or not math.isfinite(value):
                return False
            elif key.startswith(("LN_", "G_")) and value < 0.0:
                return False
        for pair in PAIRS:
            a, b = pair
            if not close(flat[f"asym_{pair}"], abs(flat[f"G_{a}_to_{b}"] - flat[f"G_{b}_to_{a}"])):
                return False
        return flat["lyap_residual"] <= bound

    def __call__(self, inputs, outputs) -> Checked:
        failed = sum(not self.point_ok(i, out) for i, out in enumerate(outputs))
        unstable = sum(getattr(out, "status", None) == "unstable" for out in outputs)
        return Checked(len(outputs), failed, unstable)


def oracle_ok(out) -> bool:
    """validate-oracle's rule: solver and closed form agree to ORACLE_TOL."""
    if not isinstance(out, tuple):
        return False
    numeric, closed = (np.asarray(m, dtype=float) for m in out)
    if numeric.shape != (6, 6) or closed.shape != (6, 6):
        return False
    if not (np.isfinite(numeric).all() and np.isfinite(closed).all()):
        return False
    mask = np.abs(closed) > ORACLE_MASK
    rel = np.abs(numeric - closed)[mask] / np.abs(closed)[mask]
    return float(np.max(rel)) <= ORACLE_TOL


def check_oracle(inputs, outputs) -> Checked:
    return Checked(len(outputs), sum(not oracle_ok(out) for out in outputs), 0)


def checker(workload: str, inputs, seed: int, outdir: Path):
    if workload == "presets":
        return PresetCheck(inputs, outdir)
    if workload == "point_stream":
        return PointCheck(inputs, seed)
    return check_oracle


# --- the measurement -------------------------------------------------------------


def quantile(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(workload: str, inputs, outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    return caller(workload, outdir)(inputs[0])


def run(workload: str, seed: int, seconds: float, trace: bool, outdir: Path,
        size: int | None = None) -> dict:
    """Set up and measure one workload in this process.

    Untraced, it returns the end-to-end metrics except ``setup_s``, which
    needs fresh processes. Traced, passes alternate between untraced and
    traced so that the tracing overhead is measured in the same run, and it
    returns the per-layer metrics. Times are at reference speed (speed.py).
    """
    size = DEFAULT_SIZE[workload] if size is None else size
    inputs = make_inputs(workload, seed, size)
    warm_up(workload, inputs, outdir)
    check = checker(workload, inputs, seed, outdir)
    call = caller(workload, outdir)
    tracer = Tracer() if trace else None
    null = NullTracer()
    speed = SpeedProbe()

    # per pass: traced or not, and per call the seconds as measured and the start
    passes: list[tuple[bool, list[float], list[float]]] = []
    attempted = failed = traced_points = traced_unstable = 0
    peak_mb = None
    origin = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            with tracer.installed():
                outputs, lat, starts = run_pass(call, inputs, tracer, speed)
        else:
            outputs, lat, starts = run_pass(call, inputs, null, speed)
        passes.append((traced, lat, starts))
        checked = check(inputs, outputs)
        attempted += checked.points
        failed += checked.failed
        if traced:
            traced_points += checked.points
            traced_unstable += checked.unstable
        if peak_mb is None:
            # read after the first pass and its check, before the per-pass
            # timings kept here grow with the number of passes that fit
            peak_mb = peak_rss_mb()
        if perf_counter() - origin >= seconds and (not trace or traced):
            break

    # per pass, per call: the speed factor and the seconds at reference speed
    factors = {False: [], True: []}
    scaled = {False: [], True: []}
    for traced, lat, starts in passes:
        f = [speed.factor_during(t0, t0 + s) for s, t0 in zip(lat, starts)]
        factors[traced] += f
        scaled[traced].append([s * x for s, x in zip(lat, f)])
    untraced = [lat for traced, lat, _ in passes if not traced]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "points_per_pass": attempted // len(passes),
        "passes": len(untraced),
        "latency_samples": len(inputs),
        "speed_samples": len(speed.samples),
        "speed_factor": statistics.median(factors[False]),
        "measured": latency_metrics(untraced),
    }
    if not trace:
        metrics = latency_metrics(scaled[False])
        metrics["points_per_s"] = (result["points_per_pass"] / metrics["wall_s"][0], "1/s")
        metrics["peak_rss_mb"] = (peak_mb, "MB")
        result["metrics"] = metrics
        return result
    result["tracer"] = tracer
    result["origin"] = origin
    traced_factor = statistics.median(factors[True])
    metrics = layer_metrics(tracer, len(scaled[True]), traced_points, traced_unstable)
    result["metrics"] = {name: (value * traced_factor if unit in TIME_UNITS else value, unit)
                         for name, (value, unit) in metrics.items()}
    traced_s, untraced_s = (statistics.median(sum(lat) for lat in scaled[m]) for m in (True, False))
    result["metrics"]["trace.wall_s"] = (traced_s, "s")
    result["metrics"]["trace.untraced_wall_s"] = (untraced_s, "s")
    result["metrics"]["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return result


def latency_metrics(latencies: list[list[float]]) -> dict:
    """Pass time and latency percentiles from per-pass, per-call seconds.

    Each call's latency is its median over the passes, which keeps the spread
    between inputs and drops most of the machine's transient slowdowns. The
    pass time is the sum of those medians; the percentiles are taken over
    them, one sample per input.
    """
    per_call = [statistics.median(call_s) for call_s in zip(*latencies)]
    return {
        "wall_s": (sum(per_call), "s"),
        "latency_p50_ms": (quantile(per_call, 50) * 1e3, "ms"),
        "latency_p95_ms": (quantile(per_call, 95) * 1e3, "ms"),
    }


def layer_metrics(tracer: Tracer, passes: int, points: int, unstable: int) -> dict:
    """Per-layer metrics from the spans and counts of the traced passes."""
    totals = tracer.totals()

    def entry(name):
        return totals.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def per_call(name, scale):
        e = entry(name)
        return e["incl_s"] / e["calls"] * scale if e["calls"] else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    for name, e in totals.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += e["self_s"]
            layer_calls[layer] += e["calls"]

    report = entry("measures.correlation_report")
    builds = entry("model.build_drift")
    format_csv = entry("sweep.format_csv")
    linalg_total = sum(tracer.linalg_calls.values())

    metrics = {
        "measures.correlation_report.ms_per_call": (per_call("measures.correlation_report", 1e3), "ms"),
        "measures.share": (report["incl_s"] / entry(REQUEST)["incl_s"], "ratio"),
        "linalg.calls_per_point": (linalg_total / points, "count"),
    }
    for key in LINALG:
        metrics[f"linalg.{key}.per_point"] = (tracer.linalg_calls[key] / points, "count")
    for name in ("gaussian.solve_lyapunov", "gaussian.check_physicality",
                 "gaussian.lyapunov_residual", "model.assert_stable", "model.derive"):
        metrics[f"{name}.us_per_call"] = (per_call(name, 1e6), "us")
    build_s = builds["incl_s"] + entry("model.build_diffusion")["incl_s"]
    metrics["model.build.us_per_call"] = (build_s / builds["calls"] * 1e6 if builds["calls"] else 0.0, "us")
    metrics["model.unstable_frac"] = (unstable / points, "ratio")
    metrics["model.unstable_base"] = (points, "count")
    metrics["model.warnings"] = (tracer.warnings / passes, "count")
    metrics["analytic.analytic_covariance.us_per_call"] = (per_call("analytic.analytic_covariance", 1e6), "us")
    sweep_self = layer_self["sweep"] - format_csv["self_s"]
    metrics["sweep.self_ms_per_point"] = (sweep_self / points * 1e3, "ms")
    metrics["sweep.format_csv.us_per_row"] = (
        format_csv["incl_s"] / points * 1e6 if format_csv["calls"] else 0.0, "us")
    cli_main = entry("cli.main")
    metrics["cli.self_ms"] = (cli_main["self_s"] / cli_main["calls"] * 1e3 if cli_main["calls"] else 0.0, "ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer] / passes, "s")
        metrics[f"{layer}.calls"] = (layer_calls[layer] / passes, "count")
    return metrics
