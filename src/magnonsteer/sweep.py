"""Single-point evaluation, parameter sweeps, presets and CSV emission.

Every call evaluates its points as one stack. Each point is derived and
built on its own; ``gaussian.steady_state_blocks`` then gates, solves and
judges the stack, and the batched measures kernel measures the accepted
points, computing only the requested outputs and ``min_symplectic_eig``;
it does not run when no point was accepted. ``run_point``
is the same pipeline on a stack of one, and ``find_threshold`` runs its grid
as one stack and each bisection step as a stack of one, computing only the
scanned measure. Rows are assembled in deterministic axis order, so
identical sweep specifications produce byte-identical CSV files.
"""

from __future__ import annotations

import io
import numbers
from dataclasses import dataclass, fields

import numpy as np

# assert_stable, check_physicality, correlation_report, lyapunov_residual and
# solve_lyapunov are not called here any more; they stay importable from this
# module because the benchmark's tracer (perfbench/spans.py) wraps the
# per-point stages by name here.
from .errors import NoCrossing, NonMonotone, SpecError, UnknownPreset, UnstableDrift
from .gaussian import (  # noqa: F401
    assemble_blocks,
    check_physicality,
    lyapunov_residual,
    solve_lyapunov,
    steady_state_blocks,
)
from .measures import (  # noqa: F401
    MEASURE_KEYS,
    CorrelationReport,
    correlation_report,
    measure_blocks,
)
from .model import (  # noqa: F401
    NUMERIC_FIELDS,
    SystemParams,
    _number,
    assert_stable,
    build_diffusion,
    build_drift,
    derive,
    params_from_dict,
)

DIAGNOSTIC_KEYS = ("lyap_residual", "min_symplectic_eig")


@dataclass(frozen=True)
class Axis:
    """One sweep axis: either a linspace or an explicit list of values."""

    param: str
    start: float = 0.0
    stop: float = 0.0
    count: int = 0
    values: tuple[float, ...] = ()

    def __post_init__(self):
        # every numeric SystemParams field can be swept; axis values are in the
        # internal units of the named field (the JSON Hz convention does not apply)
        if self.param not in NUMERIC_FIELDS:
            raise SpecError(f"cannot sweep over {self.param!r}; "
                            f"choose one of {NUMERIC_FIELDS}")
        if not isinstance(self.values, (list, tuple)):
            raise SpecError("axis values must be a list of numbers")
        object.__setattr__(self, "values",
                           tuple(_number(v, "axis value") for v in self.values))
        if self.values:
            return
        if isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral):
            raise SpecError(f"axis count must be an integer, got {self.count!r}")
        object.__setattr__(self, "start", _number(self.start, "axis start"))
        object.__setattr__(self, "stop", _number(self.stop, "axis stop"))
        if self.count < 2:
            raise SpecError("axis count must be at least 2")
        if not self.start < self.stop:
            raise SpecError("axis start must be below stop")

    def grid(self) -> np.ndarray:
        if self.values:
            return np.asarray(self.values, dtype=float)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep: base parameters, one or two axes, and the measures to emit."""

    base: SystemParams
    axis1: Axis
    axis2: Axis | None = None
    outputs: tuple[str, ...] = ()

    def __post_init__(self):
        outputs = tuple(self.outputs) or MEASURE_KEYS
        unknown = [k for k in outputs if k not in MEASURE_KEYS]
        if unknown:
            raise SpecError(f"unknown measure keys: {unknown}")
        object.__setattr__(self, "outputs", outputs)
        if self.axis2 is not None and self.axis2.param == self.axis1.param:
            raise SpecError("axis1 and axis2 must sweep different parameters")


@dataclass(frozen=True)
class PointResult:
    """Evaluation of one parameter point: report plus solver diagnostics."""

    status: str  # "ok" or "unstable"
    report: CorrelationReport | None = None
    lyap_residual: float | None = None
    min_symplectic_eig: float | None = None
    max_real_part: float | None = None
    reason: str | None = None  # for "unstable": "gate" or "residual"

    def to_flat_dict(self) -> dict:
        flat: dict = {}
        if self.report is not None:
            flat.update(self.report.to_flat_dict())
        if self.lyap_residual is not None:
            flat["lyap_residual"] = self.lyap_residual
        if self.min_symplectic_eig is not None:
            flat["min_symplectic_eig"] = self.min_symplectic_eig
        flat["status"] = self.status
        return flat


def _steady_states(points: list[SystemParams]):
    """Derive and build each point, then ``steady_state_blocks`` on the stack."""
    system = np.empty((len(points), 2, 6, 6))  # drift, diffusion
    for k, params in enumerate(points):
        derived = derive(params)
        system[k, 0] = build_drift(params, derived)
        system[k, 1] = build_diffusion(params, derived)
    return steady_state_blocks(system[:, 0], system[:, 1])


def _evaluate(points: list[SystemParams], outputs: tuple[str, ...]):
    """Run the points through the pipeline as one stack.

    Yields, per point in order, its largest drift eigenvalue real part, the
    check that rejected it ("gate" or "residual", None if it was solved) and
    its values of ``outputs + DIAGNOSTIC_KEYS``, or None in place of the
    values if the point is unstable.
    """
    max_real, reasons, blocks, residual = _steady_states(points)
    values = iter(())
    if len(blocks):  # an all-unstable stack leaves the kernel out
        columns = measure_blocks(blocks, outputs + ("min_symplectic_eig",))
        columns["lyap_residual"] = residual.tolist()
        values = zip(*(columns[key] for key in outputs + DIAGNOSTIC_KEYS))
    for real, reason in zip(max_real.tolist(), reasons):
        yield real, reason, (None if reason else next(values))


def run_point(params: SystemParams) -> PointResult:
    """Derive, build, solve and measure one parameter point.

    An unstable drift matrix, or a steady state that fails the residual
    bound, is reported as a structured result with status "unstable" and
    the rejecting check in ``reason``, rather than raised.
    """
    [(max_real, reason, values)] = _evaluate([params], MEASURE_KEYS)
    if values is None:
        return PointResult(status="unstable", max_real_part=max_real, reason=reason)
    flat = dict(zip(MEASURE_KEYS + DIAGNOSTIC_KEYS, values))
    return PointResult(
        status="ok",
        report=CorrelationReport.from_flat(flat),
        lyap_residual=flat["lyap_residual"],
        min_symplectic_eig=flat["min_symplectic_eig"],
    )


def steady_state_covariance(params: SystemParams) -> np.ndarray:
    """Steady-state covariance matrix for one parameter point.

    Raises
    ------
    UnstableDrift
        If the point fails the Hurwitz gate or its steady state fails the
        residual bound; ``reason`` says which.
    """
    max_real, [reason], blocks, _ = _steady_states([params])
    if reason:
        raise UnstableDrift(float(max_real[0]), reason)
    return assemble_blocks(blocks)[0]


def grid_points(spec: SweepSpec) -> list[SystemParams]:
    """Parameter points in deterministic row order (axis2 outer, axis1 inner)."""
    outer = spec.axis2.grid() if spec.axis2 is not None else [None]
    points = []
    for outer_value in outer:
        for inner_value in spec.axis1.grid():
            changes = {spec.axis1.param: float(inner_value)}
            if spec.axis2 is not None:
                changes[spec.axis2.param] = float(outer_value)
            points.append(spec.base.replace(**changes))
    return points


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the grid. One row per point, axis columns first.

    Unstable points are emitted with status "unstable" and blank measure
    values instead of raising.
    """
    axes = [spec.axis1.param] + ([spec.axis2.param] if spec.axis2 is not None else [])
    keys = spec.outputs + DIAGNOSTIC_KEYS
    blank = (None,) * len(keys)
    points = grid_points(spec)
    rows = []
    for params, (_, _, values) in zip(points, _evaluate(points, spec.outputs)):
        row = {axis: getattr(params, axis) for axis in axes}
        row.update(zip(keys, blank if values is None else values))
        row["status"] = "unstable" if values is None else "ok"
        rows.append(row)
    return rows


def format_csv(rows: list[dict]) -> str:
    """Render sweep rows with 12 significant digits and a trailing status column."""
    if not rows:
        return ""
    header = list(rows[0].keys())
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for key in header:
            value = row[key]
            if value is None:
                cells.append("")
            elif isinstance(value, str):
                cells.append(value)
            else:
                cells.append(f"{value:.12g}")
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def find_threshold(spec: SweepSpec, measure: str, direction: str = "falling") -> float:
    """Axis value at which the measure first reaches zero.

    The measure must be monotone-to-zero along axis1 inside the scanned
    window: scanning in the given direction it is positive, reaches zero
    once, and stays zero. The grid crossing is refined by bisection to
    1/256 of the grid step. Only the scanned measure is computed.

    Raises
    ------
    SpecError
        If the sweep is two-dimensional, the direction is unknown, or the
        measure is unknown or a steering class.
    UnstableDrift
        If a point on the grid or a bisection step is unstable; its
        ``reason`` says whether it failed the gate or the residual bound.
    NoCrossing
        If the measure never reaches zero (or is zero everywhere) in the
        window.
    NonMonotone
        If the measure revives after reaching zero.
    """
    if spec.axis2 is not None:
        raise SpecError("threshold search requires a one-dimensional sweep")
    if direction not in ("falling", "rising"):
        raise SpecError("direction must be 'falling' or 'rising'")
    if measure not in MEASURE_KEYS:
        raise SpecError(f"unknown measure key {measure!r}")
    if measure.startswith("class_"):
        raise SpecError(f"threshold search needs a numeric measure, not {measure!r}")

    grid = spec.axis1.grid()
    if direction == "rising":
        grid = grid[::-1]

    def evaluate(axis_values) -> list[float]:
        points = [spec.base.replace(**{spec.axis1.param: float(v)}) for v in axis_values]
        measured = []
        for max_real, reason, values in _evaluate(points, (measure,)):
            if values is None:
                raise UnstableDrift(max_real, reason)
            measured.append(float(values[0]))
        return measured

    values = np.array(evaluate(grid))
    positive = values > 0.0
    if not positive[0]:
        raise NoCrossing("measure is zero at the start of the window")
    if positive[-1]:
        raise NoCrossing("measure never reaches zero inside the window")
    crossing = int(np.argmin(positive))  # first zero
    if positive[crossing:].any():
        raise NonMonotone("measure revives after reaching zero")

    lo, hi = grid[crossing - 1], grid[crossing]
    resolution = abs(hi - lo) / 256.0
    while abs(hi - lo) > resolution:
        mid = 0.5 * (lo + hi)
        if evaluate([mid])[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


# --- figure presets ----------------------------------------------------------

# Each preset is a sweep document as read by ``spec_from_dict``: ``base`` in
# the Hz-style document convention, axes in internal units. The documents
# are never mutated, so entries share sub-documents.
_LN_KEYS = ["LN_cm", "LN_cq", "LN_qm"]
_T_800MK = {"param": "temperature", "start": 0.0, "stop": 0.8, "count": 200}
_T_600MK = {"param": "temperature", "start": 0.0, "stop": 0.6, "count": 200}
_EPSILON = {"param": "epsilon", "start": 0.0, "stop": 0.95, "count": 200}
_STEERING_BASE = {"epsilon": 0.90, "g_q_ratio": 1.5}

_PRESETS = {
    "fig3a": {"base": {"epsilon": 0.0, "g_q_ratio": 2.0}, "axis1": _T_800MK,
              "outputs": _LN_KEYS},
    "fig3b": {"base": {"epsilon": 0.86, "g_q_ratio": 2.0}, "axis1": _T_800MK,
              "outputs": _LN_KEYS},
    "fig2": {
        "base": {"epsilon": 0.86, "g_q_ratio": 2.0},
        "axis1": {"param": "temperature", "start": 0.0, "stop": 0.65, "count": 200},
        "outputs": ["LN_cq", "LN_cm", "LN_qm",
                    "G_c_to_q", "G_q_to_c", "G_c_to_m", "G_m_to_c",
                    "G_q_to_m", "G_m_to_q",
                    "asym_cq", "asym_cm", "asym_qm",
                    "class_cq", "class_cm", "class_qm"],
    },
    "fig5": {
        "base": {"g_q_ratio": 2.0},
        "axis1": _EPSILON,
        "axis2": {"param": "temperature", "values": [0.1e-3, 10e-3, 30e-3]},
        "outputs": ["R_c", "R_q", "R_m", "R_min"],
    },
    "fig6": {"base": {"temperature": 10e-3, "g_q_ratio": 2.0}, "axis1": _EPSILON,
             "outputs": _LN_KEYS},
    # steering monogamy: outgoing (fig10) and incoming (fig11)
    "fig10": {
        "base": _STEERING_BASE,
        "axis1": _T_600MK,
        "outputs": ["G_c_to_q", "G_c_to_m", "G_c_to_qm",
                    "G_m_to_c", "G_m_to_q", "G_m_to_cq",
                    "G_q_to_c", "G_q_to_m", "G_q_to_cm",
                    "mono_out_c", "mono_out_q", "mono_out_m"],
    },
    "fig11": {
        "base": _STEERING_BASE,
        "axis1": _T_600MK,
        "outputs": ["G_q_to_c", "G_m_to_c", "G_qm_to_c",
                    "G_c_to_m", "G_q_to_m", "G_cq_to_m",
                    "G_c_to_q", "G_m_to_q", "G_cm_to_q",
                    "mono_in_c", "mono_in_q", "mono_in_m"],
    },
}

PRESET_IDS = tuple(_PRESETS)


def preset(preset_id: str) -> SweepSpec:
    """Fully populated sweep specification for one of the reference scans."""
    if preset_id not in _PRESETS:
        raise UnknownPreset(f"unknown preset {preset_id!r}; choose from {PRESET_IDS}")
    return spec_from_dict(_PRESETS[preset_id])


# --- sweep-spec (de)serialisation ---------------------------------------------


def spec_from_dict(document: dict) -> SweepSpec:
    """Build a SweepSpec from a JSON-style document.

    Expected shape:
      {"base": {...params...},
       "axis1": {"param": "temperature", "start": 0, "stop": 0.8, "count": 200},
       "axis2": {"param": "epsilon", "values": [0.0, 0.86]},   # optional
       "outputs": ["LN_qm", ...]}                               # optional
    """
    if not isinstance(document, dict):
        raise SpecError("sweep specification must be a JSON object")
    unknown = set(document) - {"base", "axis1", "axis2", "outputs"}
    if unknown:
        raise SpecError(f"unknown sweep keys: {sorted(unknown)}")
    if "axis1" not in document:
        raise SpecError("sweep specification requires axis1")
    outputs = document.get("outputs", [])
    if not isinstance(outputs, list) or not all(isinstance(k, str) for k in outputs):
        raise SpecError("sweep outputs must be a list of measure keys")
    base = params_from_dict(document.get("base", {}))
    axis1 = _axis_from_dict(document["axis1"])
    axis2 = _axis_from_dict(document["axis2"]) if document.get("axis2") is not None else None
    return SweepSpec(base=base, axis1=axis1, axis2=axis2, outputs=tuple(outputs))


def _axis_from_dict(document: dict) -> Axis:
    if not isinstance(document, dict) or "param" not in document:
        raise SpecError("axis must be an object with a 'param' key")
    allowed = {f.name for f in fields(Axis)}
    unknown = set(document) - allowed
    if unknown:
        raise SpecError(f"unknown axis keys: {sorted(unknown)}")
    return Axis(**document)
