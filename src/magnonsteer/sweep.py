"""Single-point evaluation, parameter sweeps, presets and CSV emission.

Every call evaluates its points as one stack. A sweep is its base parameters
plus at most two axis arrays, of at most ``MAX_GRID_POINTS`` points together,
read as one grid by ``model.param_columns``: each axis is checked once, and
the model builds the x' blocks of every point in one pass, with no per-point
object. ``gaussian.steady_state_blocks``
then gates, solves and judges the stack, and gives each accepted point's
x' block V_x and residual, the ``lyap_residual`` column. The batched
measures kernel measures the accepted points' block pairs, each V_x beside
its mirror from ``gaussian.mirror_pairs``, computing only the outputs it is
asked for, the requested measures and ``min_symplectic_eig``; it does not
run when no point was accepted.
``run_point`` is the same pipeline on one SystemParams, a stack of one; a
grid whose every axis holds one value is that point, as ``param_columns``
returns it, and takes the same path.
``find_threshold`` is a one-axis sweep plus refinement: its grid, and then
each bisection step as a stack of one, go through ``param_columns`` and the
same pipeline, with the scanned measure as the kernel's one output and no
cut pass; the bisection stops when its bracket is at most 1/256 of the grid
step or its midpoint rounds onto an end.

``sweep_columns`` returns a sweep as the evaluated columns, in the CSV's
header order, and ``format_csv`` writes those columns as text, so a sweep
reaches its CSV file without a per-point object; ``run_sweep`` is the row
view of the same columns. Points are in deterministic axis order, so
identical sweep specifications produce byte-identical CSV files.

A ``PointResult`` holds one point's measures as the kernel's flat mapping.
Its ``report`` is the nested ``CorrelationReport`` view, defined here with
the table ``_REPORT_SLOTS`` that places each measure key in it, and built
on each access.
"""

from __future__ import annotations

import math
import re
from dataclasses import InitVar, dataclass, fields

import numpy as np

# assert_stable, build_diffusion, build_drift, check_physicality,
# correlation_report, lyapunov_residual and solve_lyapunov are not called here
# any more; they stay importable from this module because the benchmark's
# tracer (perfbench/spans.py) wraps the per-point stages by name here.
from .errors import NoCrossing, NonMonotone, SpecError, UnknownPreset, UnstableDrift
from .gaussian import (  # noqa: F401
    assert_stable,
    check_physicality,
    lyapunov_residual,
    mirror_pairs,
    solve_lyapunov,
    steady_state_blocks,
    x_block_matrix,
)
from .measures import (  # noqa: F401
    MEASURE_KEYS,
    correlation_report,
    measure_blocks,
)
from .model import (  # noqa: F401
    NUMERIC_FIELDS,
    SystemParams,
    _number,
    _unknown_keys,
    build_blocks,
    build_diffusion,
    build_drift,
    derive,
    param_columns,
    params_from_dict,
)

DIAGNOSTIC_KEYS = ("lyap_residual", "min_symplectic_eig")

# The most points one sweep may hold. SweepSpec checks it from the axis
# lengths, so no count that numpy would refuse (2**62 and up) or try to
# allocate in vain reaches numpy: it ends in a SpecError. A point evaluated
# with every output takes about 4.6 KB at peak, so a sweep at the bound
# needs about 4.6 GB.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class Axis:
    """One sweep axis: a linspace (start, stop, count) or a non-empty list of values, not both."""

    param: str
    start: float | None = None
    stop: float | None = None
    count: int | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        # every numeric SystemParams field can be swept; axis values are in the
        # internal units of the named field (the JSON Hz convention does not apply)
        if self.param not in NUMERIC_FIELDS:
            raise SpecError(f"cannot sweep over {self.param!r}; "
                            f"choose one of {NUMERIC_FIELDS}")
        missing = [name for name in ("start", "stop", "count") if getattr(self, name) is None]
        if self.values is not None:
            if len(missing) < 3:
                raise SpecError("axis takes either values or start/stop/count, not both")
            if not isinstance(self.values, (list, tuple)) or not self.values:
                raise SpecError("axis values must be a non-empty list of numbers")
            object.__setattr__(self, "values", tuple(_number(v, "axis value") for v in self.values))
            return
        if missing:
            raise SpecError(f"axis needs values, or start, stop and count; missing {missing}")
        if isinstance(self.count, bool) or not isinstance(self.count, (int, np.integer)):
            raise SpecError(f"axis count must be an integer, got {self.count!r}")
        object.__setattr__(self, "start", _number(self.start, "axis start"))
        object.__setattr__(self, "stop", _number(self.stop, "axis stop"))
        if self.count < 2:
            raise SpecError("axis count must be at least 2")
        if not self.start < self.stop:
            raise SpecError("axis start must be below stop")
        if not math.isfinite(self.stop - self.start):
            raise SpecError("axis stop - start must be finite")

    def grid(self) -> np.ndarray:
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep: base parameters, one or two axes, and the measures to emit.

    Its grid holds at most MAX_GRID_POINTS points, checked from the axis
    lengths; a larger one raises SpecError before any array is made.
    """

    base: SystemParams
    axis1: Axis
    axis2: Axis | None = None
    outputs: tuple[str, ...] = ()

    def __post_init__(self):
        if (not isinstance(self.outputs, (list, tuple))
                or not all(isinstance(k, str) for k in self.outputs)):
            raise SpecError("sweep outputs must be a list of measure keys")
        outputs = tuple(self.outputs) or MEASURE_KEYS
        unknown = [k for k in outputs if k not in MEASURE_KEYS]
        if unknown:
            raise SpecError(f"unknown measure keys: {unknown}")
        repeated = list(dict.fromkeys(k for k in outputs if outputs.count(k) > 1))
        if repeated:
            raise SpecError(f"duplicate measure keys: {repeated}")
        object.__setattr__(self, "outputs", outputs)
        if self.axis2 is not None and self.axis2.param == self.axis1.param:
            raise SpecError("axis1 and axis2 must sweep different parameters")
        if self.points > MAX_GRID_POINTS:
            raise SpecError(f"cannot make {'a grid' if self.axis2 else 'an axis'} of {self.points} "
                            f"points: a sweep holds at most {MAX_GRID_POINTS}")

    @property
    def points(self) -> int:
        """The number of grid points, from the axis lengths."""
        return math.prod(a.count or len(a.values) for a in (self.axis1, self.axis2) if a)


@dataclass(frozen=True)
class CorrelationReport:
    """The measures of one point grouped by kind: the nested view of a flat mapping.

    Maps are keyed by mode labels ("c", "q", "m") and pair strings ("cq",
    "cm", "qm"); bipartition keys are ordered "a_to_b" strings. The pipeline
    builds none: ``PointResult.report`` builds it on access from its flat
    ``measures``.
    """

    ln_pairs: dict[str, float]
    ln_one_two: dict[str, float]
    steering: dict[str, float]
    asymmetry: dict[str, float]
    steering_class: dict[str, str]
    contangle_residuals: dict[str, float]
    r_min: float
    steering_monogamy: dict[str, float]

    def to_flat_dict(self) -> dict[str, float | str]:
        """Flat JSON-ready mapping with stable, documented key names."""
        return {key: getattr(self, field) if nested is None else getattr(self, field)[nested]
                for key, (field, nested) in _REPORT_SLOTS.items()}


_FIELDS = {"LN": "ln_pairs", "G": "steering", "asym": "asymmetry",
           "R": "contangle_residuals", "mono": "steering_monogamy", "class": "steering_class"}


def _report_slot(key: str) -> tuple[str, str | None]:
    """The CorrelationReport field holding a measure key, and its key in that field's map."""
    kind, _, rest = key.partition("_")
    if kind == "LN" and "_" in rest:
        return "ln_one_two", rest[0]
    return ("r_min", None) if key == "R_min" else (_FIELDS[kind], rest)


# Each measure key's place in the report, in MEASURE_KEYS order
_REPORT_SLOTS = {key: _report_slot(key) for key in MEASURE_KEYS}


@dataclass(frozen=True)
class PointResult:
    """Evaluation of one parameter point: its measures plus solver diagnostics.

    ``measures`` maps every key of MEASURE_KEYS to its value, in that order,
    and is None for an unstable point. ``report`` is the nested
    ``CorrelationReport`` view of the same values, built on each access. To
    the constructor it is an ``InitVar``: a newly built report given there,
    as ``dataclasses.replace(result, report=...)`` gives it, stands in for
    ``measures``. A report read from the view never does, so ``replace``,
    which passes the current view unless told otherwise, keeps or replaces
    ``measures`` as it is told. The benchmark's own tests perturb results
    through that view.
    """

    status: str  # "ok" or "unstable"
    measures: dict | None = None
    lyap_residual: float | None = None
    min_symplectic_eig: float | None = None
    max_real_part: float | None = None
    reason: str | None = None  # for "unstable": "gate" or "residual"
    report: InitVar[CorrelationReport | None] = None

    def __post_init__(self, report):
        if report is not None and not hasattr(report, "_view"):
            object.__setattr__(self, "measures", report.to_flat_dict())

    def to_flat_dict(self) -> dict:
        flat = {} if self.measures is None else dict(self.measures)
        if self.lyap_residual is not None:
            flat["lyap_residual"] = self.lyap_residual
        if self.min_symplectic_eig is not None:
            flat["min_symplectic_eig"] = self.min_symplectic_eig
        flat["status"] = self.status
        return flat


def _report_view(result: PointResult) -> CorrelationReport | None:
    """The nested CorrelationReport view of ``measures``, built on each access.

    The view is marked as one; a report that ``dataclasses.replace`` builds
    from it is a new report, and is not.
    """
    if result.measures is None:
        return None
    values = {}
    for key, (field, nested) in _REPORT_SLOTS.items():
        if nested is None:
            values[field] = result.measures[key]
        else:
            values.setdefault(field, {})[nested] = result.measures[key]
    view = CorrelationReport(**values)
    object.__setattr__(view, "_view", True)
    return view


# assigned after the class body, where it would otherwise be the InitVar's default
PointResult.report = property(_report_view)


def _evaluate(params, outputs: tuple[str, ...]):
    """Run one SystemParams, or a grid from ``param_columns``, through the pipeline.

    Returns, per point in row order, the check that rejected it ("gate" or
    "residual", None if it was solved) and its largest drift eigenvalue real
    part (NaN if it was solved), and a list of each point's value, None at
    the rejected points, per key of ``outputs`` (the kernel's outputs:
    measure keys and ``min_symplectic_eig``), then ``lyap_residual``, the
    stage's. The stage gives the accepted V_x, and ``mirror_pairs`` makes
    them the block pairs the kernel reads. The kernel computes only
    ``outputs``, and does not run when no point was accepted.
    """
    # a grid's arithmetic overflows to inf without a warning, as floats do;
    # the stage then fails such points closed
    with np.errstate(over="ignore", invalid="ignore"):
        system = build_blocks(params, derive(params)).reshape(-1, 2, 3, 3)
    max_real, reasons, cov, residual = steady_state_blocks(system)
    if not len(cov):  # an all-unstable stack leaves the kernel out
        return reasons, max_real.tolist(), {key: [None] * len(reasons)
                                            for key in outputs + ("lyap_residual",)}
    columns = measure_blocks(mirror_pairs(cov), outputs)
    columns["lyap_residual"] = residual.tolist()
    if len(cov) < len(reasons):
        for key, column in columns.items():
            values = iter(column)
            columns[key] = [None if reason else next(values) for reason in reasons]
    return reasons, max_real.tolist(), columns


def run_point(params: SystemParams) -> PointResult:
    """Derive, build, solve and measure one parameter point.

    An unstable drift matrix, or a steady state that fails the residual
    bound, is reported as a structured result with status "unstable" and
    the rejecting check in ``reason``, rather than raised.
    """
    [reason], [max_real], columns = _evaluate(params, MEASURE_KEYS + ("min_symplectic_eig",))
    if reason:
        return PointResult(status="unstable", max_real_part=max_real, reason=reason)
    return PointResult(
        status="ok",
        measures={key: columns[key][0] for key in MEASURE_KEYS},
        lyap_residual=columns["lyap_residual"][0],
        min_symplectic_eig=columns["min_symplectic_eig"][0],
    )


def steady_state_covariance(params: SystemParams) -> np.ndarray:
    """Steady-state covariance matrix for one parameter point.

    ``gaussian.x_block_matrix`` of the V_x the stage accepts, which writes
    the mirror V_p itself: an array of its own, with the bits of the
    point's 6x6 inside any stack.

    Raises
    ------
    UnstableDrift
        If the point fails the Hurwitz gate or its steady state fails the
        residual bound; ``reason`` says which.
    """
    max_real, [reason], cov, _ = steady_state_blocks(build_blocks(params, derive(params))[None])
    if reason:
        raise UnstableDrift(float(max_real[0]), reason)
    return x_block_matrix(cov[0])


def _axes(spec: SweepSpec) -> dict[str, np.ndarray]:
    """The sweep's axis arrays, axis1 along rows and axis2 down columns.

    Their broadcast, read in row-major order, is the grid's row order
    (axis2 outer, axis1 inner).
    """
    axes = {spec.axis1.param: spec.axis1.grid()}
    if spec.axis2 is not None:
        axes[spec.axis2.param] = spec.axis2.grid()[:, None]
    return axes


def _axis_columns(axes: dict[str, np.ndarray]) -> dict[str, list[float]]:
    """Each axis's value at every point of the grid, in row order."""
    return {param: grid.ravel().tolist()
            for param, grid in zip(axes, np.broadcast_arrays(*axes.values()))}


def grid_points(spec: SweepSpec) -> list[SystemParams]:
    """The grid's points as SystemParams, in the row order of ``sweep_columns``.

    ``sweep_columns`` does not build them; this is the scalar view of its rows.
    """
    columns = _axis_columns(_axes(spec))
    return [spec.base.replace(**dict(zip(columns, row))) for row in zip(*columns.values())]


def sweep_columns(spec: SweepSpec) -> dict[str, list]:
    """Evaluate the grid. One column per CSV field, in the CSV's header order.

    The axis columns come first, then the requested measures,
    ``lyap_residual``, ``min_symplectic_eig`` and ``status``; each holds one
    cell per point, in row order (axis2 outer, axis1 inner). Unstable points
    have status "unstable" and None in every measure and diagnostic column
    instead of raising.
    """
    axes = _axes(spec)
    reasons, _, measured = _evaluate(param_columns(spec.base, axes),
                                     spec.outputs + ("min_symplectic_eig",))
    status = ["unstable" if reason else "ok" for reason in reasons]
    ordered = {key: measured[key] for key in spec.outputs + DIAGNOSTIC_KEYS}
    return {**_axis_columns(axes), **ordered, "status": status}


def run_sweep(spec: SweepSpec) -> list[dict]:
    """The rows of ``sweep_columns(spec)``: one dict per point, keyed by column."""
    columns = sweep_columns(spec)
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


# The characters a CSV field would have to be quoted for
_NEEDS_QUOTING = re.compile(r'[,"\r\n]').search


def format_csv(columns: dict[str, list]) -> str:
    """Render sweep columns, as ``sweep_columns`` returns them, as CSV text.

    The header is the mapping's keys in order, and each row takes one cell
    from every column. A cell is blank for None, a string as it is and a
    number with ``.12g``, so floats carry 12 significant digits. Each column
    is typed once: a column of floats or of strings goes into one row
    template as ``%.12g`` (the text of ``format(value, ".12g")``) or ``%s``,
    and any other column is formatted cell by cell first. A table without
    rows renders as the empty string. No field is quoted, so no header or
    text cell may need it.

    Raises
    ------
    ValueError
        If the columns differ in length, or a header or a text cell holds a
        comma, a double quote, CR or LF.
    """
    header = list(columns)
    cells = list(columns.values())
    if len(set(map(len, cells))) > 1:
        raise ValueError("CSV columns must all have the same length")
    if not cells or not cells[0]:
        return ""
    if _NEEDS_QUOTING("".join(header)):
        raise ValueError("a CSV header holds a comma, a double quote or a line break")
    specs = []
    for index, values in enumerate(cells):
        types = set(map(type, values))
        if types == {float}:
            specs.append("%.12g")
            continue
        if types != {str}:
            cells[index] = values = [_cell(value) for value in values]
        if _NEEDS_QUOTING("".join(values)):
            raise ValueError(f"CSV column {header[index]} has a cell holding a comma, "
                             "a double quote or a line break")
        specs.append("%s")
    template = ",".join(specs) + "\n"
    return ",".join(header) + "\n" + "".join([template % row for row in zip(*cells)])


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else f"{value:.12g}"


def find_threshold(spec: SweepSpec, measure: str, direction: str = "falling") -> float:
    """Axis value at which the measure first reaches zero.

    The measure must be monotone-to-zero along axis1 inside the scanned
    window: scanning in the given direction it is positive, reaches zero
    once, and stays zero. The grid, and then each bisection step as a stack
    of one, go through ``param_columns`` and the sweep pipeline, which
    computes only the scanned measure. The bisection refines the grid
    crossing until the bracket is at most 1/256 of the grid step, or until
    its midpoint rounds onto one of its ends, and returns that midpoint.

    Raises
    ------
    SpecError
        If the sweep is two-dimensional, the direction is unknown, the
        measure is unknown or a steering class, or the axis1 values are not
        strictly increasing.
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

    param, grid = spec.axis1.param, spec.axis1.grid()
    increasing = bool((np.diff(grid) > 0.0).all())
    if direction == "rising":
        grid = grid[::-1]

    def evaluate(points) -> list[float]:
        reasons, max_real, columns = _evaluate(points, (measure,))
        for reason, real in zip(reasons, max_real):
            if reason:
                raise UnstableDrift(real, reason)
        return columns[measure]

    on_grid = param_columns(spec.base, {param: grid})  # checks the axis values first
    if not increasing:
        # bisection refines between neighbouring grid values
        raise SpecError("threshold search needs axis1 values in strictly increasing order")
    values = np.array(evaluate(on_grid))
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
    while True:
        mid = 0.5 * (lo + hi)
        # a midpoint that rounds onto an end would bisect the same bracket forever
        if abs(hi - lo) <= resolution or mid in (lo, hi):
            return float(mid)
        positive = evaluate(param_columns(spec.base, {param: [mid]}))[0] > 0.0
        lo, hi = (mid, hi) if positive else (lo, mid)


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
    _unknown_keys(document, ("base", "axis1", "axis2", "outputs"), "sweep")
    if "axis1" not in document:
        raise SpecError("sweep specification requires axis1")
    base = params_from_dict(document.get("base", {}))
    axis1 = _axis_from_dict(document["axis1"])
    axis2 = _axis_from_dict(document["axis2"]) if document.get("axis2") is not None else None
    return SweepSpec(base=base, axis1=axis1, axis2=axis2, outputs=document.get("outputs", []))


def _axis_from_dict(document: dict) -> Axis:
    if not isinstance(document, dict) or "param" not in document:
        raise SpecError("axis must be an object with a 'param' key")
    _unknown_keys(document, [f.name for f in fields(Axis)], "axis")
    return Axis(**document)
