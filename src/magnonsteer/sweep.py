"""Single-point evaluation, parameter sweeps, presets and CSV emission.

A sweep evaluates its grid in blocks of at most _BLOCK_SIZE points. Each
point is derived and built on its own; the block then goes through one
stacked Hurwitz gate, one stacked steady-state solve, one stacked symplectic
spectrum and the batched measures kernel, which computes only the requested
outputs. ``run_point`` is the same pipeline with a block of one, and
``find_threshold`` runs its grid through it in blocks and each bisection
step as a block of one, computing only the scanned measure. Rows are
assembled in deterministic axis order, so identical sweep specifications
produce byte-identical CSV files.
"""

from __future__ import annotations

import io
import numbers
from dataclasses import dataclass, fields

import numpy as np

# assert_stable, check_physicality and lyapunov_residual are not called here
# any more; they stay importable from this module because the benchmark's
# tracer (perfbench/spans.py) wraps the per-point stages by name here.
from .errors import NoCrossing, NonMonotone, SpecError, UnknownPreset, UnstableDrift
from .gaussian import (  # noqa: F401
    check_physicality,
    hurwitz_gate,
    lyapunov_residual,
    solve_lyapunov,
    solve_lyapunov_stack,
    symplectic_eigenvalues,
)
from .measures import MEASURE_KEYS, CorrelationReport, correlation_report, measure_columns
from .model import (  # noqa: F401
    NUMERIC_FIELDS,
    SystemParams,
    assert_stable,
    build_diffusion,
    build_drift,
    default_params,
    derive,
    effective_coupling,
    params_from_dict,
)

# Points per stacked block. Larger blocks amortise more call overhead but
# raise the peak memory of the stacked 36x36 solves.
_BLOCK_SIZE = 64

DIAGNOSTIC_KEYS = ("lyap_residual", "min_symplectic_eig")

PRESET_IDS = ("fig3a", "fig3b", "fig2", "fig5", "fig6", "fig10", "fig11")


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


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep: base parameters, one or two axes, and the measures to emit."""

    base: SystemParams
    axis1: Axis
    axis2: Axis | None = None
    outputs: tuple[str, ...] = ()
    preset_id: str | None = None

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
    """Derive and build each point, then gate, solve and check them stacked.

    Returns the largest drift eigenvalue real part and the solved flag of
    every point, and for the solved points, in order, their covariances,
    Lyapunov residuals and smallest symplectic eigenvalues. A point is
    solved if it passes the Hurwitz gate and its steady state meets the
    residual bound; any other point is reported unstable.
    """
    drift = np.empty((len(points), 6, 6))
    diffusion = np.empty_like(drift)
    for k, params in enumerate(points):
        derived = derive(params)
        drift[k] = build_drift(params, derived)
        diffusion[k] = build_diffusion(params, derived)
    max_real, stable = hurwitz_gate(drift)
    cov, residual, passed = solve_lyapunov_stack(drift[stable], diffusion[stable])
    stable[stable] = passed
    cov, residual = cov[passed], residual[passed]
    nu_min = symplectic_eigenvalues(cov, check_positive=False)[:, 0]
    return max_real, stable, cov, residual, nu_min


def _evaluate_blocks(points: list[SystemParams], outputs: tuple[str, ...]):
    """Run the points through the pipeline in blocks of at most _BLOCK_SIZE.

    Yields, per point in order, its largest drift eigenvalue real part and
    its values of ``outputs + DIAGNOSTIC_KEYS``, or None in place of the
    values if the point is unstable.
    """
    keys = outputs + DIAGNOSTIC_KEYS
    for start in range(0, len(points), _BLOCK_SIZE):
        max_real, stable, cov, residual, nu_min = _steady_states(
            points[start:start + _BLOCK_SIZE])
        columns = measure_columns(cov, outputs)
        columns["lyap_residual"] = residual.tolist()
        columns["min_symplectic_eig"] = nu_min.tolist()
        solved = zip(*(columns[key] for key in keys))  # one tuple per stable point
        for real, ok in zip(max_real.tolist(), stable.tolist()):
            yield real, (next(solved) if ok else None)


def run_point(params: SystemParams) -> PointResult:
    """Derive, build, solve and measure one parameter point.

    An unstable drift matrix, or a steady state that fails the residual
    bound, is reported as a structured result with status "unstable" rather
    than raised.
    """
    max_real, stable, cov, residual, nu_min = _steady_states([params])
    if not stable[0]:
        return PointResult(status="unstable", max_real_part=float(max_real[0]))
    return PointResult(
        status="ok",
        report=correlation_report(cov[0]),
        lyap_residual=float(residual[0]),
        min_symplectic_eig=float(nu_min[0]),
    )


def steady_state_covariance(params: SystemParams) -> np.ndarray:
    """Steady-state covariance matrix for one parameter point."""
    derived = derive(params)
    return solve_lyapunov(build_drift(params, derived), build_diffusion(params, derived))


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
    for params, (_, values) in zip(points, _evaluate_blocks(points, spec.outputs)):
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
    UnstableDrift
        If a point on the grid or a bisection step is unstable.
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

    grid = spec.axis1.grid()
    if direction == "rising":
        grid = grid[::-1]

    def evaluate(axis_values) -> list[float]:
        points = [spec.base.replace(**{spec.axis1.param: float(v)}) for v in axis_values]
        measured = []
        for max_real, values in _evaluate_blocks(points, (measure,)):
            if values is None:
                raise UnstableDrift(max_real)
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

_LN_KEYS = ("LN_cm", "LN_cq", "LN_qm")


def preset(preset_id: str) -> SweepSpec:
    """Fully populated sweep specification for one of the reference scans."""
    if preset_id not in PRESET_IDS:
        raise UnknownPreset(f"unknown preset {preset_id!r}; choose from {PRESET_IDS}")

    base = default_params()
    g_eff = effective_coupling(base)

    if preset_id == "fig3a":
        return SweepSpec(
            base=base.replace(epsilon=0.0, g_q=2.0 * g_eff),
            axis1=Axis("temperature", 0.0, 0.8, 200),
            outputs=_LN_KEYS,
            preset_id=preset_id,
        )
    if preset_id == "fig3b":
        return SweepSpec(
            base=base.replace(epsilon=0.86, g_q=2.0 * g_eff),
            axis1=Axis("temperature", 0.0, 0.8, 200),
            outputs=_LN_KEYS,
            preset_id=preset_id,
        )
    if preset_id == "fig2":
        return SweepSpec(
            base=base.replace(epsilon=0.86, g_q=2.0 * g_eff),
            axis1=Axis("temperature", 0.0, 0.65, 200),
            outputs=(
                "LN_cq", "LN_cm", "LN_qm",
                "G_c_to_q", "G_q_to_c", "G_c_to_m", "G_m_to_c",
                "G_q_to_m", "G_m_to_q",
                "asym_cq", "asym_cm", "asym_qm",
                "class_cq", "class_cm", "class_qm",
            ),
            preset_id=preset_id,
        )
    if preset_id == "fig5":
        return SweepSpec(
            base=base.replace(g_q=2.0 * g_eff),
            axis1=Axis("epsilon", 0.0, 0.95, 200),
            axis2=Axis("temperature", values=(0.1e-3, 10e-3, 30e-3)),
            outputs=("R_c", "R_q", "R_m", "R_min"),
            preset_id=preset_id,
        )
    if preset_id == "fig6":
        return SweepSpec(
            base=base.replace(g_q=2.0 * g_eff, temperature=10e-3),
            axis1=Axis("epsilon", 0.0, 0.95, 200),
            outputs=_LN_KEYS,
            preset_id=preset_id,
        )

    # fig10 / fig11: steering monogamy scans
    base = base.replace(epsilon=0.90, g_q=1.5 * g_eff)
    axis = Axis("temperature", 0.0, 0.6, 200)
    if preset_id == "fig10":
        outputs = (
            "G_c_to_q", "G_c_to_m", "G_c_to_qm",
            "G_m_to_c", "G_m_to_q", "G_m_to_cq",
            "G_q_to_c", "G_q_to_m", "G_q_to_cm",
            "mono_out_c", "mono_out_q", "mono_out_m",
        )
    else:
        outputs = (
            "G_q_to_c", "G_m_to_c", "G_qm_to_c",
            "G_c_to_m", "G_q_to_m", "G_cq_to_m",
            "G_c_to_q", "G_m_to_q", "G_cm_to_q",
            "mono_in_c", "mono_in_q", "mono_in_m",
        )
    return SweepSpec(base=base, axis1=axis, outputs=outputs, preset_id=preset_id)


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
    unknown = set(document) - {"base", "axis1", "axis2", "outputs", "preset_id"}
    if unknown:
        raise SpecError(f"unknown sweep keys: {sorted(unknown)}")
    if "axis1" not in document:
        raise SpecError("sweep specification requires axis1")
    outputs = document.get("outputs", [])
    if not isinstance(outputs, list) or not all(isinstance(k, str) for k in outputs):
        raise SpecError("sweep outputs must be a list of measure keys")
    base = params_from_dict(document.get("base", {}))
    axis1 = _axis_from_dict(document["axis1"])
    axis2 = _axis_from_dict(document["axis2"]) if document.get("axis2") else None
    return SweepSpec(base=base, axis1=axis1, axis2=axis2, outputs=tuple(outputs),
                     preset_id=document.get("preset_id"))


def _axis_from_dict(document: dict) -> Axis:
    if not isinstance(document, dict) or "param" not in document:
        raise SpecError("axis must be an object with a 'param' key")
    allowed = {f.name for f in fields(Axis)}
    unknown = set(document) - allowed
    if unknown:
        raise SpecError(f"unknown axis keys: {sorted(unknown)}")
    return Axis(**document)
