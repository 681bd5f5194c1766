"""Physical model of the qubit-cavity-magnon system with a coherent feedback loop.

Builds the linearised quadrature dynamics as 3x3 drift and diffusion blocks
on x' = (X_c, Y_q, Y_m) (``build_blocks``), and their 6x6 form. All angular
frequencies and rates are stored internally in rad/s; the JSON configuration
interface accepts the conventional "frequency/2pi in Hz" values and converts
on ingestion.

The formulas take one point, a ``SystemParams``, or a grid of points from
``param_columns``, whose swept fields are float64 arrays and whose other
fields stay floats; every derived quantity and block entry then broadcasts
over the grid. A grid gives bit for bit the values of its points taken one
at a time, by one rule: on arrays numpy does +, -, * and /, which round
alike in numpy and in Python (so a square is a product, x * x), and
everything whose float form rounds differently or can raise (the cube, cos
and sin, roots, the quotients that can underflow to a zero denominator,
and the ``math.expm1`` of ``thermal_occupation``) runs element by element
on Python floats through ``_pointwise``. That is the formulas' switch
between a point and a grid;
``thermal_occupation`` has its own, which does its arithmetic and its
cases (T = 0, an exponent past 700, a zero exponent) on the arrays and
maps only ``math.expm1``, and ``build_blocks`` has the last, and writes a
grid's entries into one preallocated array. The rule holds by
construction: ``SystemParams`` reads every numeric field through
``_number`` and stores a Python float, however the point is built, so a
point's formulas never see a numpy scalar, a bool or an int.
"""

from __future__ import annotations

import io
import json
import math
# Unused here, but the benchmark's Tracer.install (perfbench/spans.py) patches
# model.warnings and reads it first through getattr with no default.
import warnings  # noqa: F401
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import SpecError
from .gaussian import x_block_matrix

# CODATA 2018
HBAR = 1.054571817e-34      # J s
KB = 1.380649e-23           # J / K
SPEED_OF_LIGHT = 299792458.0  # m / s

TWO_PI = 2.0 * math.pi

DIFFUSION_MODES = ("paper", "consistent", "input_output")


@dataclass(frozen=True)
class SystemParams:
    """All physical inputs. Frequencies, rates and couplings in rad/s."""

    omega_c: float            # cavity angular frequency
    omega_q: float            # qubit angular frequency
    B0: float                 # bias magnetic field, T
    gyromagnetic_ratio: float  # rad/(s T)
    kappa_c: float            # cavity damping
    kappa_m: float            # magnon damping
    gamma_q: float            # qubit damping
    g_q: float                # qubit-cavity coupling
    epsilon: float            # beam-splitter reflectivity, in [0, 1)
    theta: float              # feedback phase, rad
    temperature: float        # K
    drive_power: float        # W
    drive_wavelength: float   # m
    verdet: float             # rad/m
    refractive_index: float
    spin_density: float       # 1/m^3
    sphere_radius: float      # m
    diffusion_mode: str = "paper"

    def __post_init__(self):
        for name in NUMERIC_FIELDS:
            value = getattr(self, name)
            if type(value) is not float:  # floats, nearly every value, skip _number's cost
                value = _number(value, f"parameter {name}")
                object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise SpecError(f"parameter {name} must be finite")
        for name in ("omega_c", "omega_q", "B0", "gyromagnetic_ratio",
                     "kappa_c", "kappa_m", "gamma_q", "verdet",
                     "refractive_index", "spin_density", "sphere_radius",
                     "drive_wavelength"):
            if getattr(self, name) <= 0:
                raise SpecError(f"parameter {name} must be positive")
        if not 0.0 <= self.epsilon < 1.0:
            raise SpecError("epsilon must lie in [0, 1)")
        if self.temperature < 0:
            raise SpecError("temperature must be non-negative")
        if self.g_q < 0 or self.drive_power < 0:
            raise SpecError("couplings and drive power must be non-negative")
        if self.diffusion_mode not in DIFFUSION_MODES:
            raise SpecError(f"diffusion_mode must be one of {DIFFUSION_MODES}")

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)


NUMERIC_FIELDS = tuple(f.name for f in fields(SystemParams) if f.name != "diffusion_mode")


def param_columns(base: SystemParams, axes: dict[str, np.ndarray]) -> SystemParams | SimpleNamespace:
    """A grid of points: the fields of ``base``, with the swept ones the arrays of ``axes``.

    The names of ``axes`` are numeric fields of SystemParams, as ``Axis``
    has checked them for every caller. The arrays broadcast against each
    other; the grid's points are the elements of their broadcast shape, in
    row-major order. A grid whose every array holds one value is its one
    point, returned as the SystemParams ``base.replace`` builds, so it
    takes the point path and raises that point's SpecError. Otherwise each
    array is checked once: every check SystemParams makes on a numeric
    field admits an interval, so an array passes when its smallest and
    largest values do (a NaN is both); an empty array has none to check,
    and makes an empty grid. An invalid grid raises the SpecError of its
    first invalid point.
    """
    columns = {name: np.asarray(values, dtype=float) for name, values in axes.items()}
    if all(column.size == 1 for column in columns.values()):
        return base.replace(**{name: column.item() for name, column in columns.items()})
    try:
        for name, column in columns.items():
            for value in (column.min(), column.max()) if column.size else ():
                base.replace(**{name: value})
    except SpecError:
        for row in zip(*(c.ravel().tolist() for c in np.broadcast_arrays(*columns.values()))):
            base.replace(**dict(zip(columns, row)))
        raise
    return SimpleNamespace(**{**vars(base), **columns})


class DerivedQuantities(NamedTuple):
    """Quantities computed from SystemParams before matrix assembly.

    An immutable record read by attribute. It is a named tuple because
    every point derives one, and the closed-form check a second, and a
    tuple builds in under half a frozen dataclass's time. On a grid from
    ``param_columns``, a quantity that varies over the grid is an array of
    the grid's broadcast shape.
    """

    omega_m: float      # magnon frequency, gyromagnetic_ratio * B0
    g_m_eff: float      # effective coupling, see effective_coupling
    k_fb: float         # feedback-modified cavity damping, see feedback
    w_c: float          # weight of the cavity input noise, see feedback
    N_c: float          # thermal occupations
    N_q: float
    N_m: float


def _pointwise(fn, *args):
    """``fn(*args)`` on floats; on arrays, ``fn`` of each element of their broadcast."""
    for arg in args:
        if isinstance(arg, np.ndarray):
            break
    else:
        return fn(*args)
    arrays = np.broadcast_arrays(*args)
    values = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(values, float, arrays[0].size).reshape(arrays[0].shape)


def _quotient(numerator: float, denominator: float) -> float:
    """numerator / denominator of floats, the numerator non-negative.

    A denominator that underflowed to zero gives inf (NaN over a zero
    numerator), as numpy divides, instead of raising ZeroDivisionError.
    """
    return numerator / denominator if denominator else numerator * math.inf


def _cube(x: float) -> float:
    """``pow(x, 3)`` of a positive x, and inf where that overflows instead of OverflowError."""
    try:
        return pow(x, 3)
    except OverflowError:
        return math.inf


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1 / (exp(hbar omega / kB T) - 1).

    Exactly zero at T = 0 and monotone increasing in T. A zero omega (a
    magnon frequency gyromagnetic_ratio * B0 that underflows) gives the limit
    omega -> 0+: zero at T = 0 and inf above, as a subnormal omega does.
    Either argument may be an array: the arithmetic is then numpy's, with
    each case below an array select, and only ``math.expm1`` runs per
    element, so every element has the bits of its floats.
    """
    if isinstance(omega, np.ndarray) or isinstance(temperature, np.ndarray):
        if np.any(omega < 0) or np.any(temperature < 0):
            raise ValueError("omega and temperature must be non-negative")
        with np.errstate(over="ignore"):  # x = inf and 1 / expm1(x) = inf, as on floats
            x = HBAR * omega / KB / np.where(temperature == 0.0, 1.0, temperature)
            zero = (temperature == 0.0) | (x > 700.0)
            # math.expm1 takes only the x that reach it on floats: it overflows past 709
            occupation = 1.0 / _pointwise(math.expm1, np.where(zero | (x == 0.0), 1.0, x))
        return np.where(zero, 0.0, np.where(x == 0.0, math.inf, occupation))
    if omega < 0 or temperature < 0:
        raise ValueError("omega and temperature must be non-negative")
    if temperature == 0.0:
        return 0.0
    # divided in this order so that a subnormal temperature gives x = inf,
    # not a product KB T that underflows to zero
    x = HBAR * float(omega) / KB / float(temperature)
    if x > 700.0:  # exp would overflow; occupation is below double tiny
        return 0.0
    # x is zero when hbar omega underflows; 1 / expm1(0) is then inf
    return 1.0 / math.expm1(x) if x else math.inf


def optomagnonic_coupling(params: SystemParams) -> float:
    """Bare magneto-optical coupling of a magnetised sphere, rad/s.

    Verdet constant times c/n_r times sqrt(2 / (spin density * sphere volume)).
    """
    volume = (4.0 * math.pi / 3.0) * _pointwise(_cube, params.sphere_radius)
    per_spin = _pointwise(_quotient, 2.0, params.spin_density * volume)
    return (params.verdet * SPEED_OF_LIGHT / params.refractive_index
            * _pointwise(math.sqrt, per_spin))


def intracavity_photon_number(params: SystemParams) -> float:
    """Photon number 2 P / (kappa_c hbar Omega_drive) sustained by the drive."""
    omega_drive = TWO_PI * SPEED_OF_LIGHT / params.drive_wavelength
    return _pointwise(_quotient, 2.0 * params.drive_power, params.kappa_c * HBAR * omega_drive)


def effective_coupling(params: SystemParams) -> float:
    """Drive-enhanced optomagnonic coupling g_m * sqrt(n_photon), rad/s."""
    photons = intracavity_photon_number(params)
    return optomagnonic_coupling(params) * _pointwise(math.sqrt, photons)


def _transmittance(params: SystemParams) -> float:
    """u^2 = 1 - epsilon^2, as (1 - epsilon)(1 + epsilon) to keep its digits near epsilon = 1."""
    return (1.0 - params.epsilon) * (1.0 + params.epsilon)


def feedback(params: SystemParams) -> tuple[float, float]:
    """The cavity damping k_fb under feedback, and the weight w_c of its input noise.

    w_c is the dimensionless factor multiplying kappa_c (2 N_c + 1) in the
    diffusion, and u^2 = 1 - epsilon^2 (``_transmittance``). This is the one
    place the diffusion mode enters.

    ``paper`` and ``consistent`` modes damp with the first-order form
    kappa_c (1 - 2 epsilon cos theta). ``paper`` weighs the noise by
    u^2 (1 - epsilon)^2; ``consistent`` evaluates the feedback input-noise
    correlation u^2 (1 - 2 epsilon cos theta + epsilon^2) at the configured
    phase. The two weights coincide at epsilon = 0 and at theta = 0. Both are
    smaller than the first-order damping enhancement at strong feedback, so
    the cavity settles below the vacuum floor there.

    ``input_output`` mode eliminates the loop exactly: with cavity input
    u c_in + epsilon e^{i theta} a_out and a_out = sqrt(2 kappa_c) a - a_in,
    the damping is kappa_c u^2 / (1 + 2 epsilon cos theta + epsilon^2),
    positive for every epsilon < 1 and every theta, and the noise weight is
    the same u^2 / (1 + 2 epsilon cos theta + epsilon^2), so the cavity alone
    relaxes to (2 N_c + 1) / 2.

    The loop also shifts the detuning by an amount proportional to sin theta;
    that shift is taken as absorbed into the operating point delta_fb = -omega_m.
    """
    u2 = _transmittance(params)
    eps, cos = params.epsilon, _pointwise(math.cos, params.theta)
    if params.diffusion_mode == "input_output":
        # |1 + epsilon e^{i theta}|^2 as (1 + epsilon cos theta)^2 + (epsilon sin theta)^2,
        # a sum of squares that does not cancel when it is small (epsilon near 1, theta near pi)
        real, imag = 1.0 + eps * cos, eps * _pointwise(math.sin, params.theta)
        gain = real * real + imag * imag
        return params.kappa_c * u2 / gain, u2 / gain
    first_order = 1.0 - 2.0 * eps * cos
    if params.diffusion_mode == "paper":
        loss = 1.0 - eps
        return params.kappa_c * first_order, u2 * (loss * loss)
    return params.kappa_c * first_order, u2 * (first_order + eps * eps)


def derive(params: SystemParams) -> DerivedQuantities:
    """Compute all derived quantities for one parameter point, or a grid.

    The feedback damping may be non-positive; whether a steady state exists
    is decided by the Hurwitz gate alone.
    """
    omega_m = params.gyromagnetic_ratio * params.B0
    k_fb, w_c = feedback(params)
    return DerivedQuantities(
        omega_m=omega_m,
        g_m_eff=effective_coupling(params),
        k_fb=k_fb,
        w_c=w_c,
        N_c=thermal_occupation(params.omega_c, params.temperature),
        N_q=thermal_occupation(params.omega_q, params.temperature),
        N_m=thermal_occupation(omega_m, params.temperature),
    )


def build_blocks(params: SystemParams, derived: DerivedQuantities | None = None) -> np.ndarray:
    """The x' drift Q_x and diffusion D_x of one point, as one array (2, 3, 3).

    On a grid from ``param_columns`` the array is (..., 2, 3, 3), one block
    pair per point of the grid's broadcast shape.

    In the blue-sideband frame both couplings pair X_c with the Y quadratures
    of the qubit and the magnon, so x' = (X_c, Y_q, Y_m) never couples to
    p' = (Y_c, -X_q, -X_m). The cavity-qubit coupling is beam-splitter-like
    and the cavity-magnon coupling parametric, which lets the feedback loop
    redistribute correlations between the indirectly coupled qubit and
    magnon, and makes the p' blocks S Q_x S, S = diag(1, 1, -1), and D_x.
    """
    d = derived or derive(params)
    k_fb, gam, k_m = d.k_fb, params.gamma_q, params.kappa_m
    g_q, g_m = params.g_q, d.g_m_eff
    d_c = params.kappa_c * d.w_c * (2.0 * d.N_c + 1.0)
    d_q = gam * (2.0 * d.N_q + 1.0)
    d_m = k_m * (2.0 * d.N_m + 1.0)
    entries = (-k_fb, g_q, -g_m, -g_q, -gam, 0.0, -g_m, 0.0, -k_m,
               d_c, 0.0, 0.0, 0.0, d_q, 0.0, 0.0, 0.0, d_m)
    if isinstance(params, SystemParams):
        return np.array(entries).reshape(2, 3, 3)
    blocks = np.empty(np.broadcast_shapes(*map(np.shape, entries)) + (18,))
    for column, entry in enumerate(entries):
        blocks[..., column] = entry
    return blocks.reshape(blocks.shape[:-1] + (2, 3, 3))


def build_drift(params: SystemParams, derived: DerivedQuantities | None = None) -> np.ndarray:
    """Drift matrix (6, 6) in the quadrature ordering: ``gaussian.x_block_matrix``
    of the x' drift from ``build_blocks``."""
    return x_block_matrix(build_blocks(params, derived)[0])


def build_diffusion(params: SystemParams, derived: DerivedQuantities | None = None) -> np.ndarray:
    """Diagonal diffusion matrix (6, 6) of the input noise, rad/s: ``gaussian.x_block_matrix``
    of the x' diffusion from ``build_blocks``."""
    return x_block_matrix(build_blocks(params, derived)[1])


# --- parameter ingestion -----------------------------------------------------

# JSON keys quoted as "value/2pi in Hz", converted to rad/s on ingestion
_HZ_KEYS = ("omega_c", "omega_q", "kappa_c", "kappa_m", "gamma_q",
            "g_q", "gyromagnetic_ratio")

# Default parameter set, in the JSON (Hz-style) convention
DEFAULT_DOCUMENT = {
    "omega_c": 8.35e9,
    "omega_q": 8.44e9,
    "B0": 100e-3,
    "gyromagnetic_ratio": 28e9,
    "kappa_c": 5e6,
    "kappa_m": 1e6,
    "gamma_q": 0.2e6,
    "g_q_ratio": 2.0,
    "epsilon": 0.0,
    "theta": math.pi,
    "temperature": 10e-3,
    "drive_power": 10e-3,
    "drive_wavelength": 1550e-9,
    "verdet": 3.77e2,
    "refractive_index": 2.19,
    "spin_density": 2.1e28,
    "sphere_radius": 100e-6,
    "diffusion_mode": "paper",
}


def params_from_dict(document: dict) -> SystemParams:
    """Build SystemParams from a JSON-style document.

    Keys mirror the SystemParams field names; unknown keys are rejected and
    missing keys are filled from the default set. Frequency-like keys are
    given as value/2pi in Hz. ``g_q_ratio`` may be given instead of ``g_q``
    to set the qubit coupling as a multiple of the derived effective
    optomagnonic coupling. Those values are read here, first; SystemParams
    reads every other one.
    """
    if not isinstance(document, dict):
        raise SpecError("parameter document must be a JSON object")
    _unknown_keys(document, {f.name for f in fields(SystemParams)} | {"g_q_ratio"}, "parameter")
    if "g_q" in document and "g_q_ratio" in document:
        raise SpecError("give either g_q or g_q_ratio, not both")

    values = dict(DEFAULT_DOCUMENT)
    if "g_q" in document:
        values.pop("g_q_ratio")
    values.update(document)
    for key in _HZ_KEYS:
        if key in values:
            values[key] = _number(values[key], f"parameter {key}") * TWO_PI
    if "g_q_ratio" in values:
        ratio = _number(values.pop("g_q_ratio"), "parameter g_q_ratio")
        values["g_q"] = ratio * effective_coupling(SystemParams(g_q=0.0, **values))
    return SystemParams(**values)


def _number(value, what: str) -> float:
    """``value`` as a Python float, or SpecError naming ``what``.

    The one rule for a parameter value: an int or float, of Python or numpy,
    that fits in a double. Bools, strings and None are not numbers.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise SpecError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # a JSON integer beyond the largest double
        raise SpecError(f"{what} does not fit in a double") from exc


def _unknown_keys(document: dict, allowed, what: str) -> None:
    """SpecError naming, sorted, the keys of ``document`` that are not in ``allowed``."""
    unknown = set(document) - set(allowed)
    if unknown:
        raise SpecError(f"unknown {what} keys: {sorted(unknown)}")


def _json_object(stream, name: str) -> dict:
    """The JSON object read from a text stream, or SpecError naming ``name``.

    This is the one decoder of JSON documents. Every way the read and the
    decode fail raises SpecError: malformed text, a byte that is not UTF-8,
    an integer of more digits than ``int`` converts (ValueError), arrays
    nested deeper than the decoder recurses (RecursionError), and a
    document that is not an object.
    """
    try:
        document = json.load(stream)
    except (ValueError, RecursionError) as exc:
        raise SpecError(f"invalid JSON in {name}: {exc}") from exc
    if not isinstance(document, dict):
        raise SpecError(f"{name} must contain a JSON object")
    return document


def params_from_json(text: str) -> SystemParams:
    """SystemParams from the text of a JSON parameter document (see ``params_from_dict``)."""
    return params_from_dict(_json_object(io.StringIO(text), "parameter document"))


def default_params(**overrides) -> SystemParams:
    """The default parameter set, optionally with JSON-style overrides."""
    return params_from_dict(overrides)
