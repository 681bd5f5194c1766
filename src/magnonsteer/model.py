"""Physical model of the qubit-cavity-magnon system with a coherent feedback loop.

Builds the 6x6 drift and diffusion matrices of the linearised quadrature
dynamics in the quadrature ordering (X_c, Y_c, X_q, Y_q, X_m, Y_m). All
angular frequencies and rates are stored internally in rad/s; the JSON
configuration interface accepts the conventional "frequency/2pi in Hz"
values and converts on ingestion.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import SpecError, UnstableDrift
from .gaussian import hurwitz_gate

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
            if not math.isfinite(getattr(self, name)):
                raise SpecError(f"parameter {name} must be finite")
        for name in ("omega_c", "omega_q", "B0", "gyromagnetic_ratio",
                     "kappa_c", "kappa_m", "gamma_q", "verdet",
                     "refractive_index", "spin_density", "sphere_radius"):
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

    @property
    def transmissivity(self) -> float:
        """Beam-splitter amplitude transmissivity u, with u^2 + epsilon^2 = 1."""
        return math.sqrt(1.0 - self.epsilon**2)

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)


NUMERIC_FIELDS = tuple(f.name for f in fields(SystemParams) if f.name != "diffusion_mode")


@dataclass(frozen=True)
class DerivedQuantities:
    """Quantities computed from SystemParams before matrix assembly."""

    omega_m: float      # magnon frequency, gyromagnetic_ratio * B0
    g_m: float          # bare optomagnonic coupling, rad/s
    n_photon: float     # intracavity photon number
    g_m_eff: float      # effective coupling g_m * sqrt(n_photon)
    k_fb: float         # feedback-modified cavity damping
    delta_fb: float     # feedback-modified cavity detuning (operating point)
    N_c: float          # thermal occupations
    N_q: float
    N_m: float


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1 / (exp(hbar omega / kB T) - 1).

    Exactly zero at T = 0 and monotone increasing in T.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (KB * temperature)
    if x > 700.0:  # exp would overflow; occupation is below double tiny
        return 0.0
    return 1.0 / math.expm1(x)


def optomagnonic_coupling(params: SystemParams) -> float:
    """Bare magneto-optical coupling of a magnetised sphere, rad/s.

    Verdet constant times c/n_r times sqrt(2 / (spin density * sphere volume)).
    """
    volume = (4.0 * math.pi / 3.0) * params.sphere_radius**3
    return (params.verdet * SPEED_OF_LIGHT / params.refractive_index
            * math.sqrt(2.0 / (params.spin_density * volume)))


def intracavity_photon_number(params: SystemParams) -> float:
    """Photon number 2 P / (kappa_c hbar Omega_drive) sustained by the drive."""
    omega_drive = TWO_PI * SPEED_OF_LIGHT / params.drive_wavelength
    return 2.0 * params.drive_power / (params.kappa_c * HBAR * omega_drive)


def effective_coupling(params: SystemParams) -> float:
    """Drive-enhanced optomagnonic coupling g_m * sqrt(n_photon), rad/s."""
    return optomagnonic_coupling(params) * math.sqrt(intracavity_photon_number(params))


def _loop_gain(params: SystemParams) -> float:
    """|1 + epsilon e^{i theta}|^2 = 1 + 2 epsilon cos theta + epsilon^2."""
    return 1.0 + 2.0 * params.epsilon * math.cos(params.theta) + params.epsilon**2


def feedback_damping(params: SystemParams) -> float:
    """Effective cavity damping under feedback.

    ``paper`` and ``consistent`` modes use the first-order form
    kappa_c (1 - 2 epsilon cos theta). ``input_output`` mode eliminates the
    loop exactly: with cavity input u c_in + epsilon e^{i theta} a_out and
    a_out = sqrt(2 kappa_c) a - a_in, the damping is
    kappa_c u^2 / (1 + 2 epsilon cos theta + epsilon^2), positive for every
    epsilon < 1 and every theta. The loop also shifts the detuning by an
    amount proportional to sin theta; that shift is taken as absorbed into
    the operating point delta_fb = -omega_m.
    """
    if params.diffusion_mode == "input_output":
        return params.kappa_c * (1.0 - params.epsilon**2) / _loop_gain(params)
    return params.kappa_c * (1.0 - 2.0 * params.epsilon * math.cos(params.theta))


def derive(params: SystemParams) -> DerivedQuantities:
    """Compute all derived quantities for one parameter point."""
    omega_m = params.gyromagnetic_ratio * params.B0
    g_m = optomagnonic_coupling(params)
    n_photon = intracavity_photon_number(params)
    g_m_eff = g_m * math.sqrt(n_photon)
    k_fb = feedback_damping(params)
    if k_fb <= 0:
        warnings.warn(
            f"feedback damping is non-positive ({k_fb:.3e} rad/s); "
            "whether a steady state exists is decided by the Hurwitz gate",
            stacklevel=2,
        )
    return DerivedQuantities(
        omega_m=omega_m,
        g_m=g_m,
        n_photon=n_photon,
        g_m_eff=g_m_eff,
        k_fb=k_fb,
        delta_fb=-omega_m,
        N_c=thermal_occupation(params.omega_c, params.temperature),
        N_q=thermal_occupation(params.omega_q, params.temperature),
        N_m=thermal_occupation(omega_m, params.temperature),
    )


def build_drift(params: SystemParams, derived: DerivedQuantities | None = None) -> np.ndarray:
    """Drift matrix of the quadrature dynamics in the blue-sideband frame.

    The cavity-qubit coupling is beam-splitter-like and the cavity-magnon
    coupling parametric, which is what allows the feedback loop to
    redistribute correlations between the indirectly coupled qubit and magnon.
    """
    d = derived or derive(params)
    k_fb, gam, k_m = d.k_fb, params.gamma_q, params.kappa_m
    g_q, g_m = params.g_q, d.g_m_eff
    return np.array([
        [-k_fb, 0.0, 0.0, g_q, 0.0, -g_m],
        [0.0, -k_fb, -g_q, 0.0, -g_m, 0.0],
        [0.0, g_q, -gam, 0.0, 0.0, 0.0],
        [-g_q, 0.0, 0.0, -gam, 0.0, 0.0],
        [0.0, -g_m, 0.0, 0.0, -k_m, 0.0],
        [-g_m, 0.0, 0.0, 0.0, 0.0, -k_m],
    ])


def cavity_noise_factor(params: SystemParams) -> float:
    """Dimensionless factor multiplying kappa_c (2 N_c + 1) in the diffusion.

    ``paper`` mode uses u^2 (1 - epsilon)^2; ``consistent`` mode evaluates
    the feedback input-noise correlation u^2 (1 - 2 epsilon cos theta +
    epsilon^2) at the configured phase. The two coincide at epsilon = 0 and at theta = 0. Both are
    smaller than the first-order damping enhancement at strong feedback, so
    the cavity settles below the vacuum floor there. ``input_output`` mode
    uses u^2 / (1 + 2 epsilon cos theta + epsilon^2), the same weight as its
    damping (see ``feedback_damping``), so the cavity alone relaxes to
    (2 N_c + 1) / 2.
    """
    u2 = 1.0 - params.epsilon**2
    if params.diffusion_mode == "paper":
        return u2 * (1.0 - params.epsilon) ** 2
    if params.diffusion_mode == "input_output":
        return u2 / _loop_gain(params)
    return u2 * (1.0 - 2.0 * params.epsilon * math.cos(params.theta) + params.epsilon**2)


def build_diffusion(params: SystemParams, derived: DerivedQuantities | None = None) -> np.ndarray:
    """Diagonal diffusion matrix of the input noise, rad/s."""
    d = derived or derive(params)
    d_c = params.kappa_c * cavity_noise_factor(params) * (2.0 * d.N_c + 1.0)
    d_q = params.gamma_q * (2.0 * d.N_q + 1.0)
    d_m = params.kappa_m * (2.0 * d.N_m + 1.0)
    return np.diag([d_c, d_c, d_q, d_q, d_m, d_m])


def assert_stable(drift: np.ndarray) -> None:
    """Raise UnstableDrift unless ``hurwitz_gate`` finds the drift safely damped."""
    max_real, stable = hurwitz_gate(drift)
    if not stable:
        raise UnstableDrift(float(max_real))


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
    optomagnonic coupling.
    """
    if not isinstance(document, dict):
        raise SpecError("parameter document must be a JSON object")
    known = {f.name for f in fields(SystemParams)} | {"g_q_ratio"}
    unknown = set(document) - known
    if unknown:
        raise SpecError(f"unknown parameter keys: {sorted(unknown)}")
    if "g_q" in document and "g_q_ratio" in document:
        raise SpecError("give either g_q or g_q_ratio, not both")

    merged = dict(DEFAULT_DOCUMENT)
    if "g_q" in document:
        merged.pop("g_q_ratio")
    merged.update(document)

    values = {}
    for key, raw in merged.items():
        if key == "diffusion_mode":
            values[key] = raw
            continue
        try:
            val = float(raw)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"parameter {key} must be a number") from exc
        values[key] = val * TWO_PI if key in _HZ_KEYS else val

    ratio = values.pop("g_q_ratio", None)
    if ratio is not None:
        base = SystemParams(g_q=0.0, **{k: v for k, v in values.items() if k != "g_q"})
        values["g_q"] = ratio * effective_coupling(base)
    return SystemParams(**values)


def params_from_json(text: str) -> SystemParams:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON parameter document: {exc}") from exc
    return params_from_dict(document)


def default_params(**overrides) -> SystemParams:
    """The default parameter set, optionally with JSON-style overrides."""
    return params_from_dict(overrides)
