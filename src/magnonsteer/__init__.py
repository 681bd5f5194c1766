"""Steady-state quantum correlations of a hybrid qubit-cavity-magnon system.

The package models the linearised quadrature dynamics of an optomagnonic
cavity coupled to a superconducting qubit and a magnon mode with a coherent
feedback loop, solves for the steady-state covariance matrix, and computes
entanglement, Gaussian steering and their monogamy properties.
"""

from .analytic import analytic_covariance
from .errors import (
    DegenerateDenominator,
    MagnonSteerError,
    NoCrossing,
    NonMonotone,
    NonPositiveInput,
    NotPhaseCovariant,
    SingularBlock,
    SingularSystem,
    SpecError,
    UnknownPreset,
    UnstableDrift,
)
from .gaussian import (
    check_physicality,
    lyapunov_residual,
    solve_lyapunov,
)
from .measures import (
    classify_steering,
    correlation_report,
)
from .model import (
    DerivedQuantities,
    SystemParams,
    assert_stable,
    build_diffusion,
    build_drift,
    default_params,
    derive,
    effective_coupling,
    optomagnonic_coupling,
    params_from_dict,
    params_from_json,
    thermal_occupation,
)
from .sweep import (
    Axis,
    PointResult,
    SweepSpec,
    find_threshold,
    format_csv,
    preset,
    run_point,
    run_sweep,
    spec_from_dict,
    steady_state_covariance,
    sweep_columns,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "DegenerateDenominator",
    "DerivedQuantities",
    "MagnonSteerError",
    "NoCrossing",
    "NonMonotone",
    "NonPositiveInput",
    "NotPhaseCovariant",
    "PointResult",
    "SingularBlock",
    "SingularSystem",
    "SpecError",
    "SweepSpec",
    "SystemParams",
    "UnknownPreset",
    "UnstableDrift",
    "analytic_covariance",
    "assert_stable",
    "build_diffusion",
    "build_drift",
    "check_physicality",
    "classify_steering",
    "correlation_report",
    "default_params",
    "derive",
    "effective_coupling",
    "find_threshold",
    "format_csv",
    "lyapunov_residual",
    "optomagnonic_coupling",
    "params_from_dict",
    "params_from_json",
    "preset",
    "run_point",
    "run_sweep",
    "solve_lyapunov",
    "spec_from_dict",
    "steady_state_covariance",
    "sweep_columns",
    "thermal_occupation",
]
