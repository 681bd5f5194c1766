"""Steady-state quantum correlations of a hybrid qubit-cavity-magnon system.

The package models the linearised quadrature dynamics of an optomagnonic
cavity coupled to a superconducting qubit and a magnon mode with a coherent
feedback loop, solves for the steady-state covariance matrix, and computes
entanglement, Gaussian steering and their monogamy properties.

The top level holds the names README's examples call and the command line
uses; every other helper is reached through its module, for example
``magnonsteer.gaussian.solve_lyapunov``.
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
from .measures import correlation_report
from .model import SystemParams, default_params, derive, params_from_dict, params_from_json
from .sweep import (
    PointResult,
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
    "DegenerateDenominator",
    "MagnonSteerError",
    "NoCrossing",
    "NonMonotone",
    "NonPositiveInput",
    "NotPhaseCovariant",
    "PointResult",
    "SingularBlock",
    "SingularSystem",
    "SpecError",
    "SystemParams",
    "UnknownPreset",
    "UnstableDrift",
    "analytic_covariance",
    "correlation_report",
    "default_params",
    "derive",
    "find_threshold",
    "format_csv",
    "params_from_dict",
    "params_from_json",
    "preset",
    "run_point",
    "run_sweep",
    "spec_from_dict",
    "steady_state_covariance",
    "sweep_columns",
]
