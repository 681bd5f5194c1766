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
    NegativeDiscriminant,
    NoCrossing,
    NonMonotone,
    NonPositiveInput,
    SingularBlock,
    SingularSystem,
    SpecError,
    UnknownPreset,
    UnstableDrift,
)
from .gaussian import (
    Bipartition,
    check_physicality,
    extract_submatrix,
    lyapunov_residual,
    partial_transpose,
    schur_complement_steered,
    solve_lyapunov,
    symplectic_eigenvalues,
)
from .measures import (
    CorrelationReport,
    classify_steering,
    correlation_report,
    gaussian_steering,
    log_negativity_1v2,
    log_negativity_2mode,
    log_negativity_2mode_pt,
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
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "Bipartition",
    "CorrelationReport",
    "DegenerateDenominator",
    "DerivedQuantities",
    "MagnonSteerError",
    "NegativeDiscriminant",
    "NoCrossing",
    "NonMonotone",
    "NonPositiveInput",
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
    "extract_submatrix",
    "find_threshold",
    "format_csv",
    "gaussian_steering",
    "log_negativity_1v2",
    "log_negativity_2mode",
    "log_negativity_2mode_pt",
    "lyapunov_residual",
    "optomagnonic_coupling",
    "params_from_dict",
    "params_from_json",
    "partial_transpose",
    "preset",
    "run_point",
    "run_sweep",
    "schur_complement_steered",
    "solve_lyapunov",
    "spec_from_dict",
    "steady_state_covariance",
    "symplectic_eigenvalues",
    "thermal_occupation",
]
