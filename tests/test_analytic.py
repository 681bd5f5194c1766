import numpy as np
import pytest

from magnonsteer import (
    DegenerateDenominator,
    UnstableDrift,
    analytic_covariance,
    default_params,
    derive,
    steady_state_covariance,
)
from magnonsteer.gaussian import assert_stable, check_physicality
from magnonsteer.model import (
    HBAR,
    SPEED_OF_LIGHT,
    TWO_PI,
    build_drift,
    effective_coupling,
    optomagnonic_coupling,
)


def relative_gap(numeric, closed):
    mask = np.abs(closed) > 1e-12
    return float(np.max(np.abs(numeric - closed)[mask] / np.abs(closed)[mask]))


def test_matches_solver_at_default_point():
    params = default_params(epsilon=0.0)
    assert relative_gap(steady_state_covariance(params), analytic_covariance(params)) <= 1e-8


@pytest.mark.parametrize("diffusion_mode", ["paper", "consistent", "input_output"])
def test_matches_solver_on_random_stable_points(diffusion_mode):
    rng = np.random.default_rng(2024)
    accepted = 0
    worst = 0.0
    while accepted < 120:
        params = default_params(
            epsilon=float(rng.uniform(0.0, 0.95)),
            temperature=float(rng.uniform(0.0, 1.0)),
            g_q_ratio=float(rng.uniform(0.5, 3.0)),
            diffusion_mode=diffusion_mode,
        )
        try:
            numeric = steady_state_covariance(params)
        except UnstableDrift:
            continue
        worst = max(worst, relative_gap(numeric, analytic_covariance(params)))
        accepted += 1
    assert worst <= 1e-8


def test_symmetric_and_patterned_everywhere():
    rng = np.random.default_rng(7)
    zero_pattern = ~np.array([
        [1, 0, 0, 1, 0, 1],
        [0, 1, 1, 0, 1, 0],
        [0, 1, 1, 0, 1, 0],
        [1, 0, 0, 1, 0, 1],
        [0, 1, 1, 0, 1, 0],
        [1, 0, 0, 1, 0, 1],
    ], dtype=bool)
    for _ in range(20):
        params = default_params(
            epsilon=float(rng.uniform(0.0, 0.9)),
            temperature=float(rng.uniform(0.0, 0.5)),
        )
        closed = analytic_covariance(params)
        assert np.array_equal(closed, closed.T)
        assert np.all(closed[zero_pattern] == 0.0)


def test_physical_without_feedback():
    for temperature in (0.0, 0.01, 0.4):
        closed = analytic_covariance(default_params(epsilon=0.0, temperature=temperature))
        ok, nu_min = check_physicality(closed)
        assert ok, f"min symplectic eigenvalue {nu_min} at T={temperature}"


def test_magnon_decouples_without_drive():
    params = default_params(drive_power=0.0, temperature=0.02)
    closed = analytic_covariance(params)
    derived = derive(params)
    assert closed[0, 5] == 0.0  # cavity-magnon correlation
    assert closed[2, 4] == 0.0  # qubit-magnon correlation
    thermal = derived.N_m + 0.5
    assert np.allclose(closed[4:, 4:], thermal * np.eye(2), rtol=1e-12)


def test_cross_correlations_vanish_without_qubit_coupling():
    params = default_params(g_q=0.0)
    closed = analytic_covariance(params)
    assert closed[0, 3] == 0.0  # cavity-qubit correlation
    assert closed[2, 4] == 0.0  # qubit-magnon correlation
    assert closed[0, 5] != 0.0  # cavity-magnon correlation survives


def test_degenerate_denominator_at_stability_boundary():
    # with g_q = 0 the denominator vanishes when the parametric coupling
    # reaches sqrt((gamma + k_fb)(gamma + k_m)); pick the drive power that
    # lands exactly there
    base = default_params(epsilon=0.0, g_q=0.0)
    derived = derive(base)
    target = np.sqrt((base.gamma_q + derived.k_fb) * (base.gamma_q + base.kappa_m))
    bare = optomagnonic_coupling(base)
    omega_drive = TWO_PI * SPEED_OF_LIGHT / base.drive_wavelength
    power = target**2 * base.kappa_c * HBAR * omega_drive / (2.0 * bare**2)
    marginal = base.replace(drive_power=float(power))
    assert effective_coupling(marginal) == pytest.approx(target, rel=1e-12)
    with pytest.raises(DegenerateDenominator):
        analytic_covariance(marginal)
    # the numeric path agrees that no steady state exists there
    with pytest.raises(UnstableDrift):
        assert_stable(build_drift(marginal))


@pytest.mark.parametrize("document", [{"kappa_m": 1e300}, {"kappa_c": 1e-300, "g_q": 1e6}],
                         ids=["kappa_m", "kappa_c"])
def test_overflowing_closed_forms_raise_degenerate_denominator(document):
    # a rate ratio whose square leaves the double range: Python's ** raises
    # OverflowError there, which ends as the package's error (the solver
    # rejects both documents at its gate)
    with pytest.raises(DegenerateDenominator, match="overflow"):
        analytic_covariance(default_params(**document))
