"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is evaluated at its stated tolerance. Criteria 1-5, 8 and 9
run on the default ``paper`` diffusion mode; criterion 7 also holds the
steady-state residual of every default-mode preset point to its solver bound,
since that bound is a property of the solver, not of the noise model.

Criteria 6 and 7 otherwise run on the same seven preset grids under
``diffusion_mode="input_output"``. The steering-monogamy and asymmetry
bounds they check are statements about physical states, and the ``paper``
mode's feedback noise weight is smaller than its damping enhancement: at
strong feedback it drives the cavity below the vacuum floor (smallest
symplectic eigenvalue down to 0.002), so on those grids the criteria could
only restate that the states are unphysical. ``input_output`` eliminates the
feedback loop exactly, so its damping and noise agree and every preset point
is physical.

Criterion 5 checks the paper's fig2 steering numbers on the default mode and
fails: no noise model in the package reproduces them. Its violations are
reported in full in the failure message rather than hidden behind loosened
tolerances.
"""

import math
import time

import numpy as np
import pytest

from magnonsteer import (
    NoCrossing,
    UnstableDrift,
    correlation_report,
    default_params,
    find_threshold,
    preset,
    run_point,
    run_sweep,
    steady_state_covariance,
)
from magnonsteer.analytic import analytic_covariance
from magnonsteer.measures import measure_columns
from magnonsteer.model import build_diffusion
from magnonsteer.sweep import Axis, SweepSpec, grid_points

from _oracles import (
    Bipartition,
    brute_steering,
    extract_submatrix,
    gaussian_steering,
    log_negativity_2mode,
    log_negativity_2mode_pt,
    random_phase_covariant_cm,
    tmsv_cm,
    tmsv_with_spectator,
)

PRESET_GRIDS = ("fig3a", "fig3b", "fig2", "fig5", "fig6", "fig10", "fig11")

PAIR_DIRECTIONS = ("c_to_q", "q_to_c", "c_to_m", "m_to_c", "q_to_m", "m_to_q")
GROUP_DIRECTIONS = {
    "c_to_qm": "LN_c_qm", "qm_to_c": "LN_c_qm",
    "q_to_cm": "LN_q_cm", "cm_to_q": "LN_q_cm",
    "m_to_cq": "LN_m_cq", "cq_to_m": "LN_m_cq",
}


def _report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"acceptance {name}: {status}" + (f" ({detail})" if detail else ""))


def _evaluate_presets(diffusion_mode: str) -> dict:
    """Every preset grid under one diffusion mode: {preset_id: [(params, PointResult)]}."""
    out = {}
    for preset_id in PRESET_GRIDS:
        points = [params.replace(diffusion_mode=diffusion_mode)
                  for params in grid_points(preset(preset_id))]
        out[preset_id] = [(params, run_point(params)) for params in points]
    return out


@pytest.fixture(scope="module")
def evaluated_presets():
    """Every preset grid evaluated once under the default ``paper`` mode."""
    return _evaluate_presets("paper")


@pytest.fixture(scope="module")
def evaluated_presets_input_output():
    """The same preset grids evaluated under ``diffusion_mode="input_output"``."""
    return _evaluate_presets("input_output")


def test_criterion_1_closed_form_matches_solver():
    rng = np.random.default_rng(12345)
    start = time.monotonic()
    worst = 0.0
    accepted = 0
    while accepted < 100:
        params = default_params(
            epsilon=float(rng.uniform(0.0, 0.95)),
            temperature=float(rng.uniform(0.0, 1.0)),
            g_q_ratio=float(rng.uniform(0.5, 3.0)),
            diffusion_mode="paper",
        )
        try:
            numeric = steady_state_covariance(params)
        except UnstableDrift:
            continue
        closed = analytic_covariance(params)
        mask = np.abs(closed) > 1e-12
        worst = max(worst, float(np.max(np.abs(numeric - closed)[mask]
                                        / np.abs(closed)[mask])))
        accepted += 1
    elapsed = time.monotonic() - start
    passed = worst <= 1e-8 and elapsed < 5.0
    _report("1 closed-form vs solver", passed,
            f"max rel dev {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-8, f"closed form deviates from solver by {worst:.3e}"
    assert elapsed < 5.0, f"cross-check took {elapsed:.2f}s"


def test_criterion_2_two_path_negativity():
    # the package's block spectrum against the closed two-mode discriminant,
    # on every pair of 1000 random physical phase-covariant states
    rng = np.random.default_rng(777)
    start = time.monotonic()
    covs = np.array([random_phase_covariant_cm(rng) for _ in range(1000)])
    columns = measure_columns(covs, ("LN_cq", "LN_cm", "LN_qm"))
    worst = 0.0
    for k, cov in enumerate(covs):
        for pair, modes in (("cq", [0, 1]), ("cm", [0, 2]), ("qm", [1, 2])):
            closed = log_negativity_2mode(extract_submatrix(cov, modes))
            worst = max(worst, abs(columns[f"LN_{pair}"][k] - closed))
    elapsed = time.monotonic() - start
    passed = worst <= 1e-10 and elapsed < 5.0
    _report("2 two-path negativity", passed,
            f"max path gap {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-10, f"negativity code paths disagree by {worst:.3e}"
    assert elapsed < 5.0, f"1000-state comparison took {elapsed:.2f}s"


def test_criterion_3_no_feedback_entanglement_scan(evaluated_presets):
    failures = []
    for params, result in evaluated_presets["fig3a"]:
        flat = result.to_flat_dict()
        if flat["LN_cm"] > 1e-12 or flat["LN_cq"] > 1e-12:
            failures.append(f"cavity pair entangled at T={params.temperature:.3f}")
    cold = run_point(default_params(epsilon=0.0, temperature=10e-3)).to_flat_dict()
    if not cold["LN_qm"] > 0:
        failures.append("no qubit-magnon entanglement at 10 mK")
    crossing = find_threshold(preset("fig3a"), "LN_qm")
    if not 0.2 * 0.7 <= crossing <= 0.2 * 1.3:
        failures.append(f"qubit-magnon crossing at {crossing:.3f} K, "
                        "outside 0.2 K +/- 30%")
    _report("3 no-feedback scan", not failures,
            f"crossing {crossing:.4f} K")
    assert not failures, failures


def test_criterion_4_feedback_entanglement_scan():
    failures = []
    crossing = find_threshold(preset("fig3b"), "LN_qm")
    if not crossing > 0.6:
        failures.append(f"qubit-magnon entanglement dies at {crossing:.3f} K <= 0.6 K")
    warm = run_point(default_params(epsilon=0.86, temperature=10e-3)).to_flat_dict()
    if not (warm["LN_cm"] > 0 and warm["LN_cq"] > 0):
        failures.append("cavity pairs not entangled at 10 mK under feedback")
    _report("4 feedback scan", not failures, f"crossing {crossing:.4f} K")
    assert not failures, failures


ONSET_WINDOW_K = 6.0


def _vanishing_temperature(base, measure: str, stop: float = ONSET_WINDOW_K) -> float:
    """Temperature at which a directed steering first vanishes.

    A measure already zero at T = 0 vanishes at 0 K; one still positive at
    ``stop`` is reported as ``inf``, beyond the scanned window. Any other
    error (an unstable point, a revival) fails the test with its own message.
    """
    spec = SweepSpec(base=base, axis1=Axis("temperature", 0.0, stop, 120),
                     outputs=(measure,))
    try:
        return find_threshold(spec, measure)
    except NoCrossing:
        cold = run_point(base.replace(temperature=0.0)).to_flat_dict()[measure]
        return 0.0 if cold <= 0.0 else math.inf


def _format_onset(onset: float) -> str:
    return f"beyond {ONSET_WINDOW_K:g} K" if math.isinf(onset) else f"{onset:.3f} K"


def test_criterion_5_steering_taxonomy(evaluated_presets):
    failures = []
    base = preset("fig2").base

    # the magnon is never steered, at any temperature
    for key in ("G_c_to_m", "G_q_to_m"):
        bad = [(params.temperature, flat[key])
               for params, result in evaluated_presets["fig2"]
               if (flat := result.to_flat_dict())[key] > 1e-12]
        if bad:
            t_max, v_max = max(bad, key=lambda item: item[1])
            failures.append(
                f"{key} nonzero at {len(bad)} grid points "
                f"(up to {v_max:.4f} at T={t_max:.4f} K)")

    # a one-way window for the cavity-qubit pair inside (0.3, 0.5) K
    window = [result.to_flat_dict()
              for params, result in evaluated_presets["fig2"]
              if 0.3 < params.temperature < 0.5]
    if not any(flat["G_c_to_q"] == 0.0 and flat["G_q_to_c"] > 0 for flat in window):
        failures.append("no one-way cavity-qubit window in (0.3, 0.5) K")

    # no-way onsets at the target temperatures within +/- 30%
    targets = {("c", "q"): 0.50, ("c", "m"): 0.45, ("q", "m"): 0.60}
    onsets = {}
    for (a, b), target in targets.items():
        onset = max(_vanishing_temperature(base, f"G_{a}_to_{b}"),
                    _vanishing_temperature(base, f"G_{b}_to_{a}"))
        onsets[a + b] = onset
        if not target * 0.7 <= onset <= target * 1.3:
            failures.append(
                f"no-way onset for {a}{b} at {_format_onset(onset)}, outside "
                f"{target} K +/- 30% [{target * 0.7:.3f}, {target * 1.3:.3f}]")

    detail = ", ".join(f"{pair}={_format_onset(value)}" for pair, value in onsets.items())
    _report("5 steering taxonomy", not failures, detail)
    assert not failures, failures


def test_criterion_6_monogamy(evaluated_presets_input_output):
    failures = []
    mono_keys = [f"mono_{direction}_{pivot}"
                 for direction in ("out", "in") for pivot in "cqm"]
    for preset_id in ("fig10", "fig11"):
        for params, result in evaluated_presets_input_output[preset_id]:
            if result.status != "ok":
                failures.append(f"unstable point in {preset_id} grid")
                continue
            flat = result.to_flat_dict()
            for key in mono_keys:
                if flat[key] < -1e-10:
                    failures.append(
                        f"{preset_id}: {key} = {flat[key]:.4f} "
                        f"at T={params.temperature:.4f} K")
            for key in ("R_c", "R_q", "R_m"):
                if flat[key] < -1e-10:
                    failures.append(
                        f"{preset_id}: {key} = {flat[key]:.4f} "
                        f"at T={params.temperature:.4f} K")
            if flat["R_min"] < -1e-12:
                failures.append(
                    f"{preset_id}: R_min = {flat['R_min']:.4f} "
                    f"at T={params.temperature:.4f} K")
    _report("6 monogamy residuals", not failures,
            f"{len(failures)} violating entries")
    assert not failures, _summarise(failures)


def _residual_failures(preset_id: str, params, flat: dict) -> list[str]:
    bound = 1e-10 * max(1.0, float(np.linalg.norm(build_diffusion(params))))
    if flat["lyap_residual"] > bound:
        return [f"{preset_id} ({params.diffusion_mode}): steady-state residual "
                f"{flat['lyap_residual']:.3e} above bound {bound:.3e}"]
    return []


def test_criterion_7_universal_properties(evaluated_presets,
                                          evaluated_presets_input_output):
    failures = []
    for preset_id, points in evaluated_presets.items():
        for params, result in points:
            if result.status == "ok":
                failures += _residual_failures(preset_id, params, result.to_flat_dict())

    ln2_bound = math.log(2.0) + 1e-9
    for preset_id, points in evaluated_presets_input_output.items():
        for params, result in points:
            if result.status != "ok":
                continue
            flat = result.to_flat_dict()

            for direction in PAIR_DIRECTIONS:
                a, _, b = direction.partition("_to_")
                pair = "".join(sorted((a, b), key="cqm".index))
                if flat[f"G_{direction}"] > 1e-9 and not flat[f"LN_{pair}"] > 0:
                    failures.append(f"{preset_id}: steering {direction} without "
                                    f"entanglement at T={params.temperature:.4f}")
            for direction, ln_key in GROUP_DIRECTIONS.items():
                if flat[f"G_{direction}"] > 1e-9 and not flat[ln_key] > 0:
                    failures.append(f"{preset_id}: steering {direction} without "
                                    f"entanglement at T={params.temperature:.4f}")

            for pair in ("cq", "cm", "qm"):
                if flat[f"asym_{pair}"] > ln2_bound:
                    failures.append(
                        f"{preset_id}: asym_{pair} = {flat[f'asym_{pair}']:.4f} "
                        f"> ln 2 at eps={params.epsilon:.2f}, "
                        f"T={params.temperature:.4f}")

            if flat["min_symplectic_eig"] < 0.5 - 1e-10:
                failures.append(
                    f"{preset_id}: unphysical state, min symplectic eigenvalue "
                    f"{flat['min_symplectic_eig']:.4f} at eps={params.epsilon:.2f}, "
                    f"T={params.temperature:.4f}")

            failures += _residual_failures(preset_id, params, flat)
    _report("7 universal properties", not failures,
            f"{len(failures)} violating entries")
    assert not failures, _summarise(failures)


def test_criterion_8_two_mode_squeezed_oracles():
    worst_ln = 0.0
    worst_steer = 0.0
    for r in (0.1, 0.5, 1.0):
        # the package on the phase-covariant form of the state, the oracles
        # on the textbook form
        flat = correlation_report(tmsv_with_spectator(r))
        cov = tmsv_cm(r)
        worst_ln = max(worst_ln,
                       abs(flat["LN_cq"] - 2 * r),
                       abs(log_negativity_2mode(cov) - 2 * r),
                       abs(log_negativity_2mode_pt(cov) - 2 * r))
        expected = math.log(math.cosh(2 * r))
        for key, split in (("G_c_to_q", ((0,), (1,))), ("G_q_to_c", ((1,), (0,)))):
            value = gaussian_steering(cov, Bipartition(*split))
            worst_steer = max(worst_steer, abs(flat[key] - expected), abs(value - expected),
                              abs(brute_steering(cov, *split) - expected))
    passed = worst_ln <= 1e-9 and worst_steer <= 1e-9
    _report("8 squeezed-state oracles", passed,
            f"ln gap {worst_ln:.2e}, steering gap {worst_steer:.2e}")
    assert worst_ln <= 1e-9
    assert worst_steer <= 1e-9


def test_criterion_9_preset_performance():
    start = time.monotonic()
    rows = run_sweep(preset("fig3a"))
    elapsed = time.monotonic() - start
    passed = len(rows) == 200 and elapsed < 2.0
    _report("9 preset performance", passed, f"{elapsed:.3f}s for 200 points")
    assert len(rows) == 200
    assert elapsed < 2.0, f"200-point preset took {elapsed:.2f}s"


def _summarise(failures: list[str], limit: int = 12) -> str:
    shown = failures[:limit]
    extra = len(failures) - len(shown)
    text = "\n".join(shown)
    if extra > 0:
        text += f"\n... and {extra} more"
    return text
