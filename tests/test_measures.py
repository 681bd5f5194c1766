import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnonsteer import (
    NonPositiveInput,
    NotPhaseCovariant,
    correlation_report,
    default_params,
    steady_state_covariance,
)
from magnonsteer.gaussian import PHYSICALITY_TOL, mirror_pairs, steady_state_blocks
from magnonsteer.measures import (
    CLASS_TOL,
    MEASURE_KEYS,
    classify_steering,
    measure_blocks,
    measure_columns,
)
from magnonsteer.model import (
    DIFFUSION_MODES,
    build_blocks,
    derive,
    effective_coupling,
    param_columns,
)

from _oracles import (
    UNPHYSICAL_4X4,
    Bipartition,
    brute_steering,
    extract_submatrix,
    gaussian_steering,
    log_negativity_1v2,
    log_negativity_2mode,
    log_negativity_2mode_pt,
    phase_covariant_cm,
    random_phase_covariant_cm,
    random_physical_cm,
    symplectic_eigenvalues,
    tmsv_cm,
    tmsv_with_spectator,
    vacuum_cm,
)

# the kernel against the independent 6x6 oracles, as in test_kernel
CROSS_TOL = 1e-10


R_KEYS = ("R_c", "R_q", "R_m", "R_min")
MONO_KEYS = tuple(k for k in MEASURE_KEYS if k.startswith("mono_"))
PAIRS = ("cq", "cm", "qm")
LABELS = "cqm"


@functools.lru_cache(maxsize=None)
def seeded_physical_states(nu_max: float) -> np.ndarray:
    """4,000 random physical phase-covariant states (N, 6, 6), seed 11."""
    rng = np.random.default_rng(11)
    return np.array([random_phase_covariant_cm(rng, nu_max) for _ in range(4000)])


class TestLogNegativityTwoMode:
    def test_vacuum_is_separable(self):
        flat = correlation_report(vacuum_cm(3))
        for pair in PAIRS:
            assert flat[f"LN_{pair}"] == 0.0
        assert log_negativity_2mode(vacuum_cm(2)) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_tmsv_value(self, r):
        assert correlation_report(tmsv_with_spectator(r))["LN_cq"] == pytest.approx(2 * r, abs=1e-12)
        assert log_negativity_2mode(tmsv_cm(r)) == pytest.approx(2 * r, abs=1e-12)
        assert log_negativity_2mode_pt(tmsv_cm(r)) == pytest.approx(2 * r, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_both_code_paths_agree(self, seed):
        # the kernel's block spectrum against the closed discriminant and the
        # complex eigen-solve of the partial transpose
        rng = np.random.default_rng(500 + seed)
        cov = random_phase_covariant_cm(rng)
        flat = correlation_report(cov)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            sub = extract_submatrix(cov, [a, b])
            got = flat[f"LN_{LABELS[a]}{LABELS[b]}"]
            assert got == pytest.approx(log_negativity_2mode(sub), abs=CROSS_TOL)
            assert got == pytest.approx(log_negativity_2mode_pt(sub), abs=CROSS_TOL)

    def test_system_output_entanglement_structure(self):
        flat = correlation_report(steady_state_covariance(default_params(epsilon=0.0)))
        assert flat["LN_qm"] > 0
        assert flat["LN_cm"] == 0.0
        assert flat["LN_cq"] == 0.0

    def test_unphysical_input_raises(self):
        # a c-q block that is not positive definite
        vx = 0.5 * np.eye(3)
        vx[0, 1] = vx[1, 0] = 0.6
        cov = phase_covariant_cm(vx, 0.5 * np.eye(3))
        with pytest.raises(NonPositiveInput):
            measure_columns(cov[None], ("LN_cq",))
        with pytest.raises(ValueError):
            log_negativity_2mode(UNPHYSICAL_4X4)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            correlation_report(vacuum_cm(2))
        with pytest.raises(ValueError):
            log_negativity_2mode(vacuum_cm(3))


class TestLogNegativityOneVsTwo:
    def test_vacuum(self):
        flat = correlation_report(vacuum_cm(3))
        for key in ("LN_c_qm", "LN_q_cm", "LN_m_cq"):
            assert flat[key] == 0.0

    def test_tmsv_with_spectator(self):
        r = 0.5
        flat = correlation_report(tmsv_with_spectator(r))
        assert flat["LN_c_qm"] == pytest.approx(2 * r, abs=1e-12)
        assert flat["LN_m_cq"] == 0.0
        assert log_negativity_1v2(tmsv_with_spectator(r), 0) == pytest.approx(2 * r, abs=1e-12)

    def test_feedback_generates_one_vs_two_entanglement(self):
        cov = steady_state_covariance(default_params(epsilon=0.9))
        assert correlation_report(cov)["LN_m_cq"] > 0


class TestResidualContangle:
    def test_vacuum(self):
        flat = correlation_report(vacuum_cm(3))
        for key in R_KEYS:
            assert flat[key] == 0.0

    def test_bipartite_only_state_has_no_residual(self):
        flat = correlation_report(tmsv_with_spectator(0.5))
        for key in R_KEYS:
            assert flat[key] == pytest.approx(0.0, abs=1e-9)

    def test_monogamy_holds_without_feedback(self):
        for temperature in (0.0, 0.05, 0.3):
            cov = steady_state_covariance(
                default_params(epsilon=0.0, temperature=temperature))
            assert correlation_report(cov)["R_min"] >= -1e-10


class TestGaussianSteering:
    def test_product_state_cannot_steer(self):
        flat = correlation_report(vacuum_cm(3))
        for key in MEASURE_KEYS:
            if key.startswith("G_"):
                assert flat[key] == 0.0, key
        assert gaussian_steering(vacuum_cm(2), Bipartition((0,), (1,))) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_tmsv_closed_form(self, r):
        expected = math.log(math.cosh(2 * r))
        flat = correlation_report(tmsv_with_spectator(r))
        assert flat["G_c_to_q"] == pytest.approx(expected, abs=1e-12)
        assert flat["G_q_to_c"] == pytest.approx(expected, abs=1e-12)
        for split in (((0,), (1,)), ((1,), (0,))):
            assert gaussian_steering(tmsv_cm(r), Bipartition(*split)) == pytest.approx(
                expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_brute_force_blocks(self, seed):
        rng = np.random.default_rng(900 + seed)
        cov = random_phase_covariant_cm(rng)
        flat = correlation_report(cov)
        for key, split in (("G_c_to_q", ((0,), (1,))), ("G_m_to_cq", ((2,), (0, 1))),
                           ("G_cq_to_m", ((0, 1), (2,)))):
            assert flat[key] == pytest.approx(brute_steering(cov, *split), abs=1e-10)

    def test_spectator_mode_does_not_contribute(self):
        flat = correlation_report(tmsv_with_spectator(0.5))
        assert flat["G_c_to_qm"] == pytest.approx(flat["G_c_to_q"], abs=1e-12)

    def test_magnon_is_never_steered_at_moderate_temperature(self):
        for temperature in (0.1, 0.3, 0.5):
            flat = correlation_report(steady_state_covariance(
                default_params(epsilon=0.86, temperature=temperature)))
            assert flat["G_c_to_m"] == 0.0
            assert flat["G_q_to_m"] == 0.0

    def test_steering_implies_entanglement_without_feedback(self):
        for temperature in (0.0, 0.1, 0.25):
            flat = correlation_report(steady_state_covariance(
                default_params(epsilon=0.0, temperature=temperature)))
            for a, b in PAIRS:
                if flat[f"G_{a}_to_{b}"] > 1e-9 or flat[f"G_{b}_to_{a}"] > 1e-9:
                    assert flat[f"LN_{a}{b}"] > 0


class TestSteeringAsymmetry:
    def test_symmetric_tmsv(self):
        flat = correlation_report(tmsv_with_spectator(0.5))
        assert flat["G_c_to_q"] > 0
        for pair in PAIRS:
            assert flat[f"asym_{pair}"] == 0.0

    def test_equals_absolute_difference(self):
        rng = np.random.default_rng(77)
        cov = random_phase_covariant_cm(rng)
        flat = correlation_report(cov)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            forward = gaussian_steering(cov, Bipartition((a,), (b,)))
            backward = gaussian_steering(cov, Bipartition((b,), (a,)))
            assert flat[f"asym_{LABELS[a]}{LABELS[b]}"] == pytest.approx(
                abs(forward - backward), abs=CROSS_TOL)

    def test_bounded_by_ln_two_without_feedback(self):
        for temperature in (0.0, 0.1, 0.3):
            flat = correlation_report(steady_state_covariance(
                default_params(epsilon=0.0, temperature=temperature)))
            for pair in PAIRS:
                assert flat[f"asym_{pair}"] <= math.log(2) + 1e-9


class TestClassifySteering:
    @pytest.mark.parametrize("ga,gb,expected", [
        (0.0, 0.0, "no_way"),
        (0.3, 0.0, "one_way_ab"),
        (0.0, 0.3, "one_way_ba"),
        (0.2, 0.2, "two_way_symmetric"),
        (0.2, 0.3, "two_way_asymmetric"),
        (5e-10, 5e-10, "no_way"),
    ])
    def test_taxonomy(self, ga, gb, expected):
        assert classify_steering(ga, gb) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            classify_steering(-0.1, 0.0)


class TestSteeringMonogamy:
    def test_vacuum(self):
        flat = correlation_report(vacuum_cm(3))
        for key in MONO_KEYS:
            assert flat[key] == 0.0

    def test_holds_without_feedback(self):
        for temperature in (0.0, 0.1, 0.4):
            flat = correlation_report(steady_state_covariance(
                default_params(epsilon=0.0, temperature=temperature)))
            for key in MONO_KEYS:
                assert flat[key] >= -1e-10

    def test_trivial_at_high_temperature(self):
        flat = correlation_report(steady_state_covariance(
            default_params(epsilon=0.86, temperature=10.0,
                           diffusion_mode="consistent")))
        for key in MONO_KEYS:
            assert flat[key] == 0.0


class TestCorrelationReport:
    def test_flat_keys_are_complete_and_stable(self):
        cov = steady_state_covariance(default_params(epsilon=0.0))
        flat = correlation_report(cov)
        assert list(flat) == list(MEASURE_KEYS)

    def test_report_values_match_direct_calls(self):
        cov = steady_state_covariance(default_params(epsilon=0.0))
        flat = correlation_report(cov)
        assert flat["LN_qm"] == pytest.approx(
            log_negativity_2mode(extract_submatrix(cov, [1, 2])), abs=CROSS_TOL)
        assert flat["G_q_to_c"] == pytest.approx(
            gaussian_steering(cov, Bipartition((1,), (0,))), abs=CROSS_TOL)
        assert flat["G_qm_to_c"] == pytest.approx(
            gaussian_steering(cov, Bipartition((1, 2), (0,))), abs=CROSS_TOL)
        assert flat["R_min"] == min(flat["R_c"], flat["R_q"], flat["R_m"])
        assert flat["class_qm"] in ("no_way", "one_way_ab", "one_way_ba",
                                    "two_way_asymmetric", "two_way_symmetric")

    @pytest.mark.parametrize("seed", range(3))
    def test_report_residuals_match_standalone_operations(self, seed):
        rng = np.random.default_rng(300 + seed)
        cov = random_phase_covariant_cm(rng)
        flat = correlation_report(cov)

        def ln(*modes):
            return log_negativity_2mode(extract_submatrix(cov, sorted(modes)))

        def g(party_a, party_b):
            return gaussian_steering(cov, Bipartition(party_a, party_b))

        for pivot, label in enumerate("cqm"):
            i, j = (m for m in range(3) if m != pivot)
            # contangle C = LN^2: R_i = C_{i|jk} - C_{i|j} - C_{i|k}
            residual = log_negativity_1v2(cov, pivot)**2 - ln(pivot, i)**2 - ln(pivot, j)**2
            out_res = g((pivot,), (i, j)) - g((pivot,), (i,)) - g((pivot,), (j,))
            in_res = g((i, j), (pivot,)) - g((i,), (pivot,)) - g((j,), (pivot,))
            assert flat[f"mono_out_{label}"] == pytest.approx(out_res, abs=CROSS_TOL)
            assert flat[f"mono_in_{label}"] == pytest.approx(in_res, abs=CROSS_TOL)
            assert flat[f"R_{label}"] == pytest.approx(residual, abs=CROSS_TOL)

    def test_mode_relabelling_covariance(self):
        # permuting the modes of the state and renaming the measures must agree
        rng = np.random.default_rng(11)
        cov = random_phase_covariant_cm(rng)
        flat = correlation_report(cov)

        # swap the roles of the second and third modes (q <-> m)
        perm = [0, 2, 1]
        idx = [q for m in perm for q in (2 * m, 2 * m + 1)]
        swapped = correlation_report(cov[np.ix_(idx, idx)])

        renames = {
            "LN_cq": "LN_cm", "LN_cm": "LN_cq", "LN_qm": "LN_qm",
            "G_c_to_q": "G_c_to_m", "G_c_to_m": "G_c_to_q",
            "G_q_to_c": "G_m_to_c", "G_m_to_c": "G_q_to_c",
            "G_q_to_m": "G_m_to_q", "G_m_to_q": "G_q_to_m",
            "R_c": "R_c", "R_q": "R_m", "R_m": "R_q", "R_min": "R_min",
        }
        for before, after in renames.items():
            assert flat[before] == pytest.approx(swapped[after], abs=1e-12)

    def test_zero_clamp(self):
        flat = correlation_report(tmsv_with_spectator(1e-13))
        assert flat["LN_cq"] == 0.0
        assert flat["G_c_to_q"] == 0.0

    def test_rejects_state_coupling_x_and_p(self):
        # a generic physical state correlates x' with p'; the block kernel
        # refuses it rather than measure half of it
        with pytest.raises(NotPhaseCovariant):
            correlation_report(random_physical_cm(np.random.default_rng(4), 3))


class TestUniversalBounds:
    """Criterion 7's bounds on random physical phase-covariant three-mode states."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), nu_max=st.floats(0.5, 4.0))
    def test_physical_states_obey_the_bounds(self, seed, nu_max):
        cov = random_phase_covariant_cm(np.random.default_rng(seed), nu_max)
        flat = correlation_report(cov)
        for pair in PAIRS:
            a, b = pair
            assert flat[f"asym_{pair}"] <= math.log(2) + 1e-9
            if max(flat[f"G_{a}_to_{b}"], flat[f"G_{b}_to_{a}"]) > CLASS_TOL:
                assert flat[f"LN_{pair}"] > 0
        for key in MONO_KEYS:
            assert flat[key] >= -1e-10

    @pytest.mark.parametrize("nu_max", [0.6, 1.0, 2.5, 5.0])
    def test_steering_monogamy_holds_on_seeded_physical_states(self, nu_max):
        # 24,000 mono_* values per nu_max
        columns = measure_columns(seeded_physical_states(nu_max), MONO_KEYS)
        assert min(min(column) for column in columns.values()) >= -1e-12

    def test_contangle_residual_is_negative_on_a_mixed_physical_state(self):
        # LN^2 is the contangle of Hiroshima, Adesso & Illuminati (PRL 98,
        # 050503) only on pure states, so R_* is not monogamous on every
        # physical state: on this one, the 2,156th of seed 11 at nu_max = 0.6,
        # R_c is negative by the kernel and by the 6x6 oracle helpers alike
        cov = seeded_physical_states(0.6)[2155]
        assert np.allclose(symplectic_eigenvalues(cov), [0.5008, 0.5036, 0.5936], atol=1e-4)
        flat = correlation_report(cov)

        def ln(*modes):
            return log_negativity_2mode(extract_submatrix(cov, sorted(modes)))

        oracle = log_negativity_1v2(cov, 0)**2 - ln(0, 1)**2 - ln(0, 2)**2
        assert flat["R_c"] == pytest.approx(oracle, abs=CROSS_TOL)
        assert flat["R_c"] == pytest.approx(-1.259e-3, rel=1e-3)
        assert min(flat[key] for key in MONO_KEYS) >= -1e-12


def test_negative_monogamy_residuals_sit_at_sub_vacuum_steady_states():
    # 2,000 seeded steady states per diffusion mode, each mode one stack:
    # epsilon < 0.95, any theta, T <= 1 K, g_q from 0.2 to 4 times the
    # optomagnonic coupling. Every mono_* or R_* below -1e-12 is at a state
    # below the vacuum floor, and input_output has none (README "Acceptance suite")
    rng = np.random.default_rng(11)
    base = default_params()
    axes = {"epsilon": rng.uniform(0.0, 0.95, 2000), "theta": rng.uniform(0.0, 2 * math.pi, 2000),
            "temperature": rng.uniform(0.0, 1.0, 2000),
            "g_q": rng.uniform(0.2, 4.0, 2000) * effective_coupling(base)}
    negative = {}
    for mode in DIFFUSION_MODES:
        grid = param_columns(base.replace(diffusion_mode=mode), axes)
        cov = steady_state_blocks(build_blocks(grid, derive(grid)).reshape(-1, 2, 3, 3))[2]
        columns = measure_blocks(mirror_pairs(cov), MONO_KEYS + R_KEYS + ("min_symplectic_eig",))
        residual = np.min([columns[key] for key in MONO_KEYS + R_KEYS], axis=0)
        sub_vacuum = np.array(columns["min_symplectic_eig"]) < 0.5 - PHYSICALITY_TOL
        negative[mode] = int((residual < -1e-12).sum())
        assert not (residual < -1e-12)[~sub_vacuum].any(), mode
    assert negative["input_output"] == 0 < min(negative["paper"], negative["consistent"])
