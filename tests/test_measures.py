import math

import numpy as np
import pytest

from magnonsteer import (
    Bipartition,
    NegativeDiscriminant,
    classify_steering,
    contangle,
    correlation_report,
    default_params,
    extract_submatrix,
    gaussian_steering,
    log_negativity_1v2,
    log_negativity_2mode,
    log_negativity_2mode_pt,
    min_residual_contangle,
    residual_contangle,
    steady_state_covariance,
    steering_asymmetry,
    steering_monogamy_residuals,
)
from magnonsteer.measures import MEASURE_KEYS

from _oracles import (
    UNPHYSICAL_4X4,
    brute_steering,
    random_physical_cm,
    tmsv_cm,
    vacuum_cm,
)

class TestLogNegativityTwoMode:
    def test_vacuum_is_separable(self):
        assert log_negativity_2mode(vacuum_cm(2)) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_tmsv_value(self, r):
        assert log_negativity_2mode(tmsv_cm(r)) == pytest.approx(2 * r, abs=1e-12)
        assert log_negativity_2mode_pt(tmsv_cm(r)) == pytest.approx(2 * r, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_both_code_paths_agree(self, seed):
        rng = np.random.default_rng(500 + seed)
        cov = random_physical_cm(rng, 2)
        assert log_negativity_2mode(cov) == pytest.approx(
            log_negativity_2mode_pt(cov), abs=1e-10)

    def test_system_output_entanglement_structure(self):
        cov = steady_state_covariance(default_params(epsilon=0.0))
        assert log_negativity_2mode(extract_submatrix(cov, [1, 2])) > 0
        assert log_negativity_2mode(extract_submatrix(cov, [0, 2])) == 0.0
        assert log_negativity_2mode(extract_submatrix(cov, [0, 1])) == 0.0

    def test_unphysical_input_raises(self):
        with pytest.raises(NegativeDiscriminant):
            log_negativity_2mode(UNPHYSICAL_4X4)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            log_negativity_2mode(vacuum_cm(3))


class TestLogNegativityOneVsTwo:
    def test_vacuum(self):
        for pivot in range(3):
            assert log_negativity_1v2(vacuum_cm(3), pivot) == 0.0

    def test_tmsv_with_spectator(self):
        r = 0.5
        cov = np.block([
            [tmsv_cm(r), np.zeros((4, 2))],
            [np.zeros((2, 4)), vacuum_cm(1)],
        ])
        assert log_negativity_1v2(cov, 0) == pytest.approx(2 * r, abs=1e-12)
        assert log_negativity_1v2(cov, 2) == 0.0

    def test_feedback_generates_one_vs_two_entanglement(self):
        cov = steady_state_covariance(default_params(epsilon=0.9))
        assert log_negativity_1v2(cov, 2) > 0


class TestContangle:
    def test_values(self):
        assert contangle(0.0) == 0.0
        assert contangle(1.0) == 1.0
        r = 0.3
        assert contangle(log_negativity_2mode(tmsv_cm(r))) == pytest.approx(
            4 * r**2, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            contangle(-0.1)


class TestResidualContangle:
    def test_vacuum(self):
        for pivot in range(3):
            assert residual_contangle(vacuum_cm(3), pivot) == 0.0
        assert min_residual_contangle(vacuum_cm(3)) == 0.0

    def test_bipartite_only_state_has_no_residual(self):
        cov = np.block([
            [tmsv_cm(0.5), np.zeros((4, 2))],
            [np.zeros((2, 4)), vacuum_cm(1)],
        ])
        for pivot in range(3):
            assert residual_contangle(cov, pivot) == pytest.approx(0.0, abs=1e-9)

    def test_monogamy_holds_without_feedback(self):
        for temperature in (0.0, 0.05, 0.3):
            cov = steady_state_covariance(
                default_params(epsilon=0.0, temperature=temperature))
            assert min_residual_contangle(cov) >= -1e-10


class TestGaussianSteering:
    def test_product_state_cannot_steer(self):
        assert gaussian_steering(vacuum_cm(2), Bipartition((0,), (1,))) == 0.0
        assert gaussian_steering(vacuum_cm(2), Bipartition((1,), (0,))) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_tmsv_closed_form(self, r):
        cov = tmsv_cm(r)
        expected = math.log(math.cosh(2 * r))
        forward = gaussian_steering(cov, Bipartition((0,), (1,)))
        backward = gaussian_steering(cov, Bipartition((1,), (0,)))
        assert forward == pytest.approx(expected, abs=1e-12)
        assert backward == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_brute_force_blocks(self, seed):
        rng = np.random.default_rng(900 + seed)
        cov = random_physical_cm(rng, 3)
        for split in (((0,), (1,)), ((2,), (0, 1)), ((0, 1), (2,))):
            assert gaussian_steering(cov, Bipartition(*split)) == pytest.approx(
                brute_steering(cov, *split), abs=1e-10)

    def test_spectator_mode_does_not_contribute(self):
        cov = np.block([
            [tmsv_cm(0.5), np.zeros((4, 2))],
            [np.zeros((2, 4)), vacuum_cm(1)],
        ])
        one_to_one = gaussian_steering(cov, Bipartition((0,), (1,)))
        one_to_two = gaussian_steering(cov, Bipartition((0,), (1, 2)))
        assert one_to_two == pytest.approx(one_to_one, abs=1e-12)

    def test_magnon_is_never_steered_at_moderate_temperature(self):
        for temperature in (0.1, 0.3, 0.5):
            cov = steady_state_covariance(
                default_params(epsilon=0.86, temperature=temperature))
            assert gaussian_steering(cov, Bipartition((0,), (2,))) == 0.0
            assert gaussian_steering(cov, Bipartition((1,), (2,))) == 0.0

    def test_steering_implies_entanglement_without_feedback(self):
        for temperature in (0.0, 0.1, 0.25):
            cov = steady_state_covariance(
                default_params(epsilon=0.0, temperature=temperature))
            for a, b in ((0, 1), (0, 2), (1, 2)):
                forward = gaussian_steering(cov, Bipartition((a,), (b,)))
                backward = gaussian_steering(cov, Bipartition((b,), (a,)))
                if forward > 1e-9 or backward > 1e-9:
                    assert log_negativity_2mode(extract_submatrix(cov, [a, b])) > 0


class TestSteeringAsymmetry:
    def test_symmetric_tmsv(self):
        assert steering_asymmetry(tmsv_cm(0.5), 0, 1) == 0.0

    def test_equals_absolute_difference(self):
        rng = np.random.default_rng(77)
        cov = random_physical_cm(rng, 2)
        forward = gaussian_steering(cov, Bipartition((0,), (1,)))
        backward = gaussian_steering(cov, Bipartition((1,), (0,)))
        assert steering_asymmetry(cov, 0, 1) == pytest.approx(
            abs(forward - backward), abs=1e-14)

    def test_bounded_by_ln_two_without_feedback(self):
        for temperature in (0.0, 0.1, 0.3):
            cov = steady_state_covariance(
                default_params(epsilon=0.0, temperature=temperature))
            for a, b in ((0, 1), (0, 2), (1, 2)):
                assert steering_asymmetry(cov, a, b) <= math.log(2) + 1e-9


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
        for pivot in range(3):
            assert steering_monogamy_residuals(vacuum_cm(3), pivot) == (0.0, 0.0)

    def test_holds_without_feedback(self):
        for temperature in (0.0, 0.1, 0.4):
            cov = steady_state_covariance(
                default_params(epsilon=0.0, temperature=temperature))
            for pivot in range(3):
                out_res, in_res = steering_monogamy_residuals(cov, pivot)
                assert out_res >= -1e-10
                assert in_res >= -1e-10

    def test_trivial_at_high_temperature(self):
        cov = steady_state_covariance(
            default_params(epsilon=0.86, temperature=10.0,
                           diffusion_mode="consistent"))
        for pivot in range(3):
            assert steering_monogamy_residuals(cov, pivot) == (0.0, 0.0)


class TestCorrelationReport:
    def test_flat_keys_are_complete_and_stable(self):
        cov = steady_state_covariance(default_params(epsilon=0.0))
        flat = correlation_report(cov).to_flat_dict()
        assert set(flat) == set(MEASURE_KEYS)

    def test_report_values_match_direct_calls(self):
        cov = steady_state_covariance(default_params(epsilon=0.0))
        flat = correlation_report(cov).to_flat_dict()
        assert flat["LN_qm"] == log_negativity_2mode(extract_submatrix(cov, [1, 2]))
        assert flat["G_q_to_c"] == gaussian_steering(cov, Bipartition((1,), (0,)))
        assert flat["G_qm_to_c"] == gaussian_steering(cov, Bipartition((1, 2), (0,)))
        assert flat["R_min"] == min_residual_contangle(cov)
        assert flat["class_qm"] in ("no_way", "one_way_ab", "one_way_ba",
                                    "two_way_asymmetric", "two_way_symmetric")

    @pytest.mark.parametrize("seed", range(3))
    def test_report_residuals_match_standalone_operations(self, seed):
        rng = np.random.default_rng(300 + seed)
        cov = random_physical_cm(rng, 3)
        flat = correlation_report(cov).to_flat_dict()
        for pivot, label in enumerate("cqm"):
            out_res, in_res = steering_monogamy_residuals(cov, pivot)
            assert flat[f"mono_out_{label}"] == pytest.approx(out_res, abs=1e-14)
            assert flat[f"mono_in_{label}"] == pytest.approx(in_res, abs=1e-14)
            assert flat[f"R_{label}"] == pytest.approx(
                residual_contangle(cov, pivot), abs=1e-14)

    def test_mode_relabelling_covariance(self):
        # permuting the modes of the state and renaming the measures must agree
        rng = np.random.default_rng(11)
        cov = random_physical_cm(rng, 3)
        flat = correlation_report(cov).to_flat_dict()

        # swap the roles of the second and third modes (q <-> m)
        perm = [0, 2, 1]
        idx = [q for m in perm for q in (2 * m, 2 * m + 1)]
        swapped = correlation_report(cov[np.ix_(idx, idx)]).to_flat_dict()

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
        barely = tmsv_cm(1e-13)
        assert log_negativity_2mode(barely) == 0.0
