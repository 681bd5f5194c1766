import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnonsteer import (
    SingularSystem,
    SpecError,
    UnstableDrift,
    default_params,
    derive,
    params_from_dict,
    params_from_json,
    run_point,
    run_sweep,
    steady_state_covariance,
)
from magnonsteer.gaussian import (
    assert_stable,
    covariance_blocks,
    solve_lyapunov,
    solve_lyapunov_stack,
)
from magnonsteer.model import (
    DEFAULT_DOCUMENT,
    DIFFUSION_MODES,
    HBAR,
    KB,
    NUMERIC_FIELDS,
    SPEED_OF_LIGHT,
    TWO_PI,
    _transmittance,
    build_blocks,
    build_diffusion,
    build_drift,
    effective_coupling,
    intracavity_photon_number,
    optomagnonic_coupling,
    param_columns,
    thermal_occupation,
)
from magnonsteer.sweep import Axis, SweepSpec, grid_points

from test_cli import UNREADABLE_JSON


class TestThermalOccupation:
    def test_zero_temperature_is_exactly_zero(self):
        assert thermal_occupation(TWO_PI * 1e9, 0.0) == 0.0

    def test_unit_occupation_point(self):
        # hbar omega / kB T = ln 2  <=>  N = 1 / (2 - 1) = 1
        omega = TWO_PI * 1e9
        temperature = HBAR * omega / (KB * math.log(2.0))
        assert thermal_occupation(omega, temperature) == pytest.approx(1.0, rel=1e-12)

    def test_magnon_occupation_at_ten_millikelvin(self):
        omega = TWO_PI * 2.8e9
        expected = 1.0 / (math.exp(HBAR * omega / (KB * 0.01)) - 1.0)
        value = thermal_occupation(omega, 0.01)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(1.45e-6, rel=0.02)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 7.3])
    def test_depends_only_on_ratio(self, scale):
        omega, temperature = TWO_PI * 3.1e9, 0.17
        assert thermal_occupation(omega, temperature) == pytest.approx(
            thermal_occupation(scale * omega, scale * temperature), rel=1e-12)

    def test_monotone_in_temperature(self):
        omega = TWO_PI * 2.8e9
        values = [thermal_occupation(omega, t) for t in np.linspace(0.0, 2.0, 40)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_huge_ratio_underflows_to_zero(self):
        assert thermal_occupation(TWO_PI * 1e15, 1e-3) == 0.0

    def test_subnormal_temperature_is_zero_occupation(self):
        assert thermal_occupation(TWO_PI * 8e9, 5e-324) == 0.0
        assert run_point(default_params(temperature=5e-324)).status == "ok"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            thermal_occupation(-1.0, 1.0)
        with pytest.raises(ValueError):
            thermal_occupation(1e9, -0.1)
        # and so do arrays with one negative entry
        with pytest.raises(ValueError):
            thermal_occupation(np.array([1e9, -1.0]), 1.0)
        with pytest.raises(ValueError):
            thermal_occupation(1e9, np.array([0.1, -0.1]))


class TestCouplings:
    def test_bare_coupling_formula(self):
        params = default_params()
        volume = 4.0 * math.pi / 3.0 * params.sphere_radius**3
        expected = (params.verdet * SPEED_OF_LIGHT / params.refractive_index
                    * math.sqrt(2.0 / (params.spin_density * volume)))
        value = optomagnonic_coupling(params)
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(2.46e2, rel=0.01)

    def test_scaling_with_sphere_radius(self):
        params = default_params()
        doubled = params.replace(sphere_radius=2 * params.sphere_radius)
        ratio = optomagnonic_coupling(doubled) / optomagnonic_coupling(params)
        assert ratio == pytest.approx(2 ** -1.5, rel=1e-12)

    def test_scaling_with_spin_density(self):
        params = default_params()
        dense = params.replace(spin_density=4 * params.spin_density)
        assert optomagnonic_coupling(dense) == pytest.approx(
            optomagnonic_coupling(params) / 2, rel=1e-12)

    def test_effective_coupling_magnitude(self):
        value = effective_coupling(default_params())
        assert value == pytest.approx(17.35e6, rel=0.01)

    def test_effective_coupling_scales_as_sqrt_power(self):
        params = default_params()
        boosted = params.replace(drive_power=4 * params.drive_power)
        assert effective_coupling(boosted) == pytest.approx(
            2 * effective_coupling(params), rel=1e-12)

    def test_effective_coupling_vanishes_without_drive(self):
        assert effective_coupling(default_params().replace(drive_power=0.0)) == 0.0

    def test_photon_number(self):
        params = default_params()
        omega_drive = TWO_PI * SPEED_OF_LIGHT / params.drive_wavelength
        expected = 2 * params.drive_power / (params.kappa_c * HBAR * omega_drive)
        assert intracavity_photon_number(params) == pytest.approx(expected, rel=1e-14)
        assert expected > 0


class TestDerive:
    def test_magnon_frequency(self):
        params = default_params()
        derived = derive(params)
        assert derived.omega_m == params.gyromagnetic_ratio * params.B0
        assert derived.omega_m == pytest.approx(TWO_PI * 2.8e9, rel=1e-12)

    def test_transmissivity_identity(self):
        for eps in (0.0, 0.3, 0.86, 0.999):
            params = default_params(epsilon=eps)
            assert _transmittance(params) + params.epsilon**2 == pytest.approx(1.0, abs=1e-15)

    def test_occupations_ordered_by_frequency(self):
        derived = derive(default_params(temperature=0.2))
        assert derived.N_m > derived.N_c > derived.N_q > 0

    def test_negative_feedback_damping_does_not_warn(self):
        params = default_params(epsilon=0.6, theta=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert derive(params).k_fb < 0

    def test_negative_feedback_damping_can_still_have_a_steady_state(self):
        # k_fb < 0, yet the drift passes the Hurwitz gate, which alone
        # decides whether a steady state exists
        params = default_params(epsilon=0.5475, theta=5.8686, temperature=0.045,
                                g_q_ratio=2.94)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert derive(params).k_fb < 0
            result = run_point(params)
        assert result.status == "ok"
        assert result.min_symplectic_eig > 0.5


class TestBuildDrift:
    def test_no_feedback_cavity_damping(self):
        params = default_params(epsilon=0.0)
        drift = build_drift(params)
        assert drift[0, 0] == -params.kappa_c
        assert drift[1, 1] == -params.kappa_c

    def test_feedback_damping_at_pi(self):
        params = default_params(epsilon=0.86, theta=math.pi)
        drift = build_drift(params)
        assert drift[0, 0] == pytest.approx(-2.72 * params.kappa_c, rel=1e-12)

    def test_sparsity_pattern(self):
        params = default_params(epsilon=0.3)
        drift = build_drift(params)
        pattern = np.array([
            [1, 0, 0, 1, 0, 1],
            [0, 1, 1, 0, 1, 0],
            [0, 1, 1, 0, 0, 0],
            [1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 0],
            [1, 0, 0, 0, 0, 1],
        ], dtype=bool)
        assert np.array_equal(drift != 0, pattern)

    def test_qubit_decouples_without_coupling(self):
        params = default_params(g_q=0.0)
        drift = build_drift(params)
        qubit_rows = drift[2:4, :]
        assert np.count_nonzero(qubit_rows) == 2
        assert drift[2, 2] == drift[3, 3] == -params.gamma_q
        assert drift[0, 3] == drift[1, 2] == 0.0

    def test_independent_of_temperature(self):
        cold = build_drift(default_params(temperature=0.0))
        hot = build_drift(default_params(temperature=5.0))
        assert np.array_equal(cold, hot)

    def test_parametric_and_beamsplitter_signs(self):
        params = default_params()
        derived = derive(params)
        drift = build_drift(params, derived)
        assert drift[0, 3] == params.g_q
        assert drift[3, 0] == -params.g_q
        assert drift[0, 5] == -derived.g_m_eff
        assert drift[5, 0] == -derived.g_m_eff


class TestBuildDiffusion:
    def test_no_feedback_zero_temperature(self):
        params = default_params(epsilon=0.0, temperature=0.0)
        diffusion = build_diffusion(params)
        expected = np.diag([params.kappa_c, params.kappa_c,
                            params.gamma_q, params.gamma_q,
                            params.kappa_m, params.kappa_m])
        assert np.allclose(diffusion, expected, rtol=1e-15)

    def test_paper_mode_cavity_factor(self):
        params = default_params(epsilon=0.86, diffusion_mode="paper")
        expected = (1 - 0.86**2) * (1 - 0.86) ** 2
        assert derive(params).w_c == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(5.10e-3, rel=1e-2)

    def test_consistent_mode_cavity_factor(self):
        params = default_params(epsilon=0.86, theta=math.pi,
                                diffusion_mode="consistent")
        expected = (1 - 0.86**2) * (1 + 0.86) ** 2
        assert derive(params).w_c == pytest.approx(expected, rel=1e-12)

    def test_modes_agree_without_feedback(self):
        paper = build_diffusion(default_params(epsilon=0.0, diffusion_mode="paper"))
        consistent = build_diffusion(
            default_params(epsilon=0.0, diffusion_mode="consistent"))
        assert np.array_equal(paper, consistent)

    def test_independent_of_couplings(self):
        weak = build_diffusion(default_params(g_q=1e5))
        strong = build_diffusion(default_params(g_q=1e8))
        assert np.array_equal(weak, strong)

    def test_diagonal_and_monotone_in_temperature(self):
        previous = None
        for temperature in np.linspace(0.0, 1.0, 12):
            diffusion = build_diffusion(default_params(temperature=temperature))
            assert np.count_nonzero(diffusion - np.diag(np.diag(diffusion))) == 0
            assert np.all(np.diag(diffusion) > 0)
            if previous is not None:
                assert np.all(np.diag(diffusion) >= np.diag(previous))
            previous = diffusion


class TestInputOutputMode:
    """The exactly eliminated feedback loop: damping and noise share one weight."""

    PHASES = np.linspace(0.0, TWO_PI, 25)

    def test_damping_and_noise_weight(self):
        params = default_params(epsilon=0.86, theta=math.pi,
                                diffusion_mode="input_output")
        expected = (1 - 0.86**2) / (1 - 0.86) ** 2
        assert derive(params).w_c == pytest.approx(expected, rel=1e-12)
        assert derive(params).k_fb == pytest.approx(expected * params.kappa_c, rel=1e-12)

    @pytest.mark.parametrize("epsilon", [0.3, 0.86])
    def test_isolated_cavity_relaxes_to_thermal_state(self, epsilon):
        for theta in self.PHASES:
            params = default_params(epsilon=epsilon, theta=float(theta),
                                    temperature=0.2, drive_power=0.0, g_q=0.0,
                                    diffusion_mode="input_output")
            thermal = derive(params).N_c + 0.5
            cavity = steady_state_covariance(params)[:2, :2]
            assert np.allclose(cavity, thermal * np.eye(2), rtol=1e-12, atol=0.0)

    def test_damping_matches_paper_to_first_order(self):
        for epsilon in (1e-1, 1e-2, 1e-3):
            for theta in self.PHASES:
                exact = default_params(epsilon=epsilon, theta=float(theta),
                                       diffusion_mode="input_output")
                first_order = exact.replace(diffusion_mode="paper")
                gap = derive(exact).k_fb - derive(first_order).k_fb
                assert abs(gap) <= 3.0 * epsilon**2 * exact.kappa_c

    def test_damping_positive_without_warning_at_every_phase(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for epsilon in (0.3, 0.6, 0.86, 0.99):
                for theta in self.PHASES:
                    params = default_params(epsilon=epsilon, theta=float(theta),
                                            diffusion_mode="input_output")
                    assert derive(params).k_fb > 0


NEAR_UNIT_EPSILONS = tuple(1.0 - 10.0**-k for k in range(1, 17))
NEAR_UNIT_PHASES = (math.pi, 0.0, 2.0)


class TestReflectivityNearOne:
    """epsilon = 1 - 10^-k, k = 1..16, where 1 + 2 epsilon cos theta + epsilon^2
    cancels at theta = pi and 1 - epsilon^2 loses its digits."""

    @pytest.mark.parametrize("mode", DIFFUSION_MODES)
    def test_every_row_is_ok_or_unstable(self, mode):
        for theta in NEAR_UNIT_PHASES:
            spec = SweepSpec(base=default_params(theta=theta, diffusion_mode=mode),
                             axis1=Axis("epsilon", values=NEAR_UNIT_EPSILONS))
            rows = run_sweep(spec)
            assert len(rows) == len(NEAR_UNIT_EPSILONS)
            for row in rows:
                assert row["status"] in ("ok", "unstable"), (theta, row["epsilon"])
                if row["status"] == "ok":
                    assert all(math.isfinite(row[key]) for key in spec.outputs
                               if not key.startswith("class_"))

    def test_input_output_weight_matches_mpmath(self):
        worst = 0.0
        with mpmath.workdps(50):
            for theta in NEAR_UNIT_PHASES:
                for epsilon in NEAR_UNIT_EPSILONS:
                    params = default_params(epsilon=epsilon, theta=theta,
                                            diffusion_mode="input_output")
                    eps, phase = mpmath.mpf(params.epsilon), mpmath.mpf(params.theta)
                    weight = (1 - eps**2) / (1 + 2 * eps * mpmath.cos(phase) + eps**2)
                    for got, want in ((derive(params).w_c, weight),
                                      (derive(params).k_fb,
                                       mpmath.mpf(params.kappa_c) * weight)):
                        worst = max(worst, float(abs(mpmath.mpf(got) / want - 1)))
        assert worst <= 1e-12


X_PRIME = [0, 3, 5]  # X_c, Y_q, Y_m
P_PRIME = [1, 2, 4]  # Y_c, -X_q, -X_m


class TestPhaseCovariantSplit:
    """The model never couples x' with p', which the block pipeline relies on."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(epsilon=st.floats(0.0, 0.95), theta=st.floats(0.0, TWO_PI),
           temperature=st.floats(0.0, 1.0), g_q_ratio=st.floats(0.5, 3.0),
           mode=st.sampled_from(DIFFUSION_MODES))
    def test_drift_diffusion_and_steady_state_split(self, epsilon, theta, temperature,
                                                    g_q_ratio, mode):
        params = default_params(epsilon=epsilon, theta=theta, temperature=temperature,
                                g_q_ratio=g_q_ratio, diffusion_mode=mode)
        derived = derive(params)
        drift = build_drift(params, derived)
        diffusion = build_diffusion(params, derived)
        assert not drift[np.ix_(X_PRIME, P_PRIME)].any()
        assert not drift[np.ix_(P_PRIME, X_PRIME)].any()
        # Q_p = S Q_x S with S = diag(1, 1, -1), in the signed p' quadratures
        sign = np.diag([1.0, -1.0, -1.0])
        flip = np.diag([1.0, 1.0, -1.0])
        q_x = drift[np.ix_(X_PRIME, X_PRIME)]
        q_p = sign @ drift[np.ix_(P_PRIME, P_PRIME)] @ sign
        assert np.array_equal(q_p, flip @ q_x @ flip)
        assert np.array_equal(diffusion, np.diag(np.diag(diffusion)))
        # the pipeline's stage takes exactly these x' blocks
        assert np.array_equal(covariance_blocks(np.stack([drift, diffusion]))[:, 0],
                              build_blocks(params, derived))

        try:
            cov = steady_state_covariance(params)
            generic = solve_lyapunov(drift, diffusion)  # the 6x6 solve, no split assumed
        except (UnstableDrift, SingularSystem):
            return
        for solved in (cov, generic):
            assert not solved[np.ix_(X_PRIME, P_PRIME)].any()
            assert not solved[np.ix_(P_PRIME, X_PRIME)].any()
        assert np.allclose(cov, generic, rtol=1e-9, atol=1e-12 * np.abs(generic).max())

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(epsilon=st.floats(0.0, 0.95), theta=st.floats(0.0, TWO_PI),
           temperature=st.floats(0.0, 1.0), g_q_ratio=st.floats(0.5, 3.0),
           mode=st.sampled_from(DIFFUSION_MODES))
    def test_p_block_solve_is_the_mirror_of_the_x_block_solve(self, epsilon, theta,
                                                               temperature, g_q_ratio,
                                                               mode):
        # the pipeline solves only V_x and takes V_p = S V_x S and r_p = r_x
        params = default_params(epsilon=epsilon, theta=theta, temperature=temperature,
                                g_q_ratio=g_q_ratio, diffusion_mode=mode)
        derived = derive(params)
        drift, diffusion = covariance_blocks(np.stack([build_drift(params, derived),
                                                       build_diffusion(params, derived)]))
        cov, residual = solve_lyapunov_stack(drift, diffusion)
        flip = np.diag([1.0, 1.0, -1.0])
        assert np.array_equal(cov[1], flip @ cov[0] @ flip)
        assert residual[1] == residual[0]


class TestStability:
    def test_default_point_is_stable(self):
        assert_stable(build_drift(default_params(epsilon=0.0)))

    def test_identity_drift_is_stable(self):
        assert_stable(-np.eye(6))

    def test_runaway_parametric_gain(self):
        # drive power boosted until the two-mode-squeezing rate dwarfs damping
        params = default_params(drive_power=1e4, g_q=0.2e6)
        with pytest.raises(UnstableDrift) as info:
            assert_stable(build_drift(params))
        assert info.value.max_real_part > 0


class TestParameterIngestion:
    def test_defaults_round_trip(self):
        params = params_from_dict({})
        assert params.kappa_c == pytest.approx(TWO_PI * 5e6)
        assert params.omega_c == pytest.approx(TWO_PI * 8.35e9)
        assert params.gyromagnetic_ratio == pytest.approx(TWO_PI * 28e9)
        assert params.temperature == 10e-3
        assert params.theta == math.pi
        assert params.diffusion_mode == "paper"

    def test_default_qubit_coupling_tracks_effective_coupling(self):
        params = params_from_dict({})
        assert params.g_q == pytest.approx(2.0 * effective_coupling(params), rel=1e-12)

    def test_hz_conversion_applies_to_rates(self):
        params = params_from_dict({"kappa_m": 2e6})
        assert params.kappa_m == pytest.approx(TWO_PI * 2e6)

    def test_direct_coupling_overrides_ratio_default(self):
        params = params_from_dict({"g_q": 3e6})
        assert params.g_q == pytest.approx(TWO_PI * 3e6)

    def test_ratio_key(self):
        params = params_from_dict({"g_q_ratio": 1.5})
        assert params.g_q == pytest.approx(1.5 * effective_coupling(params), rel=1e-12)

    def test_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown parameter keys"):
            params_from_dict({"kappa_x": 1.0})

    def test_rejects_coupling_conflict(self):
        with pytest.raises(SpecError, match="either g_q or g_q_ratio"):
            params_from_dict({"g_q": 1e6, "g_q_ratio": 2.0})

    def test_rejects_bad_reflectivity(self):
        with pytest.raises(SpecError):
            params_from_dict({"epsilon": 1.0})

    def test_rejects_bad_diffusion_mode(self):
        with pytest.raises(SpecError):
            params_from_dict({"diffusion_mode": "exact"})

    def test_rejects_non_numeric(self):
        with pytest.raises(SpecError):
            params_from_dict({"kappa_c": "fast"})
        # a point built directly reads each value as a document does
        for field in NUMERIC_FIELDS:
            for value in (True, "0.5", None, 10**400):
                with pytest.raises(SpecError) as from_document:
                    params_from_dict({field: value})
                with pytest.raises(SpecError) as direct:
                    default_params().replace(**{field: value})
                assert str(direct.value) == str(from_document.value), (field, value)

    def test_json_wrapper(self):
        params = params_from_json(json.dumps({"temperature": 0.2}))
        assert params.temperature == 0.2
        with pytest.raises(SpecError):
            params_from_json("not json")
        with pytest.raises(SpecError):
            params_from_json("[1, 2]")
        # the nested and the long-integer texts json itself cannot read
        for content in UNREADABLE_JSON[1:]:
            with pytest.raises(SpecError):
                params_from_json(content.decode())

    def test_document_covers_every_field(self):
        # every SystemParams field except g_q is named in the default document
        from dataclasses import fields
        from magnonsteer import SystemParams

        names = {f.name for f in fields(SystemParams)}
        assert names - set(DEFAULT_DOCUMENT) == {"g_q"}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(NUMERIC_FIELDS),
       value=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(-10**6, 10**6).map(float)))
def test_direct_construction_reads_every_number_alike(field, value):
    # a Python float, a numpy float64 and (for an integral value) an int of the
    # same value give equal points that hold only Python floats, or one error
    base = default_params()
    kinds = [value, np.float64(value)] + ([int(value)] if value.is_integer() else [])
    points, errors = [], []
    for kind in kinds:
        try:
            points.append(base.replace(**{field: kind}))
        except SpecError as exc:
            errors.append(str(exc))
    if errors:
        assert not points and len(errors) == len(kinds) and len(set(errors)) == 1
        return
    assert all(point == points[0] for point in points)
    assert repr(points[1]) == repr(points[0])
    for point in points:
        assert all(type(getattr(point, name)) is float for name in NUMERIC_FIELDS)


# 2-D grids over fields the presets leave at their defaults: (axis1 field,
# its values, axis2 field, its values), in internal units
COLUMN_GRIDS = [
    ("temperature", tuple(np.linspace(0.0, 1.5, 31)), "epsilon", (0.0, 0.3, 0.86, 0.95)),
    ("B0", tuple(np.linspace(0.05, 0.2, 7)), "sphere_radius", (60e-6, 100e-6, 250e-6)),
    ("kappa_c", tuple(TWO_PI * np.linspace(1e6, 10e6, 7)), "drive_power",
     (0.0, 1e-3, 10e-3, 30e-3)),
    ("omega_q", tuple(TWO_PI * np.linspace(8.3e9, 8.6e9, 7)), "theta",
     (0.0, 1.0, math.pi, 5.0)),
    ("epsilon", NEAR_UNIT_EPSILONS, "temperature", (0.0, 1e-3, 0.4)),
    ("spin_density", tuple(np.linspace(1e27, 1e29, 7)), "drive_wavelength",
     (400e-9, 1064e-9, 1550e-9, 10e-6)),
    ("verdet", tuple(np.linspace(50.0, 1000.0, 7)), "refractive_index", (1.0, 1.5, 2.19, 3.5)),
]


class TestParamColumns:
    """A grid built as columns is its points built one at a time, bit for bit."""

    @pytest.mark.parametrize("mode", DIFFUSION_MODES)
    @pytest.mark.parametrize("grid", COLUMN_GRIDS, ids=[f"{g[0]}-{g[2]}" for g in COLUMN_GRIDS])
    def test_grid_blocks_are_the_per_point_blocks(self, grid, mode):
        name1, values1, name2, values2 = grid
        spec = SweepSpec(base=default_params(epsilon=0.5, diffusion_mode=mode),
                         axis1=Axis(name1, values=values1), axis2=Axis(name2, values=values2))
        columns = param_columns(spec.base, {name1: spec.axis1.grid(),
                                            name2: spec.axis2.grid()[:, None]})
        stack = build_blocks(columns).reshape(-1, 2, 3, 3)
        assert np.array_equal(stack, np.stack([build_blocks(p) for p in grid_points(spec)]))

    def test_fields_off_the_axes_stay_floats(self):
        base = default_params()
        columns = param_columns(base, {"temperature": np.array([0.0, 0.1])})
        assert columns.kappa_c == base.kappa_c and type(columns.kappa_c) is float
        # a numpy scalar given to a point is stored as the Python float it holds
        single = base.replace(epsilon=np.float32(0.5))
        assert all(type(getattr(single, name)) is float for name in NUMERIC_FIELDS)
        def bits(params):  # JSON floats read back to the same bits
            result = run_point(params)
            return json.dumps([result.to_flat_dict(), result.status, result.reason,
                               result.max_real_part])
        assert bits(single) == bits(base.replace(epsilon=0.5))
        assert derive(columns).N_c.tolist() == [
            derive(base.replace(temperature=t)).N_c for t in (0.0, 0.1)]
        # the occupations of a temperature column are those of its points, bit
        # for bit, at T = 0, at a subnormal T and on both sides of each mode's
        # x = hbar omega / kB T = 700, where the occupation becomes exactly zero
        omegas = {"N_c": base.omega_c, "N_q": base.omega_q,
                  "N_m": base.gyromagnetic_ratio * base.B0}
        cutoffs = {name: HBAR * omega / KB / 700.0 for name, omega in omegas.items()}
        edges = [0.0, 5e-324, 0.1]
        for cutoff in cutoffs.values():
            edges += [cutoff * (1 - 1e-9), np.nextafter(cutoff, 0.0), cutoff,
                      np.nextafter(cutoff, 1.0), cutoff * (1 + 1e-9)]
        grid = derive(param_columns(base, {"temperature": np.array(edges)}))
        for name, omega in omegas.items():
            occupations = [thermal_occupation(omega, float(t)) for t in edges]
            assert [n.hex() for n in getattr(grid, name).tolist()] == [
                n.hex() for n in occupations], name
            below, above = (thermal_occupation(omega, cutoffs[name] * (1 + sign * 1e-9))
                            for sign in (-1, 1))
            assert below == 0.0 < above, name
        # an empty axis is an empty grid
        empty = param_columns(base, {"temperature": np.array([])})
        assert build_blocks(empty).shape == (0, 2, 3, 3)
        # but not one with an invalid value on another axis
        with pytest.raises(SpecError, match=r"epsilon must lie in \[0, 1\)"):
            param_columns(base, {"temperature": [], "epsilon": [2.0]})
        # a grid of one point is that point, in one dimension or two
        assert param_columns(base, {"temperature": [0.1]}) == base.replace(temperature=0.1)
        assert (param_columns(base, {"temperature": [0.1], "epsilon": np.array([[0.5]])})
                == base.replace(temperature=0.1, epsilon=0.5))


# parameter documents whose derived quantities underflow a denominator to
# zero, with the field each one sweeps in a grid and that field's value
UNDERFLOWING = [
    ({"kappa_c": 1e-300, "g_q": 1e6}, "kappa_c"),        # kappa_c hbar Omega
    ({"sphere_radius": 1e-200, "g_q": 1e6}, "sphere_radius"),  # the sphere volume
    ({"B0": 1e-320}, "B0"),                               # hbar omega_m / kB
    ({"B0": 1e-3, "gyromagnetic_ratio": 5e-324}, "gyromagnetic_ratio"),  # omega_m itself
]


class TestUnderflowingDenominators:
    """A denominator that underflows to zero gives inf, on a point and on a grid alike."""

    def test_scalar_quotients_are_inf(self):
        assert thermal_occupation(1e-300, 1.0) == math.inf
        # omega = 0, the limit omega -> 0+
        assert thermal_occupation(0.0, 1.0) == math.inf and thermal_occupation(0.0, 0.0) == 0.0
        starved = default_params(kappa_c=1e-300, g_q=1e6)
        assert intracavity_photon_number(starved) == math.inf
        assert effective_coupling(starved) == math.inf
        assert math.isnan(intracavity_photon_number(starved.replace(drive_power=0.0)))
        assert optomagnonic_coupling(default_params(sphere_radius=1e-200, g_q=1e6)) == math.inf
        assert derive(default_params(B0=1e-320)).N_m == math.inf

    @pytest.mark.parametrize("document, field", UNDERFLOWING, ids=[f for _, f in UNDERFLOWING])
    def test_grid_matches_its_points(self, document, field):
        extreme = default_params(**document)
        base = extreme.replace(**{field: getattr(default_params(), field)})
        values = np.array([getattr(base, field), getattr(extreme, field)])
        grid = derive(param_columns(base, {field: values}))
        for index, point in enumerate((base, extreme)):
            alone = derive(point)
            for name in ("g_m_eff", "N_c", "N_q", "N_m"):
                got = np.broadcast_to(getattr(grid, name), values.shape)[index]
                assert np.array_equal(got, getattr(alone, name)), name
        assert math.isinf(derive(extreme).g_m_eff) or math.isinf(derive(extreme).N_m)

    @pytest.mark.parametrize("document", [{"kappa_c": 1e-300}, {"sphere_radius": 1e-200}])
    def test_infinite_coupling_ratio_is_a_spec_error(self, document):
        with pytest.raises(SpecError, match="parameter g_q must be finite"):
            params_from_dict(document)

    def test_points_are_unstable_rows(self):
        for document, reason in (({"kappa_c": 1e-300, "g_q": 1e6}, "gate"),
                                 ({"sphere_radius": 1e-200, "g_q": 1e6}, "gate"),
                                 ({"B0": 1e-320}, "residual"),
                                 ({"B0": 1e-3, "gyromagnetic_ratio": 5e-324}, "residual")):
            result = run_point(default_params(**document))
            assert (result.status, result.reason) == ("unstable", reason), document
        # an infinite drift entry has no eigenvalues to report
        assert math.isnan(run_point(default_params(kappa_c=1e-300, g_q=1e6)).max_real_part)


class TestOverflowingSphereVolume:
    """A sphere volume that overflows is inf, so the bare coupling is zero, not an OverflowError."""

    def test_point_and_grid(self):
        huge = default_params(sphere_radius=1e200)
        assert optomagnonic_coupling(huge) == 0.0
        assert derive(huge).g_m_eff == 0.0
        # the same radius as a numpy scalar, which overflowed with a warning
        assert derive(default_params().replace(sphere_radius=np.float64(1e200))).g_m_eff == 0.0
        radii = np.array([1e-4, 2.5e-4, 1e200])
        grid = optomagnonic_coupling(param_columns(default_params(), {"sphere_radius": radii}))
        assert grid.tolist() == [optomagnonic_coupling(default_params(sphere_radius=r))
                                 for r in radii.tolist()]

    def test_normal_radii_keep_every_bit(self):
        for radius in (1e-6, 1e-4, 2.5e-4, 1e-2, 1e100):
            volume = (4.0 * math.pi / 3.0) * pow(radius, 3)
            params = default_params(sphere_radius=radius)
            assert optomagnonic_coupling(params) == (
                params.verdet * SPEED_OF_LIGHT / params.refractive_index
                * math.sqrt(2.0 / (params.spin_density * volume)))


@pytest.mark.parametrize("wavelength", [0.0, -1.0, -1550e-9])
def test_drive_wavelength_must_be_positive(wavelength):
    with pytest.raises(SpecError, match="parameter drive_wavelength must be positive"):
        params_from_dict({"drive_wavelength": wavelength})
    with pytest.raises(SpecError, match="drive_wavelength must be positive"):
        param_columns(default_params(), {"drive_wavelength": np.array([1550e-9, wavelength])})
