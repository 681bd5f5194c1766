import dataclasses
import math
import re

import numpy as np
import pytest

from magnonsteer import (
    NoCrossing,
    NonMonotone,
    SingularSystem,
    SpecError,
    UnknownPreset,
    UnstableDrift,
    correlation_report,
    default_params,
    derive,
    find_threshold,
    format_csv,
    preset,
    run_point,
    run_sweep,
    spec_from_dict,
    steady_state_covariance,
    sweep_columns,
)
from magnonsteer.gaussian import (
    STABILITY_TOL,
    mirror_pairs,
    solve_lyapunov,
    steady_state_blocks,
)
from magnonsteer.measures import MEASURE_KEYS
from magnonsteer.model import (
    SystemParams,
    build_blocks,
    build_diffusion,
    build_drift,
    effective_coupling,
    param_columns,
)
from magnonsteer.sweep import (
    DIAGNOSTIC_KEYS,
    MAX_GRID_POINTS,
    PRESET_IDS,
    Axis,
    PointResult,
    SweepSpec,
    grid_points,
)
import magnonsteer.gaussian as gaussian_module
import magnonsteer.sweep as sweep_module

from _oracles import hurwitz_gate, phase_covariant_stack


def small_spec(**axis_kwargs):
    axis = Axis("temperature", **{"start": 0.0, "stop": 0.4, "count": 5, **axis_kwargs})
    return SweepSpec(base=default_params(epsilon=0.0), axis1=axis,
                     outputs=("LN_qm", "LN_cm"))


# find_threshold on each of the 45 numeric outputs of the six one-dimensional
# presets: the threshold, with the number of _evaluate calls behind it (the
# grid, then one per bisection step), or the NoCrossing message. Thresholds
# are pinned to 1e-12 relative, not to their bits, as numpy is not pinned.
_NEVER = "measure never reaches zero inside the window"
_BOTH_ZERO = "measure is zero at both ends of the window"
PRESET_THRESHOLDS = [
    ("fig3a", "LN_cm", _BOTH_ZERO),
    ("fig3a", "LN_cq", _BOTH_ZERO),
    ("fig3a", "LN_qm", (0.20297581658291464, 9)),
    ("fig3b", "LN_cm", _NEVER),
    ("fig3b", "LN_cq", _NEVER),
    ("fig3b", "LN_qm", (0.7303745288944724, 10)),
    ("fig2", "LN_cq", _NEVER),
    ("fig2", "LN_cm", _NEVER),
    ("fig2", "LN_qm", _NEVER),
    ("fig2", "G_c_to_q", (0.2846844083699749, 10)),
    ("fig2", "G_q_to_c", _NEVER),
    ("fig2", "G_c_to_m", (0.03260590059673367, 9)),
    ("fig2", "G_m_to_c", _NEVER),
    ("fig2", "G_q_to_m", (0.08492781289258794, 10)),
    ("fig2", "G_m_to_q", _NEVER),
    ("fig2", "asym_cq", _NEVER),
    ("fig2", "asym_cm", _NEVER),
    ("fig2", "asym_qm", _NEVER),
    ("fig6", "LN_cm", (0.004540770257537689, 9)),
    ("fig6", "LN_cq", (0.025239969378140704, 9)),
    ("fig6", "LN_qm", _NEVER),
    ("fig10", "G_c_to_q", (0.18918125785175877, 10)),
    ("fig10", "G_c_to_m", (0.059544794283919594, 10)),
    ("fig10", "G_c_to_qm", _NEVER),
    ("fig10", "G_m_to_c", _NEVER),
    ("fig10", "G_m_to_q", (0.3631929177135679, 9)),
    ("fig10", "G_m_to_cq", _NEVER),
    ("fig10", "G_q_to_c", _NEVER),
    ("fig10", "G_q_to_m", (0.03948158762562814, 10)),
    ("fig10", "G_q_to_cm", _NEVER),
    ("fig10", "mono_out_c", _NEVER),
    ("fig10", "mono_out_q", _NEVER),
    ("fig10", "mono_out_m", _NEVER),
    ("fig11", "G_q_to_c", _NEVER),
    ("fig11", "G_m_to_c", _NEVER),
    ("fig11", "G_qm_to_c", _NEVER),
    ("fig11", "G_c_to_m", (0.059544794283919594, 10)),
    ("fig11", "G_q_to_m", (0.03948158762562814, 10)),
    ("fig11", "G_cq_to_m", _NEVER),
    ("fig11", "G_c_to_q", (0.18918125785175877, 10)),
    ("fig11", "G_m_to_q", (0.3631929177135679, 9)),
    ("fig11", "G_cm_to_q", _NEVER),
    ("fig11", "mono_in_c", (0.5350639918341709, 9)),
    ("fig11", "mono_in_q", _NEVER),
    ("fig11", "mono_in_m", _NEVER),
]


class TestRunPoint:
    def test_no_feedback_defaults(self):
        flat = run_point(default_params(epsilon=0.0)).to_flat_dict()
        assert flat["status"] == "ok"
        assert flat["LN_qm"] > 0
        assert flat["LN_cm"] == 0.0
        assert flat["LN_cq"] == 0.0

    def test_feedback_entangles_cavity_pairs(self):
        flat = run_point(default_params(epsilon=0.86)).to_flat_dict()
        assert flat["LN_qm"] > 0
        assert flat["LN_cm"] > 0
        assert flat["LN_cq"] > 0

    def test_thermal_death_of_pair_measures(self):
        flat = run_point(default_params(epsilon=0.86, temperature=10.0)).to_flat_dict()
        for a, b in (("c", "q"), ("c", "m"), ("q", "m")):
            assert flat[f"LN_{a}{b}"] == 0.0
            assert flat[f"G_{a}_to_{b}"] == 0.0
            assert flat[f"G_{b}_to_{a}"] == 0.0

    def test_thermal_death_of_every_measure_with_consistent_noise(self):
        flat = run_point(default_params(epsilon=0.86, temperature=10.0,
                                        diffusion_mode="consistent")).to_flat_dict()
        for key, value in flat.items():
            if key.startswith(("LN_", "G_")):
                assert value == 0.0, key

    def test_diagnostics_present(self):
        result = run_point(default_params(epsilon=0.0))
        assert result.lyap_residual is not None and result.lyap_residual >= 0
        assert result.min_symplectic_eig is not None

    def test_unstable_point_is_structured(self):
        result = run_point(default_params(drive_power=1e4, g_q=0.2e6))
        assert result.status == "unstable"
        assert result.measures is None
        assert result.max_real_part > 0
        assert result.reason == "gate"

    def test_measures_are_the_flat_mapping(self):
        params = default_params(epsilon=0.86)
        result = run_point(params)
        assert list(result.measures) == list(MEASURE_KEYS)
        assert result.measures == correlation_report(steady_state_covariance(params))
        assert result.to_flat_dict() == {**result.measures,
                                         "lyap_residual": result.lyap_residual,
                                         "min_symplectic_eig": result.min_symplectic_eig,
                                         "status": "ok"}

    def test_report_is_a_view_of_the_measures(self):
        result = run_point(default_params(epsilon=0.86))
        report = result.report
        assert report.to_flat_dict() == result.measures
        assert report.ln_pairs["qm"] == result.measures["LN_qm"]
        changed = dataclasses.replace(result, report=dataclasses.replace(
            report, asymmetry={**report.asymmetry, "cq": -1.0}))
        assert changed.measures == {**result.measures, "asym_cq": -1.0}
        assert changed.lyap_residual == result.lyap_residual
        flipped = dataclasses.replace(result, status="unstable", report=None)
        assert flipped.measures == result.measures and flipped.status == "unstable"
        assert run_point(default_params(drive_power=1e4, g_q=0.2e6)).report is None
        # report is an InitVar of the dataclass's own constructor: replace
        # without it reads the view back, and it is no field of the result
        assert PointResult.__dataclass_params__.init
        relabelled = dataclasses.replace(result, status="unstable")
        assert relabelled.measures == result.measures
        assert list(relabelled.measures) == list(MEASURE_KEYS)
        assert PointResult("ok").report is None
        assert "report" not in repr(result)
        # a report read from the view never stands in for the measures replace is given
        assert dataclasses.replace(run_point(default_params()),
                                   measures={"LN_qm": 1.0}).measures == {"LN_qm": 1.0}

    def test_unstable_points_skip_the_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("measure_blocks ran with no accepted point")

        monkeypatch.setattr(sweep_module, "measure_blocks", refuse)
        result = run_point(default_params(drive_power=1e4, g_q=0.2e6))
        assert (result.status, result.reason) == ("unstable", "gate")
        spec = spec_from_dict({"base": {"epsilon": 0.9}, "outputs": ["LN_qm", "LN_cm"], "axis1": {
            "param": "theta", "start": 0.0, "stop": 0.5, "count": 8}})
        assert [row["status"] for row in run_sweep(spec)] == ["unstable"] * 8
        columns = sweep_columns(spec)
        values = [columns[key] for key in ("LN_qm", "LN_cm", *DIAGNOSTIC_KEYS)]
        assert all(column == [None] * 8 for column in values)
        assert len({id(column) for column in values}) == len(values)


class TestOneSteadyStatePath:
    def test_run_point_unstable_exactly_where_solve_lyapunov_is(self):
        # find the reflectivity at theta = 0 where the drift crosses the
        # Hurwitz gate's margin, then step across it by a fifth of the margin
        def past_margin(epsilon):
            drift = build_drift(default_params(epsilon=epsilon, theta=0.0))
            max_real, _ = hurwitz_gate(drift)
            return max_real + STABILITY_TOL * np.linalg.norm(drift) >= 0

        lo, hi = 0.45, 0.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if past_margin(mid) else (mid, hi)
        seen = set()
        for step in range(-4, 7):
            params = default_params(epsilon=lo + step * 0.5e-9, theta=0.0)
            derived = derive(params)
            drift = build_drift(params, derived)
            max_real, stable = hurwitz_gate(drift)
            try:
                solve_lyapunov(drift, build_diffusion(params, derived))
                solved = "ok"
            except UnstableDrift:
                solved = "unstable"
            except SingularSystem:
                solved = "singular"
            # a steady state that fails the residual bound is a row status,
            # where solve_lyapunov raises
            status = run_point(params).status
            assert status == ("unstable" if solved == "singular" else solved)
            assert (solved == "unstable") == (not stable)
            seen.add((solved, bool(max_real < 0)))
        assert ("unstable", True) in seen  # decaying, but inside the margin
        assert ("unstable", False) in seen
        assert any(solved != "unstable" for solved, _ in seen)

    def test_steady_state_covariance_is_an_owned_array(self):
        cov = steady_state_covariance(default_params())
        assert cov.shape == (6, 6) and cov.flags.c_contiguous and cov.base is None

    def test_steady_state_covariance_builds_no_block_pair(self, monkeypatch):
        # the 6x6 is written from V_x alone; only the kernel reads the mirror
        points = [default_params(), default_params(epsilon=0.86, diffusion_mode="consistent"),
                  default_params(temperature=0.5, diffusion_mode="input_output")]
        want = [steady_state_covariance(params).tobytes() for params in points]

        def refuse(cov_x):
            raise AssertionError("mirror_pairs ran for steady_state_covariance")

        monkeypatch.setattr(sweep_module, "mirror_pairs", refuse)
        monkeypatch.setattr(gaussian_module, "mirror_pairs", refuse)
        assert [steady_state_covariance(params).tobytes() for params in points] == want

    def test_steady_state_covariance_is_the_pipeline_covariance(self):
        rng = np.random.default_rng(11)
        points = [default_params(epsilon=float(rng.uniform(0.0, 0.95)),
                                 theta=float(rng.uniform(0.0, 2.0 * math.pi)),
                                 temperature=float(rng.uniform(0.0, 1.0)),
                                 g_q_ratio=float(rng.uniform(0.5, 3.0)),
                                 diffusion_mode=("paper", "consistent", "input_output")[k % 3])
                  for k in range(257)]
        system = np.stack([build_blocks(params) for params in points])
        _, reasons, cov, _ = steady_state_blocks(system)
        solved = [params for params, reason in zip(points, reasons) if reason is None]
        assert len(solved) >= 128
        for params, expected in zip(solved, phase_covariant_stack(mirror_pairs(cov))):
            assert steady_state_covariance(params).tobytes() == expected.tobytes()


class TestAxisAndSpec:
    def test_axis_linspace(self):
        axis = Axis("temperature", 0.0, 1.0, 5)
        assert np.allclose(axis.grid(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_axis_explicit_values(self):
        axis = Axis("temperature", values=(1e-4, 0.01, 0.03))
        assert np.allclose(axis.grid(), [1e-4, 0.01, 0.03])

    def test_axis_validation(self):
        with pytest.raises(SpecError):
            Axis("temperature", 0.0, 1.0, 1)
        with pytest.raises(SpecError):
            Axis("temperature", 1.0, 0.0, 5)
        with pytest.raises(SpecError):
            Axis("magic_knob", 0.0, 1.0, 5)
        with pytest.raises(SpecError):
            Axis("diffusion_mode", 0.0, 1.0, 5)
        with pytest.raises(SpecError, match="not both"):
            Axis("temperature", count=3, values=(0.1,))
        with pytest.raises(SpecError, match="non-empty list"):
            Axis("temperature", values=())
        for partial, missing in (({}, "'start', 'stop', 'count'"),
                                 ({"count": 5}, "'start', 'stop'"),
                                 ({"start": 0.1, "count": 5}, "'stop'"),
                                 ({"stop": 0.5, "count": 5}, "'start'")):
            with pytest.raises(SpecError, match=re.escape(f"missing [{missing}]")):
                Axis("temperature", **partial)

    def test_material_parameters_are_sweepable(self):
        spec = SweepSpec(
            base=default_params(epsilon=0.0),
            axis1=Axis("sphere_radius", values=(50e-6, 125e-6, 200e-6)),
            outputs=("LN_qm",),
        )
        rows = run_sweep(spec)
        # a small sphere boosts the parametric coupling past the damping and
        # destabilises the dynamics; bigger spheres entangle ever more weakly
        assert rows[0]["status"] == "unstable"
        assert rows[1]["LN_qm"] > rows[2]["LN_qm"] > 0

    def test_spec_rejects_unknown_outputs(self):
        with pytest.raises(SpecError):
            SweepSpec(base=default_params(), axis1=Axis("temperature", 0.0, 1.0, 3),
                      outputs=("LN_xy",))

    @pytest.mark.parametrize("outputs", ["LN_qm", ["LN_qm", 1], {"LN_qm"}],
                             ids=["string", "non-string key", "set"])
    def test_spec_rejects_outputs_that_are_not_a_list_of_keys(self, outputs):
        # a string is not read as its letters; documents meet the same rule
        message = "sweep outputs must be a list of measure keys"
        with pytest.raises(SpecError, match=message):
            SweepSpec(base=default_params(), axis1=Axis("temperature", 0.0, 1.0, 3),
                      outputs=outputs)
        if not isinstance(outputs, set):  # no JSON document holds a set
            with pytest.raises(SpecError, match=message):
                spec_from_dict({"axis1": {"param": "temperature", "values": [0.0]},
                                "outputs": outputs})

    def test_spec_rejects_duplicate_axes(self):
        with pytest.raises(SpecError):
            SweepSpec(base=default_params(),
                      axis1=Axis("temperature", 0.0, 1.0, 3),
                      axis2=Axis("temperature", 0.0, 1.0, 3))

    def test_spec_bounds_the_grid_size(self):
        base = default_params()
        at_bound = SweepSpec(base=base, axis1=Axis("temperature", 0.0, 1.0, MAX_GRID_POINTS))
        assert at_bound.axis1.count == MAX_GRID_POINTS
        over = MAX_GRID_POINTS + 1
        with pytest.raises(SpecError, match=f"cannot make an axis of {over} points"):
            SweepSpec(base=base, axis1=Axis("temperature", 0.0, 1.0, over))
        # a values axis counts its values, and two axes their product
        half = MAX_GRID_POINTS // 2 + 1
        pair, line = Axis("epsilon", values=(0.0, 0.5)), Axis("temperature", 0.0, 1.0, half)
        for axis1, axis2 in ((pair, line), (line, pair)):
            with pytest.raises(SpecError, match=f"cannot make a grid of {2 * half} points"):
                SweepSpec(base=base, axis1=axis1, axis2=axis2)

    def test_spec_rejects_duplicate_outputs(self):
        with pytest.raises(SpecError, match=r"duplicate measure keys: \['LN_qm', 'R_c'\]"):
            spec_from_dict({"axis1": {"param": "temperature", "values": [0.0, 0.1]},
                            "outputs": ["LN_qm", "R_c", "LN_cm", "R_c", "LN_qm"]})

    @pytest.mark.parametrize("axis, message", [
        ({"param": "temperature", "values": [0.1, -0.01]}, "temperature must be non-negative"),
        ({"param": "epsilon", "values": [0.5, 1.0]}, "epsilon must lie in [0, 1)"),
        ({"param": "epsilon", "start": 0.5, "stop": 1.5, "count": 5},
         "epsilon must lie in [0, 1)"),
        ({"param": "temperature", "values": [0.1, math.nan]},
         "parameter temperature must be finite"),
        ({"param": "g_q", "values": [1e6, -1.0]},
         "couplings and drive power must be non-negative"),
        ({"param": "kappa_c", "values": [1e6, 0.0]}, "parameter kappa_c must be positive"),
    ])
    def test_bad_axis_values_give_the_point_message(self, axis, message):
        spec = spec_from_dict({"axis1": axis, "outputs": ["LN_qm"]})
        for call in (grid_points, run_sweep, lambda s: find_threshold(s, "LN_qm")):
            with pytest.raises(SpecError) as info:
                call(spec)
            assert str(info.value) == message

    @pytest.mark.parametrize("temperatures, epsilons", [
        ((0.1, -1.0), (1.5, 0.2)),
        ((0.1, -1.0), (0.2, 1.5)),
        ((math.nan, 0.1), (0.2, 1.5)),
        ((0.1, 0.2), (0.2, math.nan)),
    ])
    def test_first_invalid_row_names_the_error(self, temperatures, epsilons):
        # rows run axis2 outer, axis1 inner; the grid reports the first bad row
        spec = SweepSpec(base=default_params(), axis1=Axis("temperature", values=temperatures),
                         axis2=Axis("epsilon", values=epsilons), outputs=("LN_qm",))
        with pytest.raises(SpecError) as by_point:
            grid_points(spec)
        with pytest.raises(SpecError) as by_grid:
            run_sweep(spec)
        assert str(by_grid.value) == str(by_point.value)

    def test_two_dimensional_rows_are_the_single_points(self):
        spec = SweepSpec(base=default_params(theta=0.0, diffusion_mode="consistent"),
                         axis1=Axis("temperature", values=(0.0, 0.05, 0.3)),
                         axis2=Axis("epsilon", values=(0.0, 0.3, 0.6)),
                         outputs=("LN_qm", "G_q_to_c", "class_cm", "R_min"))
        assert any(row["status"] == "unstable" for row in run_sweep(spec))
        # a one-cell grid is evaluated as its one point
        one_cell = dataclasses.replace(spec, axis1=Axis("temperature", values=(0.05,)),
                                       axis2=Axis("epsilon", values=(0.3,)))
        for grid in (spec, one_cell):
            for params, row in zip(grid_points(grid), run_sweep(grid), strict=True):
                assert (row["epsilon"], row["temperature"]) == (params.epsilon,
                                                                params.temperature)
                flat = run_point(params).to_flat_dict()
                assert row["status"] == flat["status"]
                for key in grid.outputs + ("lyap_residual", "min_symplectic_eig"):
                    assert row[key] == flat.get(key)

    def test_grid_points_order(self):
        spec = SweepSpec(
            base=default_params(),
            axis1=Axis("temperature", 0.0, 0.1, 2),
            axis2=Axis("epsilon", values=(0.0, 0.5)),
        )
        points = grid_points(spec)
        combos = [(p.epsilon, p.temperature) for p in points]
        assert combos == [(0.0, 0.0), (0.0, 0.1), (0.5, 0.0), (0.5, 0.1)]

    def test_spec_from_dict(self):
        spec = spec_from_dict({
            "base": {"epsilon": 0.5},
            "axis1": {"param": "temperature", "start": 0.0, "stop": 0.2, "count": 3},
            "axis2": None,
            "outputs": ["LN_qm"],
        })
        assert spec.base.epsilon == 0.5
        assert spec.outputs == ("LN_qm",)
        assert spec.axis2 is None

    def test_spec_from_dict_rejects_garbage(self):
        with pytest.raises(SpecError):
            spec_from_dict({"axis1": {"param": "temperature", "start": 0, "stop": 1,
                                      "count": 3}, "bogus": 1})
        with pytest.raises(SpecError):
            spec_from_dict({"outputs": ["LN_qm"]})
        with pytest.raises(SpecError):
            spec_from_dict({"axis1": {"start": 0, "stop": 1, "count": 3}})
        with pytest.raises(SpecError):
            spec_from_dict([1, 2])

    def test_spec_from_dict_rejects_preset_id(self):
        with pytest.raises(SpecError, match="unknown sweep keys"):
            spec_from_dict({"axis1": {"param": "temperature", "start": 0, "stop": 1,
                                      "count": 3}, "preset_id": "fig3a"})


class TestRunSweep:
    def test_builds_no_point_objects_and_no_6x6_for_accepted_points(self, monkeypatch):
        spec = preset("fig5")
        # non-positive feedback damping over part of the phase circle
        phases = spec_from_dict({"base": {"epsilon": 0.6}, "axis1": {
            "param": "theta", "start": 0.0, "stop": 2.0 * math.pi, "count": 64}})
        built, assembled = [], []
        check = SystemParams.__post_init__

        def counting_check(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(SystemParams, "__post_init__", counting_check)
        # x_block_matrix is the one writer of a 6x6 matrix from blocks
        monkeypatch.setattr(sweep_module, "x_block_matrix",
                            lambda x: assembled.append(x) or gaussian_module.x_block_matrix(x))
        # each axis is checked by its smallest and largest value, not per point
        assert len(run_sweep(spec)) == 600 and len(built) == 4 and not assembled
        built.clear()
        rows = run_sweep(phases)
        unstable = sum(row["status"] == "unstable" for row in rows)
        assert 0 < unstable < 64
        assert len(built) == 2 and not assembled

    def test_overflowing_grid_points_are_unstable_rows(self):
        # past about 1e300 K the diffusion overflows to inf while it is built;
        # each row is what the point gives alone, with no warning
        spec = SweepSpec(base=default_params(),
                         axis1=Axis("temperature", values=(0.01, 1e200, 1e300, 1e307)),
                         outputs=("LN_qm",))
        rows = run_sweep(spec)
        assert [row["status"] for row in rows] == ["ok"] + ["unstable"] * 3
        for params, row in zip(grid_points(spec), rows):
            assert run_point(params).status == row["status"]

    def test_two_point_axis_structure(self):
        rows = run_sweep(small_spec(count=2))
        assert len(rows) == 2
        assert list(rows[0]) == ["temperature", "LN_qm", "LN_cm",
                                 "lyap_residual", "min_symplectic_eig", "status"]
        assert all(row["status"] == "ok" for row in rows)

    def test_unstable_rows_have_blank_values(self):
        spec = SweepSpec(
            base=default_params(g_q=0.2e6),
            axis1=Axis("drive_power", 1e-3, 1e4, 3),
            outputs=("LN_qm",),
        )
        rows = run_sweep(spec)
        assert rows[-1]["status"] == "unstable"
        assert rows[-1]["LN_qm"] is None
        assert rows[0]["status"] == "ok"

    def test_failed_residual_bound_is_an_unstable_row(self):
        # the last point passes the Hurwitz gate by a hair, and its steady
        # state misses the residual bound; the other rows are unaffected
        spec = SweepSpec(base=default_params(theta=0.0),
                         axis1=Axis("epsilon", values=(0.1, 0.2, 0.4947298263)),
                         outputs=("LN_qm",))
        rows = run_sweep(spec)
        assert [row["status"] for row in rows] == ["ok", "ok", "unstable"]
        assert rows[0]["LN_qm"] > 0 and rows[1]["LN_qm"] > 0
        assert rows[2]["LN_qm"] is None and rows[2]["lyap_residual"] is None
        params = grid_points(spec)[2]
        derived = derive(params)
        drift = build_drift(params, derived)
        six, stable = hurwitz_gate(drift)
        assert stable
        # reported from the eigen-solve of Q_x; it differs from the 6x6 drift's
        # at roundoff of ||Q||_F, which this near-marginal -0.139 rad/s is not
        # large against
        max_real = np.linalg.eigvals(build_blocks(params, derived)[0]).real.max()
        assert abs(max_real - six) <= 1e-12 * np.linalg.norm(drift)
        result = run_point(params)
        assert result.status == "unstable"
        assert result.reason == "residual"
        assert result.max_real_part == float(max_real) < 0
        with pytest.raises(SingularSystem, match="residual bound"):
            solve_lyapunov(drift, build_diffusion(params, derived))
        with pytest.raises(UnstableDrift, match="failed the residual bound") as info:
            find_threshold(spec, "LN_qm")
        assert info.value.reason == "residual"
        assert info.value.max_real_part == float(max_real)
        with pytest.raises(UnstableDrift, match="residual bound"):
            steady_state_covariance(params)

    @pytest.mark.parametrize("temperature", [1e146, 1e200, 1e300])
    def test_residual_check_fails_closed_at_extreme_temperature(self, temperature):
        # past ~1e145 K the residual bound, and then the residual, overflow;
        # such a point is rejected, never accepted with an infinite residual,
        # and the public one-matrix solver fails closed the same way
        spec = SweepSpec(base=default_params(),
                         axis1=Axis("temperature", values=(1e145, temperature)),
                         outputs=("LN_qm",))
        rows = run_sweep(spec)
        assert [row["status"] for row in rows] == ["ok", "unstable"]
        assert math.isfinite(rows[0]["lyap_residual"])
        params = grid_points(spec)[1]
        result = run_point(params)
        assert (result.status, result.reason) == ("unstable", "residual")
        with pytest.raises(UnstableDrift, match="residual bound"):
            steady_state_covariance(params)
        derived = derive(params)
        with pytest.raises(SingularSystem, match="residual bound"):
            solve_lyapunov(build_drift(params, derived), build_diffusion(params, derived))

    def test_theta_sweep_with_non_positive_damping_runs_under_warnings_as_errors(self):
        # the Hurwitz gate alone decides: 12 of these points have k_fb <= 0
        base = default_params(epsilon=0.6)
        spec = SweepSpec(base=base, axis1=Axis("theta", 0.0, 2.0 * math.pi, 64))
        rows = run_sweep(spec)
        damping = [derive(params).k_fb for params in grid_points(spec)]
        assert sum(k_fb <= 0 for k_fb in damping) == 12
        statuses = [row["status"] for row in rows]
        assert statuses.count("ok") == 50
        assert statuses.count("unstable") == 14
        assert all(status == "unstable"
                   for status, k_fb in zip(statuses, damping) if k_fb <= 0)

    def test_any_stacking_of_a_grid_gives_the_same_bits(self):
        # the presets, 14 unstable phases, zero and subnormal temperatures
        # with 3 overflowing ones, and the hot magnon; a chunk of one takes
        # param_columns' point path
        documents = [
            {"base": {"epsilon": 0.6}, "axis1": {
                "param": "theta", "start": 0.0, "stop": 2.0 * math.pi, "count": 64}},
            {"axis1": {"param": "temperature",
                       "values": [0.0, 5e-324, 0.01, 1e200, 1e300, 1e307]}},
            {"base": {"drive_power": 1e-11}, "axis1": {"param": "B0", "values": [0.1, 1e-9, 1e-18]}},
        ]
        specs = [preset(preset_id) for preset_id in PRESET_IDS] + list(map(spec_from_dict, documents))

        def bits(values):
            return [value.hex() if isinstance(value, float) else value for value in values]

        unstable = []
        for spec in specs:
            keys = spec.outputs + DIAGNOSTIC_KEYS
            axes = sweep_module._axis_columns(sweep_module._axes(spec))

            def stacked(size):
                reasons, max_real, columns = [], [], {key: [] for key in keys}
                for start in range(0, spec.points, size):
                    chunk = {name: np.array(values[start:start + size])
                             for name, values in axes.items()}
                    chunk_reasons, chunk_max_real, chunk_columns = sweep_module._evaluate(
                        param_columns(spec.base, chunk), spec.outputs + ("min_symplectic_eig",))
                    reasons += chunk_reasons
                    max_real += chunk_max_real
                    for key in keys:
                        columns[key] += chunk_columns[key]
                return reasons, bits(max_real), {key: bits(columns[key]) for key in keys}

            whole = stacked(spec.points)
            for size in (1, 7, 64, 257):
                assert stacked(size) == whole, (spec.axis1.param, size)
            unstable.append(sum(map(bool, whole[0])))
        assert unstable == [0] * len(PRESET_IDS) + [14, 3, 0]

    def test_deterministic_across_runs(self):
        spec = small_spec(count=6)
        assert format_csv(sweep_columns(spec)) == format_csv(sweep_columns(spec))

    def test_csv_formatting(self):
        text = format_csv({
            "temperature": [0.1, 0.2],
            "LN_qm": [0.123456789012345, None],
            "status": ["ok", "unstable"],
        })
        lines = text.strip().split("\n")
        assert lines[0] == "temperature,LN_qm,status"
        assert lines[1] == "0.1,0.123456789012,ok"
        assert lines[2] == "0.2,,unstable"
        assert format_csv({"count": [3, None]}) == "count\n3\n\n"
        assert format_csv({"temperature": [], "status": []}) == ""

    # columns of unequal length would lose rows, and an unquoted comma, quote
    # or line break would shift or split a row's fields
    @pytest.mark.parametrize("columns, match", [
        ({"a": [1.0, 2.0], "b": [3.0]}, "same length"),
        ({"a": [], "b": [3.0]}, "same length"),
        ({"a": [1.0], "b": []}, "same length"),
        ({"a": [1.0], "b": ["x,y"]}, "column b"),
        ({"a": [1.0, 2.0], "b": ["ok", 'say "hi"']}, "column b"),
        ({"a": [1.0], "b": ["line\nbreak"]}, "column b"),
        ({"a": [1.0], "b": ["cr\r"]}, "column b"),
        ({"a": [1.0, 2.0], "b": [None, "x,y"]}, "column b"),
        ({"a,b": [1.0]}, "header"),
        ({"a": [1.0], 'b"': ["ok"]}, "header"),
        ({"a\n": [1.0]}, "header"),
    ], ids=["longer-first", "empty-first", "empty-last", "comma", "quote", "lf", "cr",
            "mixed-column", "header-comma", "header-quote", "header-lf"])
    def test_csv_rejects_what_it_cannot_write(self, columns, match):
        with pytest.raises(ValueError, match=match):
            format_csv(columns)

    def test_rows_pass_physicality_without_feedback(self):
        rows = run_sweep(small_spec(count=4))
        for row in rows:
            assert row["min_symplectic_eig"] >= 0.5 - 1e-10

    def test_two_dimensional_sweep_structure(self):
        spec = SweepSpec(
            base=default_params(),
            axis1=Axis("temperature", 0.0, 0.1, 2),
            axis2=Axis("epsilon", values=(0.0, 0.5)),
            outputs=("LN_qm",),
        )
        rows = run_sweep(spec)
        assert len(rows) == 4
        assert list(rows[0])[:2] == ["temperature", "epsilon"]
        text = format_csv(sweep_columns(spec))
        assert text.startswith("temperature,epsilon,LN_qm")
        assert len(text.strip().split("\n")) == 5


class TestFindThreshold:
    def test_fig3a_entanglement_death(self):
        value = find_threshold(preset("fig3a"), "LN_qm")
        assert 0.2 * 0.7 <= value <= 0.2 * 1.3

    def test_constant_zero_measure(self):
        with pytest.raises(NoCrossing):
            find_threshold(preset("fig3a"), "LN_cm")

    def test_never_vanishing_measure(self):
        spec = SweepSpec(base=default_params(epsilon=0.0),
                         axis1=Axis("temperature", 0.0, 0.05, 8),
                         outputs=("LN_qm",))
        with pytest.raises(NoCrossing):
            find_threshold(spec, "LN_qm")

    def test_ordered_thresholds_for_cavity_qubit_pair(self):
        # the steered-cavity direction outlives the steered-qubit direction
        spec = SweepSpec(base=default_params(epsilon=0.86),
                         axis1=Axis("temperature", 0.0, 4.0, 60),
                         outputs=("G_c_to_q", "G_q_to_c"))
        qubit_steered = find_threshold(spec, "G_c_to_q")
        cavity_steered = find_threshold(spec, "G_q_to_c")
        assert qubit_steered < cavity_steered

    def test_revival_raises_nonmonotone(self, monkeypatch):
        profile = {0.0: 1.0, 0.1: 0.0, 0.2: 1.0, 0.3: 0.0}

        def fake_evaluate(points, outputs):
            temperatures = np.atleast_1d(points.temperature).tolist()
            count = len(temperatures)
            return [None] * count, [math.nan] * count, {
                "LN_qm": [profile[round(t, 3)] for t in temperatures],
                "lyap_residual": [0.0] * count, "min_symplectic_eig": [0.5] * count}

        monkeypatch.setattr(sweep_module, "_evaluate", fake_evaluate)
        spec = SweepSpec(base=default_params(epsilon=0.0),
                         axis1=Axis("temperature", 0.0, 0.3, 4),
                         outputs=("LN_qm",))
        with pytest.raises(NonMonotone):
            find_threshold(spec, "LN_qm")

    @pytest.mark.parametrize("side", ["falling", "rising"])
    @pytest.mark.parametrize("width", [1, 100, 255])
    def test_bisection_ends_in_a_narrow_bracket(self, monkeypatch, width, side):
        # the two grid values are `width` floats apart and the measure changes
        # sign halfway between them, so a midpoint soon rounds onto an end;
        # the search reads the side from the grid's ends
        lo = 0.2
        hi = float((np.array(lo).view(np.int64) + width).view(np.float64))
        calls = []

        def fake_evaluate(points, outputs):
            calls.append(outputs)
            if len(calls) > 200:
                raise AssertionError("the bisection does not end")
            temperatures = np.atleast_1d(points.temperature)
            steps = (temperatures.view(np.int64) - np.array(lo).view(np.int64)).tolist()
            alive = [s < (width + 1) // 2 if side == "falling" else s > width // 2
                     for s in steps]
            return [None] * len(steps), [math.nan] * len(steps), {
                "LN_qm": [1.0 if a else 0.0 for a in alive]}

        monkeypatch.setattr(sweep_module, "_evaluate", fake_evaluate)
        spec = SweepSpec(base=default_params(epsilon=0.0),
                         axis1=Axis("temperature", values=(lo, hi)), outputs=("LN_qm",))
        assert lo <= find_threshold(spec, "LN_qm") <= hi

    def test_computes_only_the_scanned_measure(self, monkeypatch):
        kernel_keys, measure_blocks = [], sweep_module.measure_blocks

        def spy(blocks, outputs):
            kernel_keys.append(outputs)
            return measure_blocks(blocks, outputs)

        monkeypatch.setattr(sweep_module, "measure_blocks", spy)
        find_threshold(preset("fig3a"), "LN_qm")
        assert kernel_keys and set(kernel_keys) == {("LN_qm",)}

    def test_each_bisection_step_builds_one_point(self, monkeypatch):
        # the grid's check builds its ends; each step is then one SystemParams
        spec, builds, evaluations = preset("fig3a"), [], []
        post_init, evaluate = SystemParams.__post_init__, sweep_module._evaluate

        def counted_post_init(params):
            builds.append(params)
            post_init(params)

        def counted_evaluate(params, keys):
            evaluations.append(params)
            return evaluate(params, keys)

        monkeypatch.setattr(SystemParams, "__post_init__", counted_post_init)
        monkeypatch.setattr(sweep_module, "_evaluate", counted_evaluate)
        find_threshold(spec, "LN_qm")
        assert len(evaluations) > 2
        assert len(builds) == 2 + (len(evaluations) - 1)
        assert all(type(step) is SystemParams for step in evaluations[1:])

    @pytest.mark.parametrize("values", [(0.0, 0.5, 0.05, 0.3), (0.0, 0.05, 0.5, 0.05),
                                        (0.0, 0.1, 0.1, 0.3)])
    def test_rejects_axis_values_out_of_order(self, monkeypatch, values):
        # bisection refines between neighbouring grid values; LN_qm is monotone
        # here and dies near 0.10 K
        def no_evaluation(points, outputs):
            raise AssertionError("an unordered grid was evaluated")

        monkeypatch.setattr(sweep_module, "_evaluate", no_evaluation)
        spec = SweepSpec(base=default_params(epsilon=0.86, diffusion_mode="input_output"),
                         axis1=Axis("temperature", values=values), outputs=("LN_qm",))
        with pytest.raises(SpecError, match="strictly increasing"):
            find_threshold(spec, "LN_qm")

    def test_sorted_explicit_values_find_the_threshold(self):
        spec = SweepSpec(base=default_params(epsilon=0.86, diffusion_mode="input_output"),
                         axis1=Axis("temperature", values=(0.0, 0.05, 0.3, 0.5)),
                         outputs=("LN_qm",))
        assert 0.08 < find_threshold(spec, "LN_qm") < 0.12

    def test_rising_direction(self):
        # cavity-magnon entanglement turns on as the reflectivity grows: zero at
        # the start of the window and positive at its end, an onset
        spec = SweepSpec(base=default_params(temperature=10e-3),
                         axis1=Axis("epsilon", 0.0, 0.95, 40),
                         outputs=("LN_cm",))
        onset = find_threshold(spec, "LN_cm")
        assert 0.0 < onset < 0.95
        above = run_point(spec.base.replace(epsilon=onset + 0.05)).to_flat_dict()
        below = run_point(spec.base.replace(epsilon=max(onset - 0.05, 0.0))).to_flat_dict()
        assert above["LN_cm"] > 0
        assert below["LN_cm"] == 0.0

    def test_requires_one_dimensional_spec(self):
        spec = SweepSpec(base=default_params(),
                         axis1=Axis("temperature", 0.0, 0.1, 2),
                         axis2=Axis("epsilon", values=(0.0, 0.5)))
        with pytest.raises(SpecError):
            find_threshold(spec, "LN_qm")

    def test_rejects_unknown_measure(self):
        with pytest.raises(SpecError):
            find_threshold(small_spec(), "LN_zz")

    @pytest.mark.parametrize("measure", ["class_cq", "class_cm", "class_qm"])
    def test_rejects_steering_class_before_evaluating(self, monkeypatch, measure):
        def no_evaluation(points, outputs):
            raise AssertionError("a steering class was evaluated")

        monkeypatch.setattr(sweep_module, "_evaluate", no_evaluation)
        with pytest.raises(SpecError, match="numeric measure"):
            find_threshold(preset("fig3a"), measure)

    @pytest.mark.parametrize("preset_id, measure, outcome", PRESET_THRESHOLDS,
                             ids=[f"{p}-{m}" for p, m, _ in PRESET_THRESHOLDS])
    def test_every_preset_output(self, monkeypatch, preset_id, measure, outcome):
        calls, evaluate = [], sweep_module._evaluate

        def counted(points, outputs):
            calls.append(outputs)
            return evaluate(points, outputs)

        monkeypatch.setattr(sweep_module, "_evaluate", counted)
        if isinstance(outcome, str):
            with pytest.raises(NoCrossing) as info:
                find_threshold(preset(preset_id), measure)
            assert str(info.value) == outcome
            return
        threshold, evaluations = outcome
        assert find_threshold(preset(preset_id), measure) == pytest.approx(threshold, rel=1e-12)
        assert len(calls) == evaluations


class TestPresets:
    def test_all_ids_build(self):
        for preset_id in PRESET_IDS:
            spec = preset(preset_id)
            assert spec.outputs

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("fig99")

    def test_fig3a_fig3b_differ_only_in_reflectivity(self):
        spec_a, spec_b = preset("fig3a"), preset("fig3b")
        assert spec_a.base.epsilon == 0.0
        assert spec_b.base.epsilon == 0.86
        assert spec_a.base.replace(epsilon=0.86) == spec_b.base
        assert spec_a.axis1 == spec_b.axis1
        assert spec_a.outputs == ("LN_cm", "LN_cq", "LN_qm")

    def test_fig2_parameters(self):
        spec = preset("fig2")
        coupling = effective_coupling(spec.base)
        assert spec.base.epsilon == 0.86
        assert spec.base.theta == math.pi
        assert spec.base.g_q == pytest.approx(2 * coupling, rel=1e-12)
        assert "G_c_to_q" in spec.outputs and "class_cq" in spec.outputs

    def test_fig5_series(self):
        spec = preset("fig5")
        assert spec.axis1.param == "epsilon"
        assert (spec.axis1.start, spec.axis1.stop) == (0.0, 0.95)
        assert spec.axis2.param == "temperature"
        assert spec.axis2.values == (0.1e-3, 10e-3, 30e-3)
        assert "R_min" in spec.outputs

    def test_fig6_fixed_temperature(self):
        spec = preset("fig6")
        assert spec.base.temperature == 10e-3
        assert spec.axis1.param == "epsilon"
        assert spec.outputs == ("LN_cm", "LN_cq", "LN_qm")

    def test_fig10_fig11_monogamy_setup(self):
        for preset_id, prefix in (("fig10", "mono_out"), ("fig11", "mono_in")):
            spec = preset(preset_id)
            coupling = effective_coupling(spec.base)
            assert spec.base.epsilon == 0.90
            assert spec.base.g_q == pytest.approx(1.5 * coupling, rel=1e-12)
            assert any(key.startswith(prefix) for key in spec.outputs)

    def test_small_preset_sweep_runs(self):
        spec = preset("fig3a")
        trimmed = SweepSpec(base=spec.base,
                            axis1=Axis("temperature", 0.0, 0.8, 9),
                            outputs=spec.outputs)
        rows = run_sweep(trimmed)
        assert len(rows) == 9
        assert all(row["LN_cm"] == 0.0 for row in rows)
