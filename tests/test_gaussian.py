"""The steady-state solver, the phase-covariant block algebra, and the
generic 6x6 oracle helpers in _oracles that the block kernel is checked
against."""

import warnings

import numpy as np
import pytest

from magnonsteer import (
    NonPositiveInput,
    NotPhaseCovariant,
    SingularBlock,
    SingularSystem,
    UnstableDrift,
    correlation_report,
    default_params,
    run_point,
    steady_state_covariance,
)
from magnonsteer.analytic import analytic_covariance
from magnonsteer.gaussian import (
    assert_stable,
    check_physicality,
    lyapunov_residual,
    solve_lyapunov,
)
from magnonsteer.measures import MEASURE_KEYS, measure_blocks, measure_columns
from magnonsteer.model import (
    DIFFUSION_MODES,
    build_blocks,
    build_diffusion,
    build_drift,
    derive,
    param_columns,
)
from magnonsteer.sweep import PRESET_IDS, grid_points, preset
from magnonsteer.gaussian import (
    STABILITY_TOL,
    covariance_blocks,
    min_symplectic_eig,
    mirror_pairs,
    residual_accepted,
    solve_lyapunov_stack,
    steady_state_blocks,
    x_block_matrix,
)
import magnonsteer.gaussian as gaussian_module

from _oracles import (
    Bipartition,
    direct_symplectic_spectrum,
    extract_submatrix,
    hurwitz_gate,
    mp_symplectic_eigenvalues,
    omega,
    partial_transpose,
    phase_covariant_cm,
    phase_covariant_stack,
    random_phase_covariant_cm,
    random_physical_cm,
    random_symplectic,
    schur_complement_steered,
    symplectic_eigenvalues,
    symplectic_spectrum,
    tmsv_cm,
    tmsv_with_spectator,
    vacuum_cm,
)


class TestSymplecticForm:
    # the oracles' symplectic form, which the spectrum oracle uses
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_defining_relations(self, n):
        form = omega(n)
        assert np.array_equal(form @ form, -np.eye(2 * n))
        assert np.array_equal(form.T, -form)
        for m in range(n):
            block = form[2 * m:2 * m + 2, 2 * m:2 * m + 2]
            assert np.array_equal(block, [[0.0, 1.0], [-1.0, 0.0]])
        assert np.count_nonzero(form) == 2 * n


class TestSolveLyapunov:
    def test_decoupled_single_mode(self):
        # dV/dt = 0 with drift -k I and diffusion d I gives V = d / (2 k)
        cov = solve_lyapunov(-np.eye(2), 3.0 * np.eye(2))
        assert np.allclose(cov, 1.5 * np.eye(2), atol=1e-14)

    def test_matches_closed_form_at_defaults(self):
        params = default_params(epsilon=0.0)
        numeric = steady_state_covariance(params)
        closed = analytic_covariance(params)
        mask = np.abs(closed) > 1e-12
        rel = np.max(np.abs(numeric - closed)[mask] / np.abs(closed)[mask])
        assert rel <= 1e-8

    def test_rejects_unstable_drift(self):
        drift = np.diag([0.1, -1.0])
        with pytest.raises(UnstableDrift) as info:
            solve_lyapunov(drift, np.eye(2))
        assert info.value.max_real_part == pytest.approx(0.1)

    # the symmetry check's absolute tolerance is 1e-12 max(1, max|D|): with the
    # mirror entry zero, its relative term adds nothing, so an asymmetry at half
    # the tolerance passes and one at 1.5 times it raises, below and above 1
    @pytest.mark.parametrize("scale", [0.25, 4.0, 1e6])
    @pytest.mark.parametrize("factor, passes", [(0.5, True), (1.5, False)])
    def test_symmetry_tolerance_boundary(self, scale, factor, passes):
        diffusion = scale * np.eye(2)
        diffusion[0, 1] = factor * 1e-12 * max(1.0, scale)
        if passes:
            cov = solve_lyapunov(-np.eye(2), diffusion)
            assert np.array_equal(cov.diagonal(), [scale / 2] * 2)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                solve_lyapunov(-np.eye(2), diffusion)

    def test_rejects_asymmetric_diffusion(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
        # nor a diffusion matrix of another size than the drift
        with pytest.raises(ValueError, match="equally sized"):
            solve_lyapunov(-np.eye(2), np.eye(3))

    @pytest.mark.parametrize("diffusion", [[[1.0, np.nan], [np.nan, 1.0]],
                                           [[np.nan, 0.0], [0.0, 1.0]]])
    def test_rejects_nan_diffusion_as_not_finite(self, diffusion):
        with pytest.raises(ValueError, match="NaN"):
            solve_lyapunov(-np.eye(2), np.array(diffusion))

    def test_infinite_diffusion_fails_the_residual_bound(self):
        # symmetric infinite entries pass the symmetry check, whose tolerance
        # is then infinite, and no steady state meets the bound
        with pytest.raises(SingularSystem):
            solve_lyapunov(-np.eye(2), np.diag([1.0, np.inf]))
        with pytest.raises(SingularSystem):
            solve_lyapunov(-np.eye(2), np.array([[1.0, np.inf], [np.inf, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            solve_lyapunov(-np.eye(2), np.array([[1.0, np.inf], [-np.inf, 1.0]]))
        # a residual that overflows is inf, with no warning
        assert lyapunov_residual(1e200 * np.eye(2), 1e200 * np.eye(2), np.eye(2)) == np.inf
        # the bound's float spelling, which a stack of one takes, decides as the
        # array one; a NaN norm gives a NaN bound, as np.maximum(1, nan) is NaN
        for residual in (0.0, 1e-10, np.inf, np.nan):
            for norm in (0.0, 1.0, 1e300, np.inf, np.nan):
                on_arrays = residual_accepted(np.array([residual]), np.array([norm]))
                assert residual_accepted(residual, norm) is bool(on_arrays[0])
        assert not residual_accepted(0.0, np.nan)

    def test_rejects_marginally_stable_drift(self):
        # a decay rate 14 orders below the rest lies inside the Hurwitz gate's
        # margin; past the gate, it leaves the linear system too
        # ill-conditioned to meet the residual bound
        rng = np.random.default_rng(0)
        basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        drift = basis @ np.diag([-1e-14, -1, -1, -1, -1, -1]) @ basis.T
        assert not hurwitz_gate(drift)[1]
        with pytest.raises(UnstableDrift):
            solve_lyapunov(drift, np.eye(6))
        _, residual = solve_lyapunov_stack(drift[None], np.eye(6)[None])
        assert not residual_accepted(residual, np.linalg.norm(np.eye(6)))[0]
        # an exactly marginal drift, here zero, leaves the stack's system singular
        with pytest.raises(SingularSystem):
            solve_lyapunov_stack(np.zeros((1, 6, 6)), np.eye(6)[None])

    @pytest.mark.parametrize("seed", range(4))
    def test_unstable_exactly_where_the_gate_says(self, seed):
        # random drifts shifted so their largest real part steps across the
        # gate's margin, -STABILITY_TOL ||Q||_F, and on to zero and beyond
        rng = np.random.default_rng(200 + seed)
        base = rng.normal(size=(6, 6))
        edge = float(np.max(np.linalg.eigvals(base).real))
        margin = STABILITY_TOL * float(np.linalg.norm(base - edge * np.eye(6)))
        decaying_but_rejected = 0
        for c in np.linspace(-3.0, 1.0, 9):
            drift = base - (edge - c * margin) * np.eye(6)
            max_real, stable = hurwitz_gate(drift)
            try:
                solve_lyapunov(drift, np.eye(6))
                rejected = False
            except SingularSystem:
                rejected = False
            except UnstableDrift as exc:
                rejected = True
                assert exc.max_real_part == float(max_real)
            assert rejected == (not stable)
            decaying_but_rejected += bool(rejected and max_real < 0)
        assert decaying_but_rejected

    # README's edge documents and the check run_point rejects each with
    @pytest.mark.parametrize("document, reason", [
        ({"kappa_m": 1e300}, "gate"),
        ({"kappa_c": 1e-300, "g_q": 1e6}, "gate"),
        ({"sphere_radius": 1e-200, "g_q": 1e6}, "gate"),
        ({"temperature": 1e200}, "residual"),
        ({"B0": 1e-320}, "residual"),
    ], ids=["kappa_m", "kappa_c", "sphere_radius", "temperature", "B0"])
    def test_public_helpers_end_as_the_pipeline_says(self, document, reason):
        # decisions and NaN-ness, not values: at kappa_m = 1e300 the 6x6 and
        # the 3x3 eigen-solves differ far beyond roundoff of a norm of 6e300
        params = default_params(**document)
        result = run_point(params)
        assert (result.status, result.reason) == ("unstable", reason)
        drift, diffusion = build_drift(params), build_diffusion(params)
        if reason == "residual":
            assert_stable(drift)
            with pytest.raises(SingularSystem):
                solve_lyapunov(drift, diffusion)
            return
        for call in (lambda: assert_stable(drift), lambda: solve_lyapunov(drift, diffusion)):
            with pytest.raises(UnstableDrift) as info:
                call()
            assert info.value.reason == "gate"
            assert np.isnan(info.value.max_real_part) == np.isnan(result.max_real_part)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_bound_random_stable_systems(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        drift = rng.normal(size=(n, n)) - 3.0 * n * np.eye(n)
        root = rng.normal(size=(n, n))
        diffusion = root @ root.T
        cov = solve_lyapunov(drift, diffusion)
        assert np.array_equal(cov, cov.T)
        scale = max(1.0, np.linalg.norm(diffusion))
        assert lyapunov_residual(drift, cov, diffusion) <= 1e-10 * scale
        # the stacked residual is the per-matrix one, element by element
        stacked = lyapunov_residual(drift[None], cov[None], diffusion[None])
        assert stacked.shape == (1,)
        assert stacked[0] == lyapunov_residual(drift, cov, diffusion)

    @pytest.mark.parametrize("n", [3, 6])
    def test_stack_solve_is_exactly_symmetric(self, n):
        # V is gathered from its n(n+1)/2 unknowns, so no symmetrising pass
        rng = np.random.default_rng(40 + n)
        drift = rng.normal(size=(5, n, n)) - 3.0 * n * np.eye(n)
        root = rng.normal(size=(5, n, n))
        diffusion = root @ root.swapaxes(-1, -2)
        if n == 3:
            spec = preset("fig10")
            grid = param_columns(spec.base, {spec.axis1.param: spec.axis1.grid()[::20]})
            system = build_blocks(grid, derive(grid)).reshape(-1, 2, 3, 3)
        else:
            points = [default_params(epsilon=e) for e in (0.0, 0.3, 0.86)]
            system = np.array([[build_drift(p), build_diffusion(p)] for p in points])
        drift = np.concatenate([drift, system[:, 0]])
        diffusion = np.concatenate([diffusion, system[:, 1]])
        cov, residual = solve_lyapunov_stack(drift, diffusion)
        assert np.array_equal(cov, cov.swapaxes(-1, -2))
        assert residual_accepted(residual, np.linalg.norm(diffusion, axis=(-2, -1))).all()
        # a stack of any size, an empty one included
        cov, residual = solve_lyapunov_stack(drift[:0], diffusion[:0])
        assert cov.shape == (0, n, n) and residual.shape == (0,)
        assert cov.dtype == residual.dtype == np.float64


def stage_gate(drift_x):
    """Whether the steady-state stage's gate passes each x' drift (N, 3, 3), given a unit D_x."""
    system = np.stack([drift_x, np.broadcast_to(np.eye(3), drift_x.shape)], axis=1)
    return np.array([reason != "gate" for reason in steady_state_blocks(system)[1]])


def gate_on_blocks_and_6x6(drift_x):
    """The stage's gate decisions, and the oracle's on the assembled 6x6 drifts."""
    return stage_gate(drift_x), hurwitz_gate(phase_covariant_stack(mirror_pairs(drift_x)))[1]


def model_drifts(points):
    return np.stack([build_blocks(params)[0] for params in points])


def bits(values):
    """Measure values with each float as its exact hex text, so -0.0 != 0.0."""
    return [value.hex() if isinstance(value, float) else value for value in values]


class TestBlockGate:
    """The Routh-Hurwitz test on Q_x decides as the 6x6 eigen-solve gate does."""

    def test_preset_grids(self):
        drifts = model_drifts([params for preset_id in PRESET_IDS
                               for params in grid_points(preset(preset_id))])
        on_blocks, on_6x6 = gate_on_blocks_and_6x6(drifts)
        assert np.array_equal(on_blocks, on_6x6)

    @pytest.mark.parametrize("mode", DIFFUSION_MODES)
    def test_random_points(self, mode):
        rng = np.random.default_rng(31)
        drifts = model_drifts([
            default_params(epsilon=float(rng.uniform(0.0, 0.999)),
                           theta=float(rng.uniform(0.0, 2.0 * np.pi)),
                           temperature=float(rng.uniform(0.0, 1.5)),
                           g_q_ratio=float(rng.uniform(0.2, 4.0)), diffusion_mode=mode)
            for _ in range(1000)])
        on_blocks, on_6x6 = gate_on_blocks_and_6x6(drifts)
        assert np.array_equal(on_blocks, on_6x6)
        assert 0 < on_blocks.sum() < len(on_blocks)

    def test_reflectivity_near_one(self):
        drifts = model_drifts([default_params(epsilon=1.0 - 10.0**-k, theta=theta,
                                              diffusion_mode=mode)
                               for k in range(1, 17) for theta in (0.0, 2.0, np.pi)
                               for mode in DIFFUSION_MODES])
        on_blocks, on_6x6 = gate_on_blocks_and_6x6(drifts)
        assert np.array_equal(on_blocks, on_6x6)

    def test_reflectivity_steps_across_the_margin(self):
        # at theta = 0 the drift crosses the margin near epsilon = 0.4947;
        # step across it a thousandth of the margin's width at a time
        def past_margin(epsilon):
            drift = build_drift(default_params(epsilon=epsilon, theta=0.0))
            max_real, _ = hurwitz_gate(drift)
            return max_real + STABILITY_TOL * np.linalg.norm(drift) >= 0

        lo, hi = 0.45, 0.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if past_margin(mid) else (mid, hi)
        drifts = model_drifts([default_params(epsilon=lo + step * 1e-12, theta=0.0)
                               for step in range(-1000, 1001)])
        on_blocks, on_6x6 = gate_on_blocks_and_6x6(drifts)
        assert np.array_equal(on_blocks, on_6x6)
        assert on_blocks[0] and not on_blocks[-1]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_drifts_across_the_margin(self, seed):
        # general 3x3 drifts, complex eigenvalue pairs included, shifted so
        # their largest real part steps across the margin and past zero
        rng = np.random.default_rng(400 + seed)
        base = rng.normal(size=(3, 3))
        edge = float(np.max(np.linalg.eigvals(base).real))
        margin = STABILITY_TOL * np.sqrt(2.0) * float(np.linalg.norm(base - edge * np.eye(3)))
        drifts = np.stack([base - (edge - c * margin) * np.eye(3)
                           for c in np.linspace(-3.0, 1.0, 9)])
        on_blocks, on_6x6 = gate_on_blocks_and_6x6(drifts)
        assert np.array_equal(on_blocks, on_6x6)
        assert on_blocks.any() and not on_blocks.all()

    def test_stack_of_one_decides_as_the_stack(self):
        rng = np.random.default_rng(7)
        drifts = model_drifts([default_params(epsilon=float(rng.uniform(0.0, 0.95)),
                                              theta=float(rng.uniform(0.0, 2.0 * np.pi)))
                               for _ in range(200)])
        alone = [bool(stage_gate(drift[None])[0]) for drift in drifts]
        assert alone == stage_gate(drifts).tolist()

    def test_non_finite_drift_fails(self):
        drift = -np.eye(3)[None].repeat(3, axis=0)
        drift[0, 0, 1], drift[1, 2, 2] = np.nan, -np.inf
        assert stage_gate(drift).tolist() == [False, False, True]
        assert not stage_gate(drift[:1])[0]


class TestSteadyStateBlocks:
    def test_stack_rejected_whole_gives_empty_blocks(self):
        system = np.stack([build_blocks(default_params(epsilon=0.9, theta=theta))
                           for theta in np.linspace(0.0, 0.5, 8)])
        max_real, reason, cov, residual = steady_state_blocks(system)
        assert reason == ["gate"] * 8
        for index, point in enumerate(system):
            alone = steady_state_blocks(point[None])
            assert alone[1] == [reason[index]]
            assert alone[0].tobytes() == max_real[index:index + 1].tobytes()
        # the eigen-solve of Q_x, whose spectrum is the 6x6 drift's twice,
        # agrees with that of the 6x6 drift at roundoff
        assert np.array_equal(max_real, np.linalg.eigvals(system[:, 0]).real.max(axis=-1))
        six = hurwitz_gate(phase_covariant_stack(mirror_pairs(system[:, 0])))[0]
        assert np.abs(max_real - six).max() <= 1e-12 * np.abs(six).min()
        assert (max_real > 0).all()
        assert cov.shape == (0, 3, 3) and residual.shape == (0,)
        assert cov.dtype == residual.dtype == np.float64

    def test_point_alone_is_the_point_in_a_mixed_stack(self):
        # ok rows, gate rows (one with an infinite coupling), the paper point
        # that passes the gate by a hair and fails the residual bound, and two
        # hot points whose bound is not finite: the diffusion norm overflows,
        # then the diffusion entries themselves are infinite
        points = [default_params(), default_params(epsilon=0.9, theta=0.3),
                  default_params(epsilon=0.4947298263, theta=0.0),
                  default_params(epsilon=0.3, theta=1.0, temperature=0.5,
                                 diffusion_mode="input_output"),
                  default_params(kappa_c=1e-300, g_q=1e6),
                  default_params(drive_power=1e4, g_q=0.2e6),
                  default_params(epsilon=0.86, diffusion_mode="consistent"),
                  default_params(temperature=1e300), default_params(temperature=1e307)]
        system = np.stack([build_blocks(p) for p in points])
        assert np.isfinite(system[7, 1]).all() and np.isinf(system[8, 1]).any()
        max_real, reason, cov, residual = steady_state_blocks(system)
        assert reason == [None, "gate", "residual", None, "gate", "gate", None,
                          "residual", "residual"]
        assert max_real[7:] == pytest.approx([-8.3288e6] * 2, rel=1e-4)
        outputs = MEASURE_KEYS + ("min_symplectic_eig",)
        columns = measure_blocks(mirror_pairs(cov), outputs)
        accepted = 0
        for index, point in enumerate(system):
            alone = steady_state_blocks(point[None])
            assert alone[0].tobytes() == max_real[index:index + 1].tobytes()
            assert alone[1] == [reason[index]]
            if reason[index] is not None:
                assert alone[2].shape == (0, 3, 3) and alone[3].shape == (0,)
                continue
            assert alone[2].tobytes() == cov[accepted:accepted + 1].tobytes()
            assert alone[3].tobytes() == residual[accepted:accepted + 1].tobytes()
            measured = measure_blocks(mirror_pairs(alone[2]), outputs)
            assert {key: bits(values) for key, values in measured.items()} == {
                key: bits(values[accepted:accepted + 1]) for key, values in columns.items()}
            accepted += 1
        assert accepted == len(cov) == 3

    @pytest.fixture
    def eigen_solves(self, monkeypatch):
        """The drifts of each eigen-solve, as gaussian looks it up, below
        ``_max_real_part``'s NaN rule."""
        solved = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(gaussian_module.np.linalg, "eigvals",
                            lambda drift: solved.append(drift.copy()) or eigvals(drift))
        return solved

    def test_non_finite_drift_has_no_eigen_solve(self, eigen_solves):
        # an infinite optomagnonic coupling (the sphere volume underflows)
        system = np.stack([build_blocks(default_params(epsilon=0.9, theta=0.3)),
                           build_blocks(default_params(sphere_radius=1e-200, g_q=1e6))])
        assert np.isinf(system[1, 0]).any()
        max_real, reason, blocks, _ = steady_state_blocks(system)
        assert reason == ["gate", "gate"] and len(blocks) == 0
        assert max_real[0] > 0 and np.isnan(max_real[1])
        assert steady_state_blocks(system[1:])[0].tobytes() == max_real[1:].tobytes()
        assert np.concatenate(eigen_solves).tobytes() == system[:1, 0].tobytes()

    def test_accepted_points_have_no_eigen_solve(self, eigen_solves):
        assert steady_state_blocks(build_blocks(default_params())[None])[1] == [None]
        grid = np.stack([build_blocks(p) for p in grid_points(preset("fig3a"))])
        assert steady_state_blocks(grid)[1] == [None] * len(grid)
        assert eigen_solves == []

    def test_mixed_stack_solves_only_its_rejected_rows(self, eigen_solves):
        # ok, gate and residual points, each rejected row solved once, in order
        points = [default_params(), default_params(epsilon=0.9, theta=0.3),
                  default_params(epsilon=0.4947298263, theta=0.0), default_params(epsilon=0.3),
                  default_params(epsilon=0.9, theta=0.1), default_params(temperature=1e300)]
        system = np.stack([build_blocks(p) for p in points])
        reason = steady_state_blocks(system)[1]
        assert reason == [None, "gate", "residual", None, "gate", "residual"]
        rejected = [index for index, why in enumerate(reason) if why is not None]
        assert np.concatenate(eigen_solves).tobytes() == system[rejected, 0].tobytes()

    def test_overflowing_drift_is_rejected_without_a_warning(self):
        # pytest turns RuntimeWarning into an error: the squares of the drift
        # overflow in the gate and in the rejected row's eigen-solve
        system = build_blocks(default_params(kappa_m=1e300))[None]
        max_real, reason, blocks, _ = steady_state_blocks(system)
        assert reason == ["gate"] and np.isfinite(max_real[0]) and len(blocks) == 0

    @pytest.mark.parametrize("count", [1, 7, 257])
    def test_one_norm_pass_judges_as_the_separate_steps(self, count):
        # full, non-diagonal Q_x and D_x over many scales, a quarter of the D_x
        # not symmetric, and inf, NaN and 1e200 entries in both blocks
        rng = np.random.default_rng(38)
        scale = 10.0 ** rng.uniform(-3.0, 9.0, (257, 1, 1))
        damping = rng.uniform(0.0, 4.0, (257, 1, 1)) * np.eye(3)
        drift = scale * (rng.normal(size=(257, 3, 3)) - damping)
        root = scale * rng.normal(size=(257, 3, 3))
        diffusion = root @ root.swapaxes(-1, -2) + (rng.uniform(size=(257, 1, 1)) < 0.25) * root
        system = np.stack([drift, diffusion], axis=1)
        rows = rng.choice(257, 24, replace=False)
        for row, value in zip(rows, [np.inf, -np.inf, np.nan, 1e200] * 6):
            system[row].flat[rng.integers(18)] = value
        stacks = [system[k:k + 1] for k in range(40)] if count == 1 else [system[:count]]
        for stack in stacks:
            q = stack[:, 0]
            with np.errstate(over="ignore", invalid="ignore"):
                gates = gaussian_module._gate(list(q.reshape(-1, 9).T),
                                              gaussian_module._frobenius(q))
                cov, r_x = solve_lyapunov_stack(stack[gates, 0], stack[gates, 1])
                residual = np.sqrt(2.0 * np.square(r_x))
                passed = residual_accepted(
                    residual, np.sqrt(2.0) * gaussian_module._frobenius(stack[gates, 1]))
            verdict = iter(passed.tolist())
            want = [(None if next(verdict) else "residual") if ok else "gate" for ok in gates]
            _, reason, got_cov, got_residual = steady_state_blocks(stack)
            assert reason == want
            assert got_residual.tobytes() == residual[passed].tobytes()
            assert got_cov.tobytes() == cov[passed].tobytes()
        if count > 1:
            assert {None, "gate", "residual"} <= set(reason)


class TestPhaseCovariantBlocks:
    @pytest.mark.parametrize("seed", range(4))
    def test_split_and_assemble_round_trip(self, seed):
        cov = random_phase_covariant_cm(np.random.default_rng(seed))
        blocks = covariance_blocks(cov)
        assert blocks.shape == (2, 3, 3)
        assert np.array_equal(phase_covariant_cm(*blocks), cov)
        assert np.array_equal(covariance_blocks(cov[None])[0], blocks)

    def test_blocks_read_x_prime_and_p_prime(self):
        # x' = (X_c, Y_q, Y_m), p' = (Y_c, -X_q, -X_m)
        matrix = np.arange(36.0).reshape(6, 6)
        matrix[np.ix_([0, 3, 5], [1, 2, 4])] = matrix[np.ix_([1, 2, 4], [0, 3, 5])] = 0.0
        vx, vp = covariance_blocks(matrix)
        assert np.array_equal(vx, matrix[np.ix_([0, 3, 5], [0, 3, 5])])
        sign = np.array([1.0, -1.0, -1.0])
        assert np.array_equal(vp, np.outer(sign, sign) * matrix[np.ix_([1, 2, 4], [1, 2, 4])])

    @pytest.mark.parametrize("mode", DIFFUSION_MODES)
    def test_x_block_matrix_has_the_bits_of_the_assembled_mirror(self, mode):
        rng = np.random.default_rng(60)
        system = np.stack([build_blocks(default_params(
            epsilon=float(rng.uniform(0.0, 0.95)), theta=float(rng.uniform(0.0, 2.0 * np.pi)),
            temperature=float(rng.uniform(0.0, 1.0)), g_q_ratio=float(rng.uniform(0.5, 3.0)),
            diffusion_mode=mode)) for _ in range(300)])
        blocks = mirror_pairs(steady_state_blocks(system)[2])
        assert len(blocks) >= 150
        # a signed zero comes out as the sign flips of the mirror and of p' leave it
        zeros = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -2.0], [0.0, 3.0, -0.0]])
        for x in [*system[:, 0], *system[:, 1], *blocks[:, 0], zeros, np.zeros((3, 3))]:
            assert x_block_matrix(x).tobytes() == phase_covariant_cm(*mirror_pairs(x)).tobytes()
        assert x_block_matrix(zeros.tolist()).tobytes() == x_block_matrix(zeros).tobytes()

    def test_x_block_matrix_keeps_nan_and_inf(self):
        x = np.array([[np.nan, np.inf, 1.0], [-np.inf, 2.0, np.nan], [3.0, np.inf, -np.inf]])
        matrix = x_block_matrix(x)
        assert np.array_equal(matrix, phase_covariant_cm(*mirror_pairs(x)), equal_nan=True)
        assert np.isnan(matrix).sum() == 4 and np.isinf(matrix).sum() == 8

    def test_steady_state_is_assembled_from_its_blocks(self):
        cov = steady_state_covariance(default_params(epsilon=0.86))
        assert np.array_equal(phase_covariant_cm(*covariance_blocks(cov)), cov)

    def test_coupled_state_is_rejected(self):
        with pytest.raises(NotPhaseCovariant):
            covariance_blocks(random_physical_cm(np.random.default_rng(3), 3))
        # the textbook two-mode squeezed state correlates X_c (in x') with X_q (in p')
        textbook = np.block([[tmsv_cm(0.5), np.zeros((4, 2))], [np.zeros((2, 4)), vacuum_cm(1)]])
        with pytest.raises(NotPhaseCovariant):
            covariance_blocks(textbook)

    def test_roundoff_coupling_is_accepted(self):
        cov = vacuum_cm(3)
        cov[0, 1] = cov[1, 0] = 1e-14
        assert np.array_equal(covariance_blocks(cov), 0.5 * np.array([np.eye(3)] * 2))
        cov[0, 1] = cov[1, 0] = 1e-11
        with pytest.raises(NotPhaseCovariant):
            covariance_blocks(cov)

    def test_stack_tolerance_is_each_matrix_own(self):
        # the x'p' tolerance is relative to each matrix's largest entry, not the stack's
        unit = tmsv_with_spectator(0.3)  # largest entry cosh(0.6) / 2
        large = 1e6 * random_phase_covariant_cm(np.random.default_rng(9))
        large[0, 1] = large[1, 0] = 1e-8  # roundoff at 1e-14 of its entries
        stack = np.array([[unit, large], [large, unit]])
        blocks = covariance_blocks(stack)
        want = stack[..., gaussian_module._ROWS, gaussian_module._COLS] * gaussian_module._SIGNS
        assert blocks.shape == (2, 2, 2, 3, 3) and blocks.tobytes() == want.tobytes()
        coupled = unit.copy()
        coupled[0, 1] = coupled[1, 0] = 1e-11
        for bad in ([coupled, large], [large, coupled]):
            with pytest.raises(NotPhaseCovariant):
                covariance_blocks(np.array(bad))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            covariance_blocks(vacuum_cm(2))

    # a non-finite entry is a ValueError for every 6x6 reader, not numpy's
    # "SVD did not converge" from the measures downstream; a vacuum scaled
    # out of the scale covariance_blocks accepts is a SingularBlock for every
    # reader, not an overflow or divide warning
    @pytest.mark.parametrize("bad, scale", [(np.nan, 1.0), (np.inf, 1.0),
                                            (0.5, 1e300), (0.5, 1e-300)],
                             ids=["nan", "inf", "1e300", "1e-300"])
    def test_entries_outside_the_readers_range_raise(self, bad, scale):
        cov = vacuum_cm(3)
        cov[0, 0] = bad
        cov *= scale
        scaled = np.isfinite(bad)
        error, match = (SingularBlock, "at most 1e100") if scaled else (ValueError, "finite")
        for call in (correlation_report, lambda v: measure_columns(v[None]), covariance_blocks,
                     check_physicality):
            with pytest.raises(error, match=match):
                call(cov)

    # the accepted scale's limits, 1e-100 for a nonzero variance and 1e100 for
    # any block entry, a variance or a correlation, each fall between half and
    # 1.5 times the value read
    @pytest.mark.parametrize("value, entry, accepted", [
        (0.5e-100, "variance", False), (1.5e-100, "variance", True),
        (0.5e100, "variance", True), (1.5e100, "variance", False),
        (0.5e100, "correlation", True), (1.5e100, "correlation", False),
    ])
    def test_scale_limit_boundaries(self, value, entry, accepted):
        if entry == "variance":
            cov = value * np.eye(6)
        else:  # X_c and Y_q, both x' quadratures
            cov = np.eye(6)
            cov[0, 3] = cov[3, 0] = value
        if accepted:
            blocks = covariance_blocks(cov)
            assert np.abs(blocks).max() == value
        else:
            with pytest.raises(SingularBlock, match="at most 1e100"):
                covariance_blocks(cov)


class TestSymplecticSpectrum:
    """The block spectrum against the complex eigen-solve of i Omega V."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle_for_state_and_partial_transposes(self, seed):
        rng = np.random.default_rng(300 + seed)
        covs = np.array([random_phase_covariant_cm(rng, nu_max=4.0) for _ in range(3)])
        blocks = covariance_blocks(covs)
        for pivot in (None, 0, 1, 2):
            signs = None if pivot is None else np.where(np.arange(3) == pivot, -1.0, 1.0)
            got = symplectic_spectrum(blocks, signs)
            for cov, nus in zip(covs, got):
                transposed = cov if pivot is None else partial_transpose(cov, [pivot])
                want = symplectic_eigenvalues(transposed, check_positive=False)
                assert np.allclose(nus[::-1], want, rtol=1e-12, atol=1e-13)

    def test_sub_vacuum_steady_states_match_oracle(self):
        cov = steady_state_covariance(default_params(epsilon=0.9))
        nus = symplectic_spectrum(covariance_blocks(cov[None]))[0]
        assert nus[-1] < 0.5
        assert np.allclose(nus[::-1], symplectic_eigenvalues(cov), rtol=1e-10)

    def test_vacuum_and_tmsv(self):
        blocks = covariance_blocks(np.array([vacuum_cm(3), tmsv_with_spectator(0.5)]))
        assert np.allclose(symplectic_spectrum(blocks), 0.5, atol=1e-12)
        transposed = symplectic_spectrum(blocks, np.array([-1.0, 1.0, 1.0]))
        assert transposed[1, -1] == pytest.approx(np.exp(-1.0) / 2, abs=1e-12)
        assert transposed[1, 0] == pytest.approx(np.exp(1.0) / 2, abs=1e-12)

    def test_rejects_indefinite_block(self):
        vp = 0.5 * np.eye(3)
        vp[2, 2] = -0.1
        blocks = covariance_blocks(phase_covariant_cm(0.5 * np.eye(3), vp)[None])
        with pytest.raises(NonPositiveInput):
            symplectic_spectrum(blocks)


# sign rows of the three one-versus-two partial transposes and of the state
CUT_SIGNS = np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [1.0, 1.0, 1.0]])


def random_block_pairs():
    """60 random physical states, 20 each with symplectic eigenvalues up to 2.5, 50 and 1e3."""
    rng = np.random.default_rng(16)
    return covariance_blocks(np.array([random_phase_covariant_cm(rng, nu_max=top)
                                       for top in (2.5, 50.0, 1e3) for _ in range(20)]))


def model_block_pairs():
    """Steady states of every diffusion mode along the fig3b, fig10 and fig6 axes, 72 in all.

    The paper-mode states reach nu_min = 0.0019, far below the vacuum floor.
    """
    pairs = []
    for mode in DIFFUSION_MODES:
        for preset_id in ("fig3b", "fig10", "fig6"):
            spec = preset(preset_id)
            grid = param_columns(spec.base.replace(diffusion_mode=mode),
                                 {spec.axis1.param: spec.axis1.grid()[::25]})
            system = build_blocks(grid, derive(grid)).reshape(-1, 2, 3, 3)
            pairs.append(mirror_pairs(steady_state_blocks(system)[2]))
    return np.concatenate(pairs)


def degenerate_pairs():
    """States with two equal, or nearly equal, symplectic eigenvalues: two product
    states, then random rotations O diag(n, n (1 + split), m) O^T of both blocks."""
    pairs = [np.array([np.diag([0.7, 0.7, 1.5])] * 2), np.array([np.diag([0.5, 0.5, 2.5])] * 2)]
    rng = np.random.default_rng(29)
    for split in (0.0, 1e-12, 1e-9, 1e-6):
        for n, m in ((0.5, 1.3), (0.8, 4.0), (2.0, 0.6)):
            rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            v = rotation @ np.diag([n, n * (1.0 + split), m]) @ rotation.T
            pairs.append(np.array([(v + v.T) / 2.0] * 2))
    return np.array(pairs)


class TestMinSymplecticEig:
    """The closed form against the SVD oracle and the 50-digit reference, at its
    degenerate rows and scale edges, and the same bits on every stack."""

    @pytest.fixture(scope="class", params=["random", "model"])
    def pairs(self, request):
        return random_block_pairs() if request.param == "random" else model_block_pairs()

    def test_matches_40_digit_reference(self, pairs):
        got = min_symplectic_eig(pairs, CUT_SIGNS)
        worst = max(float(abs(nu - want) / want)
                    for pair, nus in zip(pairs, got)
                    for signs, nu in zip(CUT_SIGNS, nus)
                    for want in [mp_symplectic_eigenvalues(*pair, signs)[0]])
        assert worst <= 1e-14

    def test_matches_svd_oracle(self, pairs):
        # the SVD oracle itself errs by up to 1.4e-14 on the model states
        got = min_symplectic_eig(pairs, CUT_SIGNS)
        want = symplectic_spectrum(pairs[:, :, None], CUT_SIGNS)[..., -1]
        assert got.shape == (len(pairs), len(CUT_SIGNS))
        assert np.allclose(got, want, rtol=3e-14, atol=0.0)

    def test_vacuum_and_tmsv(self):
        blocks = covariance_blocks(np.array([vacuum_cm(3), tmsv_with_spectator(0.5)]))
        nus = min_symplectic_eig(blocks, CUT_SIGNS)
        assert np.allclose(nus[0], 0.5, rtol=1e-15)
        assert nus[1, 0] == pytest.approx(np.exp(-1.0) / 2, rel=1e-14)
        assert nus[1, 1] == pytest.approx(np.exp(-1.0) / 2, rel=1e-14)
        assert nus[1, 2:] == pytest.approx([0.5, 0.5], rel=1e-14)

    def test_rejects_indefinite_block(self):
        # a negative or a zero variance, on the float path and the array path
        for variance in (-0.1, 0.0):
            vp = 0.5 * np.eye(3)
            vp[2, 2] = variance
            cov = phase_covariant_cm(0.5 * np.eye(3), vp)
            for count in (1, 3):
                blocks = covariance_blocks(np.array([cov] * count))
                with pytest.raises(NonPositiveInput):
                    min_symplectic_eig(blocks, CUT_SIGNS)

    def test_degenerate_spectrum(self):
        # where the two largest Gram eigenvalues meet, the closed form alone would
        # lose digits (2.8e-9 relative on the rotations); the eigen-solver takes those rows
        pairs = degenerate_pairs()
        got = min_symplectic_eig(pairs, CUT_SIGNS)
        for pair, nus in zip(pairs, got):
            for signs, nu in zip(CUT_SIGNS, nus):
                want = mp_symplectic_eigenvalues(*pair, signs)[0]
                assert float(abs(nu - want) / want) <= 1e-14
        negativities = [k for k in MEASURE_KEYS if k.startswith("LN_")]
        columns = measure_blocks(pairs[:2], negativities)
        assert all(columns[key] == [0.0, 0.0] for key in negativities)

    @pytest.mark.parametrize("count", [1, 3])
    def test_scale_edges(self, count):
        # nu_min scales with the state, over the scale covariance_blocks accepts
        states = (steady_state_covariance(default_params(epsilon=0.9)), tmsv_with_spectator(0.5),
                  steady_state_covariance(default_params(temperature=2.0)))
        unit = covariance_blocks(np.array(states[:count]))
        want = min_symplectic_eig(unit, CUT_SIGNS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e-99, 1e-60, 1e-30, 1.0, 1e30, 1e60, 1e99):
                got = min_symplectic_eig(unit * scale, CUT_SIGNS)
                assert np.allclose(got, want * scale, rtol=1e-14, atol=0.0)

    def test_same_bits_on_every_stack(self, monkeypatch):
        # preset states and rows that go to the eigen-solver, in one stack
        pairs = np.concatenate([model_block_pairs(), degenerate_pairs()])
        solved = []
        solver = gaussian_module._eigvalsh_nu
        monkeypatch.setattr(gaussian_module, "_eigvalsh_nu",
                            lambda *gram: solved.append(len(gram[0])) or solver(*gram))
        stacked = min_symplectic_eig(pairs, CUT_SIGNS)
        assert 0 < sum(solved) < stacked.size
        alone = np.concatenate([min_symplectic_eig(pair[None], CUT_SIGNS) for pair in pairs])
        assert np.array_equal(stacked, alone)

    @pytest.mark.parametrize("count", [1, 3])
    def test_sign_rows_as_lists(self, count):
        # sign rows given as nested lists, of floats or of ints, give the array's bits
        pairs = random_block_pairs()[:count]
        want = min_symplectic_eig(pairs, CUT_SIGNS)
        for signs in (CUT_SIGNS.tolist(), CUT_SIGNS.astype(int).tolist()):
            assert min_symplectic_eig(pairs, signs).tobytes() == want.tobytes()

    def test_is_the_physicality_check(self):
        for cov in (vacuum_cm(3), tmsv_with_spectator(0.5),
                    steady_state_covariance(default_params(epsilon=0.9))):
            nu = min_symplectic_eig(covariance_blocks(cov[None]), CUT_SIGNS[-1:])
            assert check_physicality(cov)[1] == nu[0, 0]


class TestSymplecticEigenvalues:
    # the oracles' complex eigen-solve
    def test_vacuum(self):
        assert symplectic_eigenvalues(vacuum_cm(1)) == pytest.approx([0.5])

    def test_thermal(self):
        n_th = 2.0
        nus = symplectic_eigenvalues((n_th + 0.5) * np.eye(2))
        assert nus == pytest.approx([2.5])

    def test_tmsv_degenerate_at_vacuum(self):
        cov = tmsv_cm(0.5)
        expected = direct_symplectic_spectrum(cov)
        assert np.allclose(sorted(expected), [0.5, 0.5], atol=1e-12)
        assert np.allclose(symplectic_eigenvalues(cov), [0.5, 0.5], atol=1e-12)

    def test_rejects_indefinite_input(self):
        with pytest.raises(NonPositiveInput):
            symplectic_eigenvalues(np.diag([1.0, -1.0]))

    def test_rejects_unpairable_spectrum(self):
        # a matrix whose i-Omega spectrum is real and unpaired
        unpaired = omega(2).T @ np.diag([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="pair"):
            symplectic_eigenvalues(unpaired, check_positive=False)

    @pytest.mark.parametrize("seed", range(8))
    def test_invariance_under_symplectic_transforms(self, seed):
        rng = np.random.default_rng(100 + seed)
        cov = random_physical_cm(rng, 3)
        sympl = random_symplectic(rng, 3)
        assert np.allclose(sympl @ omega(3) @ sympl.T, omega(3), atol=1e-10)
        before = symplectic_eigenvalues(cov)
        after = symplectic_eigenvalues(sympl @ cov @ sympl.T)
        assert np.allclose(before, after, atol=1e-10)


class TestPartialTranspose:
    @pytest.mark.parametrize("seed", range(4))
    def test_involution_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        cov = random_physical_cm(rng, 3)
        party = [0, 2]
        assert np.array_equal(partial_transpose(partial_transpose(cov, party), party), cov)

    def test_product_vacuum_unchanged(self):
        assert np.array_equal(partial_transpose(vacuum_cm(2), [0]), vacuum_cm(2))

    def test_tmsv_minimum_eigenvalue(self):
        # PT spectrum of a two-mode squeezed vacuum is exp(+-2r)/2
        r = 0.5
        nus = symplectic_eigenvalues(partial_transpose(tmsv_cm(r), [0]),
                                     check_positive=False)
        assert nus[0] == pytest.approx(np.exp(-2 * r) / 2, abs=1e-12)
        assert nus[-1] == pytest.approx(np.exp(2 * r) / 2, abs=1e-12)

    def test_rejects_bad_mode_index(self):
        with pytest.raises(ValueError):
            partial_transpose(vacuum_cm(2), [2])

    @pytest.mark.parametrize("seed", range(6))
    def test_pt_eigenvalue_matches_closed_discriminant(self, seed):
        # two routes to the smallest PT symplectic eigenvalue of a two-mode
        # state: eigensolve of the transposed matrix vs the closed form
        # sqrt((sigma - sqrt(sigma^2 - 4 det V)) / 2)
        rng = np.random.default_rng(700 + seed)
        cov = random_physical_cm(rng, 2)
        via_spectrum = symplectic_eigenvalues(partial_transpose(cov, [0]),
                                              check_positive=False)[0]
        sigma = (np.linalg.det(cov[:2, :2]) + np.linalg.det(cov[2:, 2:])
                 - 2 * np.linalg.det(cov[:2, 2:]))
        closed = np.sqrt((sigma - np.sqrt(sigma**2 - 4 * np.linalg.det(cov))) / 2)
        assert via_spectrum == pytest.approx(closed, abs=1e-10)


class TestSchurComplement:
    def test_product_state_returns_steered_block(self):
        rng = np.random.default_rng(0)
        block_a = random_physical_cm(rng, 1)
        block_b = random_physical_cm(rng, 1)
        cov = np.block([[block_a, np.zeros((2, 2))], [np.zeros((2, 2)), block_b]])
        out = schur_complement_steered(cov, Bipartition((0,), (1,)))
        assert np.allclose(out, block_b, atol=1e-14)

    def test_tmsv_closed_form(self):
        r = 0.5
        out = schur_complement_steered(tmsv_cm(r), Bipartition((0,), (1,)))
        assert np.allclose(out, np.eye(2) / (2 * np.cosh(2 * r)), atol=1e-12)

    def test_three_mode_simulator_output_is_symmetric(self):
        cov = steady_state_covariance(default_params(epsilon=0.0))
        out = schur_complement_steered(cov, Bipartition((0,), (1, 2)))
        assert out.shape == (4, 4)
        assert np.allclose(out, out.T, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_positive_definite_for_physical_input(self, seed):
        rng = np.random.default_rng(40 + seed)
        cov = random_physical_cm(rng, 3)
        out = schur_complement_steered(cov, Bipartition((0, 1), (2,)))
        assert np.all(np.linalg.eigvalsh(out) > 0)

    def test_singular_steering_block(self):
        # a party is judged by the correlation of its quadratures, not their scale
        cov = vacuum_cm(2)
        cov[0, 0] = cov[1, 1] = 1.0
        cov[0, 1] = cov[1, 0] = 1.0 - 1e-13
        with pytest.raises(SingularBlock):
            schur_complement_steered(cov, Bipartition((0,), (1,)))
        cov[0, 1] = cov[1, 0] = 0.0
        cov[1, 1] = 1e-15
        assert schur_complement_steered(cov, Bipartition((0,), (1,))) == pytest.approx(
            0.5 * np.eye(2), abs=0.0)


class TestBipartition:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Bipartition((0, 1), (1,))

    def test_rejects_empty_party(self):
        with pytest.raises(ValueError):
            Bipartition((), (1,))

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            Bipartition((0, 0), (1,))


class TestExtractSubmatrix:
    def test_all_modes_identity(self):
        rng = np.random.default_rng(1)
        cov = random_physical_cm(rng, 3)
        assert np.array_equal(extract_submatrix(cov, [0, 1, 2]), cov)

    def test_qubit_magnon_block_pattern(self):
        # the qubit-magnon reduction of the closed-form state is
        # X = diag(v33, v33), Y = diag(v66, v66), Z = diag(v35, -v35)
        params = default_params(epsilon=0.0)
        cov = analytic_covariance(params)
        sub = extract_submatrix(cov, [1, 2])
        v33, v66, v35 = cov[2, 2], cov[4, 4], cov[2, 4]
        assert np.allclose(sub[:2, :2], np.diag([v33, v33]), atol=1e-15)
        assert np.allclose(sub[2:, 2:], np.diag([v66, v66]), atol=1e-15)
        assert np.allclose(sub[:2, 2:], np.diag([v35, -v35]), atol=1e-15)

    def test_single_mode_from_vacuum(self):
        assert np.array_equal(extract_submatrix(vacuum_cm(3), [0]), vacuum_cm(1))

    def test_rejects_repeated_modes(self):
        with pytest.raises(ValueError):
            extract_submatrix(vacuum_cm(3), [0, 0])


class TestCheckPhysicality:
    def test_vacuum(self):
        ok, nu_min = check_physicality(vacuum_cm(3))
        assert ok
        assert nu_min == pytest.approx(0.5, abs=1e-12)

    def test_subvacuum_variance_is_unphysical(self):
        ok, nu_min = check_physicality(np.diag([0.5, 0.5, 0.4, 0.4, 0.5, 0.5]))
        assert not ok
        assert nu_min == pytest.approx(0.4, abs=1e-12)

    def test_no_feedback_steady_state_is_physical(self):
        for temperature in (0.0, 0.01, 0.3):
            cov = steady_state_covariance(
                default_params(epsilon=0.0, temperature=temperature))
            ok, _ = check_physicality(cov)
            assert ok
