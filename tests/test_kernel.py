"""The batched block kernel against the generic 6x6 oracle helpers, and the
blocked sweep against point-by-point evaluation."""

import re

import mpmath
import numpy as np
import pytest

from magnonsteer import (
    NonPositiveInput,
    SingularBlock,
    correlation_report,
    default_params,
    params_from_dict,
    preset,
    run_point,
    run_sweep,
    steady_state_covariance,
)
from magnonsteer import measures
from magnonsteer.gaussian import covariance_blocks
from magnonsteer.measures import MEASURE_KEYS, classify_steering, measure_blocks, measure_columns
from magnonsteer.sweep import DIAGNOSTIC_KEYS, Axis, SweepSpec, grid_points

from _oracles import (
    Bipartition,
    extract_submatrix,
    gaussian_steering,
    log_negativity_1v2,
    log_negativity_2mode,
    mp_symplectic_eigenvalues,
    phase_covariant_cm,
    random_phase_covariant_cm,
    symplectic_eigenvalues,
    vacuum_cm,
)

LABELS = "cqm"


def reference_measures(cov: np.ndarray) -> dict:
    """Every MEASURE_KEYS value of one covariance, from the 6x6 oracle helpers.

    The derived measures (asymmetry, class, R_*, mono_*) are formed here from
    these LN and G values, independently of the kernel's own combination.
    """
    index = {lbl: k for k, lbl in enumerate(LABELS)}

    def modes(labels):
        return tuple(index[lbl] for lbl in labels)

    def rest(label):
        return "".join(lbl for lbl in LABELS if lbl != label)

    def pair(a, b):
        return "".join(sorted(a + b, key=LABELS.index))

    flat = {}
    for ab in ("cq", "cm", "qm"):
        flat[f"LN_{ab}"] = log_negativity_2mode(extract_submatrix(cov, modes(ab)))
    for p in LABELS:
        flat[f"LN_{p}_{rest(p)}"] = log_negativity_1v2(cov, index[p])
        for party_a, party_b in ((p, rest(p)), (rest(p), p)):
            flat[f"G_{party_a}_to_{party_b}"] = gaussian_steering(
                cov, Bipartition(modes(party_a), modes(party_b)))
        for q in rest(p):
            flat[f"G_{p}_to_{q}"] = gaussian_steering(cov, Bipartition(modes(p), modes(q)))
    for a, b in ("cq", "cm", "qm"):
        g_ab, g_ba = flat[f"G_{a}_to_{b}"], flat[f"G_{b}_to_{a}"]
        flat[f"asym_{a}{b}"] = abs(g_ab - g_ba)
        flat[f"class_{a}{b}"] = classify_steering(g_ab, g_ba)
    for p in LABELS:
        i, j = rest(p)
        flat[f"R_{p}"] = (flat[f"LN_{p}_{i}{j}"]**2 - flat[f"LN_{pair(p, i)}"]**2
                          - flat[f"LN_{pair(p, j)}"]**2)
        flat[f"mono_out_{p}"] = flat[f"G_{p}_to_{i}{j}"] - flat[f"G_{p}_to_{i}"] - flat[f"G_{p}_to_{j}"]
        flat[f"mono_in_{p}"] = flat[f"G_{i}{j}_to_{p}"] - flat[f"G_{i}_to_{p}"] - flat[f"G_{j}_to_{p}"]
    flat["R_min"] = min(flat[f"R_{p}"] for p in LABELS)
    assert set(flat) == set(MEASURE_KEYS)
    return flat


def assert_same(got, want, key):
    if key.startswith("class_"):
        assert got == want, key
    else:
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12), key


def random_states(count, seed):
    rng = np.random.default_rng(seed)
    return np.array([random_phase_covariant_cm(rng) for _ in range(count)])


def sub_vacuum_states():
    """Steady states of the paper noise model at strong feedback, below the vacuum floor."""
    states = []
    for preset_id in ("fig3b", "fig10"):
        points = grid_points(preset(preset_id))
        states += [steady_state_covariance(p) for p in points[::40]]
    return np.array(states)


@pytest.fixture(scope="module", params=["random", "sub_vacuum"])
def states(request):
    if request.param == "random":
        return random_states(12, seed=2024)
    covs = sub_vacuum_states()
    assert max(symplectic_eigenvalues(cov)[0] for cov in covs) < 0.5
    return covs


def test_kernel_matches_helpers_one_matrix(states):
    for cov in states:
        columns = measure_columns(cov[None])
        want = reference_measures(cov)
        assert list(columns) == list(MEASURE_KEYS)
        for key in MEASURE_KEYS:
            assert len(columns[key]) == 1
            assert_same(columns[key][0], want[key], key)


def test_kernel_matches_helpers_on_a_stack(states):
    columns = measure_columns(states)
    for k, cov in enumerate(states):
        want = reference_measures(cov)
        for key in MEASURE_KEYS:
            assert_same(columns[key][k], want[key], key)


def mp_sub(block, rows, cols):
    return mpmath.matrix([[block[i, j] for j in cols] for i in rows])


def mp_conditional(v, key: str):
    """The 50-digit block of the modes a steering ``key`` steers, conditioned on its party."""
    party, steered = ([LABELS.index(lbl) for lbl in labels] for labels in key[2:].split("_to_"))
    return (mp_sub(v, steered, steered)
            - mp_sub(v, steered, party) * mpmath.inverse(mp_sub(v, party, party))
            * mp_sub(v, party, steered))


def mp_slot_blocks(blocks: np.ndarray, key: str):
    """The 50-digit blocks (V_x, V_p, signs of T) of a conditional-pass slot.

    A pair's own blocks, its first mode transposed; or the conditional of
    the modes a party steers.
    """
    with mpmath.workdps(50):
        vx, vp = (mpmath.matrix(block.tolist()) for block in blocks)
        if key.startswith("LN_"):
            modes = [LABELS.index(lbl) for lbl in key[3:]]
            return mp_sub(vx, modes, modes), mp_sub(vp, modes, modes), (-1, 1)
        return mp_conditional(vx, key), mp_conditional(vp, key), None


def test_sub_vacuum_spectra_match_50_digit_reference():
    # routes that form nu^2 in double precision (eigenvalues of V_x V_p, a
    # Cholesky factor followed by an eigen-solve) miss by 1e-14 or more here.
    # Checked: min_symplectic_eig and the one-versus-two negativities (one
    # factorisation of the 3x3 blocks), and every slot of the conditional
    # pass: nu of each one-steered-mode steering, held to 1e-14 relative, and
    # both nu of every pair cut and of every 1 -> 2 conditional (the closed
    # 2x2 form), where the largest nu reaches 6, held to 1e-15. The last state
    # is a product of a hot and a squeezed mode: on its LN_cq slot
    # nu_min = 1.7e-3 and nu_max = 1.2e4, where nu_min = a22 a33 b22 b33 / nu_max
    # errs by 6e-20 and the cancelling (h+ - h-) / 2 by 7.5e-13
    product = [np.diag([3e4, 2e-3, 0.7]), np.diag([5e3, 1.5e-3, 0.9])]
    blocks = np.concatenate([covariance_blocks(sub_vacuum_states()), [product]])
    keys = ("LN_c_qm", "LN_q_cm", "LN_m_cq", "min_symplectic_eig")
    columns = measure_blocks(blocks, keys)
    slots = list(measures._SLOTS)
    plan = measures._plan(tuple(slots))
    one, nu_min, nu_max = measures._conditional(measures._entry_table(blocks), plan)
    worst = worst_one = 0.0
    for k, pair in enumerate(blocks):
        nu = columns["min_symplectic_eig"][k]
        worst = max(worst, abs(nu - mp_symplectic_eigenvalues(*pair)[0]))
        for key in keys[:3]:
            if columns[key][k] > 0:
                nu = np.exp(-columns[key][k]) / 2
                worst = max(worst, abs(nu - mp_symplectic_eigenvalues(*pair, measures._CUTS[key])[0]))
        for slot, key in enumerate(slots[:plan.split]):
            (want,) = mp_symplectic_eigenvalues(*mp_slot_blocks(pair, key))
            worst_one = max(worst_one, abs(one[slot, k] - want) / want)
        for slot, key in enumerate(slots[plan.split:]):
            low, high = mp_symplectic_eigenvalues(*mp_slot_blocks(pair, key))
            worst = max(worst, abs(nu_min[slot, k] - low), abs(nu_max[slot, k] - high) / high)
    assert plan.split == 9
    assert float(worst) <= 1e-15
    assert float(worst_one) <= 1e-14


def test_kernel_values_are_plain_python():
    columns = measure_columns(random_states(3, seed=5))
    for key, column in columns.items():
        assert isinstance(column, list)
        assert all(type(v) is (str if key.startswith("class_") else float) for v in column)


def test_entangled_states_are_covered(states):
    # the comparison above is only telling if the states carry correlations
    columns = measure_columns(states)
    assert max(columns["LN_c_qm"] + columns["LN_m_cq"]) > 0.05
    assert max(columns["G_c_to_q"] + columns["G_qm_to_c"] + columns["G_m_to_cq"]) > 0.01


@pytest.mark.parametrize("outputs", [
    ("LN_qm",),
    ("R_min",),
    ("class_cm", "asym_cq"),
    ("mono_in_q", "G_c_to_m", "LN_c_qm"),
    ("mono_out_m", "R_c"),
])
def test_restricted_outputs_return_exactly_those_keys(outputs):
    covs = random_states(4, seed=11)
    columns = measure_columns(covs, outputs)
    full = measure_columns(covs)
    assert tuple(columns) == outputs
    for key in outputs:
        assert columns[key] == full[key]


def test_empty_block():
    columns = measure_columns(np.empty((0, 6, 6)), ("LN_cq", "G_cq_to_m", "class_qm"))
    assert columns == {"LN_cq": [], "G_cq_to_m": [], "class_qm": []}


@pytest.mark.parametrize("key", ["LN_xx", "mono_out_z", "asym_cc", "G_c_to_c", "R_x", "foo",
                                 "class_mq", "mono_in_cq", "R_min_c"])
def test_unknown_measure_key_is_a_value_error(key):
    # named in the error, not an unpacking or lookup failure inside the kernel
    covs = random_states(2, seed=3)
    message = re.escape(f"unknown measure keys: [{key!r}]")
    with pytest.raises(ValueError, match=message):
        measure_columns(covs, ("LN_qm", key))
    with pytest.raises(ValueError, match=message):
        measure_blocks(covariance_blocks(covs), (key, "min_symplectic_eig"))


def test_outputs_given_as_one_string_is_a_value_error():
    # the string is not read as a list of one-letter keys
    covs = random_states(2, seed=3)
    with pytest.raises(ValueError, match="outputs must be a list of measure keys"):
        measure_columns(covs, "LN_cq")
    with pytest.raises(ValueError, match="outputs must be a list of measure keys"):
        measure_blocks(covariance_blocks(covs), "LN_cq")


def test_every_measure_key_is_one_pass_slot_or_one_derived_entry():
    slots = [*measures._SLOTS, *measures._CUTS]
    for key in MEASURE_KEYS:
        assert slots.count(key) + (key in measures._DERIVED) == 1, key
    assert set(slots) | set(measures._DERIVED) == {*MEASURE_KEYS, "min_symplectic_eig"}
    # a derived source is entered before the key that reads it
    order = list(measures._DERIVED)
    for key, (_, sources) in measures._DERIVED.items():
        assert all(order.index(src) < order.index(key) for src in sources if src in order), key


def test_each_derived_kind_is_one_block_of_rows_after_its_sources():
    plan = measures._plan(MEASURE_KEYS)
    rows = {key: row for key, row in plan.columns if isinstance(row, int)}
    start = plan.measured
    assert len(plan.derived) == len(measures._FORMULAS)
    for (kind, formula), (used, block, sources) in zip(measures._FORMULAS.items(), plan.derived):
        keys = [key for key, (k_kind, _) in measures._DERIVED.items() if k_kind == kind]
        assert used is formula
        assert block == slice(start, start + len(keys))
        assert [rows[key] for key in keys] == list(range(block.start, block.stop))
        assert sources.max() < block.start
        start = block.stop
    assert start == plan.size


def unphysical_pair_state():
    """Phase-covariant three-mode matrix whose c-q block is not positive definite."""
    vx = 0.5 * np.eye(3)
    vx[0, 1] = vx[1, 0] = 0.6
    return phase_covariant_cm(vx, 0.5 * np.eye(3))


def singular_cavity_state():
    """Three-mode matrix whose cavity variances, 0.5 (x') and 1e-14 (p'), differ
    by 14 orders of magnitude but are uncorrelated."""
    cov = vacuum_cm(3)
    cov[1, 1] = 1e-14
    return cov


def test_bad_matrix_in_a_block_raises_like_the_helper():
    good = random_states(2, seed=3)
    bad = unphysical_pair_state()
    with pytest.raises(NonPositiveInput) as scalar:
        symplectic_eigenvalues(extract_submatrix(bad, [0, 1]))
    with pytest.raises(NonPositiveInput) as batched:
        measure_columns(np.array([good[0], bad, good[1]]), ("LN_cq",))
    assert "not positive definite" in str(scalar.value)
    assert "not positive definite" in str(batched.value)
    # the same matrix passes when no output needs its c-q blocks
    measure_columns(np.array([good[0], bad, good[1]]), ("G_m_to_c",))
    # a steering party's own block that is not positive definite is named so,
    # whether it steers one mode or two
    party = np.array([[np.diag([-0.5, 0.5, 0.5]), 0.5 * np.eye(3)]])
    for outputs in (("G_c_to_q",), ("G_c_to_qm",)):
        with pytest.raises(NonPositiveInput, match="^covariance block is not positive definite"):
            measure_blocks(party, outputs)


def indefinite_conditional_state():
    """Phase-covariant matrix whose pair blocks are positive definite but whose
    V_x, and so the conditional of q and m given c, is not."""
    vx = np.full((3, 3), -0.3)
    np.fill_diagonal(vx, 0.5)
    return phase_covariant_cm(vx, 0.5 * np.eye(3))


def test_a_pass_computes_only_the_slots_asked_for():
    # LN_cq, G_c_to_qm, G_c_to_q and G_qm_to_c share the conditional pass; a
    # slot that is not asked for is not computed
    bad = indefinite_conditional_state()[None]
    assert measure_blocks(covariance_blocks(bad), ()) == {}
    measure_columns(bad, ("LN_cq",))
    measure_columns(bad, ("LN_cm", "LN_qm", "G_c_to_q", "G_q_to_m"))
    for outputs in (("G_c_to_qm",), ("LN_cq", "G_c_to_qm"), ("G_qm_to_c",)):
        with pytest.raises(NonPositiveInput, match="not positive definite"):
            measure_columns(bad, outputs)


def test_singular_block_in_a_block_raises_like_the_helper():
    # a party is judged by its modes' correlation, not their scale: the cavity
    # is no steering party the kernel or the helper rejects, and both measure it
    good = random_states(2, seed=4)
    covs = np.array([good[0], good[1], singular_cavity_state()])
    wants = [reference_measures(cov) for cov in covs]
    for key in ("G_c_to_q", "G_c_to_qm", "class_cm", "mono_out_c"):
        for got, want in zip(measure_columns(covs, (key,))[key], wants):
            assert_same(got, want[key], key)


def singular_pair_party_state():
    """Phase-covariant matrix whose q-m block, as a steering party, has
    condition number 2e13 while each of its modes is well conditioned."""
    vx = 0.5 * np.eye(3)
    vx[1, 2] = vx[2, 1] = 0.5 * (1.0 - 1e-13)
    return phase_covariant_cm(vx, 0.5 * np.eye(3))


def test_singular_two_mode_party_raises_like_the_helper():
    good = random_states(2, seed=4)
    bad = singular_pair_party_state()
    with pytest.raises(SingularBlock) as scalar:
        gaussian_steering(bad, Bipartition((1, 2), (0,)))
    for outputs in (("G_qm_to_c",), ("mono_in_c",)):
        with pytest.raises(SingularBlock) as batched:
            measure_columns(np.array([good[0], bad, good[1]]), outputs)
        assert str(batched.value) == str(scalar.value)
    # its one-mode parties are well conditioned
    measure_columns(np.array([good[0], bad, good[1]]), ("G_q_to_c", "G_m_to_c"))


@pytest.mark.parametrize("power", [10, -10, 20, -20, 40, -40])
def test_local_squeezing_leaves_every_measure_unchanged(power):
    # squeezing mode k scales its x' row and column by 2^power and its p' ones
    # by 2^-power; every measure is invariant under it, the scaling is exact
    # in binary, and a party is judged by its modes' correlation, so the
    # kernel gives the same bits
    blocks = covariance_blocks(random_states(12, seed=31))
    outputs = (*MEASURE_KEYS, "min_symplectic_eig")
    want = measure_blocks(blocks, outputs)
    for k in range(3):
        squeezed = blocks.copy()
        for block, sign in ((0, 1), (1, -1)):
            squeezed[:, block, k, :] *= 2.0 ** (sign * power)
            squeezed[:, block, :, k] *= 2.0 ** (sign * power)
        assert measure_blocks(squeezed, outputs) == want, k


# a hot magnon: x' variance 7.4e15 against the qubit's 0.79, each steering
# party well conditioned once its modes are scaled to unit variance
HOT_MAGNON = {"B0": 1e-18, "drive_power": 1e-11}


def test_hot_magnon_steering_matches_50_digit_reference():
    # every steering, within 1e-12 absolute, and the symplectic eigenvalues
    # of every conditional, which span 0.72 to 7.1e15, within 1e-14 relative
    blocks = covariance_blocks(steady_state_covariance(params_from_dict(HOT_MAGNON))[None])
    slots = [key for key in measures._SLOTS if key.startswith("G_")]
    columns = measure_blocks(blocks, slots)
    plan = measures._plan(tuple(slots))
    one, nu_min, nu_max = measures._conditional(measures._entry_table(blocks), plan)
    got = [[nu] for nu in one[:, 0]] + [list(pair) for pair in zip(nu_min[:, 0], nu_max[:, 0])]
    for key, nus in zip(slots, got):
        want = mp_symplectic_eigenvalues(*mp_slot_blocks(blocks[0], key))
        steering = max(0.0, -sum(float(mpmath.log(2 * nu)) for nu in want if nu < 0.5))
        assert abs(columns[key][0] - steering) <= 1e-12, key
        assert all(abs(nu - w) <= 1e-14 * w for nu, w in zip(nus, want)), key


def test_report_delegates_to_the_kernel():
    cov = random_states(1, seed=8)[0]
    assert correlation_report(cov) == {
        key: column[0] for key, column in measure_columns(cov[None]).items()}


def test_blocked_sweep_matches_point_by_point():
    # 130 points cross two block boundaries; small spheres are unstable
    spec = SweepSpec(base=default_params(epsilon=0.5),
                     axis1=Axis("sphere_radius", 40e-6, 140e-6, 130))
    rows = run_sweep(spec)
    statuses = [row["status"] for row in rows]
    assert len(rows) == 130
    assert statuses[0] == "unstable" and statuses[-1] == "ok"
    edge = statuses.index("ok")
    assert 0 < edge < 64
    for params, row in zip(grid_points(spec), rows):
        flat = run_point(params).to_flat_dict()
        want = {"sphere_radius": params.sphere_radius}
        want.update({key: flat.get(key) for key in spec.outputs + DIAGNOSTIC_KEYS})
        want["status"] = flat["status"]
        assert row == want
