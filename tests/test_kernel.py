"""The batched block kernel against the generic 6x6 oracle helpers, and the
blocked sweep against point-by-point evaluation."""

import mpmath
import numpy as np
import pytest

from magnonsteer import (
    Axis,
    NonPositiveInput,
    SingularBlock,
    SweepSpec,
    classify_steering,
    correlation_report,
    default_params,
    preset,
    run_point,
    run_sweep,
    steady_state_covariance,
)
from magnonsteer.gaussian import covariance_blocks, symplectic_spectrum
from magnonsteer.measures import MEASURE_KEYS, measure_columns
from magnonsteer.sweep import DIAGNOSTIC_KEYS, grid_points

from _oracles import (
    Bipartition,
    extract_submatrix,
    gaussian_steering,
    log_negativity_1v2,
    log_negativity_2mode,
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


def mp_smallest_symplectic_eigenvalue(blocks: np.ndarray, pivot: int | None) -> mpmath.mpf:
    """Smallest symplectic eigenvalue of V_x (+) V_p, the pivot transposed, to 50 digits.

    At this precision forming nu^2 as the eigenvalues of T V_x T V_p is harmless.
    """
    with mpmath.workdps(50):
        flip = mpmath.diag([-1 if i == pivot else 1 for i in range(3)])
        vx, vp = (mpmath.matrix(block.tolist()) for block in blocks)
        product = flip * vx * flip * vp
        return min(mpmath.sqrt(mpmath.re(e)) for e in mpmath.eig(product, left=False, right=False))


def test_sub_vacuum_spectra_match_50_digit_reference():
    # routes that form nu^2 in double precision (eigenvalues of V_x V_p, a
    # Cholesky factor followed by an eigen-solve) miss by 1e-14 or more here
    covs = sub_vacuum_states()
    blocks = covariance_blocks(covs)
    columns = measure_columns(covs, ("LN_c_qm", "LN_q_cm", "LN_m_cq"))
    nu_min = symplectic_spectrum(blocks)[:, -1]
    worst = 0.0
    for k, pair in enumerate(blocks):
        worst = max(worst, abs(nu_min[k] - mp_smallest_symplectic_eigenvalue(pair, None)))
        for pivot, key in enumerate(("LN_c_qm", "LN_q_cm", "LN_m_cq")):
            if columns[key][k] > 0:
                nu = np.exp(-columns[key][k]) / 2
                worst = max(worst, abs(nu - mp_smallest_symplectic_eigenvalue(pair, pivot)))
    assert float(worst) <= 1e-15


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


def unphysical_pair_state():
    """Phase-covariant three-mode matrix whose c-q block is not positive definite."""
    vx = 0.5 * np.eye(3)
    vx[0, 1] = vx[1, 0] = 0.6
    return phase_covariant_cm(vx, 0.5 * np.eye(3))


def singular_cavity_state():
    """Three-mode matrix whose cavity block is numerically singular."""
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


def test_singular_block_in_a_block_raises_like_the_helper():
    good = random_states(2, seed=4)
    bad = singular_cavity_state()
    with pytest.raises(SingularBlock) as scalar:
        gaussian_steering(bad, Bipartition((0,), (1,)))
    for outputs in (("G_c_to_q",), ("G_c_to_qm",), ("class_cm",), ("mono_out_c",)):
        with pytest.raises(SingularBlock) as batched:
            measure_columns(np.array([good[0], good[1], bad]), outputs)
        assert str(batched.value) == str(scalar.value)


def test_report_delegates_to_the_kernel():
    cov = random_states(1, seed=8)[0]
    assert correlation_report(cov).to_flat_dict() == {
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
