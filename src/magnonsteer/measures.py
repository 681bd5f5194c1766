"""Bipartite and tripartite correlation quantifiers for Gaussian states.

Entanglement is measured by the logarithmic negativity max[0, -ln 2 nu~] with
nu~ the smallest symplectic eigenvalue of the partially transposed covariance
matrix; steerability by the Gaussian measure max[0, -sum ln 2 nu_bar] over the
sub-vacuum symplectic eigenvalues of the steered party's conditional state.
Both carry the factor 2 of the vacuum-1/2 convention, so a vacuum gives
exactly zero.

The negativity and steering helpers take one matrix or a stack (..., 2n, 2n);
a stack gives one value per matrix from one stacked call per linear-algebra
step. ``measure_columns`` evaluates a block of three-mode covariances that way,
and ``correlation_report`` is its one-matrix case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NegativeDiscriminant
from .gaussian import (
    Bipartition,
    VACUUM_VARIANCE,
    extract_submatrix,
    partial_transpose,
    quadrature_indices,
    schur_complement_steered,
    symplectic_eigenvalues,
)

# measures below this are reported as exactly zero to stabilise classification
ZERO_CLAMP = 1e-12

# threshold separating "zero" from "nonzero" in the steering taxonomy
CLASS_TOL = 1e-9

STEERING_CLASSES = (
    "no_way",
    "one_way_ab",
    "one_way_ba",
    "two_way_asymmetric",
    "two_way_symmetric",
)


def _clamp(value):
    """Zero below ZERO_CLAMP: a float for one value, an array for a stack."""
    out = np.where(value < ZERO_CLAMP, 0.0, value)
    return float(out) if out.ndim == 0 else out


def _log_negativity_transposed(transposed: np.ndarray):
    """max[0, -ln 2 nu~] from partially transposed matrices (..., 2n, 2n)."""
    nu = symplectic_eigenvalues(transposed, check_positive=False)
    return _clamp(-np.log(2.0 * nu[..., 0]))


def log_negativity_2mode(cov4: np.ndarray):
    """Logarithmic negativity of a two-mode state from the closed discriminant.

    Evaluates max[0, -ln 2 theta] with
    theta = sqrt((sigma - sqrt(sigma^2 - 4 det V)) / 2),
    sigma = det X + det Y - 2 det Z.

    Raises
    ------
    NegativeDiscriminant
        If sigma^2 < 4 det V beyond rounding, which signals an unphysical
        input. In a stack, the first such matrix raises.
    """
    v = np.asarray(cov4, dtype=float)
    if v.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 two-mode covariance matrix")
    x, y, z = np.linalg.det(np.stack([v[..., :2, :2], v[..., 2:, 2:], v[..., :2, 2:]]))
    sigma = x + y - 2.0 * z
    disc = sigma**2 - 4.0 * np.linalg.det(v)
    negative = disc < -1e-10 * np.maximum(1.0, sigma**2)
    theta = np.sqrt(np.maximum((sigma - np.sqrt(np.maximum(disc, 0.0))) / 2.0, 0.0))
    bad = np.ravel(negative | (theta <= 0.0))
    if bad.any():
        first = int(np.argmax(bad))
        if np.ravel(negative)[first]:
            raise NegativeDiscriminant(f"sigma^2 - 4 det V = {np.ravel(disc)[first]:.3e} < 0")
        raise NegativeDiscriminant("smallest symplectic eigenvalue collapsed to zero")
    return _clamp(-np.log(2.0 * theta))


def log_negativity_2mode_pt(cov4: np.ndarray):
    """Same quantity via the partial-transpose symplectic spectrum.

    Independent code path used to cross-check log_negativity_2mode.
    """
    return _log_negativity_transposed(partial_transpose(cov4, [0]))


def log_negativity_1v2(cov6: np.ndarray, pivot: int):
    """One-versus-two-mode logarithmic negativity of a three-mode state.

    The pivot mode is partially transposed and the smallest symplectic
    eigenvalue of the resulting matrix enters max[0, -ln 2 nu~].
    """
    v = np.asarray(cov6, dtype=float)
    if v.shape[-2:] != (6, 6):
        raise ValueError("expected a 6x6 three-mode covariance matrix")
    return _log_negativity_transposed(partial_transpose(v, [pivot]))


def contangle(log_negativity: float) -> float:
    """Squared logarithmic negativity, the continuous-variable tangle."""
    if log_negativity < 0:
        raise ValueError("logarithmic negativity must be non-negative")
    return log_negativity**2


def residual_contangle(cov6: np.ndarray, pivot: int) -> float:
    """Tripartite residual C_{i|jk} - C_{i|j} - C_{i|k} for one pivot mode.

    May be negative; its sign is the monogamy statement itself.
    """
    others = [m for m in range(3) if m != pivot]
    c_one_two = contangle(log_negativity_1v2(cov6, pivot))
    c_pairs = 0.0
    for other in others:
        pair = sorted((pivot, other))
        sub = extract_submatrix(cov6, pair)
        c_pairs += contangle(log_negativity_2mode(sub))
    return c_one_two - c_pairs


def min_residual_contangle(cov6: np.ndarray) -> float:
    """Minimum residual contangle over the three pivots.

    A strictly positive value witnesses genuine tripartite entanglement.
    """
    return min(residual_contangle(cov6, pivot) for pivot in range(3))


def gaussian_steering(cov: np.ndarray, split: Bipartition):
    """Steerability of party_b by Gaussian measurements on party_a.

    max[0, -sum_j ln(2 nu_j)] over the symplectic eigenvalues nu_j < 1/2 of
    the Schur complement of the steering party's block. Defined for 1->1,
    1->2 and 2->1 splits alike.
    """
    nu = symplectic_eigenvalues(schur_complement_steered(cov, split), check_positive=False)
    logs = np.log(2.0 * nu, where=nu < VACUUM_VARIANCE, out=np.zeros_like(nu))
    return _clamp(-logs.sum(axis=-1))


def steering_asymmetry(cov: np.ndarray, mode_a: int, mode_b: int) -> float:
    """Absolute difference of the two directed steering measures of a pair."""
    forward = gaussian_steering(cov, Bipartition((mode_a,), (mode_b,)))
    backward = gaussian_steering(cov, Bipartition((mode_b,), (mode_a,)))
    return abs(forward - backward)


def classify_steering(g_ab: float, g_ba: float, tol: float = CLASS_TOL) -> str:
    """Four-way steering taxonomy for a pair with directed measures (ab, ba)."""
    if g_ab < 0 or g_ba < 0:
        raise ValueError("steering measures must be non-negative")
    a_steers = g_ab > tol
    b_steers = g_ba > tol
    if not a_steers and not b_steers:
        return "no_way"
    if a_steers and not b_steers:
        return "one_way_ab"
    if b_steers and not a_steers:
        return "one_way_ba"
    return "two_way_symmetric" if abs(g_ab - g_ba) <= tol else "two_way_asymmetric"


def steering_monogamy_residuals(cov6: np.ndarray, pivot: int) -> tuple[float, float]:
    """Monogamy residuals of the pivot mode against the remaining pair.

    Returns (out_residual, in_residual):
      out = G(pivot -> pair) - G(pivot -> i) - G(pivot -> j)
      in  = G(pair -> pivot) - G(i -> pivot) - G(j -> pivot)
    Both are returned signed; the caller decides on violation reporting.
    """
    i, j = (m for m in range(3) if m != pivot)
    pair = (i, j)
    out_res = (
        gaussian_steering(cov6, Bipartition((pivot,), pair))
        - gaussian_steering(cov6, Bipartition((pivot,), (i,)))
        - gaussian_steering(cov6, Bipartition((pivot,), (j,)))
    )
    in_res = (
        gaussian_steering(cov6, Bipartition(pair, (pivot,)))
        - gaussian_steering(cov6, Bipartition((i,), (pivot,)))
        - gaussian_steering(cov6, Bipartition((j,), (pivot,)))
    )
    return out_res, in_res


# --- full report -------------------------------------------------------------

MODE_LABELS = ("c", "q", "m")
_PAIRS = ("cq", "cm", "qm")


def _rest(label: str) -> str:
    """The labels of the two modes other than ``label``, in mode order."""
    return "".join(lbl for lbl in MODE_LABELS if lbl != label)


def _pair(a: str, b: str) -> str:
    return "".join(sorted(a + b, key=MODE_LABELS.index))


@dataclass(frozen=True)
class CorrelationReport:
    """All scalar correlation measures computed at one parameter point.

    Maps are keyed by mode labels ("c", "q", "m") and pair strings ("cq",
    "cm", "qm"); bipartition keys are ordered "a_to_b" strings.
    """

    ln_pairs: dict[str, float]
    ln_one_two: dict[str, float]
    steering: dict[str, float]
    asymmetry: dict[str, float]
    steering_class: dict[str, str]
    contangle_residuals: dict[str, float]
    r_min: float
    steering_monogamy: dict[str, float]

    def to_flat_dict(self) -> dict[str, float | str]:
        """Flat JSON-ready mapping with stable, documented key names."""
        flat: dict[str, float | str] = {}
        for pair, value in self.ln_pairs.items():
            flat[f"LN_{pair}"] = value
        for pivot, value in self.ln_one_two.items():
            flat[f"LN_{pivot}_{_rest(pivot)}"] = value
        for key, value in self.steering.items():
            flat[f"G_{key}"] = value
        for pair, value in self.asymmetry.items():
            flat[f"asym_{pair}"] = value
        for pivot, value in self.contangle_residuals.items():
            flat[f"R_{pivot}"] = value
        flat["R_min"] = self.r_min
        for key, value in self.steering_monogamy.items():
            flat[f"mono_{key}"] = value
        for pair, value in self.steering_class.items():
            flat[f"class_{pair}"] = value
        return flat

    @classmethod
    def from_flat(cls, flat: dict[str, float | str]) -> "CorrelationReport":
        """The report holding the values of a flat mapping over MEASURE_KEYS."""
        def by_kind(kind):
            return {k[len(kind) + 1:]: flat[k] for k in _KEYS_BY_KIND[kind]}

        return cls(
            ln_pairs={pair: flat[f"LN_{pair}"] for pair in _PAIRS},
            ln_one_two={p: flat[f"LN_{p}_{_rest(p)}"] for p in MODE_LABELS},
            steering=by_kind("G"),
            asymmetry=by_kind("asym"),
            steering_class=by_kind("class"),
            contangle_residuals={p: flat[f"R_{p}"] for p in MODE_LABELS},
            r_min=flat["R_min"],
            steering_monogamy=by_kind("mono"),
        )


MEASURE_KEYS = (
    "LN_cq", "LN_cm", "LN_qm",
    "LN_c_qm", "LN_q_cm", "LN_m_cq",
    "G_c_to_q", "G_q_to_c", "G_c_to_m", "G_m_to_c", "G_q_to_m", "G_m_to_q",
    "G_c_to_qm", "G_q_to_cm", "G_m_to_cq",
    "G_qm_to_c", "G_cm_to_q", "G_cq_to_m",
    "asym_cq", "asym_cm", "asym_qm",
    "R_c", "R_q", "R_m", "R_min",
    "mono_out_c", "mono_in_c", "mono_out_q", "mono_in_q", "mono_out_m", "mono_in_m",
    "class_cq", "class_cm", "class_qm",
)


_KEYS_BY_KIND = {kind: tuple(k for k in MEASURE_KEYS if k.partition("_")[0] == kind)
                 for kind in ("G", "asym", "class", "mono")}


def _one_versus_two(subs: np.ndarray, keys) -> np.ndarray:
    """One-versus-two negativities, the pivot of each slot's key transposed."""
    flip = np.ones((len(keys), 6))
    for slot, key in enumerate(keys):
        flip[slot, 2 * MODE_LABELS.index(key[3]) + 1] = -1.0  # key is LN_<pivot>_<rest>
    return _log_negativity_transposed(flip[:, :, None] * subs * flip[:, None, :])


def _steering(split: Bipartition):
    return lambda subs, keys: gaussian_steering(subs, split)


# The stacked calls of the kernel, in the order they run. Each maps its keys
# to the modes of the submatrix it reads, in the order it reads them
# (steering party first), and computes all of its keys in one call.
_GROUPS = (
    ({f"LN_{pair}": pair for pair in _PAIRS}, lambda subs, keys: log_negativity_2mode(subs)),
    ({f"LN_{p}_{_rest(p)}": "cqm" for p in MODE_LABELS}, _one_versus_two),
    ({f"G_{a}_to_{b}": a + b for a in MODE_LABELS for b in MODE_LABELS if a != b},
     _steering(Bipartition((0,), (1,)))),
    ({f"G_{p}_to_{_rest(p)}": p + _rest(p) for p in MODE_LABELS},
     _steering(Bipartition((0,), (1, 2)))),
    ({f"G_{_rest(p)}_to_{p}": _rest(p) + p for p in MODE_LABELS},
     _steering(Bipartition((0, 1), (2,)))),
)


@lru_cache(maxsize=None)
def _sources(key: str) -> tuple[str, ...]:
    """The LN_ and G_ keys a measure key is computed from, in formula order."""
    kind, _, rest = key.partition("_")
    if kind in ("LN", "G"):
        return (key,)
    if kind in ("asym", "class"):
        a, b = rest
        return (f"G_{a}_to_{b}", f"G_{b}_to_{a}")
    if key == "R_min":
        return tuple(src for p in MODE_LABELS for src in _sources(f"R_{p}"))
    if kind == "R":
        i, j = _rest(rest)
        return (f"LN_{rest}_{i}{j}", f"LN_{_pair(rest, i)}", f"LN_{_pair(rest, j)}")
    direction, pivot = rest.split("_")
    i, j = _rest(pivot)
    if direction == "out":
        return (f"G_{pivot}_to_{i}{j}", f"G_{pivot}_to_{i}", f"G_{pivot}_to_{j}")
    return (f"G_{i}{j}_to_{pivot}", f"G_{i}_to_{pivot}", f"G_{j}_to_{pivot}")


@lru_cache(maxsize=128)
def _plan(outputs: tuple[str, ...]) -> tuple:
    """The stacked calls ``outputs`` need: their keys, submatrix indices and compute."""
    wanted = {src for key in outputs for src in _sources(key)}
    plan = []
    for table, compute in _GROUPS:
        keys = tuple(k for k in table if k in wanted)
        if keys:
            index = np.array([quadrature_indices(MODE_LABELS.index(lbl) for lbl in table[k])
                              for k in keys])
            plan.append((keys, index[:, :, None], index[:, None, :], compute))
    return tuple(plan)


def _combine(key: str, base: dict[str, np.ndarray]):
    """One output column from the LN_ and G_ columns it is computed from."""
    if key in base:
        return base[key]
    if key == "R_min":
        return np.minimum.reduce([_combine(f"R_{p}", base) for p in MODE_LABELS])
    kind = key.partition("_")[0]
    first, *others = (base[src] for src in _sources(key))
    if kind == "asym":
        return np.abs(first - others[0])
    if kind == "class":
        return [classify_steering(ab, ba) for ab, ba in zip(first.tolist(), others[0].tolist())]
    if kind == "R":  # residual contangle: C_{i|jk} - C_{i|j} - C_{i|k}
        return first**2 - others[0]**2 - others[1]**2
    return first - others[0] - others[1]  # steering monogamy residual


def measure_columns(covs: np.ndarray, outputs=MEASURE_KEYS) -> dict[str, list]:
    """The measures ``outputs`` of a stack of three-mode covariances (n, 6, 6).

    Returns one list of n values per key. Only the requested keys and the
    negativities and steerings they are computed from are evaluated. Splits
    of one shape go through one stacked call: the two-mode negativities, the
    one-versus-two negativities, and the 1->1, 1->2 and 2->1 steerings. A
    matrix that the per-matrix helpers reject raises the same error here;
    the first offending matrix of the first call raises.
    """
    v = np.asarray(covs, dtype=float)
    base: dict[str, np.ndarray] = {}
    for keys, rows, cols, compute in _plan(tuple(outputs)):
        base.update(zip(keys, compute(v[:, rows, cols], keys).T))
    columns = {key: _combine(key, base) for key in outputs}
    return {key: col if isinstance(col, list) else col.tolist() for key, col in columns.items()}


def correlation_report(cov6: np.ndarray) -> CorrelationReport:
    """Compute every supported measure for a three-mode covariance matrix."""
    columns = measure_columns(np.asarray(cov6, dtype=float)[None])
    return CorrelationReport.from_flat({key: col[0] for key, col in columns.items()})
