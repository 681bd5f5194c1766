"""Bipartite and tripartite correlation quantifiers for Gaussian states.

Entanglement is measured by the logarithmic negativity max[0, -ln 2 nu~] with
nu~ the smallest symplectic eigenvalue of the partially transposed covariance
matrix; steerability by the Gaussian measure max[0, -sum ln 2 nu_bar] over the
sub-vacuum symplectic eigenvalues of the steered party's conditional state.
Both carry the factor 2 of the vacuum-1/2 convention, so a vacuum gives
exactly zero.

Every measure is computed on the phase-covariant blocks (V_x, V_p) of the
state (see ``gaussian``): a partial transpose is a sign in
``symplectic_spectrum``, and a conditional state is the Schur complement of
each block. ``measure_blocks`` evaluates a stack of block pairs with one
stacked call per split shape; ``measure_columns`` and ``correlation_report``
split 6x6 covariances into blocks around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonPositiveInput, SingularBlock
from .gaussian import (
    CONDITION_CUTOFF,
    VACUUM_VARIANCE,
    covariance_blocks,
    symplectic_spectrum,
)

# measures below this are reported as exactly zero to stabilise classification
ZERO_CLAMP = 1e-12

# threshold separating "zero" from "nonzero" in the steering taxonomy
CLASS_TOL = 1e-9


def _clamp(value):
    """Zero below ZERO_CLAMP, elementwise."""
    return np.where(value < ZERO_CLAMP, 0.0, value)


def classify_steering(g_ab: float, g_ba: float) -> str:
    """Four-way steering taxonomy for a pair with directed measures (ab, ba)."""
    if g_ab < 0 or g_ba < 0:
        raise ValueError("steering measures must be non-negative")
    a_steers = g_ab > CLASS_TOL
    b_steers = g_ba > CLASS_TOL
    if not a_steers and not b_steers:
        return "no_way"
    if a_steers and not b_steers:
        return "one_way_ab"
    if b_steers and not a_steers:
        return "one_way_ba"
    return "two_way_symmetric" if abs(g_ab - g_ba) <= CLASS_TOL else "two_way_asymmetric"


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


def _negativity(subs: np.ndarray, keys) -> np.ndarray:
    """max[0, -ln 2 nu~] of block pairs (N, 2, k, n, n), one slot per LN_ key.

    A slot holds the modes its key names, in mode order, and transposes
    key[3]: the first mode of LN_<pair>, the pivot of LN_<pivot>_<rest>.
    """
    signs = np.array([[-1.0 if lbl == key[3] else 1.0 for lbl in MODE_LABELS if lbl in key[3:]]
                      for key in keys])
    nu = symplectic_spectrum(subs, signs)[..., -1]
    return _clamp(-np.log(2.0 * nu))


def _steering(steering_modes: int):
    """Steering of the last modes of each submatrix by its first ``steering_modes``.

    The conditional state of the steered party is the Schur complement
    Y - Z^T X^-1 Z of each block. One steered mode has the symplectic
    eigenvalue sqrt(c_x c_p); two have ``symplectic_spectrum`` of the
    conditional blocks.

    Raises
    ------
    SingularBlock
        If a steering party's blocks, taken together, have condition number
        above CONDITION_CUTOFF.
    NonPositiveInput
        If a conditional block is not positive definite.
    """
    a = steering_modes

    def compute(subs, keys):
        x, z, y = subs[..., :a, :a], subs[..., :a, a:], subs[..., a:, a:]
        sv = np.linalg.svd(x, compute_uv=False)
        if np.any(sv.max(axis=(1, -1)) > CONDITION_CUTOFF * sv.min(axis=(1, -1))):
            raise SingularBlock("steering-party block is numerically singular")
        cond = y - z.swapaxes(-1, -2) @ np.linalg.solve(x, z)
        if cond.shape[-1] == 1:
            c = cond[..., 0, 0]
            if np.any(c <= 0.0):
                raise NonPositiveInput("conditional block is not positive definite")
            nu = np.sqrt(c[:, 0] * c[:, 1])[..., None]
        else:
            nu = symplectic_spectrum(0.5 * (cond + cond.swapaxes(-1, -2)))
        logs = np.log(2.0 * nu, where=nu < VACUUM_VARIANCE, out=np.zeros_like(nu))
        return _clamp(-logs.sum(axis=-1))

    return compute


# The stacked calls of the kernel, in the order they run. Each maps its keys
# to the modes of the submatrix it reads, in the order it reads them
# (steering party first), and computes all of its keys in one call.
_GROUPS = (
    ({f"LN_{pair}": pair for pair in _PAIRS}, _negativity),
    ({f"LN_{p}_{_rest(p)}": "cqm" for p in MODE_LABELS}, _negativity),
    ({f"G_{a}_to_{b}": a + b for a in MODE_LABELS for b in MODE_LABELS if a != b},
     _steering(1)),
    ({f"G_{p}_to_{_rest(p)}": p + _rest(p) for p in MODE_LABELS}, _steering(1)),
    ({f"G_{_rest(p)}_to_{p}": _rest(p) + p for p in MODE_LABELS}, _steering(2)),
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
            index = np.array([[MODE_LABELS.index(lbl) for lbl in table[k]] for k in keys])
            plan.append((keys, index[:, :, None], index[:, None, :], compute))
    return tuple(plan)


def _combine(key: str, base: dict[str, np.ndarray]):
    """One output column from the LN_ and G_ columns it is computed from."""
    if key in base:
        return base[key]
    if key == "R_min":  # positive: genuine tripartite entanglement
        return np.minimum.reduce([_combine(f"R_{p}", base) for p in MODE_LABELS])
    kind = key.partition("_")[0]
    first, *others = (base[src] for src in _sources(key))
    if kind == "asym":
        return np.abs(first - others[0])
    if kind == "class":
        return [classify_steering(ab, ba) for ab, ba in zip(first.tolist(), others[0].tolist())]
    if kind == "R":  # residual contangle C_{i|jk} - C_{i|j} - C_{i|k}, C = LN^2
        return first**2 - others[0]**2 - others[1]**2
    # steering monogamy residual G(i -> jk) - G(i -> j) - G(i -> k) (out) or
    # G(jk -> i) - G(j -> i) - G(k -> i) (in); kept signed, like R_*
    return first - others[0] - others[1]


def measure_blocks(blocks: np.ndarray, outputs=MEASURE_KEYS) -> dict[str, list]:
    """The measures ``outputs`` of a stack of block pairs (N, 2, 3, 3), V_x first.

    Returns one list of N values per key. Only the requested keys and the
    negativities and steerings they are computed from are evaluated. Splits
    of one shape go through one stacked call: the two-mode negativities, the
    one-versus-two negativities, and the 1->1, 1->2 and 2->1 steerings.

    Raises
    ------
    NonPositiveInput
        If a block a requested measure reads is not positive definite.
    SingularBlock
        If a steering party is numerically singular.
    """
    b = np.asarray(blocks, dtype=float)
    base: dict[str, np.ndarray] = {}
    for keys, rows, cols, compute in _plan(tuple(outputs)):
        base.update(zip(keys, compute(b[..., rows, cols], keys).T))
    columns = {key: _combine(key, base) for key in outputs}
    return {key: col if isinstance(col, list) else col.tolist() for key, col in columns.items()}


def measure_columns(covs: np.ndarray, outputs=MEASURE_KEYS) -> dict[str, list]:
    """The measures ``outputs`` of a stack of three-mode covariances (N, 6, 6).

    ``measure_blocks`` on their (V_x, V_p) blocks; raises NotPhaseCovariant
    if a covariance couples x' with p'.
    """
    return measure_blocks(covariance_blocks(covs), outputs)


def correlation_report(cov6: np.ndarray) -> CorrelationReport:
    """Compute every supported measure for a three-mode covariance matrix."""
    columns = measure_columns(np.asarray(cov6, dtype=float)[None])
    return CorrelationReport.from_flat({key: col[0] for key, col in columns.items()})
