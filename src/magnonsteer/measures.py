"""Bipartite and tripartite correlation quantifiers for Gaussian states.

Entanglement is measured by the logarithmic negativity max[0, -ln 2 nu~] with
nu~ the smallest symplectic eigenvalue of the partially transposed covariance
matrix; steerability by the Gaussian measure max[0, -sum ln 2 nu_bar] over the
sub-vacuum symplectic eigenvalues of the steered party's conditional state.
Both carry the factor 2 of the vacuum-1/2 convention, so a vacuum gives
exactly zero.

Every measure is computed on the phase-covariant blocks (V_x, V_p) of the
state (see ``gaussian``): a partial transpose is a sign, and a conditional
state is the Schur complement of each block. ``measure_blocks`` evaluates a
stack of block pairs in one pass per kind of split, each computing only the
requested slots:

- one steered mode (the 1->1 and 2->1 steerings), elementwise: with L the
  closed-form Cholesky factor of the party's 2x2 block (a one-mode party
  padded to diag(x, x)), c = y - |L^-1 z|^2 per block and nu = sqrt(c_x c_p);
- two-mode spectra (the pair negativities and the 1->2 steerings),
  elementwise: a pair is a padded party, so both are the singular values of
  M = B^T T A for the closed-form Cholesky factors A, B of a 2x2 conditional,
  nu_max from two ``hypot`` terms and nu_min = a11 a22 b11 b22 / nu_max;
- the 3x3 cuts: one Cholesky factorisation and one singular-value call
  (``symplectic_spectrum``) over the stacked sign rows give the
  one-versus-two negativities and the smallest symplectic eigenvalue.

No route forms nu^2. The derived measures are one array operation per kind.
``measure_columns`` and ``correlation_report`` split 6x6 covariances into
blocks around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NonPositiveInput, SingularBlock
from .gaussian import (
    CONDITION_CUTOFF,
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


# --- the kernel ----------------------------------------------------------------

# The elementwise passes read every entry from one table of 20 rows per point:
# the 18 entries of its block pair, flattened as (block, row, column), then a
# zero and a one that pad the splits narrower than their pass.
_PAD = {0: 18, 1: 19}

# One steered mode: (x11, x12, x22, z1, z2, y) of each split, the steering
# party's 2x2 block X, its coupling z to the steered mode, and that mode's
# variance y. A one-mode party a is padded to X = diag(x_aa, x_aa) and
# z = (z_a, 0), which keeps its conditional and its condition number.
_ONE_MODE = {f"G_{a}_to_{b}": (a + a, 0, a + a, a + b, 0, b + b)
             for a in MODE_LABELS for b in MODE_LABELS if a != b}
_ONE_MODE.update({f"G_{i}{j}_to_{p}": (i + i, i + j, j + j, i + p, j + p, p + p)
                  for p in MODE_LABELS for i, j in [_rest(p)]})

# Two-mode spectra: (x, z1, z2, y11, y12, y22) of each split, a one-mode
# steering party's variance x, its couplings z to the two steered modes and
# their 2x2 block Y, then the sign of the first steered mode. A pair is the
# padded party x = 1, z = 0, whose conditional is the pair's own block, with
# its first mode transposed.
_TWO_MODE = {f"LN_{a}{b}": ((1, 0, 0, a + a, a + b, b + b), -1.0) for a, b in _PAIRS}
_TWO_MODE.update({f"G_{p}_to_{i}{j}": ((p + p, p + i, p + j, i + i, i + j, j + j), 1.0)
                  for p in MODE_LABELS for i, j in [_rest(p)]})

# The 3x3 cuts: the sign row of each one-versus-two negativity, transposing
# its pivot; the state's own row, last, gives its smallest symplectic eigenvalue
_CUTS = {f"LN_{p}_{_rest(p)}": [-1.0 if lbl == p else 1.0 for lbl in MODE_LABELS]
         for p in MODE_LABELS}
_CUTS["min_symplectic_eig"] = [1.0, 1.0, 1.0]


def _table(entries) -> np.ndarray:
    """Rows (6, 2, slots) of the 20-row table holding each slot's entries, per block."""
    def row(entry, block):
        if entry in _PAD:
            return _PAD[entry]
        i, j = (MODE_LABELS.index(lbl) for lbl in entry)
        return 9 * block + 3 * i + j

    return np.array([[[row(e, block) for e in slot] for slot in entries]
                     for block in (0, 1)]).transpose(2, 0, 1)


def _check(top, bottom, positive, message: str) -> None:
    """Raise unless every party is well conditioned and ``positive`` is, in both blocks.

    ``top`` and ``bottom`` are each steering party's largest and smallest
    eigenvalue over its two blocks; ``positive`` (2, slots, N) is what must
    be positive for each block's conditional to be positive definite, and
    is NaN where it is not.

    Raises
    ------
    SingularBlock
        If a party has condition number above CONDITION_CUTOFF.
    NonPositiveInput
        If a party's block is not positive definite, or else with
        ``message`` if a conditional block is not.
    """
    if ((top <= CONDITION_CUTOFF * bottom) & (np.minimum(*positive) > 0.0)).all():
        return
    if np.any((bottom >= 0.0) & (top > CONDITION_CUTOFF * bottom)):
        raise SingularBlock("steering-party block is numerically singular")
    if not np.all(bottom > 0.0):
        raise NonPositiveInput("covariance block is not positive definite")
    raise NonPositiveInput(message)


def _one_mode(x11, x12, x22, z1, z2, y):
    """Steering of one steered mode, from the entries (2, slots, N) of ``_ONE_MODE``.

    With L the Cholesky factor of X, the conditional variance is
    c = y - |L^-1 z|^2 in each block, and nu = sqrt(c_x c_p).
    """
    l11 = np.sqrt(x11)
    l21 = x12 / l11
    l22 = np.sqrt(x22 - l21 * l21)
    w1 = z1 / l11
    w2 = (z2 - l21 * w1) / l22
    c = y - (w1 * w1 + w2 * w2)
    mean, radius = 0.5 * (x11 + x22), np.hypot(0.5 * (x11 - x22), x12)
    _check(np.maximum(*(mean + radius)), np.minimum(*(mean - radius)), c,
           "conditional block is not positive definite")
    return _clamp(-np.log(2.0 * np.sqrt(c[0]) * np.sqrt(c[1])))


def _two_mode_spectra(x, z1, z2, y11, y12, y22, sign):
    """Symplectic eigenvalues (nu_max, nu_min) of the two-mode slots of ``_TWO_MODE``.

    The conditional block C = Y - w w^T, w = z / sqrt(x), has Cholesky
    factors A (x' block) and B (p' block), and the symplectic eigenvalues
    are the singular values of M = B^T T A, T = diag(sign, 1). With
    h+- = hypot(m11 +- m22, m12 -+ m21), nu_max = (h+ + h-) / 2 and
    nu_min = |det M| / nu_max = a11 a22 b11 b22 / nu_max, so no route
    forms nu^2.
    """
    root = np.sqrt(x)
    w1, w2 = z1 / root, z2 / root
    l11 = np.sqrt(y11 - w1 * w1)
    l21 = (y12 - w1 * w2) / l11
    l22 = np.sqrt(y22 - w2 * w2 - l21 * l21)
    det = l11 * l22
    _check(np.maximum(*x), np.minimum(*x), det, "covariance block is not positive definite")
    (a11, b11), (a21, b21), (a22, b22) = l11, l21, l22
    m11, m12, m21, m22 = sign * b11 * a11 + b21 * a21, b21 * a22, b22 * a21, b22 * a22
    nu_max = 0.5 * (np.hypot(m11 + m22, m12 - m21) + np.hypot(m11 - m22, m12 + m21))
    return nu_max, det[0] * (det[1] / nu_max)


def _two_mode(entries, sign, both):
    """max[0, -ln 2 nu_min] of each two-mode slot, plus ``both`` times max[0, -ln 2 nu_max]."""
    nu_max, nu_min = _two_mode_spectra(*entries, sign)
    return _clamp(np.maximum(-np.log(2.0 * nu_min), 0.0)
                  + both * np.maximum(-np.log(2.0 * nu_max), 0.0))


def _entry_table(b: np.ndarray) -> np.ndarray:
    """The 20 rows (20, N) the elementwise passes read a stack (N, 2, 3, 3) from."""
    n = len(b)
    table = np.empty((20, n))
    table[:18] = b.reshape(n, 18).T
    table[18], table[19] = 0.0, 1.0
    return table


@lru_cache(maxsize=None)
def _sources(key: str) -> tuple[str, ...]:
    """The keys of the passes a measure key is computed from, in formula order."""
    if key in _ONE_MODE or key in _TWO_MODE or key in _CUTS:
        return (key,)
    kind, _, rest = key.partition("_")
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


class _Plan(NamedTuple):
    """What ``measure_blocks`` computes for one tuple of outputs.

    The passes fill the rows of one array, in order: the one-mode slots, the
    two-mode slots, the 3x3 cuts, then the derived ``asym``, ``R``, ``R_min``
    and ``mono`` rows. Each derived table holds, per source, the rows its
    outputs are computed from.
    """

    one_mode: np.ndarray | None  # (6, 2, slots) rows of the entries
    two_mode: np.ndarray | None  # (6, 2, slots) rows of the entries
    signs: tuple  # the two-mode (sign, both) arguments, each (slots, 1)
    cuts: np.ndarray | None  # (k, 3) sign rows
    cut_negativities: int  # how many of the cuts are negativities
    asym: np.ndarray | None  # (2, n)
    residual: np.ndarray | None  # (3, n)
    r_min: bool
    mono: np.ndarray | None  # (3, n)
    columns: tuple  # per output: (key, row), or (key, (G_ab row, G_ba row)) for class_


@lru_cache(maxsize=128)
def _plan(outputs: tuple[str, ...]) -> _Plan:
    """The slots and index tables the passes need for ``outputs``."""
    unknown = [k for k in outputs if k not in MEASURE_KEYS and k != "min_symplectic_eig"]
    if unknown:
        raise ValueError(f"unknown measure keys: {unknown}")
    wanted = {src for key in outputs for src in _sources(key)}
    one = [k for k in _ONE_MODE if k in wanted]
    two = [k for k in _TWO_MODE if k in wanted]
    cuts = [k for k in _CUTS if k in wanted]
    rows = one + two + cuts

    def derived(keys):
        if not keys:
            return None
        table = np.array([[rows.index(src) for src in _sources(k)] for k in keys]).T
        rows.extend(keys)
        return table

    r_min = "R_min" in outputs
    asym = derived([k for k in _KEYS_BY_KIND["asym"] if k in outputs])
    residual = derived([f"R_{p}" for p in MODE_LABELS if r_min or f"R_{p}" in outputs])
    if r_min:
        rows.append("R_min")
    mono = derived([k for k in _KEYS_BY_KIND["mono"] if k in outputs])
    return _Plan(
        one_mode=_table([_ONE_MODE[k] for k in one]) if one else None,
        two_mode=_table([_TWO_MODE[k][0] for k in two]) if two else None,
        signs=(np.array([[_TWO_MODE[k][1]] for k in two]),
               np.array([[float(k.startswith("G_"))] for k in two])),
        cuts=np.array([_CUTS[k] for k in cuts]) if cuts else None,
        cut_negativities=sum(k.startswith("LN_") for k in cuts),
        asym=asym, residual=residual, r_min=r_min, mono=mono,
        columns=tuple((k, tuple(map(rows.index, _sources(k))) if k.startswith("class_")
                       else rows.index(k)) for k in outputs),
    )


def measure_blocks(blocks: np.ndarray, outputs=MEASURE_KEYS) -> dict[str, list]:
    """The measures ``outputs`` of a stack of block pairs (N, 2, 3, 3), V_x first.

    Returns one list of N values per key. ``outputs`` may also name
    ``min_symplectic_eig``, the smallest symplectic eigenvalue of each
    state. Only the requested keys and the negativities and steerings they
    are computed from are evaluated, in one pass per kind of split: the
    one-steered-mode steerings elementwise, the pair negativities and
    two-steered-mode spectra elementwise, and the one-versus-two
    negativities with ``min_symplectic_eig`` in one factorisation of the
    3x3 blocks. The derived measures take one array operation per kind.

    Raises
    ------
    ValueError
        If an output is neither in MEASURE_KEYS nor ``min_symplectic_eig``.
    NonPositiveInput
        If a block a requested measure reads is not positive definite.
    SingularBlock
        If a steering party is numerically singular.
    """
    plan = _plan(tuple(outputs))
    if not plan.columns:
        return {}
    b = np.asarray(blocks, dtype=float)
    parts = []
    if plan.one_mode is not None or plan.two_mode is not None:
        table = _entry_table(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            if plan.one_mode is not None:
                parts.append(_one_mode(*table[plan.one_mode]))
            if plan.two_mode is not None:
                parts.append(_two_mode(table[plan.two_mode], *plan.signs))
    if plan.cuts is not None:
        nu = symplectic_spectrum(b[:, :, None], plan.cuts)[..., -1].T
        k = plan.cut_negativities
        parts += [_clamp(-np.log(2.0 * nu[:k])), nu[k:]]
    base = np.concatenate(parts)
    values = [base]
    if plan.asym is not None:
        ab, ba = base[plan.asym]
        values.append(np.abs(ab - ba))
    if plan.residual is not None:  # residual contangle C_{i|jk} - C_{i|j} - C_{i|k}, C = LN^2
        whole, first, second = np.square(base[plan.residual])
        values.append(whole - first - second)
        if plan.r_min:  # positive: genuine tripartite entanglement
            values.append(values[-1].min(axis=0, keepdims=True))
    if plan.mono is not None:
        # steering monogamy residual G(i -> jk) - G(i -> j) - G(i -> k) (out) or
        # G(jk -> i) - G(j -> i) - G(k -> i) (in); kept signed, like R_*
        whole, first, second = base[plan.mono]
        values.append(whole - first - second)
    rows = np.concatenate(values).tolist()
    return {key: ([classify_steering(ab, ba) for ab, ba in zip(rows[row[0]], rows[row[1]])]
                  if isinstance(row, tuple) else rows[row])
            for key, row in plan.columns}


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
