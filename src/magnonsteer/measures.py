"""Bipartite and tripartite correlation quantifiers for Gaussian states.

Entanglement is measured by the logarithmic negativity max[0, -ln 2 nu~] with
nu~ the smallest symplectic eigenvalue of the partially transposed covariance
matrix; steerability by the Gaussian measure max[0, -sum ln 2 nu_bar] over the
sub-vacuum symplectic eigenvalues of the steered party's conditional state.
Both carry the factor 2 of the vacuum-1/2 convention, so a vacuum gives
exactly zero.

Every measure is computed on the phase-covariant blocks (V_x, V_p) of the
state (see ``gaussian``): a partial transpose is a sign, and a conditional
state is the Schur complement of each block, whose Cholesky factor is the
trailing block of the Cholesky factor of the whole matrix.
``measure_blocks`` evaluates a stack of block pairs in two passes, each
computing only the requested slots:

- the conditional pass (every steering and the pair negativities),
  elementwise: one closed-form Cholesky factor L of each slot's 3x3
  (party, steered) matrix, a pair being steered by the padded party x = 1,
  z = 0. One steered mode has nu = l33_x l33_p; two have the singular
  values of M = B^T T A for the trailing 2x2 factors A, B, nu_max from two
  ``hypot`` terms and nu_min = a22 a33 b22 b33 / nu_max. A steering party
  is judged by the same factor: l22^2 / P22 = 1 - rho^2, rho the
  correlation of its two modes, so by their correlation, not their scale;
- the 3x3 cuts: ``gaussian.min_symplectic_eig`` gives the one-versus-two
  negativities and the smallest symplectic eigenvalue over the stacked sign
  rows, by one closed form: the inverse Cholesky factors of the blocks, the
  inverse Gram matrix (M^T M)^-1 entry by entry, and Smith's trigonometric
  formula for its largest eigenvalue, elementwise like the conditional
  pass. Only the rows where that formula loses digits (13 of the 3,600
  preset rows) take an eigen-solve.

Both passes return symplectic eigenvalues; one -ln 2 nu and one clamp turn
all of them into measures. No route forms nu^2. The derived measures are
described once, in ``_DERIVED`` (each key's formula kind and source keys):
the requested keys are closed over it, and each kind is one array operation
on the rows of its sources.
``measure_columns`` and ``correlation_report`` split 6x6 covariances into
blocks around it. Every entry point returns flat mappings keyed as
MEASURE_KEYS; the nested view of one point's measures, ``CorrelationReport``,
is defined in ``sweep`` beside ``PointResult``, which builds it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NonPositiveInput, SingularBlock
from .gaussian import covariance_blocks, min_symplectic_eig

# measures below this are reported as exactly zero to stabilise classification
ZERO_CLAMP = 1e-12

# threshold separating "zero" from "nonzero" in the steering taxonomy
CLASS_TOL = 1e-9

# largest condition number of a steering party's block accepted as not singular
CONDITION_CUTOFF = 1e12


def _clamp(value):
    """Zero below ZERO_CLAMP, elementwise."""
    return np.where(value < ZERO_CLAMP, 0.0, value)


def classify_steering(g_ab: float, g_ba: float) -> str:
    """Four-way steering taxonomy for a pair with directed measures (ab, ba)."""
    if not (g_ab >= 0 and g_ba >= 0):
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


# --- measure keys ------------------------------------------------------------

MODE_LABELS = ("c", "q", "m")
_PAIRS = ("cq", "cm", "qm")


def _rest(label: str) -> str:
    """The labels of the two modes other than ``label``, in mode order."""
    return "".join(lbl for lbl in MODE_LABELS if lbl != label)


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


# --- the kernel ----------------------------------------------------------------

# The conditional pass reads every entry from one table of 20 rows per point:
# the 18 entries of its block pair, flattened as (block, row, column), then a
# zero and a one that pad the splits narrower than three modes.
_PAD = {0: 18, 1: 19}

# The conditional slots: the lower entries (P11, P21, P22, P31, P32, P33) of
# each split's 3x3 matrix P, steering party first, then the modes it steers.
# A one-mode party a steering one mode b is padded to the party
# diag(x_aa, x_aa) coupled by (z_ab, 0), which keeps its conditional and its
# condition number; a pair is steered by the party x = 1, z = 0, whose
# conditional is the pair's own block. A key's last label names the steered
# modes; the slots steering one mode come first.
_SLOTS = {f"G_{a}_to_{b}": (a + a, 0, a + a, a + b, 0, b + b)
          for a in MODE_LABELS for b in MODE_LABELS if a != b}
_SLOTS.update({f"G_{i}{j}_to_{p}": (i + i, i + j, j + j, i + p, j + p, p + p)
               for p in MODE_LABELS for i, j in [_rest(p)]})
_SLOTS.update({f"LN_{a}{b}": (1, 0, a + a, 0, a + b, b + b) for a, b in _PAIRS})
_SLOTS.update({f"G_{p}_to_{i}{j}": (p + p, p + i, i + i, p + j, i + j, j + j)
               for p in MODE_LABELS for i, j in [_rest(p)]})

# The 3x3 cuts: the sign row of each one-versus-two negativity, transposing
# its pivot; the state's own row, last, gives its smallest symplectic eigenvalue
_CUTS = {f"LN_{p}_{_rest(p)}": [-1.0 if lbl == p else 1.0 for lbl in MODE_LABELS]
         for p in MODE_LABELS}
_CUTS["min_symplectic_eig"] = [1.0, 1.0, 1.0]

# The derived measures, in MEASURE_KEYS order: each key's formula kind and the
# keys it is computed from, in formula order. A derived source (R_min's R_*)
# comes before its key. A class_ab is classified per point from the G rows its
# asym_ab reads; the other kinds are one array operation each (``_FORMULAS``).
_DERIVED = {
    **{f"asym_{a}{b}": ("asym", (f"G_{a}_to_{b}", f"G_{b}_to_{a}")) for a, b in _PAIRS},
    **{f"R_{p}": ("R", (f"LN_{p}_{_rest(p)}", *(f"LN_{pair}" for pair in _PAIRS if p in pair)))
       for p in MODE_LABELS},
    "R_min": ("R_min", ("R_c", "R_q", "R_m")),
    **{f"mono_{way}_{p}": ("mono", tuple(f"G_{p}_to_{s}" if way == "out" else f"G_{s}_to_{p}"
                                          for s in (i + j, i, j)))
       for p in MODE_LABELS for i, j in [_rest(p)] for way in ("out", "in")},
    **{f"class_{a}{b}": ("class", (f"G_{a}_to_{b}", f"G_{b}_to_{a}")) for a, b in _PAIRS},
}


def _residual(terms):
    """whole - first - second of the stacked rows (3, ...) of a three-term residual."""
    return terms[0] - terms[1] - terms[2]


# Each kind's formula over the rows (sources, keys, N) of its sources, in
# MEASURE_KEYS kind order. R_* is the residual contangle C_{i|jk} - C_{i|j} -
# C_{i|k}, C = LN^2, and R_min its minimum (positive: genuine tripartite
# entanglement); mono_* is the steering monogamy residual G(i -> jk) -
# G(i -> j) - G(i -> k) (out) or G(jk -> i) - G(j -> i) - G(k -> i) (in), kept
# signed like R_*.
_FORMULAS = {
    "asym": lambda g: np.abs(g[0] - g[1]),
    "R": lambda ln: _residual(np.square(ln)),
    "R_min": lambda r: r.min(axis=0),
    "mono": _residual,
}


def _table(entries) -> np.ndarray:
    """Rows (width, 2, slots) of the 20-row table holding each slot's entries, per block.

    A contiguous copy: ``take`` gathers from it faster than from a transposed view.
    """
    def row(entry, block):
        if entry in _PAD:
            return _PAD[entry]
        i, j = (MODE_LABELS.index(lbl) for lbl in entry)
        return 9 * block + 3 * i + j

    return np.array([[[row(e, block) for e in slot] for slot in entries]
                     for block in (0, 1)]).transpose(2, 0, 1).copy()


def _check(party, first, last) -> None:
    """Raise unless every steering party is well conditioned and every slot positive.

    ``party`` (2, split, N) is 1 - rho^2 of the party of each slot steering
    one mode, in each block: l22^2 / P22, rho the correlation of its two
    modes, 1 for a padded one-mode party and NaN for a party that is not
    positive definite. The party's block scaled to unit diagonal has
    condition number (1 + |rho|) / (1 - |rho|), about 4 / (1 - rho^2), so a
    party is judged by its modes' correlation, never by their scale. A party
    of one mode steering two is its P11 alone, of condition number 1.
    ``first`` and ``last`` are l11 and l33 of each slot in each block, NaN
    where the slot's party (l11) or conditional (l33) is not positive
    definite.

    Raises
    ------
    SingularBlock
        If a party's condition number so scaled is above about
        CONDITION_CUTOFF in its x' or its p' block.
    NonPositiveInput
        If a party's block, or else a conditional block, is not positive
        definite.
    """
    if (party >= 4.0 / CONDITION_CUTOFF).all() and (last > 0.0).all():
        return
    if np.any(party < 4.0 / CONDITION_CUTOFF):
        raise SingularBlock("steering-party block is numerically singular")
    if np.isnan(party).any() or not (first > 0.0).all():
        raise NonPositiveInput("covariance block is not positive definite")
    raise NonPositiveInput("conditional block is not positive definite")


def _conditional(table: np.ndarray, plan: "_Plan"):
    """Symplectic eigenvalues of the slots of ``plan``, from the 20-row ``table``.

    A split's conditional is the Schur complement of its party in each
    block, and its Cholesky factor is the trailing block of the factor L of
    P. The first ``plan.split`` slots steer one mode, whose factor is l33,
    so nu = l33_x l33_p. The others steer two: with A (x' block) and B (p'
    block) the factors (l22, l32, l33), their symplectic eigenvalues are the
    singular values of M = B^T T A, T = diag(sign, 1). With
    h+- = hypot(m11 +- m22, m12 -+ m21), nu_max = (h+ + h-) / 2 and
    nu_min = |det M| / nu_max = a22 a33 b22 b33 / nu_max, so no route
    forms nu^2. Returns the one-mode nu, then nu_min and nu_max.
    """
    p11, p21, p22, p31, p32, p33 = table.take(plan.slots, axis=0)
    l11 = np.sqrt(p11)
    l21 = p21 / l11
    l22 = np.sqrt(p22 - l21 * l21)
    l31 = p31 / l11
    l32 = (p32 - l21 * l31) / l22
    l33 = np.sqrt((p33 - l31 * l31) - l32 * l32)
    split = plan.split
    _check((l22 * l22)[:, :split] / p22[:, :split], l11, l33)
    (a22, b22), (a32, b32), (a33, b33) = (l[:, split:] for l in (l22, l32, l33))
    m11 = plan.signs[0] * b22 * a22 + b32 * a32
    m12, m21, m22 = b32 * a33, b33 * a32, b33 * a33
    nu_max = 0.5 * (np.hypot(m11 + m22, m12 - m21) + np.hypot(m11 - m22, m12 + m21))
    det = (l22 * l33)[:, split:]
    return l33[0, :split] * l33[1, :split], det[0] * (det[1] / nu_max), nu_max


def _entry_table(b: np.ndarray) -> np.ndarray:
    """The 20 rows (20, N) the conditional pass reads a stack (N, 2, 3, 3) from."""
    n = len(b)
    table = np.empty((20, n))
    table[:18] = b.reshape(n, 18).T
    table[18], table[19] = 0.0, 1.0
    return table


class _Plan(NamedTuple):
    """What ``measure_blocks`` computes for one tuple of outputs.

    The two passes fill the first ``measured`` rows of one array, in order:
    the conditional slots (one steered mode, then two), then the 3x3 cuts.
    Their symplectic eigenvalues come in that order, then the nu_max rows of
    the slots steering two modes. The derived rows follow, one block per
    kind, each written by its formula from the rows of its sources.
    """

    slots: np.ndarray | None  # (6, 2, slots) rows of the entries
    split: int  # how many slots steer one mode
    signs: tuple  # the (sign, both) arguments of the two-mode slots, each (slots, 1)
    cuts: np.ndarray | None  # (k, 3) sign rows
    two_rows: tuple  # the nu_min and nu_max rows of the two-mode slots
    measured: int  # how many rows the passes fill
    raw: slice | None  # the rows that are min_symplectic_eig, not a negativity
    derived: tuple  # per kind: (formula, its rows, (sources, keys) rows read)
    size: int  # how many rows in all
    columns: tuple  # per output: (key, row), or (key, (G_ab row, G_ba row)) for class_


@lru_cache(maxsize=128)
def _plan(outputs: tuple[str, ...]) -> _Plan:
    """The slots and index tables the passes need for ``outputs``."""
    unknown = [k for k in outputs if k not in MEASURE_KEYS and k != "min_symplectic_eig"]
    if unknown:
        raise ValueError(f"unknown measure keys: {unknown}")
    wanted = set(outputs)
    for key in reversed(_DERIVED):  # each key before the derived sources it reads
        if key in wanted:
            wanted.update(_DERIVED[key][1])
    slots = [k for k in _SLOTS if k in wanted]
    split = sum(len(k.rpartition("_")[2]) == 1 for k in slots)
    both = np.array([float(k.startswith("G_")) for k in slots[split:]])[:, None]
    cuts = [k for k in _CUTS if k in wanted]
    rows = slots + cuts
    measured = len(rows)
    derived = []
    for kind, formula in _FORMULAS.items():
        keys = [k for k, (k_kind, _) in _DERIVED.items() if k_kind == kind and k in wanted]
        if keys:
            sources = np.array([[rows.index(src) for src in _DERIVED[k][1]]
                                for k in keys]).T.copy()  # contiguous, as _table's
            derived.append((formula, slice(len(rows), len(rows) + len(keys)), sources))
            rows += keys
    return _Plan(
        slots=_table([_SLOTS[k] for k in slots]) if slots else None,
        split=split,
        signs=(2.0 * both - 1.0, both),
        cuts=np.array([_CUTS[k] for k in cuts]) if cuts else None,
        two_rows=(slice(split, len(slots)), slice(measured, measured + len(both))),
        measured=measured,
        raw=slice(measured - 1, measured) if "min_symplectic_eig" in cuts else None,
        derived=tuple(derived),
        size=len(rows),
        columns=tuple((k, tuple(map(rows.index, _DERIVED[k][1])) if k.startswith("class_")
                       else rows.index(k)) for k in outputs),
    )


def measure_blocks(blocks: np.ndarray, outputs=MEASURE_KEYS) -> dict[str, list]:
    """The measures ``outputs`` of a stack of block pairs (N, 2, 3, 3), V_x first.

    Returns one list of N values per key. ``outputs`` may also name
    ``min_symplectic_eig``, the smallest symplectic eigenvalue of each
    state. Only the requested keys and the negativities and steerings they
    are computed from are evaluated, in two passes: the conditional pass,
    elementwise, for every steering and pair negativity, and
    ``gaussian.min_symplectic_eig`` on the 3x3 blocks for the one-versus-two
    negativities and ``min_symplectic_eig``. One -ln 2 nu and one clamp serve
    both passes, and the derived measures take one array operation per kind.

    Raises
    ------
    ValueError
        If ``outputs`` is a string, or an output is neither in MEASURE_KEYS
        nor ``min_symplectic_eig``.
    NonPositiveInput
        If a block a requested measure reads is not positive definite.
    SingularBlock
        If a steering party is numerically singular: its two modes
        correlated to 1 - rho^2 below 4 / CONDITION_CUTOFF in either block,
        whatever their scale.
    """
    if isinstance(outputs, str):
        raise ValueError("outputs must be a list of measure keys")
    plan = _plan(tuple(outputs))
    if not plan.columns:
        return {}
    b = np.asarray(blocks, dtype=float)
    spectra, tail = [], []  # nu of the slots (nu_min if two are steered) and cuts; nu_max
    with np.errstate(divide="ignore", invalid="ignore"):
        if plan.slots is not None:
            *spectra, nu_max = _conditional(_entry_table(b), plan)
            tail.append(nu_max)
        if plan.cuts is not None:
            spectra.append(min_symplectic_eig(b, plan.cuts).T)
        nu = np.concatenate(spectra + tail)
        logs = -np.log(2.0 * nu)
        if plan.slots is not None:  # a 1 -> 2 steering adds its nu_max term
            low, high = plan.two_rows
            logs[low] = np.maximum(logs[low], 0.0) + plan.signs[1] * np.maximum(logs[high], 0.0)
        values = np.empty((plan.size, len(b)))
        values[:plan.measured] = _clamp(logs[:plan.measured])
    if plan.raw is not None:
        values[plan.raw] = nu[plan.raw]
    for formula, target, sources in plan.derived:
        values[target] = formula(values.take(sources, axis=0))
    rows = values.tolist()
    return {key: ([classify_steering(ab, ba) for ab, ba in zip(rows[row[0]], rows[row[1]])]
                  if isinstance(row, tuple) else rows[row])
            for key, row in plan.columns}


def measure_columns(covs: np.ndarray, outputs=MEASURE_KEYS) -> dict[str, list]:
    """The measures ``outputs`` of a stack of three-mode covariances (N, 6, 6).

    ``measure_blocks`` on their (V_x, V_p) blocks, as read by
    ``gaussian.covariance_blocks``, whose scale rule they meet.

    Raises
    ------
    ValueError
        As ``measure_blocks``, or as ``covariance_blocks``.
    NotPhaseCovariant, SingularBlock
        As ``covariance_blocks``; SingularBlock also as ``measure_blocks``.
    NonPositiveInput
        As ``measure_blocks``.
    """
    return measure_blocks(covariance_blocks(covs), outputs)


def correlation_report(cov6: np.ndarray) -> dict[str, float | str]:
    """Every measure of one three-mode covariance matrix, keyed as MEASURE_KEYS, in order.

    ``measure_columns`` on a stack of one, so a matrix outside the scale of
    ``gaussian.covariance_blocks`` raises SingularBlock.
    """
    columns = measure_columns(np.asarray(cov6, dtype=float)[None])
    return {key: column[0] for key, column in columns.items()}
