"""Linear algebra for the phase-covariant three-mode Gaussian states of the model.

Quadratures are ordered (X_c, Y_c, X_q, Y_q, X_m, Y_m) with X = (a + a^dag)/sqrt(2),
so every physical covariance matrix has symplectic eigenvalues >= 1/2.

The model's drift and diffusion never couple x' = (X_c, Y_q, Y_m) with
p' = (Y_c, -X_q, -X_m), and (x'_k, p'_k) is a canonical pair of mode k. Every
steady state is therefore a direct sum of two real symmetric 3x3 blocks, V_x
on x' and V_p on p'. The two blocks mirror each other: the p' drift of
``model.build_blocks`` is S Q_x S with S = diag(1, 1, -1) while both blocks
share one diagonal diffusion, so V_p = S V_x S. S only flips signs, so a
solve of the p' block gives exactly S V_x S and the same residual as the x'
block, and ``steady_state_blocks`` solves and returns V_x alone;
``mirror_pairs`` writes V_p beside it where a block pair is wanted. It
also gates each point on Q_x alone: the spectrum of the 6x6 drift is that
of Q_x twice, and the gate (``_gate``) decides from three elementwise
Routh-Hurwitz coefficients of the shifted Q_x, with no eigen-solve; only a
rejected point's largest eigenvalue real part takes one, of Q_x. The norms
||Q_x||_F and ||D_x||_F of a stack are one reduction (``_frobenius``, the
one Frobenius norm here). A stack of N block pairs is stored as one array
(N, 2, ..., n, n), V_x before V_p; only ``x_block_matrix`` writes a 6x6
matrix from blocks, one x' block and its mirror, and only
``covariance_blocks`` reads blocks from 6x6 matrices, checking their x'p'
entries in place. A stack of one, a single point's
steady state, takes the norms, the gate's verdict, the residual bound and
the accept/reject bookkeeping on Python floats; the norm reduction, the
solve and its residual stay numpy calls, so the point has the same bits as
inside any stack. A larger stack, an empty one included, solves whatever
the gate passes.

``_max_real_part`` is the one place that decides where that largest real
part is NaN: at an accepted point, and at a drift with a non-finite entry,
which gets no eigen-solve. ``steady_state_blocks`` opens one
``np.errstate(over="ignore", invalid="ignore")`` per call and runs the
gate's verdict (``_gate``, the package's one Routh-Hurwitz rule) under it.
``assert_stable``, the one eigen-solve rule, which ``_gate`` matches on the
6x6 drift, opens the same errstate itself, and ``solve_lyapunov`` calls it,
so a drift that is not finite, or whose norm overflows, fails the 6x6 rule
as it fails the stage's, without a warning.

``solve_lyapunov_stack`` solves for the n(n+1)/2 entries of the upper
triangle of V (its half-vectorisation, vech), six unknowns for a 3x3 block,
and gathers V from them, so V is symmetric by construction.

The symplectic eigenvalues are the singular values of M = B^T T A, with A
and B the Cholesky factors of V_x and V_p and T = I; partially transposing
mode k flips the sign of its x' or p' quadrature, which puts -1 at position
k of the diagonal of T either way. ``min_symplectic_eig`` takes the
smallest as nu_min = lambda_max(X X^T)^(-1/2), X = M^-1 = A^-1 T B^-T, by one
closed form over the block entries: the inverse Cholesky factors, the
entries of X and X X^T, and Smith's trigonometric formula for the largest
eigenvalue of a symmetric 3x3 matrix, applied to X X^T less its mean
eigenvalue and scaled so that nothing overflows. Like the steady-state stage
it takes a stack of one on Python floats and a larger stack elementwise, with
the same bits either way: on a stack the inverse factors of V_x and V_p
are one pass over both blocks, and only acos and cos run per row, mapped
from ``math`` over the rows' floats. Only a row whose two largest
eigenvalues nearly meet, where that formula loses digits, takes an
eigen-solve, of its own 3x3 matrix. The largest eigenvalue of a symmetric matrix has a small
relative error, so nu_min keeps one too; no route here forms nu^2, whose
rounding error is far larger than nu's at the sub-vacuum states of the
model.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import (NonPositiveInput, NotPhaseCovariant, SingularBlock, SingularSystem,
                     UnstableDrift)

VACUUM_VARIANCE = 0.5

PHYSICALITY_TOL = 1e-10
LYAPUNOV_RESIDUAL_TOL = 1e-10

# Largest x'p' entry of a covariance accepted as roundoff, relative to its
# largest entry
PHASE_COVARIANCE_TOL = 1e-12

# The scale ``covariance_blocks`` accepts: entries at most SCALE_LIMIT in
# magnitude, nonzero variances at least 1 / SCALE_LIMIT. ``min_symplectic_eig``
# and the measures kernel square the inverse Cholesky factors of the blocks,
# which stay far inside the double range there.
SCALE_LIMIT = 1e100

# Stability margin relative to ||Q||_F, scale-free across rad/s magnitudes
STABILITY_TOL = 1e-9

# The gate's margin on Q_x, relative to ||Q_x||_F: ||Q||_F = sqrt(2) ||Q_x||_F
_BLOCK_TOL = STABILITY_TOL * math.sqrt(2.0)

# Rows of x' and p' in the quadrature ordering, the signs of p', and S_i S_j of V_p = S V_x S
_ROWS = np.array([[0, 3, 5], [1, 2, 4]])[:, :, None]
_COLS = _ROWS.swapaxes(-1, -2)
_SIGN = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]])
_SIGNS = _SIGN[:, :, None] * _SIGN[:, None, :]
_MIRROR = np.outer([1.0, 1.0, -1.0], [1.0, 1.0, -1.0])
# Row-major indices in a 6x6 matrix of the x' block's entries, then the p' block's
_FLAT = (_ROWS * 6 + _COLS).ravel()

# The sign row of the state itself, and the lower entries of a row-major 3x3 matrix
_UNSIGNED = np.ones((1, 3))
_LOWER = operator.itemgetter(0, 3, 4, 6, 7, 8)

# Smith's formula decides where r > SMITH_MIN_R; nearer r = -1, where the two largest
# eigenvalues of the Gram matrix meet, eigvalsh does
SMITH_MIN_R = -1.0 + 1e-2


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes, by the formula of ``np.linalg.norm``."""
    return np.sqrt(np.add.reduce(x * x, axis=(-2, -1)))


def _max_real_part(drift: np.ndarray, wanted: np.ndarray | bool = True) -> np.ndarray:
    """Largest eigenvalue real part of each matrix of a stack (..., n, n) where ``wanted``.

    This is the one place that decides where the value is NaN: at a matrix
    not ``wanted`` (a boolean per matrix), and at one with a non-finite
    entry, neither of which gets an eigen-solve.
    """
    solve = np.isfinite(drift).all(axis=(-2, -1)) & wanted
    max_real = np.full(solve.shape, np.nan)
    if solve.any():
        max_real[solve] = np.linalg.eigvals(drift[solve]).real.max(axis=-1)
    return max_real


def assert_stable(drift: np.ndarray) -> None:
    """Raise UnstableDrift unless the drift matrix (n, n) is safely damped.

    Safely damped means the largest eigenvalue real part lies below
    -STABILITY_TOL ||Q||_F, a margin relative to the Frobenius norm so the
    rule is scale-free. A drift with a non-finite entry, or whose norm
    overflows, fails without a warning.
    """
    q = np.asarray(drift, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        max_real = _max_real_part(q)
        if not max_real < -STABILITY_TOL * _frobenius(q):
            raise UnstableDrift(float(max_real))


def _gate(entries, norm):
    """Whether ``assert_stable`` passes the 6x6 drift of Q_x, from the nine entries of
    Q_x, row-major, and ||Q_x||_F: Python floats, giving a bool, or arrays over a
    stack, with the same roundings.

    The 6x6 drift Q_x (+) S Q_x S has the eigenvalues of Q_x twice and
    ||Q||_F = sqrt(2) ||Q_x||_F, so the rule is that every eigenvalue of
    A = Q_x + m I, m = STABILITY_TOL sqrt(2) ||Q_x||_F, has a negative real
    part. For the characteristic polynomial l^3 + a1 l^2 + a2 l + a3 of A,
    with a1 = -tr A, a2 the sum of its principal 2x2 minors and a3 = -det A,
    that holds iff a1 > 0, a3 > 0 and a1 a2 > a3 (the Routh-Hurwitz
    criterion; Gantmacher, The Theory of Matrices, vol. 2, ch. XV), that is
    tr A < 0, det A < 0 and tr A a2 < det A. A non-finite coefficient fails.
    Runs under the stage's ``np.errstate``.
    """
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = entries
    shift = _BLOCK_TOL * norm
    a00, a11, a22 = a00 + shift, a11 + shift, a22 + shift
    minor0, minor1, minor2 = a11 * a22 - a12 * a21, a10 * a22 - a12 * a20, a10 * a21 - a11 * a20
    trace = a00 + a11 + a22
    a2 = minor0 + (a00 * a22 - a02 * a20) + (a00 * a11 - a01 * a10)
    det = a00 * minor0 - a01 * minor1 + a02 * minor2
    return (trace < 0.0) & (det < 0.0) & (trace * a2 < det)


def solve_lyapunov(drift: np.ndarray, diffusion: np.ndarray) -> np.ndarray:
    """Solve Q V + V Q^T = -D for the steady-state covariance V.

    The one-matrix case of ``solve_lyapunov_stack``, behind ``assert_stable``.

    Raises
    ------
    ValueError
        If the matrices are not square and equally sized, or the diffusion
        matrix has a NaN entry or is not symmetric.
    UnstableDrift
        If ``assert_stable`` finds the drift matrix not safely damped.
    SingularSystem
        If the linear solve is rank-deficient or fails the residual bound.
        A diffusion matrix with an infinite entry fails the bound: its
        symmetry tolerance, relative to the largest entry, is infinite, so
        only its infinite entries must mirror each other.
    """
    q = np.asarray(drift, dtype=float)
    d = np.asarray(diffusion, dtype=float)
    n = q.shape[0]
    if q.shape != (n, n) or d.shape != (n, n):
        raise ValueError("drift and diffusion must be square and equally sized")
    if np.isnan(d).any():
        raise ValueError("diffusion matrix has a NaN entry")
    # an infinite entry makes atol infinite, which allclose reports under errstate's invalid
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.allclose(d, d.T, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(d).max())):
            raise ValueError("diffusion matrix must be symmetric")
        assert_stable(q)
        cov, residual = solve_lyapunov_stack(q[None], d[None])
        if not residual_accepted(residual, _frobenius(d))[0]:
            raise SingularSystem("steady-state solve failed the residual bound")
    return cov[0]


def lyapunov_residual(drift: np.ndarray, cov: np.ndarray, diffusion: np.ndarray):
    """Frobenius norm of Q V + V Q^T + D for symmetric V, one per matrix of a stack (..., n, n).

    With V symmetric, V Q^T is the transpose of R = Q V, so the residual is
    R + R^T + D. Runs under the stage's ``np.errstate``, so a residual that
    overflows is inf, or NaN, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        product = drift @ cov
        return _frobenius(product + product.swapaxes(-1, -2) + diffusion)


def residual_accepted(residual, diffusion_norm):
    """Whether each residual meets LYAPUNOV_RESIDUAL_TOL max(1, ||D||_F), given ||D||_F;
    a bool for a float residual, else an array.

    A bound that is not finite accepts nothing: at extreme temperatures the
    norms overflow, and a NaN norm gives a NaN bound, as ``np.maximum``
    propagates it (Python's ``max(1.0, nan)`` is 1.0, so the float spelling
    is a comparison that NaN fails). Callers run this, the norms and the
    solve behind ``residual`` under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    if type(residual) is float:
        bound = LYAPUNOV_RESIDUAL_TOL * (1.0 if diffusion_norm < 1.0 else diffusion_norm)
        return math.isfinite(bound) and residual <= bound
    bound = LYAPUNOV_RESIDUAL_TOL * np.maximum(1.0, diffusion_norm)
    return np.isfinite(bound) & (residual <= bound)


def solve_lyapunov_stack(drift: np.ndarray,
                         diffusion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve Q V + V Q^T = -D for each of (N, n, n) drifts already known to be stable.

    The unknowns are vech(V), the n(n+1)/2 entries V_ij with i <= j, and the
    equations the same entries of Q V + V Q^T = -D. The coefficients of the
    whole stack are one product of Q's n^2 entries with a constant table
    (``_vech_tables``), and one solve serves the stack, of any size, an
    empty one included; V is gathered from vech(V) and is symmetric by
    construction. Returns the covariances and their residuals
    ||Q V + V Q^T + D||_F; the callers judge them with ``residual_accepted``.

    Raises
    ------
    SingularSystem
        If the linear solve is rank-deficient.
    """
    q = np.asarray(drift, dtype=float)
    d = np.asarray(diffusion, dtype=float)
    count, n = q.shape[:2]
    table, upper, gather = _vech_tables(n)
    coeff = (q.reshape(count, n * n) @ table).reshape(count, len(upper), len(upper))
    try:
        vech = np.linalg.solve(coeff, d.reshape(count, n * n).take(upper, axis=1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    cov = vech.reshape(count, len(upper)).take(gather, axis=1).reshape(count, n, n)
    return cov, lyapunov_residual(q, cov, d)


@functools.cache
def _vech_tables(n: int) -> tuple[np.ndarray, ...]:
    """The vech system of -(Q V + V Q^T) = D for (n, n) matrices.

    Row r of the system is entry (i, j), i <= j, of the upper triangle in
    row-major order, and so is unknown r of vech(V). Entry (i, j) of
    Q V + V Q^T is sum_k Q_ik V_kj + Q_jk V_ik, so the coefficient table
    (n^2, m^2), m = n(n+1)/2, holds -1 at [(i, k), (r, vech index of V_kj)]
    and at [(j, k), (r, vech index of V_ik)] for every k, summed: the entries
    of Q times the table are the negated coefficients, row-major. Also
    returns the row-major indices (m, 1) of the upper triangle, which read
    vech(D) as a column, and the vech index (n^2,) of each entry of V.
    """
    rows = [(i, j) for i in range(n) for j in range(i, n)]
    m = len(rows)
    index = np.empty((n, n), dtype=int)
    for r, (i, j) in enumerate(rows):
        index[i, j] = index[j, i] = r
    table = np.zeros((n * n, m * m))
    for r, (i, j) in enumerate(rows):
        for k in range(n):
            table[i * n + k, r * m + index[k, j]] -= 1.0
            table[j * n + k, r * m + index[i, k]] -= 1.0
    upper = np.array([[i * n + j] for i, j in rows])
    return table, upper, index.ravel()


def steady_state_blocks(system: np.ndarray):
    """Gate, solve and judge the steady states of x' blocks (N, 2, 3, 3).

    ``system`` holds each point's ``model.build_blocks``. One reduction takes
    ||Q_x||_F and ||D_x||_F of every point. ``_gate`` decides on Q_x, shifted
    by the first, what ``assert_stable`` decides on the 6x6 drift.
    Drifts that pass have their x' block solved; V_p is its mirror S V_x S
    (``mirror_pairs``), r_p = r_x and D_p = D_x, so the 6x6 residual is
    sqrt(2 r_x^2) and the 6x6 diffusion norm sqrt(2) ||D_x||_F, which
    ``residual_accepted`` judges. A stack solves whatever the gate passes,
    all of it uncopied when it passes whole, and nothing but an empty stack
    when it passes none. Only the rejected points have an eigen-solve, of
    Q_x, whose largest eigenvalue real part is the 6x6 drift's.
    This function opens one ``np.errstate`` and runs every step under it,
    the gate included, so overflowing entries give inf or NaN and no
    warning. Every point is computed alike, whatever else its stack holds.
    A stack of one takes its own route (``_steady_state_point``): the norms,
    the verdicts, the 6x6 residual, its bound and the reasons are Python
    floats, while every numpy call that makes an output's bits is the
    stack's.

    Returns each point's largest drift eigenvalue real part (NaN where it
    was accepted, and where a drift entry is not finite, which fails the
    gate), a list of each point's rejecting check ("gate", "residual" or
    None), and the x' blocks V_x (n, 3, 3) and residuals (n,) of the
    accepted points, in order.

    Raises
    ------
    SingularSystem
        If the linear solve is rank-deficient.
    """
    # laid out as a copy of its gated rows would be, so a stack that passes
    # whole is solved uncopied with the same roundings
    system = np.ascontiguousarray(system, dtype=float)
    count = len(system)
    flat = system.reshape(count, 2, 9)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _frobenius(system)  # ||Q_x||_F and ||D_x||_F per point
        if count == 1:
            return _steady_state_point(system, flat[0, 0].tolist(), *norms[0].tolist())
        gated = _gate(list(flat[:, 0].T), norms[:, 0])
        gates = gated.tolist()
        solved, norms = (system, norms) if all(gates) else (system[gated], norms[gated])
        cov, residual = solve_lyapunov_stack(solved[:, 0], solved[:, 1])
        residual = np.sqrt(2.0 * np.square(residual))
        passed = residual_accepted(residual, math.sqrt(2.0) * norms[:, 1])
        verdicts = passed.tolist()
        if len(verdicts) == count and all(verdicts):
            return np.full(count, np.nan), [None] * count, cov, residual
        verdict = iter(verdicts)
        reason = [(None if next(verdict) else "residual") if ok else "gate" for ok in gates]
        max_real = _max_real_part(system[:, 0], np.array([r is not None for r in reason]))
    return max_real, reason, cov[passed], residual[passed]


def _steady_state_point(system: np.ndarray, drift_x: list, drift_norm: float,
                        diffusion_norm: float):
    """``steady_state_blocks`` of a stack of one, under its ``np.errstate``, given
    the nine floats of Q_x and both norms: the stack's numpy calls, with the
    verdicts, the 6x6 residual and its bound on floats."""
    reason = "gate"
    if _gate(drift_x, drift_norm):
        cov, residual = solve_lyapunov_stack(system[:, 0], system[:, 1])
        r_x = residual.item()
        residual = math.sqrt(2.0 * (r_x * r_x))
        if residual_accepted(residual, math.sqrt(2.0) * diffusion_norm):
            return np.array([math.nan]), [None], cov, np.array([residual])
        reason = "residual"
    return _max_real_part(system[:, 0]), [reason], np.empty((0, 3, 3)), np.empty(0)


def mirror_pairs(cov_x: np.ndarray) -> np.ndarray:
    """The block pairs (..., 2, 3, 3) of x' blocks (..., 3, 3): V_x and V_p = S V_x S."""
    blocks = np.empty(cov_x.shape[:-2] + (2, 3, 3))
    blocks[..., 0, :, :] = cov_x
    np.multiply(cov_x, _MIRROR, out=blocks[..., 1, :, :])
    return blocks


def x_block_matrix(x) -> np.ndarray:
    """The 6x6 matrix of one x' block ``x`` (3, 3) and its mirror p' block S x S.

    The block's nine floats and the mirror's nine go into a zero matrix in
    one scatter. p' entry (i, j) is f_i f_j x_ij, f = (1, -1, 1), the
    mirror's signs times those of p', written as a negation where it is -1,
    so every bit, signed zeros included, is that of the product f_i f_j x_ij;
    only a NaN's sign may differ.
    ``x`` is an array or nested lists of floats.
    """
    (a, b, c), (d, e, f), (g, h, i) = x.tolist() if type(x) is np.ndarray else x
    matrix = np.zeros((6, 6))
    matrix.ravel()[_FLAT] = (a, b, c, d, e, f, g, h, i, a, -b, c, -d, e, -f, g, -h, i)
    return matrix


def covariance_blocks(cov: np.ndarray) -> np.ndarray:
    """V_x and V_p of three-mode covariances (..., 6, 6), as (..., 2, 3, 3).

    The accepted scale is every block entry at most SCALE_LIMIT (1e100) in
    magnitude and every nonzero variance (diagonal entry) at least 1e-100
    in magnitude.

    Raises
    ------
    ValueError
        If the matrices are not 6x6 or have a non-finite entry.
    NotPhaseCovariant
        If an x'p' entry exceeds PHASE_COVARIANCE_TOL times the largest entry
        of its matrix.
    SingularBlock
        If a covariance is outside the accepted scale.
    """
    v = np.asarray(cov, dtype=float)
    if v.shape[-2:] != (6, 6):
        raise ValueError("expected 6x6 three-mode covariance matrices")
    if not np.isfinite(v).all():
        raise ValueError("covariance matrices must have finite entries")
    magnitude = np.abs(v)
    size = magnitude[..., _ROWS, _COLS]  # the blocks' entries, unsigned
    largest = magnitude.max(axis=(-2, -1), initial=0.0)
    magnitude[..., _ROWS, _COLS] = 0.0  # leaves the x'p' entries
    if np.any(magnitude.max(axis=(-2, -1), initial=0.0) > PHASE_COVARIANCE_TOL * largest):
        raise NotPhaseCovariant("covariance couples x' = (X_c, Y_q, Y_m) with "
                                "p' = (Y_c, -X_q, -X_m)")
    variances = size.diagonal(0, -2, -1)
    if (size > SCALE_LIMIT).any() or ((variances > 0.0) & (variances < 1.0 / SCALE_LIMIT)).any():
        raise SingularBlock("covariance entries must be at most 1e100 in magnitude, "
                            "and nonzero variances at least 1e-100")
    return v[..., _ROWS, _COLS] * _SIGNS


def min_symplectic_eig(blocks: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Smallest symplectic eigenvalue of each block pair (N, 2, 3, 3) per sign row (k, 3).

    Returns (N, k): nu_min of V_x (+) V_p with T = diag(signs[i]), -1 at
    each partially transposed mode. The symplectic eigenvalues are the
    singular values of M = B^T T A for the Cholesky factors A, B of V_x and
    V_p, so nu_min = lambda_max(G)^(-1/2) for the Gram matrix G = X X^T,
    X = M^-1 = A^-1 T B^-T. One closed form over the block entries gives it:
    the inverse factors (``_inverse_factor``, of both blocks in one pass
    over a stack), the entries of X and G
    (``_gram_parts``, ``_nu_min``), and lambda_max(G) by Smith's
    trigonometric formula (O. K. Smith, Commun. ACM 4, 168 (1961)) on
    U = (G - q I) / q, q = tr G / 3: with p^2 = tr U^2 / 6 and
    r = det U / 2 p^3, lambda_max = q (1 + 2 p cos(acos(r) / 3)). U's entries
    are at most 3 in magnitude, so no intermediate overflows or underflows
    over the scale ``covariance_blocks`` accepts, and nu_min keeps the small
    relative error of lambda_max. Where r nears -1 the two largest
    eigenvalues of G meet and acos loses digits; a row with r <= SMITH_MIN_R,
    or where 2 p^3 is 0 or r is NaN, has its own G solved by
    ``np.linalg.eigvalsh`` instead, the only eigen-solve here (13 of the
    3,600 rows of the seven presets). A stack of one takes the formula on
    Python floats, a larger stack as elementwise numpy arithmetic (+ - * /
    and roots, with no matmul or reduction), which clips r at 1 and maps
    ``math.acos`` and then ``math.cos`` over its rows; both take acos and
    cos through ``math``, one element at a time, so a block pair gets the
    same bits whatever its stack holds.

    Raises
    ------
    NonPositiveInput
        If a block is not positive definite.
    """
    b = np.asarray(blocks, dtype=float)
    signs = np.asarray(signs, dtype=float)
    if len(b) == 1:
        vx, vp = b.reshape(2, 9).tolist()
        parts = _gram_parts(*_inverse_factor(*_LOWER(vx)), *_inverse_factor(*_LOWER(vp)))
        return np.array([[_nu_min(*parts, t0 * t1, t0 * t2) for t0, t1, t2 in signs.tolist()]])
    v = b.reshape(-1, 2, 9).transpose(2, 1, 0)[..., None]  # (9, 2, N, 1): broadcast over rows
    t0, t1, t2 = signs.T
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse_x, inverse_p = zip(*_inverse_factor(*_LOWER(v)))  # both blocks in one pass
        return _nu_min(*_gram_parts(*inverse_x, *inverse_p), t0 * t1, t0 * t2)


def _pivot(d):
    """The root of a Cholesky pivot d, float or array; NonPositiveInput unless every d > 0."""
    if d > 0.0 if type(d) is float else (d > 0.0).all():
        return math.sqrt(d) if type(d) is float else np.sqrt(d)
    raise NonPositiveInput("covariance block is not positive definite")


def _inverse_factor(v00, v10, v11, v20, v21, v22):
    """The lower entries (i00, i10, i11, i20, i21, i22) of L^-1, for the Cholesky
    factor L of the symmetric matrix V with these lower entries; floats or arrays.

    With V = U D U^T, U unit lower triangular, L^-1 = D^(-1/2) U^-1. The pivots
    d = (v00, d11, d22) are taken from the entries of V, before any root.
    """
    i00 = 1.0 / _pivot(v00)
    u10, u20 = v10 / v00, v20 / v00
    d11 = v11 - u10 * v10
    i11 = 1.0 / _pivot(d11)
    e21 = v21 - u20 * v10
    u21 = e21 / d11
    i22 = 1.0 / _pivot(v22 - u20 * v20 - u21 * e21)
    return i00, -u10 * i11, i11, (u21 * u10 - u20) * i22, -u21 * i22, i22


def _gram_parts(a00, a10, a11, a20, a21, a22, b00, b10, b11, b20, b21, b22):
    """What G = X X^T, X = A^-1 T B^-T, shares between sign rows, from the lower
    entries of A^-1 and B^-1; floats or arrays.

    X_ij is the sum of a_ik t_k b_jk over k <= min(i, j), and G is unchanged
    when T changes sign, so T = diag(1, s1, s2), s1 = t0 t1, s2 = t0 t2. The
    first row and column of X, and the terms of G made of them alone, are
    then the same for every T. Returns x01, x02, g00, those terms of g10,
    g11, g20, g21 and g22, and the products that make up x11, x12, x21 and x22.
    """
    x00, x01, x02, x10, x20 = a00 * b00, a00 * b10, a00 * b20, a10 * b00, a20 * b00
    return (x01, x02, x00 * x00 + x01 * x01 + x02 * x02, x10 * x00, x10 * x10, x20 * x00,
            x20 * x10, x20 * x20, a10 * b10, a11 * b11, a10 * b20, a11 * b21, a20 * b10,
            a21 * b11, a20 * b20, a21 * b21, a22 * b22)


def _nu_min(x01, x02, g00, h10, h11, h20, h21, h22,
            c11, d11, c12, d12, c21, d21, c22, d22, e22, s1, s2):
    """lambda_max(G)^(-1/2) for T = diag(1, s1, s2), from ``_gram_parts``: by Smith's
    formula where r > SMITH_MIN_R, else by ``np.linalg.eigvalsh`` on that G; a
    float, or an array over the stack."""
    x11, x12, x21, x22 = c11 + s1 * d11, c12 + s1 * d12, c21 + s1 * d21, c22 + s1 * d22 + s2 * e22
    gram = (g00, h10 + x11 * x01 + x12 * x02, h11 + x11 * x11 + x12 * x12,
            h20 + x21 * x01 + x22 * x02, h21 + x21 * x11 + x22 * x12, h22 + x21 * x21 + x22 * x22)
    g00, g10, g11, g20, g21, g22 = gram
    q = (g00 + g11 + g22) / 3.0
    point = type(q) is float
    s = math.inf if point and not q else 1.0 / q  # q = 0 only where G underflows
    u00, u11, u22 = (g00 - q) * s, (g11 - q) * s, (g22 - q) * s
    u10, u20, u21 = g10 * s, g20 * s, g21 * s
    square = (u00 * u00 + u11 * u11 + u22 * u22 + 2.0 * (u10 * u10 + u20 * u20 + u21 * u21)) / 6.0
    det = (u00 * (u11 * u22 - u21 * u21) - u10 * (u10 * u22 - u21 * u20)
           + u20 * (u10 * u21 - u11 * u20))
    p = math.sqrt(square) if point else np.sqrt(square)
    cube = 2.0 * p * square  # 2 p^3, and r = det U / 2 p^3
    if point:
        if cube > 0.0 and (r := det / cube) > SMITH_MIN_R:  # r <= 1 in exact arithmetic
            cosine = math.cos(math.acos(r if r < 1.0 else 1.0) / 3.0)
            return 1.0 / math.sqrt(q * (1.0 + 2.0 * p * cosine))
        return _eigvalsh_nu(*([g] for g in gram))[0]
    r = det / cube
    smith = (cube > 0.0) & (r > SMITH_MIN_R)
    clipped = np.where(smith, np.minimum(r, 1.0), 1.0).ravel().tolist()
    angle = np.fromiter(map(math.acos, clipped), float, r.size) / 3.0
    cosine = np.fromiter(map(math.cos, angle.tolist()), float, r.size).reshape(r.shape)
    nu = 1.0 / np.sqrt(q * (1.0 + 2.0 * p * cosine))
    if not smith.all():
        rest = ~smith
        nu[rest] = _eigvalsh_nu(*(np.broadcast_to(g, rest.shape)[rest] for g in gram))
    return nu


def _eigvalsh_nu(g00, g10, g11, g20, g21, g22) -> np.ndarray:
    """lambda_max(G)^(-1/2) of the symmetric G (n,) with these lower entries, by ``eigvalsh``."""
    gram = np.array([[g00, g10, g20], [g10, g11, g21], [g20, g21, g22]]).transpose(2, 0, 1)
    return 1.0 / np.sqrt(np.linalg.eigvalsh(gram)[:, -1])


def check_physicality(cov: np.ndarray) -> tuple[bool, float]:
    """Whether a three-mode covariance is physical, plus its smallest symplectic eigenvalue.

    Physical means min symplectic eigenvalue >= 1/2 - PHYSICALITY_TOL,
    equivalent to V + i Omega / 2 >= 0. The covariance is read by
    ``covariance_blocks``, and raises as it does.
    """
    nu_min = min_symplectic_eig(covariance_blocks(np.asarray(cov)[None]), _UNSIGNED).item()
    return nu_min >= VACUUM_VARIANCE - PHYSICALITY_TOL, nu_min
