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
block, and ``steady_state_blocks`` solves V_x alone. It also gates each
point on Q_x alone: the spectrum of the 6x6 drift is that of Q_x twice,
and ``block_gate`` decides from three elementwise Routh-Hurwitz
coefficients of the shifted Q_x, with no eigen-solve; only a rejected
point's largest eigenvalue real part takes one, of Q_x. A stack of N block
pairs is stored as one array (N, 2, ..., n, n), V_x before V_p; only
``assemble_blocks`` and ``covariance_blocks`` convert to and from 6x6.

``_max_real_part`` is the one place that decides where that largest real
part is NaN: at an accepted point, and at a drift with a non-finite entry,
which gets no eigen-solve. ``hurwitz_gate``, and through it
``assert_stable`` and ``solve_lyapunov``, runs under the stage's
``np.errstate``, so a drift that is not finite, or whose norm overflows,
fails the 6x6 gate as it fails the stage's, without a warning.

``solve_lyapunov_stack`` solves for the n(n+1)/2 entries of the upper
triangle of V (its half-vectorisation, vech), six unknowns for a 3x3 block,
and gathers V from them, so V is symmetric by construction.

The symplectic eigenvalues are the singular values of M = B^T T A, with A
and B the Cholesky factors of V_x and V_p and T = I; partially transposing
mode k flips the sign of its x' or p' quadrature, which puts -1 at position
k of the diagonal of T either way. ``min_symplectic_eig`` takes the
smallest as nu_min = lambda_max(X X^T)^(-1/2), X = M^-1 = A^-1 T B^-T, from
closed-form inverses of the triangular factors and one symmetric
eigen-solve. The largest eigenvalue of a symmetric matrix has a small
relative error, so nu_min keeps one too; no route here forms nu^2, whose
rounding error is far larger than nu's at the sub-vacuum states of the
model.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NonPositiveInput, NotPhaseCovariant, SingularSystem, UnstableDrift

VACUUM_VARIANCE = 0.5

PHYSICALITY_TOL = 1e-10
LYAPUNOV_RESIDUAL_TOL = 1e-10
CONDITION_CUTOFF = 1e12

# Largest x'p' entry of a covariance accepted as roundoff, relative to its
# largest entry
PHASE_COVARIANCE_TOL = 1e-12

# Stability margin relative to ||Q||_F, scale-free across rad/s magnitudes
STABILITY_TOL = 1e-9

# The block gate's margin on Q_x, relative to ||Q_x||_F: ||Q||_F = sqrt(2) ||Q_x||_F
_BLOCK_TOL = STABILITY_TOL * math.sqrt(2.0)

# Rows of x' and p' in the quadrature ordering, the signs of p', and S_i S_j of V_p = S V_x S
_ROWS = np.array([[0, 3, 5], [1, 2, 4]])[:, :, None]
_COLS = _ROWS.swapaxes(-1, -2)
_SIGN = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]])
_SIGNS = _SIGN[:, :, None] * _SIGN[:, None, :]
_MIRROR = np.outer([1.0, 1.0, -1.0], [1.0, 1.0, -1.0])

# The identity, the strictly lower triangle, and the sign row of the state itself
_EYE = np.eye(3)
_STRICT = np.tri(3, k=-1)
_UNSIGNED = np.ones((1, 3))


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


def hurwitz_gate(drift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue real part of each drift matrix, and whether it is stable.

    Stable means safely damped: the largest real part lies below
    -STABILITY_TOL ||Q||_F, a margin relative to the Frobenius norm so the
    gate is scale-free. Takes one matrix or a stack (..., n, n). A drift with
    a non-finite entry, or whose norm overflows, fails without a warning.
    """
    q = np.asarray(drift, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        max_real = _max_real_part(q)
        return max_real, max_real < -STABILITY_TOL * _frobenius(q)


def assert_stable(drift: np.ndarray) -> None:
    """Raise UnstableDrift unless ``hurwitz_gate`` finds the drift safely damped."""
    max_real, stable = hurwitz_gate(drift)
    if not stable:
        raise UnstableDrift(float(max_real))


def block_gate(drift_x: np.ndarray) -> np.ndarray:
    """Whether ``hurwitz_gate`` passes the 6x6 drift of each x' drift Q_x (N, 3, 3).

    The 6x6 drift Q_x (+) S Q_x S has the eigenvalues of Q_x twice and
    ||Q||_F = sqrt(2) ||Q_x||_F, so the gate's rule is that every eigenvalue
    of A = Q_x + m I, m = STABILITY_TOL sqrt(2) ||Q_x||_F, has a negative real
    part. For the characteristic polynomial l^3 + a1 l^2 + a2 l + a3 of A,
    with a1 = -tr A, a2 the sum of its principal 2x2 minors and a3 = -det A,
    that holds iff a1 > 0, a3 > 0 and a1 a2 > a3 (the Routh-Hurwitz
    criterion; Gantmacher, The Theory of Matrices, vol. 2, ch. XV). The
    coefficients are elementwise over the stack; a stack of one takes them
    on Python floats, with the same roundings and no numpy call per
    operation. A non-finite coefficient fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _block_gate(drift_x)


def _block_gate(drift_x: np.ndarray) -> np.ndarray:
    """``block_gate`` without its ``np.errstate``, for callers already inside one."""
    q = np.asarray(drift_x, dtype=float).reshape(-1, 9)
    shift = _BLOCK_TOL * np.sqrt(np.add.reduce(q * q, axis=1))
    if len(q) == 1:
        entries, shift = q[0].tolist(), shift.item()
    else:
        entries = list(q.T)
    for diagonal in (0, 4, 8):
        entries[diagonal] = entries[diagonal] + shift
    stable = _routh_hurwitz(*entries)
    return np.array([stable]) if len(q) == 1 else stable


def _routh_hurwitz(a00, a01, a02, a10, a11, a12, a20, a21, a22):
    """a1 > 0, a3 > 0 and a1 a2 > a3 for the 3x3 matrix A with these entries, as
    tr A < 0, det A < 0 and tr A a2 < det A; floats or arrays."""
    minor0, minor1, minor2 = a11 * a22 - a12 * a21, a10 * a22 - a12 * a20, a10 * a21 - a11 * a20
    trace = a00 + a11 + a22
    a2 = minor0 + (a00 * a22 - a02 * a20) + (a00 * a11 - a01 * a10)
    det = a00 * minor0 - a01 * minor1 + a02 * minor2
    return (trace < 0.0) & (det < 0.0) & (trace * a2 < det)


def solve_lyapunov(drift: np.ndarray, diffusion: np.ndarray) -> np.ndarray:
    """Solve Q V + V Q^T = -D for the steady-state covariance V.

    The one-matrix case of ``solve_lyapunov_stack``, behind ``hurwitz_gate``.

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
        if not residual_accepted(residual, np.linalg.norm(d))[0]:
            raise SingularSystem("steady-state solve failed the residual bound")
    return cov[0]


def lyapunov_residual(drift: np.ndarray, cov: np.ndarray, diffusion: np.ndarray):
    """Frobenius norm of Q V + V Q^T + D for symmetric V, one per matrix of a stack (..., n, n).

    With V symmetric, V Q^T is the transpose of R = Q V, so the residual is
    R + R^T + D.
    """
    product = drift @ cov
    return _frobenius(product + product.swapaxes(-1, -2) + diffusion)


def residual_accepted(residual: np.ndarray, diffusion_norm: np.ndarray) -> np.ndarray:
    """Whether each residual meets LYAPUNOV_RESIDUAL_TOL max(1, ||D||_F), given ||D||_F.

    A bound that is not finite accepts nothing: at extreme temperatures the
    norms overflow. Callers run this, the norms and the solve behind
    ``residual`` under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    bound = LYAPUNOV_RESIDUAL_TOL * np.maximum(1.0, diffusion_norm)
    return np.isfinite(bound) & (residual <= bound)


def solve_lyapunov_stack(drift: np.ndarray,
                         diffusion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve Q V + V Q^T = -D for each of (N, n, n) drifts already known to be stable.

    The unknowns are vech(V), the n(n+1)/2 entries V_ij with i <= j, and the
    equations the same entries of Q V + V Q^T = -D. The coefficients of the
    whole stack are one product of Q's n^2 entries with a constant table
    (``_vech_tables``), and one solve serves the stack; V is gathered from
    vech(V) and is symmetric by construction. Returns the covariances and
    their residuals ||Q V + V Q^T + D||_F; the callers judge them with
    ``residual_accepted``.

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
        vech = np.linalg.solve(coeff, d.reshape(count, n * n)[:, upper])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    cov = vech.reshape(count, -1)[:, gather].reshape(count, n, n)
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

    ``system`` holds each point's ``model.build_blocks``. ``block_gate``
    decides on Q_x what ``hurwitz_gate`` decides on the 6x6 drift. Drifts
    that pass have their x' block solved and V_p written as its mirror
    S V_x S; as r_p = r_x and D_p = D_x, the 6x6 residual is sqrt(2 r_x^2) and
    the 6x6 diffusion norm sqrt(2) ||D_x||_F, which ``residual_accepted``
    judges. Only the rejected points have an eigen-solve, of Q_x, whose
    largest eigenvalue real part is the 6x6 drift's, and a stack the gate
    rejects whole is not solved at all.
    Every step runs under one ``np.errstate``, so overflowing entries give
    inf or NaN and no warning. Every point is computed alike, whatever else
    its stack holds.

    Returns each point's largest drift eigenvalue real part (NaN where it
    was accepted, and where a drift entry is not finite, which fails the
    gate), a list of each point's rejecting check ("gate", "residual" or
    None), and the block pairs (n, 2, 3, 3) and residuals (n,) of the
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
    with np.errstate(over="ignore", invalid="ignore"):
        gated = _block_gate(system[:, 0])
        gates = gated.tolist()
        solved = system if all(gates) else system[gated]
        if len(solved):
            cov, residual = solve_lyapunov_stack(solved[:, 0], solved[:, 1])
            residual = np.sqrt(2.0 * np.square(residual))
            passed = residual_accepted(residual, math.sqrt(2.0) * _frobenius(solved[:, 1]))
            blocks = mirror_pairs(cov)
        else:  # the gate rejected every point, so there is nothing to solve
            blocks, residual, passed = np.empty((0, 2, 3, 3)), np.empty(0), np.empty(0, dtype=bool)
        verdicts = passed.tolist()
        if len(verdicts) == count and all(verdicts):
            return np.full(count, np.nan), [None] * count, blocks, residual
        verdict = iter(verdicts)
        reason = [(None if next(verdict) else "residual") if ok else "gate" for ok in gates]
        max_real = _max_real_part(system[:, 0], np.array([r is not None for r in reason]))
    return max_real, reason, blocks[passed], residual[passed]


def mirror_pairs(cov_x: np.ndarray) -> np.ndarray:
    """The block pairs (..., 2, 3, 3) of x' blocks (..., 3, 3): V_x and V_p = S V_x S."""
    blocks = np.empty(cov_x.shape[:-2] + (2, 3, 3))
    blocks[..., 0, :, :] = cov_x
    np.multiply(cov_x, _MIRROR, out=blocks[..., 1, :, :])
    return blocks


def assemble_blocks(blocks: np.ndarray) -> np.ndarray:
    """The (..., 6, 6) matrices with blocks (..., 2, 3, 3) on x' and p', zero between."""
    b = np.asarray(blocks, dtype=float)
    out = np.zeros(b.shape[:-3] + (6, 6))
    out[..., _ROWS, _COLS] = b * _SIGNS
    return out


def covariance_blocks(cov: np.ndarray) -> np.ndarray:
    """V_x and V_p of three-mode covariances (..., 6, 6), as (..., 2, 3, 3).

    Raises
    ------
    ValueError
        If the matrices are not 6x6 or have a non-finite entry.
    NotPhaseCovariant
        If an x'p' entry exceeds PHASE_COVARIANCE_TOL times the largest entry
        of its matrix.
    """
    v = np.asarray(cov, dtype=float)
    if v.shape[-2:] != (6, 6):
        raise ValueError("expected 6x6 three-mode covariance matrices")
    if not np.isfinite(v).all():
        raise ValueError("covariance matrices must have finite entries")
    blocks = v[..., _ROWS, _COLS] * _SIGNS
    cross = np.abs(v - assemble_blocks(blocks)).max(axis=(-2, -1), initial=0.0)
    if np.any(cross > PHASE_COVARIANCE_TOL * np.abs(v).max(axis=(-2, -1), initial=0.0)):
        raise NotPhaseCovariant("covariance couples x' = (X_c, Y_q, Y_m) with "
                                "p' = (Y_c, -X_q, -X_m)")
    return blocks


def min_symplectic_eig(blocks: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Smallest symplectic eigenvalue of each block pair (N, 2, 3, 3) per sign row (k, 3).

    Returns (N, k): nu_min of V_x (+) V_p with T = diag(signs[i]), -1 at
    each partially transposed mode. The symplectic eigenvalues are the
    singular values of M = B^T T A for the Cholesky factors A, B of V_x and
    V_p, so nu_min = lambda_max(X X^T)^(-1/2) with X = M^-1 = A^-1 T B^-T.
    Each factor L = D (I + W), D its diagonal and W strictly lower, has the
    closed-form inverse L^-1 = (I - W + W^2) D^-1, as W^3 = 0. T scales the
    columns of A^-1 before the product, one factorisation serves every sign
    row, and one symmetric eigen-solve the whole (N, k, 3, 3) stack. Its
    largest eigenvalue has a small relative error, and so has nu_min.

    Raises
    ------
    NonPositiveInput
        If a block is not positive definite.
    """
    try:
        factors = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveInput("covariance block is not positive definite") from exc
    recip = 1.0 / factors.diagonal(0, -2, -1)
    strict = factors * (_STRICT * recip[..., :, None])
    inverse = ((_EYE - strict) + strict @ strict) * recip[..., None, :]
    x = (inverse[:, 0, None] * signs[:, None, :]) @ inverse[:, 1, None].swapaxes(-1, -2)
    return 1.0 / np.sqrt(np.linalg.eigvalsh(x @ x.swapaxes(-1, -2))[..., -1])


def check_physicality(cov: np.ndarray) -> tuple[bool, float]:
    """Whether a three-mode covariance is physical, plus its smallest symplectic eigenvalue.

    Physical means min symplectic eigenvalue >= 1/2 - PHYSICALITY_TOL,
    equivalent to V + i Omega / 2 >= 0.
    """
    nu_min = min_symplectic_eig(covariance_blocks(np.asarray(cov)[None]), _UNSIGNED).item()
    return nu_min >= VACUUM_VARIANCE - PHYSICALITY_TOL, nu_min
