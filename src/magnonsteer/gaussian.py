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
coefficients of the shifted Q_x, with no eigen-solve. A stack of N block
pairs is stored as one array (N, 2, ..., n, n), V_x before V_p; only
``assemble_blocks`` and ``covariance_blocks`` convert to and from 6x6. The
symplectic eigenvalues are the singular values of B^T T A, with A and B the
Cholesky factors of V_x and V_p and T = I; partially transposing mode k
flips the sign of its x' or p' quadrature, which puts -1 at position k of
the diagonal of T either way. No route here forms nu^2, whose rounding error
is far larger than nu's at the sub-vacuum states of the model.
"""

from __future__ import annotations

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

# Rows of x' and p' in the quadrature ordering, the signs of p', and S_i S_j of V_p = S V_x S
_ROWS = np.array([[0, 3, 5], [1, 2, 4]])[:, :, None]
_COLS = _ROWS.swapaxes(-1, -2)
_SIGN = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]])
_SIGNS = _SIGN[:, :, None] * _SIGN[:, None, :]
_MIRROR = np.outer([1.0, 1.0, -1.0], [1.0, 1.0, -1.0])
_EYE3 = np.eye(3).ravel()


def hurwitz_gate(drift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue real part of each drift matrix, and whether it is stable.

    Stable means safely damped: the largest real part lies below
    -STABILITY_TOL ||Q||_F, a margin relative to the Frobenius norm so the
    gate is scale-free. Takes one matrix or a stack (..., n, n).
    """
    q = np.asarray(drift, dtype=float)
    max_real = np.linalg.eigvals(q).real.max(axis=-1)
    return max_real, max_real < -STABILITY_TOL * np.linalg.norm(q, axis=(-2, -1))


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
    q = np.asarray(drift_x, dtype=float).reshape(-1, 9)
    with np.errstate(over="ignore", invalid="ignore"):
        shift = STABILITY_TOL * math.sqrt(2.0) * np.sqrt(np.square(q).sum(axis=1))
        entries = (q + shift[:, None] * _EYE3).T
        if len(q) == 1:
            return np.array([_routh_hurwitz(*entries[:, 0].tolist())])
        return _routh_hurwitz(*entries)


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
    UnstableDrift
        If ``hurwitz_gate`` finds the drift matrix not safely damped.
    SingularSystem
        If the linear solve is rank-deficient or fails the residual bound.
    """
    q = np.asarray(drift, dtype=float)
    d = np.asarray(diffusion, dtype=float)
    n = q.shape[0]
    if q.shape != (n, n) or d.shape != (n, n):
        raise ValueError("drift and diffusion must be square and equally sized")
    if not np.allclose(d, d.T, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(d).max())):
        raise ValueError("diffusion matrix must be symmetric")
    max_real, stable = hurwitz_gate(q)
    if not stable:
        raise UnstableDrift(float(max_real))
    with np.errstate(over="ignore", invalid="ignore"):
        cov, residual = solve_lyapunov_stack(q[None], d[None])
        accepted = residual_accepted(residual, np.linalg.norm(d))
    if not accepted[0]:
        raise SingularSystem("steady-state solve failed the residual bound")
    return cov[0]


def lyapunov_residual(drift: np.ndarray, cov: np.ndarray, diffusion: np.ndarray):
    """Frobenius norm of Q V + V Q^T + D, one per matrix of a stack (..., n, n)."""
    return np.linalg.norm(drift @ cov + cov @ drift.swapaxes(-1, -2) + diffusion,
                          axis=(-2, -1))


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

    Uses the Kronecker vectorisation (I (x) Q + Q (x) I) vec(V) = -vec(D),
    exact for the small dense systems handled here, in one solve for the
    whole stack. Returns the symmetrised covariances and their residuals
    ||Q V + V Q^T + D||_F; the callers judge them with ``residual_accepted``.

    Raises
    ------
    SingularSystem
        If the linear solve is rank-deficient.
    """
    q = np.asarray(drift, dtype=float)
    d = np.asarray(diffusion, dtype=float)
    count, n = q.shape[:2]
    eye = np.eye(n)
    # kron(I, Q) + kron(Q, I), entry [(i, a), (j, b)] = I_ij Q_ab + Q_ij I_ab
    coeff = (eye[None, :, None, :, None] * q[:, None, :, None, :]
             + q[:, :, None, :, None] * eye[None, None, :, None, :]).reshape(count, n * n, n * n)
    try:
        vec = np.linalg.solve(coeff, -d.reshape(count, n * n, 1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    cov = vec.reshape(count, n, n)
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    return cov, lyapunov_residual(q, cov, d)


def steady_state_blocks(system: np.ndarray):
    """Gate, solve and judge the steady states of x' blocks (N, 2, 3, 3).

    ``system`` holds each point's ``model.build_blocks``. ``block_gate``
    decides on Q_x what ``hurwitz_gate`` decides on the 6x6 drift. Drifts
    that pass have their x' block solved and V_p written as its mirror
    S V_x S; as r_p = r_x and D_p = D_x, the 6x6 residual is sqrt(2 r_x^2) and
    the 6x6 diffusion norm sqrt(2) ||D_x||_F, which ``residual_accepted``
    judges. Only the rejected points are assembled into 6x6 drifts, for
    ``hurwitz_gate`` to report their largest eigenvalue real part.

    Returns each point's largest drift eigenvalue real part (NaN where it
    was accepted), a list of each point's rejecting check ("gate",
    "residual" or None), and the block pairs (n, 2, 3, 3) and residuals (n,)
    of the accepted points, in order.

    Raises
    ------
    SingularSystem
        If the linear solve is rank-deficient.
    """
    gated = block_gate(system[:, 0])
    q, d = system[gated].swapaxes(0, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        cov, residual = solve_lyapunov_stack(q, d)
        residual = np.sqrt(2.0 * np.square(residual))
        passed = residual_accepted(residual, math.sqrt(2.0) * np.linalg.norm(d, axis=(-2, -1)))
    verdict = iter(passed.tolist())
    reason = [(None if next(verdict) else "residual") if ok else "gate"
              for ok in gated.tolist()]
    max_real = np.full(len(system), np.nan)
    rejected = np.flatnonzero([r is not None for r in reason])
    if len(rejected):
        max_real[rejected] = hurwitz_gate(assemble_blocks(mirror_pairs(system[rejected, 0])))[0]
    return max_real, reason, mirror_pairs(cov)[passed], residual[passed]


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


def symplectic_spectrum(blocks: np.ndarray, signs: np.ndarray | None = None) -> np.ndarray:
    """Symplectic eigenvalues of a stack of block pairs (N, 2, ..., n, n), descending.

    The singular values of B^T T A, with A and B the Cholesky factors of the
    V_x and V_p blocks and T = diag(signs); ``signs`` (..., n) holds -1 at
    each partially transposed mode and broadcasts against the stack. One
    factorisation and one singular-value call serve the whole stack.

    Raises
    ------
    NonPositiveInput
        If a block is not positive definite.
    """
    try:
        factors = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveInput("covariance block is not positive definite") from exc
    bt = factors[:, 1].swapaxes(-1, -2)
    if signs is not None:
        bt = bt * signs[..., None, :]
    return np.linalg.svd(bt @ factors[:, 0], compute_uv=False)


def check_physicality(cov: np.ndarray) -> tuple[bool, float]:
    """Whether a three-mode covariance is physical, plus its smallest symplectic eigenvalue.

    Physical means min symplectic eigenvalue >= 1/2 - PHYSICALITY_TOL,
    equivalent to V + i Omega / 2 >= 0.
    """
    nu_min = float(symplectic_spectrum(covariance_blocks(np.asarray(cov)[None]))[0, -1])
    return nu_min >= VACUUM_VARIANCE - PHYSICALITY_TOL, nu_min
