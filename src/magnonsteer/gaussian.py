"""Symplectic linear algebra for Gaussian states in the vacuum-1/2 convention.

Quadratures are ordered (X_1, Y_1, X_2, Y_2, ...) with X = (a + a^dag)/sqrt(2),
so every physical covariance matrix has symplectic eigenvalues >= 1/2. All
matrices are dense row-major 2n x 2n arrays of 64-bit floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonPositiveInput, SingularBlock, SingularSystem, UnstableDrift

VACUUM_VARIANCE = 0.5

PHYSICALITY_TOL = 1e-10
LYAPUNOV_RESIDUAL_TOL = 1e-10
PAIRING_TOL = 1e-9
CONDITION_CUTOFF = 1e12

# Stability margin relative to ||Q||_F, scale-free across rad/s magnitudes
STABILITY_TOL = 1e-9


@lru_cache(maxsize=None)
def _cached_symplectic_form(n_modes: int) -> np.ndarray:
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.setflags(write=False)
    return omega


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, a direct sum of [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return _cached_symplectic_form(n_modes).copy()


@dataclass(frozen=True)
class Bipartition:
    """An ordered split of mode indices into a steering and a steered party."""

    party_a: tuple[int, ...]
    party_b: tuple[int, ...]

    def __post_init__(self):
        a, b = tuple(self.party_a), tuple(self.party_b)
        object.__setattr__(self, "party_a", a)
        object.__setattr__(self, "party_b", b)
        if not a or not b:
            raise ValueError("both parties must be non-empty")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValueError("repeated mode index within a party")
        if set(a) & set(b):
            raise ValueError("parties must be disjoint")
        if any(i < 0 for i in a + b):
            raise ValueError("mode indices must be non-negative")

    def swapped(self) -> "Bipartition":
        return Bipartition(self.party_b, self.party_a)


@dataclass(frozen=True)
class CovarianceMatrix:
    """A labelled 2n x 2n covariance matrix of quadrature second moments."""

    matrix: np.ndarray
    mode_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError("covariance matrix must be square with even size")
        labels = tuple(self.mode_labels) or tuple(
            f"m{i}" for i in range(m.shape[0] // 2)
        )
        if len(labels) != m.shape[0] // 2:
            raise ValueError("one label per mode required")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "mode_labels", labels)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def mode_index(self, label: str) -> int:
        return self.mode_labels.index(label)

    def submatrix(self, labels: tuple[str, ...]) -> "CovarianceMatrix":
        modes = [self.mode_index(lbl) for lbl in labels]
        return CovarianceMatrix(extract_submatrix(self.matrix, modes), tuple(labels))


def quadrature_indices(modes) -> list[int]:
    """Row/column indices of the (X, Y) pairs for the given mode indices."""
    return [q for m in modes for q in (2 * m, 2 * m + 1)]


def hurwitz_gate(drift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue real part of each drift matrix, and whether it is stable.

    Stable means safely damped: the largest real part lies below
    -STABILITY_TOL ||Q||_F, a margin relative to the Frobenius norm so the
    gate is scale-free. Takes one matrix or a stack (..., n, n).
    """
    q = np.asarray(drift, dtype=float)
    max_real = np.linalg.eigvals(q).real.max(axis=-1)
    return max_real, max_real < -STABILITY_TOL * np.linalg.norm(q, axis=(-2, -1))


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
    cov, _ = solve_lyapunov_stack(q[None], d[None])
    return cov[0]


def lyapunov_residual(drift: np.ndarray, cov: np.ndarray, diffusion: np.ndarray):
    """Frobenius norm of Q V + V Q^T + D, one per matrix of a stack (..., n, n)."""
    return np.linalg.norm(drift @ cov + cov @ drift.swapaxes(-1, -2) + diffusion,
                          axis=(-2, -1))


def solve_lyapunov_stack(drift: np.ndarray, diffusion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve Q V + V Q^T = -D for each of (N, n, n) drifts already known to be stable.

    Uses the Kronecker vectorisation (I (x) Q + Q (x) I) vec(V) = -vec(D),
    exact for the small dense systems handled here, in one solve for the
    whole stack. Each output is symmetrised and its residual checked against
    LYAPUNOV_RESIDUAL_TOL max(1, ||D||_F). Returns the covariances and their
    residuals ||Q V + V Q^T + D||_F.

    Raises
    ------
    SingularSystem
        If the linear solve is rank-deficient or any matrix fails the
        residual bound.
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

    residual = lyapunov_residual(q, cov, d)
    scale = np.maximum(1.0, np.linalg.norm(d, axis=(-2, -1)))
    if np.any(residual > LYAPUNOV_RESIDUAL_TOL * scale):
        raise SingularSystem("steady-state solve failed the residual bound")
    return cov, residual


def symplectic_eigenvalues(cov: np.ndarray, check_positive: bool = True) -> np.ndarray:
    """Symplectic spectrum of a 2n x 2n symmetric matrix, ascending.

    Computed as the absolute values of the eigenvalues of i Omega V, which
    come in +/- pairs; each pair is averaged. With ``check_positive=False``
    the input may be an unphysical partial-transpose matrix. A stack of
    matrices (..., 2n, 2n) gives one spectrum per matrix in one eigen-solve.
    """
    v = np.asarray(cov, dtype=float)
    n = v.shape[-1] // 2
    if check_positive:
        try:
            np.linalg.cholesky(v)
        except np.linalg.LinAlgError as exc:
            raise NonPositiveInput("matrix is not positive definite") from exc
    eigs = np.linalg.eigvals(1j * _cached_symplectic_form(n) @ v)
    mags = np.sort(np.abs(eigs), axis=-1)
    pairs = mags.reshape(mags.shape[:-1] + (n, 2))
    gaps = pairs[..., 1] - pairs[..., 0]
    if np.any(gaps > PAIRING_TOL * np.maximum(1.0, pairs[..., 1])):
        raise ValueError("failed to pair +/- symplectic eigenvalues")
    return np.sort(0.5 * (pairs[..., 0] + pairs[..., 1]), axis=-1)


def partial_transpose(cov: np.ndarray, modes) -> np.ndarray:
    """Sign-flip the Y quadrature of each listed mode: returns P V P.

    The result is covariance-shaped but may be unphysical; that is the point
    of the positivity-under-partial-transpose test.
    """
    v = np.asarray(cov, dtype=float)
    n = v.shape[-1] // 2
    _check_modes(modes, n)
    flip = np.ones(2 * n)
    for m in modes:
        flip[2 * m + 1] = -1.0
    return flip[:, None] * v * flip[None, :]


def extract_submatrix(cov: np.ndarray, modes) -> np.ndarray:
    """Rows and columns of the selected quadrature pairs, order preserved."""
    v = np.asarray(cov, dtype=float)
    n = v.shape[0] // 2
    _check_modes(modes, n)
    idx = quadrature_indices(modes)
    return v[np.ix_(idx, idx)]


def schur_complement_steered(cov: np.ndarray, split: Bipartition) -> np.ndarray:
    """Conditional covariance of party_b after a Gaussian measurement on party_a.

    Returns Y - Z^T X^-1 Z where X, Y, Z are the party_a, party_b and cross
    blocks of the covariance matrix. A stack (..., 2n, 2n) gives one
    conditional state per matrix, with one condition check and one solve.

    Raises
    ------
    SingularBlock
        If a party_a block has condition number above CONDITION_CUTOFF.
    """
    v = np.asarray(cov, dtype=float)
    n = v.shape[-1] // 2
    _check_modes(split.party_a + split.party_b, n)
    ia = np.array(quadrature_indices(split.party_a))
    ib = np.array(quadrature_indices(split.party_b))
    x = v[..., ia[:, None], ia]
    y = v[..., ib[:, None], ib]
    z = v[..., ia[:, None], ib]
    if np.any(np.linalg.cond(x) > CONDITION_CUTOFF):
        raise SingularBlock("steering-party block is numerically singular")
    comp = y - z.swapaxes(-1, -2) @ np.linalg.solve(x, z)
    return 0.5 * (comp + comp.swapaxes(-1, -2))


def check_physicality(cov: np.ndarray) -> tuple[bool, float]:
    """Whether the matrix is a physical state, plus its smallest symplectic eigenvalue.

    Physical means min symplectic eigenvalue >= 1/2 - PHYSICALITY_TOL,
    equivalent to V + i Omega / 2 >= 0.
    """
    nu_min = float(symplectic_eigenvalues(cov, check_positive=False)[0])
    return nu_min >= VACUUM_VARIANCE - PHYSICALITY_TOL, nu_min


def _check_modes(modes, n_modes: int) -> None:
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValueError("repeated mode index")
    for m in modes:
        if not 0 <= m < n_modes:
            raise ValueError(f"mode index {m} out of range for {n_modes} modes")
