"""Independent oracle helpers shared across the test modules.

Everything here is deliberately written from first principles (explicit
block arithmetic, direct eigensolves) rather than through the package, so
the tests cross-check rather than echo the implementation. The generic 6x6
helpers below (complex eigen-solve of i Omega V, partial transpose by sign
flips, Schur complements, the closed two-mode discriminant) are the check
on the package's block kernel, which relies on the phase-covariant split.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from magnonsteer.errors import NonPositiveInput, SingularBlock

ZERO_CLAMP = 1e-12
PAIRING_TOL = 1e-9
CONDITION_CUTOFF = 1e12

OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# symmetric 4x4 with sigma^2 < 4 det V, found by search; triggers the
# unphysical-input guard
UNPHYSICAL_4X4 = np.array([
    [1.899437, -0.959325, 1.018551, 0.653814],
    [-0.959325, 0.151665, -0.124648, -0.228466],
    [1.018551, -0.124648, 3.723302, 0.661407],
    [0.653814, -0.228466, 0.661407, 0.107169],
])


def omega(n_modes: int) -> np.ndarray:
    return np.kron(np.eye(n_modes), OMEGA_1)


def vacuum_cm(n_modes: int) -> np.ndarray:
    return 0.5 * np.eye(2 * n_modes)


def tmsv_cm(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum in the vacuum-1/2 convention."""
    c = np.cosh(2.0 * r) / 2.0
    s = np.sinh(2.0 * r) / 2.0
    z = np.diag([s, -s])
    return np.block([[c * np.eye(2), z], [z, c * np.eye(2)]])


def direct_symplectic_spectrum(cov: np.ndarray) -> np.ndarray:
    """Absolute eigenvalues of i Omega V, deduplicated into n values."""
    n = cov.shape[0] // 2
    mags = np.sort(np.abs(np.linalg.eigvals(1j * omega(n) @ cov)))
    return mags.reshape(n, 2).mean(axis=1)


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


def mp_symplectic_eigenvalues(vx, vp, signs=None) -> list:
    """Symplectic eigenvalues of the block pair V_x (+) V_p, T = diag(signs), ascending.

    The square roots of the eigenvalues of T V_x T V_p in 50-digit mpmath,
    where forming nu^2 is harmless. The blocks are n x n numpy arrays or
    mpmath matrices, read exactly; ``signs`` defaults to all ones (the
    state itself, no partial transpose).
    """
    with mpmath.workdps(50):
        vx, vp = mpmath.matrix(vx), mpmath.matrix(vp)
        flip = mpmath.diag([1] * vx.rows if signs is None else [int(sign) for sign in signs])
        product = flip * vx * flip * vp
        # mpmath.eig returns its eigenvectors too for a 1x1 matrix, whatever it is asked
        squares = ([product[0, 0]] if product.rows == 1
                   else mpmath.eig(product, left=False, right=False))
        return sorted(mpmath.sqrt(mpmath.re(e)) for e in squares)


def rotation_symplectic(phi: float) -> np.ndarray:
    return np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])


def squeeze_symplectic(r: float) -> np.ndarray:
    return np.diag([np.exp(r), np.exp(-r)])


def beamsplitter_symplectic(tau: float) -> np.ndarray:
    c, s = np.cos(tau), np.sin(tau)
    eye = np.eye(2)
    return np.block([[c * eye, s * eye], [-s * eye, c * eye]])


def random_symplectic(rng: np.random.Generator, n_modes: int,
                      layers: int = 3) -> np.ndarray:
    """Random symplectic built from rotations, squeezers and beam splitters."""
    total = np.eye(2 * n_modes)
    for _ in range(layers):
        local = np.eye(2 * n_modes)
        for m in range(n_modes):
            block = (rotation_symplectic(rng.uniform(0, 2 * np.pi))
                     @ squeeze_symplectic(rng.uniform(-0.8, 0.8)))
            local[2 * m:2 * m + 2, 2 * m:2 * m + 2] = block
        total = local @ total
        if n_modes > 1:
            a, b = rng.choice(n_modes, size=2, replace=False)
            mix = np.eye(2 * n_modes)
            bs = beamsplitter_symplectic(rng.uniform(0, 2 * np.pi))
            ia, ib = 2 * int(a), 2 * int(b)
            mix[ia:ia + 2, ia:ia + 2] = bs[:2, :2]
            mix[ia:ia + 2, ib:ib + 2] = bs[:2, 2:]
            mix[ib:ib + 2, ia:ia + 2] = bs[2:, :2]
            mix[ib:ib + 2, ib:ib + 2] = bs[2:, 2:]
            total = mix @ total
    return total


def random_physical_cm(rng: np.random.Generator, n_modes: int,
                       nu_max: float = 2.5) -> np.ndarray:
    """Random physical covariance: symplectic transform of a thermal state."""
    nus = rng.uniform(0.5, nu_max, size=n_modes)
    thermal = np.diag(np.repeat(nus, 2))
    s = random_symplectic(rng, n_modes)
    return s @ thermal @ s.T


def brute_conditional_cm(cov: np.ndarray, steering_modes, steered_modes) -> np.ndarray:
    """Schur complement by explicit inverse, no solver shortcuts."""
    ia = [q for m in steering_modes for q in (2 * m, 2 * m + 1)]
    ib = [q for m in steered_modes for q in (2 * m, 2 * m + 1)]
    x = cov[np.ix_(ia, ia)]
    y = cov[np.ix_(ib, ib)]
    z = cov[np.ix_(ia, ib)]
    return y - z.T @ np.linalg.inv(x) @ z


def brute_steering(cov: np.ndarray, steering_modes, steered_modes) -> float:
    """Gaussian steering from the brute-force conditional state."""
    cond = brute_conditional_cm(cov, steering_modes, steered_modes)
    total = 0.0
    for nu in direct_symplectic_spectrum(cond):
        if nu < 0.5:
            total -= np.log(2.0 * nu)
    return max(0.0, float(total))


# --- phase-covariant states --------------------------------------------------

# x' = (X_c, Y_q, Y_m) and p' = (Y_c, -X_q, -X_m) in the (X_c, Y_c, X_q, Y_q,
# X_m, Y_m) ordering
X_PRIME = (0, 3, 5)
P_PRIME = (1, 2, 4)
P_PRIME_SIGN = (1.0, -1.0, -1.0)


def phase_covariant_cm(vx: np.ndarray, vp: np.ndarray) -> np.ndarray:
    """The 6x6 covariance with blocks V_x on x' and V_p on p', entry by entry."""
    cov = np.zeros((6, 6))
    for i in range(3):
        for j in range(3):
            cov[X_PRIME[i], X_PRIME[j]] = vx[i, j]
            cov[P_PRIME[i], P_PRIME[j]] = P_PRIME_SIGN[i] * P_PRIME_SIGN[j] * vp[i, j]
    return cov


def random_phase_covariant_cm(rng: np.random.Generator, nu_max: float = 2.5) -> np.ndarray:
    """Random physical phase-covariant state: V_x = M N M^T, V_p = M^-T N M^-1.

    M = Q1 diag(e^s) Q2 with random orthogonal Q1, Q2 and s in [-1.2, 1.2];
    N is diagonal with entries in [1/2, nu_max], the symplectic eigenvalues.
    """
    q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    m = q1 @ np.diag(np.exp(rng.uniform(-1.2, 1.2, size=3))) @ q2
    n = np.diag(rng.uniform(0.5, nu_max, size=3))
    m_inv = np.linalg.inv(m)
    return phase_covariant_cm(m @ n @ m.T, m_inv.T @ n @ m_inv)


def tmsv_with_spectator(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum of the first two modes, vacuum third mode.

    Correlated in X_c Y_q and Y_c X_q, a local phase rotation of the
    textbook state, so that it is phase-covariant.
    """
    c = np.cosh(2.0 * r) / 2.0
    s = np.sinh(2.0 * r) / 2.0
    return phase_covariant_cm(np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 0.5]]),
                              np.array([[c, -s, 0.0], [-s, c, 0.0], [0.0, 0.0, 0.5]]))


# --- generic 6x6 helpers -------------------------------------------------------


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


def quadrature_indices(modes) -> list[int]:
    """Row/column indices of the (X, Y) pairs for the given mode indices."""
    return [q for m in modes for q in (2 * m, 2 * m + 1)]


def _check_modes(modes, n_modes: int) -> None:
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValueError("repeated mode index")
    for m in modes:
        if not 0 <= m < n_modes:
            raise ValueError(f"mode index {m} out of range for {n_modes} modes")


def symplectic_eigenvalues(cov: np.ndarray, check_positive: bool = True) -> np.ndarray:
    """Symplectic spectrum of a 2n x 2n symmetric matrix, ascending.

    The absolute values of the eigenvalues of i Omega V, which come in +/-
    pairs; each pair is averaged. With ``check_positive=False`` the input
    may be an unphysical partial-transpose matrix.
    """
    v = np.asarray(cov, dtype=float)
    n = v.shape[-1] // 2
    if check_positive:
        try:
            np.linalg.cholesky(v)
        except np.linalg.LinAlgError as exc:
            raise NonPositiveInput("matrix is not positive definite") from exc
    mags = np.sort(np.abs(np.linalg.eigvals(1j * omega(n) @ v)))
    pairs = mags.reshape(n, 2)
    if np.any(pairs[:, 1] - pairs[:, 0] > PAIRING_TOL * np.maximum(1.0, pairs[:, 1])):
        raise ValueError("failed to pair +/- symplectic eigenvalues")
    return np.sort(pairs.mean(axis=1))


def partial_transpose(cov: np.ndarray, modes) -> np.ndarray:
    """Sign-flip the Y quadrature of each listed mode: returns P V P."""
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
    _check_modes(modes, v.shape[0] // 2)
    idx = quadrature_indices(modes)
    return v[np.ix_(idx, idx)]


def schur_complement_steered(cov: np.ndarray, split: Bipartition) -> np.ndarray:
    """Conditional covariance Y - Z^T X^-1 Z of party_b after measuring party_a.

    Raises SingularBlock if the party_a block, scaled to unit diagonal, has
    condition number above CONDITION_CUTOFF: a party is judged by the
    correlation of its quadratures, not by their scale, so squeezing a mode
    along its quadratures never changes the verdict.
    """
    v = np.asarray(cov, dtype=float)
    _check_modes(split.party_a + split.party_b, v.shape[0] // 2)
    ia = quadrature_indices(split.party_a)
    ib = quadrature_indices(split.party_b)
    x, y, z = v[np.ix_(ia, ia)], v[np.ix_(ib, ib)], v[np.ix_(ia, ib)]
    scale = 1.0 / np.sqrt(np.diag(x))
    if np.linalg.cond(scale[:, None] * x * scale) > CONDITION_CUTOFF:
        raise SingularBlock("steering-party block is numerically singular")
    comp = y - z.T @ np.linalg.solve(x, z)
    return 0.5 * (comp + comp.T)


def _clamp(value: float) -> float:
    return 0.0 if value < ZERO_CLAMP else float(value)


def log_negativity_2mode(cov4: np.ndarray) -> float:
    """Two-mode logarithmic negativity from the closed discriminant.

    max[0, -ln 2 theta] with theta = sqrt((sigma - sqrt(sigma^2 - 4 det V)) / 2)
    and sigma = det X + det Y - 2 det Z. Raises ValueError if the
    discriminant is negative beyond rounding (an unphysical input).
    """
    v = np.asarray(cov4, dtype=float)
    if v.shape != (4, 4):
        raise ValueError("expected a 4x4 two-mode covariance matrix")
    sigma = (np.linalg.det(v[:2, :2]) + np.linalg.det(v[2:, 2:])
             - 2.0 * np.linalg.det(v[:2, 2:]))
    disc = sigma**2 - 4.0 * np.linalg.det(v)
    if disc < -1e-10 * max(1.0, sigma**2):
        raise ValueError(f"sigma^2 - 4 det V = {disc:.3e} < 0")
    theta = np.sqrt(max((sigma - np.sqrt(max(disc, 0.0))) / 2.0, 0.0))
    if theta <= 0.0:
        raise ValueError("smallest symplectic eigenvalue collapsed to zero")
    return _clamp(-np.log(2.0 * theta))


def log_negativity_2mode_pt(cov4: np.ndarray) -> float:
    """The same quantity from the partial-transpose symplectic spectrum."""
    nu = symplectic_eigenvalues(partial_transpose(cov4, [0]), check_positive=False)
    return _clamp(-np.log(2.0 * nu[0]))


def log_negativity_1v2(cov6: np.ndarray, pivot: int) -> float:
    """One-versus-two negativity: the pivot mode partially transposed."""
    v = np.asarray(cov6, dtype=float)
    if v.shape != (6, 6):
        raise ValueError("expected a 6x6 three-mode covariance matrix")
    nu = symplectic_eigenvalues(partial_transpose(v, [pivot]), check_positive=False)
    return _clamp(-np.log(2.0 * nu[0]))


def gaussian_steering(cov: np.ndarray, split: Bipartition) -> float:
    """max[0, -sum ln 2 nu_j] over the sub-vacuum symplectic eigenvalues of
    the steered party's conditional state."""
    nu = symplectic_eigenvalues(schur_complement_steered(cov, split), check_positive=False)
    return _clamp(-sum(np.log(2.0 * x) for x in nu if x < 0.5))
