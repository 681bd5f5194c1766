"""Independent oracle helpers shared across the test modules.

Everything here is deliberately written from first principles (explicit
block arithmetic, direct eigensolves) rather than through the package, so
the tests cross-check rather than echo the implementation.
"""

from __future__ import annotations

import numpy as np

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
