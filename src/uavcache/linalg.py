"""Dense real-matrix kernel shared by the reservoir, beamforming, and conceptor code.

This module owns every numeric tolerance used in the package; other modules
import these constants instead of defining their own.
"""

from __future__ import annotations

import numpy as np

from .config import RandomSource

# Tolerance policy (single source of truth).
SPD_RESIDUAL_RTOL = 1e-9      # relative residual accepted from solve_spd
PINV_PENROSE_TOL = 1e-9       # Moore-Penrose identity slack
PINV_RCOND = 1e-12            # singular-value cutoff relative to the largest
EIG_RECONSTRUCT_TOL = 1e-9    # symmetric eigendecomposition reconstruction slack
RESERVOIR_RADIUS_TOL = 1e-6   # spectral-radius targeting slack
SOLVE_AGREEMENT_TOL = 1e-8    # solve_spd vs pinv-based solve agreement
RIDGE_FORM_TOL = 1e-10        # solve_ridge's T x T form vs the N x N one, O(1) data, a >= 1e-2
CONCEPTOR_S_CUT = 1e-10       # conceptor directions with eigenvalue s at most this are dropped
ALGEBRA_TOL = 1e-12           # exact-algebra identities (involution, commutativity)
ZF_NULLING_TOL = 1e-9         # zero-forcing residual ||H F - I||
LINEAR_LOSS_RTOL = 1e-12      # linear-unit path loss and objective vs the dB route


class LinalgError(ValueError):
    """Raised on dimension mismatches or structurally invalid inputs."""


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise LinalgError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def solve_spd(a, b) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a.

    Raises LinalgError unless a is symmetric and its Cholesky factorization
    succeeds.
    """
    a, b = _as_matrix(a), np.asarray(b, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise LinalgError(f"matrix must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise LinalgError(f"dimension mismatch: {a.shape} vs rhs {b.shape}")
    if not np.allclose(a, a.T, rtol=0, atol=1e-10 * max(1.0, float(np.abs(a).max()))):
        raise LinalgError("matrix is not symmetric")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise LinalgError("matrix is not positive definite") from exc
    # The factor only certifies definiteness: numpy has no triangular solve,
    # so solving with the factor would cost two LU factorizations, not one.
    return np.linalg.solve(a, b)


def solve_ridge(x, a: float, b) -> np.ndarray:
    """(x x^T + a I)^-1 x b for an (N, T) matrix x, a > 0 and b with T rows.

    Solved in the smaller of N and T: when T < N, through the push-through
    identity (x x^T + a I)^-1 x = x (x^T x + a I)^-1, a T x T SPD system.
    """
    x, b = _as_matrix(x), np.asarray(b, dtype=float)
    n, t = x.shape
    if b.shape[0] != t:
        raise LinalgError(f"dimension mismatch: {x.shape} vs rhs {b.shape}")
    if t < n:
        return x @ solve_spd(x.T @ x + a * np.eye(t), b)
    return solve_spd(x @ x.T + a * np.eye(n), x @ b)


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with relative singular-value cutoff."""
    a = _as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    cutoff = PINV_RCOND * s[0]
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T


def sym_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix; eigenvalues sorted descending."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise LinalgError(f"matrix must be square, got {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if not np.allclose(a, a.T, rtol=0, atol=1e-9 * scale):
        raise LinalgError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def spectral_radius(a) -> float:
    """Largest eigenvalue magnitude of a (generally nonsymmetric) matrix."""
    a = _as_matrix(a)
    return float(np.abs(np.linalg.eigvals(a)).max())


def random_reservoir(n: int, density: float, target_radius: float,
                     rs: RandomSource) -> np.ndarray:
    """Sparse uniform random matrix rescaled to an exact spectral radius.

    Entries are uniform on [-1, 1] with roughly ``density`` fraction nonzero;
    the draw is measured and rescaled so the returned matrix hits
    ``target_radius`` within RESERVOIR_RADIUS_TOL.
    """
    if not (0.0 < density <= 1.0):
        raise LinalgError(f"density must lie in (0, 1], got {density}")
    if not (0.0 < target_radius < 1.0):
        raise LinalgError(f"target spectral radius must lie in (0, 1), got {target_radius}")
    rng = rs.generator()
    for _ in range(8):  # redraws before a zero spectral radius is an error
        mask = rng.random((n, n)) < density
        w = np.where(mask, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
        rho = spectral_radius(w)
        if rho > 0.0:
            return w * (target_radius / rho)
    raise LinalgError("degenerate reservoir draw: spectral radius stayed zero")
