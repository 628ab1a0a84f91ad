"""Dense real-matrix kernel shared by the reservoir, beamforming, and conceptor code.

This module owns every numeric tolerance used in the package; other modules
import these constants instead of defining their own.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RandomSource

# Tolerance policy (single source of truth).
PINV_RCOND = 1e-12            # singular-value cutoff relative to the largest
SPD_SYMMETRY_TOL = 1e-10      # solve_spd: max |a - a^T| allowed, relative to max(1, max |a|)
EIG_SYMMETRY_TOL = 1e-9       # sym_eig: the same slack
RESERVOIR_RADIUS_TOL = 1e-6   # spectral-radius targeting slack
RITZ_RESIDUAL_RTOL = 1e-13    # Arnoldi stops at a top Ritz pair residual of at most this |theta|
# Conceptor directions with eigenvalue s at most CONCEPTOR_S_CUT are dropped.  Each
# dropped direction lowers sum(s) by at most the cut, so a quota moves by at most the cut.
# Against a 1e-10 cut, 1e-6 halves the desk mobility ranks (median 139 -> 71), moves the
# desk and paper mobility quotas by at most 1.5e-7 and their recall by at most 7e-6 of
# its largest output, and leaves every content model bit for bit as it was.
CONCEPTOR_S_CUT = 1e-6
ZF_NULLING_TOL = 1e-9         # zero-forcing residual ||H F - I||
LINEAR_LOSS_RTOL = 1e-12      # linear-unit path loss and objective vs the dB route
POWER_SUM_RTOL = 1e-9         # a slot's per-user power sum vs its per-UAV sum, relative
POWER_SUM_ATOL = 1e-12        # ... and absolute, in W
CONSTANT_SIGNAL_RTOL = 1e-12  # nrmse: a variance at most this times the mean square is constant


# The spectral radius's size rule: a matrix whose core (what the peel leaves) has fewer rows
# than ARNOLDI_MIN_N goes to the dense eigvals, faster there on one BLAS thread: Arnoldi was
# faster in 6 of 32 draws of 140 rows and in 18 of 32 of 150 (densities 0.1 and 1).
ARNOLDI_MIN_N = 150
ARNOLDI_BASIS = 40            # Krylov vectors per restart cycle
ARNOLDI_KEPT = 12             # Ritz vectors a restart keeps, one more to keep a pair whole
ARNOLDI_RESTARTS = 100        # cycles before the dense eigvals takes over


class LinalgError(ValueError):
    """Raised on dimension mismatches or structurally invalid inputs."""


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise LinalgError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def _check_symmetric(a: np.ndarray, tol: float) -> None:
    """Raise LinalgError unless max |a - a^T| <= tol * max(1, max |a|).

    a - a^T is antisymmetric to the bit, so its largest entry is its largest
    magnitude. A NaN or infinite entry raises LinalgError too: no slack is
    defined for it. An empty matrix, the Gram of a rank-0 conceptor's factor, passes.
    """
    peak = float(np.abs(a).max(initial=0.0))
    if not np.isfinite(peak):
        raise LinalgError("matrix has a NaN or infinite entry")
    if not (a - a.T).max(initial=0.0) <= tol * max(1.0, peak):
        raise LinalgError("matrix is not symmetric")


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
    _check_symmetric(a, SPD_SYMMETRY_TOL)
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
    _check_symmetric(a, EIG_SYMMETRY_TOL)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def spectral_radius(a) -> float:
    """Largest eigenvalue magnitude of a (generally nonsymmetric) square matrix.

    The rows and columns that LAPACK's balancing would permute out are peeled
    first (``_peel``). A core of at least ARNOLDI_MIN_N rows goes to restarted
    Arnoldi (``_arnoldi_radius``); a smaller core, or one Arnoldi gives up on,
    to the dense ``np.linalg.eigvals`` of the whole matrix.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise LinalgError(f"matrix must be square, got {a.shape}")
    core, isolated = _peel(a)
    if core.shape[0] >= ARNOLDI_MIN_N:
        rho = _arnoldi_radius(core)
        if rho is not None:
            return max(rho, float(np.abs(isolated).max(initial=0.0)))
    return float(np.abs(np.linalg.eigvals(a)).max())


def _peel(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The core of a and the diagonal entries isolated around it.

    Balancing's permutation step: a row or column with no nonzero off-diagonal
    entry inside the remaining block makes the block triangular around it, so
    its diagonal entry is an eigenvalue and it can be taken off. Repeated until
    none is left, this turns a permuted triangular matrix into an empty core.
    """
    block = a != 0
    np.fill_diagonal(block, False)
    live = np.arange(a.shape[0])
    while live.size:
        keep = block.any(axis=0) & block.any(axis=1)
        if keep.all():
            break
        live, block = live[keep], block[np.ix_(keep, keep)]
    isolated = np.delete(np.diag(a), live)
    return (a if live.size == a.shape[0] else a[np.ix_(live, live)]), isolated


def _arnoldi_radius(a: np.ndarray) -> float | None:
    """Largest eigenvalue magnitude by thick-restart Arnoldi, or None to fall back.

    Krylov-Schur (Stewart, SIAM J. Matrix Anal. Appl. 23, 2001) in real
    arithmetic: ``a @ v[:m].T = v[:m].T @ h[:m] + outer(v[m], h[m])``, the
    basis kept orthonormal by classical Gram-Schmidt run twice. Each cycle
    takes the Ritz pairs from the small ``h[:m]`` and stops when the largest
    has a residual of at most RITZ_RESIDUAL_RTOL |theta|, estimated as
    |h[m] . y| and then checked against ``a`` itself. Otherwise it restarts
    from a real orthonormal basis of the ARNOLDI_KEPT largest Ritz vectors, a
    complex-conjugate pair kept whole. None when the Krylov space closes
    (``a`` has an invariant subspace the start vector does not leave), when
    the checked residual fails, or after ARNOLDI_RESTARTS cycles.
    """
    n, m = a.shape[0], ARNOLDI_BASIS
    v, h = np.empty((m + 1, n)), np.zeros((m + 1, m))
    start = np.random.default_rng(0).standard_normal(n)  # fixed, with no structure to share
    v[0] = start / np.linalg.norm(start)
    breakdown = RITZ_RESIDUAL_RTOL * np.linalg.norm(a)
    k = 0
    for _ in range(ARNOLDI_RESTARTS):
        for j in range(k, m):
            w = a @ v[j]
            c = v[:j + 1] @ w
            w -= c @ v[:j + 1]
            d = v[:j + 1] @ w
            w -= d @ v[:j + 1]
            beta = math.sqrt(w @ w)
            if beta <= breakdown:
                return None
            h[:j + 1, j], h[j + 1, j] = c + d, beta
            np.divide(w, beta, out=v[j + 1])
        theta, y = np.linalg.eig(h[:m])
        order = np.argsort(-np.abs(theta), kind="stable")
        top, y_top = theta[order[0]], y[:, order[0]]
        rtol = RITZ_RESIDUAL_RTOL * abs(top)
        if abs(h[m] @ y_top) <= rtol:
            x = v[:m].T @ np.stack((y_top.real, y_top.imag), axis=1)
            r = a @ x - x @ np.array([[top.real, top.imag], [-top.imag, top.real]])
            return float(abs(top)) if np.linalg.norm(r) <= rtol else None
        # eig lists a conjugate pair together, the positive imaginary part first
        k = ARNOLDI_KEPT + int(theta[order[ARNOLDI_KEPT - 1]].imag > 0)
        kept = order[:k]
        q = np.linalg.qr(np.where(theta[kept].imag < 0, y[:, kept].imag, y[:, kept].real))[0]
        v[:k], v[k] = q.T @ v[:m], v[m]
        s, b = q.T @ h[:m] @ q, h[m] @ q
        h[:] = 0.0
        h[:k, :k], h[k, :k] = s, b
    return None


def random_reservoir(n: int, density: float, target_radius: float,
                     rs: RandomSource) -> np.ndarray:
    """Sparse uniform random matrix rescaled to an exact spectral radius.

    Entries are uniform on [-1, 1] with roughly ``density`` fraction nonzero;
    the draw is measured and rescaled so the returned matrix hits
    ``target_radius`` within RESERVOIR_RADIUS_TOL. Below ARNOLDI_MIN_N the
    measure is the dense eigvals; above it, restarted Arnoldi, which agreed
    with eigvals to at most 2.7e-14 relative on the desk preset's 140 draws
    (N = 200, seed 0) and to 5.3e-15 and 1.1e-15 on the paper config's draws
    at N = 500 (seeds 0 and 99), so the radius lands within about 1e-13 of
    the target.
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
