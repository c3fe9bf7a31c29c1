"""Dense real-matrix kernel used by the rest of the toolkit.

Everything here is measured in the vector infinity norm and its induced
matrix norm (max absolute row sum), which is what the radius-propagation
formulas are stated in.  Contracts, not methods, are the point: each
routine documents the accuracy it guarantees.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "as_matrix",
    "as_vector",
    "inf_norm_vec",
    "inf_norm_mat",
    "expm",
    "phi_integral",
    "max_norm_over_interval",
    "sym_eig_extremes",
    "dlyap",
    "is_schur_stable",
    "SCHUR_MARGIN",
]

# Spectral-radius margin guarding the Lyapunov series against marginal cases.
SCHUR_MARGIN = 1e-9

_SYM_TOL = 1e-10

# Grid points per block in _grid_norms: large enough to amortize the
# batched reductions, small enough that the stack stays near 150 kB at n_x = 6.
_GRID_BLOCK = 512


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array."""
    A = np.asarray(M, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D array")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} must have finite entries")
    return A


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array."""
    x = np.asarray(v, dtype=float).reshape(-1)
    if x.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must have finite entries")
    return x


def inf_norm_vec(v) -> float:
    """Max absolute entry of a vector."""
    return float(np.max(np.abs(as_vector(v))))


def inf_norm_mat(M) -> float:
    """Induced infinity norm: max absolute row sum."""
    return float(np.max(np.sum(np.abs(as_matrix(M)), axis=1)))


def _square(M, name: str) -> np.ndarray:
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def expm(M, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{Mt}.

    Relative accuracy in the infinity norm is expected at the 1e-12 level
    for the well-conditioned matrices this toolkit handles (Pade scaling
    and squaring underneath).
    """
    A = _square(M, "expm argument")
    return scipy.linalg.expm(A * float(t))


def _grid_norms(A: np.ndarray, D: np.ndarray | None, tau: float, n: int) -> np.ndarray:
    """Values of s -> ||e^{As} D|| (or ||e^{As}|| when D is None) on the
    uniform grid s_i = i*tau/n, i = 0..n.

    Powers of e^{Ah} are accumulated by repeated multiplication and
    re-anchored with a fresh exponential every 256 steps to keep roundoff
    drift far below the quadrature tolerances.

    The grid is evaluated in blocks of ``_GRID_BLOCK`` points: only the
    chain X_i = X_{i-1} e^{Ah} runs point by point, each product written
    into a preallocated stack, and the products with D, the absolute row
    sums and the row maxima are then taken once over the whole block.
    Every value is bitwise the one a point-by-point loop computes (the same
    products and the same reductions, only batched), which matters because
    the disturbance gain feeds the codec's radius and rounding differences
    grow with the plant.  The stack bounds the working memory at about
    ``_GRID_BLOCK`` matrices whatever n is.
    """
    h = tau / n
    T = scipy.linalg.expm(A * h)
    stack = np.empty((min(_GRID_BLOCK, n + 1),) + A.shape)
    rows = list(stack)
    out = np.empty(n + 1)
    X = np.eye(A.shape[0])
    for start in range(0, n + 1, _GRID_BLOCK):
        size = min(_GRID_BLOCK, n + 1 - start)
        for i, row in zip(range(start, start + size), rows):
            if i % 256:
                np.matmul(X, T, out=row)
            else:
                row[...] = scipy.linalg.expm(A * (i * h)) if i else X
            X = row
        Y = stack[:size] if D is None else stack[:size] @ D
        np.max(np.sum(np.abs(Y), axis=2), axis=1, out=out[start:start + size])
    return out


def phi_integral(A, D, tau_s: float) -> float:
    """Integral of ||e^{As} D|| over [0, tau_s].

    Composite Simpson with doubling refinement, stopping when two
    successive refinements agree to 1e-10 relative; a level whose sum is
    not finite ends the refinement with the ArithmeticError at once.
    """
    A = _square(A, "A")
    Dm = as_matrix(D, "D")
    if Dm.shape[0] != A.shape[0]:
        raise ValueError("D must have as many rows as A")
    if not tau_s > 0:
        raise ValueError("tau_s must be positive")
    prev = None
    n = 4
    # An overflowing sum ends in the ArithmeticError below; numpy's float
    # warnings would only repeat it on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        while n <= 1 << 17:
            f = _grid_norms(A, Dm, tau_s, n)
            h = tau_s / n
            val = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
            if not np.isfinite(val):
                break
            if prev is not None and abs(val - prev) <= 1e-10 * max(abs(val), 1e-30):
                return float(val)
            prev = val
            n *= 2
    raise ArithmeticError("phi_integral quadrature did not converge")


def max_norm_over_interval(M, tau_s: float) -> float:
    """max over s in [0, tau_s] of ||e^{Ms}||, by grid refinement.

    The grid is doubled until the observed maximum changes by less than
    1e-8 relative.
    """
    A = _square(M, "M")
    if not tau_s > 0:
        raise ValueError("tau_s must be positive")
    prev = None
    n = 16
    while n <= 1 << 15:
        cur = float(np.max(_grid_norms(A, None, tau_s, n)))
        if prev is not None and abs(cur - prev) <= 1e-8 * max(abs(cur), 1e-30):
            return cur
        prev = cur
        n *= 2
    raise ArithmeticError("max_norm_over_interval did not converge")


def sym_eig_extremes(M) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of a symmetric matrix."""
    A = _square(M, "M")
    if np.max(np.abs(A - A.T)) > _SYM_TOL:
        raise ValueError("matrix is not symmetric within 1e-10")
    w = np.linalg.eigvalsh((A + A.T) / 2.0)
    return float(w[0]), float(w[-1])


def is_schur_stable(S) -> bool:
    """True iff the spectral radius of S is below 1 - 1e-9."""
    A = _square(S, "S")
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    return rho < 1.0 - SCHUR_MARGIN


def dlyap(S, Q) -> np.ndarray:
    """Solve S^T P S - P = -Q for symmetric positive definite P.

    Uses the squared-term summation of the convergent series
    P = sum_k (S^T)^k Q S^k and verifies the residual against
    1e-10 * ||Q||.
    """
    A = _square(S, "S")
    Qm = _square(Q, "Q")
    if Qm.shape != A.shape:
        raise ValueError("S and Q must have the same shape")
    if not is_schur_stable(A):
        raise ValueError("dlyap requires spectral radius of S below 1")
    if np.max(np.abs(Qm - Qm.T)) > _SYM_TOL:
        raise ValueError("Q must be symmetric")
    Qm = (Qm + Qm.T) / 2.0
    if np.linalg.eigvalsh(Qm)[0] <= 0:
        raise ValueError("Q must be positive definite")

    P = Qm.copy()
    T = A.copy()
    q_norm = inf_norm_mat(Qm)
    for _ in range(128):
        term = T.T @ P @ T
        P = P + term
        if inf_norm_mat(term) <= 1e-16 * max(q_norm, inf_norm_mat(P)):
            break
        T = T @ T
    P = (P + P.T) / 2.0
    residual = inf_norm_mat(A.T @ P @ A - P + Qm)
    if residual > 1e-10 * q_norm:
        raise ArithmeticError(f"dlyap residual {residual:.3e} exceeds tolerance")
    return P
