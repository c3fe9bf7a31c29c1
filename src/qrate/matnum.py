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
    "is_positive_definite",
    "SCHUR_MARGIN",
]

# Spectral-radius margin guarding the Lyapunov series against marginal cases.
SCHUR_MARGIN = 1e-9

_SYM_TOL = 1e-10

# _grid_norms restarts its chain of powers from a fresh exponential every
# _GRID_ANCHOR grid points.
_GRID_ANCHOR = 256
# Matrices _grid_norms holds at once: enough steps of its sub-chains per block
# to amortize the batched reductions, few enough that the stack stays near
# 150 kB at n_x = 6.  A level with more sub-chains than this holds one step of
# each, one matrix per sub-chain.
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
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must have finite entries")
    return x


def inf_norm_vec(v) -> float:
    """Max absolute entry of a vector."""
    return float(np.abs(as_vector(v)).max())


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


def _grid_norms(A: np.ndarray, D: np.ndarray | None, tau: float, n: int,
                exps: dict | None = None) -> np.ndarray:
    """Values of s -> ||e^{As} D|| (or ||e^{As}|| when D is None) on the
    uniform grid s_i = i*tau/n, i = 0..n, for n a power of two from 4 to
    2^17 (the grids of :func:`_refine`).

    Powers of e^{Ah} are accumulated by repeated multiplication and
    re-anchored with a fresh exponential every ``_GRID_ANCHOR`` steps to keep
    roundoff drift far below the quadrature tolerances.  For n below
    ``_GRID_ANCHOR`` the grid is one chain of n + 1 points.  Otherwise it is
    n / _GRID_ANCHOR sub-chains of a = _GRID_ANCHOR points each, X_{aj}
    being the exponential (the identity for j = 0) and X_{aj+r} =
    X_{aj+r-1} e^{Ah} for r = 1..a-1, and the last point X_n is the anchor
    e^{A tau} alone.

    All anchors are computed first; then step r advances every sub-chain
    with one batched product.  The steps run in blocks of as many as fit in
    ``_GRID_BLOCK`` matrices (at least one), and the products with D, the
    absolute row sums and the row maxima are taken once per block.  Every
    value is bitwise the one a point-by-point loop computes (the same
    products and the same reductions, only batched), which matters because
    the disturbance gain feeds the codec's radius and rounding differences
    grow with the plant.  Working memory stays at about
    max(_GRID_BLOCK, n / _GRID_ANCHOR) matrices besides the n + 1 values,
    and ``exps`` grows by at most n / _GRID_ANCHOR + 1.

    ``exps`` maps a time t to e^{At}: the step e^{Ah} and the anchors are
    taken from it where it holds their time and added to it otherwise, so
    the levels of one refinement share them (see :func:`phi_integral`).
    A hit has the same time float, hence the same product A t and the same
    exponential: the values do not depend on what ``exps`` holds.
    """
    exps = {} if exps is None else exps

    def exp_at(t):
        if t not in exps:
            exps[t] = scipy.linalg.expm(A * t)
        return exps[t]

    a = _GRID_ANCHOR
    h = tau / n
    T = exp_at(h)
    n_sub = max(1, n // a)
    steps = min(a, n + 1)
    R = max(1, min(steps, _GRID_BLOCK // n_sub))
    stack = np.empty((R, n_sub) + A.shape)
    stack[0, 0] = np.eye(A.shape[0])
    for j in range(1, n_sub):
        stack[0, j] = exp_at(j * a * h)
    out = np.empty(n + 1)
    grid = out[:n_sub * steps].reshape(n_sub, steps)
    for r0 in range(0, steps, R):
        r1 = min(r0 + R, steps)
        # with R = 1 the product overwrites its input, which numpy buffers
        for r in range(max(r0, 1), r1):
            np.matmul(stack[(r - 1) % R], T, out=stack[r % R])
        _norm_maxima(stack[:r1 - r0], D, grid[:, r0:r1].T)
    if n >= a:
        _norm_maxima(exp_at(n * h)[None], D, out[n:])
    return out


def _norm_maxima(X: np.ndarray, D: np.ndarray | None, out: np.ndarray) -> None:
    """out = induced infinity norm of each matrix X[...] @ D (or X[...])."""
    Y = X if D is None else X @ D
    np.max(np.sum(np.abs(Y), axis=-1), axis=-1, out=out)


def _simpson(f: np.ndarray, h: float) -> float:
    """Composite Simpson sum of the grid values f spaced h apart."""
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


def _refine(A, D, tau: float, reduce, n: int, cap: int, rtol: float, name: str) -> float:
    """Doubling refinement of ``reduce(_grid_norms(A, D, tau, n), tau / n)``
    from n up to ``cap``, stopping when two successive levels agree to
    ``rtol`` relative.

    A level whose value is not finite ends the refinement with the
    ArithmeticError at once, as does reaching ``cap``.  The levels share
    one ``exps`` map (see ``_grid_norms``), so each exponential is taken
    once, and they have many times in common: n is a power of two, so
    h = tau/n halves exactly from one level to the next.  Level 2n's even
    anchors thus have bitwise the times of level n's anchors, and the step
    of a level n <= N / _GRID_ANCHOR the time of one of level N's anchors.
    """
    prev = None
    exps: dict = {}
    # An overflowing level ends in the ArithmeticError below; numpy's float
    # warnings would only repeat it on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        while n <= cap:
            val = reduce(_grid_norms(A, D, tau, n, exps), tau / n)
            if not np.isfinite(val):
                break
            if prev is not None and abs(val - prev) <= rtol * max(abs(val), 1e-30):
                return float(val)
            prev = val
            n *= 2
    raise ArithmeticError(f"{name} did not converge")


def phi_integral(A, D, tau_s: float) -> float:
    """Integral of ||e^{As} D|| over [0, tau_s].

    Composite Simpson with doubling refinement (:func:`_refine`) from 4 to
    2^17 intervals, stopping when two successive refinements agree to 1e-10
    relative.
    """
    A = _square(A, "A")
    Dm = as_matrix(D, "D")
    if Dm.shape[0] != A.shape[0]:
        raise ValueError("D must have as many rows as A")
    if not tau_s > 0:
        raise ValueError("tau_s must be positive")
    return _refine(A, Dm, tau_s, _simpson, 4, 1 << 17, 1e-10, "phi_integral quadrature")


def max_norm_over_interval(M, tau_s: float) -> float:
    """max over s in [0, tau_s] of ||e^{Ms}||, by grid refinement.

    The grid is doubled (:func:`_refine`) from 16 to 2^15 intervals until the
    observed maximum changes by less than 1e-8 relative.
    """
    A = _square(M, "M")
    if not tau_s > 0:
        raise ValueError("tau_s must be positive")
    return _refine(A, None, tau_s, lambda f, _: f.max(), 16, 1 << 15, 1e-8, "max_norm_over_interval")


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


def is_positive_definite(M) -> bool:
    """True iff the symmetric M has a Cholesky factor: unlike the sign of its
    smallest computed eigenvalue, that does not depend on how M is scaled."""
    try:
        return np.linalg.cholesky(M) is not None
    except np.linalg.LinAlgError:
        return False


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
    if not is_positive_definite(Qm):
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
