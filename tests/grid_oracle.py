"""Point-by-point transcription of ``matnum._grid_norms``, kept independent
of the package's blocked implementation.

Each grid point makes its own chain product, its own ``X @ D`` and its own
row-sum reduction.  The package's blocked version must return the same
array to the bit.
"""

import numpy as np
import scipy.linalg


def grid_norms(A, D, tau, n):
    """Values of s -> ||e^{As} D|| (or ||e^{As}|| when D is None) on the
    uniform grid s_i = i*tau/n, i = 0..n."""
    h = tau / n
    T = scipy.linalg.expm(A * h)
    X = np.eye(A.shape[0])
    out = np.empty(n + 1)
    for i in range(n + 1):
        if i:
            X = scipy.linalg.expm(A * (i * h)) if i % 256 == 0 else X @ T
        Y = X if D is None else X @ D
        out[i] = np.max(np.sum(np.abs(Y), axis=1))
    return out
