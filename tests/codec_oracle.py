"""Transcription of ``codec.encode`` and ``codec.decode_center`` as they
found cells with numpy: ``np.floor``, a ``np.minimum``/``np.maximum``
clamp, ``np.ravel_multi_index`` and ``np.unravel_index``, with every input
checked by whole-array ``np.isfinite`` scans.  Kept independent of the
package's Python-integer cell arithmetic, which must match it bit for bit.
"""

import numpy as np


def _finite_vector(v):
    x = np.asarray(v, dtype=float).reshape(-1)
    if x.size == 0:
        raise ValueError("vector must be non-empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector must have finite entries")
    return x


def encode(state, x, n_levels):
    x = _finite_vector(x)
    if x.shape != state.center.shape:
        raise ValueError("state dimension mismatch")
    E = state.radius
    if float(np.max(np.abs(_finite_vector(x - state.center)))) > E:
        return 0
    if float(np.max(np.abs(x))) <= E / n_levels:
        return 1
    scaled = (x - (state.center - E)) * n_levels / (2.0 * E)
    idx = np.minimum(np.floor(scaled).astype(int), n_levels - 1)
    idx = np.maximum(idx, 0)
    return 2 + int(np.ravel_multi_index(tuple(idx), (n_levels,) * x.size))


def decode_center(state, symbol, n_levels):
    n_x = state.center.size
    if symbol == 0:
        raise ValueError("overflow symbol carries no cell center")
    if symbol == 1:
        return np.zeros(n_x)
    offset = symbol - 2
    if not 0 <= offset < n_levels**n_x:
        raise ValueError(f"symbol {symbol} out of range")
    idx = np.array(np.unravel_index(offset, (n_levels,) * n_x), dtype=float)
    return state.center + ((2.0 * idx + 1.0 - n_levels) / n_levels) * state.radius
