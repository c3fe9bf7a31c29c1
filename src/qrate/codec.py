"""Encoder/decoder pair of the quantized feedback protocol.

The :class:`CodecState` after a sample is a function of the symbols exchanged
so far, so the sensor-side encoder and the controller-side decoder hold the
same state without further communication, and a simulation keeps one copy
for both.  Symbols are plain integers:

    0                 overflow: the sampled state is outside the range
    1                 near-origin cell (decoded center is the origin)
    2 .. n^d + 1      row-major index of the hypercube cell containing x
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .design import DerivedConstants, DesignParams

__all__ = [
    "Stage",
    "CodecState",
    "OVERFLOW",
    "NEAR_ORIGIN",
    "symbol_count",
    "initial_state",
    "encode",
    "decode_center",
    "advance",
    "controller_input",
    "quad_value",
]

OVERFLOW = 0
NEAR_ORIGIN = 1


class Stage(Enum):
    SEARCHING = 0
    STABILIZING = 1


@dataclass(frozen=True, eq=False)
class CodecState:
    """Shared quantizer bookkeeping at one sample index.

    ``stage`` is the stage decided at the most recently processed sample
    (None before the first symbol).  ``radius_prev`` keeps the previous
    radius because the escape-adjusted update needs it.
    """

    center: np.ndarray
    radius: float
    radius_prev: float | None = None
    stage: Stage | None = None

    def __post_init__(self):
        if not 0 < self.radius < math.inf:  # NaN too
            raise ValueError("radius must stay positive and finite")


def symbol_count(n_levels: int, n_x: int) -> int:
    """Size of the symbol alphabet, including overflow and near-origin."""
    return n_levels**n_x + 2


def initial_state(radius0: float, n_x: int) -> CodecState:
    """State both endpoints start from: center at the origin."""
    return CodecState(center=np.zeros(n_x), radius=float(radius0))


def encode(state: CodecState, x, n_levels: int) -> int:
    """Map a sampled state to a symbol.

    Visibility is tested first, then the near-origin cell; otherwise the
    hypercube is split into n_levels half-open cells per dimension (the
    upper face is clamped into the last cell).  An empty or wrong-size
    sample fails the shape check, and a non-finite sample or center the
    deviation check.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != state.center.shape:
        raise ValueError("state dimension mismatch")
    E = state.radius
    # Python floats: |x - c| is non-finite wherever x or c is, and no
    # numpy warning is issued for inf - inf on the way.
    xs, cs = x.tolist(), state.center.tolist()
    deviations = [abs(xi - ci) for xi, ci in zip(xs, cs)]
    if not all(map(math.isfinite, deviations)):
        raise ValueError("vector must have finite entries")
    if not deviations:  # an empty center: numpy's message for a max over no entries
        raise ValueError("zero-size array to reduction operation maximum which has no identity")
    if max(deviations) > E:
        return OVERFLOW
    if max(map(abs, xs)) <= E / n_levels:
        return NEAR_ORIGIN
    offset = 0  # row-major, each axis's cell clamped into range
    for xi, ci in zip(xs, cs):
        cell = math.floor((xi - (ci - E)) * n_levels / (2.0 * E))
        offset = offset * n_levels + min(max(cell, 0), n_levels - 1)
    return 2 + offset


def decode_center(state: CodecState, symbol: int, n_levels: int) -> np.ndarray:
    """Cell center for a visible symbol; the near-origin cell maps to 0."""
    n_x = state.center.size
    if symbol == OVERFLOW:
        raise ValueError("overflow symbol carries no cell center")
    if symbol == NEAR_ORIGIN:
        return np.zeros(n_x)
    offset = symbol - 2
    if not 0 <= offset < n_levels**n_x:
        raise ValueError(f"symbol {symbol} out of range")
    # (2i + 1 - n)/n per row-major digit i of the offset, last axis first; it
    # is exact for the extreme cells, so the decoded center meets the
    # (n-1)/n * E distance bound without rounding slop.
    cells = []
    for _ in range(n_x):
        offset, i = divmod(offset, n_levels)
        cells.append((2.0 * i + 1.0 - n_levels) / n_levels)
    return state.center + np.array(cells[::-1]) * state.radius


def quad_value(center: np.ndarray, radius: float, P: np.ndarray, rho: float) -> float:
    """Value function V = center^T P center + rho * radius^2 (shared data only)."""
    return float(center @ P @ center + rho * radius * radius)


def advance(state: CodecState, symbol: int, xhat: np.ndarray, value: float,
            d: DerivedConstants, p: DesignParams) -> CodecState:
    """Propagate (center, radius) one period after processing ``symbol``.

    ``xhat`` is ``decode_center(state, symbol, d.n_levels)`` and ``value``
    is ``quad_value(state.center, state.radius, d.P, p.rho)``, which the
    caller has already computed for this sample; only a visible symbol
    reads them.  Visible symbols contract the radius through the value
    function; the overflow symbol grows it, with the escape-adjusted seed
    when the previous sample was stabilizing.
    """
    n = d.n_levels
    E = state.radius
    if symbol >= 1:
        center = d.S_closed @ xhat
        radius = d.growth_eff / n * E + math.sqrt(p.phi * value)
        stage = Stage.STABILIZING
    else:
        seed = E
        if state.stage is Stage.STABILIZING:
            # Escape: reseed the radius from the pre-escape one so the growth
            # starts from a disturbance-comparable level.
            if state.radius_prev is None:
                raise RuntimeError("escape cannot occur before the first sample")
            seed = d.growth_eff / n * state.radius_prev + d.dist_gain * p.dist_level
        center = d.S_open @ state.center
        radius = d.search_growth * seed + d.dist_gain * p.dist_level
        stage = Stage.SEARCHING
    return CodecState(center=center, radius=float(radius), radius_prev=E, stage=stage)


def controller_input(stage: Stage, K: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Control input for the current stage, for one auxiliary state or a
    stack of them (one per row): feedback ``xhat @ K.T`` while stabilizing,
    zero while searching."""
    if stage is Stage.STABILIZING:
        return xhat @ K.T
    return np.zeros(xhat.shape[:-1] + K.shape[:1])
