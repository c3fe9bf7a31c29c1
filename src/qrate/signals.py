"""Declarative disturbance signals with exact interval sup norms.

Every signal knows its own discontinuities, so the integrator can split
substeps at them, and computes sup norms in closed form rather than from
sampled maxima.  ``sup_norm(a, b)`` is the one sup-norm method: ``a`` and
``b`` broadcast, so one call covers any number of intervals, and each
entry is the same arithmetic as a call on that interval alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matnum import as_vector

__all__ = ["Disturbance", "Zero", "Constant", "PulseTrain", "Sinusoid", "SeededUniform"]


class Disturbance:
    """Base class: a measurable, locally bounded signal on [0, inf)."""

    dim: int = 1
    piecewise_constant: bool = False

    def value(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def sup_norm(self, a, b) -> float | np.ndarray:
        """Exact essential sup of the max-abs entry over [a, b].

        ``a`` and ``b`` broadcast against each other; two scalars give a
        float, anything else an array of the broadcast shape.
        """
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        if np.any(b < a):
            raise ValueError("reversed interval")
        out = self._sup(a.ravel(), b.ravel()) if a.size else np.zeros(0)
        return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)

    def _sup(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``sup_norm`` on non-empty 1-D arrays of equal size with a <= b."""
        raise NotImplementedError

    def breakpoints(self, a: float, b: float) -> list[float]:
        """Discontinuity instants strictly inside (a, b).

        A piecewise-constant signal is constant between its breakpoints.
        """
        return []


def _range_max(norms: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(norms[lo[i]:hi[i]]) for each i, 0.0 where the range is empty.

    One ``reduceat`` over the interleaved bounds; the segments between a
    range's end and the next range's start are reduced too and dropped,
    and they stay short when the ranges move forward in time.
    """
    out = np.zeros(lo.shape)
    some = lo < hi
    bounds = np.stack([lo[some], hi[some]], axis=1).ravel()
    if bounds.size:
        # reduceat wants every index below the length; hi may equal it
        out[some] = np.maximum.reduceat(np.append(norms, 0.0), bounds)[::2]
    return out


@dataclass(frozen=True)
class Zero(Disturbance):
    dim: int = 1
    piecewise_constant = True

    def value(self, t: float) -> np.ndarray:
        return np.zeros(self.dim)

    def _sup(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.zeros(a.size)


class Constant(Disturbance):
    piecewise_constant = True

    def __init__(self, level):
        self.level = as_vector(level, "level")
        self.dim = self.level.size

    def value(self, t: float) -> np.ndarray:
        return self.level

    def _sup(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.full(a.size, float(np.max(np.abs(self.level))))


class PulseTrain(Disturbance):
    """Zero outside a time-ordered list of non-overlapping pulses."""

    piecewise_constant = True

    def __init__(self, pulses, dim: int | None = None):
        parsed = []
        for start, end, level in pulses:
            lv = as_vector(level, "pulse level")
            if not end > start:
                raise ValueError("pulse must have positive duration")
            parsed.append((float(start), float(end), lv))
        parsed.sort(key=lambda p: p[0])
        for (s0, e0, _), (s1, _, _) in zip(parsed, parsed[1:]):
            if s1 < e0:
                raise ValueError("pulses must not overlap")
        dims = {p[2].size for p in parsed}
        if len(dims) > 1:
            raise ValueError("pulse levels must share one dimension")
        self.pulses = parsed
        self.dim = dim if dim is not None else (dims.pop() if dims else 1)
        if parsed and parsed[0][2].size != self.dim:
            raise ValueError("pulse level dimension mismatch")
        self._starts = np.array([p[0] for p in parsed])
        self._ends = np.array([p[1] for p in parsed])
        self._norms = np.array([float(np.max(np.abs(p[2]))) for p in parsed])

    def value(self, t: float) -> np.ndarray:
        for start, end, level in self.pulses:
            if start <= t < end:
                return level
        return np.zeros(self.dim)

    def _sup(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Sorted, disjoint pulses meeting [a, b] form one index range: those
        # ending after a and starting before b, since only overlaps of
        # positive measure count; at a == b, the pulse holding a.
        lo = np.searchsorted(self._ends, a, side="right")
        hi = np.where(a == b, np.searchsorted(self._starts, b, side="right"),
                      np.searchsorted(self._starts, b, side="left"))
        return _range_max(self._norms, lo, hi)

    def breakpoints(self, a: float, b: float) -> list[float]:
        pts = []
        for start, end, _ in self.pulses:
            for t in (start, end):
                if a < t < b:
                    pts.append(t)
        return pts


class Sinusoid(Disturbance):
    """amplitude * sin(2*pi*freq_hz*t + phase), per channel."""

    piecewise_constant = False

    def __init__(self, amplitude, freq_hz: float, phase: float = 0.0):
        self.amplitude = as_vector(amplitude, "amplitude")
        self.freq_hz = float(freq_hz)
        self.phase = float(phase)
        self.dim = self.amplitude.size

    def value(self, t: float) -> np.ndarray:
        return self.amplitude * math.sin(2.0 * math.pi * self.freq_hz * t + self.phase)

    def _sup(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        amp = float(np.max(np.abs(self.amplitude)))
        w = 2.0 * math.pi * self.freq_hz
        th_a, th_b = w * a + self.phase, w * b + self.phase
        lo, hi = np.minimum(th_a, th_b), np.maximum(th_a, th_b)
        # |sin| peaks at pi/2 + k*pi; without a peak inside, the max sits at
        # an endpoint.  math.sin rather than np.sin keeps each entry the bits
        # of the scalar formula.
        k = np.ceil((lo - math.pi / 2.0) / math.pi)
        peak = math.pi / 2.0 + k * math.pi <= hi
        sin_lo = np.abs(np.fromiter(map(math.sin, lo.tolist()), float, lo.size))
        sin_hi = np.abs(np.fromiter(map(math.sin, hi.tolist()), float, hi.size))
        return np.where(peak, amp, amp * np.maximum(sin_lo, sin_hi))


class SeededUniform(Disturbance):
    """Piecewise-constant noise: a fresh uniform(-bound, bound) draw per
    hold interval, reproducible from the seed."""

    piecewise_constant = True

    def __init__(self, bound: float, seed: int, hold: float, dim: int = 1):
        if not (math.isfinite(hold) and hold > 0):
            raise ValueError("hold interval must be positive and finite")
        if not (math.isfinite(bound) and bound >= 0):
            raise ValueError("bound must be nonnegative and finite")
        self.bound = float(bound)
        self.seed = int(seed)
        self.hold = float(hold)
        self.dim = int(dim)
        self._rng = np.random.Generator(np.random.Philox(key=self.seed))
        self._draws: list[np.ndarray] = []
        self._norms: list[float] = []  # max |entry| of each draw
        self._norm_array = np.empty(0)  # _norms as an array, rebuilt after new draws

    def _draw(self, i: int) -> np.ndarray:
        while len(self._draws) <= i:
            w = self._rng.uniform(-self.bound, self.bound, self.dim)
            self._draws.append(w)
            self._norms.append(float(np.max(np.abs(w))))
        return self._draws[i]

    def _index(self, t: float) -> int:
        # Nudge keeps exact hold-boundary times in the interval they open.
        return max(int(math.floor(t / self.hold + 1e-9)), 0)

    def value(self, t: float) -> np.ndarray:
        return self._draw(self._index(t))

    def _sup(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # _index elementwise; at a == b the range is a's own draw.
        lo, hi = (np.maximum(np.floor(t / self.hold + 1e-9), 0.0).astype(np.int64)
                  for t in (a, b))
        hi -= hi * self.hold >= b - 1e-9 * self.hold  # the interval opening at b has zero overlap
        top = np.maximum(hi, lo)
        self._draw(int(top.max()))
        if self._norm_array.size != len(self._norms):
            self._norm_array = np.array(self._norms)
        return _range_max(self._norm_array, lo, top + 1)

    def breakpoints(self, a: float, b: float) -> list[float]:
        pts = []
        i = self._index(a) + 1
        while i * self.hold < b:
            t = i * self.hold
            if a < t:
                pts.append(t)
            i += 1
        return pts
