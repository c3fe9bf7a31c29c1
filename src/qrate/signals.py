"""Declarative disturbance signals with exact interval sup norms.

Every signal knows its own discontinuities, so the integrator can split
substeps at them, and computes sup norms in closed form rather than from
sampled maxima.  ``sup_prefix(a, ts)`` evaluates the sup norm from one
start over many ends at once; entry i is bitwise ``sup_norm(a, ts[i])``.
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

    def sup_norm(self, a: float, b: float) -> float:
        """Exact sup of the max-abs entry over [a, b]."""
        raise NotImplementedError

    def sup_prefix(self, a: float, ts) -> np.ndarray:
        """``[sup_norm(a, t) for t in ts]`` as an array, bit for bit."""
        return np.array([self.sup_norm(a, t) for t in np.asarray(ts, dtype=float)],
                        dtype=float)

    def breakpoints(self, a: float, b: float) -> list[float]:
        """Discontinuity instants strictly inside (a, b).

        A piecewise-constant signal is constant between its breakpoints.
        """
        return []

    def _check_interval(self, a: float, b: float) -> None:
        if b < a:
            raise ValueError("reversed interval")

    def _check_prefix(self, a: float, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < a):
            raise ValueError("reversed interval")
        return ts


@dataclass(frozen=True)
class Zero(Disturbance):
    dim: int = 1
    piecewise_constant = True

    def value(self, t: float) -> np.ndarray:
        return np.zeros(self.dim)

    def sup_norm(self, a: float, b: float) -> float:
        self._check_interval(a, b)
        return 0.0

    def sup_prefix(self, a: float, ts) -> np.ndarray:
        return np.zeros(self._check_prefix(a, ts).shape)


class Constant(Disturbance):
    piecewise_constant = True

    def __init__(self, level):
        self.level = as_vector(level, "level")
        self.dim = self.level.size

    def value(self, t: float) -> np.ndarray:
        return self.level

    def sup_norm(self, a: float, b: float) -> float:
        self._check_interval(a, b)
        return float(np.max(np.abs(self.level)))

    def sup_prefix(self, a: float, ts) -> np.ndarray:
        return np.full(self._check_prefix(a, ts).shape, float(np.max(np.abs(self.level))))


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

    def value(self, t: float) -> np.ndarray:
        for start, end, level in self.pulses:
            if start <= t < end:
                return level
        return np.zeros(self.dim)

    def sup_norm(self, a: float, b: float) -> float:
        self._check_interval(a, b)
        if a == b:
            return float(np.max(np.abs(self.value(a)))) if self.dim else 0.0
        # Only overlaps of positive measure count toward the essential sup.
        best = 0.0
        for start, end, level in self.pulses:
            if start < b and end > a:
                best = max(best, float(np.max(np.abs(level))))
        return best

    def sup_prefix(self, a: float, ts) -> np.ndarray:
        ts = self._check_prefix(a, ts)
        # Pulses ending after a, in start order: the sup up to t is the
        # running max over those that start before t.
        live = [(start, float(np.max(np.abs(level)))) for start, end, level in self.pulses
                if end > a]
        starts = np.array([s for s, _ in live], dtype=float)
        running = np.maximum.accumulate(np.array([0.0] + [lv for _, lv in live]))
        out = running[np.searchsorted(starts, ts, side="left")]
        at_a = ts == a
        if np.any(at_a):
            out[at_a] = float(np.max(np.abs(self.value(a)))) if self.dim else 0.0
        return out

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

    def sup_norm(self, a: float, b: float) -> float:
        self._check_interval(a, b)
        amp = float(np.max(np.abs(self.amplitude)))
        th_a = 2.0 * math.pi * self.freq_hz * a + self.phase
        th_b = 2.0 * math.pi * self.freq_hz * b + self.phase
        th_a, th_b = min(th_a, th_b), max(th_a, th_b)
        # |sin| peaks at pi/2 + k*pi; without a peak inside, the max sits at
        # an endpoint.
        k = math.ceil((th_a - math.pi / 2.0) / math.pi)
        if math.pi / 2.0 + k * math.pi <= th_b:
            return amp
        return amp * max(abs(math.sin(th_a)), abs(math.sin(th_b)))

    def sup_prefix(self, a: float, ts) -> np.ndarray:
        ts = self._check_prefix(a, ts)
        # The same arithmetic as sup_norm, elementwise; math.sin rather
        # than np.sin keeps every entry bitwise equal to sup_norm.
        amp = float(np.max(np.abs(self.amplitude)))
        w = 2.0 * math.pi * self.freq_hz
        th_a = w * a + self.phase
        th_b = w * ts + self.phase
        lo, hi = np.minimum(th_a, th_b), np.maximum(th_a, th_b)
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
        if not hold > 0:
            raise ValueError("hold interval must be positive")
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        self.bound = float(bound)
        self.seed = int(seed)
        self.hold = float(hold)
        self.dim = int(dim)
        self._rng = np.random.Generator(np.random.Philox(key=self.seed))
        self._draws: list[np.ndarray] = []
        self._norms: list[float] = []  # max |entry| of each draw

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

    def sup_norm(self, a: float, b: float) -> float:
        self._check_interval(a, b)
        if a == b:
            return float(np.max(np.abs(self.value(a))))
        lo = self._index(a)
        hi = self._index(b)
        if hi * self.hold >= b - 1e-9 * self.hold:
            hi -= 1  # the interval opening at b has zero overlap
        top = max(hi, lo)
        self._draw(top)
        return max(self._norms[lo:top + 1])

    def sup_prefix(self, a: float, ts) -> np.ndarray:
        ts = self._check_prefix(a, ts)
        # The same index arithmetic as sup_norm, elementwise, then a
        # running max over the draws from the start's hold interval.
        lo = self._index(a)
        hi = np.maximum(np.floor(ts / self.hold + 1e-9), 0.0).astype(np.int64)
        hi -= hi * self.hold >= ts - 1e-9 * self.hold
        top = np.maximum(hi, lo)
        last = int(top.max()) if top.size else lo
        self._draw(last)
        out = np.maximum.accumulate(self._norms[lo:last + 1])[top - lo]
        at_a = ts == a
        if np.any(at_a):
            out[at_a] = float(np.max(np.abs(self.value(a))))
        return out

    def breakpoints(self, a: float, b: float) -> list[float]:
        pts = []
        i = self._index(a) + 1
        while i * self.hold < b:
            t = i * self.hold
            if a < t:
                pts.append(t)
            i += 1
        return pts
