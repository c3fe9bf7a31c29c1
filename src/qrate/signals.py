"""Declarative disturbance signals with exact interval sup norms.

Every signal knows its own discontinuities, so the integrator can split
substeps at them, and computes sup norms in closed form rather than from
sampled maxima.  ``sup_norm(a, b)`` is the one sup-norm method and
``value(t)`` the one evaluation method: their arguments broadcast, so one
call covers any number of intervals or instants, and each entry is the
same arithmetic as a call on that interval or instant alone.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .matnum import as_vector

__all__ = ["Disturbance", "Zero", "Constant", "PulseTrain", "Sinusoid", "SeededUniform"]

_MAX_HOLD_EDGES = 10**7  # per breakpoints call: 80 MB as float64, 320 MB as a list


class Disturbance:
    """Base class: a measurable, locally bounded signal on [0, inf)."""

    dim: int = 1
    piecewise_constant: bool = False

    def value(self, t) -> np.ndarray:
        """The signal at ``t``: a scalar gives shape (dim,), an array of
        shape S gives S + (dim,)."""
        t = np.asarray(t, dtype=float)
        out = self._value(t.ravel()) if t.size else np.zeros((0, self.dim))
        return out.reshape(t.shape + (self.dim,))

    def _value(self, t: np.ndarray) -> np.ndarray:
        """``value`` on a non-empty 1-D array, one row per entry."""
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


def _range_max(padded: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(padded[lo[i]:hi[i]]) for each i, 0.0 where the range is empty.

    ``padded`` holds the norms and then one unused entry: ``reduceat``
    wants every index below the length, and hi may equal the norm count.
    One ``reduceat`` over the interleaved bounds; the segments between a
    range's end and the next range's start are reduced too and dropped,
    and they stay short when the ranges move forward in time.
    """
    out = np.zeros(lo.shape)
    some = lo < hi
    bounds = np.stack([lo[some], hi[some]], axis=1).ravel()
    if bounds.size:
        out[some] = np.maximum.reduceat(padded, bounds)[::2]
    return out


@dataclass(frozen=True)
class Zero(Disturbance):
    dim: int = 1
    piecewise_constant = True

    def _value(self, t: np.ndarray) -> np.ndarray:
        return np.zeros((t.size, self.dim))

    def _sup(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.zeros(a.size)


class Constant(Disturbance):
    piecewise_constant = True

    def __init__(self, level):
        self.level = as_vector(level, "level")
        self.dim = self.level.size

    def _value(self, t: np.ndarray) -> np.ndarray:
        return np.tile(self.level, (t.size, 1))

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
                raise ValueError("pulses must have positive durations")
            parsed.append((float(start), float(end), lv))
        parsed.sort(key=lambda p: p[0])
        # Starts and ends interleaved, sorted unless two pulses overlap:
        # starts are the even entries, ends the odd ones.
        self._edges = np.array([t for p in parsed for t in p[:2]])
        if np.any(self._edges[1:] < self._edges[:-1]):
            raise ValueError("pulses must not overlap")
        dims = {p[2].size for p in parsed}
        if len(dims) > 1:
            raise ValueError("pulse levels must share one dimension")
        self.pulses = parsed
        self.dim = dim if dim is not None else (dims.pop() if dims else 1)
        if parsed and parsed[0][2].size != self.dim:
            raise ValueError("pulse level dimension mismatch")
        self._norms = np.array([float(np.max(np.abs(p[2]))) for p in parsed] + [0.0])  # padded
        # The level held after each number of edges: a t at or past an odd
        # number of them is in a pulse.
        zero = np.zeros(self.dim)
        self._held = np.array([zero] + [lv for p in parsed for lv in (p[2], zero)])

    def _value(self, t: np.ndarray) -> np.ndarray:
        # The pulse holding t, if any, is the last one starting at or before
        # t, if t is before its end; NaN sorts past every edge, held by none.
        return self._held[self._edges.searchsorted(t, side="right")]

    def _sup(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Sorted, disjoint pulses meeting [a, b] form one index range: those
        # ending after a and starting before b, since only overlaps of
        # positive measure count; at a == b, the pulse holding a.
        starts, ends = self._edges[0::2], self._edges[1::2]
        lo = ends.searchsorted(a, side="right")
        hi = np.where(a == b, starts.searchsorted(b, side="right"),
                      starts.searchsorted(b, side="left"))
        return _range_max(self._norms, lo, hi)

    def breakpoints(self, a: float, b: float) -> list[float]:
        e = self._edges
        return e[bisect.bisect_right(e, a):bisect.bisect_left(e, b)].tolist()


def _sin(th: np.ndarray) -> np.ndarray:
    """sin of each entry by math.sin: np.sin need not give the scalar bits."""
    return np.fromiter(map(math.sin, th.tolist()), float, th.size)


class Sinusoid(Disturbance):
    """amplitude * sin(2*pi*freq_hz*t + phase), per channel."""

    def __init__(self, amplitude, freq_hz: float, phase: float = 0.0):
        self.amplitude = as_vector(amplitude, "amplitude")
        self.freq_hz = float(freq_hz)
        self.phase = float(phase)
        self.dim = self.amplitude.size

    def _theta(self, *ts: np.ndarray) -> list[np.ndarray]:
        """The phase 2*pi*freq_hz*t + phase at each time of each array; a
        non-finite one, which has no sine, raises a ValueError naming the
        earliest time that has one."""
        w = 2.0 * math.pi * self.freq_hz
        with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
            ths = [w * t + self.phase for t in ts]
        if not all(np.isfinite(th).all() for th in ths):
            bad = np.concatenate([np.stack([t, th])[:, ~np.isfinite(th)]
                                  for t, th in zip(ts, ths)], axis=1)
            t0, th0 = bad[:, np.argsort(bad[0])[0]].tolist()  # NaN times sort last
            raise ValueError(f"sinusoid phase 2*pi*freq_hz*t + phase is {th0!r}, not finite, "
                             f"at t = {t0!r} (freq_hz = {self.freq_hz!r}, "
                             f"phase = {self.phase!r})")
        return ths

    def _value(self, t: np.ndarray) -> np.ndarray:
        return _sin(self._theta(t)[0])[:, None] * self.amplitude

    def _sup(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        amp = float(np.max(np.abs(self.amplitude)))
        th_a, th_b = self._theta(a, b)
        lo, hi = np.minimum(th_a, th_b), np.maximum(th_a, th_b)
        # |sin| peaks at pi/2 + k*pi; without a peak inside, the max sits at
        # an endpoint.
        k = np.ceil((lo - math.pi / 2.0) / math.pi)
        peak = math.pi / 2.0 + k * math.pi <= hi
        return np.where(peak, amp, amp * np.maximum(np.abs(_sin(lo)), np.abs(_sin(hi))))


class SeededUniform(Disturbance):
    """Piecewise-constant noise: a fresh uniform(-bound, bound) draw per
    hold interval, reproducible from the seed."""

    piecewise_constant = True

    def __init__(self, bound: float, seed: int, hold: float, dim: int = 1):
        if not (math.isfinite(hold) and hold > 0):
            raise ValueError("hold interval must be positive and finite")
        if not (math.isfinite(bound) and bound >= 0):
            raise ValueError("bound must be nonnegative and finite")
        if not math.isfinite(2.0 * float(bound)):
            raise ValueError(f"bound {bound!r} is too large: the draw range 2 * bound overflows")
        self.bound = float(bound)
        self.seed = self.check_seed(seed)
        self.hold = float(hold)
        self.dim = int(dim)
        self._rng = np.random.Generator(np.random.Philox(key=self.seed))
        # Row i is the draw held on [i * hold, (i + 1) * hold); _norms holds
        # each row's max |entry| and then one unused 0.0 (see _range_max).
        self._draws = np.zeros((0, self.dim))
        self._norms = np.zeros(1)

    @staticmethod
    def check_seed(seed) -> int:
        """``seed`` as an int, which must be a Philox key: an integer with
        0 <= seed < 2**128.  An integral float stands for its value."""
        if not ((isinstance(seed, numbers.Integral) or float(seed).is_integer())
                and 0 <= seed < 2**128):
            raise ValueError(f"seed must be an integer in [0, 2**128), got {seed}")
        return int(seed)

    def _index(self, t):
        """The hold interval of each t, as a float.  The nudge keeps exact
        hold-boundary times in the interval they open."""
        return np.maximum(np.floor(t / self.hold + 1e-9), 0.0)

    def _rows(self, i: np.ndarray) -> np.ndarray:
        """``i`` as row indices, once a draw is held for each.  Philox is
        counter-based: one (k, dim) draw gives the numbers of k draws of dim.
        Each growth draws at least as many rows as are held, so copying stays
        linear."""
        n = self._draws.shape[0]
        need = int(i.max()) + 1 - n  # a non-finite index raises here
        if need > 0:
            w = self._rng.uniform(-self.bound, self.bound, (max(need, n), self.dim))
            self._draws = np.concatenate([self._draws, w])
            self._norms = np.concatenate([self._norms[:-1], np.max(np.abs(w), axis=1), [0.0]])
        return i.astype(np.int64)

    def _value(self, t: np.ndarray) -> np.ndarray:
        i = self._rows(self._index(t))  # before _draws is read: it may grow
        return self._draws[i]

    def _sup(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lo, hi = self._index(a), self._index(b)
        hi -= hi * self.hold >= b - 1e-9 * self.hold  # the interval opening at b has zero overlap
        # at a == b the range is a's own draw
        top = self._rows(np.maximum(hi, lo))
        return _range_max(self._norms, lo.astype(np.int64), top + 1)

    def breakpoints(self, a: float, b: float) -> list[float]:
        # The hold edges i * hold past a's interval and before b.  While
        # b / hold < 2**52, the edge at ceil(b / hold) + 1 is at or past b
        # however the products round, so every edge before b has an index
        # up to ceil(b / hold): the count is known before anything is
        # built, and a count above _MAX_HOLD_EDGES raises at once.
        try:
            i0 = int(self._index(a)) + 1
            count = max(math.ceil(b / self.hold) + 1, i0) - i0
        except (ValueError, OverflowError):
            count = math.inf
        if count > _MAX_HOLD_EDGES:
            raise ValueError(f"hold interval {self.hold!r} s gives {(b - a) / self.hold:.3g} "
                             f"hold edges in ({a!r}, {b!r}), too many to build "
                             f"(at most {_MAX_HOLD_EDGES:.0e} per call)")
        edges = np.arange(i0, i0 + count) * self.hold
        return edges[(a < edges) & (edges < b)].tolist()
