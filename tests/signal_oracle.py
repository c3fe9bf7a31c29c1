"""The scalar interval sup norm, value and hold edges of each signal class,
one interval or time per call, kept independent of the package's array
implementation.

The sup-norm bodies are the package's scalar ``sup_norm`` methods as they
stood before ``sup_norm`` took arrays, with ``self`` renamed ``sig``.  Every
entry of ``sig.sup_norm(a, b)`` must equal ``sup_norm(sig, a_i, b_i)`` to
the bit.  Only public attributes of a signal are read: the hold-index rule
and the uniform draws are restated here, the draws one vector at a time from
a Philox stream of the oracle's own.
"""

import functools
import math

import numpy as np

from qrate.signals import Constant, PulseTrain, SeededUniform, Sinusoid, Zero


def _check_interval(a, b):
    if b < a:
        raise ValueError("reversed interval")


def hold_index(sig, t):
    """The hold interval of ``t``; the nudge keeps an exact hold-boundary
    time in the interval it opens."""
    return max(int(math.floor(t / sig.hold + 1e-9)), 0)


@functools.lru_cache(maxsize=4)
def _stream(seed, bound, dim):
    """A fresh Philox stream, the vectors drawn from it so far and the max
    |entry| of each.  Memoized, so that a test need not redraw the prefix on
    every call; the draws depend on the key alone."""
    return np.random.Generator(np.random.Philox(key=seed)), [], []


def uniform_draws(sig, i):
    """At least the first i + 1 draws of a ``SeededUniform`` and their
    norms: one vector at a time from a Philox stream keyed by its seed."""
    rng, draws, norms = _stream(sig.seed, sig.bound, sig.dim)
    while len(draws) <= i:
        draws.append(rng.uniform(-sig.bound, sig.bound, sig.dim))
        norms.append(float(np.max(np.abs(draws[-1]))))
    return draws, norms


def zero_sup(sig, a, b):
    _check_interval(a, b)
    return 0.0


def constant_sup(sig, a, b):
    _check_interval(a, b)
    return float(np.max(np.abs(sig.level)))


def pulse_train_sup(sig, a, b):
    _check_interval(a, b)
    if a == b:
        return float(np.max(np.abs(value(sig, a))))
    # Only overlaps of positive measure count toward the essential sup.
    best = 0.0
    for start, end, level in sig.pulses:
        if start < b and end > a:
            best = max(best, float(np.max(np.abs(level))))
    return best


def sinusoid_sup(sig, a, b):
    _check_interval(a, b)
    amp = float(np.max(np.abs(sig.amplitude)))
    th_a = 2.0 * math.pi * sig.freq_hz * a + sig.phase
    th_b = 2.0 * math.pi * sig.freq_hz * b + sig.phase
    th_a, th_b = min(th_a, th_b), max(th_a, th_b)
    # |sin| peaks at pi/2 + k*pi; without a peak inside, the max sits at
    # an endpoint.
    k = math.ceil((th_a - math.pi / 2.0) / math.pi)
    if math.pi / 2.0 + k * math.pi <= th_b:
        return amp
    return amp * max(abs(math.sin(th_a)), abs(math.sin(th_b)))


def seeded_uniform_sup(sig, a, b):
    _check_interval(a, b)
    if a == b:
        return float(np.max(np.abs(value(sig, a))))
    lo = hold_index(sig, a)
    hi = hold_index(sig, b)
    if hi * sig.hold >= b - 1e-9 * sig.hold:
        hi -= 1  # the interval opening at b has zero overlap
    top = max(hi, lo)
    return max(uniform_draws(sig, top)[1][lo:top + 1])


_BY_CLASS = {Zero: zero_sup, Constant: constant_sup, PulseTrain: pulse_train_sup,
             Sinusoid: sinusoid_sup, SeededUniform: seeded_uniform_sup}


def sup_norm(sig, a: float, b: float) -> float:
    return _BY_CLASS[type(sig)](sig, a, b)


def value(sig, t: float) -> np.ndarray:
    """``sig.value(t)`` at one time, as each class computed it before
    ``value`` took arrays."""
    if isinstance(sig, Zero):
        return np.zeros(sig.dim)
    if isinstance(sig, Constant):
        return sig.level
    if isinstance(sig, PulseTrain):
        for start, end, level in sig.pulses:
            if start <= t < end:
                return level
        return np.zeros(sig.dim)
    if isinstance(sig, Sinusoid):
        return sig.amplitude * math.sin(2.0 * math.pi * sig.freq_hz * t + sig.phase)
    i = hold_index(sig, t)
    return uniform_draws(sig, i)[0][i].copy()


def seeded_uniform_breakpoints(sig, a, b):
    """``SeededUniform.breakpoints`` as it stood before it counted the hold
    edges arithmetically: one edge at a time."""
    pts = []
    i = hold_index(sig, a) + 1
    while i * sig.hold < b:
        t = i * sig.hold
        if a < t:
            pts.append(t)
        i += 1
    return pts
