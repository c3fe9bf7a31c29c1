"""The scalar interval sup norm of each signal class, one interval per
call, kept independent of the package's array implementation.

The bodies are the package's scalar ``sup_norm`` methods as they stood
before ``sup_norm`` took arrays, with ``self`` renamed ``sig``.  Every
entry of ``sig.sup_norm(a, b)`` must equal ``sup_norm(sig, a_i, b_i)`` to
the bit.
"""

import math

import numpy as np

from qrate.signals import Constant, PulseTrain, SeededUniform, Sinusoid, Zero


def _check_interval(a, b):
    if b < a:
        raise ValueError("reversed interval")


def zero_sup(sig, a, b):
    _check_interval(a, b)
    return 0.0


def constant_sup(sig, a, b):
    _check_interval(a, b)
    return float(np.max(np.abs(sig.level)))


def pulse_train_sup(sig, a, b):
    _check_interval(a, b)
    if a == b:
        return float(np.max(np.abs(sig.value(a)))) if sig.dim else 0.0
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
        return float(np.max(np.abs(sig.value(a))))
    lo = sig._index(a)
    hi = sig._index(b)
    if hi * sig.hold >= b - 1e-9 * sig.hold:
        hi -= 1  # the interval opening at b has zero overlap
    top = max(hi, lo)
    sig._draw(top)
    return max(sig._norms[lo:top + 1])


_BY_CLASS = {Zero: zero_sup, Constant: constant_sup, PulseTrain: pulse_train_sup,
             Sinusoid: sinusoid_sup, SeededUniform: seeded_uniform_sup}


def sup_norm(sig, a: float, b: float) -> float:
    return _BY_CLASS[type(sig)](sig, a, b)
