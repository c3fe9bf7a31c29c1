import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrate.signals import Constant, PulseTrain, SeededUniform, Sinusoid, Zero


def test_zero_sup():
    assert Zero(dim=2).sup_norm(0.0, 100.0) == 0.0
    assert np.array_equal(Zero(dim=2).value(3.0), np.zeros(2))


def test_constant_sup():
    sig = Constant([0.3, -0.1])
    assert sig.sup_norm(0.0, 1.0) == 0.3


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        Zero().sup_norm(1.0, 0.0)


def test_pulse_train_sup_overlap():
    sig = PulseTrain([(10.5, 10.7, [1.5])], dim=1)
    assert sig.sup_norm(10.4, 10.6) == 1.5
    assert sig.sup_norm(0.0, 10.4) == 0.0
    assert sig.sup_norm(10.8, 11.0) == 0.0
    # touching at a single point has measure zero
    assert sig.sup_norm(10.0, 10.5) == 0.0


def test_pulse_train_value_and_breakpoints():
    sig = PulseTrain([(1.0, 2.0, [2.0]), (3.0, 4.0, [-1.0])], dim=1)
    assert sig.value(1.5)[0] == 2.0
    assert sig.value(2.5)[0] == 0.0
    assert sig.breakpoints(0.9, 3.5) == [1.0, 2.0, 3.0]


def test_pulse_train_rejects_overlap():
    with pytest.raises(ValueError):
        PulseTrain([(0.0, 2.0, [1.0]), (1.0, 3.0, [1.0])])


def test_sinusoid_sup_with_peak_enclosed():
    sig = Sinusoid([2.0], freq_hz=1.0, phase=0.0)
    # quarter period at t = 0.25 carries the peak
    assert abs(sig.sup_norm(0.0, 0.5) - 2.0) < 1e-15


def test_sinusoid_sup_endpoints_only():
    sig = Sinusoid([1.0], freq_hz=1.0, phase=0.0)
    a, b = 0.01, 0.02
    expected = max(abs(math.sin(2 * math.pi * a)), abs(math.sin(2 * math.pi * b)))
    assert abs(sig.sup_norm(a, b) - expected) < 1e-15
    # interval straddling a zero but no peak: endpoint still wins
    a, b = 0.45, 0.55
    expected = max(abs(math.sin(2 * math.pi * a)), abs(math.sin(2 * math.pi * b)))
    assert abs(sig.sup_norm(a, b) - expected) < 1e-15


def test_seeded_uniform_reproducible():
    a = SeededUniform(bound=0.5, seed=123, hold=0.2, dim=2)
    b = SeededUniform(bound=0.5, seed=123, hold=0.2, dim=2)
    ts = np.linspace(0.0, 3.0, 31)
    assert all(np.array_equal(a.value(t), b.value(t)) for t in ts)
    c = SeededUniform(bound=0.5, seed=124, hold=0.2, dim=2)
    assert any(not np.array_equal(a.value(t), c.value(t)) for t in ts)


def test_seeded_uniform_sup_matches_draws():
    sig = SeededUniform(bound=1.0, seed=7, hold=0.25, dim=1)
    # sup over [0, 1) covers exactly draws 0..3
    expected = max(abs(sig.value(0.1)[0]), abs(sig.value(0.3)[0]),
                   abs(sig.value(0.6)[0]), abs(sig.value(0.9)[0]))
    assert sig.sup_norm(0.0, 1.0) == expected
    assert sig.sup_norm(0.0, 100.0) <= 1.0


def test_seeded_uniform_breakpoints():
    sig = SeededUniform(bound=1.0, seed=7, hold=0.25, dim=1)
    assert sig.breakpoints(0.0, 1.0) == [0.25, 0.5, 0.75]
    assert sig.breakpoints(0.25, 0.5) == []


_levels = st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=3)


@st.composite
def _signal_and_edges(draw):
    """A signal plus the instants where its sup norm can jump."""
    kind = draw(st.sampled_from(["zero", "constant", "pulses", "sinusoid", "uniform"]))
    if kind == "zero":
        return Zero(dim=draw(st.integers(1, 3))), []
    if kind == "constant":
        return Constant(draw(_levels)), []
    if kind == "pulses":
        dim = draw(st.integers(1, 2))
        t, pulses = 0.0, []
        for gap, width in draw(st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.01, 3.0)),
                                        max_size=6)):
            level = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False),
                                  min_size=dim, max_size=dim))
            pulses.append((t + gap, t + gap + width, level))
            t = pulses[-1][1]
        return PulseTrain(pulses, dim=dim), [e for p in pulses for e in p[:2]]
    if kind == "sinusoid":
        sig = Sinusoid(draw(_levels), draw(st.floats(0.01, 5.0)), draw(st.floats(-10.0, 10.0)))
        w = 2.0 * math.pi * sig.freq_hz
        return sig, [((0.5 + k) * math.pi - sig.phase) / w for k in range(-5, 60)]
    sig = SeededUniform(bound=draw(st.floats(0.0, 2.0)), seed=draw(st.integers(0, 2**31)),
                        hold=draw(st.floats(0.01, 2.0)), dim=draw(st.integers(1, 3)))
    return sig, [i * sig.hold for i in range(200)]


@given(_signal_and_edges(), st.floats(0.0, 20.0),
       st.lists(st.floats(0.0, 25.0), max_size=30), st.data())
def test_sup_prefix_equals_sup_norm_bitwise(sig_edges, a, offsets, data):
    sig, edges = sig_edges
    # ends anywhere after a, exactly at a, and exactly on the signal's edges
    on_edges = [e for e in edges if e >= a]
    ts = ([a] + [a + o for o in offsets]
          + data.draw(st.lists(st.sampled_from(on_edges), max_size=10) if on_edges
                      else st.just([])))
    got = sig.sup_prefix(a, ts)
    want = np.array([sig.sup_norm(a, t) for t in ts], dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sup_prefix_edge_cases():
    sig = PulseTrain([(1.0, 2.0, [2.0]), (3.0, 4.0, [-1.0])], dim=1)
    assert sig.sup_prefix(1.0, np.empty(0)).shape == (0,)
    assert sig.sup_prefix(2.0, [2.0, 3.0, 3.5]).tolist() == [0.0, 0.0, 1.0]
    hold = SeededUniform(bound=1.0, seed=7, hold=0.25, dim=1)
    assert hold.sup_prefix(0.25, [0.25, 0.5]).tolist() == [hold.sup_norm(0.25, 0.25),
                                                           hold.sup_norm(0.25, 0.5)]
    for s in (Zero(), Constant([1.0]), sig, hold, Sinusoid([1.0], 1.0)):
        with pytest.raises(ValueError):
            s.sup_prefix(1.0, [1.5, 0.5])
