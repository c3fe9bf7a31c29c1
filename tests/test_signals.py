import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import signal_oracle
from qrate import run_closed_loop
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


def test_pulse_train_rejects_levels_of_other_sizes():
    with pytest.raises(ValueError, match="^pulse levels must share one dimension$"):
        PulseTrain([(0.0, 1.0, [1.0]), (2.0, 3.0, [1.0, 2.0])])
    with pytest.raises(ValueError, match="^pulse level dimension mismatch$"):
        PulseTrain([(0.0, 1.0, [1.0, 2.0])], dim=1)


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


def test_sinusoid_names_a_non_finite_phase_and_its_first_time(ref_plant, cert_params,
                                                               cert_derived):
    # 2*pi*1e308 overflows, so the phase is NaN at t = 0 and inf after it:
    # the run stops at its first input evaluation, naming the earliest t.
    msg = "sinusoid phase 2*pi*freq_hz*t + phase is {}, not finite, at t = {} ({})"
    with pytest.raises(ValueError, match=re.escape(msg.format(
            "nan", "0.0", "freq_hz = 1e+308, phase = 0.0"))):
        run_closed_loop(ref_plant, cert_params, cert_derived, Sinusoid([0.05], 1e308),
                        np.array([1.0, -0.5]), 1.0, 2)
    sig = Sinusoid([1.0], 1.0, 0.5)
    with pytest.raises(ValueError, match=re.escape(msg.format(
            "inf", "1e+308", "freq_hz = 1.0, phase = 0.5"))):
        sig.value([3.0, 1e308, np.nan, 2e308])
    # a NaN time is named only when no other time has a non-finite phase
    with pytest.raises(ValueError, match=re.escape(msg.format(
            "nan", "nan", "freq_hz = 1.0, phase = 0.5"))):
        sig.sup_norm([0.0, 1.0], [np.nan, 2.0])
    with pytest.raises(ValueError, match=re.escape(msg.format(
            "inf", "2.0", "freq_hz = 1.0, phase = inf"))):
        Sinusoid([1.0], 1.0, math.inf).sup_norm([3.0, 2.0], [4.0, 5.0])
    # finite phases keep their sines
    t = np.array([0.0, 0.3, 1e300])
    want = np.array([math.sin(2.0 * math.pi * x + 0.5) for x in t.tolist()])
    assert sig.value(t)[:, 0].tobytes() == want.tobytes()


def test_seeded_uniform_reproducible():
    a = SeededUniform(bound=0.5, seed=123, hold=0.2, dim=2)
    b = SeededUniform(bound=0.5, seed=123, hold=0.2, dim=2)
    ts = np.linspace(0.0, 3.0, 31)
    assert all(np.array_equal(a.value(t), b.value(t)) for t in ts)
    c = SeededUniform(bound=0.5, seed=124, hold=0.2, dim=2)
    assert any(not np.array_equal(a.value(t), c.value(t)) for t in ts)


def test_seeded_uniform_seed_is_a_philox_key():
    for seed in (0, 2**128 - 1, np.uint64(7), 7.0):
        assert abs(SeededUniform(bound=1.0, seed=seed, hold=0.1).value(0.0)[0]) <= 1.0
    for seed in (-1, 2**128, 2.7, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\), got"):
            SeededUniform(bound=1.0, seed=seed, hold=0.1)


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


_HOLD_EDGE_CASES = [
    (0.25, 0.0, 1.0), (0.25, 0.25, 0.5), (0.25, 0.5, 0.5), (0.25, 0.6, 0.4),
    (0.25, -1.0, 0.6), (0.25, 0.25 - 1e-12, 0.75 + 1e-12), (0.25, 0.25 + 1e-12, 0.75 - 1e-12),
    (0.37, 0.0, 30.0), (0.1, 0.0, 30.0), (0.001, 0.0, 30.0), (0.001, 10.0, 10.1),
    (0.37, 1e6, 1e6 + 5.0), (1e-3, 1e9, 1e9 + 0.01), (0.1, 2.9999999999999996, 3.1000000000000001),
    (1e-300, 0.0, 1e-298), (1e-300, 5e-299, 5e-299 + 1e-300),
    # the edge past a's interval, by index, rounds to a itself
    (0.001, 273856360.108, 273856360.2),
]


@pytest.mark.parametrize("hold, a, b", _HOLD_EDGE_CASES)
def test_seeded_uniform_breakpoints_match_edge_loop(hold, a, b):
    sig = SeededUniform(bound=1.0, seed=7, hold=hold)
    got = sig.breakpoints(a, b)
    want = signal_oracle.seeded_uniform_breakpoints(sig, a, b)
    assert all(type(t) is float for t in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("hold", [0.37, 0.1, 0.001, 0.03])
def test_seeded_uniform_breakpoints_match_edge_loop_on_every_sampling_interval(hold):
    # the intervals step_interval asks about in a 30 s run at dt = 0.1
    sig = SeededUniform(bound=1.0, seed=7, hold=hold)
    for k in range(300):
        a = k * 0.1
        want = signal_oracle.seeded_uniform_breakpoints(sig, a, a + 0.1)
        assert np.array(sig.breakpoints(a, a + 0.1)).tobytes() == np.array(want).tobytes(), k


@given(st.floats(1e-3, 10.0), st.floats(-5.0, 100.0), st.floats(0.0, 30.0),
       st.integers(-3, 3))
def test_seeded_uniform_breakpoints_match_edge_loop_anywhere(hold, a, width, on_edge):
    # on_edge != 0 moves a to the nearest hold edge, nudged by that many ulps
    if on_edge:
        a = float(np.round(a / hold) * hold)
        for _ in range(abs(on_edge)):
            a = math.nextafter(a, math.copysign(math.inf, on_edge))
    sig = SeededUniform(bound=1.0, seed=0, hold=hold)
    for b in (a + width, a):
        want = signal_oracle.seeded_uniform_breakpoints(sig, a, b)
        assert np.array(sig.breakpoints(a, b)).tobytes() == np.array(want).tobytes()


# a time in units of the hold interval: anywhere, or on a hold edge
_in_holds = st.one_of(st.floats(-1.0, 3000.0), st.integers(0, 3000).map(float))


@given(st.integers(0, 2**64 - 1), st.floats(0.0, 2.0), st.floats(1e-3, 1.0), st.integers(1, 3),
       st.lists(st.tuples(_in_holds, _in_holds), min_size=1, max_size=30), st.data())
def test_seeded_uniform_does_not_depend_on_the_order_or_grouping_of_calls(
        seed, bound, hold, dim, pairs, data):
    def fresh():
        return SeededUniform(bound=bound, seed=seed, hold=hold, dim=dim)

    a = np.array([min(p, q) * hold for p, q in pairs])
    b = np.array([max(p, q) * hold for p, q in pairs])
    ts = np.concatenate([b, a])
    want_v = np.array([signal_oracle.value(fresh(), t) for t in ts.tolist()])
    want_s = np.array([signal_oracle.sup_norm(fresh(), p, q)
                       for p, q in zip(a.tolist(), b.tolist())])

    # one long call each
    whole = fresh()
    assert whole.value(ts).tobytes() == want_v.tobytes()
    assert whole.sup_norm(a, b).tobytes() == want_s.tobytes()

    # many short calls, sup norms and values alternating, edges in between
    short, n = fresh(), a.size
    cuts = sorted({0, n, *data.draw(st.lists(st.integers(0, n), max_size=6))})
    got_v, got_s = np.empty_like(want_v), np.empty_like(want_s)
    for lo, hi in zip(cuts, cuts[1:]):
        got_s[lo:hi] = short.sup_norm(a[lo:hi], b[lo:hi])
        got_v[[*range(lo, hi), *range(n + lo, n + hi)]] = short.value(np.append(b[lo:hi], a[lo:hi]))
        p, q = float(a[lo]), float(min(b[lo], a[lo] + 20 * hold))
        want_e = signal_oracle.seeded_uniform_breakpoints(fresh(), p, q)
        assert np.array(short.breakpoints(p, q)).tobytes() == np.array(want_e).tobytes()
    assert got_v.tobytes() == want_v.tobytes() and got_s.tobytes() == want_s.tobytes()

    # one time or interval per call, in any order
    shuffled = fresh()
    for i in data.draw(st.permutations(range(2 * n))):
        if i < n:
            assert np.float64(shuffled.sup_norm(a[i], b[i])).tobytes() == want_s[i].tobytes()
        assert shuffled.value(ts[i]).tobytes() == want_v[i].tobytes()


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


_ends = st.floats(0.0, 25.0)


@given(_signal_and_edges(), st.data())
def test_sup_norm_arrays_match_scalar_oracle_bitwise(sig_edges, data):
    sig, edges = sig_edges
    # each end anywhere, or exactly on one of the signal's edges
    end = st.one_of(_ends, st.sampled_from(edges)) if edges else _ends
    pairs = data.draw(st.lists(st.tuples(end, end, st.booleans()), max_size=30))
    a = np.array([min(p, q) for p, q, _ in pairs])
    b = np.array([a_i if same else max(p, q) for a_i, (p, q, same) in zip(a, pairs)])
    got = sig.sup_norm(a, b)
    want = np.array([signal_oracle.sup_norm(sig, a_i, b_i) for a_i, b_i in zip(a, b)])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for a_i, b_i, w in zip(a.tolist(), b.tolist(), want.tolist()):
        one = sig.sup_norm(a_i, b_i)
        assert type(one) is float and one == w and math.copysign(1, one) == math.copysign(1, w)


def _near(edge: float):
    """The edge itself or the float on either side of it."""
    return st.sampled_from([edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)])


@given(_signal_and_edges(), st.data())
def test_value_arrays_match_scalar_oracle_bitwise(sig_edges, data):
    sig, edges = sig_edges
    # anywhere, or on or next to a pulse edge, hold boundary or sine peak
    time = st.one_of(_ends, st.sampled_from(edges).flatmap(_near)) if edges else _ends
    ts = np.array(data.draw(st.lists(time, max_size=30)), dtype=float)
    got = sig.value(ts)
    assert got.shape == (ts.size, sig.dim)
    for row, t in zip(got, ts.tolist()):
        one = sig.value(t)
        assert one.shape == (sig.dim,)
        assert row.tobytes() == one.tobytes() == signal_oracle.value(sig, t).tobytes()
    column = sig.value(ts.reshape(-1, 1))
    assert column.shape == (ts.size, 1, sig.dim) and column.tobytes() == got.tobytes()


def test_value_array_edge_cases():
    sig = PulseTrain([(1.0, 2.0, [2.0, -1.0]), (2.0, 3.0, [0.5, 0.5])], dim=2)
    assert sig.value(np.empty(0)).shape == (0, 2)
    # a pulse holds its start, not its end; NaN is in no pulse
    assert sig.value([0.5, 1.0, 2.0, 3.0, math.nan]).tolist() == [
        [0.0, 0.0], [2.0, -1.0], [0.5, 0.5], [0.0, 0.0], [0.0, 0.0]]
    assert PulseTrain([], dim=2).value([0.0, 1.0]).tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert Constant([0.3, -0.1]).value(np.zeros((2, 3))).shape == (2, 3, 2)
    hold = SeededUniform(bound=1.0, seed=7, hold=0.25, dim=1)
    # a later call that needs more draws than the earlier ones sees them all
    assert hold.value([5.0, 0.0]).tolist() == [hold.value(5.0).tolist(), hold.value(0.0).tolist()]


def test_sup_norm_array_edge_cases():
    sig = PulseTrain([(1.0, 2.0, [2.0]), (3.0, 4.0, [-1.0])], dim=1)
    assert sig.sup_norm(1.0, np.empty(0)).shape == (0,)
    assert sig.sup_norm(2.0, [2.0, 3.0, 3.5]).tolist() == [0.0, 0.0, 1.0]
    # a == b reads the value there: a pulse holds its start, not its end
    assert sig.sup_norm([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]).tolist() == [2.0, 0.0, 1.0, 0.0]
    assert sig.sup_norm([0.5, 1.0, 2.5], 4.0).tolist() == [2.0, 2.0, 1.0]
    assert sig.sup_norm(np.zeros((2, 1)), np.array([[0.5, 1.5, 3.5]])).shape == (2, 3)
    assert PulseTrain([], dim=1).sup_norm([0.0, 1.0], 2.0).tolist() == [0.0, 0.0]
    hold = SeededUniform(bound=1.0, seed=7, hold=0.25, dim=1)
    assert hold.sup_norm(0.25, [0.25, 0.5]).tolist() == [
        signal_oracle.sup_norm(hold, 0.25, 0.25), signal_oracle.sup_norm(hold, 0.25, 0.5)]
    # a later call that needs more draws than the earlier ones sees them all
    assert hold.sup_norm([0.0, 2.0], [5.0, 9.0]).tolist() == [
        signal_oracle.sup_norm(hold, 0.0, 5.0), signal_oracle.sup_norm(hold, 2.0, 9.0)]
    for s in (Zero(), Constant([1.0]), sig, hold, Sinusoid([1.0], 1.0)):
        with pytest.raises(ValueError):
            s.sup_norm(1.0, [1.5, 0.5])
        with pytest.raises(ValueError):
            s.sup_norm([0.0, 2.0], 1.0)


@pytest.mark.parametrize("bound, hold", [(1.0, math.inf), (1.0, math.nan), (1.0, 0.0),
                                         (math.nan, 0.1), (math.inf, 0.1), (-1.0, 0.1)])
def test_seeded_uniform_rejects_non_finite_or_non_positive_parameters(bound, hold):
    with pytest.raises(ValueError):
        SeededUniform(bound=bound, seed=0, hold=hold)


@pytest.mark.parametrize("hold, a, b, count", [(1e-300, 0.0, 1.0, "1e+300"),
                                               (5e-324, 0.5, 30.0, "inf")])
def test_seeded_uniform_breakpoints_name_a_hold_too_fine_to_build(hold, a, b, count):
    # both ranges fail before any edge is allocated: the edge count is far
    # above the bound per call, and b / hold overflows to inf
    message = f"hold interval {hold!r} s gives {count} hold edges"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        SeededUniform(0.1, 0, hold).breakpoints(a, b)
