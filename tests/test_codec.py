import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_oracle
import codec_oracle
from qrate import codec
from qrate.codec import CodecState, Stage


@pytest.fixture
def scalar_state():
    return CodecState(center=np.zeros(1), radius=0.5)


def test_encode_overflow(scalar_state):
    assert codec.encode(scalar_state, [0.7], 5) == 0


def test_encode_near_origin(scalar_state):
    assert codec.encode(scalar_state, [0.05], 5) == 1


def test_encode_cell(scalar_state):
    # [-0.5, 0.5] split into 5 cells of width 0.2; 0.35 sits in the last one.
    assert codec.encode(scalar_state, [0.35], 5) == 6


def test_decode_near_origin_is_origin(scalar_state):
    assert np.array_equal(codec.decode_center(scalar_state, 1, 5), np.zeros(1))


def test_decode_cell_centers(scalar_state):
    c = codec.decode_center(scalar_state, 6, 5)
    assert abs(c[0] - 0.4) < 1e-15
    assert abs(0.35 - c[0]) <= 0.5 / 5  # cell bound holds for the encoded point
    c = codec.decode_center(scalar_state, 2, 5)
    assert abs(c[0] + 0.4) < 1e-15
    assert abs(c[0] - 0.0) <= (4.0 / 5.0) * 0.5  # center stays inside the range


def test_decode_rejects_overflow_and_range(scalar_state):
    with pytest.raises(ValueError):
        codec.decode_center(scalar_state, 0, 5)
    with pytest.raises(ValueError):
        codec.decode_center(scalar_state, 27, 5)


def test_encode_dimension_mismatch(scalar_state):
    with pytest.raises(ValueError):
        codec.encode(scalar_state, [0.1, 0.2], 5)


def test_row_major_indexing_2d():
    st = CodecState(center=np.zeros(2), radius=1.0)
    # first axis is the slow one: idx (1, 2) with n=3 -> offset 5 -> symbol 7
    x = np.array([0.1, 0.9])  # cells: [-1,-1/3,1/3,1] -> idx (1, 2)
    assert codec.encode(st, x, 3) == 2 + 1 * 3 + 2
    c = codec.decode_center(st, 7, 3)
    assert np.max(np.abs(x - c)) <= 1.0 / 3.0 + 1e-15


class _Consts:
    """Minimal stand-in carrying the fields advance() reads."""

    def __init__(self, growth_eff, dist_gain, search_margin, n_levels, n_x=1,
                 s_closed=0.5, p_mat=None):
        self.growth_eff = growth_eff
        self.search_growth = (1.0 + search_margin) * growth_eff
        self.dist_gain = dist_gain
        self.n_levels = n_levels
        self.S_closed = np.array([[s_closed]]) if n_x == 1 else s_closed
        self.S_open = np.array([[growth_eff]]) if n_x == 1 else None
        self.P = p_mat if p_mat is not None else np.eye(n_x)


class _Params:
    def __init__(self, rho, phi, search_margin, dist_level):
        self.rho = rho
        self.phi = phi
        self.search_margin = search_margin
        self.dist_level = dist_level


def _advance(st, sym, d, p):
    """codec.advance with the decoded center and value the protocol loop
    passes for the sample."""
    xhat = codec.decode_center(st, sym, d.n_levels) if sym >= 1 else st.center
    return codec.advance(st, sym, xhat, codec.quad_value(st.center, st.radius, d.P, p.rho),
                         d, p)


def test_advance_searching_growth():
    # radius growth (1 + 0.2) * e^0.1 * E + (e^0.1 - 1) * 0.1 from a lost sample
    lam = math.exp(0.1)
    d = _Consts(growth_eff=lam, dist_gain=lam - 1.0, search_margin=0.2, n_levels=5)
    p = _Params(rho=1.0, phi=0.01, search_margin=0.2, dist_level=0.1)
    st = CodecState(center=np.array([0.0]), radius=0.5,
                    radius_prev=0.4, stage=Stage.SEARCHING)
    nxt = _advance(st, 0, d, p)
    expected = 1.2 * lam * 0.5 + (lam - 1.0) * 0.1
    assert abs(nxt.radius - expected) < 1e-12
    assert nxt.stage is Stage.SEARCHING
    assert nxt.radius_prev == 0.5


def test_advance_escape_reseeds_radius():
    lam = math.exp(0.1)
    d = _Consts(growth_eff=lam, dist_gain=lam - 1.0, search_margin=0.2, n_levels=5)
    p = _Params(rho=1.0, phi=0.01, search_margin=0.2, dist_level=0.1)
    st = CodecState(center=np.array([0.0]), radius=0.05,
                    radius_prev=0.2, stage=Stage.STABILIZING)
    nxt = _advance(st, 0, d, p)
    seed = lam / 5.0 * 0.2 + (lam - 1.0) * 0.1
    expected = 1.2 * lam * seed + (lam - 1.0) * 0.1
    assert abs(nxt.radius - expected) < 1e-12
    assert nxt.stage is Stage.SEARCHING


def test_advance_stabilizing_contraction():
    lam = math.exp(0.1)
    d = _Consts(growth_eff=lam, dist_gain=lam - 1.0, search_margin=0.2, n_levels=5)
    p = _Params(rho=1.0, phi=0.01, search_margin=0.2, dist_level=0.1)
    st = CodecState(center=np.array([0.0]), radius=0.5,
                    radius_prev=0.6, stage=Stage.STABILIZING)
    nxt = _advance(st, 1, d, p)  # near-origin symbol: cell center 0
    expected = lam / 5.0 * 0.5 + math.sqrt(0.01 * (0.0 + 1.0 * 0.25))
    assert abs(nxt.radius - expected) < 1e-12
    assert nxt.stage is Stage.STABILIZING
    assert np.array_equal(nxt.center, np.zeros(1))
    # a visible symbol reads the center and value it is given, not its own
    nxt = codec.advance(st, 1, np.array([2.0]), 4.0, d, p)
    assert nxt.radius == lam / 5.0 * 0.5 + math.sqrt(0.01 * 4.0)
    assert np.array_equal(nxt.center, np.array([1.0]))


def test_advance_initial_sample_cannot_escape():
    lam = math.exp(0.1)
    d = _Consts(growth_eff=lam, dist_gain=lam - 1.0, search_margin=0.2, n_levels=5)
    p = _Params(rho=1.0, phi=0.01, search_margin=0.2, dist_level=0.1)
    st = codec.initial_state(0.5, 1)
    nxt = _advance(st, 0, d, p)  # lost at the first sample: plain search
    assert abs(nxt.radius - (1.2 * lam * 0.5 + (lam - 1.0) * 0.1)) < 1e-12
    # a hand-built inconsistent state must be rejected
    bad = CodecState(center=np.zeros(1), radius=0.5,
                     radius_prev=None, stage=Stage.STABILIZING)
    with pytest.raises(RuntimeError):
        _advance(bad, 0, d, p)


def test_radius_stays_positive_under_any_symbols():
    lam = math.exp(0.1)
    d = _Consts(growth_eff=lam, dist_gain=lam - 1.0, search_margin=0.2, n_levels=5)
    p = _Params(rho=1.0, phi=0.001, search_margin=0.2, dist_level=0.1)
    rng = np.random.default_rng(0)
    st = codec.initial_state(0.5, 1)
    for _ in range(200):
        sym = int(rng.integers(0, 7))
        st = _advance(st, sym, d, p)
        assert st.radius > 0.0


_FIELDS = ("center", "radius", "radius_prev", "stage")


def test_lockstep_under_random_symbol_streams():
    lam = math.exp(0.1)
    d = _Consts(growth_eff=lam, dist_gain=lam - 1.0, search_margin=0.2, n_levels=5)
    p = _Params(rho=1.0, phi=0.01, search_margin=0.2, dist_level=0.1)
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = codec.initial_state(0.5, 1)
        b = codec.initial_state(0.5, 1)
        assert check_oracle.differing_fields(a, b, _FIELDS) == []
        for _ in range(50):
            sym = int(rng.integers(0, 7))
            a = _advance(a, sym, d, p)
            b = _advance(b, sym, d, p)
            assert check_oracle.differing_fields(a, b, _FIELDS) == []


def test_quantization_soundness_random_states():
    rng = np.random.default_rng(9)
    for _ in range(500):
        n_x = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        center = rng.uniform(-3.0, 3.0, n_x)
        radius = float(10.0 ** rng.uniform(-3, 1))
        st = CodecState(center=center, radius=radius)
        x = center + rng.uniform(-1.3, 1.3, n_x) * radius
        sym = codec.encode(st, x, n)
        if sym == 0:
            assert np.max(np.abs(x - center)) > radius
        elif sym == 1:
            assert np.max(np.abs(x)) <= radius / n
        else:
            c = codec.decode_center(st, sym, n)
            ulp = 4.0 * np.finfo(float).eps * (np.max(np.abs(center)) + radius)
            assert np.max(np.abs(x - c)) <= radius / n + ulp
            assert np.max(np.abs(c - center)) <= (n - 1) / n * radius + ulp


@given(st.integers(2, 7), st.floats(1e-3, 10.0), st.data())
def test_quantization_soundness_on_cell_boundaries(n, radius, data):
    """Every coordinate sits exactly on a cell boundary center - E + j * 2E/n:
    j = 0 and j = n are the range faces (n hits the last-cell clamp), and
    with the center at the origin and n odd some boundaries are |x| = E/n."""
    n_x = data.draw(st.integers(1, 3))
    coords = st.lists(st.floats(-3.0, 3.0), min_size=n_x, max_size=n_x)
    center = np.array(data.draw(st.one_of(st.just([0.0] * n_x), coords)))
    js = np.array(data.draw(st.lists(st.integers(0, n), min_size=n_x, max_size=n_x)))
    x = center - radius + js * (2.0 * radius / n)
    state = CodecState(center=center, radius=radius)
    sym = codec.encode(state, x, n)
    ulp = 4.0 * np.finfo(float).eps * (np.max(np.abs(center)) + radius)
    if sym == 0:
        assert np.max(np.abs(x - center)) > radius
        assert js.min() == 0 or js.max() == n  # only a face can round outside
    elif sym == 1:
        assert np.max(np.abs(x)) <= radius / n
    else:
        c = codec.decode_center(state, sym, n)
        assert np.max(np.abs(x - c)) <= radius / n + ulp
        assert np.max(np.abs(c - center)) <= (n - 1) / n * radius + ulp


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_codec_state_rejects_a_radius_that_is_not_positive(radius):
    # a NaN or infinite radius would reach encode's cell index (math.floor
    # raises there)
    with pytest.raises(ValueError, match="^radius must stay positive and finite$"):
        CodecState(center=np.zeros(2), radius=radius)


@st.composite
def _coordinate(draw, c, radius, n):
    """A coordinate on a cell face (j = n is the face clamped into the last
    cell), on the overflow boundary c +- E or one ulp past it, on the
    near-origin face +- E/n, or anywhere in a little more than the range."""
    kind = draw(st.sampled_from(["face", "overflow", "near_origin", "any"]))
    if kind == "face":
        return c - radius + draw(st.integers(0, n)) * (2.0 * radius / n)
    if kind == "overflow":
        sign = draw(st.sampled_from([-1.0, 1.0]))
        face = c + sign * radius
        return draw(st.sampled_from([face, float(np.nextafter(face, sign * np.inf))]))
    if kind == "near_origin":
        return draw(st.sampled_from([-1.0, 1.0])) * radius / n
    return c + draw(st.floats(-1.2, 1.2)) * radius


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 6), st.integers(2, 9), st.floats(1e-6, 1e6), st.data())
def test_encode_and_decode_match_the_numpy_index_oracle(n_x, n, radius, data):
    coords = st.lists(st.floats(-1e3, 1e3), min_size=n_x, max_size=n_x)
    center = np.array(data.draw(st.one_of(st.just([0.0] * n_x), coords)))
    state = CodecState(center=center, radius=radius)
    x = np.array([data.draw(_coordinate(c, radius, n)) for c in center.tolist()])
    sym = codec.encode(state, x, n)
    assert type(sym) is int and sym == codec_oracle.encode(state, x, n)
    assert codec.encode(state, x.tolist(), n) == sym
    symbols = [sym, data.draw(st.integers(1, n**n_x + 1))] if sym >= 1 else []
    for s in symbols:
        assert (codec.decode_center(state, s, n).tobytes()
                == codec_oracle.decode_center(state, s, n).tobytes())


@pytest.mark.parametrize("center, x", [
    ([0.0, 0.0], [np.nan, 0.1]),                # x not finite
    ([0.0, 0.0], [0.1, np.inf]),
    ([0.0, 0.0], [0.1, 0.2, 0.3]),              # x of the wrong shape
    ([0.0, 0.0], []),                           # x empty
    ([np.inf, 0.0], [0.1, 0.2]),                # the center has overflowed
    ([np.nan, 0.0], [0.1, 0.2]),
    ([1e308, 0.0], [-1e308, 0.2]),              # finite, but x - center is not
])
def test_encode_rejects_what_the_oracle_rejects(center, x):
    state = CodecState(center=np.array(center), radius=1.0)
    for encode in (codec.encode, codec_oracle.encode):
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            encode(state, np.array(x), 5)


@pytest.mark.parametrize("center, x", [([np.inf, 0.0], [np.inf, 0.0]),
                                       ([0.0, -np.inf], [0.2, -np.inf])])
def test_encode_rejects_an_inf_sample_against_an_inf_center_without_a_warning(center, x):
    # inf - inf would warn "invalid value encountered in subtract", which
    # python -W error turns into the error in place of the ValueError
    state = CodecState(center=np.array(center), radius=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^vector must have finite entries$"):
            codec.encode(state, np.array(x), 5)


@pytest.mark.parametrize("center, x", [
    ([0.0, 0.0], [-0.0, 0.0]),                  # near-origin, either sign of zero
    ([-0.0, 0.0], [0.0, -0.0]),
    ([0.0, -0.0], [0.7, -0.0]),                 # a cell, the zero on a cell boundary
    ([0.3, -0.2], [-0.0, -0.0]),
    ([-0.0, 0.3], [-1.0, -0.0]),                # on the overflow face
    ([0.0, 0.0], [1.0, 1.5]),                   # past it
])
def test_encode_reads_lists_and_signed_zeros_as_the_oracle(center, x):
    state = CodecState(center=np.array(center), radius=1.0)
    want = codec_oracle.encode(state, np.array(x), 5)
    assert codec.encode(state, x, 5) == codec.encode(state, np.array(x), 5) == want


@pytest.mark.parametrize("center, x, message", [
    ([0.0, 0.0], [math.nan, 0.1], "vector must have finite entries"),
    ([0.0, 0.0], [0.1, -math.inf], "vector must have finite entries"),
    ([math.nan, 0.0], [0.1, 0.2], "vector must have finite entries"),
    ([0.0, math.inf], [0.1, 0.2], "vector must have finite entries"),
    ([math.nan, 0.0], [math.nan, 0.2], "vector must have finite entries"),
    ([-math.inf, 0.0], [-math.inf, 0.2], "vector must have finite entries"),
    ([1e308, 0.0], [-1e308, 0.2], "vector must have finite entries"),
    ([0.0, 0.0], [0.1, 0.2, 0.3], "state dimension mismatch"),
    ([0.0, 0.0], [], "state dimension mismatch"),
    ([0.0, 0.0], [[0.1, 0.2]], "state dimension mismatch"),
    ([], [], "zero-size array to reduction operation maximum which has no identity"),
])
@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
def test_encode_raises_the_same_error_for_a_list_or_an_array(center, x, message, as_array):
    # The messages of the numpy reductions that decided before, and no
    # warning on the way (an overflowing or an inf - inf deviation).
    state = CodecState(center=np.array(center), radius=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            codec.encode(state, np.array(x) if as_array else x, 5)


def test_encode_clamps_a_cell_index_that_rounds_below_the_range():
    # |x - c| rounds to at most E, but x - (c - E) rounds below 0, so the
    # cell index floors to -1: the clamp puts x in cell 0 (symbol 2), where
    # the index alone would give 2 - 1, the near-origin symbol
    state = CodecState(center=np.array([3.031859454455258]), radius=3.9457295221662108)
    x = np.array([-0.9138700677109528])
    c, E = state.center[0], state.radius
    assert abs(x[0] - c) <= E and abs(x[0]) > E / 5
    assert math.floor((x[0] - (c - E)) * 5 / (2.0 * E)) == -1
    assert codec.encode(state, x, 5) == codec_oracle.encode(state, x, 5) == 2


def test_controller_input_stages():
    K = np.array([[-3.5, 0.0]])
    assert np.array_equal(codec.controller_input(Stage.SEARCHING, K, np.array([9.0, 9.0])),
                          np.zeros(1))
    u = codec.controller_input(Stage.STABILIZING, K, np.array([0.4, 0.1]))
    assert abs(u[0] + 1.4) < 1e-15
    assert np.array_equal(codec.controller_input(Stage.STABILIZING, K, np.zeros(2)),
                          np.zeros(1))


_ENTRY = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4), st.sampled_from(list(Stage)),
       st.data())
def test_controller_input_is_the_feedback_law_on_one_state_or_a_stack(n_x, n_u, rows, stage,
                                                                      data):
    K = np.array(data.draw(st.lists(st.lists(_ENTRY, min_size=n_x, max_size=n_x),
                                    min_size=n_u, max_size=n_u)))
    # the stack as the integrator passes it: the xhat half of its (x, xhat) records
    zs = np.array(data.draw(st.lists(st.lists(_ENTRY, min_size=2 * n_x, max_size=2 * n_x),
                                     min_size=rows, max_size=rows)))
    xhats = zs[:, n_x:]
    stabilizing = stage is Stage.STABILIZING
    us = codec.controller_input(stage, K, xhats)
    want = xhats @ K.T if stabilizing else np.zeros((rows, n_u))
    assert us.shape == (rows, n_u) and us.tobytes() == want.tobytes()
    for xhat in xhats:
        want = K @ xhat if stabilizing else np.zeros(n_u)
        assert codec.controller_input(stage, K, xhat).tobytes() == want.tobytes()
