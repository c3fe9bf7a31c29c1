import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_oracle
import signal_oracle
from conftest import PROPERTY_PROFILE, make_random_plant
from qrate import codec
from qrate import plant as plant_mod
from qrate import (Constant, DesignParams, PlantModel, PulseTrain, SeededUniform, Sinusoid,
                   Zero, bundled_scenario, derive_constants, run_closed_loop, step_interval,
                   synthesize_design)
from qrate.codec import Stage
from qrate.matnum import expm
from qrate.plant import (_augmented, _DenseLog, _off_grid_count, _zoh_pair, _zoh_steps,
                         _ZohCache)

# sha256 of run_closed_loop(...).x.tobytes() on the bundled certified
# scenario, as integrated one substep at a time with a fresh input each.
BUNDLED_X_SHA256 = "4bba4912f9043d7db9343e07558b3ba340870ddfd244f26ce21286fb21d0ed52"
# the same for the dense records, as concatenated from per-interval arrays
BUNDLED_DENSE_SHA256 = {
    "dense_t": "9efce64b3b370f9d8ae916733be60627fde7a4b32812fe75715d7b1f569b40a2",
    "dense_k": "c325cc15f04c046ff8cb3511283567e62cc7dec70a1ae09346f165e96b96cfda",
    "dense_x": "4cbcef559632c79be354ac433270c27fbeb00d46813dd86a7066d9568790941c",
    "dense_xhat": "2e6c5aaf8880ed72b4b2066045cd2d721e5a706a1ca63ad045df4a82b26c3e52",
    "dense_u": "27567fbcf70ab3d0a7ce3c3d700b6d2464965233d6b3e635f65c4e9a35814e6d",
}
# the same for the other sample arrays, as logged one sample at a time by a
# loop that advanced separate encoder and decoder states, and of the repr of
# (kind, k, t) for each event
BUNDLED_SAMPLE_SHA256 = {
    "t": "421f2dec2e9e78748ff4ebb729d95d1e6d619d178acdf2bc5179a920c80c733a",
    "xhat": "38a7ba40ae59a13675689595a17a12429b3ec9b0d0eebb4f5b3a46eddff66fe4",
    "symbol": "07fc5a2a5be70b0e0146cd068daad1e792d6e6208415609470654cbd75083d23",
    "stage": "f747da8a9dd0ce509168f791d69199fa0e4ceb03afeebece180792bdeb8287e7",
    "radius": "a904510751701bcb39e1748ef1d106b4425fc894543b1196a580b7516e3f8a3d",
    "center": "cd8668a29ae2915a4cdce3ba3a389c3b83adf3c5d2f6a32fa6ebe5de8f908c8c",
    "value": "f64013c2412cc8d53b6ad14e3b1630ef86e309ae3d27b97714c8fbdee94d25b9",
    "d_sup_prev": "a6342e0fbbe78cd8e7cc6fdff0ac2ccfc5d2bc710db4d7a6e9dbe43acee70d70",
    "events": "adafe5ade57831764323ac7feeee21ab8b38881da527b06320ca366d3dd9f48f",
}


def _reference_pulses():
    return PulseTrain([(10.5, 10.7, [1.5]), (22.5, 22.7, [1.5])], dim=1)


def test_step_interval_pure_integrator():
    m = PlantModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), D=np.eye(2),
                   K=np.zeros((1, 2)), dt=0.5, n_levels=2)
    x = np.array([1.0, -1.0])
    c = np.array([0.2, 0.4])
    x_end, _, _ = step_interval(m, x, np.zeros(2), Stage.SEARCHING, Constant(c), 0.0,
                                substeps=10)
    assert np.max(np.abs(x_end - (x + 0.5 * c))) < 1e-12


def test_step_interval_homogeneous_searching(ref_plant):
    x = np.array([0.3, -0.7])
    x_end, xhat_end, _ = step_interval(ref_plant, x, x.copy(), Stage.SEARCHING,
                                       Zero(dim=1), 0.0, substeps=50)
    expected = expm(ref_plant.A, ref_plant.dt) @ x
    assert np.max(np.abs(x_end - expected)) < 1e-10
    assert np.max(np.abs(xhat_end - expected)) < 1e-10


def test_step_interval_stabilizing_zero_error(ref_plant):
    # starting exactly at the decoded center keeps the error at zero and
    # lands on the closed-loop one-step map
    c = np.array([0.4, 0.1])
    x_end, xhat_end, (ts, xs, xhats, us) = step_interval(
        ref_plant, c.copy(), c.copy(), Stage.STABILIZING, Zero(dim=1), 0.0,
        substeps=100)
    S = expm(ref_plant.closed_loop(), ref_plant.dt)
    assert np.max(np.abs(x_end - S @ c)) < 1e-10
    assert np.max(np.abs(xs - xhats)) < 1e-10  # error stays zero densely
    assert np.max(np.abs(us - xhats @ ref_plant.K.T)) == 0.0


def test_step_interval_substep_halving(ref_plant):
    # smooth disturbance forces the RK4 path; halving the substep moves the
    # endpoint by less than 1e-8 relative
    sig = Sinusoid([1.0], freq_hz=2.0)
    x = np.array([1.0, 1.0])
    ends = []
    for substeps in (100, 200):
        x_end, _, _ = step_interval(ref_plant, x, x.copy(), Stage.STABILIZING,
                                    sig, 0.0, substeps=substeps)
        ends.append(x_end)
    rel = np.max(np.abs(ends[0] - ends[1])) / max(np.max(np.abs(ends[1])), 1e-30)
    assert rel < 1e-8


def test_step_interval_splits_at_pulse_edges(ref_plant):
    # a pulse edge in the middle of a substep must not degrade the ZOH path:
    # compare against integrating the two half-intervals exactly
    sig = PulseTrain([(0.0333, 0.1, [2.0])], dim=1)
    x = np.array([0.5, -0.2])
    x_end, _, _ = step_interval(ref_plant, x, x.copy(), Stage.SEARCHING, sig, 0.0,
                                substeps=10)
    A = ref_plant.A
    n = 2
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = A
    blk[:n, n:] = np.eye(n)

    def zoh(x0, h, d):
        E = expm(blk, h)
        return E[:n, :n] @ x0 + E[:n, n:] @ (ref_plant.D @ np.array([d]))

    mid = zoh(x, 0.0333, 0.0)
    expected = zoh(mid, 0.1 - 0.0333, 2.0)
    assert np.max(np.abs(x_end - expected)) < 1e-11


def test_run_closed_loop_equilibrium(ref_plant, cert_params, cert_derived):
    log = run_closed_loop(ref_plant, cert_params, cert_derived, Zero(dim=1),
                          np.zeros(2), 5.0, substeps=10)
    assert log.events == []
    assert np.max(np.abs(log.x)) == 0.0
    assert np.all(log.symbol == 1)  # always in the near-origin cell


def test_run_closed_loop_determinism(ref_plant, cert_params, cert_derived):
    runs = [run_closed_loop(ref_plant, cert_params, cert_derived, _reference_pulses(),
                            np.array([1.0, 1.0]), 12.0, substeps=20)
            for _ in range(2)]
    assert runs[0].x.tobytes() == runs[1].x.tobytes()
    assert runs[0].radius.tobytes() == runs[1].radius.tobytes()
    assert runs[0].dense_x.tobytes() == runs[1].dense_x.tobytes()
    assert [(e.kind, e.k) for e in runs[0].events] == [(e.kind, e.k) for e in runs[1].events]


def test_run_closed_loop_reference_events(ref_plant, cert_params, cert_derived):
    log = run_closed_loop(ref_plant, cert_params, cert_derived, _reference_pulses(),
                          np.array([1.0, 1.0]), 30.0, substeps=50)
    kinds = [e.kind for e in log.events]
    # lost at the start, captured within eta_x(2) = 4 samples, then one
    # escape/recapture pair per pulse
    assert log.symbol[0] == 0
    assert kinds[0] == "captured" and log.events[0].k <= 4
    escapes = [e for e in log.events if e.kind == "escaped"]
    assert len(escapes) == 2
    assert escapes[0].t > 10.5 and escapes[1].t > 22.5
    # alternation after the first capture
    for a, b in zip(log.events, log.events[1:]):
        assert {a.kind, b.kind} == {"captured", "escaped"}


def test_lockstep_states_recorded(ref_plant, cert_params, cert_derived):
    log, again = (run_closed_loop(ref_plant, cert_params, cert_derived, _reference_pulses(),
                                  np.array([1.0, 1.0]), 8.0, substeps=10) for _ in range(2))
    assert log.events and check_oracle.replay_mismatches(log, ref_plant, cert_params,
                                                         cert_derived) == []
    assert check_oracle.differing_fields(log, again, vars(log)) == []


def test_run_decodes_and_values_each_sample_once(monkeypatch, ref_plant, cert_params,
                                                  cert_derived):
    calls = Counter()
    for name in ("decode_center", "quad_value"):
        def counted(*args, _fn=getattr(codec, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(codec, name, counted)
    log = run_closed_loop(ref_plant, cert_params, cert_derived, _reference_pulses(),
                          np.array([1.0, 1.0]), 30.0, substeps=1)
    # the loop hands advance the center and value it computed for the sample
    assert calls == {"decode_center": np.count_nonzero(log.symbol >= 1),
                     "quad_value": log.symbol.size}


def test_each_interval_runs_in_the_stage_advance_decided(monkeypatch, ref_plant, cert_params,
                                                         cert_derived):
    decided, stepped, fed_back = [], [], []
    for module, name, record in (
            (codec, "advance", lambda args, out: decided.append(out.stage)),
            (plant_mod, "step_interval", lambda args, out: stepped.append(args[3])),
            (codec, "controller_input", lambda args, out: fed_back.append(args[0]))):
        def recorded(*args, _fn=getattr(module, name), _record=record):
            out = _fn(*args)
            _record(args, out)
            return out
        monkeypatch.setattr(module, name, recorded)
    log = run_closed_loop(ref_plant, cert_params, cert_derived, _reference_pulses(),
                          np.array([1.0, 1.0]), 30.0, substeps=1)
    # one stage per interval, decided once by the codec from the symbol alone
    assert len(stepped) == log.symbol.size - 1 and stepped == decided == fed_back
    assert stepped == [Stage.STABILIZING if s >= 1 else Stage.SEARCHING
                       for s in log.symbol[:-1].tolist()]


def test_run_keeps_the_call_contract_the_benchmark_tracer_counts(monkeypatch, ref_plant,
                                                                  cert_params, cert_derived):
    # The benchmark's tracer wraps these functions by module attribute, so a
    # private path would read as zero, and reads step_interval's arguments by
    # position: 6 substeps, 7 zoh_cache, and 8 a decimation that no longer
    # exists, so no ninth argument may appear.
    m = PlantModel(A=ref_plant.A, B=ref_plant.B, D=ref_plant.D, K=ref_plant.K,
                   dt=ref_plant.dt, n_levels=ref_plant.n_levels)  # nothing built for it yet
    symbols, advanced, steps, blocks = [], [], [], []

    def counted(module, name, record):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            record(args, kwargs, out)
            return out
        monkeypatch.setattr(module, name, wrapper)

    counted(codec, "encode", lambda args, kwargs, out: symbols.append(out))
    counted(codec, "advance", lambda args, kwargs, out: advanced.append(args[1]))
    counted(plant_mod, "step_interval", lambda args, kwargs, out: steps.append((args, kwargs, out)))
    counted(plant_mod, "_zoh_pair", lambda args, kwargs, out: blocks.append(args[0]))
    built = plant_mod._augmented.cache_info().misses
    sig = PulseTrain([(t, t + 0.2, [1.5]) for t in (10.0, 25.0, 40.0, 55.0, 70.0, 85.0)], dim=1)
    log = run_closed_loop(m, cert_params, cert_derived, sig, np.array([1.0, -0.5]), 300.0)

    assert len(symbols) == log.symbol.size == 3001 and symbols == log.symbol.tolist()
    assert 0 < symbols.count(0) == np.count_nonzero(log.symbol == 0)
    assert len(steps) == len(advanced) == 3000 and advanced == symbols[:-1]
    assert all(len(args) == 8 and kwargs == {} for args, kwargs, _ in steps)
    caches = {id(args[7]): args[7] for args, _, _ in steps}
    assert len(caches) == 1
    first_use = dict.fromkeys((args[3], h) for args, _, (_, _, (ts, *_)) in steps
                              for h in (ts[1:] - ts[:-1]).tolist())
    cache = caches.popitem()[1]
    assert list(cache) == list(first_use)
    assert all(type(stage) is Stage and type(h) is float for stage, h in cache)
    # each stage's block matrix is built once for the plant, then shared
    assert plant_mod._augmented.cache_info().misses - built == 2
    assert len({id(M) for M in blocks}) == 2 and len(blocks) == len(cache)


def test_run_keeps_one_plan_per_stage_and_width_pattern(monkeypatch, ref_plant, cert_params,
                                                        cert_derived):
    # The plans of a 300 s pulses run are those of its breakpoint-free
    # intervals' distinct (stage, substep widths), and the pairs beside them
    # are the ones the contract test above lists, in its order.
    steps = []
    orig = plant_mod.step_interval

    def recorded(*args):
        out = orig(*args)
        steps.append((args, out[2][0]))
        return out

    monkeypatch.setattr(plant_mod, "step_interval", recorded)
    sig = PulseTrain([(t, t + 0.2, [1.5]) for t in (10.0, 25.0, 40.0, 55.0, 70.0, 85.0)], dim=1)
    run_closed_loop(ref_plant, cert_params, cert_derived, sig, np.array([1.0, -0.5]), 300.0)
    cache = steps[0][0][7]
    assert len(steps) == 3000 and all(args[7] is cache for args, _ in steps)
    plain = [(args[3], np.diff(ts).tobytes()) for args, ts in steps
             if not sig.breakpoints(args[5], args[5] + ref_plant.dt)]
    assert set(cache.plans) == set(plain) and len(cache.plans) < 40 < len(plain)
    first_use = dict.fromkeys((args[3], h) for args, ts in steps for h in np.diff(ts).tolist())
    assert list(cache) == list(first_use)
    assert cache.buf.shape == (101, 4)


@st.composite
def _any_disturbance(draw):
    kind = draw(st.sampled_from(["zero", "constant", "pulses", "sinusoid", "uniform"]))
    level = st.floats(-2.0, 2.0)
    if kind == "zero":
        return Zero(dim=1)
    if kind == "constant":
        return Constant([draw(level)])
    if kind == "pulses":
        start, width = draw(st.floats(0.0, 2.5)), draw(st.floats(0.01, 1.0))
        return PulseTrain([(start, start + width, [draw(level)])], dim=1)
    if kind == "sinusoid":
        return Sinusoid([draw(level)], freq_hz=draw(st.floats(0.1, 3.0)),
                        phase=draw(st.floats(0.0, 6.3)))
    return SeededUniform(bound=draw(st.floats(0.0, 2.0)), seed=draw(st.integers(0, 2**32)),
                         hold=draw(st.floats(0.01, 1.0)))


@settings(max_examples=40, deadline=None)
@given(_any_disturbance(), st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_run_fields_are_the_replay_of_its_symbols(ref_plant, cert_params, cert_derived,
                                                  sig, x0):
    # Whatever the disturbance, what the decoder rebuilds from the symbols
    # alone is what the run logged, to the bit.
    log = run_closed_loop(ref_plant, cert_params, cert_derived, sig, np.array(x0), 3.0,
                          substeps=5)
    assert check_oracle.replay_mismatches(log, ref_plant, cert_params, cert_derived) == []


def test_zero_disturbance_containment():
    # with no disturbance, a visible state stays inside the propagated range
    rng = np.random.default_rng(31)
    hints = DesignParams(radius0=0.5, search_margin=0.2, dist_level=0.1,
                         psi=0.2, rho=1.0, phi=0.01)
    for _ in range(10):
        m = make_random_plant(rng)
        p = synthesize_design(m, hints)
        d = derive_constants(m, p)
        x0 = rng.uniform(-0.4, 0.4, m.n_x)
        log = run_closed_loop(m, p, d, Zero(dim=1), x0, 3.0, substeps=10)
        assert [e for e in log.events if e.kind == "escaped"] == []
        err = np.max(np.abs(log.x - log.center), axis=1)
        assert np.all(err <= log.radius + 1e-9)


def test_searching_domination(ref_plant, cert_params, cert_derived):
    # far-away start: radius growth must outpace the open-loop error growth
    log = run_closed_loop(ref_plant, cert_params, cert_derived, Zero(dim=1),
                          np.array([50.0, 50.0]), 5.0, substeps=10)
    captured = next(e.k for e in log.events if e.kind == "captured")
    err = np.max(np.abs(log.x - log.center), axis=1)
    ratio = log.radius[:captured] / err[:captured]
    assert np.all(np.diff(ratio) >= -1e-12)


def test_xhat_endpoint_matches_propagated_center(ref_plant, cert_params, cert_derived):
    # the auxiliary flow must land on the propagated center at each sample
    log = run_closed_loop(ref_plant, cert_params, cert_derived, _reference_pulses(),
                          np.array([1.0, 1.0]), 12.0, substeps=20)
    for k in range(log.n_samples - 1):
        mask = log.dense_k == k
        end_xhat = log.dense_xhat[mask][-1]
        assert np.max(np.abs(end_xhat - log.center[k + 1])) < 1e-8 * max(
            1.0, np.max(np.abs(log.center[k + 1])))


def test_run_rejects_bad_inputs(ref_plant, cert_params, cert_derived):
    with pytest.raises(ValueError):
        run_closed_loop(ref_plant, cert_params, cert_derived, Zero(dim=1),
                        np.zeros(3), 5.0)
    with pytest.raises(ValueError):
        run_closed_loop(ref_plant, cert_params, cert_derived, Zero(dim=2),
                        np.zeros(2), 5.0)
    with pytest.raises(ValueError):
        run_closed_loop(ref_plant, cert_params, cert_derived, Zero(dim=1),
                        np.zeros(2), 0.05)


def _step_interval_per_segment(m, x, xhat, stage, sig, t_k, substeps, cache):
    """Reference stepper, one segment at a time: ZOH with the input at each
    segment's midpoint, or RK4 with a fresh input at every stage."""
    n = m.n_x

    def w_of(t):
        w = np.zeros(2 * n)
        w[:n] = m.D @ sig.value(t)
        return w

    z = np.concatenate([x, xhat])
    M = _augmented(m, stage)
    edges = t_k + (m.dt / substeps) * np.arange(substeps + 1)
    bps = sig.breakpoints(t_k, t_k + m.dt)
    if bps:
        merged = np.concatenate([edges, np.asarray(bps, dtype=float)])
        merged.sort()
        keep = np.concatenate([[True], np.diff(merged) > 1e-12 * m.dt])
        edges = merged[keep]
        edges[-1] = t_k + m.dt
    rec_t, rec_z = [], []
    for i in range(edges.size - 1):
        a, b = edges[i], edges[i + 1]
        rec_t.append(a)
        rec_z.append(z)
        h = b - a
        if not sig.piecewise_constant:
            k1 = M @ z + w_of(a)
            k2 = M @ (z + 0.5 * h * k1) + w_of(a + 0.5 * h)
            k3 = M @ (z + 0.5 * h * k2) + w_of(a + 0.5 * h)
            k4 = M @ (z + h * k3) + w_of(a + h)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            continue
        if (stage, h) not in cache:
            cache[(stage, h)] = _zoh_pair(M, h)
        Phi, Psi = cache[(stage, h)]
        z = Phi @ z + Psi @ w_of(0.5 * (a + b))
    rec_t.append(edges[-1])
    rec_z.append(z)
    ts, zs = np.asarray(rec_t), np.asarray(rec_z)
    xs, xhats = zs[:, :n], zs[:, n:]
    us = xhats @ m.K.T if stage is Stage.STABILIZING else np.zeros((ts.size, m.n_u))
    return zs[-1, :n].copy(), zs[-1, n:].copy(), (ts, xs, xhats, us)


def _plant_3x2():
    m = make_random_plant(np.random.default_rng(7), n=3)
    D = np.random.default_rng(8).uniform(-1.0, 1.0, (3, 2))
    return PlantModel(A=m.A, B=m.B, D=D, K=m.K, dt=m.dt, n_levels=m.n_levels)


@pytest.mark.parametrize("plant, sig", [
    ("bundled", _reference_pulses()),
    ("bundled", SeededUniform(bound=0.05, seed=3, hold=0.37)),
    ("bundled", SeededUniform(bound=0.08, seed=5, hold=0.1)),
    ("bundled", Sinusoid([0.05], freq_hz=0.5, phase=0.3)),
    ("3x2", Sinusoid([0.05, -0.03], freq_hz=0.7, phase=0.3)),
    # edges off the substep grid, and two pulses sharing an edge
    ("3x2", PulseTrain([(0.0337, 1.2113, [1.5, -0.4]), (1.2113, 2.35001, [-0.2, 0.9]),
                        (5.00007, 6.1, [0.3, 0.3])], dim=2)),
], ids=["pulses", "uniform", "uniform_hold_dt", "sinusoid_rk4", "3x2_sinusoid_rk4",
        "3x2_pulses_off_grid"])
def test_step_interval_matches_per_segment_loop_bitwise(plant, sig, ref_plant, cert_params,
                                                        cert_derived):
    # Breakpoint-free intervals of a piecewise-constant signal take the
    # constant-input fast path, the others the segment loop.
    if plant == "bundled":
        # every interval of a logged run, restarted from its logged state
        m = ref_plant
        log = run_closed_loop(m, cert_params, cert_derived, sig, np.array([1.0, 1.0]), 30.0,
                              substeps=50)
        starts = [(log.x[k], log.xhat[k], log.stage[k], log.t[k])
                  for k in range(log.n_samples - 1)]
    else:
        # a 3-state plant with two disturbance channels, from random states
        m, rng = _plant_3x2(), np.random.default_rng(3)
        starts = [(rng.standard_normal(3), rng.standard_normal(3), k % 2, k * m.dt)
                  for k in range(80)]
    fast_cache, ref_cache = _ZohCache(), {}
    for x, xhat, stabilizing, t_k in starts:
        stage = Stage.STABILIZING if stabilizing else Stage.SEARCHING
        args = (m, x, xhat, stage, sig, t_k, 50)
        x_end, xhat_end, dense = step_interval(*args, fast_cache)
        ref_x, ref_xhat, ref_dense = _step_interval_per_segment(*args, ref_cache)
        assert np.array_equal(x_end, ref_x) and np.array_equal(xhat_end, ref_xhat), t_k
        for got, want in zip(dense, ref_dense):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), t_k
    assert list(fast_cache) == list(ref_cache)


def test_step_interval_replays_a_runs_plans_bitwise(ref_plant):
    # One run's cache across a sequence of intervals, twice over, the stages
    # alternating and swapped in the second pass; plain intervals of equal
    # substep widths and stage replay one plan.  The inputs are +0.0, a -0.0 pulse, a
    # 1.5 pulse and a -0.7 pulse.  Interval 11 ends just past the 1.5
    # pulse's end and takes the split path with no extra edge; the -0.7
    # pulse starts off the grid in interval 14, whose extra edge grows the
    # rows that the plain intervals 13 and 15 step in.
    m = ref_plant
    sig = PulseTrain([(0.5, 0.8, [-0.0]), (0.8, 1.2, [1.5]), (1.40337, 1.6, [-0.7])], dim=1)
    rng = np.random.default_rng(11)
    cache, ref_cache, plain = _ZohCache(), {}, []
    for swap in (0, 1):
        for k in range(20):
            stage = Stage.STABILIZING if (k + swap) % 2 else Stage.SEARCHING
            x, xhat = ((np.array([0.0, -0.0]), np.array([-0.0, 0.0])) if k % 5 == 0
                       else (rng.standard_normal(2), rng.standard_normal(2)))
            args = (m, x, xhat, stage, sig, k * m.dt, 100)
            got, want = step_interval(*args, cache), _step_interval_per_segment(*args, ref_cache)
            for a, b in zip(got[:2] + got[2], want[:2] + want[2]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (swap, k)
            if not sig.breakpoints(k * m.dt, (k + 1) * m.dt):
                plain.append((stage, np.diff(got[2][0]).tobytes()))
    assert [k for k in range(20) if sig.breakpoints(k * m.dt, (k + 1) * m.dt)] == [11, 14]
    assert cache.buf.shape == (102, 4)
    assert list(cache) == list(ref_cache)
    assert set(cache.plans) == set(plain) and len(cache.plans) < len(plain) == 2 * 18


def test_one_run_state_carries_rk4_split_and_plain_intervals_bitwise(ref_plant):
    # One cache in turn through an RK4 interval, a pulse interval whose
    # off-grid edge grows the rows to 102, an RK4 interval in the grown
    # rows, and a plain ZOH interval; each is the per-segment loop's, and
    # only the plain interval keeps a plan.
    m = ref_plant
    sine = Sinusoid([0.05], freq_hz=0.5, phase=0.3)
    pulse = PulseTrain([(0.40337, 0.9, [1.5])], dim=1)
    rng = np.random.default_rng(23)
    cache, ref_cache = _ZohCache(), {}
    for k, sig, stage, n_rows in ((3, sine, Stage.STABILIZING, 101),
                                  (4, pulse, Stage.SEARCHING, 102),
                                  (5, sine, Stage.SEARCHING, 101),
                                  (6, pulse, Stage.STABILIZING, 101)):
        args = (m, rng.standard_normal(2), rng.standard_normal(2), stage, sig, k * m.dt, 100)
        got, want = step_interval(*args, cache), _step_interval_per_segment(*args, ref_cache)
        for a, b in zip(got[:2] + got[2], want[:2] + want[2]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), k
        assert got[2][0].size == n_rows and cache.buf.shape == (101 if k == 3 else 102, 4)
    assert list(cache) == list(ref_cache) and len(ref_cache) > 2
    assert [stage for stage, _ in cache.plans] == [Stage.STABILIZING]


def test_step_interval_takes_a_run_state_or_none_as_its_cache(ref_plant):
    x = np.array([0.5, -0.2])
    with pytest.raises(TypeError, match="^zoh_cache must be None or a _ZohCache, not dict$"):
        step_interval(ref_plant, x, x, Stage.SEARCHING, Zero(dim=1), 0.0, 10, {})


def _two_call_steps(cache, stage, hs, z0, w):
    """The ZOH stepper's per-substep loop: z <- Phi_h z into a buffer, then
    that plus Psi_h w into the next row, with ``w`` one row for all
    segments or one per segment."""
    zs = np.empty((len(hs) + 1, z0.size))
    zs[0] = z0
    phi_z = np.empty(z0.size)
    for i, h in enumerate(hs):
        Phi, Psi = cache[(stage, h)]
        Phi.dot(zs[i], phi_z)
        np.add(phi_z, Psi @ w[0 if len(w) == 1 else i], zs[i + 1])
    return zs


_SPARSE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


@st.composite
def _zoh_cases(draw):
    """(M, stage, widths, z0, inputs) for one call of ``_zoh_steps``.

    M is a drawn plant's block dynamics, with D <= 0 (its zeros -0), or a
    bare square matrix of size 1 to 3: numpy's 1x1 ``dot`` returns -0 for
    a zero product where BLAS returns +0, so its chains carry signed zeros.
    The inputs are one row for the whole interval or one per segment; each
    is zero (of either sign) or not, and a split interval may be all zero.
    """
    def mat(rows, cols):
        return np.array(draw(st.lists(_SPARSE, min_size=rows * cols,
                                      max_size=rows * cols))).reshape(rows, cols)

    stage = draw(st.sampled_from(list(Stage)))
    if draw(st.booleans()):
        n, n_d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        m = PlantModel(A=mat(n, n), B=mat(n, 1), D=-np.abs(mat(n, n_d)), K=mat(1, n),
                       dt=0.1, n_levels=3)
        M, size = _augmented(m, stage), 2 * n

        def input_row(kind):
            d = {"+0": np.zeros(n_d), "-0": np.full(n_d, -0.0)}.get(kind)
            w = np.zeros(size)
            w[:n] = m.D @ (mat(n_d, 1)[:, 0] if d is None else d)
            return w
    else:
        size = draw(st.integers(1, 3))
        M = mat(size, size)

        def input_row(kind):
            return {"+0": np.zeros(size), "-0": np.full(size, -0.0)}.get(kind, mat(1, size)[0])

    hs = draw(st.lists(st.sampled_from([1e-3, 2.5e-3, 0.1 / 3]), min_size=1, max_size=30))
    kinds = st.sampled_from(["+0", "-0"] if draw(st.booleans()) else ["+0", "-0", "value"])
    n_rows = len(hs) if draw(st.booleans()) else 1
    w = np.array([input_row(k) for k in draw(st.lists(kinds, min_size=n_rows,
                                                      max_size=n_rows))])
    z0 = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, math.inf, math.nan]),
                                          st.floats(-5.0, 5.0)),
                                min_size=size, max_size=size)))
    return M, stage, hs, z0, w


@settings(PROPERTY_PROFILE, max_examples=max(300, PROPERTY_PROFILE.max_examples),
          deadline=None)
@given(_zoh_cases())
def test_zoh_steps_match_the_two_call_loop_bitwise(case):
    # An autonomous interval steps with the gemv alone and adds +0.0 once;
    # every record, signed zeros and non-finite entries included, must be
    # the per-substep loop's.  A run's cache builds the plan of a one-row
    # interval on the first call and replays it on the second.
    M, stage, hs, z0, w = case
    cache = _ZohCache()
    for _ in range(2):
        zs = np.empty((len(hs) + 1, z0.size))
        zs[0] = z0
        with np.errstate(over="ignore", invalid="ignore"):
            _zoh_steps(M, stage, np.array(hs), zs, cache, w)
            want = _two_call_steps(cache, stage, hs, z0, w)
        assert zs.tobytes() == want.tobytes()
    assert list(cache) == [(stage, h) for h in dict.fromkeys(hs)]
    assert len(cache.plans) == (len(w) == 1)


def test_zero_input_interval_adds_once_not_per_substep(monkeypatch, ref_plant):
    # Each substep of an interval with an input is one gemv and one add; an
    # interval without one is 100 gemvs and a single add over its records.
    shapes = []
    add = np.add

    def counted(*args, **kwargs):
        shapes.append(np.shape(args[0]))
        return add(*args, **kwargs)

    monkeypatch.setattr(np, "add", counted)
    x = np.array([0.5, -0.2])
    for sig, want in ((Zero(dim=1), [(100, 4)]), (Constant([0.3]), [(4,)] * 100)):
        shapes.clear()
        step_interval(ref_plant, x, x.copy(), Stage.STABILIZING, sig, 0.0, substeps=100)
        assert shapes == want, sig

@pytest.mark.parametrize("n", range(1, 7))
def test_ndarray_dot_and_matmul_round_alike(n):
    # step_interval forms M z as M.dot(z, out) and the inputs D d(t) as one
    # stacked matmul; its bits are those of M @ z and D @ d(t) only while
    # numpy sends all of them to the same BLAS gemv.
    rng = np.random.default_rng(n)
    why = f"numpy {np.__version__} rounds (2n, 2n) @ (2n,) products differently at n = {n}"
    out = np.empty(2 * n)
    for _ in range(500):
        M = rng.standard_normal((2 * n, 2 * n)) * 10.0 ** rng.uniform(-3, 3, (2 * n, 2 * n))
        z = rng.standard_normal(2 * n)
        M.dot(z, out)
        assert out.tobytes() == (M @ z).tobytes(), f"{why}: ndarray.dot against np.matmul"
        D, ds = M[:, :n], rng.standard_normal((7, n))
        stacked = np.matmul(D, ds[:, :, None])[:, :, 0]
        assert stacked.tobytes() == np.array([D @ d for d in ds]).tobytes(), (
            f"{why}: a stacked matmul against one matmul per vector")


def test_bundled_run_matches_pinned_bits():
    cfg = bundled_scenario(certified=True)
    d = derive_constants(cfg.plant, cfg.design)
    log = run_closed_loop(cfg.plant, cfg.design, d, cfg.disturbance, cfg.x0, cfg.horizon,
                          cfg.substeps)
    assert hashlib.sha256(log.x.tobytes()).hexdigest() == BUNDLED_X_SHA256
    for name, digest in BUNDLED_DENSE_SHA256.items():
        a = getattr(log, name)
        assert a.dtype == (np.int64 if name == "dense_k" else np.float64)
        assert hashlib.sha256(a.tobytes()).hexdigest() == digest, name
    for name, digest in BUNDLED_SAMPLE_SHA256.items():
        if name == "events":
            data = repr([(e.kind, e.k, e.t) for e in log.events]).encode()
        else:
            a = getattr(log, name)
            assert a.dtype == (np.int64 if name in ("symbol", "stage") else np.float64)
            data = a.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


@pytest.mark.parametrize("sig, n_dense", [
    (None, 300 * 101),
    # pulse edges between substep edges add one record to four intervals
    (PulseTrain([(10.5005, 10.7005, [1.5]), (22.5005, 22.7005, [1.5])], dim=1), 300 * 101 + 4),
    # 30,000 hold edges, every one on a substep edge
    (SeededUniform(0.05, 3, hold=0.001), 300 * 101),
], ids=["bundled", "off_grid_pulses", "uniform_on_grid"])
def test_run_peak_memory_stays_near_the_log(sig, n_dense):
    cfg = bundled_scenario(certified=True)
    sig = cfg.disturbance if sig is None else sig
    sig.sup_norm(0.0, cfg.horizon)  # draw all noise first: it is not the log's
    d = derive_constants(cfg.plant, cfg.design)
    tracemalloc.start()
    try:
        log = run_closed_loop(cfg.plant, cfg.design, d, sig, cfg.x0, cfg.horizon,
                              cfg.substeps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.dense_t.size == n_dense
    log_bytes = sum(v.nbytes for v in vars(log).values() if isinstance(v, np.ndarray))
    # collecting per-interval arrays and concatenating them peaks near 2x
    assert peak < 1.3 * log_bytes


@pytest.mark.parametrize("sig", [
    # pulses starting just after a sample instant and ending exactly on one
    PulseTrain([(50 * 0.1 + 5e-10, 60 * 0.1, [1.5]), (120 * 0.1, 121 * 0.1 + 1e-12, [-0.7])]),
    SeededUniform(0.05, 3, hold=0.37),
    Sinusoid([0.05], 0.5, 0.3),
], ids=["pulses", "uniform", "sinusoid"])
def test_d_sup_prev_is_the_scalar_sup_of_each_interval(sig):
    cfg = bundled_scenario(certified=True)
    d = derive_constants(cfg.plant, cfg.design)
    log = run_closed_loop(cfg.plant, cfg.design, d, sig, cfg.x0, 15.0, 10)
    want = [0.0] + [signal_oracle.sup_norm(sig, a, b) for a, b in zip(log.t[:-1], log.t[1:])]
    assert log.d_sup_prev.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("sig", [
    SeededUniform(0.05, 3, hold=0.001),
    SeededUniform(0.05, 3, hold=0.0123),
    # one pulse edge within 1e-12 * dt of a substep edge, one just past it
    PulseTrain([(5 + 5e-14, 6.0, [1.5]), (12.0, 12.1 + 2e-13, [-0.7])], dim=1),
], ids=["uniform_on_grid", "uniform_off_grid", "pulses_near_edges"])
@pytest.mark.parametrize("substeps", [7, 10])
def test_off_grid_count_is_the_edges_step_interval_adds(sig, substeps):
    m = bundled_scenario().plant
    n_steps = 150
    added = 0
    for k in range(n_steps):
        x = np.zeros(m.n_x)
        edges = step_interval(m, x, x, Stage.SEARCHING, sig, k * m.dt, substeps)[2][0]
        added += edges.size - (substeps + 1)
    bps = np.array(sig.breakpoints(0.0, n_steps * m.dt))
    assert _off_grid_count(bps, m.dt, substeps) == added


def test_dense_arrays_own_only_their_records():
    # All 30,000 breakpoints fall on substep edges and are dropped: the
    # buffers hold 30,300 records and nothing past them.
    cfg = bundled_scenario(certified=True)
    sig = SeededUniform(0.05, 3, hold=0.001)
    d = derive_constants(cfg.plant, cfg.design)
    log = run_closed_loop(cfg.plant, cfg.design, d, sig, cfg.x0, 30.0, 100)
    assert log.dense_t.size == 300 * 101
    for name in ("dense_t", "dense_k", "dense_x", "dense_xhat", "dense_u"):
        a = getattr(log, name)
        assert a.base is None and a.flags.owndata, name
        assert a.shape[0] == log.dense_t.size, name


def test_dense_log_grows_past_its_capacity():
    rng = np.random.default_rng(4)
    chunks = [(k, rng.standard_normal(s), rng.standard_normal((s, 2)),
               rng.standard_normal((s, 2)), rng.standard_normal((s, 1)))
              for k, s in enumerate([3, 5, 1, 7, 2])]
    dense = _DenseLog(4, 2, 1)
    for chunk in chunks:
        dense.append(*chunk)
    got = dense.arrays()
    assert np.array_equal(got["dense_k"], np.repeat(np.arange(5), [3, 5, 1, 7, 2]))
    for i, name in enumerate(("dense_t", "dense_x", "dense_xhat", "dense_u"), start=1):
        assert np.array_equal(got[name], np.concatenate([c[i] for c in chunks]))


def _count_value_calls(monkeypatch, cls):
    calls = []
    orig = cls.value

    def counted(self, t):
        calls.append(t)
        return orig(self, t)

    monkeypatch.setattr(cls, "value", counted)
    return calls


def test_step_interval_evaluates_constant_input_once(monkeypatch, ref_plant):
    sig = PulseTrain([(0.0333, 0.1, [2.0])], dim=1)
    calls = _count_value_calls(monkeypatch, PulseTrain)
    x = np.array([0.5, -0.2])
    # breakpoint-free interval: one evaluation for all 100 substeps
    _, _, (ts, _, _, _) = step_interval(ref_plant, x, x.copy(), Stage.SEARCHING, sig, 0.1,
                                        substeps=100)
    assert ts.size == 101 and len(calls) == 1 and np.shape(calls[0]) == (1,)
    # an interval split at a pulse edge evaluates every segment's midpoint,
    # all in one call
    calls.clear()
    _, _, (ts, _, _, _) = step_interval(ref_plant, x, x.copy(), Stage.SEARCHING, sig, 0.0,
                                        substeps=100)
    assert len(calls) == 1
    assert calls[0].tolist() == (0.5 * (ts[:-1] + ts[1:])).tolist() and ts.size - 1 == 101


def test_step_interval_evaluates_rk4_inputs_in_one_call(monkeypatch, ref_plant):
    sig = Sinusoid([0.05], freq_hz=0.5, phase=0.3)
    calls = _count_value_calls(monkeypatch, Sinusoid)
    x = np.array([0.5, -0.2])
    _, _, (ts, _, _, _) = step_interval(ref_plant, x, x.copy(), Stage.SEARCHING, sig, 0.1,
                                        substeps=100)
    # each substep's midpoint and end, and the first start: the other
    # starts are the previous ends
    assert len(calls) == 1
    a, h = ts[:-1], np.diff(ts)
    assert sorted(calls[0].tolist()) == sorted((a + 0.5 * h).tolist() + (a + h).tolist()
                                               + [ts[0]])
