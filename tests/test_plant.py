import hashlib
import tracemalloc

import numpy as np
import pytest

import signal_oracle
from conftest import make_random_plant
from qrate import (Constant, DesignParams, PlantModel, PulseTrain, SeededUniform, Sinusoid,
                   Zero, bundled_scenario, derive_constants, run_closed_loop, step_interval,
                   synthesize_design)
from qrate.codec import Stage
from qrate.matnum import expm
from qrate.plant import _augmented, _DenseLog, _zoh_pair

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
    log = run_closed_loop(ref_plant, cert_params, cert_derived, _reference_pulses(),
                          np.array([1.0, 1.0]), 8.0, substeps=10)
    assert len(log.enc_states) == log.n_samples
    for a, b in zip(log.enc_states, log.dec_states):
        assert a == b


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


@pytest.mark.parametrize("sig", [
    _reference_pulses(),
    SeededUniform(bound=0.05, seed=3, hold=0.37),
    SeededUniform(bound=0.08, seed=5, hold=0.1),
    Sinusoid([0.05], freq_hz=0.5, phase=0.3),
], ids=["pulses", "uniform", "uniform_hold_dt", "sinusoid_rk4"])
def test_step_interval_matches_per_segment_loop_bitwise(ref_plant, cert_params, cert_derived,
                                                        sig):
    # Every interval of a logged run, restarted from its logged state:
    # breakpoint-free intervals of a piecewise-constant signal take the
    # constant-input fast path, the others the segment loop.
    log = run_closed_loop(ref_plant, cert_params, cert_derived, sig, np.array([1.0, 1.0]),
                          30.0, substeps=50)
    fast_cache, ref_cache = {}, {}
    for k in range(log.n_samples - 1):
        stage = Stage.STABILIZING if log.stage[k] else Stage.SEARCHING
        args = (ref_plant, log.x[k], log.xhat[k], stage, sig, log.t[k], 50)
        x_end, xhat_end, dense = step_interval(*args, fast_cache)
        ref_x, ref_xhat, ref_dense = _step_interval_per_segment(*args, ref_cache)
        assert np.array_equal(x_end, ref_x) and np.array_equal(xhat_end, ref_xhat), k
        for got, want in zip(dense, ref_dense):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), k
    assert list(fast_cache) == list(ref_cache)


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


@pytest.mark.parametrize("pulses, n_dense", [
    (None, 300 * 101),
    # pulse edges between substep edges add one record to four intervals
    ([(10.5005, 10.7005, [1.5]), (22.5005, 22.7005, [1.5])], 300 * 101 + 4),
], ids=["bundled", "off_grid_pulses"])
def test_run_peak_memory_stays_near_the_log(pulses, n_dense):
    cfg = bundled_scenario(certified=True)
    sig = cfg.disturbance if pulses is None else PulseTrain(pulses, dim=1)
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


def test_dense_arrays_own_only_their_records():
    # Breakpoints on substep edges are dropped, so the buffers sized with
    # every breakpoint (60,300 rows) hold 30,300 records at the end.
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
    assert ts.size == 101 and len(calls) == 1
    # an interval split at a pulse edge keeps one evaluation per segment
    calls.clear()
    _, _, (ts, _, _, _) = step_interval(ref_plant, x, x.copy(), Stage.SEARCHING, sig, 0.0,
                                        substeps=100)
    assert len(calls) == ts.size - 1 == 101
