import functools
import gc
import hashlib
import math
import re
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_oracle
import signal_oracle
from conftest import PROPERTY_PROFILE, make_random_plant
from qrate import codec, matnum, signals
from qrate import plant as plant_mod
from qrate import (Constant, DesignParams, Disturbance, PlantModel, PulseTrain, SeededUniform,
                   Sinusoid, Zero, bundled_scenario, derive_constants, run_closed_loop, step_interval,
                   synthesize_design)
from qrate.codec import Stage
from qrate.matnum import expm
from qrate.plant import _Run, _zoh_pair, _zoh_program, _zoh_steps

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
# sha256 of the dense_t, dense_k and dense_u of 30 s runs of the bundled
# certified plant, by disturbance and substeps, as each interval wrote its
# own edges, interval index and controller input
DENSE_GRID_SHA256 = {
    ("pulses", 1): (
        "d87ceaca15d0d573ee6fd023100d42a4dcb1868e1f8e2164d490f91b15b7c8b1",
        "6175426fd34b59c007621f5b69158f0bda59518f1dbd1c70f46f9e3a363735a7",
        "e626ad9022ea26f073ad568bde0eaf90ad293a8545ab49f0f71e818c024f5b5e"),
    ("pulses", 7): (
        "1199afd567f43844824456a7f4992373fa722bf34bef4b30afe5585a5ba93cfb",
        "df81f89dad348599d83b33cbe49fc3aa1059c9253a4459e2a5d1e84cdc1df60e",
        "2ab8dc23988cd999d8dc50f9496631af394052af2d2eb7b09d2db32dcaa7c523"),
    ("pulses", 100): (
        "9efce64b3b370f9d8ae916733be60627fde7a4b32812fe75715d7b1f569b40a2",
        "c325cc15f04c046ff8cb3511283567e62cc7dec70a1ae09346f165e96b96cfda",
        "27567fbcf70ab3d0a7ce3c3d700b6d2464965233d6b3e635f65c4e9a35814e6d"),
    ("sinusoid", 1): (
        "d87ceaca15d0d573ee6fd023100d42a4dcb1868e1f8e2164d490f91b15b7c8b1",
        "6175426fd34b59c007621f5b69158f0bda59518f1dbd1c70f46f9e3a363735a7",
        "a9814d2fa5f5b3e55eef47a3bb4792bc244da62a463c535f9453f77b188f782a"),
    ("sinusoid", 7): (
        "1199afd567f43844824456a7f4992373fa722bf34bef4b30afe5585a5ba93cfb",
        "df81f89dad348599d83b33cbe49fc3aa1059c9253a4459e2a5d1e84cdc1df60e",
        "6245babb497a6e7b4cb2d2c5c2e94a3c8b03bf49eb1df3f395ac60fba840f412"),
    ("sinusoid", 100): (
        "9efce64b3b370f9d8ae916733be60627fde7a4b32812fe75715d7b1f569b40a2",
        "c325cc15f04c046ff8cb3511283567e62cc7dec70a1ae09346f165e96b96cfda",
        "fb73879851d10b1d173973a9499f4bb277013dfddb33bf098688403e607ec07a"),
    ("uniform", 1): (
        "a418cfdee28a6ddee901a0fe2ebfd871a89be1fadf0c7dc66bdae9a11df7130d",
        "f7e3c930099d079b8e1661deb8478ead10923ce01048ddc507d05ec8f1c8dc60",
        "e3b64803a0ad601c9988bfb0af071c0a4bb2c29e1e0db0cbcb1578e969cbc1c1"),
    ("uniform", 7): (
        "b531600700345e197918dc64dcdbaea55a62dfa4081f56f5b40cc5b037bdf01f",
        "59aa096dbad9d4e1121793abe1cf2357a662e2bf7561b179dd3419f757e01769",
        "d342bf88628be085e7a874f622584bfbea2a19446bbe07b5f4af7170fa9a5aff"),
    ("uniform", 100): (
        "32264ab9ab9d01e47920fa130d2daca5a49dc29833b8bc4b410c3e6cb99a50ba",
        "c325cc15f04c046ff8cb3511283567e62cc7dec70a1ae09346f165e96b96cfda",
        "d804c41fac3f4bff7bdf9b64efac4fb697eec5cc78671638872e7b502c4dad37"),
    ("uniform_fine", 1): (
        "83b6e2c6946deccc400ecb94c430b00ee1a124a9dbe1327394e70814f80de689",
        "c325cc15f04c046ff8cb3511283567e62cc7dec70a1ae09346f165e96b96cfda",
        "3be76bad5affa6dfa81512c76766591ca16a1d1f2a1fa45758570b8457ea11ff"),
    ("uniform_fine", 7): (
        "f72cf63231aa46782501862490b0259eb35624248e05a5d70f7e64753c349cea",
        "9138d15db61bf64d9962bc83e479105c8cbc95bd930410564b12807e556f4a03",
        "b1763b007a90191af3385ee6efea9eadbc1e822cd7339987b9e7beb783c38de0"),
    ("uniform_fine", 100): (
        "16ce3ded34250ca5b62d204234bff28c2664cdcb204536f4fb81093ba3c2ad0d",
        "c325cc15f04c046ff8cb3511283567e62cc7dec70a1ae09346f165e96b96cfda",
        "b853718a5dc2141db385ad6a8b202a614c76babc8f6dbbc591ada0f671da0ac5"),
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


def _block_dynamics(m, stage):
    """The dynamics of z = (x, xhat) in one stage, built from A, B and K:
    [[A, 0], [0, A]] while searching, [[A, BK], [0, A + BK]] while
    stabilizing."""
    A, BK, O = m.A, m.B @ m.K, np.zeros_like(m.A)
    if stage is Stage.STABILIZING:
        return np.block([[A, BK], [O, A + BK]])
    return np.block([[A, O], [O, A]])


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
    decided, stepped = [], []
    for module, name, record in (
            (codec, "advance", lambda args, out: decided.append(out.stage)),
            (plant_mod, "step_interval", lambda args, out: stepped.append(args[3]))):
        def recorded(*args, _fn=getattr(module, name), _record=record):
            out = _fn(*args)
            _record(args, out)
            return out
        monkeypatch.setattr(module, name, recorded)
    log = run_closed_loop(ref_plant, cert_params, cert_derived, _reference_pulses(),
                          np.array([1.0, 1.0]), 30.0, substeps=1)
    # one stage per interval, decided once by the codec from the symbol alone
    assert len(stepped) == log.symbol.size - 1 and stepped == decided
    assert stepped == [Stage.STABILIZING if s >= 1 else Stage.SEARCHING
                       for s in log.symbol[:-1].tolist()]
    # and the log's inputs are the feedback law in that stage, interval by interval
    for k, stage in enumerate(stepped):
        rows = slice(log.lo[k], log.lo[k + 1])
        want = codec.controller_input(stage, ref_plant.K, log.dense_xhat[rows])
        assert log.dense_u[rows].tobytes() == want.tobytes(), k


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
    # each stage's block matrix is built once for the run, then shared
    assert len({id(M) for M in blocks}) == 2 and len(blocks) == len(cache)
    for M, (stage, _) in zip(blocks, cache):
        assert not M.flags.writeable and np.array_equal(M, _block_dynamics(m, stage))


def test_run_keeps_one_plan_per_stage_and_width_pattern(monkeypatch, ref_plant, cert_params,
                                                        cert_derived):
    # The substep programs of a 300 s pulses run are those of its
    # breakpoint-free intervals' distinct (stage, substep widths, held
    # input), each built once although the run keeps only the recent
    # ones, and the pairs beside them are the ones the contract test
    # above lists, in its order.
    steps, built = [], _built_programs(monkeypatch)
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
    plain = []
    for args, ts in steps:
        if not sig.breakpoints(args[5], args[5] + ref_plant.dt):
            w = np.zeros(4)
            w[:2] = ref_plant.D @ sig.value(0.5 * (ts[0] + ts[1]))
            plain.append((args[3], np.diff(ts).tobytes() + w.tobytes()))
    assert len(built) == len(set(built)) and set(built) == set(plain)
    assert len(cache.programs) == plant_mod._PROGRAMS < len(built) < 80 < len(plain)
    programs = {(stage, cache.kinds[kind].tobytes()) for stage, kind in cache.programs}
    assert programs == set(list(dict.fromkeys(reversed(plain)))[:plant_mod._PROGRAMS])
    first_use = dict.fromkeys((args[3], h) for args, ts in steps for h in np.diff(ts).tolist())
    assert list(cache) == list(first_use)
    assert cache.buf.shape == (101, 4) and cache.w.shape == (100, 4)


def _built_programs(monkeypatch) -> list:
    """Records the (stage, substep widths and held input) of each program
    a run builds for a breakpoint-free ZOH interval, in order."""
    built, orig = [], plant_mod._zoh_program

    def recorded(M, stage, widths, w, run):
        if len(w) == 1:
            built.append((stage, widths.tobytes() + w[0].tobytes()))
        return orig(M, stage, widths, w, run)

    monkeypatch.setattr(plant_mod, "_zoh_program", recorded)
    return built


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
    dense_k = log.dense_k
    for k in range(log.n_samples - 1):
        mask = dense_k == k
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
    for horizon in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^horizon must cover a finite number of sampling "
                                             f"periods, at least one, not {horizon}$"):
            run_closed_loop(ref_plant, cert_params, cert_derived, Zero(dim=1), np.zeros(2),
                            horizon)
    for substeps in (2.5, 0, -1, 10.0):
        with pytest.raises(ValueError, match=f"^substeps must be a positive integer, "
                                             f"not {substeps}$"):
            run_closed_loop(ref_plant, cert_params, cert_derived, Zero(dim=1), np.zeros(2),
                            5.0, substeps)
    # not the edges [0, 0.04, 0.08, 0.12], past the 0.1 s period
    with pytest.raises(ValueError, match="^substeps must be a positive integer, not 2.5$"):
        step_interval(ref_plant, np.zeros(2), np.zeros(2), Stage.SEARCHING, Zero(dim=1), 0.0,
                      2.5)


def _step_interval_per_segment(m, x, xhat, stage, sig, t_k, substeps, cache):
    """Reference stepper, one segment at a time: ZOH with the input at each
    segment's midpoint, or RK4 with a fresh input at every stage."""
    n = m.n_x

    def w_of(t):
        w = np.zeros(2 * n)
        w[:n] = m.D @ sig.value(t)
        return w

    z = np.concatenate([x, xhat])
    M = _block_dynamics(m, stage)
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


def _stepped(out):
    """The end states and the (t, x, xhat) records of an interval step.  A
    run's step returns u None, as the run's log derives it."""
    x, xhat, (ts, xs, xhats, _) = out
    return x, xhat, ts, xs, xhats


def _plant_3x2():
    m = make_random_plant(np.random.default_rng(7), n=3)
    D = np.random.default_rng(8).uniform(-1.0, 1.0, (3, 2))
    return PlantModel(A=m.A, B=m.B, D=D, K=m.K, dt=m.dt, n_levels=m.n_levels)


class _SineAndPulses(Disturbance):
    """A sinusoid plus a pulse train: not piecewise constant, so every
    interval takes the RK4 path, and split at the pulses' edges."""

    def __init__(self, sine: Sinusoid, pulses: PulseTrain):
        self.sine, self.pulses, self.dim = sine, pulses, sine.dim

    def _value(self, t):
        return self.sine.value(t) + self.pulses.value(t)

    def _sup(self, a, b):
        # an upper bound, not the exact sup: only the run's log reads it
        return self.sine.sup_norm(a, b) + self.pulses.sup_norm(a, b)

    def breakpoints(self, a, b):
        return self.pulses.breakpoints(a, b)


@pytest.mark.parametrize("plant, sig", [
    ("bundled", _reference_pulses()),
    ("bundled", SeededUniform(bound=0.05, seed=3, hold=0.37)),
    ("bundled", SeededUniform(bound=0.08, seed=5, hold=0.1)),
    ("bundled", Sinusoid([0.05], freq_hz=0.5, phase=0.3)),
    ("bundled", _SineAndPulses(Sinusoid([0.05], freq_hz=0.5, phase=0.3),
                               PulseTrain([(10.50337, 10.70001, [1.5])], dim=1))),
    ("3x2", Sinusoid([0.05, -0.03], freq_hz=0.7, phase=0.3)),
    ("3x2", _SineAndPulses(Sinusoid([0.05, -0.03], freq_hz=0.7, phase=0.3),
                           PulseTrain([(0.0337, 1.2113, [1.5, -0.4]),
                                       (1.2113, 2.35001, [-0.2, 0.9])], dim=2))),
    # edges off the substep grid, and two pulses sharing an edge
    ("3x2", PulseTrain([(0.0337, 1.2113, [1.5, -0.4]), (1.2113, 2.35001, [-0.2, 0.9]),
                        (5.00007, 6.1, [0.3, 0.3])], dim=2)),
], ids=["pulses", "uniform", "uniform_hold_dt", "sinusoid_rk4", "sine_and_pulse_rk4_split",
        "3x2_sinusoid_rk4", "3x2_sine_and_pulses_rk4_split", "3x2_pulses_off_grid"])
def test_step_interval_matches_per_segment_loop_bitwise(plant, sig, ref_plant, cert_params,
                                                        cert_derived):
    # Breakpoint-free intervals of a piecewise-constant signal take the
    # constant-input fast path, the others the segment loop; a sinusoid
    # plus pulses takes RK4, split at the pulse edges off the substep grid.
    if plant == "bundled":
        # every interval of a logged run, restarted from its logged state
        m = ref_plant
        log = run_closed_loop(m, cert_params, cert_derived, sig, np.array([1.0, 1.0]), 30.0,
                              substeps=50)
        starts = [(log.x[k], log.xhat[k], log.stage[k], log.t[k])
                  for k in range(log.n_samples - 1)]
        dense_u = log.dense_u  # derived by the log on each read
    else:
        # a 3-state plant with two disturbance channels, from random states
        m, rng = _plant_3x2(), np.random.default_rng(3)
        starts = [(rng.standard_normal(3), rng.standard_normal(3), k % 2, k * m.dt)
                  for k in range(80)]
    ts = np.array([t_k for *_, t_k in starts])
    fast_cache, ref_cache, split = _Run(m, sig, ts, 50, (ts[0], ts[-1] + m.dt)), {}, 0
    for x, xhat, stabilizing, t_k in starts:
        stage = Stage.STABILIZING if stabilizing else Stage.SEARCHING
        args = (m, x, xhat, stage, sig, t_k, 50)
        out, ref = step_interval(*args, fast_cache), _step_interval_per_segment(*args, ref_cache)
        assert out[2][3] is None
        for got, want in zip(_stepped(out), _stepped(ref)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), t_k
        if plant == "bundled":  # the log's inputs are the feedback law on each interval
            k = round(t_k / m.dt)
            assert dense_u[log.lo[k]:log.lo[k + 1]].tobytes() == ref[2][3].tobytes(), k
        split += out[2][0].size > 51
    assert list(fast_cache) == list(ref_cache)
    assert split > 0 or not isinstance(sig, _SineAndPulses)


def test_step_interval_replays_a_runs_plans_bitwise(monkeypatch, ref_plant):
    # Two runs of the same 20 intervals, the stages alternating and swapped
    # in the second; plain intervals of equal stage, substep widths and
    # input replay one program.  The inputs are +0.0, a -0.0 pulse, a 1.5
    # pulse and a -0.7 pulse.  Interval 11 ends just past the 1.5 pulse's
    # end and takes the split path with no extra edge; the -0.7 pulse
    # starts off the grid in interval 14, whose extra edge sizes the rows
    # all intervals step in.
    m = ref_plant
    sig = PulseTrain([(0.5, 0.8, [-0.0]), (0.8, 1.2, [1.5]), (1.40337, 1.6, [-0.7])], dim=1)
    rng, built = np.random.default_rng(11), _built_programs(monkeypatch)
    for swap in (0, 1):
        cache, ref_cache, plain = _Run(m, sig, np.arange(20) * m.dt, 100, (0.0, 20 * m.dt)), {}, []
        built.clear()
        for k in range(20):
            stage = Stage.STABILIZING if (k + swap) % 2 else Stage.SEARCHING
            x, xhat = ((np.array([0.0, -0.0]), np.array([-0.0, 0.0])) if k % 5 == 0
                       else (rng.standard_normal(2), rng.standard_normal(2)))
            args = (m, x, xhat, stage, sig, k * m.dt, 100)
            got, want = step_interval(*args, cache), _step_interval_per_segment(*args, ref_cache)
            for a, b in zip(_stepped(got), _stepped(want)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (swap, k)
            ts = got[2][0]
            if not sig.breakpoints(k * m.dt, (k + 1) * m.dt):
                w = np.zeros(4)
                w[:2] = m.D @ sig.value(0.5 * (ts[0] + ts[1]))
                plain.append((stage, np.diff(ts).tobytes() + w.tobytes()))
        assert cache.next == 20 and len(built) == len(set(plain)) < len(plain) == 18
        assert set(built) == set(plain) and len(cache.programs) == plant_mod._PROGRAMS
        assert cache.buf.shape == (102, 4) and cache.w.shape == (101, 4)
        assert list(cache) == list(ref_cache)
    assert [k for k in range(20) if sig.breakpoints(k * m.dt, (k + 1) * m.dt)] == [11, 14]


def test_rk4_intervals_replay_a_runs_plans_bitwise(ref_plant):
    # The RK4 mirror of the test above: two runs of the same 20 intervals,
    # the stages alternating and swapped in the second.  The (h/2, h, h/6)
    # vectors do not depend on the stage, so plain intervals of equal
    # substep widths share them in either stage.  A pulse starts off the
    # grid in interval 14, whose extra edge sizes the state rows at 102 and
    # the input rows at 3 * 101 = 303, three per segment, from the start.
    m = ref_plant
    sig = _SineAndPulses(Sinusoid([0.05], freq_hz=0.5, phase=0.3),
                         PulseTrain([(1.40337, 1.6, [-0.7])], dim=1))
    rng = np.random.default_rng(29)
    for swap in (0, 1):
        cache, ref_cache, widths = _Run(m, sig, np.arange(20) * m.dt, 100, (0.0, 2.0)), {}, set()
        assert cache.buf.shape == (102, 4) and cache.w.shape == (303, 4)
        for k in range(20):
            stage = Stage.STABILIZING if (k + swap) % 2 else Stage.SEARCHING
            args = (m, rng.standard_normal(2), rng.standard_normal(2), stage, sig, k * m.dt, 100)
            got, want = step_interval(*args, cache), _step_interval_per_segment(*args, ref_cache)
            for a, b in zip(_stepped(got), _stepped(want)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (swap, k)
            widths.update(np.diff(got[2][0]).tolist())
        assert len(cache) == 0 and set(cache.hvecs) == widths
        for h, vecs in cache.hvecs.items():
            want = np.repeat([[0.5 * h], [h], [h / 6.0]], 4, 1)
            assert np.array(vecs).tobytes() == want.tobytes()
    assert [k for k in range(20) if sig.breakpoints(k * m.dt, (k + 1) * m.dt)] == [14]


def test_rk4_takes_a_fresh_input_where_a_segment_end_rounds_off_the_next_start(ref_plant):
    # At 10 substeps of 0.1 s, a pulse edge at 0.001 splits the first
    # substep, and that segment's end 0.001 + (0.01 - 0.001) rounds off the
    # next edge 0.01: the next segment reads its start input at 0.01, where
    # the 500 Hz sine differs from the previous end's.  From the zero state,
    # that difference reaches the records, in either stage, alone or in a
    # run of the one interval, whose input rows are three per segment.
    m = ref_plant
    sine = Sinusoid([1.0], freq_hz=500.0, phase=0.3)
    sig = _SineAndPulses(sine, PulseTrain([(0.001, 0.0213, [0.4])], dim=1))
    for stage in (Stage.SEARCHING, Stage.STABILIZING):
        args = (m, np.zeros(2), np.zeros(2), stage, sig, 0.0, 10)
        run = _Run(m, sig, np.array([0.0]), 10, (0.0, m.dt))
        want = _step_interval_per_segment(*args, {})
        alone = step_interval(*args)
        assert alone[2][3].tobytes() == want[2][3].tobytes(), stage
        for got in (alone, step_interval(*args, run)):
            for a, b in zip(_stepped(got), _stepped(want)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), stage
        assert run.w.shape == (3 * 12, 4)
    starts, widths = got[2][0][:-1], np.diff(got[2][0])
    ends = starts + widths
    assert np.flatnonzero(starts[1:] != ends[:-1]).tolist() == [1] and starts.size == 12
    assert not np.array_equal(sine.value(starts[2]), sine.value(ends[1]))


def test_one_run_state_carries_rk4_split_and_plain_intervals_bitwise(ref_plant):
    # Intervals 3 to 6, the stages alternating, in a run of a pulse whose
    # off-grid edge splits interval 4 (ZOH) and in a run of a sine plus that
    # pulse (RK4); both step every interval in rows sized 102 by the split
    # one, each interval the per-segment loop's.  Only the plain ZOH
    # intervals keep programs: that of interval 3, before the pulse, and
    # one in each stage for 5 and 6, whose widths and held input agree.
    m = ref_plant
    pulse = PulseTrain([(0.40337, 0.9, [1.5])], dim=1)
    rng = np.random.default_rng(23)
    for sig in (pulse, _SineAndPulses(Sinusoid([0.05], freq_hz=0.5, phase=0.3), pulse)):
        starts = np.arange(3, 7) * m.dt
        cache, ref_cache = _Run(m, sig, starts, 100, (starts[0], starts[-1] + m.dt)), {}
        assert cache.buf.shape == (102, 4)
        for k, stage in zip(range(3, 7), [Stage.STABILIZING, Stage.SEARCHING] * 2):
            args = (m, rng.standard_normal(2), rng.standard_normal(2), stage, sig, k * m.dt, 100)
            got, want = step_interval(*args, cache), _step_interval_per_segment(*args, ref_cache)
            for a, b in zip(_stepped(got), _stepped(want)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (sig, k)
            assert got[2][0].size == (102 if k == 4 else 101), (sig, k)
        assert list(cache) == list(ref_cache) and (len(ref_cache) > 2) is (sig is pulse)
        assert list(cache.programs) == ([(Stage.STABILIZING, 0), (Stage.STABILIZING, 1),
                                         (Stage.SEARCHING, 1)] if sig is pulse else [])


@st.composite
def _rk4_cases(draw):
    """(plant, substeps, t_k, disturbance, x, xhat) for RK4 intervals: a
    plant of 1 to 3 states, and a sinusoid of 0.1 to 600 Hz plus pulses
    with 0 to 3 edges inside [t_k, t_k + dt].  A segment's end a + (b - a)
    can round off b only where a and b differ by more than a factor of 2
    (Sterbenz), so one draw in three is an interval that ends at or
    crosses 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = make_random_plant(rng, draw(st.integers(1, 3)))
    substeps = draw(st.integers(1, 12))
    t_k = draw(st.one_of(st.sampled_from([0.0, -0.1, 1e-300]), st.floats(-50.0, 50.0),
                         st.floats(-m.dt, 0.0)))
    offsets = draw(st.lists(st.floats(0.0, m.dt, exclude_min=True, exclude_max=True),
                            max_size=3))
    edges = sorted({t_k + off for off in offsets} - {t_k, t_k + m.dt})
    ends = edges[1::2] + ([edges[-1] + 1.0] if len(edges) % 2 else [])
    pulses = PulseTrain([(a, b, [draw(st.floats(-2.0, 2.0))])
                         for a, b in zip(edges[0::2], ends)], dim=1)
    sine = Sinusoid([draw(st.floats(-2.0, 2.0))], freq_hz=draw(st.floats(0.1, 600.0)),
                    phase=draw(st.floats(0.0, 6.3)))
    return m, substeps, t_k, _SineAndPulses(sine, pulses), *rng.standard_normal((2, m.n_x))


@settings(PROPERTY_PROFILE, deadline=None)
@given(_rk4_cases())
def test_rk4_intervals_match_the_per_segment_loop_bitwise(case):
    # Each stage alone, each interval the per-segment loop's to the bit,
    # whatever the plant, the widths and the start.
    m, substeps, t_k, sig, x, xhat = case
    for stage in Stage:
        args = (m, x, xhat, stage, sig, t_k, substeps)
        got, want = step_interval(*args), _step_interval_per_segment(*args, {})
        for a, b in zip(got[:2] + got[2], want[:2] + want[2]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), stage


_NEAR = [-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12]  # times dt


@st.composite
def _planned_runs(draw):
    """(substeps, disturbance, x0) for a 1 s run of the bundled plant, of
    every disturbance kind: pulse edges anywhere, on a substep edge or
    within 2e-12 * dt of one, and uniform holds anywhere or within a
    relative 2e-12 of a multiple of the substep width."""
    dt, substeps = 0.1, draw(st.integers(1, 12))
    h = dt / substeps
    level = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
    kind = draw(st.sampled_from(["zero", "constant", "pulses", "sinusoid", "uniform"]))
    if kind == "zero":
        sig = Zero(dim=1)
    elif kind == "constant":
        sig = Constant([draw(level)])
    elif kind == "pulses":
        near = st.builds(lambda k, j, off: k * dt + j * h + off * dt, st.integers(0, 9),
                         st.integers(0, substeps), st.sampled_from(_NEAR))
        edges = sorted(set(draw(st.lists(st.one_of(near, st.floats(0.0, 1.0)), min_size=2,
                                         max_size=6))))
        sig = PulseTrain([(a, b, [draw(level)]) for a, b in zip(edges[0::2], edges[1::2])],
                         dim=1)
    elif kind == "sinusoid":
        sig = Sinusoid([draw(level)], freq_hz=draw(st.floats(0.1, 3.0)),
                       phase=draw(st.floats(0.0, 6.3)))
    else:
        near = st.builds(lambda j, off: j * h * (1.0 + off), st.integers(1, 2 * substeps),
                         st.sampled_from(_NEAR))
        sig = SeededUniform(bound=draw(st.floats(0.0, 2.0)), seed=draw(st.integers(0, 2**32)),
                            hold=draw(st.one_of(near, st.floats(0.003, 0.5))))
    return substeps, sig, np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)))


@settings(PROPERTY_PROFILE, deadline=None)
@given(_planned_runs())
def test_a_runs_time_plan_steps_each_interval_as_step_interval_alone(ref_plant, cert_params,
                                                                     cert_derived, case):
    # The state of a whole run and that of each interval alone give the
    # same edges and held input rows, and the run logs, to the bit, the
    # records that step_interval alone computes from the logged start,
    # which are the per-segment loop's.
    substeps, sig, x0 = case
    m, n_steps, ref_cache = ref_plant, 10, {}
    log = run_closed_loop(m, cert_params, cert_derived, sig, x0, n_steps * m.dt, substeps)
    plan = _Run(m, sig, np.arange(n_steps) * m.dt, substeps, (0.0, n_steps * m.dt))
    for k in range(n_steps):
        t_k, rows = k * m.dt, slice(*plan.lo[k:k + 2])
        alone = _Run(m, sig, np.array([t_k]), substeps, (t_k, t_k + m.dt))
        assert plan.edges(k).tobytes() == alone.edges(0).tobytes(), k
        assert (plan.kind[k] < 0) == (alone.kind[0] < 0), k
        if plan.kind[k] >= 0:
            assert plan.kinds[plan.kind[k]].tobytes() == alone.kinds[alone.kind[0]].tobytes(), k
        stage = Stage.STABILIZING if log.symbol[k] >= 1 else Stage.SEARCHING
        args = (m, log.x[k], log.xhat[k], stage, sig, k * m.dt, substeps)
        got, want = step_interval(*args), _step_interval_per_segment(*args, ref_cache)
        logged = (log.x[k + 1], log.dense_xhat[rows][-1], log.dense_t[rows], log.dense_x[rows],
                  log.dense_xhat[rows], log.dense_u[rows])
        for a, b, c in zip(got[:2] + got[2], want[:2] + want[2], logged):
            assert a.shape == b.shape == c.shape, k
            assert a.tobytes() == b.tobytes() == c.tobytes(), k
    assert log.dense_x.shape[0] == plan.lo[-1]


def test_a_runs_checks_and_pairs_do_not_grow_with_its_horizon(monkeypatch, ref_plant,
                                                               cert_params, cert_derived):
    # x0 is the one state a run checks, however long it runs, and the run
    # state's items stay its ZOH pairs, in order of first use.
    sig = PulseTrain([(t, t + 0.2, [1.5]) for t in (2.0, 7.05, 25.0, 41.03)], dim=1)
    checked, steps = [], []
    as_vector, step = matnum.as_vector, plant_mod.step_interval

    def counted(v, name="vector"):
        checked.append(name)
        return as_vector(v, name)

    def recorded(*args):
        out = step(*args)
        steps.append((args[3], args[7], out[2][0]))
        return out

    for module in (matnum, plant_mod, signals):
        monkeypatch.setattr(module, "as_vector", counted)
    monkeypatch.setattr(plant_mod, "step_interval", recorded)
    for horizon in (10.0, 30.0, 60.0):
        checked.clear()
        steps.clear()
        run_closed_loop(ref_plant, cert_params, cert_derived, sig, np.array([1.0, -0.5]),
                        horizon, 10)
        assert checked == ["x0"] and len(steps) == round(horizon / ref_plant.dt)
        cache = steps[0][1]
        assert all(c is cache for _, c, _ in steps)
        assert list(cache) == list(dict.fromkeys((stage, h) for stage, _, ts in steps
                                                 for h in np.diff(ts).tolist()))


def test_step_interval_takes_a_run_state_or_none_as_its_cache(ref_plant):
    x = np.array([0.5, -0.2])
    with pytest.raises(TypeError, match="^zoh_cache must be None or a _Run, not dict$"):
        step_interval(ref_plant, x, x, Stage.SEARCHING, Zero(dim=1), 0.0, 10, {})


def test_a_run_state_steps_only_its_runs_next_interval(ref_plant):
    # A run's state steps its next interval, from that interval's start,
    # with the run's plant, disturbance and substeps, and nothing else: not
    # an earlier or a later start, an equal plant or signal that is another
    # object, another grid, nor any interval once the run's are stepped.
    # Each refusal leaves the run where it was.
    m, x, sig = ref_plant, np.array([0.5, -0.2]), PulseTrain([(0.25, 0.3, [1.5])], dim=1)
    twin_m = PlantModel(A=m.A, B=m.B, D=m.D, K=m.K, dt=m.dt, n_levels=m.n_levels)
    twin_sig = PulseTrain([(0.25, 0.3, [1.5])], dim=1)
    run = _Run(m, sig, np.arange(3) * m.dt, 10, (0.0, 3 * m.dt))
    refused = ("^zoh_cache steps only its run's next interval, with the run's plant, disturbance "
               "and substeps, not one from t_k = ")
    for k in range(3):
        for plant, signal, t_k, substeps in ((m, sig, (k + 1) * m.dt, 10),
                                             (m, sig, (k - 1) * m.dt, 10),
                                             (twin_m, sig, k * m.dt, 10),
                                             (m, twin_sig, k * m.dt, 10), (m, sig, k * m.dt, 20)):
            with pytest.raises(ValueError, match=refused + re.escape(repr(t_k)) + "$"):
                step_interval(plant, x, x, Stage.SEARCHING, signal, t_k, substeps, run)
            assert run.next == k
        alone = step_interval(m, x, x, Stage.SEARCHING, sig, k * m.dt, 10)
        got = step_interval(m, x, x, Stage.SEARCHING, sig, k * m.dt, 10, run)
        for a, b in zip(_stepped(got), _stepped(alone)):
            assert a.tobytes() == b.tobytes(), k
    with pytest.raises(ValueError, match=refused):
        step_interval(m, x, x, Stage.SEARCHING, sig, 3 * m.dt, 10, run)


@pytest.mark.parametrize("sig", [Zero(dim=1), PulseTrain([(0.0, 1.0, [1.5])], dim=1),
                                 SeededUniform(0.05, 3, hold=0.37),
                                 Sinusoid([0.05], freq_hz=0.5, phase=0.3)],
                         ids=["zero", "pulses", "uniform", "sinusoid"])
@pytest.mark.parametrize("t_k", [math.nan, math.inf, -math.inf, 1e300])
def test_step_interval_names_a_start_with_no_room_after_it(ref_plant, sig, t_k):
    # An interval from t_k has no room where t_k + dt is not above t_k: NaN,
    # either infinity, or a t_k so large that adding dt rounds back to it.
    x = np.array([0.5, -0.2])
    msg = re.escape(f"t_k must be finite and below t_k + dt, not {t_k}")
    with pytest.raises(ValueError, match=f"^{msg}$"):
        step_interval(ref_plant, x, x, Stage.SEARCHING, sig, t_k, 10)


@pytest.mark.parametrize("x, xhat, sizes", [([0.5, -0.2, 0.1], [0.0, 0.0], "3 and 2"),
                                            ([0.5, -0.2], [0.0], "2 and 1")])
def test_step_interval_names_a_state_of_the_wrong_size(ref_plant, x, xhat, sizes):
    with pytest.raises(ValueError, match=f"^x and xhat must have 2 entries, not {sizes}$"):
        step_interval(ref_plant, np.array(x), np.array(xhat), Stage.SEARCHING, Zero(dim=1),
                      0.0, 10)


@pytest.mark.parametrize("stage", [1, True, "stabilizing", None])
def test_step_interval_names_a_stage_that_is_not_a_stage(ref_plant, stage):
    # Not taken as searching: the int 1 from the log's stage column, say.
    msg = re.escape(f"stage must be a Stage, not {stage!r}")
    with pytest.raises(ValueError, match=f"^{msg}$"):
        step_interval(ref_plant, [1, 0], [1, 0], stage, Zero(dim=1), 0.0, 10)


@pytest.mark.parametrize("sig", [Zero(dim=3), Sinusoid([1.0, 2.0], 0.5)],
                         ids=["zero", "sinusoid"])
def test_both_entry_points_name_a_disturbance_of_the_wrong_dimension(ref_plant, cert_params,
                                                                     cert_derived, sig):
    with pytest.raises(ValueError, match="^disturbance dimension mismatch$"):
        step_interval(ref_plant, np.zeros(2), np.zeros(2), Stage.SEARCHING, sig, 0.0, 10)
    with pytest.raises(ValueError, match="^disturbance dimension mismatch$"):
        run_closed_loop(ref_plant, cert_params, cert_derived, sig, np.zeros(2), 5.0)


@pytest.mark.parametrize("entry", ["step_interval", "run_closed_loop"])
def test_a_plant_is_freed_once_its_run_is_gone(ref_plant, cert_params, entry):
    # Nothing outside a run keeps its plant: not step_interval alone, nor
    # run_closed_loop once the design memo, which holds one plant, has
    # moved on to another.
    m = PlantModel(A=ref_plant.A, B=ref_plant.B, D=ref_plant.D, K=ref_plant.K, dt=ref_plant.dt,
                   n_levels=ref_plant.n_levels)
    alive = weakref.ref(m)
    if entry == "step_interval":
        step_interval(m, np.ones(2), np.ones(2), Stage.STABILIZING, _reference_pulses(), 10.5,
                      10)
    else:
        log = run_closed_loop(m, cert_params, derive_constants(m, cert_params),
                              _reference_pulses(), np.array([1.0, -0.5]), 5.0, 10)
        assert log.symbol.size == 51
        derive_constants(ref_plant, cert_params)
    del m
    gc.collect()
    assert alive() is None


class _Buffers(dict):
    """What ``_zoh_program`` and ``_zoh_steps`` read of a run's state: its
    ZOH pairs as items, and ``n_rows`` state rows of ``size`` entries with
    their views, the gemv output and the bytes of a +0.0 row."""

    def __init__(self, n_rows, size):
        super().__init__()
        self.buf = np.empty((n_rows, size))
        self.rows, self.dsts = list(self.buf), list(self.buf[1:])
        self.phi_z = np.empty(size)
        self.zero = bytes(self.phi_z.nbytes)


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
        M, size = _block_dynamics(m, stage), 2 * n

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
    # the per-substep loop's.  The second pass finds its pairs in the cache.
    M, stage, hs, z0, w = case
    cache = _Buffers(len(hs) + 1, z0.size)
    for _ in range(2):
        cache.rows[0][...] = z0
        with np.errstate(over="ignore", invalid="ignore"):
            _zoh_steps(_zoh_program(M, stage, np.array(hs), list(w), cache), cache)
            want = _two_call_steps(cache, stage, hs, z0, w)
        assert cache.buf[:len(hs) + 1].tobytes() == want.tobytes()
    assert list(cache) == [(stage, h) for h in dict.fromkeys(hs)]


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


_PINNED_DISTURBANCES = {
    "pulses": lambda cfg: cfg.disturbance,
    "sinusoid": lambda cfg: Sinusoid([0.05], 0.5, 0.3),
    "uniform": lambda cfg: SeededUniform(0.05, 3, hold=0.37),
    "uniform_fine": lambda cfg: SeededUniform(0.05, 3, hold=0.001),
}


@pytest.mark.parametrize("name, substeps", list(DENSE_GRID_SHA256))
def test_dense_times_intervals_and_inputs_match_pinned_bits(name, substeps):
    # the bundled pulses on the ZOH path, a sinusoid on RK4, noise held for
    # 0.37 s (some intervals split) and for 0.001 s (every interval split)
    cfg = bundled_scenario(certified=True)
    d = derive_constants(cfg.plant, cfg.design)
    log = run_closed_loop(cfg.plant, cfg.design, d, _PINNED_DISTURBANCES[name](cfg), cfg.x0,
                          30.0, substeps)
    got = tuple(hashlib.sha256(getattr(log, f).tobytes()).hexdigest()
                for f in ("dense_t", "dense_k", "dense_u"))
    assert got == DENSE_GRID_SHA256[name, substeps]


@pytest.mark.parametrize("sig, horizon, n_dense", [
    (None, 30.0, 300 * 101),
    # pulse edges between substep edges add one record to four intervals
    (PulseTrain([(10.5005, 10.7005, [1.5]), (22.5005, 22.7005, [1.5])], dim=1), 30.0,
     300 * 101 + 4),
    # 30,000 hold edges, every one on a substep edge
    (SeededUniform(0.05, 3, hold=0.001), 30.0, 300 * 101),
    # a new held input every 0.37 s, so a new substep program almost as often
    (SeededUniform(0.05, 3, hold=0.37), 30.0, 300 * 101),
    (SeededUniform(0.05, 3, hold=0.37), 300.0, 3000 * 101),
], ids=["bundled", "off_grid_pulses", "uniform_on_grid", "uniform_held", "uniform_held_300s"])
def test_run_peak_memory_stays_near_the_log(sig, horizon, n_dense):
    cfg = bundled_scenario(certified=True)
    sig = cfg.disturbance if sig is None else sig
    sig.sup_norm(0.0, horizon)  # draw all noise first: it is not the log's
    d = derive_constants(cfg.plant, cfg.design)
    tracemalloc.start()
    try:
        log = run_closed_loop(cfg.plant, cfg.design, d, sig, cfg.x0, horizon, cfg.substeps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log.dense_x) == n_dense
    log_bytes = sum(v.nbytes for v in vars(log).values() if isinstance(v, np.ndarray))
    # collecting per-interval arrays and concatenating them peaks near 2x,
    # and so does a memo of every substep program under held noise
    assert peak < 1.3 * log_bytes


def test_log_holds_the_states_and_a_few_words_per_interval():
    # A 300 s pulses run: the arrays the log holds come to the two states
    # of each record, 2 n_x floats, plus at most 160 bytes per interval
    # (the sample arrays take 96 for n_x = 2, the record offsets 8 and the
    # edges of the 12 split intervals about 3).  A stored column of one
    # float per record would add 808 bytes per interval at 100 substeps.
    cfg = bundled_scenario(certified=True)
    d = derive_constants(cfg.plant, cfg.design)
    sig = PulseTrain([(t, t + 0.2, [1.5]) for t in (10.3337, 25.3337, 40.3337, 55.3337, 70.3337,
                                                    85.3337)], dim=1)
    log = run_closed_loop(cfg.plant, cfg.design, d, sig, cfg.x0, 300.0)
    n_records, n_intervals = len(log.dense_x), log.n_samples - 1
    assert n_intervals == 3000 and n_records == 101 * n_intervals + 12 and log.split.size == 12
    log_bytes = sum(v.nbytes for v in vars(log).values() if isinstance(v, np.ndarray))
    assert log_bytes <= 2 * cfg.plant.n_x * 8 * n_records + 160 * n_intervals


@functools.lru_cache(maxsize=1)
def _three_state_design():
    """A 3-state plant whose feedback gain has no zero entry, and its design."""
    m = make_random_plant(np.random.default_rng(7), n=3)
    p = synthesize_design(m, DesignParams(radius0=0.5, search_margin=0.2, dist_level=0.1,
                                          psi=0.2, rho=1.0, phi=0.01))
    return m, p, derive_constants(m, p)


@settings(max_examples=40, deadline=None)
@given(st.booleans(), _any_disturbance(), st.integers(1, 12),
       st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       st.lists(st.integers(1, 250), min_size=1, max_size=8))
def test_dense_blocks_at_any_sizes_make_the_whole_columns(ref_plant, cert_params, cert_derived,
                                                          bundled, sig, substeps, x0, sizes):
    # Blocks that start and end anywhere, one-record blocks and one-record
    # stretches of a stage included, concatenate to the whole columns, whose
    # inputs are each interval's own stack in its stage, as the run once
    # logged them.  The 3-state plant's gain has no zero entry, so a product
    # that rounds another way shows in u.
    m, p, d = (ref_plant, cert_params, cert_derived) if bundled else _three_state_design()
    log = run_closed_loop(m, p, d, sig, np.array(x0[:m.n_x]), 3.0, substeps)
    n, cuts = len(log.dense_x), [0]
    while cuts[-1] < n:
        cuts.append(min(n, cuts[-1] + sizes[len(cuts) % len(sizes)]))
    blocks = [log.dense_block(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    whole = (log.dense_k, log.dense_t, log.dense_x, log.dense_xhat, log.dense_u)
    for name, col, parts in zip(("k", "t", "x", "xhat", "u"), whole, zip(*blocks)):
        joined = np.concatenate(parts)
        assert joined.dtype == col.dtype and joined.shape == col.shape, name
        assert joined.tobytes() == col.tobytes(), name
    for k in range(log.n_samples - 1):
        rows = slice(log.lo[k], log.lo[k + 1])
        stage = Stage.STABILIZING if log.symbol[k] >= 1 else Stage.SEARCHING
        want = codec.controller_input(stage, m.K, log.dense_xhat[rows])
        assert whole[4][rows].tobytes() == want.tobytes(), k


@pytest.mark.parametrize("sig, substeps, horizon", [
    (PulseTrain([(10.5, 10.7, [1.5]), (22.5, 22.7, [1.5])], dim=1), 10, 2.0),
    # 76 of the 300 intervals are split at the holds' edges
    (SeededUniform(0.05, 3, hold=0.37), 1, 30.0),
], ids=["pulses_10", "uniform_held_1"])
def test_dense_block_bounds_a_range_as_the_slice_of_x_does(ref_plant, cert_params, cert_derived,
                                                           sig, substeps, horizon):
    # Empty ranges, ranges past the end, negative ends and reversed ranges:
    # every column is the whole column's [a:b], in bytes, dtype and shape.
    log = run_closed_loop(ref_plant, cert_params, cert_derived, sig, np.array([1.0, 1.0]),
                          horizon, substeps)
    n, lo = len(log.dense_x), log.lo.tolist()
    whole = log.dense_block(0, n)
    ranges = [(0, 0), (lo[3], lo[3]), (n, n), (n - 5, n + 30), (n + 3, n + 9), (7, 3), (-5, n),
              (0, -1)]
    if log.split.size:
        first = int(log.split[0])
        ranges.append((lo[first] - 1, lo[first + 1] + 1))
    for a, b in ranges:
        for name, got, col in zip(("k", "t", "x", "xhat", "u"), log.dense_block(a, b), whole):
            want = col[a:b]
            assert got.dtype == want.dtype and got.shape == want.shape, (a, b, name)
            assert got.tobytes() == want.tobytes(), (a, b, name)


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
    # A run's time plan sizes its dense log: its rows of each interval are
    # the edges that step_interval alone makes, extra edges and all.
    m = bundled_scenario().plant
    n_steps = 150
    plan = _Run(m, sig, np.arange(n_steps) * m.dt, substeps, (0.0, n_steps * m.dt))
    added = 0
    for k in range(n_steps):
        x = np.zeros(m.n_x)
        edges = step_interval(m, x, x, Stage.SEARCHING, sig, k * m.dt, substeps)[2][0]
        assert plan.edges(k).tobytes() == edges.tobytes(), k
        assert plan.lo[k + 1] - plan.lo[k] == edges.size, k
        added += edges.size - (substeps + 1)
    assert plan.lo[-1] == plan.x.shape[0] == n_steps * (substeps + 1) + added


def test_dense_arrays_own_only_their_records():
    # All 30,000 breakpoints fall on substep edges and are dropped: the
    # stored states hold 30,300 records and nothing past them, and so do
    # the derived columns.
    cfg = bundled_scenario(certified=True)
    sig = SeededUniform(0.05, 3, hold=0.001)
    d = derive_constants(cfg.plant, cfg.design)
    log = run_closed_loop(cfg.plant, cfg.design, d, sig, cfg.x0, 30.0, 100)
    assert log.dense_t.size == 300 * 101
    for name in ("dense_x", "dense_xhat"):
        a = getattr(log, name)
        assert a.base is None and a.flags.owndata, name
    for name in ("dense_t", "dense_k", "dense_x", "dense_xhat", "dense_u"):
        assert getattr(log, name).shape[0] == log.dense_t.size, name


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
    # each substep's start, midpoint and end
    assert len(calls) == 1
    a, h = ts[:-1], np.diff(ts)
    assert calls[0].tolist() == a.tolist() + (a + 0.5 * h).tolist() + (a + h).tolist()
