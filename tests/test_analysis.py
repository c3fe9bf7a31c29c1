import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_oracle
from qrate import analysis, cli
from gain_oracle import constants_from, oracle_values
from qrate import (PulseTrain, SeededUniform, Sinusoid, Zero, check_trajectory,
                   derive_constants, eta_functions, gain_constants, iss_gains,
                   run_closed_loop)
from qrate.analysis import (CERTIFICATE_CHECKS, CHECKS, _DENSE_BLOCK, _RECENT, _Acc,
                            _add_exp_decay, _SearchMaps, _tightest_earlier)
from qrate.plant import TrajectoryEvent


@pytest.fixture(scope="module")
def toy_gains(toy_derived, toy_params):
    g = gain_constants(toy_derived, toy_params)
    return g, iss_gains(toy_derived, toy_params, g)


def test_gain_constants_scalar_toy(toy_derived, toy_params):
    g = gain_constants(toy_derived, toy_params)
    # closed forms with P = 4/3, rho = 1, |S| = 0.5, growth_eff = 1.1
    assert abs(g.c1 - (math.sqrt(4.0 / 3.0) + 1.0)) < 1e-9
    assert abs(g.c2 - (1.0 / math.sqrt(4.0 / 3.0) + 1.0)) < 1e-9
    assert abs(g.c3 - (4.0 * 0.5 + 1.1) / 5.0) < 1e-9
    # escape constant: max{1/sqrt(rho*phi), c3/sqrt(phi) + 1} * dist_gain
    a = 10.0 * math.log(1.1)
    exact_phi = (math.exp(0.1 * a) - 1.0) / a
    assert abs(g.escape_gain - 10.0 * exact_phi) < 1e-9
    assert abs(g.step_gain - 2.1) < 1e-9
    assert g.valid and abs(g.nu - 0.685) < 1e-9
    assert abs(g.decay + 0.5 * math.log(0.685)) < 1e-9
    assert abs(g.kappa + math.log(0.685) / (2.0 * math.log(2.1))) < 1e-9
    assert abs(g.c_exp - g.c1 * g.c3 / math.sqrt(0.685)) < 1e-9


def test_gain_constants_invalid_nu(ref_plant, raw_params):
    d = derive_constants(ref_plant, raw_params)
    g = gain_constants(d, raw_params)
    assert not g.valid
    assert math.isnan(g.c_exp) and math.isnan(g.decay) and math.isnan(g.kappa)
    assert g.c1 > 0 and g.escape_gain > 0  # decay-free constants still live


def test_eta_counts(cert_derived, cert_params):
    eta_x, eta_d, eta_hat = eta_functions(cert_derived)
    assert eta_x(2.0) == math.ceil(math.log(2.0) / math.log(1.2)) == 4
    assert eta_x(0.5) == 0.0
    assert eta_x(1.0) == 0.0
    lam = math.exp(0.1)
    r = (1.2 * lam - 1.0) / (lam - 1.0)
    assert abs(cert_derived.search_ratio - r) < 1e-12
    assert eta_d(2.0) == math.ceil(math.log(2.0 * r) / math.log(1.2)) == 11


def test_eta_smooth_dominates(cert_derived, cert_params):
    eta_x, eta_d, eta_hat = eta_functions(cert_derived)
    for s in np.logspace(-3, 6, 200):
        assert eta_hat(s) >= max(eta_x(s), eta_d(s)) - 1e-12
    # nondecreasing on the sampled grid
    grid = np.logspace(-3, 6, 200)
    for f in (eta_x, eta_d, eta_hat):
        vals = [f(s) for s in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_iss_gains_vanish_at_zero(toy_gains):
    _, f = toy_gains
    assert f.gamma1(0.0) == 0.0
    assert f.gamma2(0.0) == 0.0
    assert f.gamma3(0.0) == 0.0


def test_iss_gains_monotone_and_dominate_feedthrough(toy_gains, toy_derived):
    _, f = toy_gains
    grid = np.logspace(-4, 3, 60)
    for gamma in (f.gamma1, f.gamma2, f.gamma3):
        vals = [gamma(s) for s in grid]
        assert all(v > 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for s in grid:
        assert f.gamma2(s) >= toy_derived.dist_gain * s
        assert f.gamma3(s) >= toy_derived.dist_gain * s


def test_stab_gain_two_regime_split(toy_gains, toy_params, toy_derived):
    # both the long-time and the short-time branch must win somewhere, and
    # their max must stay continuous across the crossover
    g, f = toy_gains
    c12 = g.c1 * g.c2
    h_factor = g.step_gain / (g.step_gain - 1.0)
    expo = g.kappa * (math.log(g.step_gain) / math.log(g.nu)) + 1.0
    e_small = 1e-6
    grid = np.logspace(-6, 2, 2000)
    long_t = c12 * grid ** (g.kappa / 2.0) * (grid + e_small)
    short_t = h_factor * grid**expo
    assert np.any(long_t > short_t) and np.any(short_t > long_t)
    vals = np.array([f.stab_state_gain(e_small, s) for s in grid])
    assert np.allclose(vals, np.maximum(long_t, short_t), rtol=1e-12)
    # sampled continuity on the fine grid (max of two continuous branches)
    rel_jump = np.abs(np.diff(vals)) / np.maximum(vals[1:], 1e-30)
    assert np.max(rel_jump) < 0.05


def test_iss_gains_require_certificate(ref_plant, raw_params):
    d = derive_constants(ref_plant, raw_params)
    g = gain_constants(d, raw_params)
    with pytest.raises(ValueError):
        iss_gains(d, raw_params, g)


def test_gain_composition_matches_oracle(toy_gains, toy_derived, toy_params):
    g, f = toy_gains
    consts = constants_from(toy_derived, toy_params, g)
    for s in np.logspace(-3, 3, 20):
        ref = oracle_values(consts, float(s))
        got = {
            "capture0": f.capture0_gain(s),
            "capture": f.capture_gain(s),
            "first_stage": f.first_stage_gain(toy_params.radius0, s),
            "post_escape": f.post_escape_gain(s),
            "post_recapture": f.post_recapture_gain(s),
            "gamma1": f.gamma1(s),
            "gamma2": f.gamma2(s),
            "gamma3": f.gamma3(s),
        }
        for name, val in got.items():
            scale = max(1.0, abs(ref[name]), abs(val))
            assert abs(val - ref[name]) <= 1e-12 * scale, name


# Radii, and arguments of either zero besides them: equal values of three
# types and distinct values.  A map must not serve one of them another's bits.
_GAIN_RADII = (1e-3, 0.5, np.float64(0.5), 2, 2.0, np.float64(2.0), 37.5)
_GAIN_ARGS = (0.0, -0.0, 0) + _GAIN_RADII
_GAIN_MAPS = ("capture0_gain", "capture_gain", "first_stage_gain", "post_escape_gain",
              "post_recapture_gain", "stab_state_gain", "stab_dist_gain", "gamma1", "gamma2",
              "gamma3")


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_GAIN_MAPS), st.sampled_from(_GAIN_RADII),
                          st.sampled_from(_GAIN_ARGS)), min_size=1, max_size=40))
def test_gain_maps_in_any_order_match_a_fresh_instance(cert_derived, cert_params, calls):
    g = gain_constants(cert_derived, cert_params)
    f = iss_gains(cert_derived, cert_params, g)
    for name, e, s in calls:
        args = (e, s) if name in ("first_stage_gain", "stab_state_gain", "stab_dist_gain") else (s,)
        got = getattr(f, name)(*args)
        want = getattr(iss_gains(cert_derived, cert_params, g), name)(*args)
        assert (type(got), float(got).hex()) == (type(want), float(want).hex()), (name, args)
    assert len(f._recent) <= _RECENT


def _reference_log(ref_plant, cert_params, cert_derived, horizon=30.0, substeps=25):
    sig = PulseTrain([(10.5, 10.7, [1.5]), (22.5, 22.7, [1.5])], dim=1)
    log = run_closed_loop(ref_plant, cert_params, cert_derived, sig,
                          np.array([1.0, 1.0]), horizon, substeps=substeps)
    return sig, log


def test_check_trajectory_reference_all_pass(ref_plant, cert_params, cert_derived):
    sig, log = _reference_log(ref_plant, cert_params, cert_derived)
    g = gain_constants(cert_derived, cert_params)
    rep = check_trajectory(log, cert_derived, cert_params, g, sig)
    assert rep.certified
    assert rep.all_pass
    names = {r.name for r in rep.rows}
    assert "lyapunov_decay" in names and "iss_envelope" in names
    assert rep.row("escape_state_bound").n_checked == 2
    assert rep.row("recapture_index").n_checked == 2
    assert rep.row("capture_initial_index").n_checked == 1


def test_check_trajectory_corruption_detected(ref_plant, cert_params, cert_derived):
    sig, log = _reference_log(ref_plant, cert_params, cert_derived, horizon=8.0)
    assert log.n_samples // 2 == 40 and log.stage[35:46].all()  # inside a stabilizing stage
    cli._corrupt(log, cert_derived, cert_params)
    g = gain_constants(cert_derived, cert_params)
    rep = check_trajectory(log, cert_derived, cert_params, g, sig)
    assert not rep.all_pass


def test_check_trajectory_fails_the_rows_that_read_a_nan(ref_plant, cert_params, cert_derived):
    sig, log = _reference_log(ref_plant, cert_params, cert_derived, substeps=10)
    log.dense_x[100, 0] = math.nan
    log.x[50, 0] = math.nan
    g = gain_constants(cert_derived, cert_params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_trajectory(log, cert_derived, cert_params, g, sig)
    failed = [r for r in rep.rows if r.status == "fail"]
    assert [r.name for r in failed] == [
        "quantization_cell", "error_recursion_stabilizing", "intersample_envelope",
        "value_bound_c1", "state_bound_c2", "next_state_bound_c3", "exp_decay_envelope",
        "iss_envelope"]
    assert all(math.isnan(r.worst_margin) for r in failed)


def _zero_disturbance_rows(ref_plant, cert_params, cert_derived, damage):
    """Check rows of a 10 s undisturbed run (101 samples, captured at k = 4
    and never lost) after ``damage`` rewrites its symbols."""
    sig = Zero(1)
    log = run_closed_loop(ref_plant, cert_params, cert_derived, sig, np.array([1.0, 1.0]),
                          10.0, substeps=2)
    damage(log.symbol)
    g = gain_constants(cert_derived, cert_params)
    return {r.name: r for r in check_trajectory(log, cert_derived, cert_params, g, sig).rows}


def test_recapture_index_checks_an_open_search_past_its_bound(ref_plant, cert_params,
                                                               cert_derived):
    # an escape at k = 40 still open at the last sample, k = 100; without a
    # disturbance its recapture bound is 40 + 1
    def lost_from_40(symbol):
        symbol[40:] = 0
    row = _zero_disturbance_rows(ref_plant, cert_params, cert_derived, lost_from_40)[
        "recapture_index"]
    assert (row.n_checked, row.worst_margin, row.status) == (1, 41.0 - 100.0, "fail")


def test_capture_initial_index_checks_a_search_never_captured_past_its_bound(
        ref_plant, cert_params, cert_derived):
    def never_captured(symbol):
        symbol[:] = 0
    rows = _zero_disturbance_rows(ref_plant, cert_params, cert_derived, never_captured)
    row = rows["capture_initial_index"]
    assert (row.n_checked, row.status) == (1, "fail") and row.worst_margin < -90.0
    # the same run as logged is captured at k = 4, within that bound
    row = _zero_disturbance_rows(ref_plant, cert_params, cert_derived, lambda symbol: None)[
        "capture_initial_index"]
    assert (row.n_checked, row.status) == (1, "pass")


def test_check_trajectory_reads_stages_and_events_off_the_symbols(ref_plant, cert_params,
                                                                   cert_derived):
    sig, log = _reference_log(ref_plant, cert_params, cert_derived)
    g = gain_constants(cert_derived, cert_params)
    rows = [_row(r) for r in check_trajectory(log, cert_derived, cert_params, g, sig).rows]
    log.stage = np.random.default_rng(0).integers(-3, 3, log.stage.size)
    log.events = [TrajectoryEvent("captured", 7, -1.0)] * 5
    assert [_row(r) for r in check_trajectory(log, cert_derived, cert_params, g, sig).rows] == rows


def test_check_trajectory_uncertified_design(ref_plant, raw_params):
    d = derive_constants(ref_plant, raw_params)
    sig = Zero(dim=1)
    log = run_closed_loop(ref_plant, raw_params, d, sig, np.array([1.0, 1.0]),
                          10.0, substeps=10)
    g = gain_constants(d, raw_params)
    rep = check_trajectory(log, d, raw_params, g, sig)
    assert not rep.certified
    gated = [r for r in rep.rows if r.status == "not_certified"]
    assert {r.name for r in gated} == {
        "lyapunov_decay", "value_bound_c1", "state_bound_c2",
        "next_state_bound_c3", "exp_decay_envelope", "iss_envelope"}
    # the protocol-level inequalities still pass
    for r in rep.rows:
        if r.status != "not_certified":
            assert r.status == "pass", r.name


def test_readme_lists_every_check_in_report_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Checks\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `(\w+)`", section, re.M) == list(CHECKS)
    assert re.findall(r"^- `(\w+)` \(certificate\)", section, re.M) == list(CERTIFICATE_CHECKS)


def test_check_trajectory_dimension_guard(ref_plant, cert_params, cert_derived,
                                          toy_derived, toy_params):
    sig, log = _reference_log(ref_plant, cert_params, cert_derived, horizon=2.0)
    g = gain_constants(toy_derived, toy_params)
    with pytest.raises(ValueError):
        check_trajectory(log, toy_derived, toy_params, g, sig)


def test_check_trajectory_names_a_log_with_a_short_sup_column(ref_plant, cert_params,
                                                              cert_derived):
    sig, log = _reference_log(ref_plant, cert_params, cert_derived, horizon=2.0)
    log.d_sup_prev = log.d_sup_prev[:-1]
    with pytest.raises(ValueError, match="^malformed log$"):
        check_trajectory(log, cert_derived, cert_params, gain_constants(cert_derived, cert_params),
                         sig)


def test_report_row_raises_key_error_for_an_unknown_check(ref_plant, cert_params, cert_derived):
    sig, log = _reference_log(ref_plant, cert_params, cert_derived, horizon=2.0)
    rep = check_trajectory(log, cert_derived, cert_params,
                           gain_constants(cert_derived, cert_params), sig)
    with pytest.raises(KeyError, match="nope"):
        rep.row("nope")


def _row(r):
    return (r.name, r.n_checked, r.status, r.worst_margin)


@pytest.mark.parametrize("sig,x0,horizon", [
    (PulseTrain([(10.5, 10.7, [1.5]), (22.5, 22.7, [1.5])], dim=1), [1.0, 1.0], 30.0),
    (Sinusoid([0.05], freq_hz=0.5, phase=0.3), [1.0, 1.0], 30.0),
    (SeededUniform(bound=0.05, seed=3, hold=0.37), [1.0, 1.0], 30.0),
    # the last escape of these two is still open at the horizon
    (Sinusoid([0.6], freq_hz=0.7, phase=0.3), [1.0, 1.0], 30.0),
    (SeededUniform(bound=0.8, seed=3, hold=0.37), [1.0, 1.0], 30.0),
    (PulseTrain([(10.5, 10.7, [1.5]), (22.5, 22.7, [1.5])], dim=1), [0.1, -0.1], 30.0),
    (Zero(1), [30.0, -20.0], 10.0),
    (Zero(1), [1e4, -3e3], 2.0),
], ids=["pulses", "sinusoid", "uniform", "sine_escapes", "uniform_escapes",
        "visible_at_start", "lost_then_captured", "never_captured"])
def test_dense_checks_match_quadratic_oracle(ref_plant, cert_params, cert_derived, sig, x0,
                                             horizon):
    log = run_closed_loop(ref_plant, cert_params, cert_derived, sig, np.array(x0),
                          horizon, substeps=100)
    g = gain_constants(cert_derived, cert_params)
    rows = [_row(r) for r in check_trajectory(log, cert_derived, cert_params, g, sig).rows]
    assert len(rows) == 17 and all(r[2] == "pass" for r in rows)
    x_norm = np.max(np.abs(log.x), axis=1)
    expected = {
        "intersample_envelope": check_oracle.intersample_envelope(
            log, cert_derived.intersample_gain, cert_derived.dist_gain, sig),
        "exp_decay_envelope": check_oracle.exp_decay_envelope(
            log.stage == 1, x_norm, log.radius, log.d_sup_prev, g.c_exp, cert_derived.nu,
            cert_derived.dist_gain),
        **check_oracle.episode_rows(log, _SearchMaps(cert_derived, cert_params),
                                    g.escape_gain, cert_params.radius0,
                                    cert_params.dist_level, sig),
    }
    # the other 9 rows share their code with the oracle-free checker
    assert [expected.get(r[0], r) for r in rows] == rows


_pos = st.floats(0.0, 10.0)


@pytest.mark.parametrize("inject", [False, True])
@given(st.lists(st.tuples(st.booleans(), _pos, _pos, st.floats(0.0, 1.0)), min_size=2,
                max_size=60),
       st.floats(0.05, 0.95), st.floats(0.1, 10.0), st.floats(0.0, 5.0), st.data())
def test_exp_decay_envelope_matches_pair_grid(inject, samples, nu, c_exp, dist_gain, data):
    stab, x_norm, E, dsup = (np.array(col) for col in zip(*samples))
    if inject:
        # |x(t_k)| far above every bound from the previous sample of its run
        k = data.draw(st.integers(1, stab.size - 1))
        stab[k - 1] = stab[k] = True
        x_norm[k] = 2.0 * (c_exp * (x_norm.max() + E.max()) + dist_gain * dsup.max()) + 1.0
    args = (stab, x_norm, E, dsup, c_exp, nu, dist_gain)
    acc = _Acc("exp_decay_envelope")
    _add_exp_decay(acc, *args)
    got = _row(acc.row())
    want = check_oracle.exp_decay_envelope(*args)
    assert got[:3] == want[:3]
    if inject:
        assert got[2] == "fail"
    # The tightest l is found by a recurrence, then its bound is evaluated
    # exactly as the grid does; only a near tie between two l (a few ulps)
    # could pick a neighbour with a marginally different rounding.
    assert abs(got[3] - want[3]) <= 1e-12 * max(1.0, abs(want[3])) or got[3] == want[3]


def test_tightest_earlier_keeps_the_later_l_on_an_exact_tie():
    # At k = 2, l = 0 and l = 1 both give 0.25 = 0.5^2 * 1.0 = 0.5 * 0.5,
    # with no rounding; the tie goes to l = 1.  The last entry is never read.
    assert _tightest_earlier(np.array([1.0, 0.5, 9.0]), 0.5).tolist() == [0, 1]
    assert _tightest_earlier(np.array([1.0, 0.5, 0.25, 9.0]), 0.5).tolist() == [0, 1, 2]


def test_check_trajectory_sup_norm_calls_scale_with_samples(monkeypatch, ref_plant,
                                                            cert_params, cert_derived):
    calls = []
    orig = PulseTrain.sup_norm

    def counted(self, a, b):
        calls.append(np.size(b))
        return orig(self, a, b)

    g = gain_constants(cert_derived, cert_params)
    for substeps in (10, 50):
        sig, log = _reference_log(ref_plant, cert_params, cert_derived, substeps=substeps)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(PulseTrain, "sup_norm", counted)
            rep = check_trajectory(log, cert_derived, cert_params, g, sig)
        assert rep.all_pass
        # one call per block of dense records, a few interval sups per event
        assert len(log.dense_x) > substeps * (log.n_samples - 1)
        assert sum(calls) >= len(log.dense_x)
        blocks = -(-len(log.dense_x) // _DENSE_BLOCK)
        assert len(calls) <= blocks + len(log.events) + 5


def test_dense_checks_in_blocks_match_one_block(monkeypatch, ref_plant, cert_params,
                                                cert_derived):
    # Both dense envelopes run block by block; the last block is partial.
    sig, log = _reference_log(ref_plant, cert_params, cert_derived, substeps=100)
    n = len(log.dense_x)
    assert n > 2 * _DENSE_BLOCK and n % _DENSE_BLOCK
    g = gain_constants(cert_derived, cert_params)

    def rows():
        return [(r.name, r.n_checked, r.worst_margin.hex(), r.status)
                for r in check_trajectory(log, cert_derived, cert_params, g, sig).rows]

    blocked = rows()
    monkeypatch.setattr(analysis, "_DENSE_BLOCK", n)
    assert blocked == rows()
    assert {r[0] for r in blocked if r[1] == n} == {"intersample_envelope", "iss_envelope"}


def test_checker_memory_does_not_grow_with_the_horizon(ref_plant, cert_params, cert_derived):
    # One pass over the dense log keeps nothing per record: the checker's
    # peak on a 300 s run stays near its peak on a 30 s run, where a
    # float per record would add 2.4 MB.
    sig = PulseTrain([(t, t + 0.2, [1.5]) for t in (10.0, 25.0, 40.0, 55.0, 70.0, 85.0)], dim=1)
    g = gain_constants(cert_derived, cert_params)
    peaks = []
    for horizon in (30.0, 300.0):
        log = run_closed_loop(ref_plant, cert_params, cert_derived, sig, np.array([1.0, -0.5]),
                              horizon, 100)
        tracemalloc.start()
        try:
            rep = check_trajectory(log, cert_derived, cert_params, g, sig)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.all_pass and len(log.dense_x) > 100 * horizon / ref_plant.dt
        peaks.append(peak)
    assert peaks[1] <= 1.5 * peaks[0], peaks
