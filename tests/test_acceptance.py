"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

import check_oracle
from conftest import make_random_plant
from gain_oracle import constants_from, oracle_values
from qrate import (Constant, DesignParams, PulseTrain, SeededUniform, Sinusoid,
                   Zero, check_trajectory, derive_constants, eta_functions,
                   gain_constants, iss_gains, run_closed_loop, synthesize_design)
from qrate import codec
from qrate import matnum as mn
from qrate.codec import CodecState


HINTS = DesignParams(radius0=0.5, search_margin=0.2, dist_level=0.1,
                     psi=0.2, rho=1.0, phi=0.01)


def _ok(name: str, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def _random_signal(rng, horizon):
    kind = rng.integers(0, 5)
    if kind == 0:
        return Zero(dim=1)
    if kind == 1:
        return Constant([float(rng.uniform(-0.5, 0.5))])
    if kind == 2:
        start = float(rng.uniform(0.5, horizon - 1.0))
        return PulseTrain([(start, start + float(rng.uniform(0.1, 0.5)),
                            [float(rng.uniform(-2.0, 2.0))])], dim=1)
    if kind == 3:
        return Sinusoid([float(rng.uniform(0.1, 1.0))],
                        freq_hz=float(rng.uniform(0.2, 3.0)),
                        phase=float(rng.uniform(0.0, 6.28)))
    return SeededUniform(bound=float(rng.uniform(0.1, 1.0)),
                         seed=int(rng.integers(0, 2**31)), hold=0.25, dim=1)


def test_criterion_1_lockstep_determinism():
    # 100 randomized scenarios: the decoder's replay of the symbol stream
    # gives the logged range, value, stage and events bit-for-bit, and a
    # second run of the scenario gives the same log; under 30 s total.
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    for _ in range(100):
        m = make_random_plant(rng)
        p = synthesize_design(m, HINTS)
        d = derive_constants(m, p)
        sig = _random_signal(rng, 3.0)
        x0 = rng.uniform(-2.0, 2.0, m.n_x)
        log, again = (run_closed_loop(m, p, d, sig, x0, 3.0, substeps=10) for _ in range(2))
        assert check_oracle.replay_mismatches(log, m, p, d) == []
        assert check_oracle.differing_fields(log, again, vars(log)) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok("1 lockstep determinism", f"(100 scenarios in {elapsed:.1f}s)")


def test_criterion_2_quantization_soundness():
    # 10,000 random (state, sample) pairs: the cell bounds hold exactly.
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    counts = {0: 0, 1: 0, 2: 0}
    for i in range(10_000):
        n_x = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        radius = float(10.0 ** rng.uniform(-4, 1))
        mode = i % 3
        if mode == 2:
            # force the near-origin pattern: x tiny, center nearby
            x = rng.uniform(-radius / n, radius / n, n_x)
            center = x + rng.uniform(-0.9, 0.9, n_x) * radius
        else:
            center = rng.uniform(-3.0, 3.0, n_x)
            span = 1.3 if mode == 0 else 0.999
            x = center + rng.uniform(-span, span, n_x) * radius
        st = CodecState(center=center, radius=radius)
        sym = codec.encode(st, x, n)
        if sym == 0:
            counts[0] += 1
            assert np.max(np.abs(x - center)) > radius
        elif sym == 1:
            counts[1] += 1
            assert np.max(np.abs(x)) <= radius / n
        else:
            counts[2] += 1
            c = codec.decode_center(st, sym, n)
            # exact up to representation rounding of the decoded center
            ulp = 4.0 * np.finfo(float).eps * (np.max(np.abs(center)) + radius)
            assert np.max(np.abs(x - c)) <= radius / n + ulp
            assert np.max(np.abs(c - center)) <= (n - 1) / n * radius + ulp
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert min(counts.values()) > 100  # every symbol class exercised
    _ok("2 quantization soundness", f"(10000 pairs in {elapsed:.2f}s)")


def test_criterion_3_zero_disturbance_decay(ref_plant, cert_params, cert_derived):
    # visible start, no disturbance: no escapes over 2000 samples, the value
    # function contracts every step, and the radius passes below 1e-6 no
    # later than the threshold the contraction factor implies.
    log = run_closed_loop(ref_plant, cert_params, cert_derived, Zero(dim=1),
                          np.array([0.2, 0.2]), 200.0, substeps=10)
    assert log.n_samples >= 2001
    assert [e for e in log.events if e.kind == "escaped"] == []
    v, nu = log.value, cert_derived.nu
    lhs, rhs = v[1:2001], nu * v[:2000]
    assert np.all(lhs <= rhs + 1e-9 * np.maximum(1.0, rhs))
    # E_k <= E_0 * nu^{k/2} makes the crossing index explicit
    k_star = math.ceil(math.log(1e-12 / cert_params.radius0**2) / math.log(nu)) + 1
    assert k_star < 2000
    assert log.radius[k_star] < 1e-6
    assert np.min(log.radius[:2000]) < 1e-6
    _ok("3 zero-disturbance containment and decay",
        f"(nu={nu:.4f}, radius below 1e-6 by sample {k_star})")


def test_criterion_4_reference_scenario_events(ref_plant, cert_params, cert_derived):
    t0 = time.perf_counter()
    sig = PulseTrain([(10.5, 10.7, [1.5]), (22.5, 22.7, [1.5])], dim=1)
    log = run_closed_loop(ref_plant, cert_params, cert_derived, sig,
                          np.array([1.0, 1.0]), 30.0, substeps=100)
    # lost at the start, captured within eta_x(|x0|/E0) = ceil(log_{1.2} 2) = 4
    assert log.symbol[0] == 0
    captures = [e for e in log.events if e.kind == "captured"]
    escapes = [e for e in log.events if e.kind == "escaped"]
    assert captures and captures[0].k <= math.ceil(math.log(2.0) / math.log(1.2))
    assert len(escapes) == 2

    eta_x, eta_d, _ = eta_functions(cert_derived)
    for onset, esc in zip((10.5, 22.5), escapes):
        # the escape is the first visibility failure after the pulse onset
        assert esc.t > onset
        between = [k for k in range(log.n_samples)
                   if onset < log.t[k] < esc.t]
        assert all(log.symbol[k] >= 1 for k in between)
        # followed by a recapture within the step-count bound
        rec = next(c for c in captures if c.k > esc.k)
        sup = sig.sup_norm(log.t[esc.k - 1], log.t[rec.k])
        assert rec.k <= esc.k + max(eta_d(sup / cert_params.dist_level), 1.0)

    # after each recapture the radius decays along the stabilizing run
    nu = cert_derived.nu
    for rec in captures[1:]:
        end = next((e.k for e in escapes if e.k > rec.k), log.n_samples)
        run = np.arange(rec.k, end)
        assert run.size > 10
        envelope = np.sqrt(log.value[rec.k] * nu ** (run - rec.k) / cert_params.rho)
        assert np.all(log.radius[run] <= envelope + 1e-9 * np.maximum(1.0, envelope))
        assert log.radius[run[-1]] < log.radius[run[0]]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok("4 reference scenario reproduction", f"({elapsed:.1f}s)")


def test_criterion_5_escape_certificates(ref_plant, cert_params, cert_derived):
    # 50 randomized pulse scenarios: every escape satisfies the
    # disturbance-only bounds on state and previous radius.
    rng = np.random.default_rng(1005)
    g = gain_constants(cert_derived, cert_params)
    total_escapes = 0
    for _ in range(50):
        n_p = int(rng.integers(1, 3))
        starts = np.sort(rng.uniform(2.0, 20.0, n_p))
        pulses = []
        t_prev = 0.0
        for s in starts:
            s = max(s, t_prev + 0.2)
            w = float(rng.uniform(0.1, 0.4))
            level = float(rng.uniform(0.5, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
            pulses.append((s, s + w, [level]))
            t_prev = s + w
        sig = PulseTrain(pulses, dim=1)
        log = run_closed_loop(ref_plant, cert_params, cert_derived, sig,
                              np.array([1.0, 1.0]), 25.0, substeps=20)
        escapes = [e for e in log.events if e.kind == "escaped"]
        total_escapes += len(escapes)
        rep = check_trajectory(log, cert_derived, cert_params, g, sig)
        for name in ("escape_state_bound", "escape_radius_bound"):
            row = rep.row(name)
            assert row.status == "pass", name
            assert row.n_checked == len(escapes)
    assert total_escapes >= 20
    _ok("5 escape certificates", f"({total_escapes} escapes across 50 scenarios)")


def test_criterion_6_iss_envelope(ref_plant, cert_params, cert_derived):
    # reference scenario plus 20 randomized bounded-disturbance scenarios:
    # |x(t)| <= gamma1(|x0|) + gamma2(||d||) at every dense record.
    g = gain_constants(cert_derived, cert_params)
    f = iss_gains(cert_derived, cert_params, g)
    sig = PulseTrain([(10.5, 10.7, [1.5]), (22.5, 22.7, [1.5])], dim=1)
    log = run_closed_loop(ref_plant, cert_params, cert_derived, sig,
                          np.array([1.0, 1.0]), 30.0, substeps=25)
    bound = (f.gamma1(np.max(np.abs(log.x[0])))
             + f.gamma2(sig.sup_norm(0.0, log.t[-1])))
    assert np.max(np.abs(log.dense_x)) <= bound

    rng = np.random.default_rng(1006)
    for _ in range(20):
        m = make_random_plant(rng)
        p = synthesize_design(m, HINTS)
        d = derive_constants(m, p)
        gc = gain_constants(d, p)
        assert gc.valid
        sig = _random_signal(rng, 5.0)
        x0 = rng.uniform(-3.0, 3.0, m.n_x)
        log = run_closed_loop(m, p, d, sig, x0, 5.0, substeps=20)
        rep = check_trajectory(log, d, p, gc, sig)
        row = rep.row("iss_envelope")
        assert row.status == "pass"
        assert row.n_checked == len(log.dense_x)
    _ok("6 ISS envelope", "(21 scenarios, every dense record)")


def test_criterion_7_numerics_oracles():
    # closed-form oracle families at 1e-9 relative, plus the basic
    # linear-algebra facts over 1000 random draws.
    E = mn.expm(np.diag([1.0, -1.5]), 0.1)
    assert abs(E[0, 0] - math.exp(0.1)) / math.exp(0.1) < 1e-9
    assert abs(E[1, 1] - math.exp(-0.15)) / math.exp(-0.15) < 1e-9
    N = mn.expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 2.0)
    assert np.max(np.abs(N - [[1.0, 2.0], [0.0, 1.0]])) < 1e-9
    assert np.max(np.abs(mn.expm(np.zeros((2, 2))) - np.eye(2))) < 1e-12

    cases = [
        (np.zeros((2, 2)), np.eye(2), 0.5, 0.5),
        (np.diag([1.0, -1.5]), np.array([[1.0], [0.0]]), 0.1, math.exp(0.1) - 1.0),
        (np.array([[-1.0]]), np.array([[1.0]]), 1.0, 1.0 - math.exp(-1.0)),
    ]
    for A, D, tau, exact in cases:
        assert abs(mn.phi_integral(A, D, tau) - exact) / exact < 1e-9

    assert abs(mn.dlyap(np.array([[0.0]]), np.array([[1.0]]))[0, 0] - 1.0) < 1e-9
    assert abs(mn.dlyap(np.array([[0.5]]), np.array([[1.0]]))[0, 0] - 4 / 3) / (4 / 3) < 1e-9
    P = mn.dlyap(np.diag([0.5, 0.2]), np.eye(2))
    assert abs(P[0, 0] - 4 / 3) / (4 / 3) < 1e-9
    assert abs(P[1, 1] - 25 / 24) / (25 / 24) < 1e-9

    rng = np.random.default_rng(1007)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        v = rng.uniform(-3.0, 3.0, n)
        w = rng.uniform(-3.0, 3.0, n)
        W = rng.uniform(-1.0, 1.0, (n, n))
        M = (W + W.T) / 2.0
        lo, hi = mn.sym_eig_extremes(M)
        vn = mn.inf_norm_vec(v)
        tol = 1e-12 * max(1.0, vn * vn)
        assert vn * vn <= v @ v + tol
        assert v @ w <= n * vn * mn.inf_norm_vec(w) + tol
        assert lo * (v @ v) - tol <= v @ M @ v <= hi * (v @ v) + tol
        Pm = W @ W.T + 0.1 * np.eye(n)
        plo, phi_ = mn.sym_eig_extremes(Pm)
        assert plo * vn * vn - tol <= v @ Pm @ v <= n * phi_ * vn * vn + tol
    _ok("7 numerics oracles")


def test_criterion_8_gain_composition_oracle(toy_plant, toy_params, toy_derived):
    # composed gains agree with the straight-line transcription to 1e-12
    # relative at 20 grid points.
    g = gain_constants(toy_derived, toy_params)
    f = iss_gains(toy_derived, toy_params, g)
    consts = constants_from(toy_derived, toy_params, g)
    worst = 0.0
    for s in np.logspace(-3, 3, 20):
        ref = oracle_values(consts, float(s))
        for name, val in (("gamma1", f.gamma1(s)), ("gamma2", f.gamma2(s)),
                          ("gamma3", f.gamma3(s))):
            scale = max(1.0, abs(ref[name]), abs(val))
            rel = abs(val - ref[name]) / scale
            worst = max(worst, rel)
            assert rel <= 1e-12, (name, s)
    _ok("8 gain composition oracle", f"(worst relative gap {worst:.2e})")
