import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_plant
from qrate import (DesignParams, PlantModel, bundled_params, check_assumptions,
                   derive_constants, gain_constants, iss_gains, synthesize_design,
                   validate_design)
from qrate import design
from qrate.design import THETA_RHO

# Bits of (dist_gain, peak_closed, peak_open) and of the 27 x 11 gain table
# of the benchmark's design_sweep plants (see _sweep_plants), taken before
# the design derivation was shared between calls.
SWEEP_PEAKS_SHA256 = "9eae811b788d8bb008595146482a8574d8cf22a4eea7ded769cbb43c4fb71888"
SWEEP_GAINS_SHA256 = "4eeae84a6653b1239cc948b086a77efbf1fb18224ea9b8ff17fb72299f003f67"
# The benchmark's gain grid and the maps it tabulates, in its order.
SWEEP_GRID = [0.0] + list(np.logspace(-3, 2, 26))
SWEEP_GAINS = ("eta_state", "eta_dist", "eta_smooth", "capture0_gain", "capture_gain",
               "post_escape_gain", "post_recapture_gain", "gamma1", "gamma2", "gamma3")


def test_check_assumptions_reference_plant(ref_plant):
    assert check_assumptions(ref_plant) == (True, True)


def test_check_assumptions_zero_gain(ref_plant):
    m = PlantModel(A=ref_plant.A, B=ref_plant.B, D=ref_plant.D,
                   K=np.zeros((1, 2)), dt=0.1, n_levels=5)
    a1, _ = check_assumptions(m)
    assert not a1  # open-loop unstable mode survives


def test_check_assumptions_integrator_minimal_grid():
    # A = 0 gives per-period growth exactly 1, which any grid count >= 2 beats.
    m = PlantModel(A=np.zeros((2, 2)), B=np.eye(2), D=np.eye(2),
                   K=-np.eye(2), dt=0.1, n_levels=2)
    assert check_assumptions(m) == (True, True)


def test_plant_matrices_are_its_own_read_only_copies(ref_plant):
    # The simulation builds each stage's block dynamics once per plant, so a
    # plant's matrices must not change under it.
    A = np.array(ref_plant.A)
    m = PlantModel(A=A, B=ref_plant.B, D=ref_plant.D, K=ref_plant.K, dt=0.1, n_levels=5)
    A[0, 0] += 1.0
    assert m.A[0, 0] == ref_plant.A[0, 0]
    for M in (m.A, m.B, m.D, m.K):
        with pytest.raises(ValueError):
            M[0, 0] = 0.0


def test_derive_constants_reference_oracles(ref_plant, raw_params):
    d = derive_constants(ref_plant, raw_params)
    assert abs(d.growth - math.exp(0.1)) < 1e-12
    exact_phi = math.exp(0.1) - 1.0
    assert abs(d.dist_gain - exact_phi) / exact_phi < 1e-9
    assert abs(d.data_rate_bits - math.log2(27.0) / 0.1) < 1e-12
    assert d.growth_eff == d.growth  # above the 1.01 floor already
    assert abs(d.search_growth - 1.2 * math.exp(0.1)) < 1e-12
    # open-loop peak sits at the end of the period for the growing mode
    assert abs(d.peak_open - math.exp(0.1)) < 1e-8
    assert d.intersample_gain == 2.0 * d.peak_closed + d.peak_open
    assert d.nu == d.nu_base + (1.0 + 1.0 / raw_params.psi) * raw_params.phi * raw_params.rho


def test_derive_constants_scalar_toy(toy_derived):
    d = toy_derived
    # closed-loop step 0.5 and Lyapunov solution 1/(1 - 0.25)
    assert abs(d.S_closed[0, 0] - 0.5) < 1e-12
    assert abs(d.P[0, 0] - 4.0 / 3.0) < 1e-9
    assert abs(d.growth - 1.1) < 1e-12
    # chi = 2 * (1/3)^2 / 1 + 1/3
    assert abs(d.chi - 5.0 / 9.0) < 1e-9
    # nu = max{1 - 1/(2*4/3), 0.64*(5/9) + 1.2*1.21/25} + 6*0.01
    expected_nu = max(1.0 - 1.0 / (2.0 * 4.0 / 3.0),
                      0.64 * (5.0 / 9.0) + 1.2 * 1.1**2 / 25.0) + 6.0 * 0.01
    assert abs(d.nu - expected_nu) < 1e-9
    assert abs(expected_nu - 0.685) < 1e-12


def test_validate_scalar_toy(toy_plant, toy_params):
    rep = validate_design(toy_plant, toy_params)
    assert rep.certified
    assert abs(rep.nu - 0.685) < 1e-9


def test_validate_scalar_toy_large_phi_breaks_nu(toy_plant, toy_params):
    rep = validate_design(toy_plant, dataclasses.replace(toy_params, phi=1.0))
    assert rep.psi_ok and rep.rho_ok and not rep.nu_ok
    assert rep.nu > 1.0


def test_validate_reference_raw_triple(ref_plant, raw_params):
    # The stock triple runs the protocol fine but its certificate does not
    # hold with the identity Lyapunov right-hand side: rho is far too small.
    rep = validate_design(ref_plant, raw_params)
    assert rep.assumption1_ok and rep.assumption2_ok and rep.psi_ok
    assert not rep.rho_ok
    assert not rep.nu_ok
    assert not rep.certified
    assert rep.messages


def test_validate_unstable_closed_loop_reports_not_errors(ref_plant, raw_params):
    m = PlantModel(A=ref_plant.A, B=ref_plant.B, D=ref_plant.D,
                   K=np.zeros((1, 2)), dt=0.1, n_levels=5)
    rep = validate_design(m, raw_params)
    assert not rep.assumption1_ok
    assert not rep.certified
    assert math.isnan(rep.nu)


def test_synthesize_scalar_toy(toy_plant, toy_params, toy_derived):
    p = synthesize_design(toy_plant, toy_params)
    assert p.psi == toy_params.psi  # cap is ~9.83, the hint survives
    geff = toy_derived.growth_eff
    expected_rho = toy_derived.chi * 0.64 / (THETA_RHO * (1.0 - 1.2 * geff**2 / 25.0))
    assert abs(p.rho - expected_rho) / expected_rho < 1e-9
    rep = validate_design(toy_plant, p)
    assert rep.certified and rep.nu < 1.0


def test_synthesize_caps_large_psi_hint(toy_plant, toy_params, toy_derived):
    p = synthesize_design(toy_plant, dataclasses.replace(toy_params, psi=1e6))
    cap = 0.5 * (25.0 / toy_derived.growth_eff**2 - 1.0)
    assert abs(p.psi - cap) / cap < 1e-9
    assert validate_design(toy_plant, p).certified


def test_synthesize_integrator_plant():
    m = PlantModel(A=np.zeros((2, 2)), B=np.eye(2), D=np.eye(2),
                   K=-np.eye(2), dt=0.1, n_levels=2)
    hints = DesignParams(radius0=1.0, search_margin=0.2, dist_level=0.1,
                         psi=0.2, rho=1.0, phi=0.01)
    p = synthesize_design(m, hints)
    assert validate_design(m, p).certified


def test_synthesize_reference_plant(ref_plant, raw_params):
    p = synthesize_design(ref_plant, raw_params)
    rep = validate_design(ref_plant, p)
    assert rep.certified
    assert 0.0 < rep.nu < 1.0


def test_synthesize_rejects_unstable(ref_plant, raw_params):
    m = PlantModel(A=ref_plant.A, B=ref_plant.B, D=ref_plant.D,
                   K=np.zeros((1, 2)), dt=0.1, n_levels=5)
    with pytest.raises(ValueError):
        synthesize_design(m, raw_params)


def test_quantization_term_decreases_in_rho(ref_plant, raw_params):
    # Left-hand side of the rho condition never grows when rho grows.
    d = derive_constants(ref_plant, raw_params)
    n = ref_plant.n_levels
    lhs = lambda rho: (0.64 * d.chi / rho
                       + (1 + raw_params.psi) * d.growth_eff**2 / n**2)
    rng = np.random.default_rng(2)
    for _ in range(100):
        r1 = float(rng.uniform(0.01, 100.0))
        r2 = r1 * float(rng.uniform(1.0, 10.0))
        assert lhs(r2) <= lhs(r1)


def test_data_rate_monotonicity(ref_plant, raw_params):
    base = derive_constants(ref_plant, raw_params).data_rate_bits
    slower = PlantModel(A=ref_plant.A, B=ref_plant.B, D=ref_plant.D,
                        K=ref_plant.K, dt=0.2, n_levels=5)
    finer = PlantModel(A=ref_plant.A, B=ref_plant.B, D=ref_plant.D,
                       K=ref_plant.K, dt=0.1, n_levels=6)
    assert derive_constants(slower, raw_params).data_rate_bits < base
    assert derive_constants(finer, raw_params).data_rate_bits > base


def test_growth_floor_applies():
    # Integrator plant: raw growth is exactly 1, the floor lifts it.
    m = PlantModel(A=np.zeros((1, 1)), B=np.eye(1), D=np.eye(1),
                   K=-np.eye(1), dt=0.1, n_levels=3)
    p = DesignParams(radius0=1.0, search_margin=0.2, dist_level=0.1,
                     psi=0.2, rho=1.0, phi=0.001, floor_margin=0.02)
    d = derive_constants(m, p)
    assert abs(d.growth - 1.0) < 1e-12
    assert d.growth_eff == 1.02
    assert d.growth_eff > 1.0 and d.growth_eff >= d.growth


def test_plant_model_validation():
    with pytest.raises(ValueError):
        PlantModel(A=np.eye(2), B=np.eye(2), D=np.eye(2), K=np.eye(2),
                   dt=0.1, n_levels=1)
    with pytest.raises(ValueError):
        PlantModel(A=np.eye(2), B=np.eye(2), D=np.eye(2), K=np.eye(2),
                   dt=0.0, n_levels=5)
    with pytest.raises(ValueError):
        PlantModel(A=np.eye(2), B=np.eye(3), D=np.eye(2), K=np.eye(2),
                   dt=0.1, n_levels=5)


def test_design_params_validation():
    with pytest.raises(ValueError):
        DesignParams(radius0=0.0, search_margin=0.2, dist_level=0.1,
                     psi=0.2, rho=1.0, phi=0.01)
    with pytest.raises(ValueError):
        DesignParams(radius0=1.0, search_margin=0.2, dist_level=0.1,
                     psi=0.2, rho=1.0, phi=0.01, Q=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        DesignParams(radius0=1.0, search_margin=0.2, dist_level=0.1,
                     psi=0.2, rho=1.0, phi=0.01, Q=-np.eye(2))
    with pytest.raises(ValueError, match="^Q must be square$"):
        DesignParams(radius0=1.0, search_margin=0.2, dist_level=0.1,
                     psi=0.2, rho=1.0, phi=0.01, Q=np.ones((2, 3)))


def _same_plant(m):
    """A new plant object with m's matrices: no derivation has seen it yet."""
    return PlantModel(A=m.A, B=m.B, D=m.D, K=m.K, dt=m.dt, n_levels=m.n_levels)


def test_one_derivation_per_design_call(ref_plant, raw_params, monkeypatch):
    # validate, synthesize, validate and derive on one plant share one
    # derivation: e^{(A+BK)dt} and e^{A dt} are taken once and the Lyapunov
    # equation is solved once, and the results match the values recorded
    # before the derivation was shared, bit for bit.
    from qrate import matnum
    calls = {"expm": 0, "dlyap": 0}

    def counting(name):
        original = getattr(matnum, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(matnum, "expm", counting("expm"))
    monkeypatch.setattr(matnum, "dlyap", counting("dlyap"))

    def chain(m, hints):
        calls.update(expm=0, dlyap=0)
        out = (validate_design(m, hints), synthesize_design(m, hints))
        out += (validate_design(m, out[1]), derive_constants(m, out[1]))
        return out, dict(calls)

    m = _same_plant(ref_plant)
    (raw, p, cert, d), taken = chain(m, raw_params)
    assert taken == {"expm": 2, "dlyap": 1}
    assert (raw.assumption1_ok, raw.assumption2_ok, raw.psi_ok, raw.rho_ok, raw.nu_ok) \
        == (True, True, True, False, False)
    assert raw.nu.hex() == "0x1.f5615671ef682p+9"
    assert raw.messages == ["quantization term 1002.75 is not below 1 (rho too small)",
                            "contraction factor nu = 1002.76 is not below 1"]
    assert (p.psi.hex(), p.rho.hex(), p.phi.hex()) == (
        "0x1.999999999999ap-3", "0x1.aa0e919c6695cp+7", "0x1.3ddef5bd8e302p-15")
    assert cert.certified and cert.messages == []
    assert cert.nu.hex() == "0x1.e733aab0ebb72p-1"
    assert d.nu == cert.nu

    # Another plant, another floor_margin or Q, and then the first plant
    # again each derive anew: the memo holds one entry.
    for plant, hints in ((_same_plant(ref_plant), raw_params),
                         (m, dataclasses.replace(raw_params, floor_margin=0.02)),
                         (m, dataclasses.replace(raw_params, Q=np.diag([1.0, 2.0]))),
                         (m, raw_params)):
        assert chain(plant, hints)[1] == {"expm": 2, "dlyap": 1}
    # Q is compared by value: an equal Q in a new array derives nothing.
    chain(m, dataclasses.replace(raw_params, Q=np.eye(2)))
    assert chain(m, dataclasses.replace(raw_params, Q=np.eye(2)))[1] == {"expm": 0, "dlyap": 0}


def test_design_params_keep_their_own_read_only_q(ref_plant, raw_params):
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    p = dataclasses.replace(raw_params, Q=Q)
    d = derive_constants(ref_plant, p)
    P = d.P.copy()
    Q[0, 0] = 5.0
    assert p.Q is not Q and p.Q[0, 0] == 2.0 and d.Q[0, 0] == 2.0
    for m in (ref_plant, _same_plant(ref_plant)):  # the memo's entry, and a fresh derivation
        assert derive_constants(m, p).P.tobytes() == P.tobytes()
    # The derived arrays are shared by every DerivedConstants of the design.
    for M in (p.Q, d.Q, d.P, d.S_closed, d.S_open):
        with pytest.raises(ValueError):
            M[0, 0] = 0.0


def _bits(x):
    """Everything in a design result, floats and arrays as their bits."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_bits(getattr(x, f.name))
                                           for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, list):
        return tuple(map(_bits, x))
    return x


def _design_step(op, m, hints):
    try:
        if op == "validate_hints":
            return _bits(validate_design(m, hints))
        p = synthesize_design(m, hints)
        if op == "synthesize":
            return _bits(p)
        return _bits(validate_design(m, p) if op == "validate" else derive_constants(m, p))
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


_MEMO_PLANTS = [make_random_plant(np.random.default_rng(seed), 2) for seed in (5, 6)] + [
    make_random_plant(np.random.default_rng(7), 3),
    PlantModel(A=np.array([[1.0, 0.0], [0.0, -1.5]]), B=np.array([[1.0], [0.5]]),
               D=np.array([[1.0], [0.0]]), K=np.zeros((1, 2)), dt=0.1, n_levels=5)]
_MEMO_QS = (None, np.array([[2.0, 0.5], [0.5, 1.0]]))  # the second does not fit n_x = 3
_MEMO_OPS = ("validate_hints", "synthesize", "validate", "derive")
_memo_fresh: dict = {}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_MEMO_PLANTS) - 1), st.integers(0, 1),
                          st.sampled_from((0.01, 0.5)), st.sampled_from(_MEMO_OPS)),
                min_size=1, max_size=10))
def test_shared_derivation_matches_fresh_calls(steps):
    # Plants (one with an unstable closed loop), Q (one that does not fit a
    # plant) and floor_margin interleaved in any order give the bits, or
    # the error, of a call on a plant no derivation has seen.
    for i, j, margin, op in steps:
        hints = dataclasses.replace(bundled_params(), Q=_MEMO_QS[j], floor_margin=margin)
        key = (i, j, margin, op)
        if key not in _memo_fresh:
            last = design._last  # the fresh call must not change what the next step finds
            _memo_fresh[key] = _design_step(op, _same_plant(_MEMO_PLANTS[i]), hints)
            design._last = last
        assert _design_step(op, _MEMO_PLANTS[i], hints) == _memo_fresh[key], key


def test_unstable_closed_loop_skips_dlyap(ref_plant, raw_params, monkeypatch):
    from qrate import matnum

    def refuse(*args, **kwargs):
        raise AssertionError("dlyap called for an unstable closed loop")

    monkeypatch.setattr(matnum, "dlyap", refuse)
    m = PlantModel(A=ref_plant.A, B=ref_plant.B, D=ref_plant.D,
                   K=np.zeros((1, 2)), dt=0.1, n_levels=5)
    rep = validate_design(m, raw_params)
    assert rep.messages[-1] == "Lyapunov-based conditions unavailable without a stable closed loop"
    with pytest.raises(ValueError, match="spectral radius"):
        derive_constants(m, raw_params)


def _sweep_plants():
    """design_sweep's 40 plants before its seeded change of coordinates:
    8 at each n_x = 2..6 from one generator seeded 0, each draw followed by
    the draw of its initial state."""
    rng = np.random.default_rng(0)
    plants = []
    for n in range(2, 7):
        for _ in range(8):
            plants.append(make_random_plant(rng, n))
            rng.choice([-1.0, 1.0], n), rng.uniform(0.5, 1.5, n)
    return plants


def test_design_sweep_plants_match_pinned_bits():
    # The benchmark's gate reads neither the quadratures nor the gains'
    # values; these pins do, for its own plants, grid and call sequence.
    peaks, table = hashlib.sha256(), hashlib.sha256()
    for m in _sweep_plants():
        hints = bundled_params()
        assert not validate_design(m, hints).certified
        p = synthesize_design(m, hints)
        assert validate_design(m, p).certified
        d = derive_constants(m, p)
        peaks.update(np.array([d.dist_gain, d.peak_closed, d.peak_open]).tobytes())
        f = iss_gains(d, p, gain_constants(d, p))
        table.update(np.array([[getattr(f, name)(s) for name in SWEEP_GAINS]
                               + [f.first_stage_gain(p.radius0, s)] for s in SWEEP_GRID]).tobytes())
    assert (peaks.hexdigest(), table.hexdigest()) == (SWEEP_PEAKS_SHA256, SWEEP_GAINS_SHA256)
