import dataclasses
import math

import numpy as np
import pytest

from qrate import (DesignParams, PlantModel, check_assumptions, derive_constants,
                   synthesize_design, validate_design)
from qrate.design import THETA_RHO


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


def test_one_derivation_per_design_call(ref_plant, raw_params, monkeypatch):
    # validate_design and synthesize_design each take e^{(A+BK)dt} and
    # e^{A dt} once and solve the Lyapunov equation at most once, and
    # their results match the values recorded before that was so, bit for bit.
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

    def counted(fn, *args):
        calls.update(expm=0, dlyap=0)
        out = fn(*args)
        assert calls["expm"] == 2 and calls["dlyap"] <= 1
        return out

    raw = counted(validate_design, ref_plant, raw_params)
    assert (raw.assumption1_ok, raw.assumption2_ok, raw.psi_ok, raw.rho_ok, raw.nu_ok) \
        == (True, True, True, False, False)
    assert raw.nu.hex() == "0x1.f5615671ef682p+9"
    assert raw.messages == ["quantization term 1002.75 is not below 1 (rho too small)",
                            "contraction factor nu = 1002.76 is not below 1"]

    p = counted(synthesize_design, ref_plant, raw_params)
    assert (p.psi.hex(), p.rho.hex(), p.phi.hex()) == (
        "0x1.999999999999ap-3", "0x1.aa0e919c6695cp+7", "0x1.3ddef5bd8e302p-15")

    cert = counted(validate_design, ref_plant, p)
    assert cert.certified and cert.messages == []
    assert cert.nu.hex() == "0x1.e733aab0ebb72p-1"


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
