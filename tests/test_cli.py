import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrate import (Constant, ConfigError, SeededUniform, Sinusoid, parse_config,
                   serialize_config)
from qrate.config import fmt_num
from qrate.cli import main
from qrate.scenarios import bundled_scenario


@pytest.fixture()
def raw_cfg_path(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(serialize_config(bundled_scenario(certified=False)), encoding="utf-8")
    return path


@pytest.fixture()
def cert_cfg_path(tmp_path):
    path = tmp_path / "certified.cfg"
    path.write_text(serialize_config(bundled_scenario(certified=True)), encoding="utf-8")
    return path


def _eq_config(a, b) -> bool:
    if not (np.array_equal(a.plant.A, b.plant.A) and np.array_equal(a.plant.B, b.plant.B)
            and np.array_equal(a.plant.D, b.plant.D) and np.array_equal(a.plant.K, b.plant.K)
            and a.plant.dt == b.plant.dt and a.plant.n_levels == b.plant.n_levels):
        return False
    pa, pb = a.design, b.design
    if not all(getattr(pa, f) == getattr(pb, f)
               for f in ("radius0", "search_margin", "dist_level", "psi", "rho",
                         "phi", "floor_margin")):
        return False
    if (pa.Q is None) != (pb.Q is None):
        return False
    if pa.Q is not None and not np.array_equal(pa.Q, pb.Q):
        return False
    return (np.array_equal(a.x0, b.x0) and a.horizon == b.horizon
            and a.substeps == b.substeps
            and a.synthesize_if_invalid == b.synthesize_if_invalid
            and type(a.disturbance) is type(b.disturbance))


def test_config_round_trip():
    cfg = bundled_scenario(certified=True)
    text = serialize_config(cfg)
    parsed = parse_config(text)
    assert _eq_config(cfg, parsed)
    assert serialize_config(parsed) == text  # identity after one trip


def test_config_round_trip_all_signal_kinds(tmp_path):
    from qrate import Constant, SeededUniform, Sinusoid, Zero
    base = bundled_scenario()
    for sig in (Zero(dim=1), Constant([0.25]), Sinusoid([1.5], 2.0, 0.3),
                SeededUniform(0.4, 99, 0.2, dim=1)):
        cfg = dataclasses.replace(base)
        cfg.disturbance = sig
        text = serialize_config(cfg)
        assert serialize_config(parse_config(text)) == text


def test_config_rejects_small_grid(tmp_path):
    cfg = bundled_scenario()
    text = serialize_config(cfg).replace("plant.n_levels = 5", "plant.n_levels = 1")
    with pytest.raises(ConfigError):
        parse_config(text)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("plant.unknown = 3\n")


def test_config_rejects_bad_dimension():
    cfg = bundled_scenario()
    text = serialize_config(cfg).replace("sim.x0 = 1 1", "sim.x0 = 1 1 1")
    with pytest.raises(ConfigError):
        parse_config(text)


def _scenario_with(key: str):
    """The bundled scenario, with a disturbance kind that writes ``key``."""
    cfg = bundled_scenario()
    field = key.partition("disturbance.")[2]
    if field == "level":
        cfg.disturbance = Constant([0.02])
    elif field in ("amplitude", "freq_hz", "phase"):
        cfg.disturbance = Sinusoid([0.05], 0.5)
    elif field in ("bound", "seed", "hold"):
        cfg.disturbance = SeededUniform(0.05, 0, 0.1)
    return cfg


@pytest.mark.parametrize("key, bad", [
    ("plant.n_levels", "5.7"),
    ("sim.substeps", "2.9"),
    ("sim.substeps", "0"),
    ("sim.horizon", "inf"),
    ("sim.horizon", "nan"),
    ("plant.dt", "abc"),
    ("plant.A", "1 0 ; 0 inf"),
    ("design.rho", "nan"),
    ("design.floor_margin", "x"),
    ("sim.x0", "nan 1"),
    ("disturbance.pulses", "10.5 10.7 inf"),
    ("disturbance.level", "-inf"),
    ("disturbance.amplitude", "nan"),
    ("disturbance.freq_hz", "inf"),
    ("disturbance.phase", "nan"),
    ("disturbance.bound", "nan"),
    ("disturbance.hold", "inf"),
])
def test_config_rejects_truncated_or_non_finite_numbers(key, bad):
    lines = serialize_config(_scenario_with(key)).splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(key + " "))
    lines[lineno - 1] = f"{key} = {bad}"
    with pytest.raises(ConfigError, match=f"line {lineno}, {key}"):
        parse_config("\n".join(lines) + "\n")


_CONFIG_TEXTS = [serialize_config(cfg) for cfg in (
    bundled_scenario(), _scenario_with("disturbance.amplitude"),
    _scenario_with("disturbance.bound"), _scenario_with("disturbance.level"))]


_numbers = st.floats().map(fmt_num)


@given(st.sampled_from(_CONFIG_TEXTS), st.data(),
       st.one_of(st.text(), _numbers, st.integers().map(str),
                 st.lists(_numbers, min_size=1, max_size=4).map(" ".join)))
def test_parse_config_with_one_arbitrary_value_raises_only_config_error(text, data, value):
    lines = text.splitlines()
    i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if " = " in line]))
    lines[i] = lines[i].partition(" = ")[0] + " = " + value
    try:
        parse_config("\n".join(lines) + "\n")
    except ConfigError:
        pass


def test_unallocatable_horizon_exits_2_with_one_line(tmp_path, capsys):
    # 1e13 sampling periods: the dense log cannot be allocated at all
    text = serialize_config(bundled_scenario(certified=True))
    path = tmp_path / "long.cfg"
    path.write_text(text.replace("sim.horizon = 30", "sim.horizon = 1e12"), encoding="utf-8")
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_num_round_trips_every_finite_float(x):
    assert struct.pack("<d", float(fmt_num(x))) == struct.pack("<d", x)


def test_fmt_num_non_finite():
    assert [fmt_num(v) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]


def test_config_round_trip_keeps_negative_zero():
    cfg = bundled_scenario()
    A = cfg.plant.A.copy()
    A[0, 1] = -0.0
    cfg.plant = dataclasses.replace(cfg.plant, A=A)
    parsed = parse_config(serialize_config(cfg))
    assert np.signbit(parsed.plant.A[0, 1])
    assert serialize_config(parsed) == serialize_config(cfg)


def test_validate_exit_codes(raw_cfg_path, cert_cfg_path, tmp_path, capsys):
    assert main(["validate", "--config", str(raw_cfg_path),
                 "--out", str(tmp_path / "v1")]) == 1
    assert main(["validate", "--config", str(cert_cfg_path),
                 "--out", str(tmp_path / "v2")]) == 0
    assert (tmp_path / "v2" / "certificate.csv").exists()


def test_validate_missing_config(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_validate_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("plant.A = 1 0 ; 0 1\nnot a line\n", encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 2


def test_synthesize_writes_certified_config(raw_cfg_path, tmp_path):
    out = tmp_path / "synth"
    assert main(["synthesize", "--config", str(raw_cfg_path), "--out", str(out)]) == 0
    assert main(["validate", "--config", str(out / "synthesized.cfg"),
                 "--out", str(out / "check")]) == 0


def test_simulate_outputs_and_determinism(cert_cfg_path, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cert_cfg_path), "--out", str(out),
                     "--substeps", "20"]) == 0
        for fname in ("samples.csv", "dense.csv", "events.csv", "report.txt",
                      "err_E.svg", "x1_aux.svg"):
            assert (out / fname).exists(), fname
        outs.append(out)
    for fname in ("samples.csv", "dense.csv", "events.csv", "err_E.svg"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_simulate_events_csv(cert_cfg_path, tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cert_cfg_path), "--out", str(out),
                 "--substeps", "20"]) == 0
    lines = (out / "events.csv").read_text().strip().splitlines()
    assert lines[0] == "kind,k,t"
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert kinds[0] == "captured"
    assert kinds.count("escaped") == 2


def test_check_certified_passes(cert_cfg_path, tmp_path):
    out = tmp_path / "chk"
    assert main(["check", "--config", str(cert_cfg_path), "--out", str(out),
                 "--substeps", "20"]) == 0
    lines = (out / "checks.csv").read_text().strip().splitlines()
    assert lines[0] == "name,checked,worst_margin,verdict"
    verdicts = {ln.split(",")[-1] for ln in lines[1:]}
    assert verdicts == {"pass"}


def test_check_synthesizes_when_allowed(raw_cfg_path, tmp_path):
    text = raw_cfg_path.read_text().replace("sim.synthesize_if_invalid = false",
                                            "sim.synthesize_if_invalid = true")
    cfg2 = tmp_path / "auto.cfg"
    cfg2.write_text(text, encoding="utf-8")
    assert main(["check", "--config", str(cfg2), "--out", str(tmp_path / "chk2"),
                 "--substeps", "20"]) == 0


def test_check_raw_reports_not_certified(raw_cfg_path, tmp_path):
    out = tmp_path / "raw"
    code = main(["check", "--config", str(raw_cfg_path), "--out", str(out),
                 "--substeps", "20"])
    assert code == 0  # protocol-level checks hold; gated rows are not failures
    lines = (out / "checks.csv").read_text().strip().splitlines()[1:]
    verdicts = {ln.split(",")[-1] for ln in lines}
    assert "not_certified" in verdicts and "fail" not in verdicts


def test_check_corrupt_log_fails(cert_cfg_path, tmp_path):
    assert main(["check", "--config", str(cert_cfg_path), "--out",
                 str(tmp_path / "bad"), "--substeps", "20", "--corrupt-log"]) == 1


def test_gains_refuses_uncertified(raw_cfg_path, tmp_path):
    assert main(["gains", "--config", str(raw_cfg_path),
                 "--out", str(tmp_path / "g")]) == 1


def test_gains_table(cert_cfg_path, tmp_path):
    import math
    out = tmp_path / "gains"
    assert main(["gains", "--config", str(cert_cfg_path), "--out", str(out),
                 "--s-grid", "0,0.5,1,2"]) == 0
    lines = (out / "gains.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    assert rows[0][0] == "0" and all(float(v) == 0.0 for v in rows[0][1:])
    # the disturbance feedthrough term is a lower bound for gamma2/gamma3
    feedthrough = math.exp(0.1) - 1.0
    i_g2 = header.index("gamma2")
    i_g3 = header.index("gamma3")
    for row in rows:
        s = float(row[0])
        assert float(row[i_g2]) >= feedthrough * s - 1e-12
        assert float(row[i_g3]) >= feedthrough * s - 1e-12


def test_reproduce_paper(tmp_path):
    out = tmp_path / "repro"
    assert main(["reproduce-paper", "--out", str(out), "--substeps", "20"]) == 0
    for label in ("raw", "certified"):
        assert (out / label / "checks.csv").exists()
        assert (out / label / f"paper_sec7_{label}.cfg").exists()


def test_seed_override_changes_uniform_disturbance(tmp_path):
    cfg = bundled_scenario(certified=True)
    cfg.disturbance = SeededUniform(0.8, seed=1, hold=0.2, dim=1)
    cfg.horizon = 5.0
    path = tmp_path / "uni.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    outs = {}
    for name, seed in (("s1", "11"), ("s2", "22"), ("s1b", "11")):
        out = tmp_path / name
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--seed", seed, "--substeps", "10"]) == 0
        outs[name] = (out / "samples.csv").read_bytes()
    assert outs["s1"] == outs["s1b"]
    assert outs["s1"] != outs["s2"]


def test_env_var_default_out(cert_cfg_path, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("QRATE_OUT", str(target))
    assert main(["validate", "--config", str(cert_cfg_path)]) == 0
    assert (target / "certificate.csv").exists()


@pytest.mark.parametrize("command", ["validate", "synthesize", "simulate", "check",
                                     "gains", "reproduce-paper"])
@pytest.mark.parametrize("value", ["0", "-3", "2.5", "x"])
def test_substeps_flag_rejects_non_positive_integers(command, value, cert_cfg_path,
                                                     tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--substeps", value]
    if command != "reproduce-paper":
        argv += ["--config", str(cert_cfg_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"qrate {command}: error: argument --substeps: "
                      f"expected a positive integer, got '{value}'"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "gains", "check"])
@pytest.mark.parametrize("line, bad", [
    ("plant.A = 1 0 ; 0 -1.5", "plant.A = 1 300 ; -300 -1.5"),
    ("plant.D = 1 ; 0", "plant.D = 1e308 ; 0"),
], ids=["fast_rotation", "huge_D"])
def test_unresolvable_design_numerics_exit_2_with_one_line(command, line, bad, tmp_path,
                                                            capsys):
    text = serialize_config(bundled_scenario(certified=True))
    assert line in text
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(line, bad), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: phi_integral quadrature did not converge"]
