import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import csv_oracle
import qrate
from conftest import PROPERTY_PROFILE
from qrate import (Constant, ConfigError, DesignParams, PlantModel, PulseTrain,
                   ScenarioConfig, SeededUniform, Sinusoid, Zero, parse_config,
                   serialize_config)
from qrate import _fields, cli, design, plant, svgplot
from qrate.config import fmt_num
from qrate.cli import _write_table, main
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


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# a margin whose 1 + margin is above 1 and squares to a finite number
_margin = st.floats(min_value=math.nextafter(2.0**-53, 1.0), max_value=1e154)


@st.composite
def _scenarios(draw):
    """Any scenario the classes accept: every disturbance kind, Q or none,
    integers past 2**53, and any outputs.dir text."""
    n_x, n_u, n_d = (draw(st.integers(1, 3)) for _ in range(3))
    vector = lambda n: np.array(draw(st.lists(_finite, min_size=n, max_size=n)))
    matrix = lambda r, c: vector(r * c).reshape(r, c)
    plant = PlantModel(A=matrix(n_x, n_x), B=matrix(n_x, n_u), D=matrix(n_x, n_d),
                       K=matrix(n_u, n_x), dt=draw(_positive),
                       n_levels=draw(st.integers(2, 2**64)))
    # a positive diagonal Q, however badly scaled, whose (Q + Q^T)/2 is finite
    Q = draw(st.none() | st.lists(st.floats(0.0, 1e307, exclude_min=True), min_size=n_x,
                                  max_size=n_x).map(np.diag))
    radius0, dist_level, psi, rho, phi = (draw(_positive) for _ in range(5))
    params = DesignParams(radius0, draw(_margin), dist_level, psi, rho, phi, Q=Q,
                          floor_margin=draw(_margin))
    kind = draw(st.sampled_from(["zero", "constant", "pulses", "sinusoid", "uniform"]))
    if kind == "zero":
        sig = Zero(dim=n_d)
    elif kind == "constant":
        sig = Constant(vector(n_d))
    elif kind == "pulses":
        edges = sorted(draw(st.lists(_finite, max_size=6, unique=True)))
        sig = PulseTrain([(s, e, vector(n_d)) for s, e in zip(edges[::2], edges[1::2])],
                         dim=n_d)
    elif kind == "sinusoid":
        sig = Sinusoid(vector(n_d), draw(_finite), draw(_finite))
    else:
        sig = SeededUniform(draw(st.floats(min_value=0.0, max_value=sys.float_info.max / 2)),
                            draw(st.integers(0, 2**128 - 1)), draw(_positive), dim=n_d)
    return ScenarioConfig(plant, params, vector(n_x),
                          draw(st.floats(min_value=plant.dt, allow_infinity=False)), sig,
                          substeps=draw(st.integers(1, 2**64)),
                          synthesize_if_invalid=draw(st.booleans()),
                          out_dir=draw(st.none() | st.text()))


@given(_scenarios())
def test_serialized_config_reads_back_to_the_same_text(cfg):
    try:
        text = serialize_config(cfg)
    except ConfigError:
        # only an outputs.dir that one config line cannot carry is refused
        assert cfg.out_dir is not None
        serialize_config(dataclasses.replace(cfg, out_dir=None))
        return
    # a run whose period count or sine argument overflows is refused at parse time
    sig, dt = cfg.disturbance, cfg.plant.dt
    if not math.isfinite(cfg.horizon / dt) or (isinstance(sig, Sinusoid) and not math.isfinite(
            2.0 * math.pi * sig.freq_hz * (cfg.horizon + dt) + sig.phase)):
        with pytest.raises(ConfigError, match=r"^line \d+, (sim\.horizon|disturbance\.freq_hz): "):
            parse_config(text)
        return
    parsed = parse_config(text)
    assert serialize_config(parsed) == text
    assert parsed.out_dir == cfg.out_dir


@pytest.mark.parametrize("out_dir", [" x", "x ", "a\nb", "a\rb", "a\u2028b"])
def test_serialize_refuses_an_out_dir_one_line_cannot_carry(out_dir):
    cfg = dataclasses.replace(bundled_scenario(), out_dir=out_dir)
    with pytest.raises(ConfigError, match="outputs.dir"):
        serialize_config(cfg)


def test_config_round_trip_keeps_large_integers_and_empty_pulse_trains():
    cfg = dataclasses.replace(bundled_scenario(), substeps=2**60 + 1, out_dir="a b")
    cfg.disturbance = SeededUniform(0.1, 2**53 + 1, 0.1)
    parsed = parse_config(serialize_config(cfg))
    assert (parsed.disturbance.seed, parsed.substeps, parsed.out_dir) == (2**53 + 1,
                                                                          2**60 + 1, "a b")
    cfg.disturbance = PulseTrain([], dim=1)
    assert parse_config(serialize_config(cfg)).disturbance.pulses == []


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
    """The bundled scenario, changed (disturbance kind, or a design.Q) so
    that it writes ``key``."""
    cfg = bundled_scenario()
    field = key.partition("disturbance.")[2]
    if field == "level":
        cfg.disturbance = Constant([0.02])
    elif field in ("amplitude", "freq_hz", "phase"):
        cfg.disturbance = Sinusoid([0.05], 0.5)
    elif field in ("bound", "seed", "hold"):
        cfg.disturbance = SeededUniform(0.05, 0, 0.1)
    elif key == "design.Q":
        cfg.design = dataclasses.replace(cfg.design, Q=np.eye(2))
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
    ("sim.synthesize_if_invalid", "maybe"),
    ("disturbance.kind", "triangle"),
    ("sim.horizon", "0.05"),
    ("disturbance.level", "0.02 0.02"),
    ("disturbance.amplitude", "0.05 0.05"),
    ("disturbance.pulses", "10.5 10.7 1.5 1.5"),
    ("design.Q", "1 0 0 ; 0 1 0 ; 0 0 1"),
    ("disturbance.seed", "-1"),
    ("disturbance.seed", str(2**128)),
])
def test_config_rejects_truncated_or_non_finite_numbers(key, bad):
    lines = serialize_config(_scenario_with(key)).splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(key + " "))
    lines[lineno - 1] = f"{key} = {bad}"
    with pytest.raises(ConfigError, match=f"line {lineno}, {key}"):
        parse_config("\n".join(lines) + "\n")


@pytest.mark.parametrize("sig, stray", [
    (Zero(dim=1), "disturbance.pulses = 10.5 10.7 1.5"),
    (Constant([0.02]), "disturbance.amplitude = 0.05"),
    (PulseTrain([(10.5, 10.7, [1.5])], dim=1), "disturbance.level = 0.02"),
    (Sinusoid([0.05], 0.5), "disturbance.seed = 3"),
    (SeededUniform(0.05, 0, 0.1), "disturbance.freq_hz = 2"),
], ids=["zero", "constant", "pulses", "sinusoid", "uniform"])
def test_config_rejects_a_key_the_disturbance_kind_does_not_read(sig, stray):
    cfg = bundled_scenario()
    cfg.disturbance = sig
    lines = serialize_config(cfg).splitlines() + [stray]
    key = stray.partition(" = ")[0]
    with pytest.raises(ConfigError, match=f"line {len(lines)}, {key}"):
        parse_config("\n".join(lines) + "\n")


_HUGE_Q = "design.Q = 1e308 0 ; 0 1"


@pytest.mark.parametrize("q_line", [_HUGE_Q, "design.Q = 1 1e308 ; -1e308 1"])
def test_config_rejects_a_q_whose_symmetric_part_overflows(q_line):
    text = serialize_config(bundled_scenario(certified=True)) + q_line + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"^line {text.count(chr(10))}, design.Q: Q "):
            parse_config(text)


def test_validate_rejects_a_q_whose_symmetric_part_overflows(cert_cfg_path, capsys):
    with cert_cfg_path.open("a", encoding="utf-8") as fh:
        fh.write(_HUGE_Q + "\n")
    lineno = len(cert_cfg_path.read_text(encoding="utf-8").splitlines())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", "--config", str(cert_cfg_path)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        f"config error: line {lineno}, design.Q: Q is too large: (Q + Q^T)/2 overflows"]


@pytest.mark.parametrize("key, bad, message", [
    ("disturbance.bound", "-1", "bound must be nonnegative and finite"),
    ("plant.dt", "0", "dt must be positive"),
    ("disturbance.pulses", "1 3 0.5 ; 2 4 0.5", "pulses must not overlap"),
], ids=["negative_bound", "zero_dt", "overlapping_pulses"])
def test_constructor_errors_name_the_line_and_key(key, bad, message, tmp_path, capsys):
    lines = serialize_config(_scenario_with(key)).splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(key + " "))
    lines[lineno - 1] = f"{key} = {bad}"
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: line {lineno}, {key}: {message}"]


def test_validate_takes_a_badly_scaled_positive_q_without_a_traceback(cert_cfg_path, tmp_path,
                                                                      capsys):
    # eigvalsh puts the smallest eigenvalue of diag(1e170, 1e-300) at or
    # below 0; a Cholesky factor exists, and the error names the eigenvalue
    # it gives
    with cert_cfg_path.open("a", encoding="utf-8") as fh:
        fh.write("design.Q = 1e170 0 ; 0 1e-300\n")
    assert parse_config(cert_cfg_path.read_text(encoding="utf-8")).design.Q[1, 1] == 1e-300
    code = main(["validate", "--config", str(cert_cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and err == ["error: chi overflows: |S^T P S| is 1.54e+170 and the smallest "
                                 "eigenvalue of Q 1e-300"]


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


@pytest.mark.parametrize("lines, key", [
    (["sim.horizon = 1e308"], "sim.horizon"),
    (["design.floor_margin = 1e308"], "design.floor_margin"),
    (["design.search_margin = 5e-324"], "design.search_margin"),
    (["disturbance.kind = uniform", "disturbance.bound = 1e308"], "disturbance.bound"),
    (["disturbance.kind = sinusoid", "disturbance.amplitude = 0.05",
      "disturbance.freq_hz = 1e308"], "disturbance.freq_hz"),
], ids=["horizon", "floor_margin", "search_margin", "uniform_bound", "sinusoid_freq"])
def test_values_that_overflow_the_run_fail_at_parse_time_naming_the_key(lines, key, cert_cfg_path,
                                                                         tmp_path, capsys):
    # each value would overflow deep in the run (int(inf), an overflowing
    # power, a division by log(1) = 0, numpy's uniform range, math.sin(inf)),
    # with a message that names neither the key nor the cause
    keys = {line.partition(" = ")[0] for line in lines}
    text = [line for line in cert_cfg_path.read_text(encoding="utf-8").splitlines()
            if line.partition(" = ")[0] not in keys
            and not (lines[0].startswith("disturbance.") and line.startswith("disturbance."))]
    text += lines
    cert_cfg_path.write_text("\n".join(text) + "\n", encoding="utf-8")
    lineno = len(text) - len(lines) + 1 + [k.partition(" = ")[0] for k in lines].index(key)
    with pytest.raises(ConfigError, match=f"^line {lineno}, {key}: "):
        parse_config(cert_cfg_path.read_text(encoding="utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check", "--config", str(cert_cfg_path), "--substeps", "3",
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1
    assert err[0].startswith(f"config error: line {lineno}, {key}: ")


def _with_value(cert_cfg_path, key: str, value: str):
    """The certified scenario with the value of ``key`` replaced."""
    lines = [f"{key} = {value}" if line.startswith(key + " ") else line
             for line in cert_cfg_path.read_text(encoding="utf-8").splitlines()]
    cert_cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cert_cfg_path


@pytest.mark.parametrize("warning_filter", ["always", "error"])
def test_a_state_that_leaves_the_float_range_exits_2_naming_where(warning_filter, cert_cfg_path,
                                                                  tmp_path, capsys):
    # a 1e308 pulse drives the unstable mode past the float range about 2.1 s after it ends
    path = _with_value(cert_cfg_path, "disturbance.pulses", "10.5 10.7 1e308 ; 22.5 22.7 1.5")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(warning_filter)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "error: the state left the float range at t = 12.795, in the sampling interval from "
        "sample k = 127"]


@pytest.mark.parametrize("command, flags, key, value, message", [
    # a power that raises OverflowError
    ("gains", ("--s-grid", "0,1e300"), None, None, "gain capture0(1e+300)"),
    ("check", (), "disturbance.pulses", "10.5 10.7 1e300 ; 22.5 22.7 1.5",
     "gain gamma2(1e+300)"),
    # a finite power times the state norm, which rounds to inf
    ("check", (), "sim.x0", "1e148 1e148", "gain initial_search_bound(1e+148, 1e+148)"),
], ids=["gains", "check_pulse", "check_x0"])
def test_a_gain_that_leaves_the_float_range_exits_2_naming_it(command, flags, key, value,
                                                              message, cert_cfg_path, tmp_path,
                                                              capsys):
    path = _with_value(cert_cfg_path, key, value) if key else cert_cfg_path
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out"), *flags])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message} leaves the float range"]


def _main_without_warnings(warning_filter: str, *argv: str) -> int:
    """``main(argv)``, asserting that it issues no warning under the filter."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(warning_filter)
        code = main(list(argv))
    assert [str(w.message) for w in caught] == []
    return code


@pytest.mark.parametrize("warning_filter", ["always", "error"])
@pytest.mark.parametrize("command", ["validate", "synthesize", "check", "gains"])
@pytest.mark.parametrize("plant, transition", [
    # e^800 overflows in scipy's exp, in its diagonal shortcut and in its squaring
    ({"plant.A": "800", "plant.B": "1", "plant.D": "1", "plant.K": "-801", "sim.x0": "1"},
     "e^{A dt}"),
    ({"plant.A": "800 0 ; 0 -1"}, "e^{(A+BK) dt}"),
    ({"plant.A": "800 1 ; 1 -1"}, "e^{(A+BK) dt}"),
], ids=["1x1", "2x2_diagonal", "2x2_coupled"])
def test_a_one_period_exponential_that_overflows_exits_2_naming_it(
        plant, transition, command, warning_filter, cert_cfg_path, tmp_path, capsys):
    path = _with_value(cert_cfg_path, "plant.dt", "1")
    for key, value in plant.items():
        path = _with_value(path, key, value)
    assert _main_without_warnings(warning_filter, command, "--config", str(path),
                                  "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: the one-period transition {transition} leaves the float range"]


@pytest.mark.parametrize("warning_filter", ["always", "error"])
@pytest.mark.parametrize("dist_level, argument", [
    ("1e-308", "1.5000000000000002e+308"),  # ratio * s overflows inside eta_dist
    ("5e-324", "inf"),  # the sup norm over dist_level overflows
])
def test_an_eta_counter_that_leaves_the_float_range_exits_2_naming_it(
        dist_level, argument, warning_filter, cert_cfg_path, tmp_path, capsys):
    path = _with_value(cert_cfg_path, "design.dist_level", dist_level)
    assert _main_without_warnings(warning_filter, "check", "--config", str(path),
                                  "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: gain eta_dist({argument}) leaves the float range"]


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("key, value", [
    ("design.radius0", "1e200"), ("design.radius0", "1e308"), ("design.dist_level", "1e200")])
def test_a_radius_that_leaves_the_float_range_exits_2_with_one_line(key, value, command,
                                                                    cert_cfg_path, tmp_path,
                                                                    capsys):
    # the search stage grows the radius past the float range within a few samples
    path = _with_value(cert_cfg_path, key, value)
    assert _main_without_warnings("error", command, "--config", str(path), "--substeps", "3",
                                  "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.splitlines() == ["error: radius must stay positive and finite"]


_CAPPED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from qrate.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n")


def _capped_check(tmp_path, hold, horizon):
    """``check`` on the certified scenario with uniform noise of the given
    hold, in a child process under the 1 GiB address-space cap: a hold edge
    list that is built although it should not be then ends in MemoryError
    instead of taking all the memory there is.  Returns the finished process
    and its wall time."""
    cfg = bundled_scenario(certified=True)
    cfg.disturbance = SeededUniform(0.05, 3, hold=hold)
    cfg.horizon = horizon
    path = tmp_path / "uniform.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(qrate.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, "check", "--config", str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc, time.monotonic() - start


@pytest.mark.parametrize("hold, code, n_err", [(0.37, 0, 0), (1e-300, 2, 1)])
def test_tiny_hold_exits_2_at_once_under_a_memory_cap(hold, code, n_err, tmp_path):
    # hold 1e-300 means 3e301 hold edges over the horizon.  Only ever run it
    # under the memory cap.  Hold 0.37 shows the cap alone lets a run through.
    proc, elapsed = _capped_check(tmp_path, hold, 1.0)
    assert elapsed < 5.0
    assert proc.returncode == code, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == n_err and all(line.startswith("error: ") for line in err)


def test_tiny_hold_error_names_the_hold_and_the_edge_count(tmp_path):
    proc, _ = _capped_check(tmp_path, 1e-300, 1.0)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: hold interval 1e-300 s gives 1e+300 hold edges in (0.0, 1.0), too many to build "
        "(at most 1e+07 per call)"]


def test_hold_edges_past_the_bound_exit_2_at_once_under_a_memory_cap(tmp_path):
    # 3e8 hold edges could be built, but would take about 12 GB as a list:
    # the bound on edges per call refuses them before any is built.  Only
    # ever run it under the memory cap.
    proc, elapsed = _capped_check(tmp_path, 1e-7, 30.0)
    assert elapsed < 5.0
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: hold interval 1e-07 s gives 3e+08 hold edges in (0.0, 30.0), too many to build "
        "(at most 1e+07 per call)"]


_CONSOLE_MAIN = (
    "import json, os, sys\n"
    "import qrate_console\n"
    "loaded = 'numpy' in sys.modules\n"
    "status = qrate_console.main(sys.argv[1:])\n"
    "print(json.dumps([loaded, 'numpy' in sys.modules, status,\n"
    "                  {v: os.environ.get(v) for v in qrate_console.THREAD_VARS}]))\n")


def test_console_script_caps_blas_threads_unless_set(tmp_path):
    # The console script's module sets every thread variable left unset to
    # 1, and only then loads numpy, through qrate; a preset one stays as set.
    # Importing the module sets nothing.
    before = dict(os.environ)
    import qrate_console

    assert dict(os.environ) == before
    path = tmp_path / "bundled.cfg"
    path.write_text(serialize_config(bundled_scenario(certified=True)), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in qrate_console.THREAD_VARS}
    env.update(PYTHONPATH=str(Path(qrate.__file__).parents[1]), OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", _CONSOLE_MAIN, "validate", "--config", str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded_first, loaded_after, status, values = json.loads(proc.stdout.splitlines()[-1])
    assert (loaded_first, loaded_after, status) == (False, True, 0)
    assert values == {var: "2" if var == "OPENBLAS_NUM_THREADS" else "1"
                      for var in qrate_console.THREAD_VARS}


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_num_round_trips_every_finite_float(x):
    assert struct.pack("<d", float(fmt_num(x))) == struct.pack("<d", x)


@given(st.floats(), st.floats(), st.integers(-2**63, 2**63 - 1))
@example(-0.0, math.nan, 2**63 - 1)
@example(math.inf, -math.inf, -2**63)
@example(5e-324, -2.2250738585072009e-308, 0)
@example(sys.float_info.max, -sys.float_info.max, -1)
def test_row_templates_agree_with_the_number_formatters(tmp_path_factory, x, y, k):
    for v in (x, y):
        assert "%.17g" % v == fmt_num(v)
        assert "%.6g" % v == svgplot._fmt(v)
    # dense_k as the writer reads it: an int64 entry through tolist()
    k = np.array([k], dtype=np.int64)
    assert "%d" % k.tolist()[0] == str(int(k[0]))
    # an int64 column, a 2-D float column and a text column
    path = tmp_path_factory.getbasetemp() / "row.csv"
    _write_table(path, ["k", "x", "y", "name"], [k, np.array([[x, y]]), ["searching"]])
    row = path.read_text(encoding="utf-8").splitlines()[1]
    assert row == ",".join([str(int(k[0])), fmt_num(x), fmt_num(y), "searching"])
    assert svgplot._POINT % (x, y) == f"{svgplot._fmt(x)},{svgplot._fmt(y)}"


def _both_writers(tmp_path, header, columns) -> tuple[bytes, bytes]:
    """The bytes the block formatter and the old %-template writer write."""
    _write_table(tmp_path / "new.csv", header, columns)
    csv_oracle.write_table(tmp_path / "old.csv", header, columns)
    return (tmp_path / "new.csv").read_bytes(), (tmp_path / "old.csv").read_bytes()


_TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
                max_size=12)


@PROPERTY_PROFILE
@given(st.lists(st.tuples(st.floats(), st.floats(), st.integers(-2**63, 2**63 - 1), _TEXT),
                min_size=1, max_size=6))
@example([(math.nan, -0.0, 0, ""), (math.inf, -math.inf, -2**63, "searching")])
@example([(0.0, 5e-324, 2**63 - 1, "ü"), (sys.float_info.max, -sys.float_info.max, -1, "x")])
@example([(-5e-324, 2.2250738585072014e-308, 1, "stabilizing")])
def test_block_formatter_writes_the_bytes_of_the_percent_templates(tmp_path_factory, rows):
    x, y, k, text = zip(*rows)
    columns = [np.array(k, dtype=np.int64), np.array([x, y]).T, list(text), list(x)]
    new, old = _both_writers(tmp_path_factory.getbasetemp(), ["k", "x", "y", "s", "x"], columns)
    assert new == old


def _hand_picked_floats() -> list[float]:
    values = []
    for q in range(-20, 21):  # each power of ten and both float neighbours
        v = float(f"1e{q}")
        values += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    # the fixed/exponent switches of %g at exponent -5/-4 and 16/17
    values += [9.99999999999999e-5, 1.0000000000000001e-4, 9.999999999999999e-6,
               9999999999999998.0, 99999999999999984.0, 1.0000000000000002e17]
    # exact ties at the 18th significant digit, which % rounds half to even
    values += [123456789012345.125, 123456789012345.375, 1234567890123456.25,
               1234567890123456.75, 131073 / 2**18, 131075 / 2**18, 131073 / 2**17]
    # the ends of the float range and the domain of the exact path
    values += [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-280,
               math.nextafter(1e-280, 0.0), 1e300, math.nextafter(1e300, 0.0),
               sys.float_info.max, 0.0, math.nan, math.inf, 9.9999999999999998e-121]
    return values + [-v for v in values]


def test_block_formatter_matches_the_percent_templates_on_hand_picked_values(tmp_path):
    floats = np.array(_hand_picked_floats())
    ints = np.array([-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1], dtype=np.int64)
    unsigned = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    # tiled past two blocks, in rows of 3 floats, 1 int64, 1 uint64 and 1 text field
    n = 2 * cli._TABLE_BLOCK + 7
    columns = [np.resize(floats, (n, 3)), np.resize(ints, n), np.resize(unsigned, n),
               np.resize(np.array(["captured", "escaped", "", "ß"]), n)]
    new, old = _both_writers(tmp_path, ["a", "b", "c", "k", "u", "s"], columns)
    assert new == old


def test_the_ties_round_half_to_even():
    # each of these has 18 significant digits, the last a 5
    ties = [123456789012345.125, 1234567890123456.75, 131073 / 2**18]
    assert [fmt_num(v) for v in ties] == [
        "123456789012345.12", "1234567890123456.8", "0.50000381469726562"]
    _, _, exact = _fields.decimal17(np.array(ties))
    assert not exact.any()  # ties go to %, which rounds them


def test_the_bundled_dense_log_needs_no_fallback():
    # every float of the certified run's dense.csv takes the exact path, so
    # a fallback to % on every field would fail here, not only run slower
    cfg = bundled_scenario(certified=True)
    params, _, _ = cli._certified_design(cfg)
    d = design.derive_constants(cfg.plant, params)
    log = plant.run_closed_loop(cfg.plant, params, d, cfg.disturbance, cfg.x0, cfg.horizon,
                                cfg.substeps)
    floats = np.concatenate([log.dense_t, log.dense_x.ravel(), log.dense_xhat.ravel(),
                             log.dense_u.ravel()])
    assert floats.size == 6 * 30300  # six float fields in each of 30,300 rows
    _, _, exact = _fields.decimal17(floats)
    assert exact.all()


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
    for fname in ("samples.csv", "dense.csv", "events.csv", "report.txt",
                  "err_E.svg", "x1_aux.svg"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


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


def test_check_has_no_corrupt_log_flag(cert_cfg_path, tmp_path, capsys):
    # The log-damaging hook is cli._corrupt, for tests only; no flag reaches it.
    with pytest.raises(SystemExit) as exc:
        main(["check", "--config", str(cert_cfg_path), "--out", str(tmp_path / "bad"),
              "--corrupt-log"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --corrupt-log" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


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


# sha256 of every file reproduce-paper writes, as formatted one number at a
# time with fmt_num and svgplot._fmt; each SVG polyline thinned by M4
REPRODUCE_SHA256 = {
    (): {
        "certified/checks.csv": "5977a2212f3a1060b11c8fa4961db63e5103c40d10ee87f7c90188f6ede8b62b",
        "certified/dense.csv": "b5c74c7ba97949cc4fc7c01d7399a08b0fb133111dc567b3c576139117a1b25b",
        "certified/err_E.svg": "9df93e9b630ec84da20b8a43d9b6d434b47716191036845dcffa2c52115fc61b",
        "certified/events.csv": "eab9b10d9f734c008b887ab55bd5da732a9b7ec636e348d01a12543e45aaa087",
        "certified/paper_sec7_certified.cfg":
            "388ff4b83b854d463d129c02fe8fc3d1ccc6c951904c6e4db45f5df61c2b7604",
        "certified/report.txt": "03c7a4308fbb7080dac1b6d6a7669111426e8fff9e0310718fad9180e8e1ce51",
        "certified/samples.csv": "c4457f0e224e9a1b6443c131bdfd4e5a061d8e494be34dbcd3bf9c381a25bbdb",
        "certified/x1_aux.svg": "551b6f0b05bad729f2c6d567ff0026de351b4deffd5068bc74bde0b4033baf4f",
        "raw/checks.csv": "b89004749fa634a3ea1d02b4fa5aeb85b2d2cd3dc230e10e91ff051f844bad61",
        "raw/dense.csv": "4ecba703e6a83d1edfac7ccbc939d276eb5192b32c2947750fc3708e8dd1987b",
        "raw/err_E.svg": "467344ef44325c92eaabee5e62d0ec9ce8e9dc810965824513bbe2b4e727061d",
        "raw/events.csv": "eab9b10d9f734c008b887ab55bd5da732a9b7ec636e348d01a12543e45aaa087",
        "raw/paper_sec7_raw.cfg": "b00c97f3631eeb9512a7e8bb0ec544af034d022e5c61b3e6cbef06ac1ee6fb36",
        "raw/report.txt": "7ed9c991469c803b251a5dbd9cefc1638071aa49790894ec4ebc25ee30daebeb",
        "raw/samples.csv": "2cda966347f39abcb5794922ea113521a0f79bd7c95b263db7005f9fa453c596",
        "raw/x1_aux.svg": "94e38e6e0b78a7f3480d4eaa1b7a2b7d2a314473388b26880f8154be0ecdaab8",
    },
    ("--substeps", "10"): {
        "certified/checks.csv": "07b90938268fd993b47862e5d46a5aebe7c800caeb0b84f14b11bbaf222b76d7",
        "certified/dense.csv": "479da17779c25446064a2e41eff984e9547a032c949ab13196d2ee5a9d9be22e",
        "certified/err_E.svg": "811a0253f44b8714a6192cc175a6e8670e9e8c403bf12d555c3e8b112d779196",
        "certified/events.csv": "eab9b10d9f734c008b887ab55bd5da732a9b7ec636e348d01a12543e45aaa087",
        "certified/paper_sec7_certified.cfg":
            "8da13cb06abfd812f1ee00d6678e8a56ef5630018008a6c1667b40eb8d9e2c1e",
        "certified/report.txt": "03c7a4308fbb7080dac1b6d6a7669111426e8fff9e0310718fad9180e8e1ce51",
        "certified/samples.csv": "25e28b6b2cce6d5c1093beb11f612036501d1a11e4ca22e1f06271a4057e4f69",
        "certified/x1_aux.svg": "52cc1e2d483f21837a8bcecee1618eb298f65fbf4e612c7ccad70b44954fed38",
        "raw/checks.csv": "b6a7061a72a720fb33940dc48b5a00ef91d61680f586675d085577414935bad7",
        "raw/dense.csv": "e3f3939589fe2d059a2b4c746fdcd82e541a8d4dd0c3803b13e59c8599d4e035",
        "raw/err_E.svg": "45fc45f995830d9b589e3333840fd85742fa83973fe1598442e4381f116d83ae",
        "raw/events.csv": "eab9b10d9f734c008b887ab55bd5da732a9b7ec636e348d01a12543e45aaa087",
        "raw/paper_sec7_raw.cfg": "400f32ba951485647a7c5fbe225b58862d634a062bbf445e364a28b44f3ff243",
        "raw/report.txt": "7ed9c991469c803b251a5dbd9cefc1638071aa49790894ec4ebc25ee30daebeb",
        "raw/samples.csv": "00edfc9d1061e2c4a4651015234b0841927fecfd86b82fcaa7d58aad5c0e2881",
        "raw/x1_aux.svg": "792f209fa810032463e8996a82b59536a0f74d267791c0cc260b908aa5b8d6be",
    },
}


@pytest.mark.parametrize("flags", list(REPRODUCE_SHA256), ids=["default", "substeps_10"])
def test_reproduce_paper_files_match_pinned_bytes(flags, tmp_path):
    out = tmp_path / "repro"
    assert main(["reproduce-paper", "--out", str(out), *flags]) == 0
    got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.rglob("*") if p.is_file()}
    assert got == REPRODUCE_SHA256[flags]


# exit code and sha256 of every file validate and gains write for the
# bundled scenario, as formatted one field at a time with fmt_num, of every
# file check writes for CI's sinusoid scenario (the RK4 path), as integrated
# with a fresh input per RK4 stage, and of every file check writes for CI's
# uniform scenario, as run with separate encoder and decoder states
COMMAND_SHA256 = {
    ("validate", "raw", ()): (1, {
        "certificate.csv": "6706b6c0c01fc13bf42aee87c8be4afd51637ad0db38d3eeefdee95c251ba09b",
        "validate.txt": "f8b9694b5de9b4fa0a4bc3d96ac57af6cba30dea1ceb0ac791ad40e2471b99e0"}),
    ("validate", "certified", ()): (0, {
        "certificate.csv": "02305e1785db948dcbd1f771317f1150b723426d21e07d7d11f4d8fe42ed0087",
        "validate.txt": "419137e19949136f46993c3f743ad36dfef703de11cc6466733351e5df196d2a"}),
    ("gains", "certified", ()): (0, {
        "gains.csv": "29e1c437365bf5255f39d628d10a4e051665bad1b1a9a6ccd271334487f97525"}),
    ("gains", "certified", ("--s-grid", "0,0.5,1,2")): (0, {
        "gains.csv": "bd879c7faf02aed067192928862e6e2057d3480d5a0f5ae01359f1f9ccb76592"}),
    ("check", "sinusoid", ()): (0, {
        "checks.csv": "ee850e57e130c41934779e88d049c4d98264b30fa4291c52151a71e54c2526fd",
        "dense.csv": "7f1b82315feabe93c3921b66442181993f89bec8a48a48e4849a5ec1301fa538",
        "err_E.svg": "f1f4d5707690614befe77d1b0a4798f8a9f7fac53f944025a3f5a19ec0b2a128",
        "events.csv": "f77b35e195f03904ddd773c55a3d8543f62ccf7eb7634b41b961b6d1438c505c",
        "report.txt": "8bfbf57faa7b212035296a78fa8b2e7ad1806179df1508a0e9cca40a2a90746f",
        "samples.csv": "daf47af32d2353c426d5297ebee2b9f487d1a90727004b935cb2bd0bd1619105",
        "x1_aux.svg": "4f68419119fdfffd6c08fb33a90bcd4851ba5b0e035614ad58009d37db1ac623"}),
    ("check", "sinusoid", ("--substeps", "10")): (0, {
        "checks.csv": "b7040adf898af874a291fbc2db2ea57484fc8870e62cccbda2fc244797852c7e",
        "dense.csv": "99872c60f8b29c81049edab6ea02b26fa28e684dd64d333c84bd0925cc629266",
        "err_E.svg": "e807fc780c14f783f777a8876b1114b3c15fc4b0da819b28e9e92ee9d07612ae",
        "events.csv": "899137ed3c9a23e61d1a71c8b903b8bbbff1e2e019dbb09960be745903e216d4",
        "report.txt": "baa140b55cc07307bbb59df1839c70383b59a6dd940a540976262f21b041420b",
        "samples.csv": "8d392977f0ad02ceeb4c4bb2aa207f040162d4eb7dab144263c857616ce16443",
        "x1_aux.svg": "06a02b525d5dfdd565511eec1e217bcc93d837d15156700ee8152e44b6e37e1c"}),
    # the RK4 path at substep widths that neither 100 nor 10 substeps build
    ("check", "sinusoid", ("--substeps", "1")): (0, {
        "checks.csv": "1c34390ccaddd3c896a5134b020c7f57dcfac4013809d8dac1193e9ba74c3e6c",
        "dense.csv": "af039fef5422bf67b4ade05109d68809aa006876c265453035bbf9222bd27d23",
        "err_E.svg": "76d1c876934fba94d31869165fe95488657b571ea59a079c5b3fd3042f41b3e0",
        "events.csv": "6e918e2d713d01c1029cbc7fe770afda94d556f261d1c980e2e40bf42f8ba58f",
        "report.txt": "4ba0d9c7763d4a36d5bb603b8f44b44c125d8439125e2b31ae4092472f68dd98",
        "samples.csv": "f0c6aed7f85df57cc6def3da6011df26868d2330b0e11926899a9ab29f6c7b08",
        "x1_aux.svg": "d78931e222b09ca6c1b53c743031c640f51bb271196a4160bd79525c58dd0086"}),
    ("check", "sinusoid", ("--substeps", "7")): (0, {
        "checks.csv": "ca1664504e1abaedc98cc3f24541147f91bbfd0bc39af578c27402dba359ed36",
        "dense.csv": "3193861397f6578e9dd5325628360551ae61dbf65d5e8f77f6b0477537ef41cd",
        "err_E.svg": "83bb6b91e8faddb99f964fca91763107014f75f3d098cadcca936902d0f436ce",
        "events.csv": "e72c1c3fd0d2d3ad9a4bb50fde79ac2b3665f6e3f57765af1d32708e99406f53",
        "report.txt": "48805bdf3f1452c691d90926f49fec698219a0954a9985ab0037f8426a4b4331",
        "samples.csv": "3fb30c7397232c875318a636235add0413083468b59322af4eca5213f0467cd4",
        "x1_aux.svg": "2652eeb7fefea222a2e0a02987ca3f978f6e47e190aacacf6f05e2540d23d91f"}),
    ("check", "uniform", ()): (0, {
        "checks.csv": "6021609cde339596d23ac340410b212455ab4d39040be2fc5d7ad35006d74dad",
        "dense.csv": "66bf875f9194cb89fe2f2f85781cb8c9608e0b2ab7897357205e99e8bc46ce76",
        "err_E.svg": "b76151670829be4b1285ea2f125898a04239eb37f2a30d3af4f08867fff10063",
        "events.csv": "2e51607cf76546c9d658d61582c999c4dd6415b42cc08be517543cea527e019b",
        "report.txt": "3d8e651ad2252705c553f818c87db593992ed0d8561c9530a3483fe0e3222f6e",
        "samples.csv": "acff155089af66587a7afe51cf6c09eb7e83900b931e5b6f793fc7150f42cba1",
        "x1_aux.svg": "c50eba7dc48367aa49d10f73c0d169c5146baf0c03de36292e25a122818ffd82"}),
    # noise held for 0.001 s at 10 substeps: every interval split into 100
    # ZOH segments, each with its own midpoint input
    ("check", "uniform_fine", ("--substeps", "10")): (0, {
        "checks.csv": "fd4d00d0d4cd4cb81063262d4b4f4074fccb6f3b8d4619cd4a555cb42428be22",
        "dense.csv": "851b28c516ef582e399272990589beedfb79d03d899c72e5ab6788233dda54d8",
        "err_E.svg": "e3c0064802e18342315d9b7c36c96590b3d4b58ff16cfcd2e4f5d15b5128cd24",
        "events.csv": "e3af9035c4cc108d67b12d44cdaa33002669c5266a58bed7eda31cae079da3e3",
        "report.txt": "53dde39b2d009754c54b8e3851acf421f5df3e92a98727fbe28afca93090278c",
        "samples.csv": "de1c71c4c8ae7ae5a3956781f987dbed8e9d48e8fe379e4fbba4e342e03580c0",
        "x1_aux.svg": "4fdf6d1f3969e38ed4b29e2b5dcbd4589e511cfba0499fb6dc0bd68e675ad2f5"}),
    # the pulse (ZOH) path at substep widths other than reproduce-paper's
    ("check", "certified", ("--substeps", "1")): (0, {
        "checks.csv": "f5405ef1fe2af9fe1a9f49494769938a9549e02dc1dec6473f34439461264ea1",
        "dense.csv": "12b0e802323782b87643758af4ad268944b51afa4e06bb1f816ade11c600f90e",
        "err_E.svg": "3f0f3ae25eaf51e68b5dde830d9bf5d72cceb81d0f345866d1c9b04a99d8a8ac",
        "events.csv": "eab9b10d9f734c008b887ab55bd5da732a9b7ec636e348d01a12543e45aaa087",
        "report.txt": "03c7a4308fbb7080dac1b6d6a7669111426e8fff9e0310718fad9180e8e1ce51",
        "samples.csv": "c9baa7258262c5045a09befca0b2e3da50b1d9c703fcd80ccbdab53f4821980e",
        "x1_aux.svg": "aed89fd4d7c92e6bd9f4c1818664d8334cbeee5d62cebcdeee5ee81d967520cb"}),
    ("check", "certified", ("--substeps", "7")): (0, {
        "checks.csv": "7fb589b735131cdd48554d14c78a24294ad744fdce82b2b1ea99a38666fee92e",
        "dense.csv": "22cc02f147ae2227f4b0913d935399ec2d1ebb6b05e583a2c282a1a02968b901",
        "err_E.svg": "002593919871ed27106527d133342b70686bc1f528be474eafd228af8cfd8b25",
        "events.csv": "eab9b10d9f734c008b887ab55bd5da732a9b7ec636e348d01a12543e45aaa087",
        "report.txt": "03c7a4308fbb7080dac1b6d6a7669111426e8fff9e0310718fad9180e8e1ce51",
        "samples.csv": "522c1878e25e105a6083b68bc6aa42a05e8fb43292dfd31b0e227b5333c2846a",
        "x1_aux.svg": "675d84b0ba7f70f7858ddd1d11a8135775eda3f2db5e5da66c28b12b499bae86"}),
}


# the disturbance lines CI puts in place of the certified config's
_CI_DISTURBANCES = {
    "sinusoid": ["disturbance.kind = sinusoid", "disturbance.amplitude = 0.05",
                 "disturbance.freq_hz = 0.5"],
    "uniform": ["disturbance.kind = uniform", "disturbance.bound = 0.05",
                "disturbance.seed = 3", "disturbance.hold = 0.37"],
    "uniform_fine": ["disturbance.kind = uniform", "disturbance.bound = 0.05",
                     "disturbance.seed = 3", "disturbance.hold = 0.001"],
}


@pytest.mark.parametrize("command, label, flags", list(COMMAND_SHA256),
                         ids=["validate_raw", "validate_certified", "gains", "gains_s_grid",
                              "check_sinusoid", "check_sinusoid_substeps_10",
                              "check_sinusoid_substeps_1", "check_sinusoid_substeps_7",
                              "check_uniform", "check_uniform_fine_substeps_10",
                              "check_certified_substeps_1", "check_certified_substeps_7"])
def test_validate_and_gains_files_match_pinned_bytes(command, label, flags, raw_cfg_path,
                                                     cert_cfg_path, tmp_path):
    path = {"raw": raw_cfg_path, "certified": cert_cfg_path}.get(label)
    if path is None:
        # the certified config with its disturbance lines replaced, as CI writes it
        lines = [line for line in cert_cfg_path.read_text(encoding="utf-8").splitlines()
                 if not line.startswith("disturbance.")]
        path = cert_cfg_path.with_name(f"{label}.cfg")
        path.write_text("\n".join(lines + _CI_DISTURBANCES[label]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out), *flags])
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert (code, got) == COMMAND_SHA256[command, label, flags]


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


@pytest.mark.parametrize("value", ["0,nan", "0,inf", "0,x", "0,,1", "-1", "0,1e400"])
def test_s_grid_flag_rejects_non_finite_negative_or_missing_values(value, cert_cfg_path,
                                                                    tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["gains", "--config", str(cert_cfg_path), "--out", str(out), "--s-grid", value])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["qrate gains: error: argument --s-grid: expected comma-separated "
                      f"finite non-negative numbers, got '{value}'"]
    assert not out.exists()


def test_empty_s_grid_selects_the_default_grid(cert_cfg_path, tmp_path):
    for name, flags in (("empty", ["--s-grid", ""]), ("default", [])):
        assert main(["gains", "--config", str(cert_cfg_path), "--out", str(tmp_path / name),
                     *flags]) == 0
    assert ((tmp_path / "empty" / "gains.csv").read_bytes()
            == (tmp_path / "default" / "gains.csv").read_bytes())


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
