"""The benchmark's own tests: python3 -m pytest perfbench/tests"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibration
import layertrace
import run
import worker
import workloads
from qrate import cli

BENCH_DIR = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _arrays(inputs):
    """Every array in a workload's inputs, in a fixed order."""
    out = []
    for key in sorted(inputs):
        val = inputs[key]
        if key == "configs":
            for cfg in val:
                out += [cfg.plant.A, cfg.plant.B, cfg.plant.D, cfg.plant.K, cfg.x0]
        elif key == "disturbance":
            out.append(np.asarray([val.value(t) for t in np.linspace(0.0, 100.0, 1001)]))
        elif isinstance(val, np.ndarray):
            out.append(val)
    return out


@pytest.mark.parametrize("name", ["long_pulses", "sine_escapes", "design_sweep"])
def test_seeded_inputs_are_deterministic(name):
    a, b, c = (_arrays(workloads.BUILD[name](seed)) for seed in (7, 7, 8))
    assert a and all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, z) for x, z in zip(a, c))


def test_workload_names_agree():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS == workloads.NAMES


def test_metric_names_and_units():
    snapshot = {"stats": {}, "counters": {}}
    layer_names = set(layertrace.layer_metrics(snapshot, 1.0)) | {
        "trace.iter_s", "trace.untraced_iter_s", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == layer_names
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME_RE.fullmatch(m["name"]), m["name"]
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in SPEC["per_layer"]:
        assert m["unit"] == run._layer_unit(m["name"])


@pytest.fixture(scope="module")
def calibrator():
    cal = calibration.Calibrator()
    yield cal
    cal.close()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_each_workload_completes_one_short_iteration(name, tmp_path, calibrator):
    loop = worker.Loop(name, workloads.BUILD[name](3, short=True), None, tmp_path, calibrator)
    assert loop.iteration() is not None, loop.problems
    assert loop.failed == 0 and list(tmp_path.iterdir()) == []
    assert len(loop.scaled) == 1 and loop.scaled[0] > 0


def test_damaged_log_is_counted(tmp_path, monkeypatch, calibrator):
    """A log damaged like `qrate check --corrupt-log` fails the gate."""
    inputs = workloads.BUILD["long_pulses"](0, short=True)
    loop = worker.Loop("long_pulses", inputs, None, tmp_path, calibrator)
    assert loop.iteration() is not None
    monkeypatch.setitem(workloads.RUN, "long_pulses",
                        lambda inp, tmp: workloads.run_certify(inp, tmp, damage=cli._corrupt))
    assert loop.iteration() is None
    assert (loop.attempted, loop.failed) == (2, 1)
    assert any("failed checks" in p for p in loop.problems)


def test_reference_matches_default_seed(tmp_path):
    """The stored reference is what the program computes today."""
    name = "long_pulses"
    ref = workloads.load_reference(name, workloads.DEFAULT_SEED)
    summary = workloads.SUMMARIZE[name](
        workloads.RUN[name](workloads.BUILD[name](workloads.DEFAULT_SEED), tmp_path))
    assert workloads.gate(name, summary, ref, None) == []
    summary["symbols"][100] += 1
    assert workloads.gate(name, summary, ref, None)


@pytest.mark.parametrize("name", ["paper_repro", "design_sweep"])
def test_exact_counts_repeat_and_tracer_uninstalls(name, tmp_path):
    import qrate
    before = qrate.derive_constants
    inputs = workloads.BUILD[name](1, short=True)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        snaps = []
        for i in range(2):
            tracer.begin_iteration(i)
            workloads.RUN[name](inputs, tmp_path / str(i))
            snaps.append(tracer.end_iteration())
    finally:
        tracer.uninstall()
    assert qrate.derive_constants is before
    counts = [layertrace.exact_counts(s) for s in snaps]
    assert counts[0] == counts[1]
    metrics = layertrace.layer_metrics(snaps[0], 1.0)
    if name == "paper_repro":
        written = sum(p.stat().st_size for p in (tmp_path / "0").rglob("*") if p.is_file())
        assert metrics["cli.bytes_written"] == written > 0
        assert metrics["cli.files_written"] == 16
        assert metrics["svgplot.render_calls"] == 4
    else:
        assert metrics["design.validate_calls"] == 10
        assert metrics["cli.self_s"] == 0.0
    assert len(tracer.spans) == 6 * sum(c for k, c in counts[0].items() if k.endswith(".calls")) * 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "long_pulses",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
