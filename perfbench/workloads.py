"""The four benchmark workloads: seeded inputs, one iteration, and the
correctness gate applied to every iteration.

Each workload has three parts:

    build(seed, short)   inputs made only from the seed; ``short`` shrinks
                         one iteration for the benchmark's own tests
    run(inputs, tmp)     one iteration, the only timed code
    summarize(outcome)   the parts of the output the gate compares

The gate never compares file bytes: symbols must be identical, sampled
states must agree within 1e-12, and the check rows must keep their status
and ``n_checked``.  So a change of numerics within 1e-12 still passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import qrate
from qrate import cli

DEFAULT_SEED = 0
PLANT_DRAW = 0  # seed of design_sweep's fixed matrix draw
STATE_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Grid of `qrate gains` when no --s-grid is given.
GAINS_GRID = [0.0] + list(np.logspace(-3, 2, 26))
GAIN_NAMES = ("eta_state", "eta_dist", "eta_smooth", "capture0_gain", "capture_gain",
              "post_escape_gain", "post_recapture_gain", "gamma1", "gamma2", "gamma3")


# --------------------------------------------------------------------------
# seeded inputs


def _x0(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n)


def _certify_inputs(seed: int, short: bool, horizon: float, disturbance) -> dict:
    cfg = qrate.bundled_scenario(certified=True)
    rng = np.random.default_rng(seed)
    return {
        "plant": cfg.plant,
        "params": cfg.design,
        "x0": _x0(rng, cfg.plant.n_x),
        "horizon": horizon / 10.0 if short else horizon,
        "disturbance": disturbance(rng),
        "substeps": cfg.substeps,
    }


def build_long_pulses(seed: int, short: bool = False) -> dict:
    """Certified bundled triple, 300 s, six 1.5-level pulses of 0.2 s.

    Each onset is jittered by at most 1 s around a fixed slot, so the
    stabilizing runs between escapes, and with them the checker's pair
    count, barely depend on the seed.
    """
    slots = (10.0, 25.0, 40.0, 55.0, 70.0, 85.0)

    def pulses(rng):
        scale = 0.1 if short else 1.0
        onsets = [scale * s + rng.uniform(-1.0, 1.0) * scale for s in slots]
        return qrate.PulseTrain([(t, t + 0.2, [1.5]) for t in onsets], dim=1)

    return _certify_inputs(seed, short, 300.0, pulses)


def build_sine_escapes(seed: int, short: bool = False) -> dict:
    """Certified bundled triple, 120 s, amplitude 0.05 at 0.5 Hz: the RK4 path."""
    def sine(rng):
        return qrate.Sinusoid([0.05], 0.5, float(rng.uniform(0.0, 2.0 * math.pi)))

    return _certify_inputs(seed, short, 120.0, sine)


def random_plant(rng: np.random.Generator, n: int) -> qrate.PlantModel:
    """Random n-state plant that passes both assumptions.

    Built like the test suite's random plants: the closed loop is pinned to
    a diagonally dominant stable target through K = B^{-1} (target - A).
    """
    diag = -rng.uniform(1.0, 2.0, n)
    off = rng.uniform(-0.3, 0.3, (n, n)) / max(n - 1, 1)
    target = np.diag(diag) + off * (1.0 - np.eye(n))
    A = rng.uniform(-1.0, 1.0, (n, n))
    B = 2.0 * np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, (n, n))
    K = np.linalg.solve(B, target - A)
    D = rng.uniform(-1.0, 1.0, (n, 1))
    return qrate.PlantModel(A=A, B=B, D=D, K=K, dt=0.1, n_levels=5)


def build_design_sweep(seed: int, short: bool = False) -> dict:
    """40 random plants, 8 at each n_x = 2..6, each with the bundled hints.

    The matrices come from one fixed draw, and the seed applies a random
    signed permutation T of the state coordinates to each plant (A -> T A T',
    B -> T B, D -> T D, K -> K T').  Every infinity norm the design works
    with is invariant under T, so the quadrature refines just as far and the
    work of an iteration does not depend on the seed, while the matrices the
    program receives do.  Drawing the plants themselves from the seed made
    one iteration take between 3.4 and 6.0 s.
    """
    base = np.random.default_rng(PLANT_DRAW)
    rng = np.random.default_rng(seed)
    per_size = 1 if short else 8
    configs = []
    for n in range(2, 7):
        for _ in range(per_size):
            m = random_plant(base, n)
            T = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)[:, None]
            plant = qrate.PlantModel(A=T @ m.A @ T.T, B=T @ m.B, D=T @ m.D, K=m.K @ T.T,
                                     dt=m.dt, n_levels=m.n_levels)
            configs.append(qrate.ScenarioConfig(
                plant=plant, design=qrate.bundled_params(), x0=T @ _x0(base, n),
                horizon=30.0, disturbance=qrate.Zero(1)))
    return {"configs": configs}


def build_paper_repro(seed: int, short: bool = False) -> dict:
    """The paper's fixed scenario: the seed is unused."""
    return {"argv_extra": ["--substeps", "10"] if short else []}


# --------------------------------------------------------------------------
# one iteration


def run_certify(inputs: dict, tmp: Path, damage=None) -> dict:
    """derive_constants -> run_closed_loop -> gain_constants -> check_trajectory.

    ``damage(log, d, params)`` may alter the log before it is checked; the
    benchmark's tests use it to show that a damaged log is counted.
    """
    m, p = inputs["plant"], inputs["params"]
    d = qrate.derive_constants(m, p)
    log = qrate.run_closed_loop(m, p, d, inputs["disturbance"], inputs["x0"],
                                inputs["horizon"], inputs["substeps"])
    if damage is not None:
        damage(log, d, p)
    g = qrate.gain_constants(d, p)
    report = qrate.check_trajectory(log, d, p, g, inputs["disturbance"])
    return {"log": log, "report": report}


def run_design_sweep(inputs: dict, tmp: Path) -> dict:
    designs = []
    for cfg in inputs["configs"]:
        m = cfg.plant
        hint_ok = qrate.validate_design(m, cfg.design).certified
        params = qrate.synthesize_design(m, cfg.design)
        report = qrate.validate_design(m, params)
        d = qrate.derive_constants(m, params)
        g = qrate.gain_constants(d, params)
        f = qrate.iss_gains(d, params, g)
        gains = [[getattr(f, name)(s) for name in GAIN_NAMES] + [f.first_stage_gain(params.radius0, s)]
                 for s in GAINS_GRID]
        cfg_out = qrate.ScenarioConfig(plant=m, design=params, x0=cfg.x0,
                                       horizon=cfg.horizon, disturbance=cfg.disturbance)
        back = qrate.parse_config(qrate.serialize_config(cfg_out))
        designs.append({"hint_certified": hint_ok, "certified": report.certified,
                        "params": params, "gains": gains, "cfg": cfg_out, "back": back})
    return {"designs": designs}


def run_paper_repro(inputs: dict, tmp: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["reproduce-paper", "--out", str(tmp)] + inputs["argv_extra"])
    return {"exit": code, "out": tmp}


# --------------------------------------------------------------------------
# summaries: the parts of an outcome the gate compares


def _checks(rows) -> list[list]:
    return [[r.name, r.status, int(r.n_checked)] for r in rows]


def summarize_certify(outcome: dict) -> dict:
    log, report = outcome["log"], outcome["report"]
    return {"symbols": [int(s) for s in log.symbol], "x": log.x.tolist(),
            "checks": _checks(report.rows), "certified": bool(report.certified)}


def summarize_design_sweep(outcome: dict) -> dict:
    rows = []
    for des in outcome["designs"]:
        p, cfg, back = des["params"], des["cfg"], des["back"]
        roundtrip = (all(np.array_equal(getattr(cfg.plant, k), getattr(back.plant, k))
                         for k in ("A", "B", "D", "K"))
                     and [p.psi, p.rho, p.phi] == [back.design.psi, back.design.rho, back.design.phi]
                     and np.array_equal(cfg.x0, back.x0))
        gains = np.asarray(des["gains"])
        rows.append({"hint_certified": des["hint_certified"], "certified": des["certified"],
                     "triple": [p.psi, p.rho, p.phi], "roundtrip": bool(roundtrip),
                     "gains_finite": bool(np.all(np.isfinite(gains)) and np.all(gains >= 0))})
    return {"designs": rows}


def _read_samples(path: Path) -> tuple[list[int], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        xcols = [c for c in reader.fieldnames if c.startswith("x_")]
        symbols, xs = [], []
        for row in reader:
            symbols.append(int(row["symbol"]))
            xs.append([float(row[c]) for c in xcols])
    return symbols, xs


def _read_checks(path: Path) -> list[list]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [[r["name"], r["verdict"], int(r["checked"])] for r in csv.DictReader(fh)]


def summarize_paper_repro(outcome: dict) -> dict:
    out = outcome["out"]
    summary = {"exit": outcome["exit"],
               "files": sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())}
    for label in ("raw", "certified"):
        sub = out / label
        if not (sub / "samples.csv").is_file() or not (sub / "checks.csv").is_file():
            summary[label] = None
            continue
        symbols, xs = _read_samples(sub / "samples.csv")
        checks = _read_checks(sub / "checks.csv")
        summary[label] = {"symbols": symbols, "x": xs, "checks": checks,
                          "certified": all(c[1] != "not_certified" for c in checks)}
    return summary


# --------------------------------------------------------------------------
# the gate


def _compare_run(where: str, got: dict, ref: dict) -> list[str]:
    problems = []
    if got["symbols"] != ref["symbols"]:
        k = next((i for i, (a, b) in enumerate(zip(got["symbols"], ref["symbols"])) if a != b),
                 min(len(got["symbols"]), len(ref["symbols"])))
        problems.append(f"{where}: symbol streams differ first at k={k}")
    gx, rx = np.asarray(got["x"]), np.asarray(ref["x"])
    if gx.shape != rx.shape:
        problems.append(f"{where}: sampled states have shape {gx.shape}, expected {rx.shape}")
    else:
        err = np.abs(gx - rx) / np.maximum(1.0, np.abs(rx))
        if err.size and float(err.max()) > STATE_TOL:
            problems.append(f"{where}: sampled states differ by {float(err.max()):.3e}")
    if got["checks"] != ref["checks"]:
        problems.append(f"{where}: check rows differ: {got['checks']} vs {ref['checks']}")
    return problems


def _invariants_run(where: str, got: dict, certified: bool) -> list[str]:
    problems = []
    fails = [c[0] for c in got["checks"] if c[1] == "fail"]
    if fails:
        problems.append(f"{where}: failed checks {fails}")
    if got["certified"] != certified:
        problems.append(f"{where}: certified={got['certified']}, expected {certified}")
    if len(got["checks"]) != 17:
        problems.append(f"{where}: {len(got['checks'])} check rows, expected 17")
    return problems


def _compare_designs(got: dict, ref: dict) -> list[str]:
    problems = []
    if len(got["designs"]) != len(ref["designs"]):
        return [f"{len(got['designs'])} designs, expected {len(ref['designs'])}"]
    for i, (g, r) in enumerate(zip(got["designs"], ref["designs"])):
        if (g["hint_certified"], g["certified"]) != (r["hint_certified"], r["certified"]):
            problems.append(f"design {i}: certified flags {g['hint_certified']}/{g['certified']}, "
                            f"expected {r['hint_certified']}/{r['certified']}")
        err = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(g["triple"], r["triple"]))
        if err > STATE_TOL:
            problems.append(f"design {i}: synthesized triple differs by {err:.3e}")
    return problems


def _invariants_designs(got: dict) -> list[str]:
    problems = []
    for i, g in enumerate(got["designs"]):
        if not g["certified"]:
            problems.append(f"design {i}: synthesized triple is not certified")
        if not g["roundtrip"]:
            problems.append(f"design {i}: serialize/parse round trip changed the config")
        if not g["gains_finite"]:
            problems.append(f"design {i}: a gain function is not finite and nonnegative")
    return problems


EXPECTED_FILES = sorted(f"{label}/{name}" for label in ("raw", "certified") for name in (
    f"paper_sec7_{label}.cfg", "samples.csv", "dense.csv", "events.csv", "report.txt",
    "err_E.svg", "x1_aux.svg", "checks.csv"))


def gate(name: str, summary: dict, reference: dict | None, first: dict | None) -> list[str]:
    """Problems found in one iteration's summary; empty when it passes.

    ``reference`` is the stored output (see :func:`load_reference`), or
    None where only the invariants apply.  ``first`` is the run's
    first iteration: every later iteration must reproduce it.
    """
    problems = []
    if name == "paper_repro":
        if summary["exit"] != 0:
            problems.append(f"reproduce-paper exited {summary['exit']}")
        if summary["files"] != EXPECTED_FILES:
            problems.append(f"output files {summary['files']}")
        for label, certified in (("raw", False), ("certified", True)):
            got = summary[label]
            if got is None:
                problems.append(f"{label}: samples.csv or checks.csv missing")
                continue
            problems += _invariants_run(label, got, certified)
            for base, tag in ((reference, "reference"), (first, "first iteration")):
                if base is not None:
                    problems += _compare_run(f"{label} vs {tag}", got, base[label])
    elif name == "design_sweep":
        problems += _invariants_designs(summary)
        for base in (reference, first):
            if base is not None:
                problems += _compare_designs(summary, base)
    else:
        problems += _invariants_run(name, summary, True)
        for base, tag in ((reference, "reference"), (first, "first iteration")):
            if base is not None:
                problems += _compare_run(f"{name} vs {tag}", summary, base)
    return problems


def load_reference(name: str, seed: int) -> dict | None:
    """The stored output of the default seed, else None.  ``paper_repro``
    ignores the seed, so its reference holds for every seed."""
    if seed != DEFAULT_SEED and name != "paper_repro":
        return None
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


BUILD = {"paper_repro": build_paper_repro, "long_pulses": build_long_pulses,
         "sine_escapes": build_sine_escapes, "design_sweep": build_design_sweep}
RUN = {"paper_repro": run_paper_repro, "long_pulses": run_certify,
       "sine_escapes": run_certify, "design_sweep": run_design_sweep}
SUMMARIZE = {"paper_repro": summarize_paper_repro, "long_pulses": summarize_certify,
             "sine_escapes": summarize_certify, "design_sweep": summarize_design_sweep}
NAMES = tuple(BUILD)
