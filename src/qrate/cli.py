"""Command-line front end.

Subcommands: validate | synthesize | simulate | check | gains |
reproduce-paper.  All files are UTF-8; CSV uses comma separators, dot
decimals, and 17-significant-digit numbers so repeated runs are
byte-identical.  Exit codes: 0 success (and, for validate/check, every
verdict clean), 1 failed verdicts or infeasible design, 2 usage/config
errors.

Every CSV field has the bytes of ``%d`` (integers), ``%s`` (text) or
``%.17g`` (floats, ``config.fmt_num``'s conversion), but a block
formatter (``_write_table`` with the fillers of ``_fields``) writes them
with numpy, about 5,120 fields at a time, with one filler call for each
run of adjacent fields of one dtype kind: one float pass for t, x, xhat
and u in each block of ``dense.csv``.  An integer takes only the 4-digit
groups that its block's largest magnitude needs.  The formatter computes
the 17 correctly rounded digits of every float with |x| in [1e-280,
1e300) exactly (``_fields.decimal17``) and falls back to ``%`` for nan, inf, subnormals,
magnitudes outside that range and values within 2**-40 of a rounding tie,
exact ties among them.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import _fields, analysis, codec, design, plant
from .config import ConfigError, ScenarioConfig, fmt_num, load_config, save_config
from .scenarios import BUNDLED_NAME, bundled_scenario
from .signals import PulseTrain, SeededUniform
from .svgplot import Series, render_svg

__all__ = ["main"]

ENV_OUT = "QRATE_OUT"


# fields per block: a block's byte buffers and the fillers' temporaries
# peak near 1.4 MB for dense.csv, which takes 731 rows of 7 fields
_TABLE_VALUES = 5120


def _write_table(path: Path, header: list[str], columns, n_rows: int | None = None) -> None:
    """Write a CSV table from its columns, one block of rows at a time.

    A column is a sequence or a 2-D array; a 2-D array gives one field
    per array column.  ``columns`` is a list of columns, or a function
    that returns the columns of rows lo:hi, with ``n_rows`` the row count.
    A block holds at most _TABLE_VALUES fields, one per header name, and
    at least one row.  Each field's bytes are those of %d (integers), %s
    (text) or %.17g (floats): a block stacks each run of adjacent fields
    of one dtype kind into one array, which one filler of ``_fields`` lays
    out in fixed slots (``_fields.layout``), each field followed by its
    separator, and writes the slots its fillers marked, with one boolean
    mask and one write.
    """
    block = columns if callable(columns) else lambda lo, hi: [c[lo:hi] for c in columns]
    n_rows = len(columns[0]) if n_rows is None else n_rows
    step = max(1, _TABLE_VALUES // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for lo in range(0, n_rows, step):
            fields = map(np.asarray, block(lo, min(lo + step, n_rows)))
            runs = [_fields.layout(np.column_stack(list(vs)))
                    for _, vs in itertools.groupby(fields, lambda v: v.dtype.kind)]
            rows = len(runs[0][0])
            size = sum(v.shape[1] * (width + 1) for v, width, _ in runs)
            data = np.empty((rows, size), np.uint8)
            keep = np.empty((rows, size), bool)
            at = 0
            for v, width, fill in runs:
                span = slice(at, at + v.shape[1] * (width + 1))
                slots = data[:, span].reshape(rows, -1, width + 1)
                kept = keep[:, span].reshape(rows, -1, width + 1)
                fill(v, slots[..., :width], kept[..., :width])
                slots[..., width] = 44  # ","
                kept[..., width] = True
                at = span.stop
            data[:, -1] = 10  # "\n" after the last field
            fh.write(data[keep])


def _out_dir(args, cfg: ScenarioConfig | None) -> Path:
    path = Path(args.out or (cfg and cfg.out_dir) or os.environ.get(ENV_OUT, "qrate_out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _override(cfg: ScenarioConfig, args) -> ScenarioConfig:
    """Apply the --substeps and --seed flags to a scenario."""
    if args.substeps is not None:
        cfg.substeps = args.substeps
    if args.seed is not None and isinstance(cfg.disturbance, SeededUniform):
        cfg.disturbance = SeededUniform(cfg.disturbance.bound, args.seed,
                                        cfg.disturbance.hold, cfg.disturbance.dim)
    return cfg


def _load(args) -> tuple[ScenarioConfig, Path]:
    """The scenario with the flags applied, and its output directory."""
    cfg = _override(load_config(args.config), args)
    return cfg, _out_dir(args, cfg)


def _certified_design(cfg: ScenarioConfig):
    """Report for the configured triple, synthesizing a fresh one when the
    scenario allows it and the triple fails its certificate."""
    report = design.validate_design(cfg.plant, cfg.design)
    if report.certified or not cfg.synthesize_if_invalid:
        return cfg.design, report, False
    params = design.synthesize_design(cfg.plant, cfg.design)
    return params, design.validate_design(cfg.plant, params), True


def _report_lines(m: design.PlantModel, report: design.CertificateReport,
                  d: design.DerivedConstants | None) -> list[str]:
    flag = lambda b: "ok" if b else "VIOLATED"
    lines = [
        f"assumption 1 (stabilizable closed loop): {flag(report.assumption1_ok)}",
        f"assumption 2 (growth below grid count):  {flag(report.assumption2_ok)}",
        f"condition on psi:                        {flag(report.psi_ok)}",
        f"condition on rho:                        {flag(report.rho_ok)}",
        f"condition on nu (contraction):           {flag(report.nu_ok)}  nu = {fmt_num(report.nu)}",
        f"certified: {'yes' if report.certified else 'no'}",
    ]
    lines += [f"  note: {msg}" for msg in report.messages]
    if d is not None:
        lines += [
            "",
            f"growth per period        = {fmt_num(d.growth)} (effective {fmt_num(d.growth_eff)})",
            f"disturbance gain         = {fmt_num(d.dist_gain)}",
            f"search growth per period = {fmt_num(d.search_growth)}",
            f"intersample gain         = {fmt_num(d.intersample_gain)}",
            f"data rate                = {fmt_num(d.data_rate_bits)} bits/s "
            f"({codec.symbol_count(d.n_levels, m.n_x)} symbols per sample)",
        ]
    return lines


def cmd_validate(args) -> int:
    cfg, out = _load(args)
    report = design.validate_design(cfg.plant, cfg.design)
    d = design.derive_constants(cfg.plant, cfg.design) if report.assumption1_ok else None
    lines = _report_lines(cfg.plant, report, d)
    print("\n".join(lines))
    flag = lambda b: str(b).lower()
    _write_table(out / "certificate.csv", ["item", "value"],
                 [["assumption1", "assumption2", "psi", "rho", "nu", "nu_value", "certified"],
                  [flag(report.assumption1_ok), flag(report.assumption2_ok),
                   flag(report.psi_ok), flag(report.rho_ok), flag(report.nu_ok),
                   fmt_num(report.nu), flag(report.certified)]])
    (out / "validate.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0 if report.certified else 1


def cmd_synthesize(args) -> int:
    cfg, out = _load(args)
    try:
        params = design.synthesize_design(cfg.plant, cfg.design)
    except ValueError as exc:
        print(f"synthesis infeasible: {exc}", file=sys.stderr)
        return 1
    report = design.validate_design(cfg.plant, params)
    save_config(dataclasses.replace(cfg, design=params), out / "synthesized.cfg")
    print(f"psi = {fmt_num(params.psi)}")
    print(f"rho = {fmt_num(params.rho)}")
    print(f"phi = {fmt_num(params.phi)}")
    print(f"nu  = {fmt_num(report.nu)} (certified: {'yes' if report.certified else 'no'})")
    print(f"wrote {out / 'synthesized.cfg'}")
    return 0 if report.certified else 1


def _run(cfg: ScenarioConfig, out: Path, check: bool):
    """Run the scenario, check it when asked, and write every output file.

    Returns (log, check report or None, whether a synthesized triple was
    used).
    """
    params, report, synthesized = _certified_design(cfg)
    d = design.derive_constants(cfg.plant, params)
    log = plant.run_closed_loop(cfg.plant, params, d, cfg.disturbance,
                                cfg.x0, cfg.horizon, cfg.substeps)
    result = None
    if check:
        g = analysis.gain_constants(d, params)
        result = analysis.check_trajectory(log, d, params, g, cfg.disturbance)
        _write_table(out / "checks.csv", ["name", "checked", "worst_margin", "verdict"],
                     [[getattr(r, a) for r in result.rows]
                      for a in ("name", "n_checked", "worst_margin", "status")])
    _write_outputs(out, cfg, report, d, log)
    return log, result, synthesized


def _write_outputs(out: Path, cfg: ScenarioConfig, report, d, log) -> None:
    m = cfg.plant
    states = (["k", "t"] + [f"x_{i+1}" for i in range(m.n_x)]
              + [f"xhat_{i+1}" for i in range(m.n_x)])
    header = states + ["symbol", "stage", "E", "V", "d_sup_prev"]
    _write_table(out / "samples.csv", header,
                 [np.arange(log.n_samples), log.t, log.x, log.xhat, log.symbol,
                  np.array(["searching", "stabilizing"])[log.stage],  # stage 0, stage 1
                  log.radius, log.value, log.d_sup_prev])
    _write_table(out / "dense.csv", states + [f"u_{i+1}" for i in range(m.n_u)],
                 log.dense_block, len(log.dense_x))
    _write_table(out / "events.csv", ["kind", "k", "t"],
                 [[getattr(ev, a) for ev in log.events] for a in ("kind", "k", "t")])

    lines = _report_lines(m, report, d)
    lines += ["", f"samples: {log.n_samples}", f"events: {len(log.events)}"]
    lines += [f"  {ev.kind} at k={ev.k} (t={fmt_num(ev.t)})" for ev in log.events]
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    _write_plots(out, cfg, log)


def _write_plots(out: Path, cfg: ScenarioConfig, log) -> None:
    # t alone: the block's k and u, held through both plots, would raise the peak
    t = log.dense_block(0, len(log.dense_x))[1]
    err = np.max(np.abs(log.dense_x - log.dense_xhat), axis=1)
    spans = _searching_spans(log, cfg.plant.dt)
    onsets = [s for s, _, _ in cfg.disturbance.pulses] \
        if isinstance(cfg.disturbance, PulseTrain) else []
    render_svg(out / "err_E.svg",
               [Series("|e(t)|", "#1f77b4", t, err),
                Series("E_k", "#d62728", log.t, log.radius, step=True)],
               title="quantization error and radius", xlabel="t [s]",
               ylabel="log10 scale", ylog=True, spans=spans, vlines=onsets)
    render_svg(out / "x1_aux.svg",
               [Series("x_1(t)", "#1f77b4", t, log.dense_x[:, 0]),
                Series("xhat_1(t)", "#d62728", t, log.dense_xhat[:, 0])],
               title="state and auxiliary state", xlabel="t [s]", ylabel="x_1",
               spans=spans, vlines=onsets)


def _searching_spans(log, dt: float) -> list[tuple[float, float]]:
    # stage changes, with a stabilizing stage before the first sample and
    # after the last, alternate between a search's start and its end
    edges = np.flatnonzero(np.diff(np.concatenate([[1], log.stage, [1]])))
    t = np.append(log.t, log.t[-1] + dt)
    return list(zip(t[edges[::2]], t[edges[1::2]]))


def cmd_simulate(args) -> int:
    cfg, out = _load(args)
    _, _, synthesized = _run(cfg, out, check=False)
    if synthesized:
        print("note: configured triple failed its certificate; synthesized replacement used")
    print(f"wrote simulation outputs to {out}")
    return 0


def cmd_check(args) -> int:
    cfg, out = _load(args)
    _, check, _ = _run(cfg, out, check=True)
    for r in check.rows:
        print(f"{r.status.upper():>14}  {r.name}  (n={r.n_checked}, "
              f"worst margin={fmt_num(r.worst_margin)})")
    if not check.certified:
        print("design not certified: decay-dependent checks were skipped")
    return 0 if check.all_pass else 1


def _corrupt(log, d, params) -> None:
    """Damage the log so the checker must flag it: halve the radius at the
    middle sample and recompute its value.  No command calls it; the
    benchmark harness's tests (``perfbench/tests/test_perfbench.py``) and
    ``tests/test_analysis.py`` do."""
    k = log.n_samples // 2
    log.radius[k] *= 0.5
    log.value[k] = codec.quad_value(log.center[k], log.radius[k], d.P, params.rho)


def cmd_gains(args) -> int:
    cfg, out = _load(args)
    params, report, _ = _certified_design(cfg)
    if not report.certified:
        print("design is not certified; run the validate subcommand and fix "
              "(or enable sim.synthesize_if_invalid)", file=sys.stderr)
        return 1
    d = design.derive_constants(cfg.plant, params)
    f = analysis.iss_gains(d, params, analysis.gain_constants(d, params))
    grid = args.s_grid or [0.0] + list(np.logspace(-3, 2, 26))
    gains = {"eta_state": f.eta_state, "eta_dist": f.eta_dist, "eta_smooth": f.eta_smooth,
             "capture0": f.capture0_gain, "capture": f.capture_gain,
             "post_escape": f.post_escape_gain, "post_recapture": f.post_recapture_gain,
             "first_stage": lambda s: f.first_stage_gain(params.radius0, s),
             "gamma1": f.gamma1, "gamma2": f.gamma2, "gamma3": f.gamma3}
    table = np.array([[s] + [analysis.gain_value(name, g, s) for name, g in gains.items()]
                      for s in grid], dtype=float)
    _write_table(out / "gains.csv", ["s", *gains], [table])
    print(f"wrote {out / 'gains.csv'} ({len(grid)} grid points)")
    return 0


def cmd_reproduce(args) -> int:
    out = _out_dir(args, None)
    status = 0
    for label, certified in (("raw", False), ("certified", True)):
        sub = out / label
        sub.mkdir(parents=True, exist_ok=True)
        cfg = _override(bundled_scenario(certified=certified), args)
        save_config(cfg, sub / f"{BUNDLED_NAME}_{label}.cfg")
        log, check, _ = _run(cfg, sub, check=True)
        n_fail = sum(r.status == "fail" for r in check.rows)
        print(f"{label}: certified={'yes' if check.certified else 'no'}, "
              f"{len(log.events)} events, {n_fail} failed checks -> {sub}")
        if not check.all_pass or (certified and not check.certified):
            status = 1
    return status


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got '{text}'")
    return int(text)


def _s_grid(text: str) -> list[float]:
    """Finite non-negative gain arguments; empty selects the default grid."""
    try:
        grid = [float(s) for s in text.split(",")] if text else []
        if all(0.0 <= s < math.inf for s in grid):
            return grid
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected comma-separated finite non-negative numbers, got '{text}'")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qrate",
        description="simulate and certify quantized sampled-data feedback loops")
    sub = ap.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="scenario file")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT} or ./qrate_out)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the seed of a uniform disturbance")
    common.add_argument("--substeps", type=_positive_int, default=None,
                        help="integration substeps per sampling period")
    scenario = [config, common]

    sub.add_parser("validate", parents=scenario,
                   help="check the design inequalities").set_defaults(fn=cmd_validate)
    sub.add_parser("synthesize", parents=scenario,
                   help="synthesize an admissible parameter triple").set_defaults(fn=cmd_synthesize)
    sub.add_parser("simulate", parents=scenario,
                   help="run the closed loop and write logs/plots").set_defaults(fn=cmd_simulate)
    sub.add_parser("check", parents=scenario, help="simulate, then verify every "
                   "certificate inequality").set_defaults(fn=cmd_check)
    p = sub.add_parser("gains", parents=scenario,
                       help="tabulate the ISS gain functions")
    p.add_argument("--s-grid", type=_s_grid, default=None,
                   help="comma-separated grid values")
    p.set_defaults(fn=cmd_gains)
    sub.add_parser("reproduce-paper", parents=[common],
                   help="run the bundled scenario (raw and certified triples)"
                   ).set_defaults(fn=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError, ArithmeticError, MemoryError) as exc:
        # missing file, infeasible scenario (e.g. unstable closed loop), a
        # design quantity the numerics cannot resolve (quadrature, dlyap) or
        # a run too long to allocate (a MemoryError may carry no message)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
