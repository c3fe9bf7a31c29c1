"""Command-line front end.

Subcommands: validate | synthesize | simulate | check | gains |
reproduce-paper.  All files are UTF-8; CSV uses comma separators, dot
decimals, and 17-significant-digit numbers so repeated runs are
byte-identical.  Exit codes: 0 success (and, for validate/check, every
verdict clean), 1 failed verdicts or infeasible design, 2 usage/config
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, codec, design, plant
from .config import ConfigError, ScenarioConfig, fmt_num, load_config, save_config
from .scenarios import BUNDLED_NAME, bundled_scenario
from .signals import PulseTrain, SeededUniform
from .svgplot import Series, render_svg

__all__ = ["main"]

ENV_OUT = "QRATE_OUT"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _out_dir(args, cfg: ScenarioConfig | None) -> Path:
    if args.out:
        base = args.out
    elif cfg is not None and cfg.out_dir:
        base = cfg.out_dir
    else:
        base = os.environ.get(ENV_OUT, "qrate_out")
    path = Path(base)
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
    for msg in report.messages:
        lines.append(f"  note: {msg}")
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


def _write_certificate_csv(path: Path, report: design.CertificateReport) -> None:
    rows = [
        ("assumption1", str(report.assumption1_ok).lower()),
        ("assumption2", str(report.assumption2_ok).lower()),
        ("psi", str(report.psi_ok).lower()),
        ("rho", str(report.rho_ok).lower()),
        ("nu", str(report.nu_ok).lower()),
        ("nu_value", fmt_num(report.nu)),
        ("certified", str(report.certified).lower()),
    ]
    _write_csv(path, ["item", "value"], rows)


def cmd_validate(args) -> int:
    cfg, out = _load(args)
    report = design.validate_design(cfg.plant, cfg.design)
    d = None
    if report.assumption1_ok:
        d = design.derive_constants(cfg.plant, cfg.design)
    lines = _report_lines(cfg.plant, report, d)
    print("\n".join(lines))
    _write_certificate_csv(out / "certificate.csv", report)
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


def _run(cfg: ScenarioConfig, out: Path, check: bool, corrupt: bool = False):
    """Run the scenario, check it when asked, and write every output file.

    Returns (log, check report or None, whether a synthesized triple was
    used); ``corrupt`` damages the log first so the checker must flag it.
    """
    params, report, synthesized = _certified_design(cfg)
    d = design.derive_constants(cfg.plant, params)
    log = plant.run_closed_loop(cfg.plant, params, d, cfg.disturbance,
                                cfg.x0, cfg.horizon, cfg.substeps)
    result = None
    if check:
        if corrupt:
            _corrupt(log, d, params)
        g = analysis.gain_constants(d, params)
        result = analysis.check_trajectory(log, d, params, g, cfg.disturbance)
        _write_csv(out / "checks.csv", ["name", "checked", "worst_margin", "verdict"],
                   ([r.name, str(r.n_checked), fmt_num(r.worst_margin), r.status]
                    for r in result.rows))
    _write_outputs(out, cfg, report, d, log)
    return log, result, synthesized


def _write_outputs(out: Path, cfg: ScenarioConfig, report, d, log) -> None:
    m = cfg.plant
    states = (["k", "t"] + [f"x_{i+1}" for i in range(m.n_x)]
              + [f"xhat_{i+1}" for i in range(m.n_x)])
    header = states + ["symbol", "stage", "E", "V", "d_sup_prev"]
    stage_name = {1: "stabilizing", 0: "searching"}
    rows = []
    for k in range(log.n_samples):
        rows.append([str(k), fmt_num(log.t[k])]
                    + [fmt_num(v) for v in log.x[k]]
                    + [fmt_num(v) for v in log.xhat[k]]
                    + [str(int(log.symbol[k])), stage_name[int(log.stage[k])],
                       fmt_num(log.radius[k]), fmt_num(log.value[k]), fmt_num(log.d_sup_prev[k])])
    _write_csv(out / "samples.csv", header, rows)

    header = states + [f"u_{i+1}" for i in range(m.n_u)]
    rows = ([str(int(log.dense_k[i])), fmt_num(log.dense_t[i])]
            + [fmt_num(v) for v in log.dense_x[i]]
            + [fmt_num(v) for v in log.dense_xhat[i]]
            + [fmt_num(v) for v in log.dense_u[i]]
            for i in range(log.dense_t.size))
    _write_csv(out / "dense.csv", header, rows)

    _write_csv(out / "events.csv", ["kind", "k", "t"],
               ([ev.kind, str(ev.k), fmt_num(ev.t)] for ev in log.events))

    lines = _report_lines(m, report, d)
    lines += ["", f"samples: {log.n_samples}", f"events: {len(log.events)}"]
    for ev in log.events:
        lines.append(f"  {ev.kind} at k={ev.k} (t={fmt_num(ev.t)})")
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    _write_plots(out, cfg, log)


def _write_plots(out: Path, cfg: ScenarioConfig, log) -> None:
    err = np.max(np.abs(log.dense_x - log.dense_xhat), axis=1)
    spans = _searching_spans(log, cfg.plant.dt)
    onsets = [s for s, _, _ in cfg.disturbance.pulses] \
        if isinstance(cfg.disturbance, PulseTrain) else []
    render_svg(out / "err_E.svg",
               [Series("|e(t)|", "#1f77b4", log.dense_t, err),
                Series("E_k", "#d62728", log.t, log.radius, step=True)],
               title="quantization error and radius", xlabel="t [s]",
               ylabel="log10 scale", ylog=True, spans=spans, vlines=onsets)
    render_svg(out / "x1_aux.svg",
               [Series("x_1(t)", "#1f77b4", log.dense_t, log.dense_x[:, 0]),
                Series("xhat_1(t)", "#d62728", log.dense_t, log.dense_xhat[:, 0])],
               title="state and auxiliary state", xlabel="t [s]", ylabel="x_1",
               spans=spans, vlines=onsets)


def _searching_spans(log, dt: float) -> list[tuple[float, float]]:
    spans = []
    start = None
    for k in range(log.n_samples):
        if log.stage[k] == 0 and start is None:
            start = log.t[k]
        elif log.stage[k] == 1 and start is not None:
            spans.append((start, log.t[k]))
            start = None
    if start is not None:
        spans.append((start, log.t[-1] + dt))
    return spans


def cmd_simulate(args) -> int:
    cfg, out = _load(args)
    _, _, synthesized = _run(cfg, out, check=False)
    if synthesized:
        print("note: configured triple failed its certificate; synthesized replacement used")
    print(f"wrote simulation outputs to {out}")
    return 0


def cmd_check(args) -> int:
    cfg, out = _load(args)
    _, check, _ = _run(cfg, out, check=True, corrupt=args.corrupt_log)
    for r in check.rows:
        print(f"{r.status.upper():>14}  {r.name}  (n={r.n_checked}, "
              f"worst margin={fmt_num(r.worst_margin)})")
    if not check.certified:
        print("design not certified: decay-dependent checks were skipped")
    return 0 if check.all_pass else 1


def _corrupt(log, d, params) -> None:
    """Debug hook: damage the log so the checker must flag it."""
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
    g = analysis.gain_constants(d, params)
    f = analysis.iss_gains(d, params, g)
    if args.s_grid:
        grid = [float(s) for s in args.s_grid.split(",")]
        if any(s < 0 for s in grid):
            print("gain functions take nonnegative arguments", file=sys.stderr)
            return 2
    else:
        grid = [0.0] + list(np.logspace(-3, 2, 26))
    rows = []
    for s in grid:
        rows.append([fmt_num(s), fmt_num(f.eta_state(s)), fmt_num(f.eta_dist(s)),
                     fmt_num(f.eta_smooth(s)), fmt_num(f.capture0_gain(s)),
                     fmt_num(f.capture_gain(s)), fmt_num(f.post_escape_gain(s)),
                     fmt_num(f.post_recapture_gain(s)),
                     fmt_num(f.first_stage_gain(params.radius0, s)),
                     fmt_num(f.gamma1(s)), fmt_num(f.gamma2(s)), fmt_num(f.gamma3(s))])
    _write_csv(out / "gains.csv",
               ["s", "eta_state", "eta_dist", "eta_smooth", "capture0",
                "capture", "post_escape", "post_recapture", "first_stage",
                "gamma1", "gamma2", "gamma3"], rows)
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
    p = sub.add_parser("check", parents=scenario,
                       help="simulate, then verify every certificate inequality")
    p.add_argument("--corrupt-log", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_check)
    p = sub.add_parser("gains", parents=scenario,
                       help="tabulate the ISS gain functions")
    p.add_argument("--s-grid", default=None, help="comma-separated grid values")
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
