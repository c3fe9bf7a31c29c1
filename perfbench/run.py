"""qrate benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload long_pulses --seed 0 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seconds 26

Run from anywhere; the program is taken from ``src/`` next to this
directory.  Each workload runs in fresh worker processes with one BLAS
thread.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics (set-up time, iteration time, peak memory); with
``--trace 1`` it holds the per-layer metrics of a traced run.  The human
summary above it also prints ``error_rate``: iterations that raised, exited
with a wrong code or failed the correctness gate, over iterations attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

WORKLOADS = ("paper_repro", "long_pulses", "sine_escapes", "design_sweep")
WORK = {"paper_repro": "602 periods", "long_pulses": "3000 periods",
        "sine_escapes": "1200 periods", "design_sweep": "40 designs"}
SETUP_SAMPLES = 5          # set-up is measured this many times per run
RUN_DEADLINE_S = 170.0     # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "iter_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(TMP_ROOT)
    return env


def _worker(args: list[str], tmp: Path, deadline: float) -> tuple[float, dict]:
    """Start one worker; return the clock at its start and its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--tmp", str(tmp)] + args
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return started, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spans: Path | None = None) -> dict:
    """One benchmark run of one workload: the result object of the contract."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    tmp = TMP_ROOT / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        if trace:
            extra = ["--spans", str(spans.resolve())] if spans else []
            _, res = _worker(base + ["--trace", "1"] + extra, tmp, deadline)
            metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in res["layers"].items()}
        else:
            setups, setup_walls = [], []
            for i in range(SETUP_SAMPLES):
                last = i == SETUP_SAMPLES - 1  # the last process also runs the iterations
                started, res = _worker(base if last else base + ["--setup-only"], tmp, deadline)
                setup_walls.append(res["ready"] - started)
                setups.append(setup_walls[-1] * res["setup_scale"])
            res["setup_wall_s"] = statistics.median(setup_walls)
            metrics = {}
            if res["iter_s"]:
                values = {"setup_s": statistics.median(setups),
                          "iter_s": statistics.median(res["iter_s"]),
                          "peak_rss_mb": res["peak_rss_mb"]}
                metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    return {"correct": res["failed"] == 0 and bool(metrics), "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics, "_detail": res}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "ratio", "per_validate", "per_dense_point")):
        return "ratio"
    if name.endswith(("bytes", "bytes_written")):
        return "B"
    return "count"


def _describe(name: str, seed: int, result: dict, trace: bool) -> list[str]:
    detail = result["_detail"]
    lines = [f"workload {name}, seed {seed}: {result['attempted']} iterations attempted"]
    if trace:
        lines.append(f"  traced iterations: {detail.get('traced_iterations', 0)}")
        for k, m in sorted(result["metrics"].items()):
            lines.append(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    else:
        for k, m in result["metrics"].items():
            note = ""
            if k == "setup_s":
                note = (f"  (median of {SETUP_SAMPLES} processes; "
                        f"unscaled wall {detail['setup_wall_s']:.6g} s)")
            elif k == "iter_s":
                samples = " ".join(f"{t:.3f}" for t in detail["iter_s"])
                note = (f"  (median of {len(detail['iter_s'])}, {WORK[name]} each: {samples}; "
                        f"unscaled wall {statistics.median(detail['wall_s']):.6g} s)")
            lines.append(f"  {k:12s} {m['value']:.6g} {m['unit']}{note}")
    error_rate = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    lines.append(f"  {'error_rate':12s} {error_rate:.6g} ratio  "
                 f"({result['failed']} failed of {result['attempted']})")
    for p in detail.get("problems", []):
        lines.append(f"  problem: {p}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None,
                    help="with --trace 1, write every span to this JSON file")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "qrate" / "__init__.py").is_file():
        print(f"error: the qrate sources are missing ({SRC / 'qrate'})", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.spans)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(_describe(name, args.seed, result, bool(args.trace))), flush=True)
        result.pop("_detail")
        results[name] = result
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
