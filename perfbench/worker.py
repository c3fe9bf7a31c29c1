"""One workload in one fresh process; started by run.py, not by hand.

Prints one JSON object on stdout.  ``ready`` is the monotonic clock when the
inputs are built and the first timed iteration can start; run.py subtracts
the time it started this process to get the set-up time.  ``wall_s`` holds
the wall times of the iterations that passed the gate, ``iter_s`` the same
times scaled to the nominal host speed (see calibration.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibration
import workloads  # imports qrate: part of the set-up time

MAX_PROBLEMS = 5
MIN_ITERATIONS = 3


class Loop:
    """Runs iterations of one workload and gates each one."""

    def __init__(self, name: str, inputs: dict, reference: dict | None, tmp_root: Path,
                 calibrator: calibration.Calibrator):
        self.name = name
        self.inputs = inputs
        self.reference = reference
        self.tmp_root = tmp_root
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.scaled: list[float] = []   # the same wall times, host-speed scaled
        self.calibrator = calibrator
        self.calibration = calibrator.measure()

    def fail(self, problem: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def iteration(self) -> float | None:
        """Wall seconds of one iteration that passed the gate, else None."""
        self.attempted += 1
        tmp = Path(tempfile.mkdtemp(dir=self.tmp_root))
        try:
            t0 = time.perf_counter()
            outcome = workloads.RUN[self.name](self.inputs, tmp)
            elapsed = time.perf_counter() - t0
            summary = workloads.SUMMARIZE[self.name](outcome)
            del outcome
            problems = workloads.gate(self.name, summary, self.reference, self.first)
        except Exception:  # any exception is a failed iteration, not a crash
            problems = [" | ".join(traceback.format_exc().strip().splitlines()[-3:])]
        finally:
            shutil.rmtree(tmp)
            gc.collect()
        before, self.calibration = self.calibration, self.calibrator.measure()
        if problems:
            self.failed += 1
            for p in problems:
                self.fail(f"iteration {self.attempted}: {p}")
            return None
        if self.first is None:
            self.first = summary
        self.scaled.append(elapsed * calibration.speed_factor(before, self.calibration))
        return elapsed

    def run_for(self, seconds: float, min_iterations: int, on_start=None, on_end=None) -> list[float]:
        """Run at least ``min_iterations``, then more while the next one is
        expected to end within ``seconds`` of the start."""
        times = []
        start = time.perf_counter()
        n = 0
        while n < min_iterations or (
                time.perf_counter() - start + statistics.median(times or [0.0]) <= seconds):
            if on_start is not None:
                on_start(n)
            t = self.iteration()
            if on_end is not None:
                on_end(n, t)
            if t is not None:
                times.append(t)
            n += 1
        return times


def traced_run(loop: Loop, seconds: float, spans: Path | None) -> dict:
    """Untraced iterations, then traced ones; per-layer metrics of the latter."""
    import layertrace

    untraced = loop.run_for(seconds / 2.0, 1)
    tracer = layertrace.Tracer()
    snapshots = []
    tracer.install()
    try:
        traced = loop.run_for(
            seconds / 2.0, 2,
            on_start=tracer.begin_iteration,
            on_end=lambda n, t: snapshots.append((tracer.end_iteration(), t)))
    finally:
        tracer.uninstall()

    good = [(snap, t) for snap, t in snapshots if t is not None]
    if not good or not untraced:
        return {"layers": {}}
    exact = layertrace.exact_counts(good[0][0])
    for i, (snap, _) in enumerate(good[1:], start=2):
        drift = {k: (v, exact.get(k)) for k, v in layertrace.exact_counts(snap).items()
                 if v != exact.get(k)}
        if drift:
            loop.failed += 1
            loop.fail(f"traced iteration {i}: exact counts drifted {sorted(drift.items())[:4]}")
    per_iter = [layertrace.layer_metrics(snap, t) for snap, t in good]
    layers = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
    # loop.scaled holds the untraced, then the traced iterations, host-speed scaled
    layers["trace.iter_s"] = statistics.median(loop.scaled[len(untraced):])
    layers["trace.untraced_iter_s"] = statistics.median(loop.scaled[:len(untraced)])
    layers["trace.overhead_s"] = layers["trace.iter_s"] - layers["trace.untraced_iter_s"]
    if spans is not None:
        tracer.write_spans(spans)
    return {"layers": layers, "traced_iterations": len(traced)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    inputs = workloads.BUILD[args.workload](args.seed)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if args.setup_only:
        result["setup_scale"] = calibration.NOMINAL_S / calibration.calibrate()
    else:
        calibrator = calibration.Calibrator()
        try:
            reference = workloads.load_reference(args.workload, args.seed)
            loop = Loop(args.workload, inputs, reference, args.tmp, calibrator)
            result["setup_scale"] = calibration.NOMINAL_S / loop.calibration
            if args.trace:
                result.update(traced_run(loop, args.seconds, args.spans))
            else:
                result["wall_s"] = loop.run_for(args.seconds, MIN_ITERATIONS)
                result["iter_s"] = loop.scaled
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems)
        finally:
            calibrator.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
