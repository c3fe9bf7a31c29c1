"""Host-speed calibration.

The benchmark shares its host with other work, and the host's speed drifts
by 15-20% within seconds to minutes, which no run length that fits the
time budget averages out.  So each iteration's wall time is scaled by how
fast a fixed loop ran just before and just after it.  The loop does the
kinds of work the workloads do: small scipy exponentials, small numpy
products, Python float arithmetic and number formatting.  It calls nothing
in qrate, so a change to the program does not change it.

Between iterations the loop runs in a helper process (:class:`Calibrator`,
``python3 calibration.py``) pinned to the worker's CPU: timed inside the
worker, it also measured the worker's heap and caches after an iteration,
which made it drift by up to 15% on its own on the 170 MB workload.
"""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import time

import numpy as np
import scipy.linalg

# The loop's typical time in the helper on the machine the baseline was
# measured on (an Intel Xeon KVM guest with 2 vCPUs).  Scaled times are
# seconds at the speed that machine had when the loop took NOMINAL_S.
NOMINAL_S = 0.36
REPS = 250  # passes of the loop body per calibration, about NOMINAL_S

_M = np.array([[0.1, 0.2, 0.0, 0.1], [0.0, -0.3, 0.1, 0.0],
               [0.2, 0.0, -0.1, 0.1], [0.0, 0.1, 0.0, -0.2]])
_BIG = np.arange(2000.0).reshape(500, 4)


def _loop(reps: int) -> None:
    for r in range(reps):
        E = scipy.linalg.expm(_M * (0.001 * (r % 7 + 1)))
        z = np.ones(4)
        buf = io.StringIO()
        for i in range(300):
            z = E @ z + 0.001
            buf.write(format(math.sin(i * 0.01) * float(z[0]), ".17g"))
            buf.write(",")
        float(np.max(np.abs(_BIG @ E), axis=1).sum())


def calibrate() -> float:
    """Wall seconds of one pass of the fixed loop, after a short warm-up
    that keeps first-call costs out of it."""
    _loop(3)
    t0 = time.perf_counter()
    _loop(REPS)
    return time.perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """Factor that scales a wall time measured between two calibrations."""
    return NOMINAL_S / (0.5 * (before + after))


class Calibrator:
    """Helper process that times the loop on request.

    Pins the calling process and the helper to one CPU, so the helper
    measures the CPU the iterations run on; the caller waits while it runs.
    """

    def __init__(self):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(calibrate(), flush=True)
