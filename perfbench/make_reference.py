"""Store the default seed's outputs as the correctness gate's reference.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when a change is meant to alter the program's outputs; the gate
then holds every later change to the new outputs.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        inputs = workloads.BUILD[name](workloads.DEFAULT_SEED)
        tmp = Path(tempfile.mkdtemp())
        try:
            summary = workloads.SUMMARIZE[name](workloads.RUN[name](inputs, tmp))
        finally:
            shutil.rmtree(tmp)
        problems = workloads.gate(name, summary, None, None)
        if problems:
            raise SystemExit(f"{name}: the program fails the gate's invariants: {problems}")
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
            fh.write("\n")
        print(f"wrote {name}.json")


if __name__ == "__main__":
    main()
