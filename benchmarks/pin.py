"""Regenerate pins.json: the outputs of every catalogued operation at this commit.

    python3 benchmarks/pin.py

Run it only when a change is meant to alter outputs; the benchmark
compares every operation against these references.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tiltsim.cli as cli

    import harness

    pins = {}
    work = ROOT / ".bench_tmp" / "pin"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.catalogue(workload):
                record = harness.run_op(cli, op, work, {})
                key = workloads.op_key(op)
                pins[key] = record["values"]
                status = "; ".join(record["problems"]) or "ok"
                print(f"{record['wall']:7.3f} s  {key}  {status}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
