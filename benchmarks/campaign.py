"""Run the benchmark over several seeds and summarise every metric.

    python3 benchmarks/campaign.py --runs 10 [--workload NAME ...] [--first-seed 1] [--trace 1]

Each run is a separate ``run.py`` process, started one at a time, with
``run_seconds`` from ``BENCHMARK.json``. For each workload and metric it
prints the median, the quartiles, the quartile spread as a share of the
median (checked against a third of the metric's bound), the highest
percentile with at least ten runs beyond it, and the run count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def high_percentile(values: list[float]) -> str:
    """The highest percentile that has at least ten runs beyond it."""
    if len(values) < 11:
        return "n/a"
    ranked = sorted(values)
    k = len(ranked) - 11
    return f"p{100 * (k + 1) / len(ranked):.0f}={ranked[k]:.6g}"


def summarise(workload: str, lines: list[dict], bounds: dict) -> bool:
    steady = True
    attempted = sum(line["attempted"] for line in lines)
    failed = sum(line["failed"] for line in lines)
    correct = all(line["correct"] for line in lines)
    print(
        f"{workload}: {len(lines)} runs, {attempted} operations, {failed} failed, "
        f"error_rate {failed / max(attempted, 1):.4g}, all correct: {correct}"
    )
    for name, first in lines[0]["metrics"].items():
        values = [line["metrics"][name]["value"] for line in lines]
        med = statistics.median(values)
        row = f"  {name:<40} median {med:12.6g} {first['unit']:<6}"
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            row += f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:.2%}"
            if name in bounds:
                ok = spread < bounds[name] / 3
                steady &= ok
                row += f" (a third of bound {bounds[name] / 3:.2%}: {'ok' if ok else 'WIDE'})"
        print(row + f" {high_percentile(values)} n={len(values)}")
    return steady and correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    all_ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        lines = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
            cmd += ["--seed", str(seed), "--seconds", str(spec["run_seconds"])]
            cmd += ["--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            lines.append(json.loads(proc.stdout.splitlines()[-1]))
            print(f"  {workload} seed {seed}: done", file=sys.stderr, flush=True)
        all_ok &= summarise(workload, lines, bounds)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
