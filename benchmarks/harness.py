"""Operation execution for the benchmark worker and the pin script.

``run_op`` sends one generated operation through ``tiltsim.cli.main``,
captures its stdout and stderr in memory, and checks its outputs;
``run_plan`` runs whole rounds with a time budget and, when asked,
per-layer tracing.

Right before each operation ``run_plan`` times blocks of
``reference_loop``, a fixed piece of pure-Python work that does not touch
tiltsim, for about half as long as the previous operation took. The host
this benchmark was defined on changed speed by up to 2x, both for minutes
at a time and from one operation to the next; the ``*_ref`` metrics
divide each operation's times by the median block time measured just
before it, which cancels most of that drift.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads


REFERENCE_ITERATIONS = 40_000  # one block, about 25 ms on a 2 GHz Xeon
REFERENCE_SHARE = 0.5  # reference time before an operation / the previous one's wall time
REFERENCE_MIN_S = 0.1  # reference time before the first operation, which has no previous one


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def reference_loop() -> float:
    """Wall time of one block of float math and frozen-dataclass creation."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        p = _Point(i * 1e-3, 0.5)
        acc += math.sin(p.x) * p.y
    return time.perf_counter() - t0


def run_op(cli, op: dict, work: Path, pins: dict) -> dict:
    """Run one operation through ``cli.main`` and check its outputs."""
    config_path = work / "op.ini"
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv, ini = workloads.cli_args(op, config_path, out_dir)
    if ini is not None:
        config_path.write_text(ini)
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an operation that raises counts as failed
                rc, error = None, repr(exc)
            w1, c1 = time.perf_counter(), time.process_time()
    values, problems = workloads.extract(op, out_dir, rc)
    if error is not None:
        problems.insert(0, f"raised {error}")
    pin = pins.get(workloads.op_key(op))
    if pin is not None:
        problems += workloads.compare(values, pin)
    return {
        "op": op,
        "wall": w1 - w0,
        "cpu": c1 - c0,
        "rc": rc,
        "values": values,
        "pinned": pin is not None,
        "problems": problems,
        "analysis_warnings": sum(
            1 for w in caught if os.path.basename(w.filename) == "analysis.py"
        ),
    }


def run_plan(cli, plan: dict, work: Path, pins: dict) -> dict:
    """Run ``plan`` (see worker.py) and return per-operation and per-round records."""
    tracer = None
    if plan["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    ops, round_walls, round_cpus, round_wall_refs, round_cpu_refs = [], [], [], [], []
    last_wall = 0.0
    t0 = time.perf_counter()
    for ops_in_round in plan["rounds"]:
        done = len(round_walls)
        elapsed = time.perf_counter() - t0
        if done and (done == plan["max_rounds"] or elapsed * (done + 1) / done > plan["seconds"]):
            break
        records = []
        for op in ops_in_round:
            blocks = []
            while sum(blocks) < max(REFERENCE_SHARE * last_wall, REFERENCE_MIN_S):
                blocks.append(reference_loop())
            record = run_op(cli, op, work, pins)
            record["reference"] = statistics.median(blocks)
            records.append(record)
            last_wall = record["wall"]
        ops += records
        round_walls.append(sum(r["wall"] for r in records))
        round_cpus.append(sum(r["cpu"] for r in records))
        round_wall_refs.append(sum(r["wall"] / r["reference"] for r in records))
        round_cpu_refs.append(sum(r["cpu"] / r["reference"] for r in records))
    return {
        "ops": ops,
        "round_walls": round_walls,
        "round_cpus": round_cpus,
        "round_wall_refs": round_wall_refs,
        "round_cpu_refs": round_cpu_refs,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.metrics() if tracer else None,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
