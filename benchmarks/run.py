"""tiltsim benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload simulate --seed 1 --seconds 50 --trace 0

Run it from anywhere inside a checkout; it benchmarks ``<checkout>/src``.
Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
operations each workload draws are in ``workloads.py``.

With ``--trace 0`` it starts fresh worker interpreters one at a time: one
warm-up, three that only set up, one that runs the seeded operation
rounds for ``--seconds``, timing reference-loop blocks between operations,
and three more that only set up. It reports the end-to-end metrics; each
operation's times are divided by the reference block time measured just
before it (see harness.py). With
``--trace 1`` it parses ``-X importtime`` for the import breakdown, runs
the first round once untraced and twice with per-layer spans (the two
traced runs must make identical call counts), and reports the per-layer
metrics. Every run checks every operation's outputs against
``pins.json``. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the
machine description, goes to ``<checkout>/.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up-only workers before and after the measuring one, so that the
# set-up samples span the run; setup_s is the median of all of them
SETUP_EACH_SIDE = 3
PLAN_ROUNDS = 1000  # more rounds than any run can use
DEADLINE_S = 170  # a run must end within 180 s, workers included
STARTED = time.monotonic()
IMPORT_RUNS = 3
# import.* metric -> top-level package (or module prefix) whose cumulative
# -X importtime entries it sums
IMPORT_GROUPS = {
    "import.tiltsim_s": "tiltsim",
    "import.analysis_s": "tiltsim.analysis",
    "import.scipy_s": "scipy",
    "import.numpy_s": "numpy",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {
        k: v for k, v in os.environ.items() if not k.startswith("TILTSIM_") and k != "PYTHONPATH"
    }
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def remaining_s() -> float:
    return max(1.0, DEADLINE_S - (time.monotonic() - STARTED))


def start_worker(work: Path, plan: dict | None) -> tuple[float, dict | None]:
    """Run one worker interpreter; return its set-up time and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(work)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=worker_env(),
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(
            json.dumps(plan) if plan and ready.strip() == "ready" else "",
            timeout=remaining_s(),
        )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {err.strip()[-2000:]}")
    return setup_s, json.loads(out.splitlines()[-1]) if plan else None


def parse_importtime(text: str) -> dict[str, float]:
    """Sum the cumulative time of the outermost entries of each import group."""
    entries = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m[2]), m[3], int(m[1])))
    out = {}
    for metric, pkg in IMPORT_GROUPS.items():
        total_us, ancestors = 0, []
        # the log lists children before parents; reversed, parents come first
        for depth, name, cumulative in reversed(entries):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            hit = name == pkg or name.startswith(pkg + ".")
            if hit and not any(h for _, h in ancestors):
                total_us += cumulative
            ancestors.append((depth, hit))
        out[metric] = total_us / 1e6
    return out


def import_breakdown() -> dict[str, float]:
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import tiltsim.cli"
    samples = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=remaining_s(),
        )
        if proc.returncode != 0:
            raise BenchError(f"import of tiltsim.cli failed: {proc.stderr.strip()[-2000:]}")
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in IMPORT_GROUPS}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            names = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(names, cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tiltsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def seconds(result: dict) -> dict[str, float]:
    """Times in seconds: rounds as means over the run, operations as the median."""
    return {
        "wall_s": statistics.mean(result["round_walls"]),
        "cpu_s": statistics.mean(result["round_cpus"]),
        "op_p50_s": statistics.median(op["wall"] for op in result["ops"]),
        "reference_s": statistics.median(op["reference"] for op in result["ops"]),
    }


def end_to_end(setups: list[float], result: dict) -> dict[str, float]:
    """Each operation's times divided by its own reference, aggregated as in ``seconds``."""
    return {
        "setup_s": statistics.median(setups),
        "wall_ref": statistics.mean(result["round_wall_refs"]),
        "cpu_ref": statistics.mean(result["round_cpu_refs"]),
        "op_p50_ref": statistics.median(op["wall"] / op["reference"] for op in result["ops"]),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }


def per_layer(imports: dict, ref: dict, traced: dict) -> dict[str, float]:
    metrics = dict(imports)
    metrics.update(traced["layers"])
    metrics["analysis.warnings"] = sum(op["analysis_warnings"] for op in traced["ops"])
    metrics["trace.overhead_ratio"] = traced["round_walls"][0] / ref["round_walls"][0]
    return metrics


def calls(result: dict) -> dict:
    return {k: v for k, v in result["layers"].items() if k.endswith(".calls")}


def report(
    args, spec: dict, results: list[dict], metrics: dict, notes: list[str], consistent: bool
) -> dict:
    ops = [op for r in results for op in r["ops"]]
    failed = [op for op in ops if op["problems"]]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine(), **results[-1]["versions"]},
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "ops": ops,
        "notes": notes,
    }
    print(f"tiltsim benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    m = record["machine"]
    print(
        f"machine: {m['nproc']} cpus, {m['cpu_model']}, python {m['python']}, "
        f"numpy {m['numpy']}, scipy {m['scipy']}, commit {m['git_commit']}, "
        f"src sha256 {m['src_sha256'][:12]}"
    )
    for name, entry in record["metrics"].items():
        value = entry["value"]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<44} {shown} {entry['unit']}")
    for note in notes:
        print(f"  {note}")
    n_pinned = sum(op["pinned"] for op in ops)
    print(
        f"checks: {len(ops)} operations, {len(failed)} failed, "
        f"error_rate {len(failed) / len(ops):.4g} ({n_pinned} against pins, "
        f"{len(ops) - n_pinned} structural only); "
        f"analysis warnings {sum(op['analysis_warnings'] for op in ops)}"
    )
    for op in failed[:10]:
        print(f"  FAILED {workloads.op_key(op['op'])}: {'; '.join(op['problems'])}")
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return {
        "correct": not failed and consistent,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        p for p in (ROOT / "src" / "tiltsim" / "cli.py", HERE / "pins.json") if not p.is_file()
    ]
    if missing:
        print(f"cannot benchmark: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rounds = workloads.rounds(args.workload, args.seed, PLAN_ROUNDS)
    work = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    notes, consistent = [], True
    try:
        if args.trace:
            imports = import_breakdown()
            one_round = {"rounds": rounds[:1], "seconds": 0, "max_rounds": 1}
            _, ref = start_worker(work, {**one_round, "trace": False})
            _, traced = start_worker(work, {**one_round, "trace": True})
            _, again = start_worker(work, {**one_round, "trace": True})
            consistent = calls(traced) == calls(again)
            notes.append(
                "call counts of two traced runs: " + ("identical" if consistent else "DIFFERENT")
            )
            results = [ref, traced, again]
            metrics = per_layer(imports, ref, traced)
        else:
            start_worker(work, None)  # warm-up: bytecode and file caches
            setups = [start_worker(work, None)[0] for _ in range(SETUP_EACH_SIDE)]
            plan = {"rounds": rounds, "seconds": args.seconds, "max_rounds": 0, "trace": False}
            setup_s, result = start_worker(work, plan)
            setups.append(setup_s)
            setups += [start_worker(work, None)[0] for _ in range(SETUP_EACH_SIDE)]
            results = [result]
            metrics = end_to_end(setups, result)
            raw = seconds(result)
            notes.append(
                f"{len(result['round_walls'])} rounds of {len(rounds[0])} operations; in seconds: "
                + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
                + f", operation wall max {max(op['wall'] for op in result['ops']):.6g}"
            )
            if args.workload == "simulate":
                steps = workloads.SIM_STEPS * len(result["ops"])
                wall = sum(op["wall"] for op in result["ops"])
                notes.append(f"sim_steps_per_s {steps / wall:.6g} steps/s")
        line = report(args, spec, results, metrics, notes, consistent)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
