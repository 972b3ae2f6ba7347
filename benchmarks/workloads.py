"""Seeded operation generators and output checks for the tiltsim benchmark.

An operation is a small dict such as ``{"cmd": "simulate", "preset":
"large", "y0": 0.01, "vy0": 0.0}``. ``cli_args`` turns it into the argv
and the INI text that the CLI receives; nothing else reaches the program.
Every operation a generator can draw is listed by ``catalogue``, so
``pins.json`` holds reference outputs for all of them. Operations that
are not pinned still get the structural checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("simulate", "lemmas")

# simulate: dt 1e-3 over 20 s is 20 000 RK4 steps and 20 001 logged rows
SIM_DT = 0.001
SIM_DURATION = 20.0
SIM_STEPS = round(SIM_DURATION / SIM_DT)
# small lateral start offsets (y0, vy0), written as a [sim] INI section
SIM_OFFSETS = (
    (0.0, 0.0),
    (0.01, 0.0),
    (-0.01, 0.0),
    (0.0, 0.02),
    (0.0, -0.02),
    (0.02, -0.01),
    (-0.02, 0.01),
    (0.005, 0.005),
)

# lemmas also runs one generic-gain sweep-delta-l per round, so that the
# generic event-driven engine (_map_generic, brentq) and the grid CSV writer
# are measured. Each pair is outside the default (9, 18) and its critical
# level search returns early with "could not bracket the critical level
# from above": about 0.1 s and the same 252 brentq calls for every pair at
# this commit, so a round's cost does not depend on the seed. Pairs whose
# search bisects take seconds each and spread too much to gate.
GRID_RES = 16
GENERIC_GAINS = ((5, 20), (6, 22), (7, 23), (8, 24))

# lemmas: verify-lemmas at its default resolution and gains
LEMMA_SEEDS = range(32)
LEMMA_OPS_PER_ROUND = 4


def op_key(op: dict) -> str:
    return json.dumps(op, sort_keys=True)


def catalogue(workload: str) -> list[dict]:
    """Every operation the generator for ``workload`` can draw."""
    if workload == "simulate":
        return [
            {"cmd": "simulate", "preset": preset, "y0": y0, "vy0": vy0}
            for preset in ("large", "small")
            for y0, vy0 in SIM_OFFSETS
        ]
    if workload == "lemmas":
        return [{"cmd": "verify-lemmas", "seed": s} for s in LEMMA_SEEDS] + [
            {"cmd": "sweep-delta-l", "ky1": ky1, "ky2": ky2} for ky1, ky2 in GENERIC_GAINS
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def rounds(workload: str, seed: int, n_rounds: int) -> list[list[dict]]:
    """The seeded operation sequence, as rounds of equal expected cost."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    presets = rng.sample(("large", "small"), 2)
    out = []
    for _ in range(n_rounds):
        if workload == "simulate":
            out.append(
                [
                    {"cmd": "simulate", "preset": p, "y0": y0, "vy0": vy0}
                    for p, (y0, vy0) in zip(presets, rng.choices(SIM_OFFSETS, k=2))
                ]
            )
        else:
            seeds = rng.sample(LEMMA_SEEDS, LEMMA_OPS_PER_ROUND)
            ops = [{"cmd": "verify-lemmas", "seed": s} for s in seeds]
            ky1, ky2 = rng.choice(GENERIC_GAINS)
            generic = {"cmd": "sweep-delta-l", "ky1": ky1, "ky2": ky2}
            ops.insert(rng.randrange(len(ops) + 1), generic)
            out.append(ops)
    return out


def cli_args(op: dict, config_path: Path, out_dir: Path) -> tuple[list[str], str | None]:
    """Argv for ``tiltsim.cli.main`` and the INI text to write at ``config_path``."""
    cmd = op["cmd"]
    if cmd == "simulate":
        argv = [cmd, "--preset", op["preset"], "--dt", repr(SIM_DT)]
        argv += ["--duration", repr(SIM_DURATION), "--config", str(config_path)]
        ini = f"[sim]\ny0 = {op['y0']!r}\nvy0 = {op['vy0']!r}\n"
    elif cmd == "sweep-delta-l":
        argv = [cmd, "--grid-res", str(GRID_RES), "--config", str(config_path)]
        ini = f"[model]\nky1 = {op['ky1']}\nky2 = {op['ky2']}\n"
    elif cmd == "verify-lemmas":
        argv, ini = [cmd, "--seed", str(op["seed"])], None
    else:
        raise ValueError(f"unknown command {cmd!r}")
    return argv + ["--out-dir", str(out_dir)], ini


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def extract(op: dict, out_dir: Path, rc) -> tuple[dict, list[str]]:
    """Read an operation's outputs: (values to pin, structural problems).

    The structural checks need no reference: exit code, parseable JSON
    report, and the CSV row count.
    """
    cmd = op["cmd"]
    values = {"rc": rc}
    problems = []
    try:
        if cmd == "simulate":
            report = json.loads((out_dir / "report.json").read_text())
            values["trajectory_sha256"] = _sha256(out_dir / "trajectory.csv")
            values["manifest_sha256"] = _sha256(out_dir / "manifest.ini")
            values["passed"] = report["passed"]
            if rc not in (0, 1):
                problems.append(f"exit code {rc}")
            if report["passed"] != (rc == 0):
                problems.append(f"report passed={report['passed']} but exit code {rc}")
            rows = _rows(out_dir / "trajectory.csv")
            if rows != SIM_STEPS + 2:
                problems.append(f"trajectory.csv has {rows} lines, expected {SIM_STEPS + 2}")
        elif cmd == "sweep-delta-l":
            summary = json.loads((out_dir / "delta_l_summary.json").read_text())
            for name in ("l_critical", "max_delta_l", "n_positive", "n_admissible"):
                values[name] = summary[name]
            if rc != 0:
                problems.append(f"exit code {rc}")
            rows = _rows(out_dir / "delta_l_grid.csv")
            if rows != GRID_RES * GRID_RES + 1:
                problems.append(f"delta_l_grid.csv has {rows} lines, expected {GRID_RES**2 + 1}")
        else:
            report = json.loads((out_dir / "lemma_report.json").read_text())
            values["checks"] = [[c["name"], c["passed"]] for c in report["checks"]]
            if rc not in (0, 1):
                problems.append(f"exit code {rc}")
            if report["passed"] != (rc == 0):
                problems.append(f"report passed={report['passed']} but exit code {rc}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return values, problems


# Tolerances follow the test suite: l_critical is refined by bisection to
# 1e-4 (critical_lyapunov's refine_tol), and the generic-versus-default map
# tests agree to 1e-6. Everything else must match exactly.
_ABS_TOL = {"l_critical": 1e-4, "max_delta_l": 1e-6}


def compare(values: dict, pin: dict) -> list[str]:
    """Differences between an operation's outputs and its pinned reference."""
    problems = []
    for name, want in pin.items():
        got = values.get(name)
        tol = _ABS_TOL.get(name)
        if tol is not None and isinstance(got, float) and isinstance(want, float):
            same = math.isclose(got, want, rel_tol=0.0, abs_tol=tol)
        else:
            same = got == want
        if not same:
            problems.append(f"{name}: got {got!r}, pinned {want!r}")
    return problems
