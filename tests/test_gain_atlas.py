"""The lemma verdicts over the gain plane, recomputed and compared with a committed atlas.

``tests/data/gain_atlas.json`` holds one record per gain pair: an 8 x 8
log-spaced grid of (ky1, ky2) over [1, 100]^2, plus the default pair (9, 18).
A record gives each ``verify-lemmas`` check's ``passed`` and ``applicable``
at grid resolution 30 and seed 0, and whether the critical-level search at
resolution 30 brackets its level, with its count of nonnegative-change cells.
The atlas records today's verdicts, including wrong ones: a change that moves
a cell re-records the file (``python tests/test_gain_atlas.py``) and names the
moved cells.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import numpy as np

from tiltsim import ModelParams, critical_lyapunov, run_lemma_checks

ATLAS = Path(__file__).parent / "data" / "gain_atlas.json"
RESOLUTION = 30
SEED = 0


def gain_pairs() -> list[tuple[float, float]]:
    gains = np.logspace(0.0, 2.0, 8).tolist()
    return [(k1, k2) for k1 in gains for k2 in gains] + [(9.0, 18.0)]


def record(ky1: float, ky2: float) -> dict:
    params = ModelParams(ky1=ky1, ky2=ky2)
    report = run_lemma_checks(params, RESOLUTION, SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an unbracketed search warns; the record says so
        crit = critical_lyapunov(resolution=RESOLUTION, params=params)
    return {
        "ky1": ky1,
        "ky2": ky2,
        "checks": {
            c["name"]: {"passed": c["passed"], "applicable": c["applicable"]}
            for c in report["checks"]
        },
        "bracketed": crit["bracketed"],
        "n_positive": crit["n_positive_cells"],
    }


def atlas() -> list[dict]:
    return [record(ky1, ky2) for ky1, ky2 in gain_pairs()]


def test_atlas_matches_the_committed_records():
    committed = json.loads(ATLAS.read_text())
    computed = atlas()
    assert [(r["ky1"], r["ky2"]) for r in committed] == gain_pairs()
    moved = [(c["ky1"], c["ky2"]) for c, r in zip(computed, committed) if c != r]
    assert moved == []


if __name__ == "__main__":
    ATLAS.parent.mkdir(exist_ok=True)
    # one record per line, so that a moved cell shows as one changed line
    ATLAS.write_text("[\n" + ",\n".join(json.dumps(r) for r in atlas()) + "\n]\n")
    sys.exit(0)
