"""Atomic, bit-reproducible writers for trajectories, grids, and reports.

All numeric output uses 17 significant digits (round-trip exact for
doubles), '.' as the decimal separator, and LF line endings. Files are
written to a temporary sibling and renamed into place so interrupted runs
never leave truncated output behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

__all__ = [
    "fmt",
    "atomic_write_text",
    "write_json",
    "write_trajectory_csv",
    "write_grid_csv",
]


def fmt(value: float) -> str:
    return format(value, ".17g")


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


_CHUNK_ROWS = 2048


def write_trajectory_csv(traj, path) -> None:
    """One row per sample; ``%.17g`` prints as ``fmt`` and ``%d`` the integer ``p``, ``q``.

    Each chunk of rows is one ``%`` call on the repeated row template, so only
    one chunk of Python floats is alive at a time.
    """
    from .simulator import TRAJECTORY_COLUMNS

    row = ",".join("%d" if name in ("p", "q") else "%.17g" for name in TRAJECTORY_COLUMNS) + "\n"
    table = np.column_stack([traj.column(name) for name in TRAJECTORY_COLUMNS])
    parts = [",".join(TRAJECTORY_COLUMNS) + "\n"]
    for lo in range(0, len(table), _CHUNK_ROWS):
        chunk = table[lo : lo + _CHUNK_ROWS]
        parts.append(row * len(chunk) % tuple(chunk.ravel().tolist()))
    atomic_write_text(path, "".join(parts))


def write_grid_csv(grid, path) -> None:
    lines = ["e,edot,admissible,delta_L,sign"]
    for e, edot, admissible, value, sign in grid.rows():
        lines.append(f"{fmt(e)},{fmt(edot)},{admissible},{fmt(value)},{sign}")
    atomic_write_text(path, "\n".join(lines) + "\n")
