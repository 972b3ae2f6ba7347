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


def _write_table(path, header: str, row: str, table: np.ndarray) -> None:
    """Write ``header`` and one ``row`` template per table row, a chunk of rows per ``%`` call.

    Only one chunk of Python floats is alive at a time; ``%.17g`` prints as
    ``fmt`` does and ``%d`` an integer-valued column.
    """
    parts = [header]
    for lo in range(0, len(table), _CHUNK_ROWS):
        chunk = table[lo : lo + _CHUNK_ROWS]
        parts.append(row * len(chunk) % tuple(chunk.ravel().tolist()))
    atomic_write_text(path, "".join(parts))


def write_trajectory_csv(traj, path) -> None:
    """One row per sample, with ``p`` and ``q`` as integers."""
    from .simulator import TRAJECTORY_COLUMNS

    row = ",".join("%d" if name in ("p", "q") else "%.17g" for name in TRAJECTORY_COLUMNS) + "\n"
    table = np.column_stack([traj.column(name) for name in TRAJECTORY_COLUMNS])
    _write_table(path, ",".join(TRAJECTORY_COLUMNS) + "\n", row, table)


def write_grid_csv(grid, path) -> None:
    """One row per grid cell, row-major, as listed by ``DeltaLGrid.rows``."""
    E, Ed = np.meshgrid(grid.e_values, grid.edot_values, indexing="ij")
    columns = (E, Ed, grid.mask, grid.values, grid.sign_map())
    table = np.column_stack([np.ravel(c).astype(float) for c in columns])
    _write_table(path, "e,edot,admissible,delta_L,sign\n", "%.17g,%.17g,%d,%.17g,%d\n", table)
