"""Atomic, bit-reproducible writers for trajectories, grids, and reports.

All numeric output uses 17 significant digits (round-trip exact for
doubles), '.' as the decimal separator, and LF line endings. Files are
written to a temporary sibling and renamed into place so interrupted runs
never leave truncated output behind; a write that fails removes the
temporary file and leaves any earlier file in place. The CSV tables are
formatted and streamed into the temporary file one chunk of rows at a
time, so the whole text is never held in memory.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

__all__ = [
    "fmt",
    "atomic_write_chunks",
    "atomic_write_text",
    "write_json",
    "write_trajectory_csv",
    "write_grid_csv",
]


def fmt(value: float) -> str:
    return format(value, ".17g")


def atomic_write_chunks(path, chunks) -> None:
    """Write each text chunk in turn to a temporary sibling, then rename it onto ``path``.

    Any exception, from producing, encoding or writing a chunk, unlinks the
    temporary file, leaves ``path`` untouched and propagates.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_chunks(path, (text,))


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


_CHUNK_ROWS = 2048


def _write_table(path, header: str, row: str, columns) -> None:
    """Write ``header`` and one ``row`` template per row of the equal-length ``columns``.

    Each chunk of rows is stacked, formatted with one ``%`` call and written
    before the next is stacked; ``%.17g`` prints as ``fmt`` does and ``%d``
    an integer-valued column.
    """

    def chunks():
        yield header
        for lo in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = np.column_stack([c[lo : lo + _CHUNK_ROWS] for c in columns])
            yield row * len(chunk) % tuple(chunk.ravel().tolist())

    atomic_write_chunks(path, chunks())


def write_trajectory_csv(traj, path) -> None:
    """One row per sample, with ``p`` and ``q`` as integers."""
    from .simulator import TRAJECTORY_COLUMNS

    row = ",".join("%d" if name in ("p", "q") else "%.17g" for name in TRAJECTORY_COLUMNS) + "\n"
    columns = [traj.column(name) for name in TRAJECTORY_COLUMNS]
    _write_table(path, ",".join(TRAJECTORY_COLUMNS) + "\n", row, columns)


def write_grid_csv(grid, path) -> None:
    """One row per grid cell, row-major, as listed by ``DeltaLGrid.rows``."""
    E, Ed = np.meshgrid(grid.e_values, grid.edot_values, indexing="ij")
    columns = [np.ravel(c) for c in (E, Ed, grid.mask, grid.values, grid.sign_map())]
    _write_table(path, "e,edot,admissible,delta_L,sign\n", "%.17g,%.17g,%d,%.17g,%d\n", columns)
