"""Atomic, bit-reproducible writers for trajectories, grids, and reports.

All numeric output uses 17 significant digits (round-trip exact for
doubles), '.' as the decimal separator, and LF line endings. Files are
written to a temporary sibling and renamed into place so interrupted runs
never leave truncated output behind; a write that fails removes the
temporary file and leaves any earlier file in place. The CSV tables are
formatted and streamed into the temporary file one chunk of rows at a
time, so the whole text is never held in memory.

Four trajectory columns are printed from another column's text (see
``Copy``): ``ey = 0 - y`` and ``eydot = 0 - vy`` have the magnitudes of
``y`` and ``vy``, and each clamped command ``w1sq``, ``w2sq`` is its raw
command or ``+0.0``. That is exact because a cell is copied only where the
relation holds in the trajectory's own arrays. In each chunk of rows, the
sources' magnitudes, and any double column with at most half as many
distinct bit patterns as rows (the two cone edges among them), are
formatted once per distinct value. So the bytes are those of formatting
every value.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import NamedTuple

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
            fh.writelines(chunks)  # each chunk is dropped once written
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_chunks(path, (text,))


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


_CHUNK_ROWS = 2048
_SIGNS = np.array(["", "-"], dtype=object)


class Copy(NamedTuple):
    """Print a float column from column ``source``'s text where that is exact.

    A double prints as its sign (``-`` unless it is positive or NaN) before
    the digits of its magnitude. So on rows where the column's magnitude
    equals ``source``'s, a cell is its own sign before the digits that
    ``source`` prints. Every other cell (NaN among them) is printed once
    per distinct bit pattern in its chunk.
    """

    source: int


def _signs(values: np.ndarray) -> np.ndarray:
    return _SIGNS[(np.signbit(values) & ~np.isnan(values)).view(np.int8)]


def _texts(values: np.ndarray, repeats_only: bool = False) -> np.ndarray | None:
    """``fmt`` of each double, formatted once per distinct bit pattern.

    With ``repeats_only``, None where more than half of the values are distinct.
    """
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    if repeats_only and 2 * len(bits) > len(values):
        return None
    printed = ("%.17g " * len(bits) % tuple(bits.view(np.float64).tolist())).split()
    return np.array(printed, dtype=object)[inverse]


def _write_table(path, header: str, columns) -> None:
    """Write ``header`` and one CSV row per row of the equal-length ``columns``.

    A column is a ``(how, values)`` pair: ``how`` is a ``%`` code
    (``%.17g`` prints as ``fmt`` does, ``%d`` an integer-valued column) or
    a ``Copy``; every column but a ``%d`` one is printed as doubles. Each
    chunk of rows is formatted with one ``%`` call and written before the
    next chunk is formatted. In a chunk, the magnitudes of each ``Copy``
    source, and each ``%.17g`` column that holds at most half as many
    distinct values as rows, are formatted once per distinct value and
    passed as ``%s`` texts. The same double always prints the same text, so
    the bytes are those of formatting every value.
    """
    hows = [how for how, _ in columns]
    sources = sorted({h.source for h in hows if isinstance(h, Copy)})
    arrays = [
        values if how == "%d" else np.asarray(values, dtype=np.float64) for how, values in columns
    ]

    def chunk_text(part):
        """One chunk of rows as CSV text; its ``%`` arguments are freed on return."""
        size = len(part[0])
        digits = {i: _texts(np.abs(part[i])) for i in sources}
        codes = ["%s"] * len(part)
        out = np.empty((size, len(part)), dtype=object)
        for i, (how, values) in enumerate(zip(hows, part)):
            if i in digits:
                out[:, i] = _signs(values) + digits[i]
            elif isinstance(how, Copy):
                copied = np.abs(values) == np.abs(part[how.source])
                out[copied, i] = _signs(values[copied]) + digits[how.source][copied]
                out[~copied, i] = _texts(values[~copied])
            else:
                shared = _texts(values, repeats_only=True) if how == "%.17g" else None
                codes[i] = how if shared is None else "%s"
                out[:, i] = values if shared is None else shared
        return (",".join(codes) + "\n") * size % tuple(out.ravel().tolist())

    def chunks():
        yield header
        for lo in range(0, len(arrays[0]), _CHUNK_ROWS):
            yield chunk_text([values[lo : lo + _CHUNK_ROWS] for values in arrays])

    atomic_write_chunks(path, chunks())


# columns printed from another column's text: ey = 0 - y and eydot = 0 - vy
# have the magnitudes of y and vy, and each clamped command is its raw command
# or +0.0
_COPIES = {"ey": "y", "eydot": "vy", "w1sq": "w1sq_raw", "w2sq": "w2sq_raw"}


def write_trajectory_csv(traj, path) -> None:
    """One row per sample, with ``p`` and ``q`` as integers."""
    from .simulator import TRAJECTORY_COLUMNS

    def column(name):
        values = traj.column(name)
        if name in _COPIES:
            return Copy(TRAJECTORY_COLUMNS.index(_COPIES[name])), values
        return "%d" if name in ("p", "q") else "%.17g", values

    header = ",".join(TRAJECTORY_COLUMNS) + "\n"
    _write_table(path, header, [column(name) for name in TRAJECTORY_COLUMNS])


def write_grid_csv(grid, path) -> None:
    """One row per grid cell, row-major."""
    E, Ed = np.meshgrid(grid.e_values, grid.edot_values, indexing="ij")
    codes = ("%.17g", "%.17g", "%d", "%.17g", "%d")
    columns = (E, Ed, grid.mask, grid.values, grid.sign_map())
    header = "e,edot,admissible,delta_L,sign\n"
    _write_table(path, header, [(code, np.ravel(c)) for code, c in zip(codes, columns)])
