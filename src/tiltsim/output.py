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

A table of two chunks or more is split between this process and one
forked child, when ``os.fork`` exists, ``os.sched_getaffinity`` allows two
CPUs or more and this is the only Python thread. This process formats the
header and the first half of the chunks (the odd chunk among them) while
the child, pinned off this process's CPU, formats the rest and sends their
text down a pipe; this process then streams that text into the temporary
file after its own. Both halves are formatted by the same code, so the
bytes are those of a write in one process (see ``_write_table``).
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading
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
_PIPE_PIECE = 1 << 16  # bytes of a child's text read, and yielded, at a time
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


def _current_cpu() -> int | None:
    """The CPU this process runs on (field 39 of ``/proc/self/stat``), or None if unreadable."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            # the fields from the third on follow the command name's last ')'
            return int(fh.read().rpartition(b")")[2].split()[36])
    except OSError:
        return None


def _child_cpus() -> set[int] | None:
    """The CPUs a forked formatting child is pinned to, or None where no child may be forked.

    A child needs ``os.fork``, two allowed CPUs or more, and no Python
    thread but this one, whose locks a child could inherit held. It runs
    on every allowed CPU but this process's current one: where the kernel
    does not balance load across CPUs, a forked child stays on its parent's
    CPU, and the two then take as long as one.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2 or threading.active_count() != 1:
        return None
    return allowed - {_current_cpu()}


class _Child:
    """A forked process that formats texts and then sends them down a pipe as ASCII."""

    def __init__(self, pid: int, pipe):
        self.pid, self.pipe = pid, pipe

    @classmethod
    def start(cls, cpus: set[int], make_texts) -> _Child | None:
        """Fork a child on ``cpus`` that sends ``make_texts()``; None if no pipe or fork.

        The child formats every text before it sends a byte, and leaves
        through ``os._exit``, 0 once all is sent and 1 on any error, so it
        never returns into the caller or flushes an inherited buffer.
        """
        try:
            r, w = os.pipe()
        except OSError:
            return None
        pipe = open(r, "rb", buffering=0)
        try:
            pid = os.fork()
        except OSError:
            pipe.close()
            os.close(w)
            return None
        if pid == 0:
            status = 1
            try:
                pipe.close()
                os.sched_setaffinity(0, cpus)
                for text in make_texts():
                    data = memoryview(text.encode("ascii"))
                    while data:
                        data = data[os.write(w, data) :]
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        return cls(pid, pipe)

    def texts(self):
        """Yield the child's text in pieces of at most 64 KiB; return whether it all came.

        False means that the child failed before it sent anything; a child
        that fails after that raises ``OSError``.
        """
        sent = False
        while piece := self.pipe.read(_PIPE_PIECE):
            sent = True
            yield piece.decode("ascii")
        self.pipe.close()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if code != 0 and sent:
            raise OSError(f"CSV formatting child exited with {code} after sending part of its text")
        return code == 0

    def close(self) -> None:
        """Close the pipe, and kill and reap the child unless it has been reaped."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


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

    A table of two chunks or more is split where ``_child_cpus`` allows:
    this process formats the header and the first ``ceil(n / 2)`` of its
    ``n`` chunks while a forked child, pinned off this process's CPU,
    formats the rest; the child's text then follows in pieces of at most
    64 KiB. With no pipe or process to be had, this process formats every
    chunk. If the child fails before it sends anything, this process
    formats its chunks itself, so a formatting error raises what it would
    raise in one process; a child that fails later raises ``OSError``. A
    write that fails or stops early kills and reaps the child, so no
    process outlives the write.
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

    def part(lo):
        return [values[lo : lo + _CHUNK_ROWS] for values in arrays]

    def chunks():
        starts = range(0, len(arrays[0]), _CHUNK_ROWS)
        rest = starts[(len(starts) + 1) // 2 :]
        cpus = _child_cpus() if rest else None
        child = None
        if cpus is not None:
            child = _Child.start(cpus, lambda: [chunk_text(part(lo)) for lo in rest])
        try:
            yield header
            for lo in starts[: len(starts) - len(rest)]:
                yield chunk_text(part(lo))
            if child is None or not (yield from child.texts()):
                for lo in rest:
                    yield chunk_text(part(lo))
        finally:
            if child is not None:
                child.close()

    # closed on a failed write too, so that its child is reaped before this returns
    with contextlib.closing(chunks()) as texts:
        atomic_write_chunks(path, texts)


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
