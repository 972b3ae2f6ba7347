"""Atomic, bit-reproducible writers for trajectories, grids, and reports.

All numeric output uses 17 significant digits (round-trip exact for
doubles), '.' as the decimal separator, and LF line endings. Files are
written to a temporary sibling and renamed into place so interrupted runs
never leave truncated output behind; a write that fails removes the
temporary file and leaves any earlier file in place. The CSV tables are
formatted and written into the temporary file one chunk of rows at a
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

A table of two chunks or more is formatted by this process and one forked
child, when ``os.fork`` exists, ``os.sched_getaffinity`` allows two CPUs or
more and this is the only Python thread. The child formats each whole
chunk as soon as all of its rows are logged and writes it into the
temporary file; a short last chunk is always this process's.
``streamed_trajectory_csv`` forks the child before the simulation starts,
so it formats while ``simulator.run`` integrates. Both processes format
with the same code, so the bytes are those of a write in one process (see
``_table_file``).
"""

from __future__ import annotations

import contextlib
import json
import locale
import mmap
import os
import signal
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .simulator import ROW_WIDTH, TRAJECTORY_COLUMNS, _trajectory

__all__ = [
    "fmt",
    "atomic_write_text",
    "write_json",
    "write_trajectory_csv",
    "streamed_trajectory_csv",
    "write_grid_csv",
]


def fmt(value: float) -> str:
    return format(value, ".17g")


@contextlib.contextmanager
def _atomic_file(path):
    """Yield a descriptor on a temporary sibling of ``path``, renamed onto it on a clean exit.

    Any exception, from the block or from closing and renaming the file,
    unlinks the temporary file, leaves ``path`` untouched and propagates.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            yield fd
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to a temporary sibling, then rename it onto ``path``.

    The text is encoded as ``open`` would encode it before any file is made,
    so an exception from encoding it, or writing it, leaves no file behind.
    """
    data = text.encode(locale.getpreferredencoding(False))
    with _atomic_file(path) as fd:
        _write_all(fd, data)


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


_CHUNK_ROWS = 2048
_SIGNS = np.array(["", "-"], dtype=object)
# the words of the block a table's writer shares with its child (see ``_Child``)
_STARTED, _STOP = range(2)


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


def _chunk_text(hows, part) -> str:
    """One chunk of rows as CSV text; its ``%`` arguments are freed on return.

    A column is printed as ``hows[i]`` says: a ``%`` code (``%.17g`` prints
    as ``fmt`` does, ``%d`` an integer-valued column) or a ``Copy``; every
    column but a ``%d`` one is printed as doubles. The chunk is formatted
    with one ``%`` call. The magnitudes of each ``Copy`` source, and each
    ``%.17g`` column that holds at most half as many distinct values as
    rows, are formatted once per distinct value and passed as ``%s`` texts.
    The same double always prints the same text, so the bytes are those of
    formatting every value.
    """
    part = [
        values if how == "%d" else np.asarray(values, dtype=np.float64)
        for how, values in zip(hows, part)
    ]
    size = len(part[0])
    sources = sorted({h.source for h in hows if isinstance(h, Copy)})
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


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


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
    """A forked process that writes a table's whole chunks, first to last, into its file.

    The child formats chunk j once this process has sent it the j-th byte
    down the ``ready`` pipe (all 2048 rows of the chunk are logged), unless
    this process has claimed the chunk by setting the shared word ``_STOP``
    to j or below; it sets ``_STARTED`` to j + 1 first. Each word has one
    writer and moves one way, so a stale read makes both processes format a
    chunk, never neither (see ``finish``).
    """

    def __init__(self, cpus: set[int], fd: int, chunk):
        """Fork a child on ``cpus`` writing ``chunk(j, rows)`` to ``fd``; OSError if it cannot.

        The child leaves through ``os._exit``, 0 once the pipe is closed or
        its next chunk is claimed and 1 on any error, so it never returns
        into the caller or flushes an inherited buffer.
        """
        self.fd, self.chunk, self.sent = fd, chunk, 0
        self.shared = np.frombuffer(mmap.mmap(-1, 2 * 8), dtype=np.int64)
        self.shared[_STOP] = np.iinfo(np.int64).max  # no chunk is claimed yet
        r, self.ready = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(r)
            os.close(self.ready)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(self.ready)
                os.sched_setaffinity(0, cpus)
                j = 0
                while os.read(r, 1) and j < self.shared[_STOP]:
                    self.shared[_STARTED] = j + 1
                    _write_all(fd, chunk(j, (j + 1) * _CHUNK_ROWS))
                    j += 1
                status = 0
            finally:
                os._exit(status)
        os.close(r)

    def send(self, ready: int) -> None:
        """Tell the child that every row of the first ``ready`` chunks is logged."""
        if ready > self.sent:
            with contextlib.suppress(BrokenPipeError):  # the child has exited: see finish
                _write_all(self.ready, b"\0" * (ready - self.sent))
            self.sent = ready

    def finish(self, rows: int, scratch_dir: Path) -> bool:
        """Share the chunks left with the child, reap it, and append this process's chunks.

        Sends the last whole chunks and closes the pipe; then claims and
        formats, from the last chunk back, each chunk the child has not
        started, into an unnamed scratch file in ``scratch_dir``. Once the
        child is reaped, the chunks from its last one on are copied after
        its text. A chunk both formatted is taken from the child. False,
        with nothing appended, if either process failed: the caller formats
        every chunk.
        """
        self.send(rows // _CHUNK_ROWS)
        os.close(self.ready)
        self.ready = None
        claimed, failed = [], False
        with tempfile.TemporaryFile(dir=scratch_dir) as scratch:
            tail = scratch.fileno()
            try:
                for j in range(-(-rows // _CHUNK_ROWS) - 1, -1, -1):
                    if j < self.shared[_STARTED]:
                        break
                    self.shared[_STOP] = j
                    offset = os.lseek(tail, 0, os.SEEK_CUR)
                    _write_all(tail, self.chunk(j, rows))  # no chunk's text outlives its write
                    claimed.append((j, offset, os.lseek(tail, 0, os.SEEK_CUR) - offset))
            except Exception:  # the caller's one-process write raises it again, if it recurs
                failed = True
                os.kill(self.pid, signal.SIGKILL)
            status = os.waitpid(self.pid, 0)[1]
            self.pid = None
            if failed or status != 0:
                return False
            first = int(self.shared[_STARTED])
            for j, offset, size in reversed(claimed):
                if j >= first:
                    _write_all(self.fd, os.pread(tail, size, offset))
        return True

    def close(self) -> None:
        """Close the pipe, and kill and reap the child unless it has been reaped."""
        if self.ready is not None:
            os.close(self.ready)
            self.ready = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


@contextlib.contextmanager
def _table_file(path, header: str, hows, part, capacity: int):
    """Write a CSV table of at most ``capacity`` rows as they are logged; yield ``logged(rows)``.

    ``part(lo, hi)`` gives the columns of rows ``lo`` to ``hi - 1`` once
    ``logged`` has reported them, and ``hows`` how each is printed (see
    ``_chunk_text``). On a clean exit, ``path`` holds ``header`` and the rows
    of the last ``logged`` call; an exception from the block, or from the
    write, leaves ``path`` as it was and no temporary file.

    With ``_child_cpus`` allowing a child and room for two chunks, a child
    is forked at the start and formats each whole chunk once its rows are
    logged. After the block, this process formats a short last chunk and
    shares the chunks left with the child (see ``_Child.finish``), by which
    gets to a chunk first, so the split holds for any host speed. With no
    pipe or process to be had, this process formats every chunk after the
    block. If either process fails, the child is reaped and this process
    truncates the file to its header and formats every chunk itself, so a
    formatting error raises what it would raise in one process. The child
    is killed and reaped before the block's exception, or the write's,
    propagates, so no process outlives the write.
    """
    head = header.encode("ascii")
    rows, child = 0, None

    def chunk(j, n_rows):
        lo = j * _CHUNK_ROWS
        return _chunk_text(hows, part(lo, min(lo + _CHUNK_ROWS, n_rows))).encode("ascii")

    def logged(n):
        nonlocal rows
        rows = n
        if child is not None:
            child.send(n // _CHUNK_ROWS)

    with _atomic_file(path) as fd:
        _write_all(fd, head)
        cpus = _child_cpus() if capacity > _CHUNK_ROWS else None
        try:
            if cpus is not None:
                with contextlib.suppress(OSError):  # no pipe or process to be had
                    child = _Child(cpus, fd, chunk)
            yield logged
            if child is None or not child.finish(rows, Path(path).parent):
                os.ftruncate(fd, len(head))
                os.lseek(fd, len(head), os.SEEK_SET)
                for j in range(-(-rows // _CHUNK_ROWS)):
                    _write_all(fd, chunk(j, rows))
        finally:
            if child is not None:
                child.close()


def _write_table(path, header: str, hows, columns) -> None:
    """Write ``header`` and one CSV row per row of the equal-length ``columns``."""
    rows = len(columns[0])
    with _table_file(
        path, header, hows, lambda lo, hi: [c[lo:hi] for c in columns], rows
    ) as logged:
        logged(rows)


# columns printed from another column's text: ey = 0 - y and eydot = 0 - vy
# have the magnitudes of y and vy, and each clamped command is its raw command
# or +0.0
_COPIES = {"ey": "y", "eydot": "vy", "w1sq": "w1sq_raw", "w2sq": "w2sq_raw"}
_TRAJECTORY_HEADER = ",".join(TRAJECTORY_COLUMNS) + "\n"
_TRAJECTORY_HOWS = [
    Copy(TRAJECTORY_COLUMNS.index(_COPIES[name])) if name in _COPIES
    else "%d" if name in ("p", "q") else "%.17g"
    for name in TRAJECTORY_COLUMNS
]


def write_trajectory_csv(traj, path) -> None:
    """One row per sample, with ``p`` and ``q`` as integers."""
    columns = [traj.column(name) for name in TRAJECTORY_COLUMNS]
    _write_table(path, _TRAJECTORY_HEADER, _TRAJECTORY_HOWS, columns)


@contextlib.contextmanager
def streamed_trajectory_csv(path, config):
    """Write the trajectory CSV of a run of ``config`` while it runs: yield ``(table, logged)``.

    ``simulator.run(config, table, logged)`` logs into ``table``, a row
    table in shared memory, and reports its rows to ``logged``; a forked
    child (see ``_table_file``) formats each whole chunk of rows as it
    lands. On a clean exit ``path`` holds the CSV of the rows last
    reported, the bytes ``write_trajectory_csv`` writes for that run's
    trajectory, be it whole or a diverged run's partial log.
    """
    capacity = config.n_steps + 1
    table = np.frombuffer(mmap.mmap(-1, capacity * ROW_WIDTH * 8)).reshape(capacity, ROW_WIDTH)

    def part(lo, hi):
        traj = _trajectory(table[lo:hi], config, lo)
        return [traj.column(name) for name in TRAJECTORY_COLUMNS]

    with _table_file(path, _TRAJECTORY_HEADER, _TRAJECTORY_HOWS, part, capacity) as logged:
        yield table, logged


def write_grid_csv(grid, path) -> None:
    """One row per grid cell, row-major."""
    E, Ed = np.meshgrid(grid.e_values, grid.edot_values, indexing="ij")
    codes = ("%.17g", "%.17g", "%d", "%.17g", "%d")
    columns = (E, Ed, grid.mask, grid.values, grid.sign_map())
    header = "e,edot,admissible,delta_L,sign\n"
    _write_table(path, header, codes, [np.ravel(c) for c in columns])
