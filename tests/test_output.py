import dataclasses
import errno
import math
import os
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
from tiltsim import ModelParams, VehicleState, cli, delta_l_grid, output, simulator
from tiltsim.analysis import DeltaLGrid
from tiltsim.gait import preset
from tiltsim.output import (
    _CHUNK_ROWS,
    Copy,
    _chunk_text,
    atomic_write_text,
    fmt,
    streamed_trajectory_csv,
    write_grid_csv,
    write_trajectory_csv,
)
from tiltsim.simulator import TRAJECTORY_COLUMNS, DivergenceError, SimConfig, Trajectory, run

# a numpy overflow or invalid value in the writers fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

AWKWARD = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, 1.0]
ROW_COUNTS = [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3]


def assert_same_bytes(grid, tmp_path):
    write_grid_csv(grid, tmp_path / "grid.csv")
    oc.write_grid_csv(grid, tmp_path / "oracle.csv")
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def awkward_trajectory(n):
    # every float column holds the awkward values at shifted rows
    values = np.resize(AWKWARD, n)
    cols = {f.name: np.roll(values, i) for i, f in enumerate(dataclasses.fields(Trajectory))}
    cols["p"] = np.resize(np.array([0, 1], dtype=np.int64), n)
    cols["q"] = np.resize(np.array([1, 1, 0], dtype=np.int64), n)
    return Trajectory(**cols)


def awkward_grid(n):
    # n rows: n e-values by one edot-value; the cells of the NaN values are not admissible
    values = np.resize(AWKWARD, n)
    e_values = np.roll(values, 3)
    delta_l = np.roll(values, 1)
    cells = np.flatnonzero(~np.isnan(delta_l))
    return DeltaLGrid(e_values, np.array([-0.0]), -1, cells, delta_l[cells])


def only_file(tmp_path) -> Path:
    (path,) = tmp_path.iterdir()
    return path


class TestGridCsv:
    def test_one_cell(self, tmp_path):
        grid = delta_l_grid((0.5, 0.5), (0.5, 0.5), 1, +1)
        assert grid.mask.all()
        assert_same_bytes(grid, tmp_path)

    def test_fully_masked(self, tmp_path):
        grid = delta_l_grid((-2.0, -1.0), (1.0, 2.0), 7, +1)
        assert not grid.mask.any()
        assert_same_bytes(grid, tmp_path)

    def test_default_grid_with_nan_cells(self, tmp_path):
        # 40 000 rows, more than one writer chunk
        grid = delta_l_grid((-2.0, 2.0), (-2.0, 2.0), 200, -1)
        assert np.isnan(grid.values).any() and grid.mask.any()
        assert_same_bytes(grid, tmp_path)

    def test_generic_gains_and_awkward_values(self, tmp_path):
        p = ModelParams(ky1=6.0, ky2=12.0)
        assert_same_bytes(delta_l_grid((-2.0, 2.0), (-2.0, 2.0), 16, +1, p), tmp_path)
        # cells 0 to 4 of a 2 x 3 grid; the last cell is not admissible
        delta_l = np.array([math.inf, -0.0, 5e-324, 1e16, 0.1])
        e, edot = np.array([-0.0, 1.0]), np.array([0.1, 0.2, 0.3])
        assert_same_bytes(DeltaLGrid(e, edot, +1, np.arange(5), delta_l), tmp_path)


class TestStreamedWriter:
    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize(
        "make, write, joined",
        [
            (awkward_trajectory, write_trajectory_csv, oc.joined_trajectory_csv),
            (awkward_grid, write_grid_csv, oc.joined_grid_csv),
        ],
        ids=["trajectory", "grid"],
    )
    def test_same_bytes_as_one_joined_string(self, tmp_path, n, make, write, joined):
        table = make(n)
        write(table, tmp_path / "streamed.csv")
        joined(table, tmp_path / "joined.csv")
        streamed = (tmp_path / "streamed.csv").read_bytes()
        assert streamed == (tmp_path / "joined.csv").read_bytes()
        assert streamed.count(b"\n") == n + 1

    def test_peak_memory_below_the_file_size(self, tmp_path):
        # a streamed write holds one chunk at a time, so writing 20 001 rows
        # peaks about where writing the first chunk does; a writer that keeps
        # the last chunk, or its arguments, alive while it formats the next
        # one peaks at 1.2-1.3 times that, and a whole-text writer far above
        traj = run(SimConfig(gait=preset("large"), duration=20.0))
        assert len(traj) == 20001
        head = dataclasses.replace(
            traj, **{f.name: getattr(traj, f.name)[:_CHUNK_ROWS] for f in dataclasses.fields(traj)}
        )

        def peak_of_write(table, path):
            tracemalloc.start()
            try:
                write_trajectory_csv(table, path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_chunk = peak_of_write(head, tmp_path / "head.csv")
        peak = peak_of_write(traj, tmp_path / "trajectory.csv")
        assert peak <= 1.1 * one_chunk
        assert peak < (tmp_path / "trajectory.csv").stat().st_size


def assert_every_value_printed(traj, tmp_path):
    write_trajectory_csv(traj, tmp_path / "copied.csv")
    oc.joined_trajectory_csv(traj, tmp_path / "printed.csv")
    assert (tmp_path / "copied.csv").read_bytes() == (tmp_path / "printed.csv").read_bytes()


def copying_trajectory(n, seed, specials, broken, n_edges):
    """A trajectory whose copied columns follow their sources except on ``broken`` rows.

    ``ey``, ``eydot``, ``w1sq`` and ``w2sq`` are computed from ``y``, ``vy``
    and the raw commands as ``run`` computes them; about a share ``broken``
    of their rows is then overwritten. ``specials`` are scattered through
    every float column, and the cone edges take ``n_edges`` values.
    """
    rng = np.random.default_rng(seed)
    pool = np.array(specials or [0.0])

    def column(scale=1.0):
        values = rng.normal(scale=scale, size=n) * 10.0 ** rng.integers(-12, 12, size=n)
        special = rng.random(n) < 0.2
        values[special] = rng.choice(pool, size=special.sum())
        return values

    def break_rows(values):
        rows = rng.random(n) < broken
        swaps = (column(), -values, np.nextafter(values, math.inf), np.full(n, -0.0))
        values = values.copy()
        values[rows] = np.choose(rng.integers(0, len(swaps), size=n), swaps)[rows]
        return values

    cols = {name: column() for name in TRAJECTORY_COLUMNS}
    with np.errstate(invalid="ignore", over="ignore"):
        cols["ey"] = break_rows(0.0 - cols["y"])
        cols["eydot"] = break_rows(0.0 - cols["vy"])
        for raw, clamped in (("w1sq_raw", "w1sq"), ("w2sq_raw", "w2sq")):
            cols[clamped] = break_rows(np.where(cols[raw] >= 0.0, cols[raw], 0.0))
    edges = np.concatenate([pool, rng.normal(size=n_edges)])[:n_edges]
    cols["angle_lo"] = rng.choice(edges, size=n)
    cols["angle_hi"] = rng.choice(edges[::-1], size=n)
    cols["p"] = rng.integers(0, 2, size=n)
    cols["q"] = rng.integers(0, 2, size=n)
    cols.update(lam=column(), ax_d=column(), ay_d=column())
    return Trajectory(**cols)


class TestCopiedColumns:
    """The columns printed from another column's text match the printed values."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from(ROW_COUNTS + [7]),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(
            st.sampled_from(AWKWARD[:6] + [-5e-324, 2.2250738585072009e-308, 1.5, -1.5])
            | st.floats(allow_subnormal=True),
            max_size=6,
        ),
        broken=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
        n_edges=st.integers(1, 5),
    )
    def test_same_bytes_as_every_value_printed(
        self, tmp_path_factory, n, seed, specials, broken, n_edges
    ):
        traj = copying_trajectory(n, seed, specials, broken, n_edges)
        assert_every_value_printed(traj, tmp_path_factory.mktemp("copies"))

    def test_nan_payloads_and_signs(self, tmp_path):
        # NaNs of either sign and any payload print as 'nan', copied or not
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001], np.uint64)
        y = np.concatenate([nans.view(np.float64), [-0.0, 0.0, -math.inf, 5e-324]])
        traj = copying_trajectory(len(y), 0, [], 0.0, 3)
        traj = dataclasses.replace(traj, y=y, ey=np.concatenate([y[:3], 0.0 - y[3:]]))
        traj = dataclasses.replace(traj, vy=-y, eydot=y, w1sq_raw=y, w1sq=np.abs(y))
        assert_every_value_printed(traj, tmp_path)

    def test_integer_columns_in_copied_places(self, tmp_path):
        # a hand-built trajectory may hold integers where run() logs floats
        traj = copying_trajectory(5, 1, [], 0.0, 2)
        ints = np.array([3, -3, 0, 7, -1])
        traj = dataclasses.replace(traj, y=ints, ey=-ints, angle_lo=ints, w1sq_raw=ints, w1sq=ints)
        assert_every_value_printed(traj, tmp_path)


# bit patterns every repeats pool starts from: signed zeros, NaNs of either
# sign with payloads, signed infinities and the smallest subnormals
POOL_SPECIALS = np.array(
    [0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000]
    + [0x7FF800000000ABCD, 0xFFF8000000000001, 0x7FF0000000000000, 0xFFF0000000000000]
    + [0x0000000000000001, 0x8000000000000001],
    dtype=np.uint64,
).view(np.float64)


def repeats_column(rng, n):
    """``n`` values cycling through a pool of k distinct doubles.

    With chunks of ``size = min(n, _CHUNK_ROWS)`` rows, k is one of 1, 2,
    size // 2, size // 2 + 1 and size, so a chunk holds k distinct values,
    on either side of the writer's one-half cut-off.
    """
    size = min(n, _CHUNK_ROWS)
    k = max(1, int(rng.choice([1, 2, size // 2, size // 2 + 1, size])))
    others = rng.normal(size=k) * 10.0 ** rng.integers(-300, 300, size=k)
    pool = np.concatenate([rng.permutation(POOL_SPECIALS), others])
    _, first = np.unique(pool.view(np.uint64), return_index=True)
    pool = rng.permutation(pool[np.sort(first)][:k])
    return pool[(np.arange(n) + rng.integers(0, k)) % k]


class TestRepeatedValues:
    """Tables whose columns repeat a few doubles print as every value printed."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from(ROW_COUNTS), seed=st.integers(0, 2**32 - 1))
    def test_trajectory(self, tmp_path_factory, n, seed):
        rng = np.random.default_rng(seed)
        cols = {f.name: repeats_column(rng, n) for f in dataclasses.fields(Trajectory)}
        # copy sources of mixed sign whose magnitudes repeat
        cols["ey"] = 0.0 - cols["y"]
        cols["eydot"] = 0.0 - cols["vy"]
        cols["w1sq"] = np.where(cols["w1sq_raw"] >= 0.0, cols["w1sq_raw"], 0.0)
        cols["p"] = rng.integers(0, 2, size=n)
        cols["q"] = rng.integers(0, 2, size=n)
        traj = Trajectory(**cols)
        tmp_path = tmp_path_factory.mktemp("repeats")
        write_trajectory_csv(traj, tmp_path / "written.csv")
        oc.joined_trajectory_csv(traj, tmp_path / "joined.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from(ROW_COUNTS[1:]),
        seed=st.integers(0, 2**32 - 1),
        along_e=st.booleans(),
    )
    def test_grid(self, tmp_path_factory, n, seed, along_e):
        # n cells along e or along edot; the cells of the NaN values are not admissible
        rng = np.random.default_rng(seed)
        e, edot, values = (repeats_column(rng, n) for _ in range(3))
        e, edot = (e, edot[:1]) if along_e else (e[:1], edot)
        cells = np.flatnonzero(~np.isnan(values))
        grid = DeltaLGrid(e, edot, -1, cells, values[cells])
        tmp_path = tmp_path_factory.mktemp("repeats")
        write_grid_csv(grid, tmp_path / "written.csv")
        oc.joined_grid_csv(grid, tmp_path / "joined.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()


# signed zeros, NaN, signed infinities, the smallest subnormal, a larger
# subnormal and the largest double
EDGES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072e-309, 1.7976931348623157e308
]


class TestChunkBytes:
    """One chunk of edge values, in every kind of column, prints as ``fmt`` of every value."""

    def chunk(self):
        edges = np.array(EDGES)
        hows = [b"%.17g", b"%.17g", b"%.17g", Copy(2), b"%d"]
        columns = [
            np.concatenate([edges, -edges]),  # 16 distinct bit patterns: printed inline
            np.resize(edges[[0, 2, 4, 7]], 16),  # 4 distinct values: printed once each
            np.concatenate([edges, -edges[::-1]]),  # a Copy source ...
            np.concatenate([-edges[:4], edges[4:], edges[::-1]]),  # ... copied on some rows
            np.resize([0.0, -0.0, 1.0, -1.0, 1e16, 1.7976931348623157e308], 16),
        ]
        return hows, columns

    def test_same_bytes_as_fmt_of_every_value(self):
        hows, columns = self.chunk()
        assert 2 * len(np.unique(columns[0].view(np.uint64))) > 16 > 2 * 4
        assert 0 < (np.abs(columns[3]) == np.abs(columns[2])).sum() < 16
        rows = zip(*[c.tolist() for c in columns])
        expected = "".join(",".join(map(fmt, r[:4])) + ",%d\n" % r[4] for r in rows)
        assert _chunk_text(hows, columns) == expected.encode("ascii")

    def test_nan_in_an_integer_column_raises_as_str_formatting(self):
        hows, columns = self.chunk()
        columns[4][5] = math.nan
        with pytest.raises(ValueError) as expected:
            "%d" % math.nan
        with pytest.raises(ValueError) as got:
            _chunk_text(hows, columns)
        assert str(got.value) == str(expected.value)


class TestFailedWrite:
    def test_unencodable_text_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "a\ud800")
        assert only_file(tmp_path) == path
        assert path.read_text() == "old\n"

    def test_trajectory_failing_after_two_chunks(self, tmp_path, monkeypatch):
        # '%d' cannot print a NaN p, which sits in the third chunk of rows
        traj = awkward_trajectory(3 * _CHUNK_ROWS)
        bad_p = traj.p.astype(float)
        bad_p[2 * _CHUNK_ROWS + 5] = math.nan
        traj = dataclasses.replace(traj, p=bad_p)
        fields = dataclasses.fields(Trajectory)
        head = Trajectory(**{f.name: getattr(traj, f.name)[: 2 * _CHUNK_ROWS] for f in fields})
        oc.joined_trajectory_csv(head, tmp_path / "head.csv")
        written_before_failure = (tmp_path / "head.csv").stat().st_size
        (tmp_path / "head.csv").unlink()

        path = tmp_path / "trajectory.csv"
        path.write_text("old\n")
        unlinked = []
        real_unlink = Path.unlink

        def unlink(self, missing_ok=False):
            unlinked.append((self.name, self.stat().st_size))
            real_unlink(self, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", unlink)
        with pytest.raises(ValueError, match="NaN"):
            write_trajectory_csv(traj, path)
        # the header and two whole chunks reached the temp file before it was removed
        assert [size for name, size in unlinked if name.startswith(".trajectory.csv.")] == [
            written_before_failure
        ]
        assert only_file(tmp_path) == path
        assert path.read_text() == "old\n"


def assert_no_child():
    # every child of this process has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pid of the child of each ``os.fork`` call made since the test started."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


needs_a_child = pytest.mark.skipif(
    not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="the writer forks no child without os.fork and two allowed CPUs",
)


def bad_p_trajectory(n, row):
    # '%d' cannot print the NaN p at ``row``
    traj = awkward_trajectory(n)
    bad_p = traj.p.astype(float)
    bad_p[row] = math.nan
    return dataclasses.replace(traj, p=bad_p)


def assert_failed_write_left_nothing(tmp_path, path):
    # no temp file, the earlier file untouched and no child left
    assert only_file(tmp_path) == path
    assert path.read_text() == "old\n"
    assert_no_child()


@needs_a_child
class TestSplitWrite:
    """A table of two chunks or more is split with one forked child, with the same bytes.

    A failed write is checked while its traceback (``failed``) still holds
    the writer's frames, as a caller handling the error would: a child
    reaped only when those frames are freed is still there.
    """

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize(
        "make, write, joined",
        [
            (awkward_trajectory, write_trajectory_csv, oc.joined_trajectory_csv),
            (awkward_grid, write_grid_csv, oc.joined_grid_csv),
        ],
        ids=["trajectory", "grid"],
    )
    def test_splits_two_chunks_or_more(self, tmp_path, forks, n, make, write, joined):
        table = make(n)
        write(table, tmp_path / "written.csv")
        joined(table, tmp_path / "joined.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()
        assert len(forks) == (n > _CHUNK_ROWS)
        assert_no_child()

    def test_any_meeting_chunk_gives_the_same_bytes(self, tmp_path, forks, monkeypatch):
        # each process pauses for 0-2 ms before each chunk, the pause read off
        # its own clock, so the two meet at different chunks from one write to
        # the next; a chunk written twice or lost would change the bytes
        real_chunk_text = output._chunk_text

        def chunk_text(hows, part):
            time.sleep(time.perf_counter_ns() % 2000 * 1e-6)
            return real_chunk_text(hows, part)

        grid = awkward_grid(8 * _CHUNK_ROWS + 7)
        oc.joined_grid_csv(grid, tmp_path / "joined.csv")
        joined = (tmp_path / "joined.csv").read_bytes()
        monkeypatch.setattr(output, "_chunk_text", chunk_text)
        for _ in range(30):
            write_grid_csv(grid, tmp_path / "written.csv")
            assert (tmp_path / "written.csv").read_bytes() == joined
        assert len(forks) == 30
        assert_no_child()

    def test_a_chunk_both_format_is_taken_once(self, tmp_path, forks, monkeypatch):
        # the child pauses for 0.3 s between reading _STOP and storing
        # _STARTED for chunk 0, so this process claims all four chunks while
        # the child formats chunk 0 too; the file must take that chunk once
        real_frombuffer, real_chunk_text = np.frombuffer, output._chunk_text
        parent, claimed = os.getpid(), []

        class SlowStart(np.ndarray):
            def __setitem__(self, key, value):
                if os.getpid() != parent and key == output._STARTED and value == 1:
                    time.sleep(0.3)
                super().__setitem__(key, value)

        def chunk_text(hows, part):
            if os.getpid() == parent:
                claimed.append(1)
            return real_chunk_text(hows, part)

        def frombuffer(*args, **kwargs):
            return real_frombuffer(*args, **kwargs).view(SlowStart)

        monkeypatch.setattr(output.np, "frombuffer", frombuffer)
        monkeypatch.setattr(output, "_chunk_text", chunk_text)
        grid = awkward_grid(4 * _CHUNK_ROWS)
        write_grid_csv(grid, tmp_path / "written.csv")
        oc.joined_grid_csv(grid, tmp_path / "joined.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()
        assert len(claimed) == 4
        assert len(forks) == 1
        assert_no_child()

    def test_no_split_beside_a_second_thread(self, tmp_path, forks):
        parked = threading.Event()
        thread = threading.Thread(target=parked.wait)
        thread.start()
        try:
            traj = awkward_trajectory(2 * _CHUNK_ROWS + 3)
            write_trajectory_csv(traj, tmp_path / "written.csv")
        finally:
            parked.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        oc.joined_trajectory_csv(traj, tmp_path / "joined.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()
        assert forks == []

    def test_no_split_on_one_cpu(self, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        traj = awkward_trajectory(2 * _CHUNK_ROWS + 3)
        write_trajectory_csv(traj, tmp_path / "written.csv")
        oc.joined_trajectory_csv(traj, tmp_path / "joined.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()
        assert forks == []

    def test_failure_in_the_parents_half(self, tmp_path, forks, monkeypatch):
        # the child stalls for 20 s in its first chunk while this process
        # fails on the last one: the failed write kills the child rather
        # than waiting for it
        real_texts = output._texts
        parent, stalled = os.getpid(), []

        def texts(*args, **kwargs):
            if os.getpid() != parent and not stalled:
                stalled.append(True)
                time.sleep(20)
            return real_texts(*args, **kwargs)

        monkeypatch.setattr(output, "_texts", texts)
        path = tmp_path / "trajectory.csv"
        path.write_text("old\n")
        start = time.monotonic()
        with pytest.raises(ValueError, match="NaN") as failed:
            write_trajectory_csv(bad_p_trajectory(3 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 5), path)
        assert time.monotonic() - start < 10
        assert len(forks) == 1
        assert_failed_write_left_nothing(tmp_path, path)

    def test_failure_in_the_childs_half(self, tmp_path, forks):
        # the bad value is in the first chunk, which the child starts with
        path = tmp_path / "trajectory.csv"
        path.write_text("old\n")
        with pytest.raises(ValueError, match="NaN") as failed:
            write_trajectory_csv(bad_p_trajectory(3 * _CHUNK_ROWS, 5), path)
        assert len(forks) == 1
        assert_failed_write_left_nothing(tmp_path, path)

    def test_writer_closed_early(self, tmp_path, forks, monkeypatch):
        # the file takes the header, then the disk is full for every later
        # write of this process: its own chunks, and the one-process rewrite
        real_write = output._write_all
        parent, writes = os.getpid(), []

        def fill_disk(fd, data):
            if os.getpid() == parent:
                writes.append(len(data))
                if len(writes) > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
            real_write(fd, data)

        monkeypatch.setattr(output, "_write_all", fill_disk)
        path = tmp_path / "trajectory.csv"
        path.write_text("old\n")
        with pytest.raises(OSError, match="No space") as failed:
            write_trajectory_csv(awkward_trajectory(3 * _CHUNK_ROWS), path)
        assert len(forks) == 1
        assert_failed_write_left_nothing(tmp_path, path)

    def test_child_failing_before_sending_is_recovered(self, tmp_path, forks, monkeypatch):
        real_texts = output._texts
        parent = os.getpid()

        def texts(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError
            return real_texts(*args, **kwargs)

        monkeypatch.setattr(output, "_texts", texts)
        traj = awkward_trajectory(4 * _CHUNK_ROWS + 3)
        write_trajectory_csv(traj, tmp_path / "written.csv")
        oc.joined_trajectory_csv(traj, tmp_path / "joined.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()
        assert len(forks) == 1
        assert_no_child()

    def test_child_failing_after_writing_is_recovered(self, tmp_path, forks, monkeypatch):
        # the child writes its first chunk and fails on its second; this
        # process then formats every chunk itself
        real_chunk_text = output._chunk_text
        parent, chunks = os.getpid(), []

        def chunk_text(hows, part):
            if os.getpid() != parent:
                chunks.append(1)
                if len(chunks) == 2:
                    raise MemoryError
            return real_chunk_text(hows, part)

        monkeypatch.setattr(output, "_chunk_text", chunk_text)
        traj = awkward_trajectory(6 * _CHUNK_ROWS + 5)
        write_trajectory_csv(traj, tmp_path / "written.csv")
        oc.joined_trajectory_csv(traj, tmp_path / "joined.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()
        assert len(forks) == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["joined.csv", "written.csv"]
        assert_no_child()


# lateral start offsets (y0, vy0) of the kind the benchmark draws
START_OFFSETS = [(0.0, 0.0), (0.01, 0.0), (0.02, -0.01)]
# diverges in its third half period, after one whole CSV chunk: 2238 rows
DIVERGING_IN_THIRD_HALF = SimConfig(
    params=ModelParams(ky2=2.4e7),
    gait=preset("small"),
    duration=6.0,
    initial_state=VehicleState(0.0, 0.5, 0.0, 0.0),
)


def streamed_run(config, path, logged=None):
    """``run(config)``, its CSV written to ``path`` as it runs; ``logged`` wraps the writer's."""
    with streamed_trajectory_csv(path, config) as (table, writer_logged):
        return run(config, table, logged(writer_logged) if logged else writer_logged)


def assert_printed(traj, path, tmp_path):
    oc.joined_trajectory_csv(traj, tmp_path / "printed.csv")
    assert path.read_bytes() == (tmp_path / "printed.csv").read_bytes()


@needs_a_child
class TestStreamedCsv:
    """The CSV formatted while ``run`` integrates has the bytes of every value printed."""

    @pytest.mark.parametrize("offset", START_OFFSETS, ids=str)
    @pytest.mark.parametrize("name", ["large", "small"])
    def test_same_bytes_as_every_value_printed(self, tmp_path, forks, name, offset):
        start = VehicleState(0.0, *offset, 0.0)
        cfg = SimConfig(gait=preset(name), duration=10.0, initial_state=start)
        traj = streamed_run(cfg, tmp_path / "trajectory.csv")
        assert len(forks) == 1
        plain = run(cfg)
        assert_printed(plain, tmp_path / "trajectory.csv", tmp_path)
        for f in dataclasses.fields(Trajectory):
            assert getattr(traj, f.name).tobytes() == getattr(plain, f.name).tobytes(), f.name
        assert_no_child()

    def test_divergence_in_the_third_half_period(self, tmp_path, forks):
        cfg = DIVERGING_IN_THIRD_HALF
        path = tmp_path / "trajectory.csv"
        with streamed_trajectory_csv(path, cfg) as (table, logged):
            with pytest.raises(DivergenceError) as streamed:
                run(cfg, table, logged)
        with pytest.raises(DivergenceError) as plain:
            run(cfg)
        partial = plain.value.trajectory
        m = cfg.steps_per_half
        assert 2 * m < len(partial) < 3 * m and len(partial) > _CHUNK_ROWS
        assert len(streamed.value.trajectory) == len(partial)
        assert len(forks) == 1
        write_trajectory_csv(partial, tmp_path / "whole.csv")
        assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert_printed(partial, path, tmp_path)
        assert_no_child()

    @pytest.mark.parametrize("case", ["diverging run", "grid of one chunk and a row"])
    def test_the_child_formats_whole_chunks_only(self, tmp_path, forks, monkeypatch, case):
        # this process starts its share 0.3 s after the last row is logged,
        # so the child has formatted every chunk it was sent; the short last
        # chunk (190 rows of the run's 2238, one of the grid's 2049) is this
        # process's
        real_chunk_text, real_finish = output._chunk_text, output._Child.finish
        parent, child_rows = os.getpid(), tmp_path / "child_rows"

        def chunk_text(hows, part):
            if os.getpid() != parent:
                with open(child_rows, "a") as fh:
                    fh.write(f"{len(part[0])}\n")
            return real_chunk_text(hows, part)

        def finish(self, *args):
            time.sleep(0.3)
            return real_finish(self, *args)

        monkeypatch.setattr(output, "_chunk_text", chunk_text)
        monkeypatch.setattr(output._Child, "finish", finish)
        path = tmp_path / "written.csv"
        if case == "diverging run":
            cfg = DIVERGING_IN_THIRD_HALF
            with streamed_trajectory_csv(path, cfg) as (table, logged):
                with pytest.raises(DivergenceError):
                    run(cfg, table, logged)
            with pytest.raises(DivergenceError) as plain:
                run(cfg)
            assert len(plain.value.trajectory) == 2238
            oc.joined_trajectory_csv(plain.value.trajectory, tmp_path / "joined.csv")
        else:
            grid = awkward_grid(_CHUNK_ROWS + 1)
            write_grid_csv(grid, path)
            oc.joined_grid_csv(grid, tmp_path / "joined.csv")
        assert path.read_bytes() == (tmp_path / "joined.csv").read_bytes()
        assert child_rows.read_text().split() == [str(_CHUNK_ROWS)]
        assert len(forks) == 1
        assert_no_child()

    def test_child_failing_in_mid_run(self, tmp_path, forks, monkeypatch):
        # the child fails on its second chunk while the run goes on; the run
        # ends only once the child has exited, and this process then formats
        # every chunk itself
        real_chunk_text = output._chunk_text
        parent, chunks, exits = os.getpid(), [], []

        def chunk_text(hows, part):
            if os.getpid() != parent:
                chunks.append(1)
                if len(chunks) == 2:
                    raise MemoryError
            return real_chunk_text(hows, part)

        def wait_for_the_child(logged):
            def wrapped(rows):
                logged(rows)
                if rows == cfg.n_steps + 1:
                    # wait for its exit, but leave it for the writer to reap
                    deadline = time.monotonic() + 30
                    flags = os.WEXITED | os.WNOWAIT | os.WNOHANG
                    while (info := os.waitid(os.P_PID, forks[0], flags)) is None:
                        assert time.monotonic() < deadline, "the child did not exit"
                        time.sleep(1e-3)
                    exits.append(info)

            return wrapped

        monkeypatch.setattr(output, "_chunk_text", chunk_text)
        cfg = SimConfig(gait=preset("large"), duration=10.0)
        traj = streamed_run(cfg, tmp_path / "trajectory.csv", wait_for_the_child)
        assert [e.si_status for e in exits] == [1]
        assert_printed(traj, tmp_path / "trajectory.csv", tmp_path)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["printed.csv", "trajectory.csv"]
        assert_no_child()

    def test_exception_in_run_leaves_the_old_csv(self, tmp_path, forks, monkeypatch):
        # a failure inside run(), not a divergence, after three half periods
        real_integrate = simulator._integrate
        calls = []

        def integrate(*args):
            calls.append(1)
            if len(calls) == 4:
                raise RuntimeError("integrator failed")
            return real_integrate(*args)

        monkeypatch.setattr(simulator, "_integrate", integrate)
        out = tmp_path / "run"
        out.mkdir()
        (out / "trajectory.csv").write_text("old\n")
        argv = ["simulate", "--duration", "10", "--out-dir", str(out)]
        with pytest.raises(RuntimeError, match="integrator failed"):
            cli.main(argv)
        assert len(forks) == 1
        assert sorted(f.name for f in out.iterdir()) == ["manifest.ini", "trajectory.csv"]
        assert (out / "trajectory.csv").read_text() == "old\n"
        assert_no_child()


class TestStreamedCsvInOneProcess:
    """Where no child may be forked, the streamed CSV is formatted after the run."""

    def test_no_fork_on_one_cpu(self, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = SimConfig(gait=preset("large"), duration=6.0)
        traj = streamed_run(cfg, tmp_path / "trajectory.csv")
        assert_printed(traj, tmp_path / "trajectory.csv", tmp_path)
        assert forks == []

    def test_no_fork_beside_a_parked_thread(self, tmp_path, forks):
        parked = threading.Event()
        thread = threading.Thread(target=parked.wait)
        thread.start()
        try:
            cfg = SimConfig(gait=preset("large"), duration=6.0)
            traj = streamed_run(cfg, tmp_path / "trajectory.csv")
        finally:
            parked.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert_printed(traj, tmp_path / "trajectory.csv", tmp_path)
        assert forks == []
