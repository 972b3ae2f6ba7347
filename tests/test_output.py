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
from tiltsim import ModelParams, delta_l_grid, output
from tiltsim.analysis import DeltaLGrid
from tiltsim.gait import preset
from tiltsim.output import (
    _CHUNK_ROWS,
    atomic_write_text,
    write_grid_csv,
    write_trajectory_csv,
)
from tiltsim.simulator import TRAJECTORY_COLUMNS, SimConfig, Trajectory, run

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
    # n rows: n e-values by one edot-value; NaN values sit on masked cells
    values = np.resize(AWKWARD, n)
    e_values = np.roll(values, 3)
    grid_values = np.roll(values, 1)[:, None]
    return DeltaLGrid(e_values, np.array([-0.0]), grid_values, ~np.isnan(grid_values), -1)


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
        values = np.array([[math.inf, -0.0, 5e-324], [1e16, 0.1, -1.0]])
        mask = np.array([[True, True, True], [True, True, False]])
        grid = DeltaLGrid(np.array([-0.0, 1.0]), np.array([0.1, 0.2, 0.3]), values, mask, +1)
        assert_same_bytes(grid, tmp_path)


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
        # n cells along e or along edot; NaN values sit on masked cells
        rng = np.random.default_rng(seed)
        e, edot, values = (repeats_column(rng, n) for _ in range(3))
        e, edot = (e, edot[:1]) if along_e else (e[:1], edot)
        values = values.reshape(len(e), len(edot))
        grid = DeltaLGrid(e, edot, values, ~np.isnan(values), -1)
        tmp_path = tmp_path_factory.mktemp("repeats")
        write_grid_csv(grid, tmp_path / "written.csv")
        oc.joined_grid_csv(grid, tmp_path / "joined.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()


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
    """One entry per ``os.fork`` call made since the test started."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


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


@pytest.mark.skipif(
    not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="the writer forks no child without os.fork and two allowed CPUs",
)
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
        # the child stalls for 20 s before formatting: the failed write kills
        # it rather than waiting for it
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
            write_trajectory_csv(bad_p_trajectory(3 * _CHUNK_ROWS, 5), path)
        assert time.monotonic() - start < 10
        assert len(forks) == 1
        assert_failed_write_left_nothing(tmp_path, path)

    def test_failure_in_the_childs_half(self, tmp_path, forks):
        path = tmp_path / "trajectory.csv"
        path.write_text("old\n")
        with pytest.raises(ValueError, match="NaN") as failed:
            write_trajectory_csv(bad_p_trajectory(3 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 5), path)
        assert len(forks) == 1
        assert_failed_write_left_nothing(tmp_path, path)

    def test_writer_closed_early(self, tmp_path, forks, monkeypatch):
        # the file takes the header and one chunk, then the disk is full
        real_write = output.atomic_write_chunks

        def fill_disk(path, chunks):
            def texts():
                for i, text in enumerate(chunks):
                    if i == 2:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    yield text

            real_write(path, texts())

        monkeypatch.setattr(output, "atomic_write_chunks", fill_disk)
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

    def test_child_failing_after_sending_raises(self, tmp_path, forks, monkeypatch):
        # the child's last chunk, of 5 rows, cannot be sent as ASCII: the
        # child has sent its first chunk by then
        real_texts = output._texts
        parent = os.getpid()

        def texts(values, repeats_only=False):
            printed = real_texts(values, repeats_only)
            if os.getpid() != parent and len(values) == 5 and printed is not None:
                printed = printed + "\u00e9"
            return printed

        monkeypatch.setattr(output, "_texts", texts)
        path = tmp_path / "trajectory.csv"
        path.write_text("old\n")
        with pytest.raises(OSError, match="after sending part of its text") as failed:
            write_trajectory_csv(awkward_trajectory(3 * _CHUNK_ROWS + 5), path)
        assert len(forks) == 1
        assert_failed_write_left_nothing(tmp_path, path)
