import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
from tiltsim import ModelParams, delta_l_grid
from tiltsim.analysis import DeltaLGrid
from tiltsim.gait import preset
from tiltsim.output import (
    _CHUNK_ROWS,
    atomic_write_text,
    write_grid_csv,
    write_trajectory_csv,
)
from tiltsim.simulator import TRAJECTORY_COLUMNS, SimConfig, Trajectory, run

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
        # a whole-text writer holds the text twice, and the stacked table, at once
        traj = run(SimConfig(gait=preset("large"), duration=20.0))
        assert len(traj) == 20001
        path = tmp_path / "trajectory.csv"
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size


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
