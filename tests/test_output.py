import math

import numpy as np

import oracles as oc
from tiltsim import ModelParams, delta_l_grid
from tiltsim.analysis import DeltaLGrid
from tiltsim.output import write_grid_csv


def assert_same_bytes(grid, tmp_path):
    write_grid_csv(grid, tmp_path / "grid.csv")
    oc.write_grid_csv(grid, tmp_path / "oracle.csv")
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


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
