import math

import numpy as np
import pytest

from oracles import angle_in_cone, rotation_matrix, thrust_map, thrust_matrix
from tiltsim import (
    DEFAULT_PARAMS,
    ModelParams,
    VehicleState,
    accelerate,
    acceleration_angle,
    feasible_cone,
)

SQRT3 = math.sqrt(3.0)


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert p.m == 1.0
        assert p.theta == pytest.approx(math.pi / 6)
        assert p.k_thrust == 1e-3
        assert (p.kx1, p.kx2, p.ky1, p.ky2) == (12.0, 6.0, 9.0, 18.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0.0},
            {"m": -1.0},
            {"theta": 0.0},
            {"theta": math.pi / 2},
            {"k_thrust": 0.0},
            {"kx1": -1.0},
            {"ky2": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestStateAndCommand:
    def test_finite_required(self):
        with pytest.raises(ValueError):
            VehicleState(math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="rotor command must be finite"):
            accelerate(math.inf, 0.0, 0.0, DEFAULT_PARAMS)

    def test_command_nonnegative(self):
        with pytest.raises(ValueError, match="rotor command must be nonnegative"):
            accelerate(-1.0, 0.0, 0.0, DEFAULT_PARAMS)
        with pytest.raises(ValueError, match="rotor command must be nonnegative"):
            accelerate(np.array([1.0, -1.0]), np.zeros(2), 0.0, DEFAULT_PARAMS)


class TestRotationMatrix:
    def test_identity(self):
        np.testing.assert_allclose(rotation_matrix(0.0), np.eye(2), atol=1e-15)

    def test_exact_trig(self):
        expected = np.array([[0.5, -SQRT3 / 2], [SQRT3 / 2, 0.5]])
        np.testing.assert_allclose(rotation_matrix(math.pi / 3), expected, atol=1e-15)

    def test_inverse_is_transpose(self):
        r = rotation_matrix(math.pi / 3)
        np.testing.assert_allclose(rotation_matrix(-math.pi / 3), r.T, atol=1e-15)
        assert np.linalg.det(r) == pytest.approx(1.0)


class TestThrustMap:
    def test_default_values(self):
        expected = np.array(
            [[1e-3 * SQRT3 / 2, 1e-3 * SQRT3 / 2], [0.5e-3, -0.5e-3]]
        )
        np.testing.assert_allclose(thrust_map(DEFAULT_PARAMS), expected, rtol=1e-15)

    def test_degenerate_tilt(self):
        # straight-up tilt collapses the x row; raw helper, bypasses validation
        np.testing.assert_allclose(
            thrust_matrix(math.pi / 2, 1.0), np.array([[0.0, 0.0], [1.0, -1.0]]), atol=1e-15
        )

    @pytest.mark.parametrize("theta", [0.1, math.pi / 6, 1.0, 1.5])
    def test_determinant(self, theta):
        k = 0.7
        det = np.linalg.det(thrust_matrix(theta, k))
        assert det == pytest.approx(-k * k * math.sin(2 * theta))
        assert det != 0.0


class TestAccelerate:
    def test_symmetric_commands_cancel_laterally(self):
        p = DEFAULT_PARAMS
        ax, ay = accelerate(500.0, 500.0, 0.0, p)
        assert ay == pytest.approx(0.0, abs=1e-18)
        assert ax == pytest.approx(2 * p.k_thrust * 500.0 * math.cos(p.theta) / p.m)

    def test_zero_input(self):
        assert accelerate(0.0, 0.0, 1.234, DEFAULT_PARAMS) == (0.0, 0.0)

    def test_matrix_product_oracle(self):
        # independent oracle: explicit 2x2 matrix products
        p = DEFAULT_PARAMS
        lam = -math.pi / 3
        expected = (1.0 / p.m) * rotation_matrix(lam) @ thrust_map(p) @ np.array([1000.0, 0.0])
        ax, ay = accelerate(1000.0, 0.0, lam, p)
        np.testing.assert_allclose([ax, ay], expected, rtol=1e-14)
        # frozen exact-arithmetic values: (sqrt(3)/2, -1/2)
        assert ax == pytest.approx(SQRT3 / 2, abs=1e-15)
        assert ay == pytest.approx(-0.5, abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        p = ModelParams(m=2.5)
        for _ in range(50):
            c1 = rng.uniform(0, 1000, 2)
            c2 = rng.uniform(0, 1000, 2)
            a, b = rng.uniform(0, 3, 2)
            lam = rng.uniform(-math.pi, math.pi)
            mixed = accelerate(*(a * c1 + b * c2), lam, p)
            first = accelerate(*c1, lam, p)
            second = accelerate(*c2, lam, p)
            np.testing.assert_allclose(
                mixed, [a * f + b * s for f, s in zip(first, second)], rtol=1e-12
            )

    def test_norm_invariant_under_yaw(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            cmd = rng.uniform(0, 1000, 2)
            norms = {
                round(math.hypot(*accelerate(*cmd, lam, DEFAULT_PARAMS)), 12)
                for lam in rng.uniform(-math.pi, math.pi, 5)
            }
            assert len(norms) == 1

    def test_reachable_cone(self):
        # any nonnegative command lands between the two rotor directions
        rng = np.random.default_rng(9)
        for _ in range(200):
            lam = rng.uniform(-math.pi, math.pi)
            ax, ay = accelerate(*rng.uniform(0.0, 1000.0, 2), lam, DEFAULT_PARAMS)
            if ax == 0.0 and ay == 0.0:
                continue
            lo, hi = feasible_cone(lam, DEFAULT_PARAMS)
            assert angle_in_cone(acceleration_angle(ax, ay), lo, hi)
