"""Planar tilt-vehicle model: two fixed-tilt rotors on a yawing body."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "VehicleState",
    "RotorCommand",
    "DEFAULT_PARAMS",
    "rotation_matrix",
    "thrust_matrix",
    "thrust_map",
    "accelerate",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical constants and PD tracking gains.

    m        -- vehicle mass (kg). It cancels out of the closed-loop error
                dynamics, so it only rescales the raw rotor commands.
    theta    -- half-angle between the two rotor axes (rad). Must stay in
                (0, pi/2) so the thrust map is invertible.
    k_thrust -- thrust coefficient mapping (rad/s)^2 to N.
    kx1, kx2 -- x-channel PD gains (velocity term, position term).
    ky1, ky2 -- y-channel PD gains.
    """

    m: float = 1.0
    theta: float = math.pi / 6
    k_thrust: float = 1e-3
    kx1: float = 12.0
    kx2: float = 6.0
    ky1: float = 9.0
    ky2: float = 18.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise ValueError(f"mass must be positive, got {self.m}")
        if not (0.0 < self.theta < math.pi / 2):
            raise ValueError(
                "tilt half-angle must lie in (0, pi/2) so the thrust map is "
                f"invertible, got {self.theta}"
            )
        if not (math.isfinite(self.k_thrust) and self.k_thrust > 0.0):
            raise ValueError(f"thrust coefficient must be positive, got {self.k_thrust}")
        for name in ("kx1", "kx2", "ky1", "ky2"):
            gain = getattr(self, name)
            if not (math.isfinite(gain) and gain > 0.0):
                raise ValueError(f"gain {name} must be positive, got {gain}")


DEFAULT_PARAMS = ModelParams()


def _finite(*values) -> bool:
    """Whether every element of every float or array in ``values`` is finite."""
    return all(np.isfinite(v).all() for v in values)


@dataclass(frozen=True)
class VehicleState:
    """Planar position and velocity of the vehicle (floats, or arrays that broadcast)."""

    x: float
    y: float
    vx: float
    vy: float

    def __post_init__(self) -> None:
        if not _finite(self.x, self.y, self.vx, self.vy):
            raise ValueError(
                f"state components must be finite, got ({self.x}, {self.y}, {self.vx}, {self.vy})"
            )


@dataclass(frozen=True)
class RotorCommand:
    """Squared rotor speeds after the zero lower bound has been applied (floats or arrays)."""

    w1sq: float
    w2sq: float

    def __post_init__(self) -> None:
        if not _finite(self.w1sq, self.w2sq):
            raise ValueError(f"rotor command must be finite, got ({self.w1sq}, {self.w2sq})")
        if np.any(self.w1sq < 0.0) or np.any(self.w2sq < 0.0):
            raise ValueError(f"rotor command must be nonnegative, got ({self.w1sq}, {self.w2sq})")


def rotation_matrix(lam: float) -> np.ndarray:
    """Rotation of the body frame by the yaw angle ``lam`` (rad)."""
    c, s = math.cos(lam), math.sin(lam)
    return np.array([[c, -s], [s, c]])


def thrust_matrix(theta: float, k_thrust: float) -> np.ndarray:
    """Raw thrust map for an arbitrary tilt half-angle, unvalidated.

    Columns are the body-frame force directions of the two rotors, scaled by
    the thrust coefficient. Singular exactly at theta in {0, pi/2}.
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[k_thrust * c, k_thrust * c], [k_thrust * s, -k_thrust * s]])


def thrust_map(params: ModelParams) -> np.ndarray:
    """Body-frame map from squared rotor speeds to force (N)."""
    return thrust_matrix(params.theta, params.k_thrust)


def accelerate(cmd: RotorCommand, lam: float, params: ModelParams) -> tuple[float, float]:
    """World-frame acceleration produced by a clamped rotor command.

    Equals (1/m) * rotation_matrix(lam) @ thrust_map(params) @ [w1sq, w2sq],
    written out in scalars; the simulator's RK4 loop repeats these operations.
    """
    kc = params.k_thrust * math.cos(params.theta)
    ks = params.k_thrust * math.sin(params.theta)
    fx = kc * (cmd.w1sq + cmd.w2sq)
    fy = ks * (cmd.w1sq - cmd.w2sq)
    c, s = math.cos(lam), math.sin(lam)
    return (c * fx - s * fy) / params.m, (s * fx + c * fy) / params.m
