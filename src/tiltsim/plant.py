"""Planar tilt-vehicle model: two fixed-tilt rotors on a yawing body."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "VehicleState",
    "DEFAULT_PARAMS",
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


def _require_finite(what: str, *values) -> None:
    """Raise ``ValueError`` naming ``what`` unless every float or array element is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError(f"{what} must be finite, got ({', '.join(map(str, values))})")


@dataclass(frozen=True)
class VehicleState:
    """Planar position and velocity of the vehicle (floats, or arrays that broadcast)."""

    x: float
    y: float
    vx: float
    vy: float

    def __post_init__(self) -> None:
        _require_finite("state components", self.x, self.y, self.vx, self.vy)


def accelerate(w1sq, w2sq, lam: float, params: ModelParams) -> tuple[float, float]:
    """World-frame acceleration ``(ax, ay)`` produced by a clamped rotor command.

    Equals (1/m) * R(lam) @ T @ [w1sq, w2sq], written out in scalars, for the
    matrix oracles R = ``rotation_matrix`` and T = ``thrust_map`` of
    ``tests/oracles.py``; the simulator's RK4 loop repeats these operations.
    Raises ``ValueError`` on a non-finite or negative command. No command
    calls it: it stays for a benchmark span until ROADMAP item 1.
    """
    _require_finite("rotor command", w1sq, w2sq)
    if np.any(w1sq < 0.0) or np.any(w2sq < 0.0):
        raise ValueError(f"rotor command must be nonnegative, got ({w1sq}, {w2sq})")
    kc = params.k_thrust * math.cos(params.theta)
    ks = params.k_thrust * math.sin(params.theta)
    fx = kc * (w1sq + w2sq)
    fy = ks * (w1sq - w2sq)
    c, s = math.cos(lam), math.sin(lam)
    return (c * fx - s * fy) / params.m, (s * fx + c * fy) / params.m
