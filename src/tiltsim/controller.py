"""Feedback-linearization PD controller with a zero lower bound on commands.

The controller inverts the plant to turn desired accelerations into squared
rotor speeds. Squared speeds cannot be negative, so the raw inversion output
is clamped at zero component-wise. Which components got clamped is recorded
as a diagonal 0/1 "switch matrix": applying it to the raw command reproduces
the clamped command exactly.

Every function takes floats or broadcasting numpy arrays (the yaw and the
parameters stay scalar), and an array call matches float calls bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import INV_SQRT3, _pd_output
from .gait import ReferenceSample
from .plant import DEFAULT_PARAMS, ModelParams, RotorCommand, VehicleState, _finite

__all__ = [
    "DesiredAccel",
    "RawCommand",
    "SwitchMatrix",
    "S00",
    "S01",
    "S10",
    "S11",
    "desired_accel",
    "raw_inversion",
    "clamp",
    "switch_matrix_of",
    "classify_region",
]


@dataclass(frozen=True)
class DesiredAccel:
    """Acceleration the PD law asks for, before inversion and clamping."""

    ax_d: float
    ay_d: float

    def __post_init__(self) -> None:
        if not _finite(self.ax_d, self.ay_d):
            raise ValueError(f"desired acceleration must be finite, got ({self.ax_d}, {self.ay_d})")


@dataclass(frozen=True)
class RawCommand:
    """Pre-clamp squared rotor speeds; components may be negative."""

    sq1: float
    sq2: float

    def __post_init__(self) -> None:
        if not _finite(self.sq1, self.sq2):
            raise ValueError(f"raw command must be finite, got ({self.sq1}, {self.sq2})")


@dataclass(frozen=True)
class SwitchMatrix:
    """Diagonal 0/1 matrix recording which rotor commands are active.

    p (q) is 1 when the first (second) raw command is strictly positive and
    0 otherwise, so a component that sits exactly on the zero bound counts
    as clamped; arrays of commands give 0/1 int arrays, which ``label``,
    ``matrix()`` and ``==`` reject: compare the ``p`` and ``q`` arrays instead.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if not all(np.all((v == 0) | (v == 1)) for v in (self.p, self.q)):
            raise ValueError(f"switch matrix entries must be 0 or 1, got ({self.p}, {self.q})")

    def _entries(self) -> tuple[int, int]:
        if np.ndim(self.p) or np.ndim(self.q):
            raise ValueError("label, matrix() and == need scalar switch matrix entries, got arrays")
        return self.p, self.q

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._entries() == other._entries()

    @property
    def label(self) -> str:
        return "S{}{}".format(*self._entries())

    def matrix(self) -> np.ndarray:
        p, q = self._entries()
        return np.array([[float(p), 0.0], [0.0, float(q)]])


S00 = SwitchMatrix(0, 0)
S01 = SwitchMatrix(0, 1)
S10 = SwitchMatrix(1, 0)
S11 = SwitchMatrix(1, 1)


def desired_accel(state: VehicleState, ref: ReferenceSample, params: ModelParams) -> DesiredAccel:
    """PD tracking law: reference acceleration plus gain-weighted errors."""
    ax = ref.axr + params.kx1 * (ref.vxr - state.vx) + params.kx2 * (ref.xr - state.x)
    ay = ref.ayr + params.ky1 * (ref.vyr - state.vy) + params.ky2 * (ref.yr - state.y)
    return DesiredAccel(ax, ay)


def raw_inversion(acc: DesiredAccel, lam: float, params: ModelParams) -> RawCommand:
    """Invert the plant: squared rotor speeds producing ``acc`` at yaw ``lam``.

    Computed as m * Jtheta^-1 * Jlam^-1 * acc. With (u, v) the rotated and
    tilt-scaled acceleration components, the commands are (m/K)*(u+v)/2 and
    (m/K)*(u-v)/2. ModelParams guarantees the tilt map is invertible.
    """
    c, s = math.cos(lam), math.sin(lam)
    # rotate the desired acceleration into the body frame
    bx = c * acc.ax_d + s * acc.ay_d
    by = -s * acc.ax_d + c * acc.ay_d
    u = bx / math.cos(params.theta)
    v = by / math.sin(params.theta)
    scale = 0.5 * params.m / params.k_thrust
    return RawCommand(scale * (u + v), scale * (u - v))


def clamp(raw: RawCommand) -> RotorCommand:
    """Apply the physical zero lower bound component-wise."""
    # max(sq, 0.0), which keeps a -0.0 as the simulator does (np.maximum does not)
    return RotorCommand(*(np.where(sq >= 0.0, sq, 0.0)[()] for sq in (raw.sq1, raw.sq2)))


def switch_matrix_of(raw: RawCommand) -> SwitchMatrix:
    """Saturation pattern of a raw command (exact zeros count as clamped)."""
    return SwitchMatrix((raw.sq1 > 0.0) * 1, (raw.sq2 > 0.0) * 1)


def classify_region(
    e_y: float,
    edot_y: float,
    lambda_sign: int,
    params: ModelParams = DEFAULT_PARAMS,
) -> SwitchMatrix:
    """Saturation pattern predicted from the lateral error alone.

    Valid only while the x channel tracks exactly (so the desired x
    acceleration is 1) and the yaw is at +/- pi/3. Under those conditions
    the active pattern depends only on the y-channel PD output: at yaw
    -pi/3 the second rotor clamps unless the PD output drops below
    -1/sqrt(3); at yaw +pi/3 the first rotor clamps unless it exceeds
    +1/sqrt(3). The always-exact pattern is ``switch_matrix_of``; agreement
    between the two is a property to test, not a dependency. A PD output on
    the threshold counts as clamped (S10 or S01).
    """
    if lambda_sign not in (-1, 1):
        raise ValueError(f"lambda_sign must be -1 or +1, got {lambda_sign}")
    if not _finite(e_y, edot_y):
        raise ValueError(f"lateral error must be finite, got ({e_y}, {edot_y})")
    g = _pd_output(e_y, edot_y, params)
    clamps = g >= -INV_SQRT3 if lambda_sign < 0 else g <= INV_SQRT3
    return SwitchMatrix(1 - (clamps & (lambda_sign > 0)), 1 - (clamps & (lambda_sign < 0)))
