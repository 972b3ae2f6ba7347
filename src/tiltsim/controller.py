"""Feedback-linearization PD controller with a zero lower bound on commands.

The controller inverts the plant to turn desired accelerations into squared
rotor speeds. Squared speeds cannot be negative, so the raw inversion output
is clamped at zero component-wise. Which components got clamped is recorded
as the diagonal ``(p, q)`` of a 0/1 "switch matrix": applying it to the raw
command reproduces the clamped command exactly.

Every function takes and returns pairs of floats or of broadcasting numpy
arrays (the yaw and the parameters stay scalar), and an array call matches
float calls bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import INV_SQRT3, _pd_output
from .gait import ReferenceSample
from .plant import DEFAULT_PARAMS, ModelParams, VehicleState, _require_finite

__all__ = [
    "desired_accel",
    "raw_inversion",
    "clamp",
    "switch_matrix_of",
    "classify_region",
]


def desired_accel(state: VehicleState, ref: ReferenceSample, params: ModelParams):
    """PD tracking law ``(ax_d, ay_d)``: reference acceleration plus gain-weighted errors."""
    ax = ref.axr + params.kx1 * (ref.vxr - state.vx) + params.kx2 * (ref.xr - state.x)
    ay = ref.ayr + params.ky1 * (ref.vyr - state.vy) + params.ky2 * (ref.yr - state.y)
    _require_finite("desired acceleration", ax, ay)
    return ax, ay


def raw_inversion(ax_d, ay_d, lam: float, params: ModelParams):
    """Invert the plant: the squared rotor speeds ``(sq1, sq2)`` giving ``(ax_d, ay_d)``.

    Computed at yaw ``lam`` as m * Jtheta^-1 * Jlam^-1 * acc. With (u, v)
    the rotated and tilt-scaled acceleration components, the commands are
    (m/K)*(u+v)/2 and (m/K)*(u-v)/2, and may be negative. ModelParams
    guarantees the tilt map is invertible.
    """
    c, s = math.cos(lam), math.sin(lam)
    # rotate the desired acceleration into the body frame
    bx = c * ax_d + s * ay_d
    by = -s * ax_d + c * ay_d
    u = bx / math.cos(params.theta)
    v = by / math.sin(params.theta)
    scale = 0.5 * params.m / params.k_thrust
    sq1, sq2 = scale * (u + v), scale * (u - v)
    _require_finite("raw command", sq1, sq2)
    return sq1, sq2


def clamp(sq1, sq2):
    """Apply the physical zero lower bound component-wise: ``(w1sq, w2sq)``."""
    # max(sq, 0.0), which keeps a -0.0 as the simulator does (np.maximum does not)
    return tuple(np.where(sq >= 0.0, sq, 0.0)[()] for sq in (sq1, sq2))


def switch_matrix_of(sq1, sq2):
    """Saturation pattern ``(p, q)`` of a raw command: 1 where strictly positive, else 0.

    An exact zero counts as clamped. Arrays give 0/1 int arrays.
    """
    return (sq1 > 0.0) * 1, (sq2 > 0.0) * 1


def classify_region(
    e_y: float,
    edot_y: float,
    lambda_sign: int,
    params: ModelParams = DEFAULT_PARAMS,
):
    """Saturation pattern ``(p, q)`` predicted from the lateral error alone.

    Valid only while the x channel tracks exactly (so the desired x
    acceleration is 1) and the yaw is at +/- pi/3. Under those conditions
    the active pattern depends only on the y-channel PD output: at yaw
    -pi/3 the second rotor clamps unless the PD output drops below
    -1/sqrt(3); at yaw +pi/3 the first rotor clamps unless it exceeds
    +1/sqrt(3). The always-exact pattern is ``switch_matrix_of``; agreement
    between the two is a property to test, not a dependency. A PD output on
    the threshold counts as clamped: (1, 0) or (0, 1).
    """
    if lambda_sign not in (-1, 1):
        raise ValueError(f"lambda_sign must be -1 or +1, got {lambda_sign}")
    _require_finite("lateral error", e_y, edot_y)
    g = _pd_output(e_y, edot_y, params)
    clamps = g >= -INV_SQRT3 if lambda_sign < 0 else g <= INV_SQRT3
    return 1 - (clamps & (lambda_sign > 0)), 1 - (clamps & (lambda_sign < 0))
