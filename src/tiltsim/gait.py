"""Square-wave yaw schedule and the straight-line tracking reference."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GaitSchedule",
    "ReferenceSample",
    "PRESETS",
    "preset",
    "reference_at",
]


@dataclass(frozen=True)
class GaitSchedule:
    """Periodic left-right yaw swing.

    The yaw holds ``phase_sign * amplitude`` on the first half of every
    period and the negated value on the second half. There is no smoothing:
    the jump happens exactly at multiples of half the period, with the new
    value applying from the switching instant on (closed-left intervals).
    """

    amplitude: float
    period: float = 2.0
    phase_sign: int = -1

    def __post_init__(self) -> None:
        if not (0.0 < self.amplitude < math.pi / 2):
            raise ValueError(f"gait amplitude must lie in (0, pi/2), got {self.amplitude}")
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError(f"gait period must be positive, got {self.period}")
        if self.phase_sign not in (-1, 1):
            raise ValueError(f"phase_sign must be -1 or +1, got {self.phase_sign}")

    @property
    def half_period(self) -> float:
        return self.period / 2.0


PRESETS = {
    "small": GaitSchedule(amplitude=math.pi / 8),
    "large": GaitSchedule(amplitude=math.pi / 3),
}


def preset(name: str) -> GaitSchedule:
    """Look up a named gait preset ("small" or "large")."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown gait preset {name!r}, available: {sorted(PRESETS)}"
        ) from None


@dataclass(frozen=True)
class ReferenceSample:
    """Reference position, velocity, and acceleration at one instant."""

    xr: float
    yr: float
    vxr: float
    vyr: float
    axr: float
    ayr: float


def reference_at(t: float) -> ReferenceSample:
    """Straight-line reference with unit constant acceleration along x."""
    return ReferenceSample(xr=0.5 * t * t, yr=0.0, vxr=t, vyr=0.0, axr=1.0, ayr=0.0)
