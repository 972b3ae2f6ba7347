"""Simulation and stability-verification toolkit for a planar tilt vehicle.

The vehicle tracks a straight-line reference with a feedback-linearization
PD controller whose squared rotor commands clamp at zero. A small periodic
yaw swing never clamps and tracks exactly; a large swing clamps every half
period, and this package mechanizes the machinery that still proves the
tracking error bounded: saturation-pattern bookkeeping, closed-form region
dynamics, threshold hitting times, the half-period return map, Lyapunov
change grids, and the critical-level supremum bound.
"""

from .plant import DEFAULT_PARAMS, ModelParams, VehicleState, accelerate
from .gait import GaitSchedule, PRESETS, ReferenceSample, preset, reference_at
from .controller import clamp, classify_region, desired_accel, raw_inversion, switch_matrix_of
from .analysis import (
    DELTA_L_CAP,
    DeltaLGrid,
    INV_SQRT3,
    acceleration_angle,
    critical_lyapunov,
    delta_l_grid,
    feasible_cone,
    half_period_map,
    hitting_time,
    hitting_time_simulated,
    in_admissible_region,
    lyapunov,
    s11_flow,
    saturated_flow,
    verify_quadrant_capture,
)
from .simulator import (
    DivergenceError,
    SimConfig,
    TRAJECTORY_COLUMNS,
    Trajectory,
    run,
    step,
    verify_trajectory,
)
from .checks import run_lemma_checks
from .config import ConfigError, ExperimentConfig, SweepSpec, resolve_config, write_manifest

__all__ = [
    "DEFAULT_PARAMS",
    "ModelParams",
    "VehicleState",
    "accelerate",
    "GaitSchedule",
    "PRESETS",
    "ReferenceSample",
    "preset",
    "reference_at",
    "clamp",
    "classify_region",
    "desired_accel",
    "raw_inversion",
    "switch_matrix_of",
    "DELTA_L_CAP",
    "DeltaLGrid",
    "INV_SQRT3",
    "acceleration_angle",
    "critical_lyapunov",
    "delta_l_grid",
    "feasible_cone",
    "half_period_map",
    "hitting_time",
    "hitting_time_simulated",
    "in_admissible_region",
    "lyapunov",
    "s11_flow",
    "saturated_flow",
    "verify_quadrant_capture",
    "DivergenceError",
    "SimConfig",
    "TRAJECTORY_COLUMNS",
    "Trajectory",
    "run",
    "step",
    "verify_trajectory",
    "run_lemma_checks",
    "ConfigError",
    "ExperimentConfig",
    "SweepSpec",
    "resolve_config",
    "write_manifest",
]

__version__ = "0.1.0"
