"""Fixed-step closed-loop simulation of the full vehicle plus controller.

One run integrates the four-state vehicle with classical RK4 at a fixed
step, re-evaluating the controller inside every integrator stage. The step
must divide half the gait period exactly so that every yaw switch lands on
a grid point; within a step the yaw is held at its value at the step start.
Every sample logs the raw and clamped commands, the saturation pattern, the
tracking errors, the lateral Lyapunov value, and the desired-acceleration
angle against the feasible cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    DELTA_L_CAP,
    TWO_PI,
    ErrorState,
    critical_lyapunov,
    feasible_cone,
    in_admissible_region,
)
from .gait import GaitSchedule, PRESETS
from .plant import DEFAULT_PARAMS, ModelParams, VehicleState

__all__ = [
    "SimConfig",
    "Trajectory",
    "DivergenceError",
    "TRAJECTORY_COLUMNS",
    "step",
    "run",
    "VerificationReport",
    "verify_trajectory",
]

TRAJECTORY_COLUMNS = (
    "t",
    "x",
    "y",
    "vx",
    "vy",
    "ex",
    "ey",
    "exdot",
    "eydot",
    "w1sq_raw",
    "w2sq_raw",
    "w1sq",
    "w2sq",
    "p",
    "q",
    "lyap",
    "angle_des",
    "angle_lo",
    "angle_hi",
)

_GRID_TOL = 1e-9


def _grid_count(span: float, dt: float, what: str) -> int:
    n = round(span / dt)
    if n < 1 or abs(n * dt - span) > _GRID_TOL * max(1.0, span):
        raise ValueError(f"step {dt} must divide {what} ({span}) exactly")
    return n


@dataclass(frozen=True)
class SimConfig:
    """Everything one closed-loop run needs."""

    params: ModelParams = DEFAULT_PARAMS
    gait: GaitSchedule = PRESETS["small"]
    dt: float = 1e-3
    duration: float = 20.0
    initial_state: VehicleState = VehicleState(0.0, 0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (math.isfinite(self.duration) and self.duration >= self.dt):
            raise ValueError(f"duration must be at least one step, got {self.duration}")
        _grid_count(self.gait.half_period, self.dt, "half the gait period")
        _grid_count(self.duration, self.dt, "the duration")

    @property
    def steps_per_half(self) -> int:
        return _grid_count(self.gait.half_period, self.dt, "half the gait period")

    @property
    def n_steps(self) -> int:
        return _grid_count(self.duration, self.dt, "the duration")


class DivergenceError(RuntimeError):
    """The integration produced a non-finite state.

    Carries the time at which the step failed, the last finite state, the
    step index and yaw of the failing step, and (from ``run``) the partial
    trajectory up to that sample. ``step(state, t, config)`` from that state
    and time fails again.
    """

    def __init__(
        self,
        t: float,
        trajectory: "Trajectory | None" = None,
        state: VehicleState | None = None,
        step: int | None = None,
        yaw: float | None = None,
    ):
        super().__init__(f"state became non-finite during the step starting at t={t}")
        self.t = t
        self.trajectory = trajectory
        self.state = state
        self.step = step
        self.yaw = yaw


@dataclass
class Trajectory:
    """Uniformly sampled closed-loop log, one row per integrator grid point."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    exdot: np.ndarray
    eydot: np.ndarray
    w1sq_raw: np.ndarray
    w2sq_raw: np.ndarray
    w1sq: np.ndarray
    w2sq: np.ndarray
    p: np.ndarray
    q: np.ndarray
    lyap: np.ndarray
    angle_des: np.ndarray
    angle_lo: np.ndarray
    angle_hi: np.ndarray
    lam: np.ndarray
    ax_d: np.ndarray
    ay_d: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def clamped(self) -> np.ndarray:
        """Per-sample flag: clamping actually altered the command."""
        return (self.w1sq_raw < 0.0) | (self.w2sq_raw < 0.0)

    def column(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def to_csv(self, path) -> None:
        from .output import write_trajectory_csv

        write_trajectory_csv(self, path)


def _yaw(k: int, m: int, gait: GaitSchedule) -> float:
    """Yaw on grid step ``k``, ``m`` steps per half period: switches land on grid points."""
    return gait.phase_sign * gait.amplitude * (1.0 if (k // m) % 2 == 0 else -1.0)


def _kernel(params: ModelParams, lam: float):
    """Float-only ``f(t, x, y, vx, vy) -> (ax_d, ay_d, sq1, sq2, ax, ay)`` at yaw ``lam``.

    Same floating-point operations, in the same order, as the dataclass
    oracle ``reference_at -> desired_accel -> raw_inversion -> clamp ->
    accelerate``, and the same ``ValueError`` on a non-finite desired
    acceleration or raw command (which a non-finite state always causes).
    """
    kx1, kx2, ky1, ky2, mass = params.kx1, params.kx2, params.ky1, params.ky2, params.m
    cos_th, sin_th = math.cos(params.theta), math.sin(params.theta)
    scale = 0.5 * params.m / params.k_thrust
    kc, ks = params.k_thrust * cos_th, params.k_thrust * sin_th
    c, s = math.cos(lam), math.sin(lam)
    isfinite = math.isfinite

    def f(t, x, y, vx, vy):
        # reference_at(t): xr = t*t/2, vxr = t, axr = 1, zero laterally
        ax_d = 1.0 + kx1 * (t - vx) + kx2 * (0.5 * t * t - x)
        ay_d = 0.0 + ky1 * (0.0 - vy) + ky2 * (0.0 - y)
        u = (c * ax_d + s * ay_d) / cos_th
        v = (-s * ax_d + c * ay_d) / sin_th
        sq1 = scale * (u + v)
        sq2 = scale * (u - v)
        if not (isfinite(ax_d) and isfinite(ay_d) and isfinite(sq1) and isfinite(sq2)):
            raise ValueError(f"non-finite controller output at t={t}")
        # max(sq, 0.0), which keeps a -0.0
        w1 = sq1 if sq1 >= 0.0 else 0.0
        w2 = sq2 if sq2 >= 0.0 else 0.0
        fx = kc * (w1 + w2)
        fy = ks * (w1 - w2)
        return ax_d, ay_d, sq1, sq2, (c * fx - s * fy) / mass, (s * fx + c * fy) / mass

    return f


def _rk4(f, t, dt, x, y, vx, vy, a1x, a1y):
    """Finish an RK4 step of kernel ``f`` from stage 1; ``ValueError`` if non-finite."""
    h2 = 0.5 * dt
    v2x, v2y = vx + h2 * a1x, vy + h2 * a1y
    _, _, _, _, a2x, a2y = f(t + h2, x + h2 * vx, y + h2 * vy, v2x, v2y)
    v3x, v3y = vx + h2 * a2x, vy + h2 * a2y
    _, _, _, _, a3x, a3y = f(t + h2, x + h2 * v2x, y + h2 * v2y, v3x, v3y)
    v4x, v4y = vx + dt * a3x, vy + dt * a3y
    _, _, _, _, a4x, a4y = f(t + dt, x + dt * v3x, y + dt * v3y, v4x, v4y)
    nxt = (
        x + dt * (vx + 2.0 * v2x + 2.0 * v3x + v4x) / 6.0,
        y + dt * (vy + 2.0 * v2y + 2.0 * v3y + v4y) / 6.0,
        vx + dt * (a1x + 2.0 * a2x + 2.0 * a3x + a4x) / 6.0,
        vy + dt * (a1y + 2.0 * a2y + 2.0 * a3y + a4y) / 6.0,
    )
    if not all(map(math.isfinite, nxt)):
        raise ValueError(f"non-finite state after the step from t={t}")
    return nxt


def step(state: VehicleState, t: float, config: SimConfig) -> VehicleState:
    """One RK4 step of the closed loop from grid time ``t`` to ``t + dt``.

    The yaw is held at its value on grid step ``round(t / dt)``, as in ``run``.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    k = round(t / config.dt)
    lam = _yaw(k, config.steps_per_half, config.gait)
    f = _kernel(config.params, lam)
    try:
        _, _, _, _, ax, ay = f(t, state.x, state.y, state.vx, state.vy)
        return VehicleState(*_rk4(f, t, config.dt, state.x, state.y, state.vx, state.vy, ax, ay))
    except ValueError as exc:
        raise DivergenceError(t, state=state, step=k, yaw=lam) from exc


# floats that run() logs per row, in this order
_LOGGED = ("x", "y", "vx", "vy", "ax_d", "ay_d", "w1sq_raw", "w2sq_raw")


def run(config: SimConfig) -> Trajectory:
    """Integrate the closed loop over the configured horizon and log it.

    Deterministic for a fixed config; the yaw follows the step index (see
    ``_yaw``). Row k logs the state at step k and stage 1 of the step from
    it. On divergence the partial trajectory, up to the last fully logged
    row, is attached to the raised error.
    """
    params, gait, dt = config.params, config.gait, config.dt
    n, m = config.n_steps, config.steps_per_half
    s0 = config.initial_state
    x, y, vx, vy = s0.x, s0.y, s0.vx, s0.vy
    log: list[float] = []
    try:
        for k in range(n + 1):
            t = k * dt
            if k % m == 0:
                f = _kernel(params, _yaw(k, m, gait))
            ax_d, ay_d, sq1, sq2, ax, ay = f(t, x, y, vx, vy)
            log += (x, y, vx, vy, ax_d, ay_d, sq1, sq2)
            if k < n:
                x, y, vx, vy = _rk4(f, t, dt, x, y, vx, vy, ax, ay)
    except ValueError as exc:
        state = VehicleState(x, y, vx, vy)
        raise DivergenceError(t, _trajectory(log, config), state, k, _yaw(k, m, gait)) from exc
    return _trajectory(log, config)


def _trajectory(log: list[float], config: SimConfig) -> Trajectory:
    """Build every column of a run from its flat per-row log (see ``_LOGGED``)."""
    params, gait, m = config.params, config.gait, config.steps_per_half
    width = len(_LOGGED)
    cols = {name: np.array(log[i::width], dtype=np.float64) for i, name in enumerate(_LOGGED)}
    # math.atan2, not np.arctan2: the two differ in the last bit on some rows
    ax_d, ay_d = cols["ax_d"].tolist(), cols["ay_d"].tolist()
    angle = [math.atan2(ay, ax) % TWO_PI if ax or ay else math.nan for ax, ay in zip(ax_d, ay_d)]
    cols["angle_des"] = np.array(angle, dtype=np.float64)
    k = np.arange(len(log) // width)
    t = k * config.dt
    half = (k // m) % 2  # 0 in the first half of each period, 1 in the second
    yaws = (_yaw(0, m, gait), _yaw(m, m, gait))
    lo_of, hi_of = np.array([feasible_cone(lam, params) for lam in yaws]).T
    sq1, sq2 = cols["w1sq_raw"], cols["w2sq_raw"]
    # a diverging run can overflow here; its partial log is still wanted
    with np.errstate(over="ignore", invalid="ignore"):
        ey = 0.0 - cols["y"]
        eydot = 0.0 - cols["vy"]
        return Trajectory(
            t=t,
            ex=0.5 * t * t - cols["x"],
            ey=ey,
            exdot=t - cols["vx"],
            eydot=eydot,
            w1sq=np.where(sq1 >= 0.0, sq1, 0.0),
            w2sq=np.where(sq2 >= 0.0, sq2, 0.0),
            p=(sq1 > 0.0).astype(np.int64),
            q=(sq2 > 0.0).astype(np.int64),
            lyap=0.5 * eydot * eydot + 0.5 * params.ky2 * ey * ey,
            angle_lo=lo_of[half],
            angle_hi=hi_of[half],
            lam=np.array(yaws)[half],
            **cols,
        )


@dataclass
class TrajectoryCheck:
    name: str
    applicable: bool
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    """Per-property pass/fail record for one completed run."""

    checks: list[TrajectoryCheck]
    summary: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
        }


def verify_trajectory(
    traj: Trajectory,
    config: SimConfig,
    l_critical: float | None = None,
    grid_resolution: int = 200,
    lyap_tol: float = 1e-6,
) -> VerificationReport:
    """Check the logged run against the saturation-stability properties.

    (a) from the second half period on, the saturation pattern stays in the
        two-element set allowed by the yaw sign; (b) within each complete
        half period the Lyapunov log peaks at the endpoints; (c) past the
        first half-period boundary where the Lyapunov change turns
        nonnegative, the log stays below the critical level plus the 3/4
        cap; (d) the lateral error at half-period boundaries stays inside
        the union of the two capture regions. Checks (c) and (d) only apply
        to runs where clamping actually occurred; an unsaturated run
        degenerates (a) to the all-active pattern and skips them.
    """
    checks: list[TrajectoryCheck] = []
    params = config.params
    m = config.steps_per_half
    size = len(traj)
    n_half = (size - 1) // m
    saturated_run = bool(traj.clamped.any())
    empty = size <= 1 or n_half < 1

    # (a) allowed saturation patterns per yaw sign, half periods >= 1
    if empty:
        checks.append(TrajectoryCheck("switch_restriction", False, True, {"note": "empty"}))
    else:
        start = m
        neg = traj.lam[start:] < 0.0
        p, q = traj.p[start:], traj.q[start:]
        # negative yaw allows S11/S10 (first rotor active), positive S11/S01
        bad = np.where(neg, p != 1, q != 1)
        n_bad = int(bad.sum())
        checks.append(
            TrajectoryCheck(
                "switch_restriction",
                True,
                n_bad == 0,
                {"n_violations": n_bad, "n_checked": int(bad.size)},
            )
        )

    # (b) Lyapunov local maxima at half-period boundaries
    if empty:
        checks.append(TrajectoryCheck("lyapunov_local_max", False, True, {"note": "empty"}))
    else:
        worst = 0.0
        for h in range(1, n_half):
            lo, hi = h * m, (h + 1) * m
            window = traj.lyap[lo : hi + 1]
            endpoint = max(traj.lyap[lo], traj.lyap[hi])
            worst = max(worst, float(window.max() - endpoint))
        checks.append(
            TrajectoryCheck(
                "lyapunov_local_max",
                True,
                worst <= lyap_tol,
                {"max_overshoot": worst, "tolerance": lyap_tol},
            )
        )

    # boundary-state bookkeeping shared by (c) and (d)
    boundary_states = []
    for h in range(1, n_half + 1):
        k = h * m
        if k < size:
            boundary_states.append((h, float(traj.ey[k]), float(traj.eydot[k])))

    settle_h = None
    if saturated_run and not empty:
        for h in range(1, n_half):
            l_now = traj.lyap[h * m]
            l_next = traj.lyap[(h + 1) * m]
            if l_next - l_now >= 0.0:
                settle_h = h
                break

    # (c) supremum bound past the settling boundary
    if not saturated_run or empty:
        checks.append(
            TrajectoryCheck("lyapunov_sup_bound", False, True, {"note": "no clamping occurred"})
        )
    else:
        if l_critical is None:
            l_critical = critical_lyapunov(
                resolution=grid_resolution, params=params, half_period=config.gait.half_period
            ).l_critical
        bound = l_critical + DELTA_L_CAP
        tail_from = (settle_h if settle_h is not None else 1) * m
        sup_tail = float(traj.lyap[tail_from:].max())
        checks.append(
            TrajectoryCheck(
                "lyapunov_sup_bound",
                True,
                sup_tail <= bound,
                {
                    "sup_tail": sup_tail,
                    "l_critical": l_critical,
                    "bound": bound,
                    "settling_half_period": settle_h,
                },
            )
        )

    # (d) boundary states inside the union of capture regions
    if not saturated_run or empty:
        checks.append(
            TrajectoryCheck("boundary_state_capture", False, True, {"note": "no clamping occurred"})
        )
    else:
        bad_bounds = [
            h
            for h, e, ed in boundary_states
            if not (
                in_admissible_region(ErrorState(e, ed), +1, params)
                or in_admissible_region(ErrorState(e, ed), -1, params)
            )
        ]
        checks.append(
            TrajectoryCheck(
                "boundary_state_capture",
                True,
                not bad_bounds,
                {"n_boundaries": len(boundary_states), "violating_half_periods": bad_bounds[:20]},
            )
        )

    summary = {
        "saturated_run": saturated_run,
        "n_samples": size,
        "n_clamped_samples": int(traj.clamped.sum()),
        "max_abs_ex": float(np.abs(traj.ex).max()) if size else None,
        "max_abs_ey": float(np.abs(traj.ey).max()) if size else None,
        "settling_half_period": settle_h,
        "l_critical": l_critical if saturated_run else None,
    }
    return VerificationReport(checks=checks, summary=summary)
