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

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .analysis import DELTA_L_CAP, TWO_PI, critical_lyapunov, feasible_cone
from .analysis import in_admissible_region, lyapunov
from .checks import NotApplicable, check
from .gait import GaitSchedule, PRESETS
from .plant import DEFAULT_PARAMS, ModelParams, VehicleState

__all__ = [
    "SimConfig",
    "Trajectory",
    "DivergenceError",
    "TRAJECTORY_COLUMNS",
    "step",
    "run",
    "verify_trajectory",
]

_GRID_TOL = 1e-9
_LYAP_TOL = 1e-6  # overshoot of the Lyapunov log over a half period's endpoints


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

    @functools.cached_property
    def cone_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The yaws of a period's two halves, and the feasible cone's (low, high) edges under each.

        Computed once per config, so a run built chunk by chunk evaluates the cone twice.
        """
        m = self.steps_per_half
        yaws = (_yaw(0, m, self.gait), _yaw(m, m, self.gait))
        lo_of, hi_of = np.array([feasible_cone(lam, self.params) for lam in yaws]).T
        return np.array(yaws), lo_of, hi_of


class DivergenceError(RuntimeError):
    """The integration produced a non-finite controller output or state.

    Carries what became non-finite (``cause``), the time at which the step
    failed, the last finite state, the step index and yaw of the failing
    step, and (from ``run``) the partial trajectory up to the last fully
    logged row. ``run`` and ``step`` raise it from the same loop, so
    ``step(state, t, config)`` from that state and time fails again.
    """

    def __init__(
        self,
        t: float,
        trajectory: "Trajectory | None" = None,
        state: VehicleState | None = None,
        step: int | None = None,
        yaw: float | None = None,
        cause: str = "state",
    ):
        super().__init__(f"{cause} became non-finite during the step starting at t={t}")
        self.t = t
        self.trajectory = trajectory
        self.state = state
        self.step = step
        self.yaw = yaw
        self.cause = cause


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


# the CSV columns: every logged field but the yaw and the desired acceleration
TRAJECTORY_COLUMNS = tuple(
    f.name for f in fields(Trajectory) if f.name not in ("lam", "ax_d", "ay_d")
)


def _yaw(k: int, m: int, gait: GaitSchedule) -> float:
    """Yaw on grid step ``k``, ``m`` steps per half period: switches land on grid points."""
    return gait.phase_sign * gait.amplitude * (1.0 if (k // m) % 2 == 0 else -1.0)


def _integrate(params, lam, dt, k, t, x, y, vx, vy, rows, n, log):
    """Log ``rows`` closed-loop rows from grid step ``k`` at time ``t``, yaw held at ``lam``.

    Each row appends its state and its RK4 stage 1 to ``log`` (see
    ``_LOGGED``); a row other than step ``n`` is then stepped to grid time
    ``(k + 1) * dt``. Returns the state after the last row. Each of the four
    stages repeats the controller chain ``reference_at -> desired_accel ->
    raw_inversion -> clamp -> accelerate`` operation for operation. Raises
    ``DivergenceError``, naming it as the cause, when a stage's desired
    acceleration or raw command, or the new state, is non-finite (a
    non-finite state always makes the controller output so, and a
    non-finite desired acceleration the raw command). Each stage tests the
    sum of its raw commands, and the new state the sum of its floats, term
    by term only where the sum is not finite, as finite terms can overflow.
    """
    kx1, kx2, ky1, ky2, mass = params.kx1, params.kx2, params.ky1, params.ky2, params.m
    cos_th, sin_th = math.cos(params.theta), math.sin(params.theta)
    scale = 0.5 * params.m / params.k_thrust
    kc, ks = params.k_thrust * cos_th, params.k_thrust * sin_th
    c, s = math.cos(lam), math.sin(lam)
    ns, h2 = -s, 0.5 * dt
    isfinite = math.isfinite
    for k in range(k, k + rows):
        # stage 1 at t; reference_at(t): xr = t*t/2, vxr = t, axr = 1, zero laterally
        ax_d = 1.0 + kx1 * (t - vx) + kx2 * (0.5 * t * t - x)
        ay_d = 0.0 + ky1 * (0.0 - vy) + ky2 * (0.0 - y)
        u = (c * ax_d + s * ay_d) / cos_th
        v = (ns * ax_d + c * ay_d) / sin_th
        sq1, sq2 = scale * (u + v), scale * (u - v)
        if not isfinite(sq1 + sq2) and not all(map(isfinite, (ax_d, ay_d, sq1, sq2))):
            stage = 1
            break
        log += (x, y, vx, vy, ax_d, ay_d, sq1, sq2)
        if k == n:
            return x, y, vx, vy
        # max(sq, 0.0), which keeps a -0.0
        w1, w2 = sq1 if sq1 >= 0.0 else 0.0, sq2 if sq2 >= 0.0 else 0.0
        fx, fy = kc * (w1 + w2), ks * (w1 - w2)
        a1x, a1y = (c * fx - s * fy) / mass, (s * fx + c * fy) / mass
        # stage 2 at t + dt/2
        th = t + h2
        xr = 0.5 * th * th
        v2x, v2y = vx + h2 * a1x, vy + h2 * a1y
        ax_d = 1.0 + kx1 * (th - v2x) + kx2 * (xr - (x + h2 * vx))
        ay_d = 0.0 + ky1 * (0.0 - v2y) + ky2 * (0.0 - (y + h2 * vy))
        u = (c * ax_d + s * ay_d) / cos_th
        v = (ns * ax_d + c * ay_d) / sin_th
        sq1, sq2 = scale * (u + v), scale * (u - v)
        if not isfinite(sq1 + sq2) and not all(map(isfinite, (ax_d, ay_d, sq1, sq2))):
            stage = 2
            break
        w1, w2 = sq1 if sq1 >= 0.0 else 0.0, sq2 if sq2 >= 0.0 else 0.0
        fx, fy = kc * (w1 + w2), ks * (w1 - w2)
        a2x, a2y = (c * fx - s * fy) / mass, (s * fx + c * fy) / mass
        # stage 3 at t + dt/2
        v3x, v3y = vx + h2 * a2x, vy + h2 * a2y
        ax_d = 1.0 + kx1 * (th - v3x) + kx2 * (xr - (x + h2 * v2x))
        ay_d = 0.0 + ky1 * (0.0 - v3y) + ky2 * (0.0 - (y + h2 * v2y))
        u = (c * ax_d + s * ay_d) / cos_th
        v = (ns * ax_d + c * ay_d) / sin_th
        sq1, sq2 = scale * (u + v), scale * (u - v)
        if not isfinite(sq1 + sq2) and not all(map(isfinite, (ax_d, ay_d, sq1, sq2))):
            stage = 3
            break
        w1, w2 = sq1 if sq1 >= 0.0 else 0.0, sq2 if sq2 >= 0.0 else 0.0
        fx, fy = kc * (w1 + w2), ks * (w1 - w2)
        a3x, a3y = (c * fx - s * fy) / mass, (s * fx + c * fy) / mass
        # stage 4 at t + dt
        th = t + dt
        v4x, v4y = vx + dt * a3x, vy + dt * a3y
        ax_d = 1.0 + kx1 * (th - v4x) + kx2 * (0.5 * th * th - (x + dt * v3x))
        ay_d = 0.0 + ky1 * (0.0 - v4y) + ky2 * (0.0 - (y + dt * v3y))
        u = (c * ax_d + s * ay_d) / cos_th
        v = (ns * ax_d + c * ay_d) / sin_th
        sq1, sq2 = scale * (u + v), scale * (u - v)
        if not isfinite(sq1 + sq2) and not all(map(isfinite, (ax_d, ay_d, sq1, sq2))):
            stage = 4
            break
        w1, w2 = sq1 if sq1 >= 0.0 else 0.0, sq2 if sq2 >= 0.0 else 0.0
        fx, fy = kc * (w1 + w2), ks * (w1 - w2)
        a4x, a4y = (c * fx - s * fy) / mass, (s * fx + c * fy) / mass
        nx = x + dt * (vx + 2.0 * v2x + 2.0 * v3x + v4x) / 6.0
        ny = y + dt * (vy + 2.0 * v2y + 2.0 * v3y + v4y) / 6.0
        nvx = vx + dt * (a1x + 2.0 * a2x + 2.0 * a3x + a4x) / 6.0
        nvy = vy + dt * (a1y + 2.0 * a2y + 2.0 * a3y + a4y) / 6.0
        if not isfinite(nx + ny + nvx + nvy) and not all(map(isfinite, (nx, ny, nvx, nvy))):
            stage = None
            break
        x, y, vx, vy = nx, ny, nvx, nvy
        t = (k + 1) * dt
    else:
        return x, y, vx, vy
    part = "raw command" if isfinite(ax_d) and isfinite(ay_d) else "desired acceleration"
    cause = f"stage {stage} {part}" if stage else "new state"
    raise DivergenceError(t, state=VehicleState(x, y, vx, vy), step=k, yaw=lam, cause=cause)


def step(state: VehicleState, t: float, config: SimConfig) -> VehicleState:
    """One RK4 step of the closed loop from grid time ``t`` to ``t + dt``.

    Runs ``run``'s loop for one row, with its stage times from ``t`` and the
    yaw held at its value on grid step ``round(t / dt)``; nothing past the
    step is evaluated. Raises ``DivergenceError`` as ``run`` does, without a
    trajectory. Paper API; no command calls it, and it replays a divergence report.
    """
    if not (t >= 0.0 and math.isfinite(t / config.dt)):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    k = round(t / config.dt)
    lam = _yaw(k, config.steps_per_half, config.gait)
    x, y, vx, vy = state.x, state.y, state.vx, state.vy
    return VehicleState(*_integrate(config.params, lam, config.dt, k, t, x, y, vx, vy, 1, k + 1, []))


# floats that run() logs per row, in this order; a run's table adds ``angle_des``
_LOGGED = ("x", "y", "vx", "vy", "ax_d", "ay_d", "w1sq_raw", "w2sq_raw")
ROW_WIDTH = len(_LOGGED) + 1


def _fill(table: np.ndarray, rows: int, log: list[float]) -> int:
    """Move a flat per-row log (see ``_LOGGED``) into ``table`` rows, with ``angle_des`` last.

    The rows go from row ``rows`` on; returns the rows logged in ``table``
    after the move. ``log`` is emptied.
    """
    width, ax_d = len(_LOGGED), _LOGGED.index("ax_d")
    block = table[rows : rows + len(log) // width]
    block[:, :width] = np.fromiter(log, float, len(log)).reshape(-1, width)
    # math.atan2, not np.arctan2: the two differ in the last bit on some rows
    block[:, width] = [
        math.atan2(ay, ax) % TWO_PI if ax or ay else math.nan
        for ax, ay in zip(log[ax_d::width], log[ax_d + 1 :: width])
    ]
    log.clear()
    return rows + len(block)


def run(
    config: SimConfig, table: np.ndarray | None = None, logged=lambda rows: None
) -> Trajectory:
    """Integrate the closed loop over the configured horizon and log it.

    Deterministic for a fixed config; the yaw follows the step index (see
    ``_yaw``). Row k logs the state at step k and stage 1 of the step from
    it. The loop runs one half period at a time, and at each yaw switch its
    log moves into ``table``, one row of ``ROW_WIDTH`` floats per step (the
    ``_LOGGED`` floats, then ``angle_des``); an ``(n + 1) x ROW_WIDTH``
    table is allocated if none is given. ``logged`` is then called with the
    rows in the table so far: the streamed CSV writer passes a table in
    shared memory, and a forked child formats each chunk of rows as it
    lands. On divergence the partial trajectory, up to the last fully logged
    row, is reported and attached to the raised error.
    """
    params, gait, dt = config.params, config.gait, config.dt
    n, m = config.n_steps, config.steps_per_half
    if table is None:
        table = np.empty((n + 1, ROW_WIDTH))
    s0 = config.initial_state
    state = (s0.x, s0.y, s0.vx, s0.vy)
    log: list[float] = []
    rows = 0
    try:
        for k in range(0, n + 1, m):
            lam = _yaw(k, m, gait)
            try:
                state = _integrate(params, lam, dt, k, k * dt, *state, min(m, n + 1 - k), n, log)
            finally:
                rows = _fill(table, rows, log)
                logged(rows)
    except DivergenceError as exc:
        exc.trajectory = _trajectory(table[:rows], config)
        raise
    return _trajectory(table, config)


def _trajectory(rows: np.ndarray, config: SimConfig, lo: int = 0) -> Trajectory:
    """Build every column of table rows ``lo``, ``lo + 1``, ... of a run (see ``_fill``).

    The logged columns are views of ``rows``; every other column is computed
    row by row from its row's logged floats and absolute index, so the
    columns of any row range hold the same bits as those rows of the whole run.
    """
    params, m = config.params, config.steps_per_half
    cols = {name: rows[:, i] for i, name in enumerate(_LOGGED + ("angle_des",))}
    k = lo + np.arange(len(rows))
    t = k * config.dt
    half = (k // m) % 2  # 0 in the first half of each period, 1 in the second
    yaws, lo_of, hi_of = config.cone_edges
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
            lyap=lyapunov(ey, eydot, params),
            angle_lo=lo_of[half],
            angle_hi=hi_of[half],
            lam=yaws[half],
            **cols,
        )


def verify_trajectory(
    traj: Trajectory,
    config: SimConfig,
    l_critical: float | None = None,
    grid_resolution: int = 200,
) -> dict:
    """Check the logged run against the saturation-stability properties.

    Returns the ``simulate`` report ``{"passed", "checks", "summary"}``, one
    ``checks.check`` verdict per property:

    (a) from the second half period on, the saturation pattern stays in the
        two-element set allowed by the yaw sign; (b) within each complete
        half period the Lyapunov log peaks at the endpoints, to within
        ``_LYAP_TOL``; (c) past the first half-period boundary where the
        Lyapunov change turns nonnegative, the log stays below the critical
        level plus the 3/4 cap; (d) the lateral error at half-period
        boundaries stays inside the union of the two capture regions.

    All four work on the boundary rows ``b = m, 2m, ..., n_half*m`` (``m``
    steps per half period) and on whole columns of the log. A check that
    does not apply passes with ``applicable`` false and its reason in
    ``note``, and an exception fails it with the error. (a) and (b) need one
    complete half period, and (c) and (d) also need a run where clamping
    actually occurred. If ``l_critical`` is not given, (c) computes it at
    ``grid_resolution``, and does not apply if the search could not bracket
    the level.
    """
    params, m, lyap = config.params, config.steps_per_half, traj.lyap
    size = len(traj)
    n_half = (size - 1) // m
    b = m * np.arange(1, n_half + 1)
    lyap_b = lyap[b]
    saturated_run = bool(traj.clamped.any())
    # the first half-period boundary after which the Lyapunov change turns nonnegative
    grew = np.flatnonzero(np.diff(lyap_b) >= 0.0)
    settle_h = int(grew[0]) + 1 if saturated_run and grew.size else None
    empty = "empty" if n_half < 1 else None
    clamp_skip = empty or (None if saturated_run else "no clamping occurred")

    def switch_restriction():
        # negative yaw allows S11/S10 (first rotor active), positive S11/S01
        bad = np.where(traj.lam[m:] < 0.0, traj.p[m:] != 1, traj.q[m:] != 1)
        n_bad = int(bad.sum())
        return n_bad == 0, {"n_violations": n_bad, "n_checked": int(bad.size)}

    def lyapunov_local_max():
        # half period h >= 1 spans rows b[h-1]..b[h]: its maximum over both endpoints
        inner = lyap[m : n_half * m].reshape(n_half - 1, m).max(axis=1)
        left, right = lyap_b[:-1], lyap_b[1:]
        overshoot = np.maximum(inner, right) - np.maximum(left, right)
        worst = float(np.fmax.reduce(overshoot, initial=0.0))  # a NaN window is skipped
        return worst <= _LYAP_TOL, {"max_overshoot": worst, "tolerance": _LYAP_TOL}

    def lyapunov_sup_bound():
        nonlocal l_critical
        if l_critical is None:
            crit = critical_lyapunov(
                resolution=grid_resolution, params=params, half_period=config.gait.half_period
            )
            if not crit["bracketed"]:
                raise NotApplicable("critical level not bracketed")
            l_critical = crit["l_critical"]
        bound = l_critical + DELTA_L_CAP
        sup_tail = float(lyap[(settle_h or 1) * m :].max())
        return sup_tail <= bound, {
            "sup_tail": sup_tail,
            "l_critical": l_critical,
            "bound": bound,
            "settling_half_period": settle_h,
        }

    def boundary_state_capture():
        ey, eydot = traj.ey[b], traj.eydot[b]
        captured = in_admissible_region(ey, eydot, +1, params)
        captured |= in_admissible_region(ey, eydot, -1, params)
        bad = (np.flatnonzero(~captured) + 1).tolist()
        return not bad, {"n_boundaries": n_half, "violating_half_periods": bad[:20]}

    checks = [
        check("switch_restriction", empty, switch_restriction),
        check("lyapunov_local_max", empty, lyapunov_local_max),
        check("lyapunov_sup_bound", clamp_skip, lyapunov_sup_bound),
        check("boundary_state_capture", clamp_skip, boundary_state_capture),
    ]
    summary = {
        "saturated_run": saturated_run,
        "n_samples": size,
        "n_clamped_samples": int(traj.clamped.sum()),
        "max_abs_ex": float(np.abs(traj.ex).max()) if size else None,
        "max_abs_ey": float(np.abs(traj.ey).max()) if size else None,
        "settling_half_period": settle_h,
        "l_critical": l_critical if saturated_run else None,
    }
    passed = all(c["passed"] for c in checks)
    return {"passed": passed, "checks": checks, "summary": summary}
