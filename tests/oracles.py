"""Independent numerical oracles for checking closed-form results.

``rotation_matrix``, ``thrust_map`` and ``thrust_matrix`` are the plant's
maps as 2x2 matrices, the oracles of the scalar inversion and acceleration,
and ``yaw_at`` is the yaw schedule as a function of time, the oracle of the
simulator's step-indexed schedule.

Nothing here touches the closed forms under test: flows are integrated
with fixed-step RK4 (scalar or vectorized across many start states) and
threshold crossings are located by bisection on re-integrated sub-steps.
The switched-loop oracle rebuilds the controller composition (PD law,
inversion, clamp, thrust) directly in numpy instead of calling the
analysis module.

The scalar-loop oracles at the end are the reference for the array paths:
they call the half-period map, or the flows, one cell at a time, as the
array code did before it took whole grids. ``scalar_clamp_rule`` and
``scalar_region_rule`` make one scalar controller call per state and
function, as the two controller-rule checks once did. ``scalar_verify_trajectory``
checks a logged run one half-period boundary at a time, and
``bisect_event_hitting_times`` is the array event oracle with its brackets
bisected instead of solved. ``joined_trajectory_csv`` and
``joined_grid_csv`` build the whole CSV text and write it in one call, as
the writers did before they streamed it.

``kernel`` and ``kernel_rk4`` are the simulator's closed-loop arithmetic as
a chain of calls: one float-only controller closure per yaw, called once
per RK4 stage. ``kernel_run`` and ``kernel_step`` drive it as ``run`` and
``step`` did before the four stages were written out in one loop.
"""

from __future__ import annotations

import math

import numpy as np

from tiltsim import (
    DELTA_L_CAP,
    DivergenceError,
    ErrorState,
    RawCommand,
    VehicleState,
    clamp,
    classify_region,
    critical_lyapunov,
    desired_accel,
    half_period_map,
    hitting_time,
    in_admissible_region,
    lyapunov,
    raw_inversion,
    reference_at,
    s11_flow,
    saturated_flow,
    switch_matrix_of,
)
from tiltsim.analysis import (
    _EVENT_BLOCK,
    _EVENT_STEP,
    _EVENT_T_MAX,
    INV_SQRT3,
    TWO_PI,
    _rk4_matrix,
)
from tiltsim.output import _CHUNK_ROWS, atomic_write_text, fmt
from tiltsim.simulator import TRAJECTORY_COLUMNS, _trajectory, _yaw

SQRT3 = math.sqrt(3.0)


def rotation_matrix(lam):
    """Rotation of the body frame by the yaw angle ``lam`` (rad)."""
    c, s = math.cos(lam), math.sin(lam)
    return np.array([[c, -s], [s, c]])


def thrust_matrix(theta, k_thrust):
    """Raw thrust map for an arbitrary tilt half-angle, unvalidated.

    Columns are the body-frame force directions of the two rotors, scaled by
    the thrust coefficient. Singular exactly at theta in {0, pi/2}.
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[k_thrust * c, k_thrust * c], [k_thrust * s, -k_thrust * s]])


def thrust_map(params):
    """Body-frame map from squared rotor speeds to force (N)."""
    return thrust_matrix(params.theta, params.k_thrust)


def yaw_at(t, gait):
    """Yaw angle of the square-wave schedule at time ``t`` (t >= 0), from the time alone.

    ``simulator._yaw`` computes the schedule from the grid step index instead.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    tau = math.fmod(t, gait.period)
    sign = gait.phase_sign if tau < gait.half_period else -gait.phase_sign
    return sign * gait.amplitude


def _linear_deriv(e, ed, ky1, ky2):
    return ed, -ky1 * ed - ky2 * e


def rk4_linear_flow(e0, ed0, ky1, ky2, t_final, n_steps):
    """Fixed-step RK4 on the unsaturated error dynamics (array friendly)."""
    h = t_final / n_steps
    e, ed = np.asarray(e0, dtype=float), np.asarray(ed0, dtype=float)
    for _ in range(n_steps):
        k1e, k1d = _linear_deriv(e, ed, ky1, ky2)
        k2e, k2d = _linear_deriv(e + 0.5 * h * k1e, ed + 0.5 * h * k1d, ky1, ky2)
        k3e, k3d = _linear_deriv(e + 0.5 * h * k2e, ed + 0.5 * h * k2d, ky1, ky2)
        k4e, k4d = _linear_deriv(e + h * k3e, ed + h * k3d, ky1, ky2)
        e = e + h * (k1e + 2 * k2e + 2 * k3e + k4e) / 6.0
        ed = ed + h * (k1d + 2 * k2d + 2 * k3d + k4d) / 6.0
    return e, ed


def switched_error_deriv(e, ed, lam, params):
    """Lateral error derivative through the full clamped controller.

    Assumes the x channel tracks exactly, so the desired x acceleration is
    1. Rebuilt in plain numpy: PD law, body-frame rotation, tilt scaling,
    zero clamp, thrust recombination.
    """
    axd = np.ones_like(np.asarray(e, dtype=float))
    ayd = params.ky1 * ed + params.ky2 * e
    c, s = math.cos(lam), math.sin(lam)
    bx = c * axd + s * ayd
    by = -s * axd + c * ayd
    u = bx / math.cos(params.theta)
    v = by / math.sin(params.theta)
    scale = 0.5 * params.m / params.k_thrust
    sq1 = scale * (u + v)
    sq2 = scale * (u - v)
    w1 = np.maximum(sq1, 0.0)
    w2 = np.maximum(sq2, 0.0)
    kc = params.k_thrust * math.cos(params.theta)
    ks = params.k_thrust * math.sin(params.theta)
    fx = kc * (w1 + w2)
    fy = ks * (w1 - w2)
    ay = (s * fx + c * fy) / params.m
    return ed, -ay


def rk4_switched_flow(e0, ed0, lam, params, t_final, n_steps):
    """RK4 of the switched closed loop in the error plane (array friendly)."""
    h = t_final / n_steps
    e, ed = np.asarray(e0, dtype=float), np.asarray(ed0, dtype=float)
    for _ in range(n_steps):
        k1e, k1d = switched_error_deriv(e, ed, lam, params)
        k2e, k2d = switched_error_deriv(e + 0.5 * h * k1e, ed + 0.5 * h * k1d, lam, params)
        k3e, k3d = switched_error_deriv(e + 0.5 * h * k2e, ed + 0.5 * h * k2d, lam, params)
        k4e, k4d = switched_error_deriv(e + h * k3e, ed + h * k3d, lam, params)
        e = e + h * (k1e + 2 * k2e + 2 * k3e + k4e) / 6.0
        ed = ed + h * (k1d + 2 * k2d + 2 * k3d + k4d) / 6.0
    return e, ed


def event_hitting_times(e0, ed0, lambda_sign, ky1, ky2, step=1e-4, t_max=1.5):
    """Event-detected threshold crossing times for many states at once.

    Integrates the unsaturated dynamics for all states simultaneously,
    brackets the first crossing of ky1*edot + ky2*e with the signed
    threshold, then refines each bracket by bisection on re-integrated
    sub-steps. Returns NaN where no crossing happened within ``t_max``.
    """
    e = np.array(e0, dtype=float)
    ed = np.array(ed0, dtype=float)
    n = e.size
    bound = lambda_sign / SQRT3
    sgn = float(lambda_sign)

    def gap(ev, edv):
        return sgn * (ky1 * edv + ky2 * ev - bound)

    times = np.full(n, np.nan)
    done = gap(e, ed) <= 0.0
    times[done] = 0.0
    bracket_t = np.full(n, np.nan)
    bracket_e = np.empty(n)
    bracket_ed = np.empty(n)

    t = 0.0
    n_sweep = int(round(t_max / step))
    for _ in range(n_sweep):
        e1, ed1 = rk4_linear_flow(e, ed, ky1, ky2, step, 1)
        crossed = ~done & (gap(e1, ed1) <= 0.0)
        bracket_t[crossed] = t
        bracket_e[crossed] = e[crossed]
        bracket_ed[crossed] = ed[crossed]
        done |= crossed
        e, ed, t = e1, ed1, t + step
        if done.all():
            break

    for i in np.nonzero(np.isfinite(bracket_t))[0]:
        lo, hi = 0.0, step
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            em, edm = rk4_linear_flow(bracket_e[i], bracket_ed[i], ky1, ky2, mid, 8)
            if gap(em, edm) <= 0.0:
                hi = mid
            else:
                lo = mid
        times[i] = bracket_t[i] + 0.5 * (lo + hi)
    return times


def bisect_event_hitting_times(e, edot, lambda_sign, params):
    """``analysis._event_hitting_times`` with its brackets halved 60 times.

    The same block scan on the powers of the RK4 step matrix; each bracket
    [0, step] is then bisected, all cells at once, on the gap after eight
    RK4 sub-steps of a trial length from the bracket's start state.
    """
    e, edot, sgn = np.broadcast_arrays(
        np.asarray(e, dtype=float), np.asarray(edot, dtype=float), np.asarray(lambda_sign, float)
    )
    y = np.stack([sgn * e, sgn * edot], axis=-1).reshape(-1, 2)

    def gap(y):
        return params.ky1 * y[:, 1] + params.ky2 * y[:, 0] - INV_SQRT3

    times = np.full(y.shape[0], np.nan)
    times[gap(y) <= 0.0] = 0.0
    n_steps = int(round(_EVENT_T_MAX / _EVENT_STEP))
    powers = np.empty((_EVENT_BLOCK, 2, 2))  # R^1 .. R^B, by doubling
    powers[0] = _rk4_matrix(_EVENT_STEP, params)
    m = 1
    while m < _EVENT_BLOCK:
        powers[m : 2 * m] = powers[:m] @ powers[m - 1]
        m *= 2
    gap_rows = np.array([params.ky2, params.ky1]) @ powers  # row k - 1 is c*R^k
    live = np.nonzero(np.isnan(times))[0]
    y_live = y[live]
    start_idx, start_y = [], []
    for first in range(0, n_steps, _EVENT_BLOCK):
        if live.size == 0:
            break
        n_block = min(_EVENT_BLOCK, n_steps - first)
        crossed = gap_rows[:n_block] @ y_live.T - INV_SQRT3 <= 0.0
        hit = crossed.any(axis=0)
        k = crossed.argmax(axis=0)[hit]  # the bracket is step first + k
        times[live[hit]] = (first + k) * _EVENT_STEP
        start = y_live[hit]
        later = k > 0
        start[later] = (powers[k[later] - 1] @ start[later, :, None])[..., 0]
        start_idx.append(live[hit])
        start_y.append(start)
        live, y_live = live[~hit], y_live[~hit] @ powers[_EVENT_BLOCK - 1].T
    if start_idx:
        idx, y0 = np.concatenate(start_idx), np.concatenate(start_y)
        lo, hi = np.zeros(idx.size), np.full(idx.size, _EVENT_STEP)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            sub = _rk4_matrix(mid / 8.0, params)
            ym = y0[:, :, None]
            for _ in range(8):
                ym = sub @ ym
            below = gap(ym[:, :, 0]) <= 0.0
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
        times[idx] += 0.5 * (lo + hi)
    return times


def sample_capture_region(rng, n, lambda_sign, ky1, ky2, box=2.0):
    """Uniform samples from the capture region in the matching quadrant."""
    es, eds = [], []
    bound = 1.0 / SQRT3
    while len(es) < n:
        e = rng.uniform(0.0, box)
        ed = rng.uniform(0.0, box)
        if ky1 * ed + ky2 * e >= bound:
            es.append(lambda_sign * e)
            eds.append(lambda_sign * ed)
    return np.array(es), np.array(eds)


def self_map_counts(resolution, params):
    """(n_checked, n_violations) of the two-half-period self-map, cell by cell."""
    e_vals = np.linspace(-2.0, 2.0, resolution)
    bad = 0
    n = 0
    for e in e_vals:
        for edot in e_vals:
            s = ErrorState(float(e), float(edot))
            if not in_admissible_region(s, +1, params):
                continue
            n += 1
            mid = half_period_map(s, +1, params)
            if not in_admissible_region(mid, -1, params):
                bad += 1
                continue
            end = half_period_map(mid, -1, params)
            if not in_admissible_region(end, +1, params):
                bad += 1
    return n, bad


def scalar_sample_region(rng, n, lambda_sign, params):
    """``n`` admissible states drawn one value at a time, as the checks' sampler once did.

    Each attempt draws e, then edot, uniform on [0, 2), mirrored by the yaw
    sign; the search gives up after 1000*n attempts.
    """
    states = []
    attempts = 0
    while len(states) < n:
        attempts += 1
        if attempts > 1000 * n:
            raise ValueError(f"could not sample {n} admissible states for yaw sign {lambda_sign}")
        e = rng.uniform(0.0, 2.0)
        edot = rng.uniform(0.0, 2.0)
        s = ErrorState(lambda_sign * e, lambda_sign * edot)
        if in_admissible_region(s, lambda_sign, params):
            states.append(s)
    return states


def local_max_report(rng, n, params):
    """``lyapunov_local_max``'s ``(passed, detail)``, one state and one tau at a time.

    Samples with ``scalar_sample_region``, which draws what the check's
    sampler draws from the same rng, then evaluates the Lyapunov log on 201 taus of the half period
    through the scalar flow functions.
    """
    worst = -math.inf
    taus = np.linspace(0.0, 1.0, 201)
    for sign in (+1, -1):
        for s in scalar_sample_region(rng, n, sign, params):
            t_hit = hitting_time(s, sign, params)
            mid = s11_flow(s, t_hit, params)
            values = []
            for tau in taus:
                if tau <= t_hit:
                    values.append(lyapunov(s11_flow(s, float(tau), params), params))
                else:
                    values.append(
                        lyapunov(saturated_flow(mid, float(tau - t_hit), -sign), params)
                    )
            endpoint = max(values[0], values[-1])
            worst = max(worst, max(values) - endpoint)
    return worst <= 1e-9, {"max_overshoot": worst, "tolerance": 1e-9}


def scalar_clamp_rule(rng, n, params):
    """``clamp_switch_consistency``'s ``(passed, detail)``, one raw command at a time."""
    worst = 0.0
    for _ in range(n):
        raw = RawCommand(rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0))
        cmd = clamp(raw)
        sm = switch_matrix_of(raw)
        via_matrix = (sm.p * raw.sq1, sm.q * raw.sq2)
        worst = max(worst, abs(via_matrix[0] - cmd.w1sq), abs(via_matrix[1] - cmd.w2sq))
    return worst == 0.0, {"max_abs_diff": worst, "n": n}


def scalar_region_rule(rng, n, params):
    """``region_rule_consistency``'s ``(passed, detail)``, one state and yaw sign at a time."""
    bad = 0
    checked = 0
    ref = reference_at(0.7)
    for _ in range(n):
        e = rng.uniform(-2.0, 2.0)
        edot = rng.uniform(-2.0, 2.0)
        g = params.ky1 * edot + params.ky2 * e
        if min(abs(g - INV_SQRT3), abs(g + INV_SQRT3)) < 1e-9:
            continue
        for sign in (-1, 1):
            state = VehicleState(ref.xr, -e, ref.vxr, -edot)
            raw = raw_inversion(desired_accel(state, ref, params), sign * math.pi / 3, params)
            if classify_region(e, edot, sign, params) != switch_matrix_of(raw):
                bad += 1
            checked += 1
    return bad == 0, {"n_checked": checked, "n_violations": bad}


def scalar_critical_search(map_cell, level, witness_phi, ky1, ky2, refine_tol=1e-4, n_angles=4096):
    """Critical-level search after the grid pass, one ellipse cell at a time.

    Starts from the grid level ``level``, brackets from above and bisects
    as ``critical_lyapunov`` does. ``map_cell(e, edot, sign)`` maps one
    cell; a cell whose map raises ``RuntimeError`` is skipped and counted.
    Returns (level, number of skipped cells, whether the level was bracketed).
    """
    phis = np.append(np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False), witness_phi)
    skipped = 0

    def intersects(lv):
        nonlocal skipped
        e = math.sqrt(2.0 * lv / ky2) * np.cos(phis)
        edot = math.sqrt(2.0 * lv) * np.sin(phis)
        for sign in (+1, -1):
            sel = (sign * (ky1 * edot + ky2 * e) >= 1.0 / SQRT3) & (sign * e >= 0) & (sign * edot >= 0)
            for ek, edk in zip(e[sel], edot[sel]):
                try:
                    e1, ed1 = map_cell(float(ek), float(edk), sign)
                except RuntimeError:
                    skipped += 1
                    continue
                if 0.5 * ed1 * ed1 + 0.5 * ky2 * e1 * e1 - lv >= 0.0:
                    return True
        return False

    lo = hi = level
    for _ in range(60):
        hi = hi * 1.25 + 1e-9
        if not intersects(hi):
            break
    else:
        return hi, skipped, False
    while hi - lo > refine_tol:
        mid = 0.5 * (lo + hi)
        if intersects(mid):
            lo = mid
        else:
            hi = mid
    return lo, skipped, True


def grid_level_and_witness(grids, ky2):
    """Largest Lyapunov level of a nonnegative-change cell, and its ellipse angle.

    Visits the cells of ``grids`` (the +1 grid, then the -1 grid) one at a
    time in row-major order; the first cell of the largest level wins.
    """
    best, witness = -math.inf, None
    for grid in grids:
        for i, e in enumerate(grid.e_values):
            for j, edot in enumerate(grid.edot_values):
                if not (grid.mask[i, j] and grid.values[i, j] >= 0.0):
                    continue
                level = 0.5 * edot**2 + 0.5 * ky2 * e**2
                if level > best:
                    best = float(level)
                    witness = math.atan2(
                        edot / math.sqrt(2.0 * best), e / math.sqrt(2.0 * best / ky2)
                    )
    return best, witness


def write_grid_csv(grid, path):
    """The grid CSV written one f-string row at a time, as the writer once did."""
    lines = ["e,edot,admissible,delta_L,sign"]
    sign = grid.sign_map()
    for i, e in enumerate(grid.e_values):
        for j, edot in enumerate(grid.edot_values):
            cells = (fmt(float(e)), fmt(float(edot)), int(grid.mask[i, j]))
            cells += (fmt(float(grid.values[i, j])), int(sign[i, j]))
            lines.append(",".join(map(str, cells)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _joined_write_table(path, header, row, table):
    parts = [header]
    for lo in range(0, len(table), _CHUNK_ROWS):
        chunk = table[lo : lo + _CHUNK_ROWS]
        parts.append(row * len(chunk) % tuple(chunk.ravel().tolist()))
    atomic_write_text(path, "".join(parts))


def joined_trajectory_csv(traj, path):
    """The trajectory CSV with every value formatted, from one table joined into one string."""
    row = ",".join("%d" if name in ("p", "q") else "%.17g" for name in TRAJECTORY_COLUMNS) + "\n"
    table = np.column_stack([traj.column(name) for name in TRAJECTORY_COLUMNS])
    _joined_write_table(path, ",".join(TRAJECTORY_COLUMNS) + "\n", row, table)


def joined_grid_csv(grid, path):
    """The grid CSV from one stacked table, joined into one string."""
    E, Ed = np.meshgrid(grid.e_values, grid.edot_values, indexing="ij")
    columns = (E, Ed, grid.mask, grid.values, grid.sign_map())
    table = np.column_stack([np.ravel(c).astype(float) for c in columns])
    header, row = "e,edot,admissible,delta_L,sign\n", "%.17g,%.17g,%d,%.17g,%d\n"
    _joined_write_table(path, header, row, table)


def scalar_verify_trajectory(traj, config, l_critical=None, grid_resolution=200):
    """``verify_trajectory(...).to_dict()``, one half-period boundary at a time.

    Each window, boundary and capture test is a loop over half periods with
    scalar region tests; a check that does not apply carries its reason in
    ``note``, and the supremum bound does not apply against a computed
    critical level that the search did not bracket. The Lyapunov-log
    tolerance is 1e-6.
    """
    lyap_tol = 1e-6
    checks = []
    params = config.params
    m = config.steps_per_half
    size = len(traj)
    n_half = (size - 1) // m
    saturated_run = bool(traj.clamped.any())
    empty = size <= 1 or n_half < 1

    def skipped(name, note):
        return {"name": name, "applicable": False, "passed": True, "detail": {"note": note}}

    def applied(name, passed, detail):
        return {"name": name, "applicable": True, "passed": passed, "detail": detail}

    # (a) allowed saturation patterns per yaw sign, half periods >= 1
    if empty:
        checks.append(skipped("switch_restriction", "empty"))
    else:
        neg = traj.lam[m:] < 0.0
        p, q = traj.p[m:], traj.q[m:]
        bad = np.where(neg, p != 1, q != 1)
        n_bad = int(bad.sum())
        checks.append(
            applied(
                "switch_restriction",
                n_bad == 0,
                {"n_violations": n_bad, "n_checked": int(bad.size)},
            )
        )

    # (b) Lyapunov local maxima at half-period boundaries
    if empty:
        checks.append(skipped("lyapunov_local_max", "empty"))
    else:
        worst = 0.0
        for h in range(1, n_half):
            lo, hi = h * m, (h + 1) * m
            window = traj.lyap[lo : hi + 1]
            endpoint = max(traj.lyap[lo], traj.lyap[hi])
            worst = max(worst, float(window.max() - endpoint))
        checks.append(
            applied(
                "lyapunov_local_max",
                worst <= lyap_tol,
                {"max_overshoot": worst, "tolerance": lyap_tol},
            )
        )

    boundary_states = []
    for h in range(1, n_half + 1):
        k = h * m
        if k < size:
            boundary_states.append((h, float(traj.ey[k]), float(traj.eydot[k])))

    settle_h = None
    if saturated_run and not empty:
        for h in range(1, n_half):
            if traj.lyap[(h + 1) * m] - traj.lyap[h * m] >= 0.0:
                settle_h = h
                break

    # (c) supremum bound past the settling boundary, against a computed level
    # only if the search bracketed it
    crit = None
    if saturated_run and not empty and l_critical is None:
        crit = critical_lyapunov(
            resolution=grid_resolution, params=params, half_period=config.gait.half_period
        )
        if crit.bracketed:
            l_critical = crit.l_critical
    if not saturated_run or empty:
        checks.append(skipped("lyapunov_sup_bound", "empty" if empty else "no clamping occurred"))
    elif crit is not None and not crit.bracketed:
        checks.append(skipped("lyapunov_sup_bound", "critical level not bracketed"))
    else:
        bound = l_critical + DELTA_L_CAP
        tail_from = (settle_h if settle_h is not None else 1) * m
        sup_tail = float(traj.lyap[tail_from:].max())
        checks.append(
            applied(
                "lyapunov_sup_bound",
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
        checks.append(skipped("boundary_state_capture", "empty" if empty else "no clamping occurred"))
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
            applied(
                "boundary_state_capture",
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
    return {
        "passed": all(c["passed"] for c in checks if c["applicable"]),
        "checks": checks,
        "summary": summary,
    }


def kernel(params, lam):
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


def kernel_rk4(f, t, dt, x, y, vx, vy, a1x, a1y):
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


def kernel_step(state, t, config):
    """``simulator.step`` through ``kernel`` and ``kernel_rk4``."""
    k = round(t / config.dt)
    lam = _yaw(k, config.steps_per_half, config.gait)
    f = kernel(config.params, lam)
    try:
        _, _, _, _, ax, ay = f(t, state.x, state.y, state.vx, state.vy)
        return VehicleState(*kernel_rk4(f, t, config.dt, state.x, state.y, state.vx, state.vy, ax, ay))
    except ValueError as exc:
        raise DivergenceError(t, state=state, step=k, yaw=lam) from exc


def kernel_run(config):
    """``simulator.run`` through ``kernel`` and ``kernel_rk4``: one call per stage.

    Each row appends its nine table floats (see ``simulator._fill``), its
    ``angle_des`` computed as the row is logged, to one flat log.
    """
    params, gait, dt = config.params, config.gait, config.dt
    n, m = config.n_steps, config.steps_per_half
    s0 = config.initial_state
    x, y, vx, vy = s0.x, s0.y, s0.vx, s0.vy
    log = []

    def table():
        return np.reshape(np.array(log, dtype=float), (-1, 9))

    try:
        for k in range(n + 1):
            t = k * dt
            if k % m == 0:
                f = kernel(params, _yaw(k, m, gait))
            ax_d, ay_d, sq1, sq2, ax, ay = f(t, x, y, vx, vy)
            angle = math.atan2(ay_d, ax_d) % TWO_PI if ax_d or ay_d else math.nan
            log += (x, y, vx, vy, ax_d, ay_d, sq1, sq2, angle)
            if k < n:
                x, y, vx, vy = kernel_rk4(f, t, dt, x, y, vx, vy, ax, ay)
    except ValueError as exc:
        state = VehicleState(x, y, vx, vy)
        raise DivergenceError(t, _trajectory(table(), config), state, k, _yaw(k, m, gait)) from exc
    return _trajectory(table(), config)
