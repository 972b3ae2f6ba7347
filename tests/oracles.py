"""Independent numerical oracles for checking closed-form results.

Nothing here touches the closed forms under test: flows are integrated
with fixed-step RK4 (scalar or vectorized across many start states) and
threshold crossings are located by bisection on re-integrated sub-steps.
The switched-loop oracle rebuilds the controller composition (PD law,
inversion, clamp, thrust) directly in numpy instead of calling the
analysis module.

The scalar-loop oracles at the end are the reference for the array paths:
they call the half-period map, or the flows, one cell at a time, as the
array code did before it took whole grids.
"""

from __future__ import annotations

import math

import numpy as np

from tiltsim import (
    ErrorState,
    half_period_map,
    hitting_time_neg,
    hitting_time_pos,
    in_admissible_region,
    lyapunov,
    s11_flow,
    saturated_flow,
)
from tiltsim.output import atomic_write_text, fmt

SQRT3 = math.sqrt(3.0)


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


def rk4_constant_accel_flow(e0, ed0, accel, t_final, n_steps):
    """Fixed-step RK4 on constant-acceleration error dynamics."""
    h = t_final / n_steps
    e, ed = np.asarray(e0, dtype=float), np.asarray(ed0, dtype=float)
    for _ in range(n_steps):
        k1e, k1d = ed, accel
        k2e = ed + 0.5 * h * k1d
        k3e = ed + 0.5 * h * k1d
        k4e = ed + h * k1d
        e = e + h * (k1e + 2 * k2e + 2 * k3e + k4e) / 6.0
        ed = ed + h * accel
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
    """``lyapunov_local_max`` check report, one state and one tau at a time.

    Samples with ``scalar_sample_region``, which draws what the check's
    sampler draws from the same rng, then evaluates the Lyapunov log on 201 taus of the half period
    through the scalar flow functions.
    """
    worst = -math.inf
    taus = np.linspace(0.0, 1.0, 201)
    for sign in (+1, -1):
        for s in scalar_sample_region(rng, n, sign, params):
            t_hit = hitting_time_pos(s, params) if sign > 0 else hitting_time_neg(s, params)
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
    return {
        "name": "lyapunov_local_max",
        "passed": worst <= 1e-9,
        "detail": {"max_overshoot": worst, "tolerance": 1e-9},
    }


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
    for e, edot, admissible, value, sign in grid.rows():
        lines.append(f"{fmt(e)},{fmt(edot)},{admissible},{fmt(value)},{sign}")
    atomic_write_text(path, "\n".join(lines) + "\n")
