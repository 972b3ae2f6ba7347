"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import math
import time

import numpy as np
import pytest

import oracles as oc
from tiltsim import (
    DELTA_L_CAP,
    SimConfig,
    critical_lyapunov,
    delta_l_grid,
    half_period_map,
    in_admissible_region,
    hitting_time,
    preset,
    run,
    verify_quadrant_capture,
)

# a numpy overflow or invalid value in the engines or the root solver fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SQRT3 = math.sqrt(3.0)
INV3 = 1.0 / SQRT3


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def small_result():
    cfg = SimConfig(gait=preset("small"), dt=1e-3, duration=20.0)
    t0 = time.perf_counter()
    traj = run(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, traj, elapsed


@pytest.fixture(scope="session")
def large_result():
    cfg = SimConfig(gait=preset("large"), dt=1e-3, duration=20.0)
    return cfg, run(cfg)


@pytest.fixture(scope="session")
def lcrit_200():
    return critical_lyapunov(resolution=200)


@pytest.fixture(scope="session")
def lcrit_400():
    return critical_lyapunov(resolution=400)


def test_criterion_1_small_gait_tracking(small_result):
    cfg, traj, elapsed = small_result
    max_ex = float(np.abs(traj.ex).max())
    max_ey = float(np.abs(traj.ey).max())
    n_clamped = int(traj.clamped.sum())
    ok = max_ex < 1e-8 and max_ey < 1e-8 and n_clamped == 0 and elapsed < 5.0
    report(
        1,
        ok,
        f"max|ex|={max_ex:.2e} max|ey|={max_ey:.2e} clamped={n_clamped} runtime={elapsed:.2f}s",
    )


def test_criterion_2_large_gait_bounded_not_convergent(large_result, lcrit_200):
    cfg, traj = large_result
    max_ex = float(np.abs(traj.ex).max())
    tail = np.abs(traj.ey[10000:])
    max_ey_tail = float(tail.max())
    ellipse_extent = math.sqrt(lcrit_200["l_critical"] + DELTA_L_CAP) / 3.0
    ok = max_ex < 1e-6 and max_ey_tail > 1e-3 and max_ey_tail < ellipse_extent + 1e-3
    report(
        2,
        ok,
        f"max|ex|={max_ex:.2e} tail max|ey|={max_ey_tail:.4f} "
        f"ellipse extent={ellipse_extent:.4f}",
    )


def test_criterion_3_desired_x_accel_is_one(large_result):
    cfg, traj = large_result
    worst = float(np.abs(traj.ax_d - 1.0).max())
    report(3, worst < 1e-6, f"max|ax_d - 1|={worst:.2e}")


def test_criterion_4_hitting_time_closed_forms():
    rng = np.random.default_rng(101)
    worst_resid = 0.0
    worst_t = -math.inf
    all_in_range = True
    for sign in (+1, -1):
        e0, ed0 = oc.sample_capture_region(rng, 1000, sign, 9.0, 18.0)
        t_oracle = oc.event_hitting_times(e0, ed0, sign, 9.0, 18.0)
        t = hitting_time(e0, ed0, sign)
        worst_resid = max(worst_resid, float(np.abs(t - t_oracle).max()))
        worst_t = max(worst_t, float(t.max()))
        all_in_range &= bool(((0.0 <= t) & (t < 1.0)).all())
    ok = worst_resid < 1e-6 and all_in_range
    report(4, ok, f"max residual={worst_resid:.2e} max t={worst_t:.4f} (2000 states)")


def test_criterion_5_delta_l_bound_and_boundary_max():
    ok = True
    details = []
    for sign in (+1, -1):
        grid = delta_l_grid((-2.0, 2.0), (-2.0, 2.0), 200, sign)
        peak = grid.max_delta_l()
        arg = grid.argmax_state()
        cell = float(grid.e_values[1] - grid.e_values[0])
        g = 9.0 * arg[1] + 18.0 * arg[0]
        line_dist = abs(g - sign * INV3) / math.hypot(18.0, 9.0)
        ok &= peak <= DELTA_L_CAP + 1e-3
        ok &= line_dist <= math.hypot(cell, cell)
        details.append(f"sign {sign:+d}: max={peak:.6f} line dist={line_dist:.4f}")
    report(5, ok, "; ".join(details))


def test_criterion_6_quadrant_capture_and_self_map():
    rep1 = verify_quadrant_capture((-2.0, 2.0), (-2.0, 2.0), 200, +1)
    rep3 = verify_quadrant_capture((-2.0, 2.0), (-2.0, 2.0), 200, -1)
    # two-half-period composition maps the first-quadrant region into itself
    e_vals = np.linspace(-2.0, 2.0, 200)
    self_map_ok = True
    n_composed = 0
    for e in e_vals[::4]:
        for ed in e_vals[::4]:
            if not in_admissible_region(e, ed, +1):
                continue
            n_composed += 1
            back = half_period_map(*half_period_map(e, ed, +1), -1)
            self_map_ok &= bool(in_admissible_region(*back, +1)[0])
    ok = rep1["passed"] and rep3["passed"] and self_map_ok
    report(
        6,
        ok,
        f"QI {rep1['n_admissible']} cells, QIII {rep3['n_admissible']} cells, "
        f"composition checked on {n_composed} cells",
    )


def test_criterion_7_switch_matrix_restriction(large_result):
    cfg, traj = large_result
    m = cfg.steps_per_half
    lam = traj.lam[m:]
    p = traj.p[m:]
    q = traj.q[m:]
    bad = int(np.where(lam < 0, p != 1, q != 1).sum())
    report(7, bad == 0, f"{bad} violations over {lam.size} samples (half periods >= 1)")


def test_criterion_8_lyapunov_local_maxima(large_result):
    cfg, traj = large_result
    m = cfg.steps_per_half
    n_half = (len(traj) - 1) // m
    worst = -math.inf
    for h in range(1, n_half):
        window = traj.lyap[h * m : (h + 1) * m + 1]
        endpoint = max(traj.lyap[h * m], traj.lyap[(h + 1) * m])
        worst = max(worst, float(window.max() - endpoint))
    report(8, worst <= 1e-6, f"max overshoot above endpoint peak={worst:.2e}")


def test_criterion_9_supremum_bound(large_result, lcrit_200, lcrit_400):
    cfg, traj = large_result
    m = cfg.steps_per_half
    n_half = (len(traj) - 1) // m
    settle = next(
        (h for h in range(1, n_half) if traj.lyap[(h + 1) * m] - traj.lyap[h * m] >= 0.0),
        1,
    )
    sup_tail = float(traj.lyap[settle * m :].max())
    bound = lcrit_200["l_critical"] + DELTA_L_CAP
    rel_drift = abs(lcrit_200["l_critical"] - lcrit_400["l_critical"]) / lcrit_400["l_critical"]
    ok = sup_tail <= bound and rel_drift < 0.01
    report(
        9,
        ok,
        f"sup tail={sup_tail:.4f} <= {bound:.4f} (settle n={settle}); "
        f"L_critical drift 200->400 = {rel_drift:.2e}",
    )


def test_criterion_10_iterated_map_matches_simulation(large_result):
    cfg, traj = large_result
    m = cfg.steps_per_half
    e, edot = 1 / (2 * SQRT3), INV3
    sign = +1
    worst = 0.0
    for h in range(1, 21):
        k = h * m
        worst = max(worst, abs(traj.ey[k] - e), abs(traj.eydot[k] - edot))
        if h < 20:
            (e,), (edot,) = half_period_map(e, edot, sign)
            sign = -sign
    report(10, worst < 1e-5, f"max |sim - iterated map| at boundaries = {worst:.2e}")


def test_criterion_11_saturation_cone_equivalence(large_result):
    cfg, traj = large_result
    two_pi = 2.0 * math.pi
    width = (traj.angle_hi - traj.angle_lo) % two_pi
    delta = (traj.angle_des - traj.angle_lo) % two_pi
    inside = delta <= width
    edge_dist = np.minimum(np.abs(delta), np.abs(delta - width))
    clear = edge_dist > 1e-9
    disagreements = int((inside[clear] == traj.clamped[clear]).sum())
    report(
        11,
        disagreements == 0,
        f"{disagreements} disagreements over {int(clear.sum())} samples "
        f"({int((~clear).sum())} within the boundary band)",
    )
