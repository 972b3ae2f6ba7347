"""Runnable invariant suite behind the verify-lemmas command.

Each check exercises one property of the saturated closed loop: the
switch-matrix control rule, the region classification rule, hitting-time
range and residual, quadrant capture, the half-period Lyapunov-change cap,
endpoint-maximality of the Lyapunov log, and odd symmetry of the
half-period map. Checks report pass/fail with details instead of raising,
so a gain setting that breaks the analysis is flagged, not fatal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    DELTA_L_CAP,
    ErrorState,
    INV_SQRT3,
    _NO_EVENT_ERROR,
    _event_hitting_times,
    _linear_flow,
    _map_settled,
    _region_mask,
    _saturated_flow,
    delta_l_grid,
    half_period_map,
    hitting_time_neg,
    hitting_time_pos,
    in_admissible_region,
    verify_quadrant_capture,
)
from .controller import (
    RawCommand,
    clamp,
    classify_region,
    desired_accel,
    raw_inversion,
    switch_matrix_of,
)
from .gait import reference_at
from .plant import DEFAULT_PARAMS, ModelParams, VehicleState

__all__ = ["LemmaCheck", "run_lemma_checks"]


@dataclass
class LemmaCheck:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _guarded(name: str, fn) -> LemmaCheck:
    try:
        return fn()
    except Exception as exc:  # a failing gain set must be reported, not fatal
        return LemmaCheck(name, False, {"error": f"{type(exc).__name__}: {exc}"})


def _sample_region(rng, n, lambda_sign, params):
    states = []
    attempts = 0
    while len(states) < n:
        attempts += 1
        if attempts > 1000 * n:
            raise ValueError(
                f"could not sample {n} admissible states for yaw sign {lambda_sign}"
            )
        e = rng.uniform(0.0, 2.0)
        edot = rng.uniform(0.0, 2.0)
        s = ErrorState(lambda_sign * e, lambda_sign * edot)
        if in_admissible_region(s, lambda_sign, params):
            states.append(s)
    return states


def _closed_hitting_time(s, sign, params) -> float:
    return hitting_time_pos(s, params) if sign > 0 else hitting_time_neg(s, params)


def _check_clamp_rule(rng, n, params) -> LemmaCheck:
    worst = 0.0
    for _ in range(n):
        raw = RawCommand(rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0))
        cmd = clamp(raw)
        sm = switch_matrix_of(raw)
        via_matrix = sm.matrix() @ np.array([raw.sq1, raw.sq2])
        worst = max(worst, abs(via_matrix[0] - cmd.w1sq), abs(via_matrix[1] - cmd.w2sq))
    return LemmaCheck("clamp_switch_consistency", worst == 0.0, {"max_abs_diff": worst, "n": n})


def _check_region_rule(rng, n, params) -> LemmaCheck:
    bad = 0
    checked = 0
    t = 0.7
    ref = reference_at(t)
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
    return LemmaCheck(
        "region_rule_consistency", bad == 0, {"n_checked": checked, "n_violations": bad}
    )


def _check_hitting_range(rng, n, params) -> LemmaCheck:
    worst_t = -math.inf
    for sign in (+1, -1):
        for s in _sample_region(rng, n, sign, params):
            t = _closed_hitting_time(s, sign, params)
            if not (0.0 <= t < 1.0):
                return LemmaCheck(
                    "hitting_time_range", False, {"state": [s.e, s.edot], "t": t}
                )
            worst_t = max(worst_t, t)
    return LemmaCheck("hitting_time_range", True, {"n_per_region": n, "max_t": worst_t})


def _check_hitting_residual(rng, n, params) -> LemmaCheck:
    samples = [(sign, s) for sign in (+1, -1) for s in _sample_region(rng, n, sign, params)]
    t_closed = np.array([_closed_hitting_time(s, sign, params) for sign, s in samples])
    signs, e, edot = np.array([(sign, s.e, s.edot) for sign, s in samples]).T
    t_event = _event_hitting_times(e, edot, signs, params)
    if np.isnan(t_event).any():
        raise ValueError(_NO_EVENT_ERROR)
    worst = float(np.max(np.abs(t_closed - t_event), initial=0.0))
    return LemmaCheck(
        "hitting_time_residual", worst < 1e-6, {"max_residual": worst, "tolerance": 1e-6}
    )


def _check_capture(resolution, params) -> LemmaCheck:
    reports = {
        sign: verify_quadrant_capture((-2.0, 2.0), (-2.0, 2.0), resolution, sign, params)
        for sign in (+1, -1)
    }
    passed = all(r.passed for r in reports.values())
    return LemmaCheck(
        "quadrant_capture",
        passed,
        {str(sign): rep.to_dict() for sign, rep in reports.items()},
    )


def _check_self_map(resolution, params) -> LemmaCheck:
    e_vals = np.linspace(-2.0, 2.0, resolution)
    E, Ed = np.meshgrid(e_vals, e_vals, indexing="ij")
    start = _region_mask(E, Ed, +1, params, 0.0)
    mid_e, mid_ed = _map_settled(E[start], Ed[start], +1, params, 1.0)
    mid_ok = _region_mask(mid_e, mid_ed, -1, params, 0.0)
    end_e, end_ed = _map_settled(mid_e[mid_ok], mid_ed[mid_ok], -1, params, 1.0)
    end_ok = _region_mask(end_e, end_ed, +1, params, 0.0)
    bad = int((~mid_ok).sum() + (~end_ok).sum())
    return LemmaCheck(
        "two_half_period_self_map",
        bad == 0,
        {"n_checked": int(start.sum()), "n_violations": bad},
    )


def _check_delta_l_bound(resolution, params) -> LemmaCheck:
    tol = 1e-3
    details = {}
    ok = True
    for sign in (+1, -1):
        grid = delta_l_grid((-2.0, 2.0), (-2.0, 2.0), resolution, sign, params)
        peak = grid.max_delta_l()
        arg = grid.argmax_state()
        if peak is None:
            details[str(sign)] = {"max_delta_l": None}
            continue
        de = float(grid.e_values[1] - grid.e_values[0]) if len(grid.e_values) > 1 else 0.0
        line_dist = None
        if arg is not None:
            g = params.ky1 * arg.edot + params.ky2 * arg.e
            line_dist = abs(g - sign * INV_SQRT3) / math.hypot(params.ky2, params.ky1)
        details[str(sign)] = {
            "max_delta_l": peak,
            "argmax": None if arg is None else [arg.e, arg.edot],
            "distance_to_threshold_line": line_dist,
            "cell_size": de,
        }
        if peak > DELTA_L_CAP + tol:
            ok = False
        if line_dist is not None and de > 0.0 and line_dist > math.hypot(de, de):
            ok = False
    return LemmaCheck("delta_l_bound", ok, details)


def _check_local_max(rng, n, params) -> LemmaCheck:
    worst = -math.inf
    taus = np.linspace(0.0, 1.0, 201)
    for sign in (+1, -1):
        states = _sample_region(rng, n, sign, params)
        t_hit = np.array([_closed_hitting_time(s, sign, params) for s in states])[:, None]
        e0, edot0 = np.array([(s.e, s.edot) for s in states]).T[:, :, None]
        e_mid, edot_mid = _linear_flow(e0, edot0, t_hit, params)
        e_lin, edot_lin = _linear_flow(e0, edot0, taus, params)
        e_sat, edot_sat = _saturated_flow(e_mid, edot_mid, taus - t_hit, -sign * INV_SQRT3)
        on_lin = taus <= t_hit
        e = np.where(on_lin, e_lin, e_sat)
        edot = np.where(on_lin, edot_lin, edot_sat)
        values = 0.5 * edot * edot + 0.5 * params.ky2 * e * e
        endpoint = np.maximum(values[:, 0], values[:, -1])
        worst = max(worst, float(np.max(values.max(axis=1) - endpoint)))
    return LemmaCheck(
        "lyapunov_local_max", worst <= 1e-9, {"max_overshoot": worst, "tolerance": 1e-9}
    )


def _check_odd_symmetry(rng, n, params) -> LemmaCheck:
    worst = 0.0
    for s in _sample_region(rng, n, +1, params):
        fwd = half_period_map(s, +1, params)
        mirrored = half_period_map(ErrorState(-s.e, -s.edot), -1, params)
        worst = max(worst, abs(fwd.e + mirrored.e), abs(fwd.edot + mirrored.edot))
    return LemmaCheck("odd_symmetry", worst < 1e-12, {"max_abs_diff": worst})


def run_lemma_checks(
    params: ModelParams = DEFAULT_PARAMS,
    resolution: int = 200,
    seed: int = 0,
    n_samples: int = 200,
) -> dict:
    """Run the whole invariant suite and return a JSON-ready report."""
    rng = np.random.default_rng(seed)
    checks = [
        _guarded("clamp_switch_consistency", lambda: _check_clamp_rule(rng, n_samples, params)),
        _guarded("region_rule_consistency", lambda: _check_region_rule(rng, n_samples, params)),
        _guarded("hitting_time_range", lambda: _check_hitting_range(rng, n_samples, params)),
        _guarded(
            "hitting_time_residual",
            lambda: _check_hitting_residual(rng, max(10, n_samples // 10), params),
        ),
        _guarded("quadrant_capture", lambda: _check_capture(resolution, params)),
        _guarded("two_half_period_self_map", lambda: _check_self_map(resolution, params)),
        _guarded("delta_l_bound", lambda: _check_delta_l_bound(resolution, params)),
        _guarded(
            "lyapunov_local_max", lambda: _check_local_max(rng, max(10, n_samples // 10), params)
        ),
        _guarded("odd_symmetry", lambda: _check_odd_symmetry(rng, max(10, n_samples // 4), params)),
    ]
    return {
        "passed": all(c.passed for c in checks),
        "seed": seed,
        "resolution": resolution,
        "gains": {"ky1": params.ky1, "ky2": params.ky2, "kx1": params.kx1, "kx2": params.kx2},
        "checks": [c.to_dict() for c in checks],
    }
