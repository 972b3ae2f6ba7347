"""Runnable invariant suite behind the verify-lemmas command.

Each check exercises one property of the saturated closed loop: the
switch-matrix control rule, the region classification rule, hitting-time
range and residual, quadrant capture, the half-period Lyapunov-change cap,
endpoint-maximality of the Lyapunov log, and odd symmetry of the
half-period map. Checks report pass/fail with details instead of raising,
so a gain setting that breaks the analysis is flagged, not fatal.

Apart from the two controller-rule checks, which exercise the scalar
controller API, the checks work on arrays. ``_sample_region`` draws blocks
of (e, edot) pairs, then redraws exactly the attempts that one scalar draw
per value would have made, so the generator stream, and with it every
report, is the same as with scalar draws. The three grid checks share one
half-period map per yaw sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    DELTA_L_CAP,
    INV_SQRT3,
    _NO_EVENT_ERROR,
    _event_hitting_times,
    _hit_times,
    _linear_flow,
    _map_grid,
    _map_settled,
    _region_mask,
    _require_hits,
    _saturated_flow,
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
    """``n`` admissible states ``(e, edot)`` for the yaw sign, as a scalar loop draws them.

    Each attempt draws e, then edot, uniform on [0, 2) and mirrors them by
    the yaw sign; admissible pairs are kept, and the search gives up after
    1000*n attempts. Attempts are drawn in blocks of n, n, 2n, 4n, ...
    pairs; then the generator is reset and redraws exactly the attempts
    used, so it leaves the stream where one scalar draw per value would.
    """
    start = rng.bit_generator.state
    limit = 1000 * n
    drawn = 0
    hits = np.empty(0, dtype=np.intp)
    while hits.size < n:
        if drawn == limit:
            raise ValueError(f"could not sample {n} admissible states for yaw sign {lambda_sign}")
        size = min(max(drawn, n), limit - drawn)
        e, edot = lambda_sign * rng.uniform(0.0, 2.0, size=(size, 2)).T
        ok = _region_mask(e, edot, lambda_sign, params, 0.0)
        hits = np.concatenate([hits, drawn + np.flatnonzero(ok)])
        drawn += e.size
    rng.bit_generator.state = start
    used = hits[n - 1] + 1 if n else 0
    e, edot = lambda_sign * rng.uniform(0.0, 2.0, size=(used, 2)).T
    return e[hits[:n]], edot[hits[:n]]


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
        e, edot = _sample_region(rng, n, sign, params)
        t = _hit_times(e, edot, sign, params)
        bad = ~((0.0 <= t) & (t < 1.0))
        if bad.any():
            k = bad.argmax()
            _require_hits(t[k], params)
            return LemmaCheck(
                "hitting_time_range",
                False,
                {"state": [float(e[k]), float(edot[k])], "t": float(t[k])},
            )
        worst_t = max(worst_t, float(np.max(t, initial=-math.inf)))
    return LemmaCheck("hitting_time_range", True, {"n_per_region": n, "max_t": worst_t})


def _check_hitting_residual(rng, n, params) -> LemmaCheck:
    signs = (+1, -1)
    samples = [_sample_region(rng, n, sign, params) for sign in signs]
    t_closed = np.concatenate(
        [_hit_times(e, ed, sign, params) for sign, (e, ed) in zip(signs, samples)]
    )
    _require_hits(t_closed, params)
    e, edot = np.concatenate(samples, axis=1)
    t_event = _event_hitting_times(e, edot, np.repeat(signs, n), params)
    if np.isnan(t_event).any():
        raise ValueError(_NO_EVENT_ERROR)
    worst = float(np.max(np.abs(t_closed - t_event), initial=0.0))
    return LemmaCheck(
        "hitting_time_residual", worst < 1e-6, {"max_residual": worst, "tolerance": 1e-6}
    )


def _grid_maps(resolution, params):
    """The resolution x resolution grid on [-2, 2]^2 of each yaw sign, mapped once."""
    return {
        sign: _map_grid((-2.0, 2.0), (-2.0, 2.0), resolution, sign, params, 1.0)
        for sign in (+1, -1)
    }


def _check_capture(maps, params) -> LemmaCheck:
    reports = {sign: m.capture(params) for sign, m in maps.items()}
    passed = all(r.passed for r in reports.values())
    return LemmaCheck(
        "quadrant_capture",
        passed,
        {str(sign): rep.to_dict() for sign, rep in reports.items()},
    )


def _check_self_map(maps, params) -> LemmaCheck:
    start = maps[+1]
    start.delta_l(params)  # raises if a start cell does not settle
    mid_e, mid_ed = start.e1, start.ed1
    mid_ok = _region_mask(mid_e, mid_ed, -1, params, 0.0)
    end_e, end_ed = _map_settled(mid_e[mid_ok], mid_ed[mid_ok], -1, params, 1.0)
    end_ok = _region_mask(end_e, end_ed, +1, params, 0.0)
    bad = int((~mid_ok).sum() + (~end_ok).sum())
    return LemmaCheck(
        "two_half_period_self_map",
        bad == 0,
        {"n_checked": int(start.e0.size), "n_violations": bad},
    )


def _check_delta_l_bound(maps, params) -> LemmaCheck:
    tol = 1e-3
    details = {}
    ok = True
    for sign in (+1, -1):
        grid = maps[sign].delta_l(params)
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
        e0, edot0 = _sample_region(rng, n, sign, params)
        t_hit = _hit_times(e0, edot0, sign, params)[:, None]
        _require_hits(t_hit, params)
        e0, edot0 = e0[:, None], edot0[:, None]
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
    e, edot = _sample_region(rng, n, +1, params)
    fwd_e, fwd_ed = _map_settled(e, edot, +1, params, 1.0)
    mirrored_e, mirrored_ed = _map_settled(-e, -edot, -1, params, 1.0)
    diffs = np.abs(np.concatenate([fwd_e + mirrored_e, fwd_ed + mirrored_ed]))
    worst = float(np.max(diffs, initial=0.0))
    return LemmaCheck("odd_symmetry", worst < 1e-12, {"max_abs_diff": worst})


def run_lemma_checks(
    params: ModelParams = DEFAULT_PARAMS,
    resolution: int = 200,
    seed: int = 0,
    n_samples: int = 200,
) -> dict:
    """Run the whole invariant suite and return a JSON-ready report."""
    rng = np.random.default_rng(seed)
    # the three grid checks share one map per sign; an exception is not
    # cached, so a map that raises fails each of them, as it did one by one
    grid_maps = functools.cache(lambda: _grid_maps(resolution, params))
    checks = [
        _guarded("clamp_switch_consistency", lambda: _check_clamp_rule(rng, n_samples, params)),
        _guarded("region_rule_consistency", lambda: _check_region_rule(rng, n_samples, params)),
        _guarded("hitting_time_range", lambda: _check_hitting_range(rng, n_samples, params)),
        _guarded(
            "hitting_time_residual",
            lambda: _check_hitting_residual(rng, max(10, n_samples // 10), params),
        ),
        _guarded("quadrant_capture", lambda: _check_capture(grid_maps(), params)),
        _guarded("two_half_period_self_map", lambda: _check_self_map(grid_maps(), params)),
        _guarded("delta_l_bound", lambda: _check_delta_l_bound(grid_maps(), params)),
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
