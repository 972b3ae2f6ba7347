"""Runnable invariant suite behind the verify-lemmas command.

Each check exercises one property of the saturated closed loop: the
switch-matrix control rule, the region classification rule, hitting-time
range and residual, quadrant capture, the half-period Lyapunov-change cap,
endpoint-maximality of the Lyapunov log, and odd symmetry of the
half-period map. Each check function returns ``(passed, detail)``, and
``check`` turns it into the dict that the report holds: an exception fails
the check with its type and message, so a gain setting that breaks the
analysis is flagged, not fatal. ``verify_trajectory`` builds the
``simulate`` report with the same ``check``.

The checks work on arrays; the controller-rule checks call each controller
function once (per yaw sign) on a block of values. ``_sample_region`` draws
blocks of (e, edot) pairs and keeps the admissible ones in draw order. The
three grid checks share one half-period map per yaw sign.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .analysis import (
    DELTA_L_CAP,
    INV_SQRT3,
    _NO_EVENT_ERROR,
    _capture,
    _map_grid,
    _pd_output,
    _require_hits,
    half_period_map,
    hitting_time,
    hitting_time_simulated,
    in_admissible_region,
    lyapunov,
    s11_flow,
    saturated_flow,
)
from .controller import clamp, classify_region, desired_accel, raw_inversion, switch_matrix_of
from .gait import reference_at
from .plant import DEFAULT_PARAMS, ModelParams, VehicleState

__all__ = ["NotApplicable", "check", "run_lemma_checks"]

_N_SAMPLES = 200  # states per sampled check


class NotApplicable(Exception):
    """Raised while evaluating a check that turns out not to apply; the message is the reason."""


def check(name: str, reason: str | None, evaluate) -> dict:
    """The verdict of ``evaluate() -> (passed, detail)``, unless ``reason`` says it does not apply.

    The verdict is the dict ``{"name", "applicable", "passed", "detail"}``
    that the reports write. A not-applicable reason, given or raised as
    ``NotApplicable``, gives a passing check with ``applicable`` false and
    the reason in ``note``; any other exception gives a failing check with
    ``"<Type>: <message>"`` in ``error``.
    """
    try:
        if reason:
            raise NotApplicable(reason)
        passed, detail = evaluate()
    except NotApplicable as exc:
        return {"name": name, "applicable": False, "passed": True, "detail": {"note": str(exc)}}
    except Exception as exc:  # a check that cannot be computed is reported, not fatal
        passed, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
    return {"name": name, "applicable": True, "passed": passed, "detail": detail}


def _sample_region(rng, n, lambda_sign, params):
    """``n`` admissible states for the yaw sign, as the rows ``e, edot`` of a 2 x n array.

    Attempts are drawn in blocks of n, n, 2n, 4n, ... pairs (e, edot),
    uniform on [0, 2) and mirrored by the yaw sign; each block keeps its
    admissible pairs in draw order, and the search gives up after 1000*n
    attempts.
    """
    limit = 1000 * n
    drawn = 0
    kept = np.empty((2, 0))
    while kept.shape[1] < n:
        if drawn == limit:
            raise ValueError(f"could not sample {n} admissible states for yaw sign {lambda_sign}")
        size = min(max(drawn, n), limit - drawn)
        pairs = lambda_sign * rng.uniform(0.0, 2.0, size=(size, 2)).T
        inside = in_admissible_region(*pairs, lambda_sign, params)
        kept = np.concatenate([kept, pairs[:, inside]], axis=1)
        drawn += size
    return kept[:, :n]


def _check_clamp_rule(rng, n, params) -> tuple[bool, dict]:
    sq1, sq2 = rng.uniform(-1000.0, 1000.0, size=(n, 2)).T
    (w1sq, w2sq), (p, q) = clamp(sq1, sq2), switch_matrix_of(sq1, sq2)
    # the diagonal switch matrix applied to the raw command
    diffs = np.abs(np.concatenate([p * sq1 - w1sq, q * sq2 - w2sq]))
    worst = float(np.max(diffs, initial=0.0))
    return worst == 0.0, {"max_abs_diff": worst, "n": n}


def _check_region_rule(rng, n, params) -> tuple[bool, dict]:
    e, edot = rng.uniform(-2.0, 2.0, size=(n, 2)).T
    # a state is checked where the float command resolves the rule to 1e-9 in
    # the PD output g: g is that far from a threshold line, and the command
    # terms, of g's size, round by less (else one command cancels to a residue)
    g = np.abs(_pd_output(e, edot, params))
    far = (np.abs(g - INV_SQRT3) >= 1e-9) & (g * np.finfo(float).eps < 1e-9)
    if not far.any():
        raise NotApplicable(f"float rounding cannot resolve the rule at any of {n} states")
    e, edot = e[far], edot[far]
    ref = reference_at(0.7)
    state = VehicleState(ref.xr, -e, ref.vxr, -edot)
    ax_d, ay_d = desired_accel(state, ref, params)
    bad = 0
    for sign in (-1, 1):
        sq1, sq2 = raw_inversion(ax_d, ay_d, sign * math.pi / 3, params)
        rule, exact = classify_region(e, edot, sign, params), switch_matrix_of(sq1, sq2)
        bad += int(np.count_nonzero((rule[0] != exact[0]) | (rule[1] != exact[1])))
    return bad == 0, {"n_checked": 2 * e.size, "n_violations": bad}


def _check_hitting_range(rng, n, params) -> tuple[bool, dict]:
    worst_t = -math.inf
    for sign in (+1, -1):
        e, edot = _sample_region(rng, n, sign, params)
        t = hitting_time(e, edot, sign, params)
        bad = ~((0.0 <= t) & (t < 1.0))
        if bad.any():
            k = bad.argmax()
            _require_hits(t[k], e[k], edot[k], params)
            return False, {"state": [float(e[k]), float(edot[k])], "t": float(t[k])}
        worst_t = max(worst_t, float(np.max(t, initial=-math.inf)))
    return True, {"n_per_region": n, "max_t": worst_t}


def _check_hitting_residual(rng, n, params) -> tuple[bool, dict]:
    signs = (+1, -1)
    samples = [_sample_region(rng, n, sign, params) for sign in signs]
    t_closed = np.concatenate([hitting_time(*s, sign, params) for sign, s in zip(signs, samples)])
    e, edot = np.concatenate(samples, axis=1)
    _require_hits(t_closed, e, edot, params)
    t_event = hitting_time_simulated(e, edot, np.repeat(signs, n), params)
    if np.isnan(t_event).any():
        raise ValueError(_NO_EVENT_ERROR)
    worst = float(np.max(np.abs(t_closed - t_event), initial=0.0))
    return worst < 1e-6, {"max_residual": worst, "tolerance": 1e-6}


def _check_capture(maps, params) -> tuple[bool, dict]:
    reports = {str(sign): _capture(*m, params) for sign, m in maps.items()}
    return all(r["passed"] for r in reports.values()), reports


def _check_self_map(maps, params) -> tuple[bool, dict]:
    _, e0, _, mid_e, mid_ed = maps[+1]
    mid_ok = in_admissible_region(mid_e, mid_ed, -1, params)
    end_e, end_ed = half_period_map(mid_e[mid_ok], mid_ed[mid_ok], -1, params, 1.0)
    end_ok = in_admissible_region(end_e, end_ed, +1, params)
    bad = int((~mid_ok).sum() + (~end_ok).sum())
    return bad == 0, {"n_checked": int(e0.size), "n_violations": bad}


def _check_delta_l_bound(maps, params) -> tuple[bool, dict]:
    tol = 1e-3
    details = {}
    ok = True
    for sign in (+1, -1):
        grid = maps[sign][0]
        n_bad = int(np.count_nonzero(grid.mask & ~np.isfinite(grid.values)))
        if n_bad:  # the maximum would be NaN, which strict JSON cannot hold
            raise ValueError(
                f"half-period Lyapunov change is not finite at {n_bad} of "
                f"{grid.n_admissible} admissible cells, yaw sign {sign}"
            )
        peak = grid.max_delta_l()
        if peak is None:
            details[str(sign)] = {"max_delta_l": None}
            continue
        arg = list(grid.argmax_state())
        de = float(grid.e_values[1] - grid.e_values[0]) if len(grid.e_values) > 1 else 0.0
        g = _pd_output(*arg, params)
        line_dist = abs(g - sign * INV_SQRT3) / math.hypot(params.ky2, params.ky1)
        details[str(sign)] = {
            "max_delta_l": peak,
            "argmax": arg,
            "distance_to_threshold_line": line_dist,
            "cell_size": de,
        }
        if peak > DELTA_L_CAP + tol:
            ok = False
        if de > 0.0 and line_dist > math.hypot(de, de):
            ok = False
    return ok, details


def _check_local_max(rng, n, params) -> tuple[bool, dict]:
    worst = -math.inf
    taus = np.linspace(0.0, 1.0, 201)
    for sign in (+1, -1):
        e0, edot0 = _sample_region(rng, n, sign, params)
        t_hit = hitting_time(e0, edot0, sign, params)[:, None]  # NaN where there is no crossing
        e0, edot0 = e0[:, None], edot0[:, None]
        e_mid, edot_mid = s11_flow(e0, edot0, t_hit, params)
        e_lin, edot_lin = s11_flow(e0, edot0, taus, params)
        e_sat, edot_sat = saturated_flow(e_mid, edot_mid, taus - t_hit, -sign * INV_SQRT3)
        on_lin = taus <= t_hit
        e = np.where(on_lin, e_lin, e_sat)
        edot = np.where(on_lin, edot_lin, edot_sat)
        values = lyapunov(e, edot, params)
        overshoot = values.max(axis=1) - np.maximum(values[:, 0], values[:, -1])
        n_nan = int(np.isnan(overshoot).sum())
        if n_nan:  # no crossing, or a NaN flow: Python's max would drop a NaN and pass on nothing
            raise ValueError(f"Lyapunov overshoot is NaN at {n_nan} of {n} states, yaw sign {sign}")
        worst = max(worst, float(np.max(overshoot)))
    return worst <= 1e-9, {"max_overshoot": worst, "tolerance": 1e-9}


def _check_odd_symmetry(rng, n, params) -> tuple[bool, dict]:
    """The -1 map of mirrored cells against the +1 map, mirrored back.

    0.0 by construction: ``half_period_map(-e, -edot, -1)`` runs as
    ``half_period_map(e, edot, +1)``.
    The check stays because the benchmark's pins list every check by name.
    """
    e, edot = _sample_region(rng, n, +1, params)
    fwd_e, fwd_ed = half_period_map(e, edot, +1, params, 1.0)
    mirrored_e, mirrored_ed = half_period_map(-e, -edot, -1, params, 1.0)
    diffs = np.abs(np.concatenate([fwd_e + mirrored_e, fwd_ed + mirrored_ed]))
    n_bad = diffs.size - int(np.count_nonzero(np.isfinite(diffs)))
    if n_bad:  # np.max would report NaN, which strict JSON cannot hold
        raise ValueError(f"odd-symmetry difference is not finite at {n_bad} of {diffs.size} values")
    worst = float(np.max(diffs, initial=0.0))
    return worst < 1e-12, {"max_abs_diff": worst}


def run_lemma_checks(
    params: ModelParams = DEFAULT_PARAMS, resolution: int = 200, seed: int = 0
) -> dict:
    """Run the whole invariant suite and return a JSON-ready report.

    The sampled checks draw ``_N_SAMPLES`` states per check (or a tenth or a
    quarter of it) from one generator seeded with ``seed``; the grid checks
    map a ``resolution`` x ``resolution`` grid per yaw sign.
    """
    rng = np.random.default_rng(seed)
    # the three grid checks share one map of the grid on [-2, 2]^2 per sign; an
    # exception is not cached, so a map that raises fails each of them
    box = (-2.0, 2.0)
    grid_maps = functools.cache(
        lambda: {sign: _map_grid(box, box, resolution, sign, params, 1.0) for sign in (+1, -1)}
    )
    few = max(10, _N_SAMPLES // 10)
    suite = {
        "clamp_switch_consistency": lambda: _check_clamp_rule(rng, _N_SAMPLES, params),
        "region_rule_consistency": lambda: _check_region_rule(rng, _N_SAMPLES, params),
        "hitting_time_range": lambda: _check_hitting_range(rng, _N_SAMPLES, params),
        "hitting_time_residual": lambda: _check_hitting_residual(rng, few, params),
        "quadrant_capture": lambda: _check_capture(grid_maps(), params),
        "two_half_period_self_map": lambda: _check_self_map(grid_maps(), params),
        "delta_l_bound": lambda: _check_delta_l_bound(grid_maps(), params),
        "lyapunov_local_max": lambda: _check_local_max(rng, few, params),
        "odd_symmetry": lambda: _check_odd_symmetry(rng, max(10, _N_SAMPLES // 4), params),
    }
    checks = [check(name, None, evaluate) for name, evaluate in suite.items()]
    return {
        "passed": all(c["passed"] for c in checks),
        "seed": seed,
        "resolution": resolution,
        "gains": {"ky1": params.ky1, "ky2": params.ky2, "kx1": params.kx1, "kx2": params.kx2},
        "checks": checks,
    }
