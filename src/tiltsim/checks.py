"""Runnable invariant suite behind the verify-lemmas command.

Each check exercises one property of the saturated closed loop: the
switch-matrix control rule, the region classification rule, hitting-time
range and residual, quadrant capture, the half-period Lyapunov-change cap,
endpoint-maximality of the Lyapunov log, and odd symmetry of the
half-period map. Each check function returns ``(passed, detail)``, and
``check`` turns it into a ``Check``: an exception fails the check with its
type and message, so a gain setting that breaks the analysis is flagged,
not fatal. ``verify_trajectory`` builds the ``simulate`` report with the
same ``Check`` and ``check``.

The checks work on arrays; the controller-rule checks call each controller
function once (per yaw sign) on a block of values. ``_sample_region`` draws
blocks of (e, edot) pairs, then redraws exactly the attempts that one scalar
draw per value would have made, so the generator stream, and with it every
report, is the same as with scalar draws. The three grid checks share one
half-period map per yaw sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

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
    _pd_output,
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

__all__ = ["Check", "NotApplicable", "check", "run_lemma_checks"]

_N_SAMPLES = 200  # states per sampled check


@dataclass
class Check:
    """One property's verdict; a check that does not apply passes."""

    name: str
    applicable: bool
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


class NotApplicable(Exception):
    """Raised while evaluating a check that turns out not to apply; the message is the reason."""


def check(name: str, reason: str | None, evaluate) -> Check:
    """The verdict of ``evaluate() -> (passed, detail)``, unless ``reason`` says it does not apply.

    A not-applicable reason, given or raised as ``NotApplicable``, gives a
    passing check with ``applicable`` false and the reason in ``note``; any
    other exception gives a failing check with ``"<Type>: <message>"`` in
    ``error``.
    """
    try:
        if reason:
            raise NotApplicable(reason)
        passed, detail = evaluate()
    except NotApplicable as exc:
        return Check(name, False, True, {"note": str(exc)})
    except Exception as exc:  # a check that cannot be computed is reported, not fatal
        return Check(name, True, False, {"error": f"{type(exc).__name__}: {exc}"})
    return Check(name, True, passed, detail)


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
        ok = _region_mask(e, edot, lambda_sign, params)
        hits = np.concatenate([hits, drawn + np.flatnonzero(ok)])
        drawn += e.size
    rng.bit_generator.state = start
    used = hits[n - 1] + 1 if n else 0
    e, edot = lambda_sign * rng.uniform(0.0, 2.0, size=(used, 2)).T
    return e[hits[:n]], edot[hits[:n]]


def _check_clamp_rule(rng, n, params) -> tuple[bool, dict]:
    raw = RawCommand(*rng.uniform(-1000.0, 1000.0, size=(n, 2)).T)
    cmd, sm = clamp(raw), switch_matrix_of(raw)
    # the diagonal switch matrix applied to the raw command
    diffs = np.abs(np.concatenate([sm.p * raw.sq1 - cmd.w1sq, sm.q * raw.sq2 - cmd.w2sq]))
    worst = float(np.max(diffs, initial=0.0))
    return worst == 0.0, {"max_abs_diff": worst, "n": n}


def _check_region_rule(rng, n, params) -> tuple[bool, dict]:
    e, edot = rng.uniform(-2.0, 2.0, size=(n, 2)).T
    # states on a threshold line are left out: rounding decides their pattern
    far = np.abs(np.abs(_pd_output(e, edot, params)) - INV_SQRT3) >= 1e-9
    e, edot = e[far], edot[far]
    ref = reference_at(0.7)
    state = VehicleState(ref.xr, -e, ref.vxr, -edot)
    acc = desired_accel(state, ref, params)
    bad = 0
    for sign in (-1, 1):
        raw = raw_inversion(acc, sign * math.pi / 3, params)
        rule, exact = classify_region(e, edot, sign, params), switch_matrix_of(raw)
        bad += int(np.count_nonzero((rule.p != exact.p) | (rule.q != exact.q)))
    return bad == 0, {"n_checked": 2 * e.size, "n_violations": bad}


def _check_hitting_range(rng, n, params) -> tuple[bool, dict]:
    worst_t = -math.inf
    for sign in (+1, -1):
        e, edot = _sample_region(rng, n, sign, params)
        t = _hit_times(e, edot, sign, params)
        bad = ~((0.0 <= t) & (t < 1.0))
        if bad.any():
            k = bad.argmax()
            _require_hits(t[k], params)
            return False, {"state": [float(e[k]), float(edot[k])], "t": float(t[k])}
        worst_t = max(worst_t, float(np.max(t, initial=-math.inf)))
    return True, {"n_per_region": n, "max_t": worst_t}


def _check_hitting_residual(rng, n, params) -> tuple[bool, dict]:
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
    return worst < 1e-6, {"max_residual": worst, "tolerance": 1e-6}


def _grid_maps(resolution, params):
    """The resolution x resolution grid on [-2, 2]^2 of each yaw sign, mapped once."""
    return {
        sign: _map_grid((-2.0, 2.0), (-2.0, 2.0), resolution, sign, params, 1.0)
        for sign in (+1, -1)
    }


def _check_capture(maps, params) -> tuple[bool, dict]:
    reports = {sign: m.capture(params) for sign, m in maps.items()}
    passed = all(r.passed for r in reports.values())
    return passed, {str(sign): rep.to_dict() for sign, rep in reports.items()}


def _check_self_map(maps, params) -> tuple[bool, dict]:
    start = maps[+1]
    start.delta_l(params)  # raises if a start cell does not settle
    mid_e, mid_ed = start.e1, start.ed1
    mid_ok = _region_mask(mid_e, mid_ed, -1, params)
    end_e, end_ed = _map_settled(mid_e[mid_ok], mid_ed[mid_ok], -1, params, 1.0)
    end_ok = _region_mask(end_e, end_ed, +1, params)
    bad = int((~mid_ok).sum() + (~end_ok).sum())
    return bad == 0, {"n_checked": int(start.e0.size), "n_violations": bad}


def _check_delta_l_bound(maps, params) -> tuple[bool, dict]:
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
            g = _pd_output(arg.e, arg.edot, params)
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
    return ok, details


def _check_local_max(rng, n, params) -> tuple[bool, dict]:
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
    return worst <= 1e-9, {"max_overshoot": worst, "tolerance": 1e-9}


def _check_odd_symmetry(rng, n, params) -> tuple[bool, dict]:
    """The -1 map of mirrored cells against the +1 map, mirrored back.

    0.0 by construction: ``_map(-e, -edot, -1)`` runs as ``_map(e, edot, +1)``.
    The check stays because ``lemma_report.json`` is pinned.
    """
    e, edot = _sample_region(rng, n, +1, params)
    fwd_e, fwd_ed = _map_settled(e, edot, +1, params, 1.0)
    mirrored_e, mirrored_ed = _map_settled(-e, -edot, -1, params, 1.0)
    diffs = np.abs(np.concatenate([fwd_e + mirrored_e, fwd_ed + mirrored_ed]))
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
    # the three grid checks share one map per sign; an exception is not
    # cached, so a map that raises fails each of them, as it did one by one
    grid_maps = functools.cache(lambda: _grid_maps(resolution, params))
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
        "passed": all(c.passed for c in checks),
        "seed": seed,
        "resolution": resolution,
        "gains": {"ky1": params.ky1, "ky2": params.ky2, "kx1": params.kx1, "kx2": params.kx2},
        "checks": [c.to_dict() for c in checks],
    }
