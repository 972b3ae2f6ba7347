"""Phase-plane machinery for the saturated lateral error dynamics.

Everything here lives in the lateral error plane (e, edot) under the
exact-x-tracking regime of the large gait: the yaw alternates between
-pi/3 and +pi/3 every half period, the x channel tracks exactly, and the
lateral channel switches between an unsaturated linear decay and a
constant-acceleration push of magnitude 1/sqrt(3) whenever one rotor
command sits on its zero bound. The geometric constants (the 1/sqrt(3)
push and the +/- 1/sqrt(3) switching threshold) are specific to the
pi/6 tilt half-angle and pi/3 yaw amplitude; the PD gains are free
parameters.

Start cells lie in a capture region, so the half-period map is one linear
decay up to the first threshold crossing, capped at the half period, then
the push for the rest of it: under the push the PD output is concave and
keeps falling once it is at or below the threshold. The linear flow is
evaluated analytically (2x2 linear ODE) for any positive gains, and only
the hitting time depends on them. ``_hit_times`` takes the closed form at
the default gain pair (ky1, ky2) = (9, 18), whose decay rates are -3 and
-6. Elsewhere it brackets each cell's first crossing exactly, from the ODE
that the PD output shares with the flow, and one array root solve
(``_newton``) refines the brackets of all cells together: a regula falsi
point, then Newton steps on the closed-form slope of the PD output, 6 to
12 passes on a sweep's grid.

``_map`` takes arrays of start cells, mirrors the yaw sign -1 into +1
exactly, and is what every grid, capture check, critical-level search and
single-state map goes through. A grid is mapped once (``_map_grid``) for
the Lyapunov-change grid, the capture check and the grid checks of
``verify-lemmas`` alike.

The critical-level search grows a bracket from the grid maximum by 1.25x,
up to 60 times. A level's region cells are mapped in one call per yaw
sign. Once the first level meets the nonnegative-change set, the first
+1-region ellipse cell of each further level is mapped in one call; a
level whose first cell gains energy meets the set for sure and is skipped.
``sweep-delta-l`` hands its own grid to the search (``_critical_from``),
so only the other sign's grid is computed again.

No command loads ``scipy.optimize``: the map and the event oracle solve with
numpy alone.

The closed forms are cross-checked by an independent event oracle,
``_event_hitting_times``, behind ``hitting_time_simulated``: fixed-step RK4
on the unsaturated flow, which is linear, so one step is a 2x2 matrix R.
The scan evaluates every state's threshold gap at each step of a block of
steps from the powers R^1..R^B, and the bracketing steps of all states are
refined together by ``_newton`` on the gap after eight RK4 sub-steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
# No code path uses scipy. The benchmark reads ``sys.modules["scipy"]`` and
# wraps ``brentq`` by name, so both stay until the benchmark stops using them.
import scipy

from .plant import DEFAULT_PARAMS, ModelParams

__all__ = [
    "ErrorState",
    "INV_SQRT3",
    "DELTA_L_CAP",
    "lyapunov",
    "s11_flow",
    "saturated_flow",
    "in_admissible_region",
    "hitting_time",
    "hitting_time_simulated",
    "half_period_map",
    "delta_l",
    "DeltaLGrid",
    "delta_l_grid",
    "CaptureReport",
    "verify_quadrant_capture",
    "CriticalLyapunov",
    "critical_lyapunov",
    "acceleration_angle",
    "feasible_cone",
    "angle_in_cone",
]

INV_SQRT3 = 1.0 / math.sqrt(3.0)
TWO_PI = 2.0 * math.pi

# Largest possible Lyapunov increase over one half period (default gains);
# attained on the switching threshold at edot = 0.
DELTA_L_CAP = 0.75

_EVENT_BLOCK = 1024  # RK4 steps per scan block of the event oracle; a power of two
_EVENT_T_MAX = 8.0
_RTOL = 4.0 * np.finfo(float).eps  # brentq's relative tolerance
_EVENT_STEP = 1e-4  # RK4 step of the event oracle
_NO_EVENT_ERROR = f"no threshold crossing detected within {_EVENT_T_MAX} s"
_REFINE_TOL = 1e-4  # width at which the critical-level bisection stops
_N_ANGLES = 4096  # ellipse angles per level of the critical-level search


def brentq(f, a, b, **kwargs):
    """``scipy.optimize.brentq``, with ``scipy.optimize`` imported on first use.

    No code path calls it (the engines use ``_newton``): it stays for a
    benchmark span until ROADMAP item 1.
    """
    import scipy.optimize

    return scipy.optimize.brentq(f, a, b, **kwargs)


@dataclass(frozen=True)
class ErrorState:
    """Lateral position error and its rate."""

    e: float
    edot: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.e) and math.isfinite(self.edot)):
            raise ValueError(f"error state must be finite, got ({self.e}, {self.edot})")


def lyapunov(s: ErrorState, params: ModelParams = DEFAULT_PARAMS) -> float:
    """Lateral error energy edot^2/2 + ky2*e^2/2 (paper API; no command calls it)."""
    return 0.5 * s.edot * s.edot + 0.5 * params.ky2 * s.e * s.e


def _has_default_rates(params: ModelParams) -> bool:
    return params.ky1 == 9.0 and params.ky2 == 18.0


def _linear_flow(e0, edot0, t, params: ModelParams):
    """Analytic flow of edotdot = -ky1*edot - ky2*e; array friendly."""
    k1, k2 = params.ky1, params.ky2
    disc = k1 * k1 - 4.0 * k2
    if disc > 0.0:
        rad = math.sqrt(disc)
        r1, r2 = (-k1 + rad) / 2.0, (-k1 - rad) / 2.0
        c1 = (edot0 - r2 * e0) / (r1 - r2)
        c2 = (r1 * e0 - edot0) / (r1 - r2)
        x1, x2 = np.exp(r1 * t), np.exp(r2 * t)
        return c1 * x1 + c2 * x2, c1 * r1 * x1 + c2 * r2 * x2
    if disc == 0.0:
        r = -k1 / 2.0
        b = edot0 - r * e0
        x = np.exp(r * t)
        return x * (e0 + b * t), x * (b + r * (e0 + b * t))
    alpha = -k1 / 2.0
    omega = math.sqrt(-disc) / 2.0
    b = (edot0 - alpha * e0) / omega
    x = np.exp(alpha * t)
    cw, sw = np.cos(omega * t), np.sin(omega * t)
    e = x * (e0 * cw + b * sw)
    edot = x * ((alpha * e0 + b * omega) * cw + (alpha * b - e0 * omega) * sw)
    return e, edot


def s11_flow(s0: ErrorState, t: float, params: ModelParams = DEFAULT_PARAMS) -> ErrorState:
    """Propagate the unsaturated (both rotors active) error dynamics by ``t``.

    With the default gains this is the two-exponential decay with rates -3
    and -6; other gain pairs use the matching analytic branch (distinct,
    repeated, or complex rates). Paper API; no command calls it, the engines use ``_linear_flow``.
    """
    e, edot = _linear_flow(s0.e, s0.edot, t, params)
    return ErrorState(float(e), float(edot))


def _saturated_flow(e0, edot0, t, accel):
    e = e0 + edot0 * t + 0.5 * accel * t * t
    return e, edot0 + accel * t


def saturated_flow(s0: ErrorState, t: float, sign: int) -> ErrorState:
    """Propagate the one-rotor-clamped flow, push sign/sqrt(3) (paper API; no command calls it)."""
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    e, edot = _saturated_flow(s0.e, s0.edot, t, sign * INV_SQRT3)
    return ErrorState(float(e), float(edot))


def _pd_output(e, edot, params: ModelParams):
    return params.ky1 * edot + params.ky2 * e


def _pd_slope(e, edot, params: ModelParams):
    """The PD output's time derivative along the linear flow, ky1*edot' + ky2*edot."""
    return (params.ky2 - params.ky1 * params.ky1) * edot - params.ky1 * params.ky2 * e


def _region_mask(e, edot, lambda_sign: int, params: ModelParams):
    """Capture-region membership of arrays of states; boundaries count as inside."""
    g = _pd_output(e, edot, params)
    if lambda_sign > 0:
        return (g >= INV_SQRT3) & (e >= 0.0) & (edot >= 0.0)
    return (g <= -INV_SQRT3) & (e <= 0.0) & (edot <= 0.0)


def in_admissible_region(
    s: ErrorState, lambda_sign: int, params: ModelParams = DEFAULT_PARAMS
) -> bool:
    """Membership in the half-period capture region for the given yaw sign.

    For yaw sign +1 this is the first-quadrant set where the PD output is
    at or above +1/sqrt(3); for -1 the point-mirrored third-quadrant set.
    """
    if lambda_sign not in (-1, 1):
        raise ValueError(f"lambda_sign must be -1 or +1, got {lambda_sign}")
    return bool(_region_mask(s.e, s.edot, lambda_sign, params))


def _region_error(lambda_sign: int) -> str:
    if lambda_sign > 0:
        return (
            "state must satisfy ky1*edot + ky2*e >= 1/sqrt(3) with e >= 0 and "
            "edot >= 0 (first-quadrant capture region)"
        )
    return (
        "state must satisfy ky1*edot + ky2*e <= -1/sqrt(3) with e <= 0 and "
        "edot <= 0 (third-quadrant capture region)"
    )


def _hit_time_default_pos(e0, edot0):
    """Time for the default-gain decay to reach the +1/sqrt(3) threshold.

    Substituting the flow into the threshold equation gives a quadratic in
    exp(3t) with exactly one root >= 1; array friendly.
    """
    a = INV_SQRT3 / 9.0
    b = 2.0 * e0 + edot0 / 3.0
    c = -4.0 * e0 - 4.0 * edot0 / 3.0
    z = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    return np.log(np.maximum(z, 1.0)) / 3.0


def hitting_time(s0: ErrorState, lambda_sign: int, params: ModelParams = DEFAULT_PARAMS) -> float:
    """Time for the unsaturated decay to reach ky1*edot + ky2*e = lambda_sign/sqrt(3).

    Requires the start state in the capture region of ``lambda_sign``; the
    result then lies in [0, 1) for the default gains, reaching 0 exactly on
    the threshold. Default gains use the closed form, other gains an exact
    bracket and root solve on the analytic flow (``_hit_times``), which
    raises ``ValueError`` when the flow does not reach the threshold within
    8 s. A state on the threshold gets 0 unless its PD output rises.
    """
    if not in_admissible_region(s0, lambda_sign, params):
        raise ValueError(_region_error(lambda_sign))
    t = _hit_times(np.array([s0.e]), np.array([s0.edot]), lambda_sign, params)
    _require_hits(t, params)
    return float(t[0])


def _gap_and_slope(e, edot, t, params: ModelParams):
    """The PD output's gap to 1/sqrt(3) at time ``t`` along the linear flow, and its slope."""
    e, edot = _linear_flow(e, edot, t, params)
    return _pd_output(e, edot, params) - INV_SQRT3, _pd_slope(e, edot, params)


def _newton(gap, a, b, ga, gb):
    """Roots of ``gap`` in the brackets [a, b] of 1-D arrays, all cells at once.

    ``gap(t, k)`` returns the gap and its time derivative for the cells with
    indices ``k`` at times ``t``. ``ga`` and ``gb`` are the gap at the bracket
    ends, one of them > 0 and the other <= 0; a zero end is the root. The
    first point of a cell is the regula falsi point of its bracket, each later
    one a Newton step from the last point. A step shorter than half the
    tolerance is stretched to that length, so that it lands across the root;
    if it stays short of the root, one more stretched step may follow. The
    midpoint replaces a point that is not strictly inside the bracket, a
    Newton step longer than half the Newton step before it, and any other step
    after a stretched one. Every point replaces the bracket end of its sign. So
    between two midpoints, each of which halves the bracket, the steps halve
    down to half the tolerance, and every cell stops: after 6 to 12 passes
    on the hitting-time brackets of a sweep's grid, up to about 15 on 8 s
    brackets at real rates, and after three or four on the brackets of
    the event oracle, its second caller. Far-apart rates and large states,
    such as gains (40, 0.5) at states up to 2000, take up to about 50 passes,
    as many as bisection. A cell stops on an exact zero or on brentq's test
    |b - a| <= 1e-14 + 4*eps*|x|, which is wider than the float spacing, and
    returns the end with the smaller gap, as brentq does. Stopped cells leave
    the arrays, so a cell's root does not depend on the other cells.
    """
    root = np.where(gb == 0.0, b, a)
    live = np.flatnonzero((ga != 0.0) & (gb != 0.0))
    a, b, ga, gb = a[live], b[live], ga[live], gb[live]
    x = b - gb * (b - a) / (gb - ga)
    limit = np.full(live.shape, np.inf)  # twice the longest Newton step allowed next
    while live.size:
        inside = (x > np.minimum(a, b)) & (x < np.maximum(a, b))
        x, limit = np.where(inside, x, 0.5 * (a + b)), np.where(inside, limit, np.inf)
        gx, slope = gap(x, live)
        to_b = (gx > 0.0) == (gb > 0.0)
        a, ga = np.where(to_b, a, x), np.where(to_b, ga, gx)
        b, gb = np.where(to_b, x, b), np.where(to_b, gx, gb)
        half_tol = 0.5 * (1e-14 + _RTOL * np.abs(x))
        done = (gx == 0.0) | (np.abs(b - a) <= 2.0 * half_tol)
        root[live[done]] = np.where(np.abs(ga) < np.abs(gb), a, b)[done]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -gx / slope  # not finite on a flat gap: the midpoint follows
        short = np.abs(step) < half_tol
        # limit is 0 after one stretched step and -1 after two
        ok = (np.abs(step) <= 0.5 * limit) | (short & (limit == 0.0))
        limit = np.where(short, np.where(limit == 0.0, -1.0, 0.0), np.abs(step))
        step = np.where(short, np.copysign(half_tol, step), step)
        x = np.where(ok, x + step, np.nan)  # NaN fails the inside test: the midpoint
        go = ~done
        live, x, limit, a, b, ga, gb = (v[go] for v in (live, x, limit, a, b, ga, gb))
    return root


def _hit_times(e, edot, lambda_sign: int, params: ModelParams, horizon=None):
    """Threshold hitting times of 1-D arrays of states in the ``lambda_sign`` region.

    Each state is mirrored into the first quadrant. The default gains take
    the closed form. Other gains bracket each state's first crossing within
    ``horizon`` (``_EVENT_T_MAX`` when None) from the flow's own ODE, which
    the PD output g solves too, so it decays to 0. At real or repeated
    rates g has at most one extremum, so it crosses the threshold at most
    once and [0, horizon] is the bracket. At complex rates the zeros of g
    and of its slope interlace, so g has at most one extremum before its
    first zero t0, where the gap is -1/sqrt(3), and [0, min(horizon, t0)]
    is the bracket. One ``_newton`` call refines all brackets, with the
    gap's slope in closed form (``_gap_and_slope``). A state gets 0.0 if its
    gap is negative, or zero with a slope that is not positive; a state
    whose gap is still positive at its bracket's end gets NaN.
    """
    e, edot = lambda_sign * np.asarray(e, dtype=float), lambda_sign * np.asarray(edot, dtype=float)
    if _has_default_rates(params):
        return _hit_time_default_pos(e, edot)
    horizon = _EVENT_T_MAX if horizon is None else float(horizon)
    g0, slope0 = _gap_and_slope(e, edot, 0.0, params)
    t = np.zeros(e.shape)
    live = np.flatnonzero((g0 > 0.0) | ((g0 == 0.0) & (slope0 > 0.0)))
    e, edot, g0, slope0 = e[live], edot[live], g0[live], slope0[live]
    end = np.full(live.shape, horizon)
    disc = params.ky1 * params.ky1 - 4.0 * params.ky2
    if disc < 0.0:
        omega = math.sqrt(-disc) / 2.0
        # g = exp(-ky1*t/2) * (g(0)*cos(omega*t) + c*sin(omega*t)), first zero t0
        g = g0 + INV_SQRT3
        t0 = np.arctan2(-g, (slope0 + 0.5 * params.ky1 * g) / omega) % math.pi / omega
        end = np.fmin(end, t0)
    gb = np.where(end < horizon, -INV_SQRT3, _gap_and_slope(e, edot, end, params)[0])
    hit = gb <= 0.0
    e, edot, end, gb = e[hit], edot[hit], end[hit], gb[hit]
    ga = np.maximum(g0[hit], np.nextafter(0.0, 1.0))  # a zero gap at t = 0 is no root here

    def gap(t, k):
        return _gap_and_slope(e[k], edot[k], t, params)

    t[live] = np.nan
    t[live[hit]] = _newton(gap, np.zeros(end.size), end, ga, gb)
    return t


def _require_hits(t, params: ModelParams) -> None:
    """Raise the no-crossing ``ValueError`` if any time from ``_hit_times`` is NaN."""
    if np.isnan(t).any():
        raise ValueError(
            f"unsaturated flow does not reach the threshold within {_EVENT_T_MAX} s for "
            f"gains ky1={params.ky1}, ky2={params.ky2}"
        )


def _rk4_matrix(h, params: ModelParams):
    """One RK4 step of the linear flow as a matrix on (e, edot); ``h`` may be an array.

    RK4 on y' = Ay is exact on the Taylor polynomial
    I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, built here by Horner's rule.
    """
    a = np.array([[0.0, 1.0], [-params.ky2, -params.ky1]])
    x = np.asarray(h, dtype=float)[..., None, None] * a
    eye = np.eye(2)
    return eye + x @ (eye + x / 2.0 @ (eye + x / 3.0 @ (eye + x / 4.0)))


def _event_hitting_times(e, edot, lambda_sign, params: ModelParams):
    """Event-detected threshold crossing times of fixed-step RK4, many states at once.

    ``e``, ``edot`` and ``lambda_sign`` (scalars or 1-D arrays) are broadcast
    together, and the times come back as a 1-D array. Each state
    is mirrored into the first quadrant, where the event is the PD output
    falling to +1/sqrt(3). The scan takes RK4 steps of length ``_EVENT_STEP``
    in blocks of ``_EVENT_BLOCK``: the gap at the end of every step of a block
    is one product of the rows c*R^k with the block's start states, and the
    first step whose end gap is nonpositive brackets the crossing. One
    ``_newton`` call refines all brackets on the gap after eight RK4 sub-steps
    (``_substep_gap``). States past the threshold, or on it with a PD output
    that does not rise, give 0.0; states without a crossing within
    ``_EVENT_T_MAX`` give NaN.
    """
    e, edot, sgn = np.broadcast_arrays(
        np.asarray(e, dtype=float), np.asarray(edot, dtype=float), np.asarray(lambda_sign, float)
    )
    y = np.stack([sgn * e, sgn * edot], axis=-1).reshape(-1, 2)
    times = np.full(y.shape[0], np.nan)
    gap = _pd_output(y[:, 0], y[:, 1], params) - INV_SQRT3
    times[(gap < 0.0) | ((gap == 0.0) & (_pd_slope(y[:, 0], y[:, 1], params) <= 0.0))] = 0.0
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
        # the state at the start of the bracketing step
        start = y_live[hit]
        later = k > 0
        start[later] = (powers[k[later] - 1] @ start[later, :, None])[..., 0]
        start_idx.append(live[hit])
        start_y.append(start)
        live, y_live = live[~hit], y_live[~hit] @ powers[_EVENT_BLOCK - 1].T
    if start_idx:
        idx, y0 = np.concatenate(start_idx), np.concatenate(start_y).T
        a, b = np.zeros(idx.size), np.full(idx.size, _EVENT_STEP)
        ga, gb = np.split(_substep_gap(np.tile(y0, 2), np.r_[a, b], params)[0], 2)
        ga, gb = np.maximum(ga, 0.0), np.minimum(gb, 0.0)  # a wrong-sign end is the root
        times[idx] += _newton(lambda t, k: _substep_gap(y0[:, k], t, params), a, b, ga, gb)
    return times


def _substep_gap(y, h, params: ModelParams):
    """Gap to 1/sqrt(3) after eight RK4 steps of ``h``/8 from each column of ``y``, and its slope.

    One step is M(s) = sum of (sA)^j/j! for j <= 4, so the slope in h is
    M'(h/8) M(h/8)^7 y. The steps add up the change from ``y`` through M - I,
    so the gap rounds like the change, not like the state.
    """
    a = np.array([[0.0, 1.0], [-params.ky2, -params.ky1]])
    terms = {j: np.linalg.matrix_power(a, j)[..., None] / math.factorial(j) for j in range(1, 5)}
    s, m, dm = h / 8.0, terms[4], 4.0 * terms[4]
    for j in (3, 2, 1):
        m, dm = terms[j] + s * m, j * terms[j] + s * dm
    m, change = s * m, np.zeros_like(y)  # m is M - I, per column
    for _ in range(8):
        x = y + change  # the state after the steps so far
        change = change + m[:, 0] * x[0] + m[:, 1] * x[1]
    gap = (_pd_output(*y, params) - INV_SQRT3) + _pd_output(*change, params)
    return gap, _pd_output(*(dm[:, 0] * x[0] + dm[:, 1] * x[1]), params)


def hitting_time_simulated(
    s0: ErrorState, lambda_sign: int, params: ModelParams = DEFAULT_PARAMS
) -> float:
    """Event-detected threshold crossing, independent of the closed form.

    Integrates the unsaturated dynamics with fixed-step RK4, step
    ``_EVENT_STEP``, until the PD output crosses the threshold, then refines
    with ``_newton`` on re-integrated sub-steps. Used as the cross-check
    channel for the closed forms; a one-state call of ``_event_hitting_times``.
    """
    if not in_admissible_region(s0, lambda_sign, params):
        raise ValueError(_region_error(lambda_sign))
    t = _event_hitting_times(s0.e, s0.edot, lambda_sign, params)[0]
    if np.isnan(t):
        raise ValueError(_NO_EVENT_ERROR)
    return float(t)


def _map(e, edot, lambda_sign: int, params: ModelParams, half_period: float):
    """Half-period map of 1-D arrays of start cells in the ``lambda_sign`` capture region.

    Cells and images are multiplied by ``lambda_sign``, so the map runs at
    yaw +1 only; negation is exact, so only the sign of a zero can differ from
    a sign-switched map. A cell follows the linear flow up to its first
    threshold crossing (``_hit_times``, bracketed within the half period at
    other than the default gains), capped at the half period, then the push
    -1/sqrt(3) for the rest of it. That is exact in the capture region: the
    PD output starts at or above the threshold, and under the push it is
    concave (second derivative -ky2/sqrt(3)), so once at or below the
    threshold it keeps falling. A cell exactly on the threshold counts as
    clamped, unless its PD output rises (possible only where ky2 > ky1^2):
    then it runs linear to its crossing.
    """
    e, edot = lambda_sign * np.asarray(e, dtype=float), lambda_sign * np.asarray(edot, dtype=float)
    t = np.fmin(_hit_times(e, edot, +1, params, half_period), half_period)
    e_m, edot_m = _linear_flow(e, edot, t, params)
    e1, ed1 = _saturated_flow(e_m, edot_m, half_period - t, -INV_SQRT3)
    return lambda_sign * e1, lambda_sign * ed1


def half_period_map(
    s0: ErrorState,
    lambda_sign: int,
    params: ModelParams = DEFAULT_PARAMS,
    half_period: float = 1.0,
) -> ErrorState:
    """Advance the lateral error by one half period of the large gait.

    The start state must lie in the capture region matching ``lambda_sign``.
    The trajectory is one unsaturated decay segment up to the threshold
    followed by the constant push for the rest of the half period. No command
    calls it: it is paper API, and a benchmark span until ROADMAP item 1.
    """
    if not in_admissible_region(s0, lambda_sign, params):
        raise ValueError(_region_error(lambda_sign))
    e, edot = _map(np.array([s0.e]), np.array([s0.edot]), lambda_sign, params, half_period)
    return ErrorState(float(e[0]), float(edot[0]))


def delta_l(
    s0: ErrorState,
    lambda_sign: int,
    params: ModelParams = DEFAULT_PARAMS,
    half_period: float = 1.0,
) -> float:
    """Lyapunov change over one half period from ``s0`` (paper API; no command calls it)."""
    return lyapunov(half_period_map(s0, lambda_sign, params, half_period), params) - lyapunov(
        s0, params
    )


@dataclass
class DeltaLGrid:
    """Half-period Lyapunov change sampled on a rectangular error grid.

    ``values[i, j]`` is the change starting from (e_values[i],
    edot_values[j]); cells outside the capture region are masked and carry
    NaN. ``sign_map`` is -1/0/+1 on admissible cells and 0 elsewhere.
    """

    e_values: np.ndarray
    edot_values: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    lambda_sign: int

    @property
    def n_admissible(self) -> int:
        return int(self.mask.sum())

    @property
    def n_positive(self) -> int:
        return int(((self.values >= 0.0) & self.mask).sum())

    def max_delta_l(self) -> float | None:
        if not self.mask.any():
            return None
        return float(np.nanmax(np.where(self.mask, self.values, -np.inf)))

    def argmax_state(self) -> ErrorState | None:
        if not self.mask.any():
            return None
        flat = int(np.nanargmax(np.where(self.mask, self.values, -np.inf)))
        i, j = np.unravel_index(flat, self.values.shape)
        return ErrorState(float(self.e_values[i]), float(self.edot_values[j]))

    def sign_map(self) -> np.ndarray:
        return np.where(self.mask, np.sign(self.values), 0.0)

    def summary(self) -> dict:
        m = self.max_delta_l()
        arg = self.argmax_state()
        return {
            "lambda_sign": self.lambda_sign,
            "resolution": [len(self.e_values), len(self.edot_values)],
            "e_range": [float(self.e_values[0]), float(self.e_values[-1])],
            "edot_range": [float(self.edot_values[0]), float(self.edot_values[-1])],
            "n_admissible": self.n_admissible,
            "n_positive": self.n_positive,
            "max_delta_l": m,
            "argmax": None if arg is None else [arg.e, arg.edot],
        }


@dataclass
class CaptureReport:
    """Outcome of mapping every admissible grid cell across a half period."""

    lambda_sign: int
    n_admissible: int
    violations: list[tuple[float, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "lambda_sign": self.lambda_sign,
            "n_admissible": self.n_admissible,
            "n_violations": len(self.violations),
            "violations_head": [list(v) for v in self.violations[:20]],
            "passed": self.passed,
        }


@dataclass
class _GridMap:
    """One half-period map of the admissible cells of a grid.

    ``delta_l_grid``, ``verify_quadrant_capture`` and the grid checks of
    ``verify-lemmas`` read it, so each grid is mapped once. ``e0``, ``ed0``
    are the admissible start cells in row-major order, ``e1``, ``ed1`` their
    images; ``grid`` holds the Lyapunov change, NaN on masked cells.
    """

    grid: DeltaLGrid
    e0: np.ndarray
    ed0: np.ndarray
    e1: np.ndarray
    ed1: np.ndarray

    def capture(self, params: ModelParams) -> CaptureReport:
        """Cells whose image is not finite or not in the mirrored region are violations."""
        sign = self.grid.lambda_sign
        report = CaptureReport(lambda_sign=sign, n_admissible=self.e0.size)
        captured = _region_mask(self.e1, self.ed1, -sign, params)
        captured &= np.isfinite(self.e1) & np.isfinite(self.ed1)
        for k in np.nonzero(~captured)[0]:
            report.violations.append((float(self.e0[k]), float(self.ed0[k])))
        return report


def _map_grid(e_range, edot_range, resolution: int, lambda_sign: int, params, half_period):
    if lambda_sign not in (-1, 1):
        raise ValueError(f"lambda_sign must be -1 or +1, got {lambda_sign}")
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    e_vals = np.linspace(e_range[0], e_range[1], resolution)
    ed_vals = np.linspace(edot_range[0], edot_range[1], resolution)
    E, Ed = np.meshgrid(e_vals, ed_vals, indexing="ij")
    mask = _region_mask(E, Ed, lambda_sign, params)
    e0, ed0 = E[mask], Ed[mask]
    e1, ed1 = _map(e0, ed0, lambda_sign, params, half_period)
    values = np.full(E.shape, np.nan)
    l0 = 0.5 * ed0 * ed0 + 0.5 * params.ky2 * e0 * e0
    values[mask] = 0.5 * ed1 * ed1 + 0.5 * params.ky2 * e1 * e1 - l0
    grid = DeltaLGrid(e_vals, ed_vals, values, mask, lambda_sign)
    return _GridMap(grid, e0, ed0, e1, ed1)


def delta_l_grid(
    e_range: tuple[float, float],
    edot_range: tuple[float, float],
    resolution: int,
    lambda_sign: int,
    params: ModelParams = DEFAULT_PARAMS,
    half_period: float = 1.0,
) -> DeltaLGrid:
    """Evaluate the half-period Lyapunov change on a grid of start states.

    ``resolution`` is the number of samples per axis. Cells outside the
    capture region for ``lambda_sign`` are masked rather than rejected.
    """
    return _map_grid(e_range, edot_range, resolution, lambda_sign, params, half_period).grid


def verify_quadrant_capture(
    e_range: tuple[float, float],
    edot_range: tuple[float, float],
    resolution: int,
    lambda_sign: int,
    params: ModelParams = DEFAULT_PARAMS,
    half_period: float = 1.0,
) -> CaptureReport:
    """Check that the half-period map sends its capture region to the mirror.

    Every admissible start cell must land in the opposite-sign capture
    region; violations are collected, not raised. No command calls it
    (``verify-lemmas`` maps its grid once): it is paper API, and a benchmark
    span until ROADMAP item 1.
    """
    return _map_grid(e_range, edot_range, resolution, lambda_sign, params, half_period).capture(
        params
    )


@dataclass(frozen=True)
class CriticalLyapunov:
    """Largest Lyapunov level whose ellipse still meets the nonneg-change set."""

    l_critical: float
    grid_max: float
    n_positive_cells: int
    resolution: int
    # False when l_critical is not a critical level: either no level above the
    # grid maximum cleared the nonnegative-change set (l_critical is the last
    # search bound), or no grid cell has nonnegative change (n_positive_cells
    # is 0 and l_critical is 0.0)
    bracketed: bool = True

    @property
    def sup_bound(self) -> float:
        """Steady-state Lyapunov supremum bound: level plus the 3/4 cap."""
        return self.l_critical + DELTA_L_CAP

    def to_dict(self) -> dict:
        return {
            "l_critical": self.l_critical,
            "grid_max": self.grid_max,
            "n_positive_cells": self.n_positive_cells,
            "resolution": self.resolution,
            "sup_bound": self.sup_bound,
            "bracketed": self.bracketed,
        }


def critical_lyapunov(
    e_range: tuple[float, float] = (-2.0, 2.0),
    edot_range: tuple[float, float] = (-2.0, 2.0),
    resolution: int = 200,
    params: ModelParams = DEFAULT_PARAMS,
    half_period: float = 1.0,
) -> CriticalLyapunov:
    """Compute the critical Lyapunov level by grid pass plus level bisection.

    A coarse grid over both capture regions locates cells whose half-period
    Lyapunov change is nonnegative; the largest level among them brackets
    the answer from below. The level is then refined to ``_REFINE_TOL`` by
    bisecting on "does the level ellipse still intersect the
    nonnegative-change set", sampling the ellipse at ``_N_ANGLES`` angles in
    both capture regions. When no cell has nonnegative change there is no
    level to refine: the result is a degenerate zero level with
    ``bracketed`` false and ``n_positive_cells`` 0, and a warning.
    """
    grid = delta_l_grid(e_range, edot_range, resolution, +1, params, half_period)
    return _critical_from(grid, params, half_period)


def _critical_from(grid: DeltaLGrid, params: ModelParams, half_period: float) -> CriticalLyapunov:
    """``critical_lyapunov`` from the grid of one yaw sign, as a sweep has it.

    The grid of the other sign is computed here, over the grid's own ranges
    and resolution, so a sweep does not compute its own grid twice.
    """
    e_vals, ed_vals, resolution = grid.e_values, grid.edot_values, len(grid.e_values)
    ranges = (e_vals[0], e_vals[-1]), (ed_vals[0], ed_vals[-1])
    other = delta_l_grid(*ranges, resolution, -grid.lambda_sign, params, half_period)
    witness_phi = None
    grid_max = -math.inf
    n_pos = 0
    for g in (grid, other) if grid.lambda_sign > 0 else (other, grid):
        pos = g.mask & (g.values >= 0.0)
        n_pos += int(pos.sum())
        if not pos.any():
            continue
        E, Ed = np.meshgrid(g.e_values, g.edot_values, indexing="ij")
        levels = 0.5 * Ed[pos] ** 2 + 0.5 * params.ky2 * E[pos] ** 2
        k = int(np.argmax(levels))
        if levels[k] > grid_max:
            grid_max = float(levels[k])
            ew, edw = float(E[pos][k]), float(Ed[pos][k])
            witness_phi = math.atan2(
                edw / math.sqrt(2.0 * grid_max), ew / math.sqrt(2.0 * grid_max / params.ky2)
            )
    if n_pos == 0:
        warnings.warn("no grid cell has nonnegative half-period Lyapunov change")
        return CriticalLyapunov(0.0, 0.0, 0, resolution, bracketed=False)

    phis = np.linspace(0.0, TWO_PI, _N_ANGLES, endpoint=False)
    if witness_phi is not None:
        phis = np.append(phis, witness_phi)
    # level sets of the Lyapunov function: ky2*e^2/2 + edot^2/2 = level
    cos_phi, sin_phi = np.cos(phis), np.sin(phis)

    def grows(e1, ed1, level):
        return 0.5 * ed1 * ed1 + 0.5 * params.ky2 * e1 * e1 - level >= 0.0

    def intersects(level: float) -> bool:
        # the region cells of the level's ellipse, one map call per yaw sign
        e = math.sqrt(2.0 * level / params.ky2) * cos_phi
        edot = math.sqrt(2.0 * level) * sin_phi
        for sign in (+1, -1):
            sel = _region_mask(e, edot, sign, params)
            if grows(*_map(e[sel], edot[sel], sign, params, half_period), level).any():
                return True
        return False

    def first_cell_grows(levels: np.ndarray) -> np.ndarray:
        # Whether the first +1-region ellipse cell of each level grows, all
        # levels in one map call: such a level intersects for sure, so the
        # whole-ellipse map of ``intersects`` is skipped for it. Levels
        # are positive, so only angles with cos and sin >= 0 give e and
        # edot >= 0; the other angles are left out of the arrays.
        quad = np.flatnonzero((cos_phi >= 0.0) & (sin_phi >= 0.0))
        e = np.sqrt(2.0 * levels[:, None] / params.ky2) * cos_phi[quad]
        edot = np.sqrt(2.0 * levels[:, None]) * sin_phi[quad]
        sel = _region_mask(e, edot, +1, params)
        rows = np.flatnonzero(sel.any(axis=1))
        cols = sel.argmax(axis=1)[rows]
        e1, ed1 = _map(e[rows, cols], edot[rows, cols], +1, params, half_period)
        out = np.zeros(levels.shape, dtype=bool)
        out[rows] = grows(e1, ed1, levels[rows])
        return out

    def result(level: float, bracketed: bool = True) -> CriticalLyapunov:
        return CriticalLyapunov(float(level), grid_max, n_pos, resolution, bracketed)

    # upper bracket: the first of 60 growing levels whose ellipse misses the
    # nonnegative-change set; levels whose first cell grows are skipped
    levels = [grid_max * 1.25 + 1e-9]
    while len(levels) < 60:
        levels.append(levels[-1] * 1.25 + 1e-9)
    lo = grid_max
    if intersects(levels[0]):
        skip = first_cell_grows(np.array(levels[1:]))
        for level, sure in zip(levels[1:], skip):
            if not sure and not intersects(level):
                hi = level
                break
        else:
            warnings.warn("could not bracket the critical level from above")
            return result(levels[-1], bracketed=False)
    else:
        hi = levels[0]
    while hi - lo > _REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if intersects(mid):
            lo = mid
        else:
            hi = mid
    return result(lo)


def acceleration_angle(ax: float, ay: float) -> float:
    """Direction of an acceleration vector in [0, 2*pi); a benchmark span until ROADMAP item 1."""
    if ax == 0.0 and ay == 0.0:
        raise ValueError("acceleration angle is undefined for the zero vector")
    return math.atan2(ay, ax) % TWO_PI


def feasible_cone(lam: float, params: ModelParams = DEFAULT_PARAMS) -> tuple[float, float]:
    """Angular interval of accelerations reachable with nonnegative commands.

    The two rotor force directions sit at yaw -/+ tilt half-angle; any
    nonnegative command combination lands between them. A commanded
    acceleration avoids clamping exactly when its angle lies inside this
    cone (or its magnitude is zero).
    """
    return (lam - params.theta) % TWO_PI, (lam + params.theta) % TWO_PI


def angle_in_cone(angle: float, lo: float, hi: float) -> bool:
    """``angle`` in the wrapped cone [lo, hi], ends included (paper API; no command calls it)."""
    width = (hi - lo) % TWO_PI
    return (angle - lo) % TWO_PI <= width
