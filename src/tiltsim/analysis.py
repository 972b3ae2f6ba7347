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
the hitting time depends on them. ``hitting_time`` takes the closed form at
the default gain pair (ky1, ky2) = (9, 18), whose decay rates are -3 and
-6. Elsewhere it brackets each cell's first crossing exactly, from the ODE
that the PD output shares with the flow, and one array root solve
(``_newton``) refines the brackets of all cells together: a regula falsi
point, then Newton steps on the closed-form slope of the PD output, 6 to
12 passes on a sweep's grid.

``half_period_map`` takes arrays of start cells, mirrors the yaw sign -1
into +1 exactly, and is what every grid, capture check and critical-level
search goes through. ``_map_grid`` maps a grid once and returns the
``DeltaLGrid`` (the admissible cells' indices and Lyapunov changes; only the
grid CSV reads the dense views, built on first read), those cells and their
images, which ``_capture`` and the grid checks of ``verify-lemmas`` read.

The critical-level search grows a bracket by 1.25x, up to 60 times, from
the grid maximum: the largest level of a nonnegative-change cell of either
yaw sign's grid, found in one pass. A level's region cells are mapped in
one call per yaw sign. Once the first level meets the nonnegative-change
set, the first +1-region ellipse cell of each further level is mapped in
one call; a level whose first cell gains energy meets the set for sure and
is skipped. ``sweep-delta-l`` hands its own grid to the search
(``_critical_from``), so only the other sign's grid is computed again.

No command loads ``scipy.optimize``: the map and the event oracle solve with
numpy alone.

The closed forms are cross-checked by an independent event oracle,
``hitting_time_simulated``. The unsaturated flow is linear, so one step of
it is exactly the 2x2 matrix P = exp(hA), from a Taylor series by scaling
and squaring, with no eigenvalues. The scan
evaluates every state's threshold gap at each step of a block of steps from
the powers P^1..P^B, and ``_newton`` refines the bracketing steps of all
states together on exp(sA).

The functions work on floats or arrays of states. ``hitting_time``,
``hitting_time_simulated`` and ``half_period_map`` take 1-D arrays (a float
counts as one state) and return 1-D arrays; the others work element by
element.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
# No code path uses scipy. The benchmark reads ``sys.modules["scipy"]`` and
# wraps ``brentq`` by name, so both stay until the benchmark stops using them.
import scipy

from .plant import DEFAULT_PARAMS, ModelParams

__all__ = [
    "INV_SQRT3",
    "DELTA_L_CAP",
    "lyapunov",
    "s11_flow",
    "saturated_flow",
    "in_admissible_region",
    "hitting_time",
    "hitting_time_simulated",
    "half_period_map",
    "DeltaLGrid",
    "delta_l_grid",
    "verify_quadrant_capture",
    "critical_lyapunov",
    "acceleration_angle",
    "feasible_cone",
]

INV_SQRT3 = 1.0 / math.sqrt(3.0)
TWO_PI = 2.0 * math.pi

# Largest possible Lyapunov increase over one half period (default gains);
# attained on the switching threshold at edot = 0.
DELTA_L_CAP = 0.75

_EVENT_BLOCK = 1024  # steps per scan block of the event oracle; a power of two
_EVENT_T_MAX = 8.0
_RTOL = 4.0 * np.finfo(float).eps  # brentq's relative tolerance
_EVENT_STEP = 1e-2  # longest step of the event oracle
_EVENT_MAX_STEPS = 8_000_000  # longest scan: 8 s at a step of 1e-6
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


def lyapunov(e, edot, params: ModelParams = DEFAULT_PARAMS):
    """Lateral error energy edot^2/2 + ky2*e^2/2."""
    return 0.5 * edot * edot + 0.5 * params.ky2 * e * e


def _has_default_rates(params: ModelParams) -> bool:
    return params.ky1 == 9.0 and params.ky2 == 18.0


def s11_flow(e0, edot0, t, params: ModelParams = DEFAULT_PARAMS):
    """Propagate the unsaturated (both rotors active) error dynamics by ``t``.

    The analytic flow of edotdot = -ky1*edot - ky2*e: with the default gains
    the two-exponential decay with rates -3 and -6, elsewhere the matching
    branch (distinct, repeated, or complex rates).
    """
    k1, k2 = params.ky1, params.ky2
    disc = k1 * k1 - 4.0 * k2
    if disc > 0.0:
        r2 = (-k1 - math.sqrt(disc)) / 2.0
        r1 = k2 / r2  # r1*r2 = ky2; (-k1 + sqrt(disc))/2 would cancel at stiff gains
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


def saturated_flow(e0, edot0, t, accel):
    """Propagate the one-rotor-clamped flow, a constant push ``accel`` (+/-1/sqrt(3)), by ``t``."""
    e = e0 + edot0 * t + 0.5 * accel * t * t
    return e, edot0 + accel * t


def _pd_output(e, edot, params: ModelParams):
    return params.ky1 * edot + params.ky2 * e


def _pd_slope(e, edot, params: ModelParams):
    """The PD output's time derivative along the linear flow, ky1*edot' + ky2*edot."""
    return (params.ky2 - params.ky1 * params.ky1) * edot - params.ky1 * params.ky2 * e


def in_admissible_region(e, edot, lambda_sign: int, params: ModelParams = DEFAULT_PARAMS):
    """Membership in the half-period capture region of the yaw sign; boundaries count as inside.

    For yaw sign +1 this is the first-quadrant set where the PD output is
    at or above +1/sqrt(3); for -1 the point-mirrored third-quadrant set.
    """
    g = _pd_output(e, edot, params)
    if lambda_sign > 0:
        return (g >= INV_SQRT3) & (e >= 0.0) & (edot >= 0.0)
    return (g <= -INV_SQRT3) & (e <= 0.0) & (edot <= 0.0)


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


def _gap_and_slope(e, edot, t, params: ModelParams):
    """The PD output's gap to 1/sqrt(3) at time ``t`` along the linear flow, and its slope."""
    e, edot = s11_flow(e, edot, t, params)
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
    brackets at real rates, and after four or five on the 1e-2 s brackets
    of the event oracle, its second caller (about 25 at ky1 = 1e7). Far-apart
    rates and large states, such as gains (40, 0.5) at states up to 2000,
    take up to about 50 passes, as many as bisection. A cell stops on an
    exact zero or on brentq's test |b - a| <= 1e-14 + 4*eps*|x|, which is
    wider than the float spacing, and returns the end with the smaller gap,
    as brentq does. Stopped cells leave the arrays, so a cell's root does not
    depend on the other cells.
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


def hitting_time(e, edot, lambda_sign: int, params: ModelParams = DEFAULT_PARAMS, horizon=None):
    """Times for the unsaturated decay to reach ky1*edot + ky2*e = lambda_sign/sqrt(3).

    For states in the capture region of ``lambda_sign``, the times lie in
    [0, 1) at the default gains, 0 exactly on the threshold. Each state is
    mirrored into the first quadrant. The default gains take the closed
    form. Other gains bracket each state's first crossing within
    ``horizon`` (``_EVENT_T_MAX`` when None) from the flow's own ODE, which
    the PD output g solves too, so it decays to 0. At real or repeated
    rates g has at most one extremum, so it crosses the threshold at most
    once and [0, horizon] is the bracket. At complex rates the zeros of g
    and of its slope interlace, so g has at most one extremum before its
    first zero t0, where the gap is -1/sqrt(3), and [0, min(horizon, t0)]
    is the bracket. One ``_newton`` call refines all brackets, with the
    gap's slope in closed form (``_gap_and_slope``). A state gets 0.0 if its
    gap is negative, or zero with a slope that is not positive; a state
    whose gap is NaN, or still positive at its bracket's end, gets NaN;
    ``_require_hits`` turns a NaN into the error that explains it.
    """
    e, edot = (lambda_sign * np.atleast_1d(np.asarray(v, dtype=float)) for v in (e, edot))
    if _has_default_rates(params):
        return _hit_time_default_pos(e, edot)
    horizon = _EVENT_T_MAX if horizon is None else float(horizon)
    g0, slope0 = _gap_and_slope(e, edot, 0.0, params)
    t = np.where(np.isnan(g0), np.nan, 0.0)
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


def _require_hits(t, e, edot, params: ModelParams) -> None:
    """Raise if any time ``hitting_time`` gave the states ``(e, edot)`` is NaN.

    A NaN time whose gap is NaN at t = 0 means the linear flow is not finite
    (at ky1 = 1e300 its decay rates overflow): ``FloatingPointError``. Any
    other NaN time is a flow that misses the threshold: the no-crossing
    ``ValueError``. The flow is linear, so a state and its mirror, which
    ``hitting_time`` takes, have NaN gaps alike.
    """
    nan = np.isnan(t)
    if not nan.any():
        return
    gains = f"gains ky1={params.ky1}, ky2={params.ky2}"
    if (nan & np.isnan(_gap_and_slope(e, edot, 0.0, params)[0])).any():
        raise FloatingPointError(f"unsaturated flow is not finite at t = 0 for {gains}")
    raise ValueError(
        f"unsaturated flow does not reach the threshold within {_EVENT_T_MAX} s for {gains}"
    )


def _flow_matrix(h, params: ModelParams):
    """exp(hA) of the linear flow y' = Ay on y = (e, edot); ``h`` may be an array.

    Scaling and squaring (Moler and Van Loan, SIAM Rev. 2003; Higham, SIMAX
    2005): the degree-10 Taylor polynomial of X = hA/2^q, ||X||_1 <= 1/8 for
    the largest h, squared q times. It computes no eigenvalue, so it shares
    no branch with ``s11_flow``. An ||hA|| that is not finite gives NaN.
    """
    a = np.array([[0.0, 1.0], [-params.ky2, -params.ky1]])
    h = np.asarray(h, dtype=float)
    norm = np.abs(h).max(initial=0.0) * np.abs(a).sum(axis=0).max()
    q = max(0, int(np.frexp(8.0 * norm)[1]))  # frexp(inf) gives 0
    x, eye = np.ldexp(h, -q)[..., None, None] * a, np.eye(2)
    p = eye
    for j in range(10, 0, -1):
        p = eye + x @ p / j
    for _ in range(q):
        p = p @ p
    return p


def _flow_gap(y, s, params: ModelParams):
    """The gap to 1/sqrt(3) at exp(sA)y, for rows ``y`` and times ``s``, and its slope."""
    e, edot = (_flow_matrix(s, params) @ y[:, :, None])[..., 0].T
    return _pd_output(e, edot, params) - INV_SQRT3, _pd_slope(e, edot, params)


def _event_step(params: ModelParams) -> float:
    """The event oracle's step: 1e-2, at complex rates at most half a radian of their turn.

    The PD output crosses the threshold once at real rates, and at complex
    rates stays below it for over pi/omega after its first crossing.
    """
    k1, k2 = params.ky1, params.ky2
    if not k1 * k1 < 4.0 * k2:  # real or repeated rates, or inf - inf
        return _EVENT_STEP
    # 0.5/omega, the same bits as 1/sqrt(4*ky2 - ky1^2) where 4*ky2 does not overflow
    return min(_EVENT_STEP, 0.5 / math.sqrt(k2 - k1 * k1 / 4.0))


def hitting_time_simulated(e, edot, lambda_sign, params: ModelParams = DEFAULT_PARAMS):
    """Event-detected threshold crossing times: the independent cross-check of ``hitting_time``.

    ``e``, ``edot`` and ``lambda_sign`` (scalars or 1-D arrays) are broadcast
    together, and the times come back as a 1-D array. Each state is mirrored
    into the first quadrant, where the event is the PD output falling to
    +1/sqrt(3). One step of ``_event_step`` is P = exp(hA) (``_flow_matrix``).
    The scan gets the gap after every step of a block of ``_EVENT_BLOCK``
    from the rows c*P^k and the block's start states, and the first
    nonpositive gap brackets the crossing. One ``_newton`` call refines all
    brackets on exp(sA) of their start states (``_flow_gap``), with the
    scan's gaps at the ends. States past the threshold, or on it with a PD
    output that does not rise, give 0.0; states without a crossing within
    ``_EVENT_T_MAX``, or whose gap is not finite before it, give NaN.
    """
    e, edot, sgn = np.broadcast_arrays(
        np.asarray(e, dtype=float), np.asarray(edot, dtype=float), np.asarray(lambda_sign, float)
    )
    y = np.stack([sgn * e, sgn * edot], axis=-1).reshape(-1, 2)
    times = np.full(y.shape[0], np.nan)
    gap = _pd_output(y[:, 0], y[:, 1], params) - INV_SQRT3
    times[(gap < 0.0) | ((gap == 0.0) & (_pd_slope(y[:, 0], y[:, 1], params) <= 0.0))] = 0.0
    h = _event_step(params)
    n_steps = min(round(_EVENT_T_MAX / h), _EVENT_MAX_STEPS)
    powers = np.empty((_EVENT_BLOCK + 1, 2, 2))  # P^0 .. P^B, by doubling
    powers[0], powers[1] = np.eye(2), _flow_matrix(h, params)
    m = 1
    while m < _EVENT_BLOCK:
        powers[m + 1 : 2 * m + 1] = powers[1 : m + 1] @ powers[m]
        m *= 2
    gap_rows = np.array([params.ky2, params.ky1]) @ powers  # row k is c*P^k
    live = np.nonzero(np.isnan(times))[0]
    y_live = y[live]
    brackets = []  # per block: indices, start states, and the gaps at both ends
    for first in range(0, n_steps, _EVENT_BLOCK):
        if live.size == 0:
            break
        n_block = min(_EVENT_BLOCK, n_steps - first)
        gaps = gap_rows[: n_block + 1] @ y_live.T - INV_SQRT3  # row k: k steps into the block
        gaps[0] = np.maximum(gaps[0], np.nextafter(0.0, 1.0))  # a zero gap at the start is no root
        stop = ~(gaps[1:] > 0.0) | np.isinf(gaps[1:])  # a crossing, or a gap that is not finite
        k, cols = stop.argmax(axis=0), np.arange(live.size)  # the first such step is first + k
        hit = gaps[k + 1, cols] <= 0.0
        k, cols = k[hit], cols[hit]
        times[live[hit]] = (first + k) * h
        start = (powers[k] @ y_live[hit, :, None])[..., 0]  # the bracketing step's start state
        brackets.append((live[hit], start, gaps[k, cols], gaps[k + 1, cols]))
        go = ~stop.any(axis=0)
        live, y_live = live[go], y_live[go] @ powers[-1].T
    if brackets:
        idx, y0, ga, gb = (np.concatenate(v) for v in zip(*brackets))
        a, b = np.zeros(idx.size), np.full(idx.size, h)
        times[idx] += _newton(lambda s, k: _flow_gap(y0[k], s, params), a, b, ga, gb)
    return times


def half_period_map(
    e, edot, lambda_sign: int, params: ModelParams = DEFAULT_PARAMS, half_period: float = 1.0
):
    """Advance 1-D arrays of start cells in the ``lambda_sign`` capture region by one half period.

    Cells and images are multiplied by ``lambda_sign``, so the map runs at
    yaw +1 only; negation is exact, so only the sign of a zero can differ from
    a sign-switched map. A cell follows the linear flow up to its first
    threshold crossing (``hitting_time``, bracketed within the half period at
    other than the default gains), capped at the half period, then the push
    -1/sqrt(3) for the rest of it. That is exact in the capture region: the
    PD output starts at or above the threshold, and under the push it is
    concave (second derivative -ky2/sqrt(3)), so once at or below the
    threshold it keeps falling. A cell exactly on the threshold counts as
    clamped, unless its PD output rises (possible only where ky2 > ky1^2):
    then it runs linear to its crossing.
    """
    e, edot = (lambda_sign * np.atleast_1d(np.asarray(v, dtype=float)) for v in (e, edot))
    t = np.fmin(hitting_time(e, edot, +1, params, half_period), half_period)
    e_m, edot_m = s11_flow(e, edot, t, params)
    e1, ed1 = saturated_flow(e_m, edot_m, half_period - t, -INV_SQRT3)
    return lambda_sign * e1, lambda_sign * ed1


@dataclass
class DeltaLGrid:
    """Half-period Lyapunov change sampled on a rectangular error grid.

    The grid holds its admissible cells only: ``cells`` are their flat
    row-major indices, ascending, and ``delta_l`` their changes, so cell
    ``cells[k]`` = i * len(edot_values) + j starts from (e_values[i],
    edot_values[j]). The dense views ``values`` (NaN on cells outside the
    capture region) and ``mask`` are built on first read and not updated
    after; ``sign_map`` is -1/0/+1 on admissible cells and 0 elsewhere.
    """

    e_values: np.ndarray
    edot_values: np.ndarray
    lambda_sign: int
    cells: np.ndarray
    delta_l: np.ndarray

    @functools.cached_property
    def mask(self) -> np.ndarray:
        mask = np.zeros((len(self.e_values), len(self.edot_values)), dtype=bool)
        mask.flat[self.cells] = True
        return mask

    @functools.cached_property
    def values(self) -> np.ndarray:
        values = np.full((len(self.e_values), len(self.edot_values)), np.nan)
        values.flat[self.cells] = self.delta_l
        return values

    @property
    def n_admissible(self) -> int:
        return self.cells.size

    @property
    def n_positive(self) -> int:
        return int(np.count_nonzero(self.delta_l >= 0.0))

    # a NaN change is the maximum, as np.max and np.argmax have it
    def max_delta_l(self) -> float | None:
        if not self.cells.size:
            return None
        return float(np.max(self.delta_l))

    def argmax_state(self) -> tuple[float, float] | None:
        if not self.cells.size:
            return None
        i, j = divmod(int(self.cells[np.argmax(self.delta_l)]), len(self.edot_values))
        return float(self.e_values[i]), float(self.edot_values[j])

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
            "argmax": None if arg is None else list(arg),
        }


def _map_grid(e_range, edot_range, resolution: int, lambda_sign: int, params, half_period):
    """Map a grid once: ``(grid, e0, ed0, e1, ed1)``, the ``DeltaLGrid``, the
    admissible cells in row-major order and their images. Only the block in
    the yaw sign's closed quadrant, which holds the capture region, is tested
    and mapped.
    """
    if lambda_sign not in (-1, 1):
        raise ValueError(f"lambda_sign must be -1 or +1, got {lambda_sign}")
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    e_vals = np.linspace(e_range[0], e_range[1], resolution)
    ed_vals = np.linspace(edot_range[0], edot_range[1], resolution)
    rows = np.flatnonzero(lambda_sign * e_vals >= 0.0)
    cols = np.flatnonzero(lambda_sign * ed_vals >= 0.0)
    i, j = np.nonzero(in_admissible_region(e_vals[rows, None], ed_vals[cols], lambda_sign, params))
    i, j = rows[i], cols[j]
    e0, ed0 = e_vals[i], ed_vals[j]
    e1, ed1 = half_period_map(e0, ed0, lambda_sign, params, half_period)
    delta_l = lyapunov(e1, ed1, params) - lyapunov(e0, ed0, params)
    grid = DeltaLGrid(e_vals, ed_vals, lambda_sign, i * resolution + j, delta_l)
    return grid, e0, ed0, e1, ed1


def _capture(grid: DeltaLGrid, e0, ed0, e1, ed1, params: ModelParams) -> dict:
    """Capture of a ``_map_grid`` result: an image not finite or not in the mirrored region fails.

    ``violations_head`` lists the first 20 failing start cells.
    """
    captured = in_admissible_region(e1, ed1, -grid.lambda_sign, params)
    captured &= np.isfinite(e1) & np.isfinite(ed1)
    failed = np.flatnonzero(~captured)
    head = failed[:20]
    return {
        "lambda_sign": grid.lambda_sign,
        "n_admissible": e0.size,
        "n_violations": failed.size,
        "violations_head": np.stack([e0[head], ed0[head]], axis=1).tolist(),
        "passed": not failed.size,
    }


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
    return _map_grid(e_range, edot_range, resolution, lambda_sign, params, half_period)[0]


def verify_quadrant_capture(
    e_range: tuple[float, float],
    edot_range: tuple[float, float],
    resolution: int,
    lambda_sign: int,
    params: ModelParams = DEFAULT_PARAMS,
    half_period: float = 1.0,
) -> dict:
    """Check that the half-period map sends its capture region to the mirror.

    Every admissible start cell must land in the opposite-sign capture
    region; violations are collected, not raised. No command calls it
    (``verify-lemmas`` maps its grid once): it is paper API, and a benchmark
    span until ROADMAP item 1.
    """
    cells = _map_grid(e_range, edot_range, resolution, lambda_sign, params, half_period)
    return _capture(*cells, params)


def critical_lyapunov(
    e_range: tuple[float, float] = (-2.0, 2.0),
    edot_range: tuple[float, float] = (-2.0, 2.0),
    resolution: int = 200,
    params: ModelParams = DEFAULT_PARAMS,
    half_period: float = 1.0,
) -> dict:
    """Compute the critical Lyapunov level by grid pass plus level bisection.

    Returns the dict of ``critical_lyapunov.json``: ``l_critical``, the
    largest level whose ellipse still meets the nonnegative-change set;
    ``grid_max``, the largest level of a nonnegative-change grid cell;
    ``n_positive_cells``, those cells of both yaw signs; ``resolution``;
    ``sup_bound``, the level plus the 3/4 cap; and ``bracketed``.

    A coarse grid over both capture regions locates cells whose half-period
    Lyapunov change is nonnegative; the largest level among them brackets
    the answer from below. The level is then refined to ``_REFINE_TOL`` by
    bisecting on "does the level ellipse still intersect the
    nonnegative-change set", sampling the ellipse at ``_N_ANGLES`` angles in
    both capture regions. When no cell has nonnegative change there is no
    level to refine: the result is a degenerate zero level with
    ``bracketed`` false and ``n_positive_cells`` 0, and a warning. When no
    level of the upper-bracket search clears the set, ``l_critical`` is the
    last search bound, ``bracketed`` is false, and a warning says so. An
    admissible cell whose change is not finite raises ``FloatingPointError``
    with the count of such cells.
    """
    grid = delta_l_grid(e_range, edot_range, resolution, +1, params, half_period)
    return _critical_from(grid, params, half_period)


def _critical_from(grid: DeltaLGrid, params: ModelParams, half_period: float) -> dict:
    """``critical_lyapunov`` from the grid of one yaw sign, as a sweep has it.

    The grid of the other sign is computed here, over the grid's own ranges
    and resolution, so a sweep does not compute its own grid twice.
    """
    e_vals, ed_vals, resolution = grid.e_values, grid.edot_values, len(grid.e_values)
    ranges = (e_vals[0], e_vals[-1]), (ed_vals[0], ed_vals[-1])
    other = delta_l_grid(*ranges, resolution, -grid.lambda_sign, params, half_period)
    grids = (grid, other) if grid.lambda_sign > 0 else (other, grid)
    n_bad = sum(np.count_nonzero(~np.isfinite(g.delta_l)) for g in grids)
    if n_bad:
        raise FloatingPointError(
            f"{n_bad} admissible cells have a half-period Lyapunov change that is not finite"
        )
    # the nonnegative-change cells of the +1 grid, then of the -1 grid, each
    # in row-major order, so the first cell of the largest level is the witness
    pos = np.concatenate([g.cells[g.delta_l >= 0.0] for g in grids])
    n_pos = pos.size
    e, ed = e_vals[pos // resolution], ed_vals[pos % resolution]
    levels = 0.5 * ed ** 2 + 0.5 * params.ky2 * e ** 2
    grid_max = float(levels.max(initial=0.0))

    def result(level: float, bracketed: bool = True) -> dict:
        level = float(level)
        return {
            "l_critical": level,
            "grid_max": grid_max,
            "n_positive_cells": n_pos,
            "resolution": resolution,
            "sup_bound": level + DELTA_L_CAP,
            "bracketed": bracketed,
        }

    if n_pos == 0:
        warnings.warn("no grid cell has nonnegative half-period Lyapunov change")
        return result(0.0, bracketed=False)
    k = int(np.argmax(levels))
    witness_phi = math.atan2(
        ed[k] / math.sqrt(2.0 * grid_max), e[k] / math.sqrt(2.0 * grid_max / params.ky2)
    )
    phis = np.append(np.linspace(0.0, TWO_PI, _N_ANGLES, endpoint=False), witness_phi)
    # level sets of the Lyapunov function: ky2*e^2/2 + edot^2/2 = level
    cos_phi, sin_phi = np.cos(phis), np.sin(phis)

    def grows(e1, ed1, level):
        return lyapunov(e1, ed1, params) - level >= 0.0

    def intersects(level: float) -> bool:
        # the region cells of the level's ellipse, one map call per yaw sign
        e = math.sqrt(2.0 * level / params.ky2) * cos_phi
        edot = math.sqrt(2.0 * level) * sin_phi
        for sign in (+1, -1):
            sel = in_admissible_region(e, edot, sign, params)
            if grows(*half_period_map(e[sel], edot[sel], sign, params, half_period), level).any():
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
        sel = in_admissible_region(e, edot, +1, params)
        rows = np.flatnonzero(sel.any(axis=1))
        cols = sel.argmax(axis=1)[rows]
        e1, ed1 = half_period_map(e[rows, cols], edot[rows, cols], +1, params, half_period)
        out = np.zeros(levels.shape, dtype=bool)
        out[rows] = grows(e1, ed1, levels[rows])
        return out

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
