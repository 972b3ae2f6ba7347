import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as oc
from tiltsim import (
    DEFAULT_PARAMS,
    DivergenceError,
    GaitSchedule,
    ModelParams,
    SimConfig,
    TRAJECTORY_COLUMNS,
    Trajectory,
    VehicleState,
    accelerate,
    clamp,
    desired_accel,
    half_period_map,
    preset,
    raw_inversion,
    reference_at,
    run,
    s11_flow,
    step,
    verify_trajectory,
)
from tiltsim.output import fmt, write_trajectory_csv
from tiltsim.simulator import _grid_count, _yaw

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def small_run():
    return run(SimConfig(gait=preset("small"), duration=6.0))


@pytest.fixture(scope="module")
def large_run():
    return run(SimConfig(gait=preset("large"), duration=8.0))


@pytest.fixture(scope="module")
def large_cfg():
    return SimConfig(gait=preset("large"), duration=8.0)


class TestSimConfig:
    def test_step_must_divide_half_period(self):
        with pytest.raises(ValueError, match="half the gait period"):
            SimConfig(gait=preset("small"), dt=0.3, duration=3.0)

    def test_duration_must_be_whole_steps(self):
        with pytest.raises(ValueError, match="duration"):
            SimConfig(gait=preset("small"), dt=1e-3, duration=0.0015)

    def test_counts(self):
        cfg = SimConfig(gait=preset("small"), dt=1e-3, duration=4.0)
        assert cfg.steps_per_half == 1000
        assert cfg.n_steps == 4000


class TestStep:
    def test_zero_error_stays_zero(self):
        cfg = SimConfig(gait=preset("small"))
        out = step(VehicleState(0.0, 0.0, 0.0, 0.0), 0.0, cfg)
        ref_x = 0.5 * cfg.dt**2
        assert abs(out.x - ref_x) < 1e-12
        assert abs(out.y) < 1e-12
        assert abs(out.vx - cfg.dt) < 1e-12
        assert abs(out.vy) < 1e-12

    def test_rest_start_large_gait_follows_push_parabola(self):
        cfg = SimConfig(gait=preset("large"))
        out = step(VehicleState(0.0, 0.0, 0.0, 0.0), 0.0, cfg)
        # lateral error grows as t^2/(2 sqrt(3)) during the clamped phase
        ey = 0.0 - out.y
        assert ey == pytest.approx(cfg.dt**2 / (2 * SQRT3), rel=1e-6)

    def test_fourth_order_convergence(self):
        # Richardson: halving the step shrinks the one-step defect ~16x
        params = DEFAULT_PARAMS
        gait = preset("large")
        state = VehicleState(0.1, -0.4, 0.2, 0.3)
        t0 = 0.25

        def advance(dt, n):
            cfg = SimConfig(params=params, gait=gait, dt=dt, duration=2.0)
            s = state
            t = t0
            for _ in range(n):
                s = step(s, t, cfg)
                t += dt
            return s

        ref = advance(0.0025, 16)
        err = []
        for dt, n in ((0.04, 1), (0.02, 2)):
            s = advance(dt, n)
            err.append(math.hypot(s.y - ref.y, s.vy - ref.vy))
        ratio = err[0] / err[1]
        assert 8.0 < ratio < 40.0

    def test_matches_run_across_yaw_switches(self):
        # at period 0.2 and dt 0.01, fmod(k * dt, period) puts grid time k
        # in the wrong half period for some k, the first at k = 30; step()
        # must pick the yaw by step index as run() does
        cfg = SimConfig(gait=GaitSchedule(amplitude=math.pi / 3, period=0.2), dt=0.01, duration=0.6)
        traj = run(cfg)
        states = [cfg.initial_state]
        for k in range(cfg.n_steps):
            states.append(step(states[-1], k * cfg.dt, cfg))
        for name in ("x", "y", "vx", "vy"):
            stepped = [getattr(s, name).hex() for s in states]
            assert stepped == [v.hex() for v in traj.column(name).tolist()], name

    def test_evaluates_nothing_past_its_step(self):
        # this run fails in stage 1 of row k: row k's state is finite, its command is not
        cfg = _DIVERGING[4]
        with pytest.raises(DivergenceError) as info:
            run(cfg)
        err, partial = info.value, info.value.trajectory
        k = err.step
        assert k > 0 and len(partial) == k
        before = VehicleState(*(float(partial.column(n)[k - 1]) for n in ("x", "y", "vx", "vy")))
        assert step(before, (k - 1) * cfg.dt, cfg) == err.state
        with pytest.raises(DivergenceError) as again:
            step(err.state, err.t, cfg)
        assert (again.value.step, again.value.yaw) == (k, err.yaw)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_raises(self, t):
        cfg = SimConfig(gait=preset("small"))
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            step(VehicleState(0.0, 0.0, 0.0, 0.0), t, cfg)


def _pipeline(params, lam, t, x, y, vx, vy):
    """The public controller chain that ``oracles.kernel`` must reproduce."""
    ax_d, ay_d = desired_accel(VehicleState(x, y, vx, vy), reference_at(t), params)
    sq1, sq2 = raw_inversion(ax_d, ay_d, lam, params)
    ax, ay = accelerate(*clamp(sq1, sq2), lam, params)
    return ax_d, ay_d, sq1, sq2, ax, ay


_coord = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_gain = st.floats(0.1, 100.0)


class TestKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        params=st.builds(
            ModelParams,
            m=st.floats(0.1, 10.0),
            theta=st.floats(0.01, 1.56),
            k_thrust=st.floats(1e-4, 1.0),
            kx1=_gain,
            kx2=_gain,
            ky1=_gain,
            ky2=_gain,
        ),
        amplitude=st.floats(0.01, 1.56),
        sign=st.sampled_from([-1.0, 1.0]),
        t=st.floats(0.0, 100.0),
        state=st.tuples(_coord, _coord, _coord, _coord),
    )
    def test_matches_dataclass_pipeline_bit_for_bit(self, params, amplitude, sign, t, state):
        f = oc.kernel(params, sign * amplitude)
        try:
            expected = _pipeline(params, sign * amplitude, t, *state)
        except ValueError:
            with pytest.raises(ValueError):
                f(t, *state)
            return
        assert [v.hex() for v in f(t, *state)] == [v.hex() for v in expected]


_params = st.builds(
    ModelParams,
    m=st.floats(0.1, 10.0),
    theta=st.floats(0.01, 1.56),
    k_thrust=st.floats(1e-4, 1.0),
    kx1=_gain,
    kx2=_gain,
    ky1=_gain,
    ky2=st.one_of(_gain, st.sampled_from([1e8, 1e12, 1e15, 1e300, 1e307])),
)
_start = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 0.5]), _coord)


@st.composite
def _sim_configs(draw):
    """Random model, gait and start state; ``dt`` divides the half period, runs span up to 4."""
    gait = GaitSchedule(
        amplitude=draw(st.floats(0.01, 1.56)),
        period=draw(st.floats(0.002, 4.0)),
        phase_sign=draw(st.sampled_from([-1, 1])),
    )
    m = draw(st.integers(1, 40))
    dt = gait.half_period / m
    return SimConfig(
        params=draw(_params),
        gait=gait,
        dt=dt,
        duration=draw(st.integers(1, 4 * m)) * dt,
        initial_state=VehicleState(*draw(st.tuples(_start, _start, _start, _start))),
    )


def _hex_state(s):
    return [s.x.hex(), s.y.hex(), s.vx.hex(), s.vy.hex()]


def _outcome(fn, *args):
    """Every logged column, or the divergence record and partial log, as hex strings."""
    try:
        out, failure = fn(*args), None
    except DivergenceError as err:
        out = err.trajectory
        failure = (err.t.hex(), err.step, err.yaw.hex(), _hex_state(err.state))
    if isinstance(out, VehicleState):
        return _hex_state(out), failure
    if out is None:
        return None, failure
    columns = {}
    for f in dataclasses.fields(out):
        col = out.column(f.name).tolist()
        columns[f.name] = [v.hex() if isinstance(v, float) else v for v in col]
    return columns, failure


# runs that diverge at each place a step can fail; the first four are the
# CLI tests' DIVERGING_KY2 runs (small preset, y0 = 0.5, 0 to 3769 logged rows)
_DIVERGING = [
    SimConfig(
        params=ModelParams(ky2=ky2),
        gait=preset("small"),
        duration=6.0,
        initial_state=VehicleState(0.0, 0.5, 0.0, 0.0),
    )
    for ky2 in (1e307, 1e300, 1e8, 2e7, 1e15)  # 1e15 fails in stage 1 of row 19
] + [
    # every controller output stays finite, but the first new velocity overflows
    SimConfig(
        params=ModelParams(0.1, math.pi / 4, 1.0, 0.1, 0.1, 0.1, 0.1),
        gait=preset("large"),
        duration=0.01,
        initial_state=VehicleState(0.0, 0.0, 1e308, 0.0),
    )
]


# finite raw commands whose sum overflows, and finite states whose sum does, on
# every row: both are clamped to zero thrust, so each step is finite until the
# position overflows in stage 4 of row 790
_OVERFLOWING_SUMS = SimConfig(
    params=ModelParams(1.0, math.pi / 4, 0.5, 2.0, 0.3, 0.1, 0.1),
    gait=GaitSchedule(amplitude=0.1, period=0.004),
    duration=1.0,
    initial_state=VehicleState(1.6e308, 0.0, 2.5e307, 0.0),
)


class TestFusedLoop:
    """``run`` and ``step`` equal the kernel call chain of ``oracles`` bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(config=_sim_configs())
    @example(config=_DIVERGING[0])
    @example(config=_DIVERGING[1])
    @example(config=_DIVERGING[2])
    @example(config=_DIVERGING[3])
    @example(config=_DIVERGING[4])
    @example(config=_DIVERGING[5])
    @example(config=_OVERFLOWING_SUMS)
    def test_run_matches_kernel_chain(self, config):
        assert _outcome(run, config) == _outcome(oc.kernel_run, config)

    @settings(max_examples=300, deadline=None)
    @given(
        config=_sim_configs(),
        t=st.one_of(st.floats(0.0, 100.0), st.integers(0, 5000)),
        state=st.tuples(_start, _start, _start, _start),
    )
    @example(config=_DIVERGING[5], t=0, state=(0.0, 0.0, 1e308, 0.0))
    @example(config=_OVERFLOWING_SUMS, t=0, state=(1.6e308, 0.0, 2.5e307, 0.0))
    def test_step_matches_kernel_chain(self, config, t, state):
        # an integer t is a grid step index
        t = t * config.dt if isinstance(t, int) else t
        state = VehicleState(*state)
        assert _outcome(step, state, t, config) == _outcome(oc.kernel_step, state, t, config)

    def test_diverging_examples_fail_where_expected(self):
        # (failing step, logged rows): before row 0's log, after it, in the
        # later stages of a later row, in stage 1 of a later row, and in the new state
        got = []
        for config in _DIVERGING:
            with pytest.raises(DivergenceError) as info:
                run(config)
            got.append((info.value.step, len(info.value.trajectory)))
        assert got == [(0, 0), (0, 1), (224, 225), (3768, 3769), (19, 19), (0, 1)]

    def test_diverging_examples_name_their_cause(self):
        # the check that failed, from run and again from step at the failing step
        causes = []
        for config in _DIVERGING:
            with pytest.raises(DivergenceError) as info:
                run(config)
            err = info.value
            message = f"{err.cause} became non-finite during the step starting at t={err.t}"
            assert str(err) == message
            with pytest.raises(DivergenceError) as again:
                step(err.state, err.t, config)
            assert again.value.cause == err.cause
            causes.append(err.cause)
        assert causes == [
            "stage 1 raw command",
            "stage 3 desired acceleration",
            "stage 3 raw command",
            "stage 4 raw command",
            "stage 1 desired acceleration",
            "new state",
        ]


    def test_overflowing_sums_are_tested_term_by_term(self):
        # a finiteness test on the sums alone would stop at row 0
        with pytest.raises(DivergenceError) as info:
            run(_OVERFLOWING_SUMS)
        err, traj = info.value, info.value.trajectory
        assert (err.step, len(traj), err.cause) == (790, 791, "stage 4 desired acceleration")
        assert np.isfinite(np.column_stack([traj.w1sq_raw, traj.w2sq_raw])).all()
        with np.errstate(over="ignore"):
            assert np.isinf(traj.w1sq_raw + traj.w2sq_raw).all()
            assert np.isinf(traj.x + traj.y + traj.vx + traj.vy).all()
        with pytest.raises(DivergenceError) as again:
            step(err.state, err.t, _OVERFLOWING_SUMS)
        assert again.value.cause == err.cause


class TestYawSchedule:
    @pytest.mark.parametrize(
        "gait",
        [preset("small"), preset("large"), GaitSchedule(amplitude=1.2, period=0.6, phase_sign=1)],
        ids=["small", "large", "amplitude-1.2"],
    )
    def test_step_index_schedule_matches_time_schedule(self, gait):
        # the yaw on grid step k is the time schedule's value inside the step,
        # over 40 half periods; each dt divides all three half periods
        for dt in (1e-3, 2.5e-3, 1e-2, 0.05, 0.1):
            m = _grid_count(gait.half_period, dt, "half the gait period")
            for k in range(40 * m):
                assert _yaw(k, m, gait) == oc.yaw_at((k + 0.5) * dt, gait), (dt, k)


class TestRun:
    def test_determinism(self):
        cfg = SimConfig(gait=preset("large"), duration=2.0)
        t1, t2 = run(cfg), run(cfg)
        for name in TRAJECTORY_COLUMNS:
            assert np.array_equal(t1.column(name), t2.column(name))

    def test_small_gait_tracks_exactly(self, small_run):
        assert np.abs(small_run.ex).max() < 1e-8
        assert np.abs(small_run.ey).max() < 1e-8
        assert not small_run.clamped.any()

    def test_small_gait_commands_periodic(self, small_run):
        # with zero error the commands depend on time only through the yaw
        w = small_run.w1sq
        n_period = 2000
        tail = w[2000:6001]
        np.testing.assert_allclose(tail[:-n_period], tail[n_period:], rtol=1e-9)

    def test_small_gait_unsaturated_error_dynamics(self):
        # a small lateral offset decays along the two-exponential flow
        cfg = SimConfig(
            gait=preset("small"),
            duration=2.0,
            initial_state=VehicleState(0.0, -1e-3, 0.0, 0.0),
        )
        traj = run(cfg)
        assert not traj.clamped.any()
        for k in (100, 500, 1500, 2000):
            e, edot = s11_flow(1e-3, 0.0, k * cfg.dt)
            assert traj.ey[k] == pytest.approx(e, abs=1e-9)
            assert traj.eydot[k] == pytest.approx(edot, abs=1e-9)

    def test_large_gait_x_channel_exact(self, large_run):
        assert np.abs(large_run.ex).max() < 1e-6
        assert np.abs(large_run.exdot).max() < 1e-6

    def test_large_gait_desired_x_accel_is_one(self, large_run):
        assert np.abs(large_run.ax_d - 1.0).max() < 1e-6

    def test_large_gait_saturates_but_stays_bounded(self, large_run):
        assert large_run.clamped.any()
        assert np.abs(large_run.ey).max() < 0.5
        assert np.abs(large_run.ey[4000:]).max() > 1e-3

    def test_first_half_period_matches_push_parabola(self, large_run):
        t = large_run.t[:1001]
        np.testing.assert_allclose(large_run.ey[:1001], t * t / (2 * SQRT3), atol=1e-10)
        np.testing.assert_allclose(large_run.eydot[:1001], t / SQRT3, atol=1e-10)

    def test_flipped_phase_mirrors_first_half_period(self):
        # simulating both phase signs pins down which one produces the
        # outward positive-error push from rest
        from tiltsim import GaitSchedule

        gait = GaitSchedule(amplitude=math.pi / 3, phase_sign=1)
        traj = run(SimConfig(gait=gait, duration=2.0))
        t = traj.t[:1001]
        np.testing.assert_allclose(traj.ey[:1001], -t * t / (2 * SQRT3), atol=1e-10)

    def test_x_channel_unsaturated_closed_loop(self):
        # small longitudinal offset decays along the PD error dynamics with
        # the x gains; compared against the independent RK4 oracle
        cfg = SimConfig(
            gait=preset("small"),
            duration=2.0,
            initial_state=VehicleState(1e-3, 0.0, 0.0, 0.0),
        )
        traj = run(cfg)
        assert not traj.clamped.any()
        for k in (200, 1000, 2000):
            eo, edo = oc.rk4_linear_flow(-1e-3, 0.0, 12.0, 6.0, k * cfg.dt, 4 * k)
            assert traj.ex[k] == pytest.approx(float(eo), abs=1e-9)
            assert traj.exdot[k] == pytest.approx(float(edo), abs=1e-9)

    def test_boundary_states_match_iterated_map(self, large_run):
        # the simulated lateral error at half-period boundaries must agree
        # with the analytic return map iterated from the first boundary
        e, edot = 1 / (2 * SQRT3), 1 / SQRT3
        sign = +1
        for h in range(1, 8):
            k = h * 1000
            assert large_run.ey[k] == pytest.approx(e, abs=1e-5)
            assert large_run.eydot[k] == pytest.approx(edot, abs=1e-5)
            (e,), (edot,) = half_period_map(e, edot, sign)
            sign = -sign

    def test_switch_matrix_restriction(self, large_run):
        lam = large_run.lam[1000:]
        p = large_run.p[1000:]
        q = large_run.q[1000:]
        assert (p[lam < 0] == 1).all()
        assert (q[lam > 0] == 1).all()

    def test_clamping_iff_angle_outside_cone(self, large_run):
        ang = large_run.angle_des
        lo = large_run.angle_lo
        hi = large_run.angle_hi
        width = (hi - lo) % (2 * math.pi)
        delta = (ang - lo) % (2 * math.pi)
        inside = delta <= width
        # skip samples within a hair of the cone edge
        edge_dist = np.minimum(np.abs(delta), np.abs(delta - width))
        clear = edge_dist > 1e-9
        assert (inside[clear] != large_run.clamped[clear]).all()

    def test_divergence_carries_partial_trajectory(self):
        params = ModelParams(ky2=2.0e7)
        cfg = SimConfig(
            params=params,
            gait=preset("small"),
            dt=1e-3,
            duration=6.0,
            initial_state=VehicleState(0.0, 0.5, 0.0, 0.0),
        )
        with pytest.raises(DivergenceError) as info:
            run(cfg)
        partial = info.value.trajectory
        assert partial is not None
        assert len(partial) >= 1
        assert np.isfinite(partial.y).all()


class TestCrossValidationOracle:
    def test_one_half_period_against_switched_oracle(self):
        # simulate the full vehicle over one half period and compare the
        # lateral error with the reduced switched-loop oracle
        cfg = SimConfig(gait=preset("large"), duration=2.0)
        traj = run(cfg)
        e0, ed0 = traj.ey[1000], traj.eydot[1000]
        eo, edo = oc.rk4_switched_flow(e0, ed0, math.pi / 3, DEFAULT_PARAMS, 1.0, 20000)
        assert traj.ey[2000] == pytest.approx(float(eo), abs=1e-6)
        assert traj.eydot[2000] == pytest.approx(float(edo), abs=1e-6)


class TestVerifyTrajectory:
    def test_small_run_passes_with_inapplicable_checks(self, small_run):
        cfg = SimConfig(gait=preset("small"), duration=6.0)
        report = verify_trajectory(small_run, cfg)
        assert report["passed"]
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["switch_restriction"]["applicable"]
        assert by_name["switch_restriction"]["passed"]
        assert not by_name["lyapunov_sup_bound"]["applicable"]
        assert not by_name["boundary_state_capture"]["applicable"]
        assert report["summary"]["n_clamped_samples"] == 0

    def test_large_run_passes_all_checks(self, large_run, large_cfg):
        report = verify_trajectory(large_run, large_cfg, grid_resolution=100)
        assert report["passed"]
        for check in report["checks"]:
            assert check["applicable"]
            assert check["passed"]
        assert report["summary"]["n_clamped_samples"] > 0
        assert report["summary"]["settling_half_period"] is not None

    def test_report_serializes(self, large_run, large_cfg):
        d = verify_trajectory(large_run, large_cfg, l_critical=1.8)
        assert set(json.loads(json.dumps(d))) == {"passed", "checks", "summary"}
        assert len(d["checks"]) == 4

    def test_single_sample_trajectory_gives_empty_report(self):
        # one logged row (divergence on the very first step) must degrade to
        # an all-inapplicable passing report
        import dataclasses

        cfg = SimConfig(gait=preset("small"), duration=2.0)
        traj = run(cfg)
        one_row = dataclasses.replace(
            traj,
            **{
                f.name: getattr(traj, f.name)[:1]
                for f in dataclasses.fields(traj)
            },
        )
        report = verify_trajectory(one_row, cfg, l_critical=0.0)
        assert report["passed"]
        assert all(not c["applicable"] for c in report["checks"])

    def test_clamped_run_without_a_half_period_is_empty(self):
        # every sample clamps, but the run ends before its first half-period boundary
        cfg = SimConfig(gait=preset("large"), duration=0.5)
        report = verify_trajectory(run(cfg), cfg)
        summary = report["summary"]
        assert summary["saturated_run"]
        assert summary["n_clamped_samples"] == summary["n_samples"] == 501
        assert [(c["applicable"], c["detail"]) for c in report["checks"]] == [
            (False, {"note": "empty"})
        ] * 4


# (amplitude, period, duration, y0, vy0, (ky1, ky2), l_critical): runs that
# pass, fail each check, skip checks, or stop inside their first half periods
ORACLE_CASES = {
    "large_computed": (math.pi / 3, 2.0, 6.0, 0.0, 0.0, (9.0, 18.0), None),
    "large_generic_computed": (math.pi / 3, 2.0, 6.0, 0.01, 0.0, (6.0, 12.0), None),
    "large_zero_level": (math.pi / 3, 2.0, 6.0, -0.05, 0.0, (9.0, 18.0), 0),
    "large_given_level": (math.pi / 3, 2.0, 6.0, 0.01, 0.0, (9.0, 18.0), 1.8),
    "small_unsaturated": (math.pi / 8, 2.0, 6.0, 0.01, 0.0, (9.0, 18.0), None),
    "capture_fails": (1.2, 0.4, 4.0, 0.01, 0.0, (9.0, 18.0), 1.8),
    "capture_fails_generic": (1.2, 0.4, 4.0, 0.0, 0.0, (6.0, 12.0), None),
    "switch_fails": (1.2, 0.02, 0.04, 0.0, 2.0, (9.0, 18.0), 1.8),
    "local_max_fails": (0.8, 0.4, 0.8, 0.3, -3.0, (9.0, 18.0), 1.8),
    "fast_gait": (math.pi / 5, 0.02, 1.0, -0.05, 0.0, (9.0, 18.0), None),
    "one_step_half_period": (math.pi / 3, 0.002, 0.5, 0.0, 0.0, (9.0, 18.0), 1.8),
    "one_step_half_period_generic": (math.pi / 3, 0.002, 0.5, 0.01, 0.0, (6.0, 12.0), 0),
    "two_rows": (math.pi / 3, 2.0, 0.001, 0.0, 0.0, (9.0, 18.0), None),
    "one_half_period": (math.pi / 3, 2.0, 1.0, 0.0, 0.0, (9.0, 18.0), None),
    "partial_second_half": (math.pi / 3, 2.0, 1.5, 0.01, 0.0, (9.0, 18.0), 0),
    # the res-24 search cannot bracket the level at these gains
    "large_unbracketed": (math.pi / 3, 2.0, 6.0, 0.0, 0.0, (5.0, 20.0), None),
}


def _oracle_case(name):
    amplitude, period, duration, y0, vy0, (ky1, ky2), l_critical = ORACLE_CASES[name]
    cfg = SimConfig(
        params=ModelParams(ky1=ky1, ky2=ky2),
        gait=GaitSchedule(amplitude=amplitude, period=period),
        duration=duration,
        initial_state=VehicleState(0.0, y0, 0.0, vy0),
    )
    return run(cfg), cfg, l_critical


def _first_rows(traj, n):
    return dataclasses.replace(
        traj, **{f.name: getattr(traj, f.name)[:n] for f in dataclasses.fields(traj)}
    )


class TestVerifyTrajectoryOracle:
    """The report, as JSON, equals the half-period-by-half-period loop's."""

    @staticmethod
    def _assert_same(traj, cfg, l_critical):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = verify_trajectory(traj, cfg, l_critical, grid_resolution=24)
            want = oc.scalar_verify_trajectory(traj, cfg, l_critical, grid_resolution=24)
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_matches_scalar_loop(self, name):
        self._assert_same(*_oracle_case(name))

    @pytest.mark.parametrize("name", ["large_computed", "small_unsaturated"])
    @pytest.mark.parametrize("l_critical", [None, 0.0])
    @pytest.mark.parametrize("rows", [0, 1])
    def test_first_rows_match_scalar_loop(self, name, l_critical, rows):
        traj, cfg, _ = _oracle_case(name)
        self._assert_same(_first_rows(traj, rows), cfg, l_critical)

    def test_cases_cover_every_outcome(self):
        outcomes = set()
        for name in ORACLE_CASES:
            traj, cfg, l_critical = _oracle_case(name)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = oc.scalar_verify_trajectory(traj, cfg, l_critical, grid_resolution=24)
            outcomes |= {(c["name"], c["applicable"], c["passed"]) for c in report["checks"]}
        for check in (
            "switch_restriction",
            "lyapunov_local_max",
            "lyapunov_sup_bound",
            "boundary_state_capture",
        ):
            assert {(check, True, True), (check, True, False), (check, False, True)} <= outcomes


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path, small_run):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(small_run, path)
        text = path.read_text()
        assert "\r" not in text
        header, *rows = text.strip().split("\n")
        assert header == ",".join(TRAJECTORY_COLUMNS)
        assert len(rows) == len(small_run)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 0], small_run.t)
        np.testing.assert_array_equal(data[:, 5], small_run.ex)

    def test_fields_match_fmt(self, tmp_path):
        # more rows than one writer chunk, every float column holding the
        # awkward values at shifted rows
        values = np.resize([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, 1.0], 4099)
        cols = {f.name: np.roll(values, i) for i, f in enumerate(dataclasses.fields(Trajectory))}
        cols["p"] = np.resize(np.array([0, 1], dtype=np.int64), len(values))
        cols["q"] = np.resize(np.array([1, 1, 0], dtype=np.int64), len(values))
        traj = Trajectory(**cols)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        text = path.read_text()
        assert text.endswith("\n")
        header, *rows = text[:-1].split("\n")
        assert header == ",".join(TRAJECTORY_COLUMNS)
        assert len(rows) == len(values)
        for k, row in enumerate(rows):
            expected = [
                str(int(v)) if name in ("p", "q") else fmt(v)
                for name, v in ((name, traj.column(name)[k]) for name in TRAJECTORY_COLUMNS)
            ]
            assert row.split(",") == expected, k

    def test_byte_determinism(self, tmp_path):
        cfg = SimConfig(gait=preset("large"), duration=2.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(run(cfg), p1)
        write_trajectory_csv(run(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
