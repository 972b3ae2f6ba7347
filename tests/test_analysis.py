import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles as oc
from tiltsim import analysis, checks
from tiltsim import (
    DEFAULT_PARAMS,
    DELTA_L_CAP,
    ErrorState,
    ModelParams,
    acceleration_angle,
    angle_in_cone,
    critical_lyapunov,
    delta_l,
    delta_l_grid,
    feasible_cone,
    half_period_map,
    hitting_time,
    hitting_time_simulated,
    in_admissible_region,
    lyapunov,
    s11_flow,
    saturated_flow,
    verify_quadrant_capture,
)
from tiltsim.analysis import _event_hitting_times, _hit_times, _map
from tiltsim.output import write_grid_csv
from tiltsim.checks import (
    _N_SAMPLES,
    _check_clamp_rule,
    _check_local_max,
    _check_region_rule,
    _check_self_map,
    _grid_maps,
    _sample_region,
    run_lemma_checks,
)

# a numpy overflow or invalid value in the engines or the root solver fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SQRT3 = math.sqrt(3.0)
INV3 = 1.0 / SQRT3


class TestLyapunov:
    def test_zero(self):
        assert lyapunov(ErrorState(0.0, 0.0)) == 0.0

    def test_position_term(self):
        assert lyapunov(ErrorState(0.1, 0.0)) == pytest.approx(0.09)

    def test_kinetic_term(self):
        assert lyapunov(ErrorState(0.0, 1.0)) == pytest.approx(0.5)


class TestS11Flow:
    def test_initial_condition(self):
        s = ErrorState(0.3, -0.7)
        out = s11_flow(s, 0.0)
        assert out.e == pytest.approx(s.e, abs=1e-15)
        assert out.edot == pytest.approx(s.edot, abs=1e-15)

    def test_decay(self):
        # slow mode decays at rate 3, so e(t) ~ 2 exp(-3 t) from (1, 0)
        out = s11_flow(ErrorState(1.0, 0.0), 8.0)
        assert abs(out.e) < 1e-9
        assert abs(out.edot) < 1e-9

    def test_against_rk4_oracle(self):
        # frozen from the fixed-step RK4 oracle at 1e-6 step
        out = s11_flow(ErrorState(0.1, 0.0), 0.1)
        assert out.e == pytest.approx(0.09328248052693948, abs=1e-8)
        assert out.edot == pytest.approx(-0.11520395075261305, abs=1e-8)

    def test_many_states_against_oracle(self):
        rng = np.random.default_rng(3)
        e0 = rng.uniform(-2, 2, 1000)
        ed0 = rng.uniform(-2, 2, 1000)
        eo, edo = oc.rk4_linear_flow(e0, ed0, 9.0, 18.0, 0.37, 4000)
        for i in range(0, 1000, 7):
            out = s11_flow(ErrorState(e0[i], ed0[i]), 0.37)
            assert out.e == pytest.approx(eo[i], abs=1e-6)
            assert out.edot == pytest.approx(edo[i], abs=1e-6)

    def test_nondefault_gains_match_oracle(self):
        for ky1, ky2 in [(4.0, 3.0), (6.0, 9.0), (2.0, 30.0)]:
            p = ModelParams(ky1=ky1, ky2=ky2)
            eo, edo = oc.rk4_linear_flow(0.8, -0.4, ky1, ky2, 0.9, 20000)
            out = s11_flow(ErrorState(0.8, -0.4), 0.9, p)
            assert out.e == pytest.approx(float(eo), abs=1e-10)
            assert out.edot == pytest.approx(float(edo), abs=1e-10)


class TestSaturatedFlow:
    def test_first_half_period_from_rest(self):
        out = saturated_flow(ErrorState(0.0, 0.0), 1.0, +1)
        assert out.e == pytest.approx(1 / (2 * SQRT3), abs=1e-15)
        assert out.edot == pytest.approx(INV3, abs=1e-15)

    def test_identity_at_zero(self):
        s = ErrorState(0.2, -0.1)
        out = saturated_flow(s, 0.0, -1)
        assert (out.e, out.edot) == (s.e, s.edot)

    def test_against_rk4_oracle(self):
        # frozen from a fixed-step RK4 run of the constant-acceleration flow
        out = saturated_flow(ErrorState(0.2, -0.1), 0.5, -1)
        assert out.e == pytest.approx(0.07783121635129628, abs=1e-10)
        assert out.edot == pytest.approx(-0.388675134594809, abs=1e-10)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            saturated_flow(ErrorState(0.0, 0.0), 1.0, 0)


class TestHittingTimes:
    def test_on_threshold_is_zero(self):
        e = INV3 / 18.0  # ky2*e = 1/sqrt(3) with edot = 0
        assert hitting_time(ErrorState(e, 0.0), +1) == pytest.approx(0.0, abs=1e-12)
        assert hitting_time(ErrorState(-e, 0.0), -1) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        # frozen from the event-detection oracle (RK4 sweep plus bisection)
        t = hitting_time(ErrorState(0.1, 0.0), +1)
        assert t == pytest.approx(0.10853217910009144, abs=1e-9)

    def test_inside_unit_interval(self):
        assert 0.0 < hitting_time(ErrorState(1.0, 1.0), +1) < 1.0
        assert 0.0 < hitting_time(ErrorState(-1.0, -1.0), -1) < 1.0

    def test_point_symmetry(self):
        rng = np.random.default_rng(23)
        e0, ed0 = oc.sample_capture_region(rng, 100, +1, 9.0, 18.0)
        for e, ed in zip(e0, ed0):
            tp = hitting_time(ErrorState(e, ed), +1)
            tn = hitting_time(ErrorState(-e, -ed), -1)
            assert tn == pytest.approx(tp, abs=1e-13)

    def test_neg_mirrors_pos_exactly(self):
        rng = np.random.default_rng(61)
        for ky1, ky2, n in ((9.0, 18.0, 5000), (6.0, 10.0, 40)):
            p = ModelParams(ky1=ky1, ky2=ky2)
            e0, ed0 = oc.sample_capture_region(rng, n, +1, ky1, ky2)
            for e, ed in zip(e0, ed0):
                tp = hitting_time(ErrorState(e, ed), +1, p)
                assert hitting_time(ErrorState(-e, -ed), -1, p) == tp

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="first-quadrant"):
            hitting_time(ErrorState(-0.1, 0.0), +1)
        with pytest.raises(ValueError, match="third-quadrant"):
            hitting_time(ErrorState(0.1, 0.0), -1)
        with pytest.raises(ValueError):
            hitting_time(ErrorState(0.001, 0.001), +1)  # below the threshold

    def test_against_event_oracle(self):
        rng = np.random.default_rng(29)
        for sign in (+1, -1):
            e0, ed0 = oc.sample_capture_region(rng, 100, sign, 9.0, 18.0)
            t_oracle = oc.event_hitting_times(e0, ed0, sign, 9.0, 18.0)
            for i in range(len(e0)):
                s = ErrorState(e0[i], ed0[i])
                t = hitting_time(s, sign)
                assert t == pytest.approx(t_oracle[i], abs=1e-6)
                assert 0.0 <= t < 1.0

    def test_simulated_channel_agrees(self):
        s = ErrorState(0.4, 0.9)
        t_closed = hitting_time(s, +1)
        t_event = hitting_time_simulated(s, +1)
        assert abs(t_closed - t_event) < 1e-8

    def test_nondefault_gains_against_oracle(self):
        p = ModelParams(ky1=6.0, ky2=10.0)
        s = ErrorState(0.5, 0.2)
        assert in_admissible_region(s, +1, p)
        t = hitting_time(s, +1, p)
        t_oracle = float(oc.event_hitting_times([0.5], [0.2], +1, 6.0, 10.0)[0])
        assert t == pytest.approx(t_oracle, abs=1e-6)


    @pytest.mark.parametrize("ky1, ky2", [(9.0, 18.0), (6.0, 10.0), (2.0, 5.0)])
    def test_array_times_equal_scalar_calls(self, ky1, ky2):
        p = ModelParams(ky1=ky1, ky2=ky2)
        rng = np.random.default_rng(83)
        for sign in (+1, -1):
            e0, ed0 = oc.sample_capture_region(rng, 30, sign, ky1, ky2)
            want = [analysis.hitting_time(ErrorState(e, ed), sign, p) for e, ed in zip(e0, ed0)]
            assert _hit_times(e0, ed0, sign, p).tobytes() == np.array(want).tobytes()

    def test_no_crossing_error_names_the_horizon(self):
        p = ModelParams(ky1=0.05, ky2=0.04)
        # the second state starts below the threshold
        t = _hit_times(np.array([20.0, 0.5]), np.array([20.0, 0.2]), +1, p)
        assert np.isnan(t[0]) and t[1] == 0.0
        message = r"^unsaturated flow does not reach the threshold within 8\.0 s for gains"
        with pytest.raises(ValueError, match=message):
            hitting_time(ErrorState(20.0, 20.0), +1, p)
        with pytest.raises(ValueError, match=message):
            hitting_time(ErrorState(-20.0, -20.0), -1, p)


class TestHalfPeriodMap:
    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            half_period_map(ErrorState(0.0, 0.0), +1)

    def test_first_boundary_state_lands_in_mirror_region(self):
        s1 = ErrorState(1 / (2 * SQRT3), INV3)
        out = half_period_map(s1, +1)
        assert in_admissible_region(out, -1)

    def test_against_switched_loop_oracle(self):
        # frozen from the RK4 oracle through the full clamped controller
        out = half_period_map(ErrorState(0.5, 0.5), +1)
        assert out.e == pytest.approx(-0.33131365931481366, abs=1e-6)
        assert out.edot == pytest.approx(-1.1947081709008267, abs=1e-6)

    def test_many_states_against_switched_oracle(self):
        rng = np.random.default_rng(31)
        for sign, lam in ((+1, math.pi / 3), (-1, -math.pi / 3)):
            e0, ed0 = oc.sample_capture_region(rng, 250, sign, 9.0, 18.0)
            eo, edo = oc.rk4_switched_flow(e0, ed0, lam, DEFAULT_PARAMS, 1.0, 10000)
            for i in range(len(e0)):
                out = half_period_map(ErrorState(e0[i], ed0[i]), sign)
                assert out.e == pytest.approx(eo[i], abs=1e-6)
                assert out.edot == pytest.approx(edo[i], abs=1e-6)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(37)
        e0, ed0 = oc.sample_capture_region(rng, 200, +1, 9.0, 18.0)
        for e, ed in zip(e0, ed0):
            fwd = half_period_map(ErrorState(e, ed), +1)
            mir = half_period_map(ErrorState(-e, -ed), -1)
            assert mir.e == pytest.approx(-fwd.e, abs=1e-13)
            assert mir.edot == pytest.approx(-fwd.edot, abs=1e-13)

    def test_generic_engine_matches_default_path(self, monkeypatch):
        # the bracketed crossing search at the default gains against their closed form
        rng = np.random.default_rng(41)
        e0, ed0 = oc.sample_capture_region(rng, 200, +1, 9.0, 18.0)
        de, ded = _map(e0, ed0, +1, DEFAULT_PARAMS, 1.0)  # the closed form
        monkeypatch.setattr(analysis, "_has_default_rates", lambda params: False)
        ge, ged = _map(e0, ed0, +1, DEFAULT_PARAMS, 1.0)
        np.testing.assert_allclose(ge, de, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(ged, ded, rtol=0.0, atol=1e-12)

    def test_nondefault_gains_against_switched_oracle(self):
        # both yaw signs through the full clamped controller, at real (6, 10)
        # and complex (2, 5) rates
        for ky1, ky2 in ((6.0, 10.0), (2.0, 5.0)):
            p = ModelParams(ky1=ky1, ky2=ky2)
            for sign, lam in ((+1, math.pi / 3), (-1, -math.pi / 3)):
                rng = np.random.default_rng(43)
                e0, ed0 = oc.sample_capture_region(rng, 40, sign, ky1, ky2)
                eo, edo = oc.rk4_switched_flow(e0, ed0, lam, p, 1.0, 20000)
                for i in range(len(e0)):
                    out = half_period_map(ErrorState(e0[i], ed0[i]), sign, p)
                    assert out.e == pytest.approx(eo[i], abs=1e-6)
                    assert out.edot == pytest.approx(edo[i], abs=1e-6)

    def test_large_state_at_generic_gains_against_switched_oracle(self):
        # the gap a root solve leaves grows with the state (slope ky1*ky2*e, 4e4
        # here): a solver that returned the wrong bracket end sent this cell
        # through an extra linear segment, to (-42.9, 103.1)
        p = ModelParams(ky1=5.0, ky2=20.0)
        got = _map(np.array([434.0]), np.array([0.0]), +1, p, 1.0)
        eo, edo = oc.rk4_switched_flow(np.array([434.0]), np.array([0.0]), math.pi / 3, p, 1.0, 20000)
        np.testing.assert_allclose(np.ravel(got), [eo[0], edo[0]], rtol=1e-7)

    @pytest.mark.parametrize("gap", [5e-10, 1e-8])
    def test_crossing_before_first_scan_sample(self, gap):
        # the PD output starts `gap` above the threshold and crosses it within
        # 1e-12 s: a scan that started after the crossing ran this cell linear
        # all half period, to (-20.3, 208.7)
        p = ModelParams(ky1=5.0, ky2=20.0)
        e0 = np.array([434.0])
        ed0 = (analysis.INV_SQRT3 + gap - p.ky2 * e0) / p.ky1
        e1, ed1 = _map(e0, ed0, +1, p, 1.0)
        eo, edo = oc.rk4_switched_flow(e0, ed0, math.pi / 3, p, 1.0, 20000)
        np.testing.assert_allclose([e1[0], ed1[0]], [eo[0], edo[0]], rtol=1e-7)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "ky1, ky2, e0, ed0",
        [
            (0.5, 40.0, 0.005, 0.7547005384792517),
            (1.0, 30.0, 0.01, 0.27735026923962586),
            (2.0, 5.0, 0.01, 0.2636751346198129),
        ],
    )
    def test_near_threshold_cell_whose_pd_output_rises(self, ky1, ky2, e0, ed0, sign):
        # the PD output starts 5e-11 above the threshold and rises (ky2 > ky1^2),
        # so the cell runs linear until a later crossing: an engine that counted
        # every cell within 1e-10 of the threshold as clamped pushed it all half
        # period, to (0.4710, 0.1774) against (-0.4240, -0.9790) at (0.5, 40)
        p = ModelParams(ky1=ky1, ky2=ky2)
        e0, ed0 = np.array([sign * e0]), np.array([sign * ed0])
        e1, ed1 = _map(e0, ed0, sign, p, 1.0)
        eo, edo = oc.rk4_switched_flow(e0, ed0, sign * math.pi / 3, p, 1.0, 20000)
        np.testing.assert_allclose([e1[0], ed1[0]], [eo[0], edo[0]], rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "ky1, ky2, e0, ed0",
        [
            (2.0, 5.0, 0.01, 0.2636751345948129),
            (0.5, 40.0, 0.005, 0.7547005383792517),
            (1.0, 30.0, 0.01, 0.27735026918962585),
        ],
    )
    def test_cell_on_the_threshold_whose_pd_output_rises(self, ky1, ky2, e0, ed0, sign):
        # the gap is exactly 0.0 and the PD output rises (ky2 > ky1^2), so the
        # cell runs linear until its crossing: an engine that held every zero
        # gap clamped missed the oracle by 1.16 at (0.5, 40) and returned a
        # hitting time of 0.0 where the crossing is at 0.4565 s
        p = ModelParams(ky1=ky1, ky2=ky2)
        e0, ed0 = np.array([sign * e0]), np.array([sign * ed0])
        assert analysis._gap_and_slope(sign * e0, sign * ed0, 0.0, p)[0][0] == 0.0
        e1, ed1 = _map(e0, ed0, sign, p, 1.0)
        eo, edo = oc.rk4_switched_flow(e0, ed0, sign * math.pi / 3, p, 1.0, 20000)
        np.testing.assert_allclose([e1[0], ed1[0]], [eo[0], edo[0]], rtol=0.0, atol=1e-6)
        s = ErrorState(float(e0[0]), float(ed0[0]))
        t = hitting_time(s, sign, p)
        assert t > 0.1
        assert abs(t - hitting_time_simulated(s, sign, p)) <= 1e-9

    def test_first_crossing_of_a_fast_oscillation(self):
        # at (1, 4e6) the PD output oscillates with a period of about 3 ms and
        # first crosses the threshold at 0.000713 s: a scan of the half period
        # in 256 samples missed the crossing pair inside its first interval,
        # took 0.00385 s and landed 1.8e-3 from the oracle
        p = ModelParams(ky1=1.0, ky2=4e6)
        for sign in (1, -1):
            e0, ed0 = np.array([sign * 1e-6]), np.array([0.0])
            e1, ed1 = _map(e0, ed0, sign, p, 1.0)
            eo, edo = oc.rk4_switched_flow(e0, ed0, sign * math.pi / 3, p, 1.0, 20000)
            np.testing.assert_allclose([e1[0], ed1[0]], [eo[0], edo[0]], rtol=0.0, atol=1e-6)


_gain = st.floats(0.5, 40.0)
# (ky1, ky2) pairs: any pair (distinct or complex rates), or ky1^2 = 4*ky2
# (repeated rate)
_gains = st.one_of(
    st.tuples(_gain, _gain),
    st.integers(1, 10).map(lambda k: (2.0 * k, float(k * k))),
)
# ky2 = ky1^2/4 * (1 +/- 1e-12): rates on either side of the repeated case
_near_repeated_gains = st.tuples(_gain, st.sampled_from((1.0 - 1e-12, 1.0 + 1e-12))).map(
    lambda g: (g[0], g[0] * g[0] / 4.0 * g[1])
)
_cell = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
_quadrant_cell = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0))


class TestArrayEngine:
    @settings(max_examples=60, deadline=None)
    @given(
        gains=_gains,
        sign=st.sampled_from((1, -1)),
        cells=st.lists(_quadrant_cell, min_size=1, max_size=12),
    )
    @example(gains=(6.0, 9.0), sign=1, cells=[(0.5, 0.2), (1.0, 1.5)])
    @example(gains=(2.0, 30.0), sign=-1, cells=[(0.5, 0.2), (1.0, 0.3)])
    def test_batch_matches_scalar_calls(self, gains, sign, cells):
        # the map is defined on the capture region, so the cells are drawn there
        p = ModelParams(ky1=gains[0], ky2=gains[1])
        e0 = sign * np.array([c[0] for c in cells])
        ed0 = sign * np.array([c[1] for c in cells])
        inside = analysis._region_mask(e0, ed0, sign, p)
        assume(inside.any())
        e0, ed0 = e0[inside], ed0[inside]
        e1, ed1 = _map(e0, ed0, sign, p, 1.0)
        for k in range(e0.size):
            want = _map(e0[k : k + 1], ed0[k : k + 1], sign, p, 1.0)
            assert np.array([e1[k], ed1[k]]).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("ky1, ky2, res", [(9.0, 18.0, 101), (6.0, 12.0, 37), (1.0, 2.0, 21)])
    def test_self_map_check_matches_scalar_loop(self, ky1, ky2, res):
        p = ModelParams(ky1=ky1, ky2=ky2)
        n, bad = oc.self_map_counts(res, p)
        passed, detail = _check_self_map(_grid_maps(res, p), p)
        assert detail == {"n_checked": n, "n_violations": bad}
        assert passed == (bad == 0)


class TestEventEngine:
    @pytest.mark.parametrize("ky1, ky2", [(9.0, 18.0), (6.0, 9.0), (2.0, 5.0)])
    def test_against_event_oracle(self, ky1, ky2):
        # distinct, repeated and complex rates
        p = ModelParams(ky1=ky1, ky2=ky2)
        rng = np.random.default_rng(71)
        for sign in (+1, -1):
            e0, ed0 = oc.sample_capture_region(rng, 30, sign, ky1, ky2)
            want = oc.event_hitting_times(e0, ed0, sign, ky1, ky2)
            assert np.isfinite(want).all()
            got = _event_hitting_times(e0, ed0, sign, p)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_both_signs_in_one_call(self):
        rng = np.random.default_rng(73)
        e_pos, ed_pos = oc.sample_capture_region(rng, 20, +1, 9.0, 18.0)
        e_neg, ed_neg = oc.sample_capture_region(rng, 20, -1, 9.0, 18.0)
        sign = np.repeat([1.0, -1.0], 20)
        e0, ed0 = np.r_[e_pos, e_neg], np.r_[ed_pos, ed_neg]
        both = _event_hitting_times(e0, ed0, sign, DEFAULT_PARAMS)
        apart = np.r_[
            _event_hitting_times(e_pos, ed_pos, +1, DEFAULT_PARAMS),
            _event_hitting_times(e_neg, ed_neg, -1, DEFAULT_PARAMS),
        ]
        assert both.tobytes() == apart.tobytes()

    def test_on_or_past_threshold_is_exactly_zero(self):
        e = INV3 / 18.0
        while 18.0 * e - INV3 > 0.0:
            e = math.nextafter(e, 0.0)
        t = _event_hitting_times([e, 0.0, 1.0], [0.0, INV3 / 9.0, -3.0], +1, DEFAULT_PARAMS)
        assert t.tolist() == [0.0, 0.0, 0.0]
        t = _event_hitting_times([-e, 0.0], [0.0, -INV3 / 9.0], -1, DEFAULT_PARAMS)
        assert t.tolist() == [0.0, 0.0]
        assert hitting_time_simulated(ErrorState(e, 0.0), +1) == 0.0

    def test_no_crossing_is_nan(self):
        # admissible, but the slow decay stays above the threshold for 8 s
        p = ModelParams(ky1=0.05, ky2=0.04)
        t = _event_hitting_times([20.0, 0.5], [20.0, 0.2], +1, p)
        assert np.isnan(t[0]) and np.isfinite(t[1])
        with pytest.raises(ValueError, match=r"^no threshold crossing detected within 8\.0 s$"):
            hitting_time_simulated(ErrorState(20.0, 20.0), +1, p)
        with pytest.raises(ValueError, match="first-quadrant"):
            hitting_time_simulated(ErrorState(-0.1, 0.0), +1, p)

    @pytest.mark.parametrize("ky1, ky2", [(9.0, 18.0), (6.0, 10.0)])
    def test_scalar_wrapper_is_one_cell_call(self, ky1, ky2):
        p = ModelParams(ky1=ky1, ky2=ky2)
        rng = np.random.default_rng(79)
        for sign in (+1, -1):
            e0, ed0 = oc.sample_capture_region(rng, 10, sign, ky1, ky2)
            for e, ed in zip(e0, ed0):
                want = _event_hitting_times(np.array([e]), np.array([ed]), sign, p)
                got = hitting_time_simulated(ErrorState(e, ed), sign, p)
                assert np.float64(got).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(gains=_gains, cells=st.lists(_cell, min_size=1, max_size=8))
    def test_odd_symmetry_exact(self, gains, cells):
        p = ModelParams(ky1=gains[0], ky2=gains[1])
        e0 = np.array([c[0] for c in cells])
        ed0 = np.array([c[1] for c in cells])
        pos = _event_hitting_times(e0, ed0, +1, p)
        neg = _event_hitting_times(-e0, -ed0, -1, p)
        assert pos.tobytes() == neg.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        gains=st.one_of(_gains, _near_repeated_gains),
        sign=st.sampled_from((1, -1)),
        cells=st.lists(_quadrant_cell, min_size=1, max_size=8),
        horizon=st.sampled_from((1.0, 8.0)),
    )
    @example(gains=(2.0, 1.0 + 1e-12), sign=1, cells=[(0.5, 0.2), (1.0, 1.5)], horizon=8.0)
    @example(gains=(2.0, 5.0), sign=-1, cells=[(0.5, 0.2), (2.0, 2.0)], horizon=1.0)
    def test_bracketed_search_matches_event_oracle(self, gains, sign, cells, horizon):
        p = ModelParams(ky1=gains[0], ky2=gains[1])
        assume(not analysis._has_default_rates(p))  # the closed form has no horizon
        e0 = sign * np.array([c[0] for c in cells])
        ed0 = sign * np.array([c[1] for c in cells])
        inside = analysis._region_mask(e0, ed0, sign, p)
        assume(inside.any())
        e0, ed0 = e0[inside], ed0[inside]
        want = _event_hitting_times(e0, ed0, sign, p)
        assume(not (np.abs(want - horizon) < 1e-6).any())  # a crossing at the horizon
        want[want > horizon] = np.nan
        got = _hit_times(e0, ed0, sign, p, horizon)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize(
        "ky1, ky2", [(9.0, 18.0), (6.0, 9.0), (2.0, 5.0), (6.0, 12.0), (20.0, 30.0)]
    )
    def test_matches_bisection_per_cell(self, ky1, ky2):
        p = ModelParams(ky1=ky1, ky2=ky2)
        rng = np.random.default_rng(83)
        for sign in (+1, -1):
            e0, ed0 = oc.sample_capture_region(rng, 60, sign, ky1, ky2)
            # cells past the threshold and in the other quadrant too
            e_box, ed_box = rng.uniform(-2.0, 2.0, size=(2, 60))
            e0, ed0 = np.r_[e0, e_box, 20.0 * sign], np.r_[ed0, ed_box, 20.0 * sign]
            want = oc.bisect_event_hitting_times(e0, ed0, sign, p)
            got = _event_hitting_times(e0, ed0, sign, p)
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    def test_lemma_reports_match_bisection(self, monkeypatch):
        def report(seed):
            rep = run_lemma_checks(seed=seed)
            residual = next(c for c in rep["checks"] if c["name"] == "hitting_time_residual")
            return rep, residual["detail"].pop("max_residual")

        for seed in range(32):
            got, got_residual = report(seed)
            with monkeypatch.context() as m:
                m.setattr(checks, "_event_hitting_times", oc.bisect_event_hitting_times)
                want, want_residual = report(seed)
            assert got == want
            assert abs(got_residual - want_residual) <= 1e-14

    @pytest.mark.parametrize("end, shift", [(0, -1.0), (1, 1.0)], ids=["start", "end"])
    def test_wrong_sign_bracket_end_is_the_root(self, end, shift, monkeypatch):
        # a sub-stepped end gap of the wrong sign can only come from rounding;
        # a stub shifts it, and the bracket end itself is returned
        rng = np.random.default_rng(89)
        e0, ed0 = oc.sample_capture_region(rng, 20, +1, 9.0, 18.0)
        plain = _event_hitting_times(e0, ed0, +1, DEFAULT_PARAMS)
        step = analysis._EVENT_STEP
        k = np.floor(plain / step)
        inner = np.abs(plain / step - k - 0.5) < 0.45  # no crossing near a step end
        e0, ed0, k = e0[inner], ed0[inner], k[inner]
        assert k.size > 10
        substep_gap = analysis._substep_gap

        def stub(y, h, params):
            g, slope = substep_gap(y, h, params)
            return np.where(h == end * step, shift, g), slope

        monkeypatch.setattr(analysis, "_substep_gap", stub)
        got = _event_hitting_times(e0, ed0, +1, DEFAULT_PARAMS)
        assert got.tolist() == (k * step + end * step).tolist()

    @pytest.mark.parametrize("ky1, ky2, most", [(9.0, 18.0, 4), (20.0, 30.0, 16)])
    def test_refinement_passes(self, ky1, ky2, most, monkeypatch):
        # the residual check's 40 states, one call each; bisection took 60 passes
        p = ModelParams(ky1=ky1, ky2=ky2)
        solver = analysis._newton
        passes = []

        def counting(gap, *rest):
            def counted(t, k):
                passes[-1] += 1
                return gap(t, k)

            passes.append(0)
            return solver(counted, *rest)

        monkeypatch.setattr(analysis, "_newton", counting)
        for seed in range(32):
            rng = np.random.default_rng(seed)
            e, edot = np.concatenate([_sample_region(rng, 20, sign, p) for sign in (+1, -1)], axis=1)
            _event_hitting_times(e, edot, np.repeat([1, -1], 20), p)
        assert len(passes) == 32
        assert 0 < max(passes) <= most


class TestLemmaChecks:
    @pytest.mark.parametrize("ky1, ky2", [(9.0, 18.0), (6.0, 10.0)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_local_max_matches_scalar_loop(self, ky1, ky2, seed):
        p = ModelParams(ky1=ky1, ky2=ky2)
        got = _check_local_max(np.random.default_rng(seed), 20, p)
        want = oc.local_max_report(np.random.default_rng(seed), 20, p)
        assert got == want
        assert np.float64(got[1]["max_overshoot"]).tobytes() == np.float64(
            want[1]["max_overshoot"]
        ).tobytes()

    @pytest.mark.parametrize(
        "ky1, ky2, seeds",
        [(9.0, 18.0, range(32))]
        + [(k1, k2, range(8)) for k1, k2 in ((5.0, 20.0), (6.0, 12.0), (20.0, 30.0), (2.0, 5.0))],
    )
    def test_controller_rules_match_scalar_loops(self, ky1, ky2, seeds):
        # same reports as one scalar controller call per state, and the
        # generator left where the scalar draws leave it
        p = ModelParams(ky1=ky1, ky2=ky2)
        pairs = (
            (_check_clamp_rule, oc.scalar_clamp_rule),
            (_check_region_rule, oc.scalar_region_rule),
        )
        for seed in seeds:
            rng, rng_scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            for check, oracle in pairs:
                assert check(rng, _N_SAMPLES, p) == oracle(rng_scalar, _N_SAMPLES, p)
                assert rng.bit_generator.state == rng_scalar.bit_generator.state

    def test_region_rule_applies_the_pd_law_once(self, monkeypatch):
        # the PD law does not depend on the yaw, so both signs share one call
        calls = []
        real = checks.desired_accel
        monkeypatch.setattr(checks, "desired_accel", lambda *a: calls.append(a) or real(*a))
        _check_region_rule(np.random.default_rng(0), _N_SAMPLES, ModelParams())
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "array_check, scalar_check",
        [(_check_clamp_rule, oc.scalar_clamp_rule), (_check_region_rule, oc.scalar_region_rule)],
    )
    def test_controller_rules_command_the_scalar_loops_states(
        self, monkeypatch, array_check, scalar_check
    ):
        # a report hardly depends on which draws make up a state, so compare
        # the raw commands each check hands to switch_matrix_of
        logs = {checks: [], oc: []}
        for module, log in logs.items():
            real = module.switch_matrix_of

            def spy(raw, real=real, log=log):
                log.append(np.broadcast_arrays(raw.sq1, raw.sq2))
                return real(raw)

            monkeypatch.setattr(module, "switch_matrix_of", spy)
        p = ModelParams(ky1=6.0, ky2=12.0)
        for seed in range(4):
            for log in logs.values():
                log.clear()
            array_check(np.random.default_rng(seed), 50, p)
            scalar_check(np.random.default_rng(seed), 50, p)
            got = np.concatenate([np.stack(sq, axis=1) for sq in logs[checks]])
            want = np.array(logs[oc], dtype=float)
            if array_check is _check_region_rule:
                # one call per yaw sign on all states, against both signs per state
                want = np.concatenate([want[0::2], want[1::2]])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_seeds_pass_with_tight_residual(self):
        for seed in range(32):
            report = run_lemma_checks(seed=seed)
            assert [c["name"] for c in report["checks"] if not c["passed"]] == []
            residual = next(c for c in report["checks"] if c["name"] == "hitting_time_residual")
            assert residual["detail"]["max_residual"] < 1e-12


    def test_no_crossing_fails_range_check_with_the_error(self, monkeypatch):
        # a horizon shorter than most hitting times: the first sampled state
        # past it fails the check with the no-crossing message
        monkeypatch.setattr(analysis, "_EVENT_T_MAX", 0.05)
        report = run_lemma_checks(ModelParams(ky1=6.0, ky2=10.0), resolution=8, seed=0)
        check = next(c for c in report["checks"] if c["name"] == "hitting_time_range")
        assert check["detail"] == {
            "error": "ValueError: unsaturated flow does not reach the threshold within "
            "0.05 s for gains ky1=6.0, ky2=10.0"
        }


class TestSampler:
    # (0.15, 0.15) admits about 0.3% of the draws, so the blocks grow many times
    @pytest.mark.parametrize("ky1, ky2", [(9.0, 18.0), (6.0, 12.0), (0.15, 0.15)])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [0, 1, 20, 200])
    def test_same_states_and_next_draw_as_scalar_loop(self, ky1, ky2, sign, n):
        p = ModelParams(ky1=ky1, ky2=ky2)
        seed = [n, sign + 1]
        rng, rng_scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        e, edot = _sample_region(rng, n, sign, p)
        want = oc.scalar_sample_region(rng_scalar, n, sign, p)
        assert e.tobytes() == np.array([s.e for s in want], dtype=float).tobytes()
        assert edot.tobytes() == np.array([s.edot for s in want], dtype=float).tobytes()
        assert rng.uniform() == rng_scalar.uniform()

    @pytest.mark.parametrize("ky1, ky2", [(0.1, 0.1), (0.145, 0.145)])
    def test_attempt_limit_error_and_stream(self, ky1, ky2):
        # (0.1, 0.1) admits nothing in [0, 2)^2, (0.145, 0.145) about 5e-5
        p = ModelParams(ky1=ky1, ky2=ky2)
        rng, rng_scalar = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(ValueError) as scalar_err:
            oc.scalar_sample_region(rng_scalar, 5, -1, p)
        with pytest.raises(ValueError) as err:
            _sample_region(rng, 5, -1, p)
        assert str(err.value) == str(scalar_err.value)
        assert str(err.value) == "could not sample 5 admissible states for yaw sign -1"
        assert rng.uniform() == rng_scalar.uniform()


class TestLyapunovAlongHalfPeriod:
    def test_unsaturated_energy_never_increases(self):
        # finite differences of the energy along the decay flow
        rng = np.random.default_rng(47)
        for _ in range(50):
            s = ErrorState(rng.uniform(-2, 2), rng.uniform(-2, 2))
            taus = np.linspace(0.0, 1.0, 300)
            vals = [lyapunov(s11_flow(s, float(t))) for t in taus]
            diffs = np.diff(vals)
            assert (diffs <= 1e-12).all()

    def test_unsaturated_energy_rate_identity(self):
        # central differences of the energy match -ky1 * edot^2
        h = 1e-6
        for s0 in (ErrorState(0.5, -0.3), ErrorState(-1.2, 0.8), ErrorState(0.05, 0.0)):
            for tau in (0.1, 0.4, 0.9):
                plus = lyapunov(s11_flow(s0, tau + h))
                minus = lyapunov(s11_flow(s0, tau - h))
                rate_fd = (plus - minus) / (2 * h)
                mid = s11_flow(s0, tau)
                assert rate_fd == pytest.approx(-9.0 * mid.edot**2, abs=1e-6)

    def test_peak_at_endpoints(self):
        rng = np.random.default_rng(53)
        for sign in (+1, -1):
            e0, ed0 = oc.sample_capture_region(rng, 60, sign, 9.0, 18.0)
            for e, ed in zip(e0, ed0):
                s = ErrorState(float(e), float(ed))
                t_hit = hitting_time(s, sign)
                mid = s11_flow(s, t_hit)
                vals = []
                for tau in np.linspace(0.0, 1.0, 201):
                    if tau <= t_hit:
                        vals.append(lyapunov(s11_flow(s, float(tau))))
                    else:
                        vals.append(lyapunov(saturated_flow(mid, float(tau - t_hit), -sign)))
                assert max(vals) <= max(vals[0], vals[-1]) + 1e-9


class TestDeltaL:
    def test_bounded_by_cap(self):
        rng = np.random.default_rng(59)
        for sign in (+1, -1):
            e0, ed0 = oc.sample_capture_region(rng, 200, sign, 9.0, 18.0)
            for e, ed in zip(e0, ed0):
                assert delta_l(ErrorState(float(e), float(ed)), sign) <= DELTA_L_CAP + 1e-12

    def test_cap_attained_on_threshold_corner(self):
        # the maximizer sits on the threshold line at edot = 0
        s = ErrorState(INV3 / 18.0, 0.0)
        assert delta_l(s, +1) == pytest.approx(DELTA_L_CAP, abs=1e-12)

    def test_threshold_sweep_peaks_at_cap(self):
        # sweep along the first-quadrant threshold segment; the tiny nudge
        # keeps rounded points on the admissible side of the line
        best = -math.inf
        for w in np.linspace(0.0, INV3 / 9.0, 400):
            e = (INV3 - 9.0 * w) / 18.0 + 1e-12
            if e < 0.0 or w < 0.0:
                continue
            best = max(best, delta_l(ErrorState(float(e), float(w)), +1))
        assert best == pytest.approx(DELTA_L_CAP, abs=1e-3)

    def test_first_boundary_state_value(self):
        # frozen from the switched-loop RK4 oracle
        s1 = ErrorState(1 / (2 * SQRT3), INV3)
        assert delta_l(s1, +1) == pytest.approx(-0.006132518117316743, abs=1e-7)

    def test_threshold_line_identity(self):
        # on the threshold, dividing by ky1 gives edot + 2 e = 1/(9 sqrt(3))
        for w in (0.0, 0.01, 0.05):
            e = (INV3 - 9.0 * w) / 18.0
            assert w + 2 * e == pytest.approx(INV3 / 9.0, abs=1e-15)


class TestDeltaLGrid:
    def test_wrong_quadrant_fully_masked(self):
        grid = delta_l_grid((-2.0, -0.1), (0.1, 2.0), 40, +1)
        assert grid.n_admissible == 0
        assert grid.max_delta_l() is None
        assert grid.argmax_state() is None

    def test_first_quadrant_positive_region(self):
        grid = delta_l_grid((0.0, 2.0), (0.0, 2.0), 200, +1)
        assert grid.n_positive > 0
        # the nonnegative-change set stays away from the far grid edges
        sign = grid.sign_map()
        assert not (sign[-1, :] > 0).any()
        assert not (sign[:, -1] > 0).any()
        assert grid.max_delta_l() <= DELTA_L_CAP + 1e-3

    def test_quadrant_mirror_symmetry(self):
        g1 = delta_l_grid((0.0, 2.0), (0.0, 2.0), 120, +1)
        g3 = delta_l_grid((-2.0, 0.0), (-2.0, 0.0), 120, -1)
        np.testing.assert_allclose(
            g1.values[g1.mask], g3.values[g3.mask][::-1], atol=1e-12
        )

    def test_rows_roundtrip(self, tmp_path):
        grid = delta_l_grid((0.0, 1.0), (0.0, 1.0), 10, +1)
        write_grid_csv(grid, tmp_path / "grid.csv")
        rows = np.loadtxt(tmp_path / "grid.csv", delimiter=",", skiprows=1)
        assert rows.shape == (100, 5)
        assert int(rows[:, 2].sum()) == grid.n_admissible
        np.testing.assert_array_equal(rows[:, 3], grid.values.ravel())

    def test_bad_args(self):
        # the capture check rejects the same grids
        for function in (delta_l_grid, verify_quadrant_capture):
            with pytest.raises(ValueError, match="resolution must be at least 1"):
                function((0, 1), (0, 1), 0, +1)
            with pytest.raises(ValueError, match="lambda_sign must be"):
                function((0, 1), (0, 1), 10, 0)


class TestQuadrantCapture:
    def test_first_quadrant(self):
        rep = verify_quadrant_capture((-2.0, 2.0), (-2.0, 2.0), 150, +1)
        assert rep.n_admissible > 0
        assert rep.passed

    def test_third_quadrant(self):
        rep = verify_quadrant_capture((-2.0, 2.0), (-2.0, 2.0), 150, -1)
        assert rep.n_admissible > 0
        assert rep.passed

    def test_empty_grid_trivially_passes(self):
        rep = verify_quadrant_capture((-1.0, -0.5), (-0.1, 0.0), 20, +1)
        assert rep.n_admissible == 0
        assert rep.passed


def _map_cell(p):
    """One-cell maps at gains ``p`` for ``oracles.scalar_critical_search``."""

    def map_cell(e, edot, sign):
        e1, ed1 = _map(np.array([e]), np.array([edot]), sign, p, 1.0)
        return float(e1[0]), float(ed1[0])

    return map_cell


class TestCriticalLyapunov:
    def test_positive_and_refined(self):
        crit = critical_lyapunov(resolution=150)
        assert crit.l_critical > 0.0
        assert crit.l_critical >= crit.grid_max - 1e-12
        assert crit.sup_bound == pytest.approx(crit.l_critical + DELTA_L_CAP)

    def test_stable_under_refinement(self):
        c1 = critical_lyapunov(resolution=100)
        c2 = critical_lyapunov(resolution=200)
        assert abs(c1.l_critical - c2.l_critical) / c2.l_critical < 0.01

    def test_generic_gains_regression(self):
        # recorded with the cell-by-cell engine this replaced
        crit = critical_lyapunov(resolution=40, params=ModelParams(ky1=6.0, ky2=12.0))
        assert crit.l_critical == 0.8713017756479291
        assert crit.grid_max == 0.7744904667981592
        assert crit.n_positive_cells == 30

    @pytest.mark.parametrize(
        "ky1, ky2, l_critical, grid_max, n_positive",
        [
            (5.0, 20.0, 27406278.768203944, 42.0, 122),
            (6.0, 22.0, 30016400.555403337, 46.0, 122),
            (7.0, 23.0, 31321461.449003033, 48.0, 122),
            (8.0, 24.0, 32626522.34260273, 50.0, 120),
        ],
    )
    def test_unbracketed_pairs_unchanged(self, ky1, ky2, l_critical, grid_max, n_positive):
        # recorded with the cell-by-cell engine this replaced
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            crit = critical_lyapunov(resolution=16, params=ModelParams(ky1=ky1, ky2=ky2))
        assert [str(w.message) for w in caught] == [
            "could not bracket the critical level from above"
        ]
        assert (crit.l_critical, crit.grid_max, crit.n_positive_cells) == (
            l_critical,
            grid_max,
            n_positive,
        )

    @pytest.mark.parametrize(
        "ky1, ky2", [(5.0, 20.0), (6.0, 22.0), (7.0, 23.0), (8.0, 24.0), (6.0, 12.0)]
    )
    def test_search_matches_scalar_loop(self, ky1, ky2):
        # the batched upward bracket and the chunked ellipse maps against one
        # ellipse cell at a time
        p = ModelParams(ky1=ky1, ky2=ky2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            crit = critical_lyapunov(resolution=16, params=p)
        grids = [delta_l_grid((-2.0, 2.0), (-2.0, 2.0), 16, sign, p) for sign in (+1, -1)]
        level, witness = oc.grid_level_and_witness(grids, ky2)
        assert level == crit.grid_max
        want = oc.scalar_critical_search(
            _map_cell(p), level, witness, ky1, ky2
        )
        assert (crit.l_critical, 0, crit.bracketed) == want  # no cell skipped

    def test_degenerate_when_no_positive_cells(self):
        # far corner of the admissible region: every cell loses energy
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            crit = critical_lyapunov((1.5, 2.0), (1.5, 2.0), 40)
        assert crit.l_critical == 0.0
        assert crit.n_positive_cells == 0

    @pytest.mark.parametrize("ky1, ky2", [(9.0, 18.0), (6.0, 12.0)])
    def test_degenerate_level_not_bracketed(self, ky1, ky2):
        # one cell per grid, (-2, -2): admissible only for yaw sign -1, and it
        # loses energy, so there is no level to search from
        with pytest.warns(UserWarning, match="no grid cell has nonnegative"):
            crit = critical_lyapunov(resolution=1, params=ModelParams(ky1=ky1, ky2=ky2))
        assert (crit.l_critical, crit.n_positive_cells) == (0.0, 0)
        assert crit.bracketed is False
        assert crit.to_dict()["bracketed"] is False

    @pytest.mark.parametrize("ky1, ky2", [(5.0, 20.0), (6.0, 22.0), (7.0, 23.0), (8.0, 24.0)])
    def test_unbracketed_level_flagged(self, ky1, ky2):
        with pytest.warns(UserWarning, match="could not bracket"):
            crit = critical_lyapunov(resolution=16, params=ModelParams(ky1=ky1, ky2=ky2))
        assert crit.bracketed is False
        assert crit.to_dict()["bracketed"] is False

    @pytest.mark.parametrize("ky1, ky2", [(9.0, 18.0), (6.0, 12.0)])
    def test_bracketed_level_flagged(self, ky1, ky2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            crit = critical_lyapunov(resolution=40, params=ModelParams(ky1=ky1, ky2=ky2))
        assert crit.bracketed is True
        assert crit.to_dict()["bracketed"] is True


class TestRootSolver:
    def test_module_level_function(self):
        assert inspect.isfunction(analysis.brentq)
        assert analysis.brentq.__module__ == "tiltsim.analysis"

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x**3 - 2.0, 0.0, 2.0),
            (math.cos, 0.0, 2.0),
            (lambda x: math.exp(x) - 3.0, -1.0, 3.0),
            (lambda x: math.tanh(x - 0.3) + 1e-12, -5.0, 5.0),
        ],
    )
    def test_same_root_as_scipy(self, f, a, b):
        import scipy.optimize

        assert analysis.brentq(f, a, b) == scipy.optimize.brentq(f, a, b)
        assert analysis.brentq(f, a, b, xtol=1e-14) == scipy.optimize.brentq(f, a, b, xtol=1e-14)

    def test_generic_engine_never_calls_brentq(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("brentq called")

        monkeypatch.setattr(analysis, "brentq", refuse)
        p = ModelParams(ky1=6.0, ky2=12.0)
        crit = critical_lyapunov(resolution=12, params=p)
        assert crit.bracketed and crit.l_critical > crit.grid_max
        half_period_map(ErrorState(0.5, 0.2), +1, p)
        assert 0.0 < hitting_time(ErrorState(-0.5, -0.2), -1, p) < 8.0

    def test_solver_call_and_pass_counts(self, monkeypatch):
        # one generic sweep-delta-l: the lambda = +1 grid, then the search
        p = ModelParams(ky1=5.0, ky2=20.0)
        grid = delta_l_grid((-2.0, 2.0), (-2.0, 2.0), 16, +1, p)
        solver = analysis._newton
        calls = []  # (cells, passes) per solver call

        def counting(gap, a, *rest):
            passes = []

            def counted(t, k):
                passes.append(k.size)
                return gap(t, k)

            root = solver(counted, a, *rest)
            calls.append((a.size, len(passes)))
            return root

        monkeypatch.setattr(analysis, "_newton", counting)
        grid_again = delta_l_grid((-2.0, 2.0), (-2.0, 2.0), 16, +1, p)
        n_grid = len(calls)
        with pytest.warns(UserWarning, match="could not bracket"):
            crit = critical_lyapunov(resolution=16, params=p)
        # the grids, then the first level's 1026 region cells and the first
        # cell of each of the other 59 levels
        assert calls[:n_grid] == [(64, 6)]
        assert calls[n_grid:] == [(64, 6), (64, 6), (1026, 5), (59, 5)]
        np.testing.assert_array_equal(grid_again.values, grid.values)
        assert (crit.l_critical, crit.grid_max, crit.n_positive_cells) == (
            27406278.768203944,
            42.0,
            122,
        )

    def test_stretched_step_may_repeat_once(self):
        # the slope claims a step far shorter than half the tolerance, so the
        # regula falsi point is followed by two stretched steps of half the
        # tolerance each, both short of the root, and only then the midpoint
        points = []

        def gap(t, k):
            points.append(float(t[0]))
            return (t - 0.3) * (1.0 + t * t), np.full_like(t, 1e300)

        a, b = np.array([0.0]), np.array([1.0])
        root = analysis._newton(gap, a, b, gap(a, None)[0], gap(b, None)[0])
        first, second, third, fourth = points[2:6]  # after the two end gaps
        half_tol = [0.5 * (1e-14 + 4.0 * np.finfo(float).eps * x) for x in (first, second)]
        assert [second - first, third - second] == pytest.approx(half_tol, rel=1e-6)
        assert fourth == 0.5 * (third + 1.0)  # the midpoint of the bracket [third, 1]
        assert abs(root[0] - 0.3) <= 1e-14 + 4.0 * np.finfo(float).eps * 0.3

    def test_complex_rate_search_counts(self, monkeypatch):
        # one solver call per grid and per bracketing or bisection level
        solver = analysis._newton
        passes = []

        def counting(gap, *rest):
            def counted(t, k):
                passes[-1] += 1
                return gap(t, k)

            passes.append(0)
            return solver(counted, *rest)

        monkeypatch.setattr(analysis, "_newton", counting)
        crit = critical_lyapunov(resolution=40, params=ModelParams(ky1=2.0, ky2=5.0))
        assert crit.l_critical == 0.35186218971492833
        assert len(passes) == 25
        assert max(passes) == 6

    @pytest.mark.parametrize(
        "slope",
        [
            lambda t: 1.0 + t * t + 2.0 * t * (t - 0.3),  # exact
            lambda t: np.zeros_like(t),  # flat: every step is the midpoint
            lambda t: -1.0 - t * t,  # wrong sign: steps leave the bracket
            lambda t: np.full_like(t, 1e300),  # tiny steps, stretched to half the tolerance
        ],
        ids=["exact", "flat", "wrong-sign", "huge"],
    )
    def test_any_slope_ends_on_the_root(self, slope):
        def gap(t, k):
            return (t - 0.3) * (1.0 + t * t), slope(t)

        a, b = np.array([0.0, 0.0, 0.3]), np.array([1.0, 0.3, 0.9])
        root = analysis._newton(gap, a, b, gap(a, None)[0], gap(b, None)[0])
        assert root[1:].tolist() == [0.3, 0.3]  # an exact zero at an end
        assert abs(root[0] - 0.3) <= 1e-14 + 4.0 * np.finfo(float).eps * 0.3

    @settings(max_examples=80, deadline=None)
    @given(
        gains=_gains,
        cells=st.lists(_cell, min_size=1, max_size=8),
        sign=st.sampled_from((1, -1)),
        n=st.sampled_from((4, 64, 512)),
    )
    @example(gains=(9.0, 18.0), cells=[(0.5, 0.5), (1.0, -0.3)], sign=1, n=4)  # distinct
    @example(gains=(6.0, 9.0), cells=[(0.5, 0.2), (-1.0, -1.5)], sign=-1, n=64)  # repeated
    @example(gains=(2.0, 30.0), cells=[(1.0, 0.3), (0.1, 2.0)], sign=1, n=512)  # complex
    def test_roots_match_scipy_brentq(self, gains, cells, sign, n):
        import scipy.optimize  # the test oracle; the package never calls it

        p = ModelParams(ky1=gains[0], ky2=gains[1])
        # the gap is to +1/sqrt(3): a sign -1 cell is mirrored as ``_map`` mirrors it
        e0 = sign * np.array([c[0] for c in cells])
        ed0 = sign * np.array([c[1] for c in cells])
        t = np.linspace(0.0, 8.0, n + 1)
        g, _ = analysis._gap_and_slope(e0[:, None], ed0[:, None], t, p)
        change = (g[:, :-1] > 0.0) != (g[:, 1:] > 0.0)
        rows = np.flatnonzero(change.any(axis=1))
        i = change.argmax(axis=1)[rows]

        def gap(t, k):
            return analysis._gap_and_slope(e0[rows][k], ed0[rows][k], t, p)

        roots = analysis._newton(gap, t[i], t[i + 1], g[rows, i], g[rows, i + 1])
        for r, k, root in zip(rows, i, roots):

            def f(s):
                return analysis._gap_and_slope(e0[r], ed0[r], s, p)[0]

            # a bracket with three roots has no single answer to compare
            dense = f(np.linspace(t[k], t[k + 1], 2001)) > 0.0
            if np.count_nonzero(dense[:-1] != dense[1:]) == 1:
                want = scipy.optimize.brentq(f, t[k], t[k + 1], xtol=1e-14)
                assert abs(root - want) <= 1e-13


class TestAngles:
    def test_examples(self):
        assert acceleration_angle(1.0, 0.0) == 0.0
        assert acceleration_angle(0.0, -1.0) == pytest.approx(3 * math.pi / 2)
        assert acceleration_angle(-1.0, -1.0) == pytest.approx(5 * math.pi / 4)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            acceleration_angle(0.0, 0.0)

    def test_cone_examples(self):
        lo, hi = feasible_cone(0.0)
        assert lo == pytest.approx(2 * math.pi - math.pi / 6)
        assert hi == pytest.approx(math.pi / 6)
        lo, hi = feasible_cone(math.pi / 3)
        assert lo == pytest.approx(math.pi / 6)
        assert hi == pytest.approx(math.pi / 2)

    def test_wraparound_membership(self):
        lo, hi = feasible_cone(0.0)
        assert angle_in_cone(0.0, lo, hi)
        assert angle_in_cone(2 * math.pi - 0.1, lo, hi)
        assert not angle_in_cone(math.pi, lo, hi)

    def test_small_gait_never_leaves_cone(self):
        # on-reference desired acceleration points along +x; at a small yaw
        # the cone always contains it
        for lam in (math.pi / 8, -math.pi / 8):
            lo, hi = feasible_cone(lam)
            assert angle_in_cone(0.0, lo, hi)
