import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tiltsim import (
    DEFAULT_PARAMS,
    DesiredAccel,
    ModelParams,
    RawCommand,
    S00,
    S01,
    S10,
    S11,
    SwitchMatrix,
    VehicleState,
    accelerate,
    clamp,
    classify_region,
    desired_accel,
    raw_inversion,
    reference_at,
    switch_matrix_of,
)
from tiltsim.analysis import INV_SQRT3, _pd_output

SQRT3 = math.sqrt(3.0)


class TestDesiredAccel:
    def test_on_track(self):
        t = 3.7
        ref = reference_at(t)
        state = VehicleState(ref.xr, 0.0, ref.vxr, 0.0)
        acc = desired_accel(state, ref, DEFAULT_PARAMS)
        assert acc.ax_d == pytest.approx(1.0)
        assert acc.ay_d == pytest.approx(0.0)

    def test_lateral_offset(self):
        # e_y = 0.1 with zero rate: PD output is ky2 * 0.1
        ref = reference_at(1.0)
        state = VehicleState(ref.xr, -0.1, ref.vxr, 0.0)
        acc = desired_accel(state, ref, DEFAULT_PARAMS)
        assert acc.ay_d == pytest.approx(1.8)

    def test_longitudinal_offset(self):
        # e_x = -0.5 with zero rate: 1 + kx2 * (-0.5)
        ref = reference_at(1.0)
        state = VehicleState(ref.xr + 0.5, 0.0, ref.vxr, 0.0)
        acc = desired_accel(state, ref, DEFAULT_PARAMS)
        assert acc.ax_d == pytest.approx(-2.0)


class TestRawInversion:
    def test_straight_ahead(self):
        raw = raw_inversion(DesiredAccel(1.0, 0.0), 0.0, DEFAULT_PARAMS)
        # hand oracle: u = 1/cos(pi/6), v = 0, both commands (m/K) u/2
        expected = 0.5 * (1.0 / math.cos(math.pi / 6)) * 1000.0
        assert raw.sq1 == pytest.approx(expected, rel=1e-14)
        assert raw.sq2 == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1000.0 / SQRT3)

    def test_zero_accel(self):
        raw = raw_inversion(DesiredAccel(0.0, 0.0), 0.7, DEFAULT_PARAMS)
        assert raw.sq1 == 0.0 and raw.sq2 == 0.0

    def test_yawed_signs(self):
        # hand oracle: u = 0.5/cos(pi/6), v = -(sqrt(3)/2)/sin(pi/6) = -sqrt(3)
        raw = raw_inversion(DesiredAccel(1.0, 0.0), math.pi / 3, DEFAULT_PARAMS)
        assert raw.sq1 < 0.0
        assert raw.sq2 > 0.0
        u = 0.5 / math.cos(math.pi / 6)
        v = -SQRT3
        assert raw.sq1 == pytest.approx(500.0 * (u + v), rel=1e-12)
        assert raw.sq2 == pytest.approx(500.0 * (u - v), rel=1e-12)

    def test_matrix_oracle(self):
        from oracles import rotation_matrix, thrust_map

        rng = np.random.default_rng(5)
        p = DEFAULT_PARAMS
        for _ in range(100):
            acc = DesiredAccel(*rng.uniform(-3, 3, 2))
            lam = rng.uniform(-math.pi, math.pi)
            raw = raw_inversion(acc, lam, p)
            expected = (
                np.linalg.inv(thrust_map(p))
                @ np.linalg.inv(rotation_matrix(lam))
                @ (p.m * np.array([acc.ax_d, acc.ay_d]))
            )
            np.testing.assert_allclose([raw.sq1, raw.sq2], expected, rtol=1e-9, atol=1e-9)


class TestClamp:
    def test_passthrough(self):
        cmd = clamp(RawCommand(577.35, 577.35))
        assert (cmd.w1sq, cmd.w2sq) == (577.35, 577.35)

    def test_one_sided(self):
        cmd = clamp(RawCommand(-3.0, 5.0))
        assert (cmd.w1sq, cmd.w2sq) == (0.0, 5.0)

    def test_full(self):
        cmd = clamp(RawCommand(-1.0, -1.0))
        assert (cmd.w1sq, cmd.w2sq) == (0.0, 0.0)


class TestSwitchMatrix:
    def test_of_raw(self):
        assert switch_matrix_of(RawCommand(577.35, 577.35)) == S11
        assert switch_matrix_of(RawCommand(-3.0, 5.0)) == S01
        assert switch_matrix_of(RawCommand(0.0, 0.0)) == S00

    def test_zero_counts_as_clamped(self):
        assert switch_matrix_of(RawCommand(0.0, 5.0)) == S01
        assert switch_matrix_of(RawCommand(5.0, 0.0)) == S10

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            SwitchMatrix(2, 0)

    def test_scalar_labels_and_equality(self):
        # each named pattern S<p><q> holds its label's entries; equality and
        # hash are the dataclass's, on (p, q)
        named = {"S00": S00, "S01": S01, "S10": S10, "S11": S11}
        for label, sm in named.items():
            assert label == f"S{sm.p}{sm.q}"
            raw = RawCommand(2.0 * sm.p - 1.0, 2.0 * sm.q - 1.0)
            for got in (switch_matrix_of(raw), SwitchMatrix(np.int64(sm.p), np.int64(sm.q))):
                assert got == sm and hash(got) == hash(sm)
                assert [other for other in named.values() if other == got] == [sm]

    def test_array_entries_need_scalars(self):
        # == on array entries is ambiguous: compare the p and q arrays instead
        sm = switch_matrix_of(RawCommand(np.array([1.0, -1.0]), np.array([2.0, 3.0])))
        np.testing.assert_array_equal(sm.p, [1, 0])
        np.testing.assert_array_equal(sm.q, [1, 1])
        with pytest.raises(ValueError, match="truth value of an array"):
            sm == S11

    def test_clamp_equals_switch_matrix_product(self):
        # the clamped command is exactly the switch matrix applied to raw
        rng = np.random.default_rng(11)
        raw = RawCommand(*rng.uniform(-1000, 1000, size=(500, 2)).T)
        sm = switch_matrix_of(raw)
        cmd = clamp(raw)
        np.testing.assert_array_equal(sm.p * raw.sq1, cmd.w1sq)
        np.testing.assert_array_equal(sm.q * raw.sq2, cmd.w2sq)
        assert set(zip(sm.p.tolist(), sm.q.tolist())) == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestClassifyRegion:
    def test_examples(self):
        assert classify_region(0.0, 0.0, -1) == S10
        assert classify_region(0.1, 0.0, +1) == S11
        assert classify_region(0.0, 0.0, +1) == S01

    def test_invalid_sign(self):
        with pytest.raises(ValueError):
            classify_region(0.0, 0.0, 0)

    @pytest.mark.parametrize(
        "e, edot, sign",
        [
            (math.nan, 0.0, -1),
            (math.inf, 0.0, 1),
            (0.0, -math.inf, -1),
            (np.array([0.0, math.nan]), np.zeros(2), 1),
            (np.zeros(3), np.array([0.1, 0.2, math.inf]), -1),
        ],
    )
    def test_non_finite_error_raises(self, e, edot, sign):
        with pytest.raises(ValueError, match="lateral error must be finite"):
            classify_region(e, edot, sign)

    def test_threshold_counts_as_clamped(self):
        e = INV_SQRT3 / 18.0
        assert [_pd_output(e, 0.0, DEFAULT_PARAMS), _pd_output(-e, 0.0, DEFAULT_PARAMS)] == [
            INV_SQRT3,
            -INV_SQRT3,
        ]
        assert classify_region(e, 0.0, 1) == S01
        assert classify_region(-e, 0.0, -1) == S10
        rule = classify_region(np.array([e, -e]), np.zeros(2), 1)
        assert (rule.p.tolist(), rule.q.tolist()) == ([0, 0], [1, 1])

    def test_agrees_with_exact_rule(self):
        # under exact x tracking the analytic region rule must match the
        # sign test on the actual inverted command, away from the threshold
        rng = np.random.default_rng(13)
        p = DEFAULT_PARAMS
        ref = reference_at(0.7)
        e, edot = rng.uniform(-2, 2, size=(4000, 2)).T
        g = p.ky1 * edot + p.ky2 * e
        far = np.minimum(abs(g - 1 / SQRT3), abs(g + 1 / SQRT3)) >= 1e-9
        e, edot = e[far], edot[far]
        state = VehicleState(ref.xr, -e, ref.vxr, -edot)
        for sign in (-1, 1):
            raw = raw_inversion(desired_accel(state, ref, p), sign * math.pi / 3, p)
            rule, exact = classify_region(e, edot, sign, p), switch_matrix_of(raw)
            np.testing.assert_array_equal(rule.p, exact.p)
            np.testing.assert_array_equal(rule.q, exact.q)
        assert 2 * e.size > 7000


_value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))
# e = +-1/(18 sqrt(3)) with edot = +-0.0 puts the PD output at the default
# gains exactly on a threshold line
_e = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([INV_SQRT3 / 18.0, -INV_SQRT3 / 18.0]))
_edot = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0]))
_params = st.sampled_from(
    [DEFAULT_PARAMS] + [ModelParams(ky1=k1, ky2=k2) for k1, k2 in ((5, 20), (6, 12), (20, 30))]
)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestArrayCalls:
    """An array call gives, element by element, the bits of one scalar call."""

    @settings(max_examples=200, deadline=None)
    @given(
        states=st.lists(st.tuples(_value, _value, _value, _value), min_size=1, max_size=6),
        t=st.floats(0.0, 10.0),
        lam=st.floats(-math.pi, math.pi),
        params=_params,
    )
    def test_pd_law_and_inversion(self, states, t, lam, params):
        ref = reference_at(t)
        acc = desired_accel(VehicleState(*np.array(states).T), ref, params)
        raw = raw_inversion(acc, lam, params)
        accs = [desired_accel(VehicleState(*s), ref, params) for s in states]
        raws = [raw_inversion(a, lam, params) for a in accs]
        assert _hex(acc.ax_d) == _hex([a.ax_d for a in accs])
        assert _hex(acc.ay_d) == _hex([a.ay_d for a in accs])
        assert _hex(raw.sq1) == _hex([r.sq1 for r in raws])
        assert _hex(raw.sq2) == _hex([r.sq2 for r in raws])

    @settings(max_examples=200, deadline=None)
    @given(raws=st.lists(st.tuples(_value, _value), min_size=1, max_size=8))
    @example(raws=[(0.0, -0.0), (-0.0, 0.0), (-3.0, 5.0)])
    def test_clamp_and_switch_matrix(self, raws):
        raw = RawCommand(*np.array(raws).T)
        cmd, sm = clamp(raw), switch_matrix_of(raw)
        scalar = [(clamp(RawCommand(*r)), switch_matrix_of(RawCommand(*r))) for r in raws]
        assert _hex(cmd.w1sq) == _hex([c.w1sq for c, _ in scalar])
        assert _hex(cmd.w2sq) == _hex([c.w2sq for c, _ in scalar])
        assert list(zip(sm.p.tolist(), sm.q.tolist())) == [(m.p, m.q) for _, m in scalar]
        for (sq1, sq2), (c, m) in zip(raws, scalar):
            # max(sq, 0.0): a raw -0.0 or 0.0 passes through and counts as clamped
            assert (float(c.w1sq).hex(), float(c.w2sq).hex()) == (
                max(sq1, 0.0).hex(),
                max(sq2, 0.0).hex(),
            )
            assert (m.p, m.q) == (int(sq1 > 0.0), int(sq2 > 0.0))

    @settings(max_examples=200, deadline=None)
    @given(
        errors=st.lists(st.tuples(_e, _edot), min_size=1, max_size=8),
        sign=st.sampled_from([-1, 1]),
        params=_params,
    )
    @example([(INV_SQRT3 / 18.0, 0.0), (-INV_SQRT3 / 18.0, -0.0)], 1, DEFAULT_PARAMS)
    @example([(INV_SQRT3 / 18.0, -0.0), (-INV_SQRT3 / 18.0, 0.0)], -1, DEFAULT_PARAMS)
    def test_classify_region(self, errors, sign, params):
        e, edot = np.array(errors).T
        rule = classify_region(e, edot, sign, params)
        scalar = [classify_region(*err, sign, params) for err in errors]
        assert list(zip(rule.p.tolist(), rule.q.tolist())) == [(m.p, m.q) for m in scalar]
        for err, m in zip(errors, scalar):
            if _pd_output(*err, params) == sign * INV_SQRT3:
                # the threshold itself counts as inside the clamped band
                assert m == (S01 if sign > 0 else S10)


class TestExactInversionRoundTrip:
    def test_unclamped_commands_reproduce_accel(self):
        rng = np.random.default_rng(17)
        p = DEFAULT_PARAMS
        done = 0
        while done < 200:
            acc = DesiredAccel(*rng.uniform(-3, 3, 2))
            lam = rng.uniform(-math.pi, math.pi)
            raw = raw_inversion(acc, lam, p)
            if raw.sq1 < 0.0 or raw.sq2 < 0.0:
                continue
            ax, ay = accelerate(clamp(raw), lam, p)
            assert ax == pytest.approx(acc.ax_d, abs=1e-12)
            assert ay == pytest.approx(acc.ay_d, abs=1e-12)
            done += 1
