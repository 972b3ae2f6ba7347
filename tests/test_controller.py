import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tiltsim import (
    DEFAULT_PARAMS,
    ModelParams,
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
        ax_d, ay_d = desired_accel(state, ref, DEFAULT_PARAMS)
        assert ax_d == pytest.approx(1.0)
        assert ay_d == pytest.approx(0.0)

    def test_lateral_offset(self):
        # e_y = 0.1 with zero rate: PD output is ky2 * 0.1
        ref = reference_at(1.0)
        state = VehicleState(ref.xr, -0.1, ref.vxr, 0.0)
        assert desired_accel(state, ref, DEFAULT_PARAMS)[1] == pytest.approx(1.8)

    def test_longitudinal_offset(self):
        # e_x = -0.5 with zero rate: 1 + kx2 * (-0.5)
        ref = reference_at(1.0)
        state = VehicleState(ref.xr + 0.5, 0.0, ref.vxr, 0.0)
        assert desired_accel(state, ref, DEFAULT_PARAMS)[0] == pytest.approx(-2.0)

    def test_overflow_raises(self):
        # a finite state whose PD law overflows
        ref = reference_at(1.0)
        state = VehicleState(ref.xr, -1e308, ref.vxr, 0.0)
        with pytest.raises(
            ValueError, match=r"^desired acceleration must be finite, got \(1\.0, inf\)$"
        ):
            desired_accel(state, ref, DEFAULT_PARAMS)


class TestRawInversion:
    def test_straight_ahead(self):
        sq1, sq2 = raw_inversion(1.0, 0.0, 0.0, DEFAULT_PARAMS)
        # hand oracle: u = 1/cos(pi/6), v = 0, both commands (m/K) u/2
        expected = 0.5 * (1.0 / math.cos(math.pi / 6)) * 1000.0
        assert sq1 == pytest.approx(expected, rel=1e-14)
        assert sq2 == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1000.0 / SQRT3)

    def test_zero_accel(self):
        assert raw_inversion(0.0, 0.0, 0.7, DEFAULT_PARAMS) == (0.0, 0.0)

    def test_yawed_signs(self):
        # hand oracle: u = 0.5/cos(pi/6), v = -(sqrt(3)/2)/sin(pi/6) = -sqrt(3)
        sq1, sq2 = raw_inversion(1.0, 0.0, math.pi / 3, DEFAULT_PARAMS)
        assert sq1 < 0.0
        assert sq2 > 0.0
        u = 0.5 / math.cos(math.pi / 6)
        v = -SQRT3
        assert sq1 == pytest.approx(500.0 * (u + v), rel=1e-12)
        assert sq2 == pytest.approx(500.0 * (u - v), rel=1e-12)

    @pytest.mark.parametrize(
        "ax_d, ay_d, got",
        [
            (1e308, 0.0, "inf, inf"),
            (math.nan, 0.0, "nan, nan"),
            (0.0, np.array([0.0, math.nan]), r"\["),
        ],
        ids=["overflow", "nan", "array"],
    )
    def test_non_finite_raises(self, ax_d, ay_d, got):
        with pytest.raises(ValueError, match=r"^raw command must be finite, got \(" + got):
            raw_inversion(ax_d, ay_d, 0.0, DEFAULT_PARAMS)

    def test_matrix_oracle(self):
        from oracles import rotation_matrix, thrust_map

        rng = np.random.default_rng(5)
        p = DEFAULT_PARAMS
        for _ in range(100):
            acc = rng.uniform(-3, 3, 2)
            lam = rng.uniform(-math.pi, math.pi)
            raw = raw_inversion(*acc, lam, p)
            expected = (
                np.linalg.inv(thrust_map(p)) @ np.linalg.inv(rotation_matrix(lam)) @ (p.m * acc)
            )
            np.testing.assert_allclose(raw, expected, rtol=1e-9, atol=1e-9)


class TestClamp:
    def test_passthrough(self):
        assert clamp(577.35, 577.35) == (577.35, 577.35)

    def test_one_sided(self):
        assert clamp(-3.0, 5.0) == (0.0, 5.0)

    def test_full(self):
        assert clamp(-1.0, -1.0) == (0.0, 0.0)


class TestSwitchMatrix:
    def test_of_raw(self):
        assert switch_matrix_of(577.35, 577.35) == (1, 1)
        assert switch_matrix_of(-3.0, 5.0) == (0, 1)
        assert switch_matrix_of(0.0, 0.0) == (0, 0)

    def test_zero_counts_as_clamped(self):
        assert switch_matrix_of(0.0, 5.0) == (0, 1)
        assert switch_matrix_of(5.0, 0.0) == (1, 0)

    def test_clamp_equals_switch_matrix_product(self):
        # the clamped command is exactly the switch matrix applied to raw
        rng = np.random.default_rng(11)
        sq1, sq2 = rng.uniform(-1000, 1000, size=(500, 2)).T
        p, q = switch_matrix_of(sq1, sq2)
        w1sq, w2sq = clamp(sq1, sq2)
        np.testing.assert_array_equal(p * sq1, w1sq)
        np.testing.assert_array_equal(q * sq2, w2sq)
        assert set(zip(p.tolist(), q.tolist())) == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestClassifyRegion:
    def test_examples(self):
        assert classify_region(0.0, 0.0, -1) == (1, 0)
        assert classify_region(0.1, 0.0, +1) == (1, 1)
        assert classify_region(0.0, 0.0, +1) == (0, 1)

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
        assert classify_region(e, 0.0, 1) == (0, 1)
        assert classify_region(-e, 0.0, -1) == (1, 0)
        p, q = classify_region(np.array([e, -e]), np.zeros(2), 1)
        assert (p.tolist(), q.tolist()) == ([0, 0], [1, 1])

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
            raw = raw_inversion(*desired_accel(state, ref, p), sign * math.pi / 3, p)
            rule, exact = classify_region(e, edot, sign, p), switch_matrix_of(*raw)
            np.testing.assert_array_equal(rule, exact)
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
        raw = raw_inversion(*acc, lam, params)
        accs = [desired_accel(VehicleState(*s), ref, params) for s in states]
        raws = [raw_inversion(*a, lam, params) for a in accs]
        for i in range(2):
            assert _hex(acc[i]) == _hex([a[i] for a in accs])
            assert _hex(raw[i]) == _hex([r[i] for r in raws])

    @settings(max_examples=200, deadline=None)
    @given(raws=st.lists(st.tuples(_value, _value), min_size=1, max_size=8))
    @example(raws=[(0.0, -0.0), (-0.0, 0.0), (-3.0, 5.0)])
    def test_clamp_and_switch_matrix(self, raws):
        raw = np.array(raws).T
        cmd, sm = clamp(*raw), switch_matrix_of(*raw)
        scalar = [(clamp(*r), switch_matrix_of(*r)) for r in raws]
        for i in range(2):
            assert _hex(cmd[i]) == _hex([c[i] for c, _ in scalar])
        assert list(zip(sm[0].tolist(), sm[1].tolist())) == [m for _, m in scalar]
        for (sq1, sq2), (c, m) in zip(raws, scalar):
            # max(sq, 0.0): a raw -0.0 or 0.0 passes through and counts as clamped
            assert (float(c[0]).hex(), float(c[1]).hex()) == (
                max(sq1, 0.0).hex(),
                max(sq2, 0.0).hex(),
            )
            assert m == (int(sq1 > 0.0), int(sq2 > 0.0))

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
        p, q = classify_region(e, edot, sign, params)
        scalar = [classify_region(*err, sign, params) for err in errors]
        assert list(zip(p.tolist(), q.tolist())) == scalar
        for err, m in zip(errors, scalar):
            if _pd_output(*err, params) == sign * INV_SQRT3:
                # the threshold itself counts as inside the clamped band
                assert m == ((0, 1) if sign > 0 else (1, 0))


class TestExactInversionRoundTrip:
    def test_unclamped_commands_reproduce_accel(self):
        rng = np.random.default_rng(17)
        p = DEFAULT_PARAMS
        done = 0
        while done < 200:
            ax_d, ay_d = rng.uniform(-3, 3, 2)
            lam = rng.uniform(-math.pi, math.pi)
            sq1, sq2 = raw_inversion(ax_d, ay_d, lam, p)
            if sq1 < 0.0 or sq2 < 0.0:
                continue
            ax, ay = accelerate(*clamp(sq1, sq2), lam, p)
            assert ax == pytest.approx(ax_d, abs=1e-12)
            assert ay == pytest.approx(ay_d, abs=1e-12)
            done += 1
