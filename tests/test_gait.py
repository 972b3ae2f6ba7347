import math

import pytest

from oracles import yaw_at
from tiltsim import GaitSchedule, PRESETS, preset, reference_at


class TestGaitSchedule:
    def test_presets(self):
        assert preset("small").amplitude == pytest.approx(math.pi / 8)
        assert preset("large").amplitude == pytest.approx(math.pi / 3)
        assert all(g.period == 2.0 for g in PRESETS.values())
        assert all(g.phase_sign == -1 for g in PRESETS.values())

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown gait preset"):
            preset("medium")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"amplitude": 0.0},
            {"amplitude": math.pi / 2},
            {"amplitude": 0.5, "period": 0.0},
            {"amplitude": 0.5, "phase_sign": 2},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GaitSchedule(**kwargs)


class TestYawAt:
    def test_first_half_sign(self):
        # the default phase puts the negative swing first, which is the sign
        # that pushes the lateral error outward from rest (see the simulator
        # tests for the dynamic confirmation)
        large = preset("large")
        assert yaw_at(0.5, large) == pytest.approx(-math.pi / 3)

    def test_second_half_negates(self):
        large = preset("large")
        assert yaw_at(1.5, large) == pytest.approx(math.pi / 3)

    def test_periodicity(self):
        large = preset("large")
        assert yaw_at(2.0, large) == yaw_at(0.0, large)
        for t in (0.0, 0.25, 0.999, 1.0, 1.75):
            assert yaw_at(t + 2.0, large) == pytest.approx(yaw_at(t, large))

    def test_switch_instants_closed_left(self):
        g = preset("small")
        assert yaw_at(0.0, g) == -g.amplitude
        assert yaw_at(1.0, g) == g.amplitude
        assert yaw_at(2.0, g) == -g.amplitude

    def test_amplitude_exact(self):
        g = GaitSchedule(amplitude=0.43, period=1.5, phase_sign=1)
        for t in [0.0, 0.3, 0.74, 0.75, 1.2, 3.3]:
            assert abs(yaw_at(t, g)) == pytest.approx(0.43, abs=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            yaw_at(-0.1, preset("small"))


class TestReference:
    def test_initial_point(self):
        r = reference_at(0.0)
        assert (r.xr, r.yr, r.vxr, r.vyr, r.ayr) == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert r.axr == 1.0

    def test_known_points(self):
        r = reference_at(2.0)
        assert (r.xr, r.vxr, r.axr) == (2.0, 2.0, 1.0)
        assert reference_at(10.0).xr == pytest.approx(50.0)

    def test_y_channel_zero(self):
        for t in (0.0, 1.3, 7.7):
            r = reference_at(t)
            assert r.yr == r.vyr == r.ayr == 0.0

    def test_central_differences_converge_quadratically(self):
        t = 3.0
        errs_v, errs_a = [], []
        for h in (1e-2, 5e-3):
            v_fd = (reference_at(t + h).xr - reference_at(t - h).xr) / (2 * h)
            a_fd = (reference_at(t + h).vxr - reference_at(t - h).vxr) / (2 * h)
            errs_v.append(abs(v_fd - reference_at(t).vxr))
            errs_a.append(abs(a_fd - reference_at(t).axr))
        # the reference is quadratic, so central differences are exact up to
        # rounding; both errors must already sit at the noise floor
        assert max(errs_v) < 1e-10
        assert max(errs_a) < 1e-10
