import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as oc
import tiltsim
from tiltsim import simulator
from tiltsim.cli import DEGENERATE_NOTE, UNBRACKETED_NOTE, main
from tiltsim.config import resolve_config

# gain set that breaks the saturation-stability structure: the decay is too
# slow to reach the switching threshold within a half period
BAD_GAINS_CONFIG = """\
[model]
ky1 = 1.0
ky2 = 2.0
"""

# gains at which the critical-level search cannot bracket the level at res 16
# (and at simulate's default res 200)
UNBRACKETED_GAINS_CONFIG = """\
[model]
ky1 = 5.0
ky2 = 20.0
"""

# a gain or a state magnitude, log-uniform over [1e-6, 1e8]
_LOG_UNIFORM = st.floats(-6.0, 8.0).map(lambda x: 10.0**x)

# gains whose unsaturated decay is too slow to reach the threshold in 8 s
SLOW_DECAY_CONFIG = """\
[model]
ky1 = 0.05
ky2 = 0.04
"""

DIVERGING_CONFIG = """\
[model]
ky2 = 2e7

[sim]
duration = 6.0
y0 = 0.5
"""


# the diverging gain overflows the raw command already at the first row
NONFINITE_COMMAND_CONFIG = """\
[model]
ky2 = 1e307

[sim]
y0 = 0.5
"""

# ky2 values at which `simulate` diverges from y0 = 0.5 on the small preset
# (1000 steps per half period), and the rows of the partial log it writes
DIVERGING_KY2 = {
    "no-row": ("1e307", 0),
    "one-row": ("1e300", 1),
    "under-a-half-period": ("1e8", 225),
    "over-a-chunk": ("2e7", 3769),
}

# the benchmark's reference outputs, one entry per operation it can draw
PINS = Path(__file__).resolve().parents[1] / "benchmarks" / "pins.json"

# the 16 pinned simulate operations by test id: the preset, then any start offset
SIMULATE_PINS = {
    op["preset"] + ("" if op["y0"] == op["vy0"] == 0.0 else f"-y0={op['y0']}-vy0={op['vy0']}"): op
    for op in map(json.loads, sorted(json.loads(PINS.read_text())))
    if op["cmd"] == "simulate"
}

# the 36 pinned lemmas operations by test id: 32 verify-lemmas seeds at the
# default gains, and 4 generic-gain sweeps at grid resolution 16
LEMMAS_PINS = {
    (f"seed-{op['seed']}" if op["cmd"] == "verify-lemmas" else f"sweep-{op['ky1']}-{op['ky2']}"): op
    for op in map(json.loads, sorted(json.loads(PINS.read_text())))
    if op["cmd"] != "simulate"
}

# SHA-256 of (trajectory.csv, manifest.ini) from `simulate --duration 2.0`,
# recorded with the simulator that ran the dataclass pipeline in every RK4
# stage; run-vs-run tests cannot see a change that alters both runs alike
GOLDEN_SHA256 = {
    "large": (
        ["--preset", "large"],
        None,
        "6f554ee91895aa39b0267a25164c6720456629dff1a152b7fa45a5de4219d66e",
        "3b280bf9f11c3b46a6fe366afe7720197da88da5a1a506e100ee04660a77bfeb",
    ),
    "small": (
        ["--preset", "small"],
        None,
        "9671ce53b539de55dfd2cd3b02490d88b84c3a5213d2e3ac3942f3c0777cec74",
        "9a857f5a72d5ed0566721cba43d580d837e5d7bdff18174c9986252249a2165c",
    ),
    "large_y0": (
        ["--preset", "large"],
        "[sim]\ny0 = 0.01\n",
        "f38dcadc6a985433d4790682119fb35d5908e6b2753d9dafab4791ed3f47f2fb",
        "03751f47ae3c50e03b8d2932ce3f0e4de27d13d4ddcda30899e49e51d368562c",
    ),
}

# SHA-256 of report.json from `simulate --preset P` at the default duration
# and grid resolution, recorded with the verifier that looped over half
# periods one boundary at a time
REPORT_SHA256 = {
    "large": "a151ad9843d202e843fa7398882fe11fd07083b7b0000f63fc731d41d347bc2b",
    "small": "33447a523b45a185956493d0bd3980e8bb051472398298aeeee2cf8b5f42e343",
}


# SHA-256 of lemma_report.json from `verify-lemmas --seed S` at the default
# resolution, recorded with the checks that sampled and mapped one state at a
# time; seeds 0 and 7 re-recorded when the event oracle's brackets went from
# bisection to ``_newton``, which moved only ``max_residual`` in its last bits,
# and all three when every check gained ``applicable``; seed 31 re-recorded
# when the sampler stopped redrawing the attempts a scalar loop makes and kept
# whole blocks, which gave its residual check other states and moved only
# ``max_residual``, from 1.3211653993039363e-14 to 1.27675647831893e-14; all
# three re-recorded when the event oracle's RK4 steps gave way to the exact
# propagator exp(hA), which moved only ``max_residual``: seed 0 from
# 1.2961853812498703e-14 to 2.886579864025407e-15, seed 7 from
# 1.3183898417423734e-14 to 1.7763568394002505e-15, seed 31 from
# 1.27675647831893e-14 to 3.6914915568786455e-15
LEMMA_REPORT_SHA256 = {
    0: "55062bafcdc8f62cc020bcf32ff4ec46d15596e175abaf12045f6078e5b6cc83",
    7: "56970d695a8395e54ab3f917435cbdff8e267da205ba9819236526d30f4e0b78",
    31: "53930ff72f78af35953309274f57950ed8915c3fbf95e0a4816f84fdad506d1b",
}

# SHA-256 of the analysis outputs at non-default gains (ky1, ky2), which run the
# bracketed crossing search: argv, gains, output file, digest.
# critical_lyapunov.json was re-recorded when it lost its always-zero
# "n_unsettled" key; with "n_unsettled": 0 put back and re-dumped by
# ``write_json`` it hashes to the old
# 9a2700d8c86c35c92ea3f33348aca7212fd5a5c6633dff67ef2e3aea61e2c87b. The grids,
# the (2, 5) summary and the lemma report were re-recorded when each crossing
# took one exact bracket in place of a sampled scan: values moved by at most
# 5.7e-14, and no sign cell, count or critical level moved. The lemma report
# was re-recorded when the event oracle took the exact propagator exp(hA):
# only ``max_residual`` moved, from 2.4591439995447217e-14 to
# 1.6930901125533637e-15
GENERIC_SHA256 = {
    "critical-lyapunov": (
        ["critical-lyapunov", "--grid-res", "40"],
        (6, 12),
        "critical_lyapunov.json",
        "d9e93237cbb770a60170943932e6fe30e3c903b31c4f235af56242012e422d39",
    ),
    "sweep-grid": (
        ["sweep-delta-l", "--grid-res", "16"],
        (6, 22),
        "delta_l_grid.csv",
        "35828788e434399606524e53bb6021aa58174eb3bc1c05e32a02ae7a047ea9e6",
    ),
    "sweep-summary": (
        ["sweep-delta-l", "--grid-res", "16"],
        (6, 22),
        "delta_l_summary.json",
        "237ddc2609e6ee76da4313a5d6fdf6f34338e3e394427a3a42b7104853912dea",
    ),
    # yaw sign -1: complex rates (ky1^2 - 4*ky2 = -52), unbracketed
    "sweep-grid-neg": (
        ["sweep-delta-l", "--grid-res", "16", "--lambda-sign", "-1"],
        (6, 22),
        "delta_l_grid.csv",
        "2632a381a3f7742d41533c3bf965ff2c3286ce75ac608370922bf2c6d5d815e4",
    ),
    "sweep-summary-neg": (
        ["sweep-delta-l", "--grid-res", "16", "--lambda-sign", "-1"],
        (6, 22),
        "delta_l_summary.json",
        "73479b7c9eb98aee4873f3821ac5589f0d8b42806b3452a9be01e62d4a457d01",
    ),
    # yaw sign -1: complex rates; the search brackets and bisects through both signs
    "sweep-grid-neg-complex": (
        ["sweep-delta-l", "--grid-res", "16", "--lambda-sign", "-1"],
        (2, 5),
        "delta_l_grid.csv",
        "42305e7cb06afe794d7c0b80d47d855388ab2752dd5b211fe152225e8af39f33",
    ),
    "sweep-summary-neg-complex": (
        ["sweep-delta-l", "--grid-res", "16", "--lambda-sign", "-1"],
        (2, 5),
        "delta_l_summary.json",
        "498393c417535543b195d597cc178c72650d4a905f4d9b9ab25105fc5712de08",
    ),
    "verify-lemmas": (
        ["verify-lemmas", "--grid-res", "16", "--seed", "0"],
        (6, 12),
        "lemma_report.json",
        "6d11027e7e07d20e69cb943fbb7141430be2b41bfc329f34120e4fa3735ea85b",
    ),
    # real rates (ky1^2 - 4*ky2 = 280), bracketed: every other pair here has complex rates
    "sweep-grid-real": (
        ["sweep-delta-l", "--grid-res", "16"],
        (20, 30),
        "delta_l_grid.csv",
        "8093720c9aad2a713ae6af633de523dd9c27f84f8f27b568f694bef255871e79",
    ),
    "sweep-summary-real": (
        ["sweep-delta-l", "--grid-res", "16"],
        (20, 30),
        "delta_l_summary.json",
        "5f14a9c6c1231b67cc4257515b22b2b32dde713b060162bb32a56651332abfc4",
    ),
    "critical-lyapunov-real": (
        ["critical-lyapunov", "--grid-res", "40"],
        (20, 30),
        "critical_lyapunov.json",
        "e4b6c0459f8e202b2ef0a4a1bf7450f3391920cf9ef05770bccb3c2080cb63c6",
    ),
}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestSimulate:
    def test_small_preset_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["simulate", "--preset", "small", "--duration", "4", "--out-dir", str(out)])
        assert rc == 0
        report = read_json(out / "report.json")
        assert report["passed"] is True
        assert report["summary"]["n_clamped_samples"] == 0
        csv = (out / "trajectory.csv").read_text().strip().split("\n")
        assert len(csv) == 4002  # header + 4001 samples
        assert (out / "manifest.ini").exists()
        stdout = capsys.readouterr().out
        assert "[PASS] switch_restriction" in stdout

    def test_large_preset_passes_with_clamping(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "simulate",
                "--preset",
                "large",
                "--duration",
                "6",
                "--grid-res",
                "80",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        report = read_json(out / "report.json")
        assert report["passed"] is True
        assert report["summary"]["n_clamped_samples"] > 0
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        raw1, raw2 = data[:, 9], data[:, 10]
        assert ((raw1 < 0) | (raw2 < 0)).any()

    def test_missing_config_no_partial_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(tmp_path / "nope.ini"), "--out-dir", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_config_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\nky1 = banana\n")
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ky1" in err

    def test_unknown_key_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\nbogus = 1\n")
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_manifest_round_trip_bit_identical(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["simulate", "--preset", "large", "--duration", "2", "--out-dir", str(out1)]) == 0
        assert (
            main(["simulate", "--config", str(out1 / "manifest.ini"), "--out-dir", str(out2)]) == 0
        )
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_divergence_exit_code_and_partial_output(self, tmp_path, capsys):
        cfg = tmp_path / "div.ini"
        cfg.write_text(DIVERGING_CONFIG)
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 3
        assert "divergence" in capsys.readouterr().err
        assert (out / "trajectory.csv").exists()
        report = read_json(out / "report.json")
        assert report["diverged"] is True

    def test_divergence_report_reproduces_the_failing_step(self, tmp_path):
        cfg_path = tmp_path / "div.ini"
        cfg_path.write_text(DIVERGING_CONFIG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)]) == 3
        report = read_json(out / "report.json")
        # the state, step and yaw of the failing step, and no timing
        assert sorted(report) == ["cause", "diverged", "passed", "state", "step", "t", "yaw"]
        assert sorted(report["state"]) == ["vx", "vy", "x", "y"]
        assert all(math.isfinite(v) for v in report["state"].values())
        sim_cfg = resolve_config(cfg_path, {}, {}).sim_config()
        assert report["t"] == report["step"] * sim_cfg.dt
        state = simulator.VehicleState(**report["state"])
        with pytest.raises(simulator.DivergenceError) as err:
            simulator.step(state, report["t"], sim_cfg)
        assert err.value.yaw == report["yaw"]
        assert err.value.step == report["step"]

    def test_nonfinite_controller_output_is_divergence(self, tmp_path, capsys):
        cfg = tmp_path / "div.ini"
        cfg.write_text(NONFINITE_COMMAND_CONFIG)
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 3
        assert "divergence" in capsys.readouterr().err
        assert read_json(out / "report.json")["diverged"] is True

    @pytest.mark.parametrize("case", list(DIVERGING_KY2))
    def test_diverged_partial_trajectory_bytes(self, case, tmp_path):
        ky2, rows = DIVERGING_KY2[case]
        cfg_path = tmp_path / "div.ini"
        cfg_path.write_text(f"[model]\nky2 = {ky2}\n\n[sim]\nduration = 6.0\ny0 = 0.5\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)]) == 3
        with pytest.raises(simulator.DivergenceError) as err:
            simulator.run(resolve_config(cfg_path, {}, {}).sim_config())
        partial = err.value.trajectory
        assert len(partial) == rows
        oc.joined_trajectory_csv(partial, tmp_path / "printed.csv")
        assert (out / "trajectory.csv").read_bytes() == (tmp_path / "printed.csv").read_bytes()

    @pytest.mark.parametrize("case", sorted(SIMULATE_PINS))
    def test_benchmark_pins(self, case, tmp_path, monkeypatch):
        # each pinned 20 s run, from the argv and INI the benchmark passes
        for key in list(os.environ):
            if key.startswith("TILTSIM_"):
                monkeypatch.delenv(key)
        op = SIMULATE_PINS[case]
        pin = json.loads(PINS.read_text())[json.dumps(op, sort_keys=True)]
        ini, out = tmp_path / "sim.ini", tmp_path / "run"
        ini.write_text(f"[sim]\ny0 = {op['y0']!r}\nvy0 = {op['vy0']!r}\n")
        argv = ["simulate", "--preset", op["preset"], "--dt", "0.001", "--duration", "20.0"]
        rc = main(argv + ["--config", str(ini), "--out-dir", str(out)])
        got = {
            "rc": rc,
            "passed": read_json(out / "report.json")["passed"],
            "trajectory_sha256": hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest(),
            "manifest_sha256": hashlib.sha256((out / "manifest.ini").read_bytes()).hexdigest(),
        }
        assert got == pin

    @pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
    def test_golden_bytes(self, case, tmp_path, monkeypatch):
        for key in list(os.environ):
            if key.startswith("TILTSIM_"):
                monkeypatch.delenv(key)
        flags, ini, traj_sha, manifest_sha = GOLDEN_SHA256[case]
        out = tmp_path / "run"
        argv = ["simulate", *flags, "--duration", "2.0", "--out-dir", str(out)]
        if ini is not None:
            (tmp_path / "sim.ini").write_text(ini)
            argv += ["--config", str(tmp_path / "sim.ini")]
        assert main(argv) == 0
        assert hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest() == traj_sha
        assert hashlib.sha256((out / "manifest.ini").read_bytes()).hexdigest() == manifest_sha

    @pytest.mark.parametrize("preset", sorted(REPORT_SHA256))
    def test_golden_report_bytes(self, preset, tmp_path, monkeypatch):
        for key in list(os.environ):
            if key.startswith("TILTSIM_"):
                monkeypatch.delenv(key)
        out = tmp_path / "run"
        assert main(["simulate", "--preset", preset, "--out-dir", str(out)]) == 0
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == REPORT_SHA256[preset]

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TILTSIM_DURATION", "2")
        out = tmp_path / "run"
        rc = main(["simulate", "--preset", "small", "--out-dir", str(out)])
        assert rc == 0
        manifest = (out / "manifest.ini").read_text()
        assert "duration = 2" in manifest

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TILTSIM_DURATION", "8")
        out = tmp_path / "run"
        rc = main(["simulate", "--preset", "small", "--duration", "2", "--out-dir", str(out)])
        assert rc == 0
        assert "duration = 2" in (out / "manifest.ini").read_text()

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--preset", "small", "--duration", "2", "--out-dir", str(out)])
        assert not list(out.glob("*.tmp"))

    def test_preset_from_config_file(self, tmp_path):
        cfg = tmp_path / "large.ini"
        cfg.write_text("[gait]\npreset = large\n\n[sim]\nduration = 2.0\n")
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfg), "--grid-res", "60", "--out-dir", str(out)])
        assert rc == 0
        report = read_json(out / "report.json")
        assert report["summary"]["n_clamped_samples"] > 0

    def test_unwritable_out_dir_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(
            ["simulate", "--preset", "small", "--duration", "2", "--out-dir", str(blocker / "sub")]
        )
        assert rc == 2
        assert "cannot write outputs" in capsys.readouterr().err

    def test_unbracketed_level_skips_the_sup_bound(self, tmp_path, capsys):
        # the search's last bound, about 2.7e7, is no critical level: a bound
        # on it would pass whatever the run did
        cfg = tmp_path / "gains.ini"
        cfg.write_text(UNBRACKETED_GAINS_CONFIG)
        out = tmp_path / "run"
        argv = ["simulate", "--preset", "large", "--config", str(cfg), "--out-dir", str(out)]
        with pytest.warns(UserWarning, match="could not bracket"):
            rc = main(argv)
        assert rc == 0
        assert "[SKIP] lyapunov_sup_bound" in capsys.readouterr().out
        report = read_json(out / "report.json")
        assert report["checks"][2] == {
            "name": "lyapunov_sup_bound",
            "applicable": False,
            "passed": True,
            "detail": {"note": "critical level not bracketed"},
        }
        assert report["summary"]["l_critical"] is None

    def test_failing_critical_level_is_a_failed_check(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise RuntimeError("critical-level search failed")

        monkeypatch.setattr(simulator, "critical_lyapunov", failing)
        out = tmp_path / "run"
        rc = main(["simulate", "--preset", "large", "--duration", "2.0", "--out-dir", str(out)])
        assert rc == 1
        assert "[FAIL] lyapunov_sup_bound" in capsys.readouterr().out
        assert (out / "trajectory.csv").exists()
        report = read_json(out / "report.json")
        assert report["passed"] is False
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["lyapunov_sup_bound"]["applicable"] is True
        assert checks["lyapunov_sup_bound"]["passed"] is False
        assert checks["lyapunov_sup_bound"]["detail"] == {
            "error": "RuntimeError: critical-level search failed"
        }
        assert all(checks[name]["passed"] for name in checks if name != "lyapunov_sup_bound")


class TestSweepDeltaL:
    def test_first_quadrant_summary(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep-delta-l",
                "--grid-res",
                "60",
                "--lambda-sign",
                "1",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        summary = read_json(out / "delta_l_summary.json")
        assert summary["max_delta_l"] <= 0.75 + 1e-3
        assert summary["n_positive"] > 0
        assert summary["l_critical"] > 0
        assert summary["sup_bound"] == pytest.approx(summary["l_critical"] + 0.75)
        rows = (out / "delta_l_grid.csv").read_text().strip().split("\n")
        assert rows[0] == "e,edot,admissible,delta_L,sign"
        assert len(rows) == 60 * 60 + 1

    def test_mirror_quadrant_matches(self, tmp_path):
        outs = []
        for sign in ("1", "-1"):
            out = tmp_path / f"sweep{sign}"
            rc = main(
                [
                    "sweep-delta-l",
                    "--grid-res",
                    "40",
                    "--lambda-sign",
                    sign,
                    "--out-dir",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append(read_json(out / "delta_l_summary.json"))
        assert outs[0]["max_delta_l"] == pytest.approx(outs[1]["max_delta_l"], abs=1e-9)
        assert outs[0]["n_positive"] == outs[1]["n_positive"]

    def test_degenerate_inadmissible_grid(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep-delta-l",
                "--grid-res",
                "1",
                "--e-min",
                "-1",
                "--e-max",
                "-1",
                "--edot-min",
                "1",
                "--edot-max",
                "1",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        summary = read_json(out / "delta_l_summary.json")
        assert summary["n_admissible"] == 0
        assert summary["max_delta_l"] is None
        assert summary["l_critical"] is None

    def test_zero_resolution_is_config_error(self, tmp_path):
        rc = main(["sweep-delta-l", "--grid-res", "0", "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_unbracketed_level_flagged(self, tmp_path, capsys):
        cfg = tmp_path / "gains.ini"
        cfg.write_text(UNBRACKETED_GAINS_CONFIG)
        out = tmp_path / "sweep"
        with pytest.warns(UserWarning, match="could not bracket"):
            rc = main(
                ["sweep-delta-l", "--config", str(cfg), "--grid-res", "16", "--out-dir", str(out)]
            )
        assert rc == 0
        summary = read_json(out / "delta_l_summary.json")
        assert summary["l_critical"] == 27406278.768203944
        assert summary["bracketed"] is False
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if "search bound" in l] == [UNBRACKETED_NOTE]

    def test_bracketed_level_not_flagged(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep-delta-l", "--grid-res", "16", "--out-dir", str(out)]) == 0
        assert read_json(out / "delta_l_summary.json")["bracketed"] is True
        assert "search bound" not in capsys.readouterr().out

    def test_degenerate_level_flagged(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep-delta-l", "--grid-res", "1", "--lambda-sign", "-1", "--out-dir", str(out)]
        with pytest.warns(UserWarning, match="no grid cell has nonnegative"):
            assert main(argv) == 0
        summary = read_json(out / "delta_l_summary.json")
        assert (summary["n_admissible"], summary["n_positive"]) == (1, 0)
        assert (summary["l_critical"], summary["bracketed"]) == (0.0, False)
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if l.startswith("note:")] == [DEGENERATE_NOTE]

    def test_no_level_no_bracket_flag(self, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep-delta-l", "--grid-res", "1", "--e-min", "-1", "--e-max", "-1"]
        argv += ["--edot-min", "1", "--edot-max", "1", "--out-dir", str(out)]
        assert main(argv) == 0
        summary = read_json(out / "delta_l_summary.json")
        assert (summary["l_critical"], summary["bracketed"]) == (None, None)

    def test_level_from_the_other_signs_cells_says_so(self, tmp_path, capsys):
        # the swept sign's grid has no nonnegative cell; the level's search
        # found its one cell in the other sign's grid
        out = tmp_path / "sweep"
        argv = ["sweep-delta-l", "--grid-res", "4", "--e-min", "-1e-1", "--out-dir", str(out)]
        assert main(argv) == 0
        summary = read_json(out / "delta_l_summary.json")
        assert (summary["n_positive"], summary["bracketed"]) == (0, True)
        lines = capsys.readouterr().out.splitlines()
        counts = [l for l in lines if l.startswith("nonnegative-change cells")]
        assert counts == [
            "nonnegative-change cells: 0",
            "nonnegative-change cells, both yaw signs: 1",
        ]

    def test_no_level_no_both_signs_count(self, tmp_path, capsys):
        argv = ["sweep-delta-l", "--grid-res", "1", "--e-min", "-1", "--e-max", "-1"]
        argv += ["--edot-min", "1", "--edot-max", "1", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "both yaw signs" not in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["sweep-delta-l", "critical-lyapunov"])
def test_nonfinite_change_is_a_divergence(command, tmp_path, capsys):
    # at ky1 = 1e300 every admissible cell's change is NaN: no sign for the
    # grid CSV, and not a negative change that makes the level 0
    cfg = tmp_path / "gains.ini"
    cfg.write_text("[model]\nky1 = 1e300\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--grid-res", "20", "--out-dir", str(out)]) == 3
    assert capsys.readouterr() == (
        "",
        "divergence: 200 admissible cells have a half-period Lyapunov change that is not finite\n",
    )
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "name, error",
    [
        (
            "hitting_time_range",
            "FloatingPointError: unsaturated flow is not finite at t = 0 for gains "
            "ky1=1e+300, ky2=18.0",
        ),
        (
            "hitting_time_residual",
            "FloatingPointError: unsaturated flow is not finite at t = 0 for gains "
            "ky1=1e+300, ky2=18.0",
        ),
        (
            "delta_l_bound",
            "ValueError: half-period Lyapunov change is not finite at 225 of 225 admissible "
            "cells, yaw sign 1",
        ),
        ("odd_symmetry", "ValueError: odd-symmetry difference is not finite at 100 of 100 values"),
    ],
    ids=["hitting_time_range", "hitting_time_residual", "delta_l_bound", "odd_symmetry"],
)
def test_nonfinite_flow_fails_lemma_checks_with_an_error(name, error, tmp_path):
    # at ky1 = 1e300 the decay rates overflow and the flow is NaN from t = 0:
    # no state may pass with hitting time 0, a NaN flow is not a slow one, and
    # no -inf maximum may be reported
    cfg = tmp_path / "gains.ini"
    cfg.write_text("[model]\nky1 = 1e300\n")
    argv = ["verify-lemmas", "--config", str(cfg), "--grid-res", "30", "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    report = read_json(tmp_path / "lemma_report.json")
    check = next(c for c in report["checks"] if c["name"] == name)
    assert (check["passed"], check["detail"]) == (False, {"error": error})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extreme_gain_lemma_report_is_strict_json(tmp_path):
    # at ky1 = 1e300 no check may write a bare NaN, and the region rule, which
    # float rounding cannot resolve there, does not apply
    cfg = tmp_path / "gains.ini"
    cfg.write_text("[model]\nky1 = 1e300\n")
    argv = ["verify-lemmas", "--config", str(cfg), "--grid-res", "30", "--out-dir", str(tmp_path)]
    assert main(argv) == 1

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    text = (tmp_path / "lemma_report.json").read_text()
    checks = {c["name"]: c for c in json.loads(text, parse_constant=reject)["checks"]}
    assert "error" in checks["odd_symmetry"]["detail"]
    assert checks["region_rule_consistency"] == {
        "name": "region_rule_consistency",
        "applicable": False,
        "passed": True,
        "detail": {"note": "float rounding cannot resolve the rule at any of 200 states"},
    }


class TestHittingTime:
    def test_known_state(self, capsys):
        rc = main(["hitting-time", "0.1", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        t_line = [l for l in out.splitlines() if l.startswith("hitting time:")][0]
        t = float(t_line.split(":")[1])
        assert t == pytest.approx(0.108532179, abs=1e-8)
        res_line = [l for l in out.splitlines() if l.startswith("residual:")][0]
        assert float(res_line.split(":")[1]) < 1e-6

    def test_boundary_state(self, capsys):
        e = (1 / math.sqrt(3)) / 18.0
        rc = main(["hitting-time", str(e), "0"])
        assert rc == 0
        out = capsys.readouterr().out
        t = float(out.splitlines()[0].split(":")[1])
        assert t == pytest.approx(0.0, abs=1e-9)

    def test_negative_branch(self, capsys):
        rc = main(["hitting-time", "-0.1", "0", "--branch", "neg"])
        assert rc == 0
        t = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        assert t == pytest.approx(0.108532179, abs=1e-8)

    def test_wrong_quadrant_rejected(self, capsys):
        rc = main(["hitting-time", "-0.1", "0"])
        assert rc == 2
        assert "first-quadrant" in capsys.readouterr().err
        assert main(["hitting-time", "0.1", "0", "--branch", "neg"]) == 2
        assert "third-quadrant" in capsys.readouterr().err

    @pytest.mark.parametrize("e, edot", [("nan", "0.2"), ("inf", "0.2"), ("0.1", "nan")])
    def test_nonfinite_state_rejected(self, e, edot, capsys):
        assert main(["hitting-time", e, edot]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid state: error state must be finite")
        assert len(err.splitlines()) == 1

    def test_slow_decay_is_not_called_inadmissible(self, tmp_path, capsys):
        cfg = tmp_path / "slow.ini"
        cfg.write_text(SLOW_DECAY_CONFIG)
        assert main(["hitting-time", "20", "20", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("no threshold crossing: ")
        assert "inadmissible" not in err
        assert main(["hitting-time", "-1", "1", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("inadmissible state: ")

    def test_slowest_decay_misses_the_threshold(self, tmp_path, capsys):
        # a finite flow that is merely slow: exit 2, not a divergence
        cfg = tmp_path / "slowest.ini"
        cfg.write_text("[model]\nky1 = 0.01\nky2 = 1e-4\n")
        assert main(["hitting-time", "10000", "0", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == (
            "",
            "no threshold crossing: unsaturated flow does not reach the threshold within "
            "8.0 s for gains ky1=0.01, ky2=0.0001\n",
        )

    @pytest.mark.filterwarnings("error")
    def test_fast_decay_is_resolved(self, tmp_path, capsys):
        # an RK4 oracle is past its stability bound at ky1 = 3e4 with a step of
        # 1e-4, and at ky1 = 1e7 with its floor of 1e-6: it overflowed and
        # found no crossing (exit 2, and exit 1 under -W error); exp(hA) is
        # exact at any step
        cfg = tmp_path / "fast.ini"
        for ky1 in ("3e4", "1e7"):
            cfg.write_text(f"[model]\nky1 = {ky1}\n")
            assert main(["hitting-time", "0.5", "0.2", "--config", str(cfg)]) == 0
            out = capsys.readouterr().out
            assert float(out.splitlines()[-1].split(":")[1]) < 1e-8

    @pytest.mark.filterwarnings("error")
    def test_fast_turn_is_resolved(self, tmp_path, capsys):
        # at ky2 = 3e13 the turn takes 0.18 us per radian; an event step held
        # at a floor of 1e-6 detected 1.434e-6 s against 2.868e-7 s
        cfg = tmp_path / "turn.ini"
        cfg.write_text("[model]\nky2 = 3e13\n")
        assert main(["hitting-time", "0.5", "0.2", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[-1].split(":")[1]) < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv", [["0.5", "0.2"], ["-0.5", "-0.2", "--branch", "neg"]])
    def test_nonfinite_flow_is_a_divergence(self, argv, tmp_path, capsys):
        # at ky1 = 1e300 the flow is NaN from t = 0: not a missed threshold
        cfg = tmp_path / "gains.ini"
        cfg.write_text("[model]\nky1 = 1e300\n")
        assert main(["hitting-time", *argv, "--config", str(cfg)]) == 3
        assert capsys.readouterr() == (
            "",
            "divergence: unsaturated flow is not finite at t = 0 for gains ky1=1e+300, "
            "ky2=18.0\n",
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "e, edot, message",
        [
            ("1e160", "0", "closed-form hitting time inf, event-detected "),
            ("1e300", "1e300", "closed-form hitting time inf, event-detected "),
            ("1.7e308", "0", "PD output ky1*edot + ky2*e is inf"),
            ("1e308", "1e308", "PD output ky1*edot + ky2*e is inf"),
        ],
        ids=["1e160-0", "1e300-1e300", "1.7e308-0", "1e308-1e308"],
    )
    def test_overflowing_closed_form_is_a_divergence(self, e, edot, message, capsys):
        # the closed form's quadratic overflows to an infinite time, or the
        # PD output itself overflows and both times read NaN; neither may
        # print as a hitting time with exit 0, or as a missed threshold
        assert main(["hitting-time", e, edot]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("divergence: " + message)

    @settings(max_examples=400, deadline=None)
    @given(
        ky1=_LOG_UNIFORM,
        ky2=_LOG_UNIFORM,
        e=_LOG_UNIFORM,
        edot=_LOG_UNIFORM,
        signs=st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
        branch=st.sampled_from(("pos", "neg")),
    )
    # two draws of a log-uniform probe, residuals 1.4e-5 and 1.5e-5 before the mend
    @example(
        ky1=369085.3904410721,
        ky2=7.342722158401528e-06,
        e=30517154.3558762,
        edot=35246.48831717204,
        signs=(-1, -1),
        branch="neg",
    )
    @example(
        ky1=324355.4950024735,
        ky2=0.2512874865774807,
        e=14263009.767754234,
        edot=0.040780307621145095,
        signs=(1, 1),
        branch="pos",
    )
    def test_fuzzed_gains_and_states(self, tmp_path_factory, ky1, ky2, e, edot, signs, branch):
        # any gains and any state: a config error, an inadmissible state, a
        # missed threshold or a divergence exits 2 or 3, and a printed hitting
        # time agrees with the event oracle; at stiff real rates a slow rate
        # taken as (-ky1 + sqrt(ky1^2 - 4*ky2))/2 cancelled
        cfg = tmp_path_factory.getbasetemp() / "fuzzed_gains.ini"
        cfg.write_text(f"[model]\nky1 = {ky1!r}\nky2 = {ky2!r}\n")
        argv = ["hitting-time", repr(signs[0] * e), repr(signs[1] * edot), "--branch", branch]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main([*argv, "--config", str(cfg)])
        assert rc in (0, 2, 3)
        if rc == 0:
            assert float(out.getvalue().splitlines()[-1].split(":")[1]) < 1e-6


class TestNegativeNumbers:
    # argparse alone takes a negative number with an exponent, or -inf, for a flag
    def test_exponent_flag_value(self, tmp_path):
        argv = ["sweep-delta-l", "--grid-res", "4", "--e-min", "-1e-1", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert read_json(tmp_path / "delta_l_summary.json")["e_range"][0] == -0.1

    def test_exponent_positionals(self, capsys):
        assert main(["hitting-time", "-5e-1", "-2e-1", "--branch", "neg"]) == 0
        t = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        assert t == tiltsim.hitting_time(0.5, 0.2, +1)[0]

    def test_infinite_flag_value_is_a_config_error(self, tmp_path, capsys):
        assert main(["sweep-delta-l", "--e-min", "-inf", "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: [sweep] e_min: expected a finite number, got '-inf'\n"


class TestCriticalLyapunov:
    def test_prints_and_writes(self, tmp_path, capsys):
        out = tmp_path / "crit"
        rc = main(["critical-lyapunov", "--grid-res", "60", "--out-dir", str(out)])
        assert rc == 0
        data = read_json(out / "critical_lyapunov.json")
        assert data["l_critical"] > 0
        assert data["sup_bound"] == pytest.approx(data["l_critical"] + 0.75)
        assert "L_critical:" in capsys.readouterr().out

    def test_unbracketed_level_flagged(self, tmp_path, capsys):
        cfg = tmp_path / "gains.ini"
        cfg.write_text(UNBRACKETED_GAINS_CONFIG)
        out = tmp_path / "crit"
        with pytest.warns(UserWarning, match="could not bracket"):
            rc = main(
                [
                    "critical-lyapunov",
                    "--config",
                    str(cfg),
                    "--grid-res",
                    "16",
                    "--out-dir",
                    str(out),
                ]
            )
        assert rc == 0
        data = read_json(out / "critical_lyapunov.json")
        assert data["l_critical"] == 27406278.768203944
        assert data["bracketed"] is False
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if "search bound" in l] == [UNBRACKETED_NOTE]

    def test_degenerate_level_flagged(self, tmp_path, capsys):
        out = tmp_path / "crit"
        with pytest.warns(UserWarning, match="no grid cell has nonnegative"):
            assert main(["critical-lyapunov", "--grid-res", "1", "--out-dir", str(out)]) == 0
        data = read_json(out / "critical_lyapunov.json")
        assert (data["l_critical"], data["n_positive_cells"]) == (0.0, 0)
        assert data["bracketed"] is False
        lines = capsys.readouterr().out.splitlines()
        assert "supremum bound: 0.75" in lines
        assert [l for l in lines if l.startswith("note:")] == [DEGENERATE_NOTE]

    def test_bracketed_level_not_flagged(self, tmp_path, capsys):
        out = tmp_path / "crit"
        assert main(["critical-lyapunov", "--grid-res", "40", "--out-dir", str(out)]) == 0
        assert read_json(out / "critical_lyapunov.json")["bracketed"] is True
        assert "search bound" not in capsys.readouterr().out


class TestVerifyLemmas:
    @pytest.mark.parametrize("case", sorted(LEMMAS_PINS))
    def test_benchmark_pins(self, case, tmp_path, monkeypatch):
        # each pinned operation, from the argv and INI the benchmark passes;
        # l_critical is refined to 1e-4 and max_delta_l agrees to 1e-6
        for key in list(os.environ):
            if key.startswith("TILTSIM_"):
                monkeypatch.delenv(key)
        op = LEMMAS_PINS[case]
        pin = json.loads(PINS.read_text())[json.dumps(op, sort_keys=True)]
        out = tmp_path / "run"
        if op["cmd"] == "verify-lemmas":
            rc = main(["verify-lemmas", "--seed", str(op["seed"]), "--out-dir", str(out)])
            checks = read_json(out / "lemma_report.json")["checks"]
            assert {"rc": rc, "checks": [[c["name"], c["passed"]] for c in checks]} == pin
            return
        ini = tmp_path / "gains.ini"
        ini.write_text(f"[model]\nky1 = {op['ky1']}\nky2 = {op['ky2']}\n")
        argv = ["sweep-delta-l", "--grid-res", "16", "--config", str(ini), "--out-dir", str(out)]
        rc = main(argv)
        summary = read_json(out / "delta_l_summary.json")
        assert (rc, summary["n_positive"], summary["n_admissible"]) == (
            pin["rc"],
            pin["n_positive"],
            pin["n_admissible"],
        )
        assert math.isclose(summary["l_critical"], pin["l_critical"], rel_tol=0.0, abs_tol=1e-4)
        assert math.isclose(summary["max_delta_l"], pin["max_delta_l"], rel_tol=0.0, abs_tol=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("ky1", ["5000", "1e4"])
    def test_fast_decay_residual_passes(self, ky1, tmp_path):
        # the event oracle's step follows the fastest decay rate; at a fixed
        # step of 1e-4 it missed the closed form by 1.5e-6 and 1.9e-5 here
        cfg = tmp_path / "gains.ini"
        cfg.write_text(f"[model]\nky1 = {ky1}\n")
        argv = ["verify-lemmas", "--config", str(cfg), "--grid-res", "16"]
        main([*argv, "--out-dir", str(tmp_path)])
        checks = {c["name"]: c for c in read_json(tmp_path / "lemma_report.json")["checks"]}
        residual = checks["hitting_time_residual"]
        assert residual["passed"] is True
        assert residual["detail"]["max_residual"] < 1e-8

    def test_defaults_pass(self, tmp_path, capsys):
        out = tmp_path / "lemmas"
        rc = main(["verify-lemmas", "--grid-res", "40", "--seed", "0", "--out-dir", str(out)])
        assert rc == 0
        report = read_json(out / "lemma_report.json")
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])
        stdout = capsys.readouterr().out
        assert "[PASS] quadrant_capture" in stdout

    def test_bad_gains_flagged_not_fatal(self, tmp_path, capsys):
        cfg = tmp_path / "bad_gains.ini"
        cfg.write_text(BAD_GAINS_CONFIG)
        out = tmp_path / "lemmas"
        rc = main(
            [
                "verify-lemmas",
                "--config",
                str(cfg),
                "--grid-res",
                "15",
                "--seed",
                "0",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 1
        report = read_json(out / "lemma_report.json")
        assert report["passed"] is False
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        # the slow decay never reaches the threshold inside a half period
        assert "hitting_time_range" in failing or "quadrant_capture" in failing
        assert "[FAIL]" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", sorted(LEMMA_REPORT_SHA256))
    def test_golden_report_bytes(self, seed, tmp_path, monkeypatch):
        for key in list(os.environ):
            if key.startswith("TILTSIM_"):
                monkeypatch.delenv(key)
        out = tmp_path / "lemmas"
        assert main(["verify-lemmas", "--seed", str(seed), "--out-dir", str(out)]) == 0
        digest = hashlib.sha256((out / "lemma_report.json").read_bytes()).hexdigest()
        assert digest == LEMMA_REPORT_SHA256[seed]

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_negative_seed_is_config_error(self, source, tmp_path, monkeypatch, capsys):
        argv = ["verify-lemmas", "--grid-res", "2", "--out-dir", str(tmp_path / "lemmas")]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "env":
            monkeypatch.setenv("TILTSIM_SEED", "-1")
        else:
            (tmp_path / "seed.ini").write_text("[sweep]\nseed = -1\n")
            argv += ["--config", str(tmp_path / "seed.ini")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: [sweep] seed must be nonnegative, got -1\n"
        assert not (tmp_path / "lemmas").exists()

    def test_coarse_resolution_still_runs(self, tmp_path):
        out = tmp_path / "lemmas"
        rc = main(["verify-lemmas", "--grid-res", "2", "--seed", "1", "--out-dir", str(out)])
        report = read_json(out / "lemma_report.json")
        assert rc in (0, 1)
        assert len(report["checks"]) == 9


@pytest.mark.parametrize("preset", ["small", "large"])
def test_both_reports_share_the_check_shape(preset, tmp_path):
    sim, lemmas = tmp_path / "sim", tmp_path / "lemmas"
    assert main(["simulate", "--preset", preset, "--duration", "2.0", "--out-dir", str(sim)]) == 0
    assert main(["verify-lemmas", "--grid-res", "16", "--out-dir", str(lemmas)]) == 0
    checks = read_json(sim / "report.json")["checks"]
    checks += read_json(lemmas / "lemma_report.json")["checks"]
    assert len(checks) == 4 + 9
    for check in checks:
        assert set(check) == {"name", "applicable", "passed", "detail"}


def _numbers(value):
    """Every float in a JSON value, however deeply nested."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)


_OPEN_ANGLE = st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True)
# the four commands that write files, with the report whose checks each writes
_WRITERS = {
    "simulate": "report.json",
    "sweep-delta-l": None,
    "critical-lyapunov": None,
    "verify-lemmas": "lemma_report.json",
}


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=100, deadline=None)
@given(
    model=st.fixed_dictionaries(
        {k: _LOG_UNIFORM for k in ("m", "k_thrust", "kx1", "kx2", "ky1", "ky2")}
        | {"theta": _OPEN_ANGLE}
    ),
    amplitude=_OPEN_ANGLE,
    half_period_steps=st.integers(1, 1000),
    duration_steps=st.integers(1, 1500),
    resolution=st.integers(1, 12),
    lambda_sign=st.sampled_from((1, -1)),
    phase_sign=st.sampled_from((1, -1)),
)
def test_fuzzed_configs_of_the_writing_commands(
    tmp_path_factory, model, amplitude, half_period_steps, duration_steps, resolution,
    lambda_sign, phase_sign,
):
    # any model, gait and grid: each command exits with one of its four codes
    # and raises nothing, and no applicable check passes on a number that is
    # not finite; the step dt = 1e-3 divides the half period and the duration
    ini = "[model]\n" + "".join(f"{k} = {v!r}\n" for k, v in model.items())
    ini += f"[gait]\npreset = large\namplitude = {amplitude!r}\n"
    ini += f"period = {2 * half_period_steps / 1000!r}\nphase_sign = {phase_sign}\n"
    ini += f"[sim]\ndt = 0.001\nduration = {duration_steps / 1000!r}\n"
    ini += f"[sweep]\nresolution = {resolution}\nlambda_sign = {lambda_sign}\n"
    base = tmp_path_factory.getbasetemp()
    cfg = base / "fuzzed_config.ini"
    cfg.write_text(ini)
    for command, report in _WRITERS.items():
        with tempfile.TemporaryDirectory(dir=base) as out:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = main([command, "--config", str(cfg), "--out-dir", out])
            written = Path(out, report or "none")
            checks = read_json(written).get("checks", []) if written.exists() else []
        assert rc in (0, 1, 2, 3), command
        for check in checks:
            if check["applicable"] and check["passed"]:
                assert all(map(math.isfinite, _numbers(check["detail"]))), (command, check)


class TestGenericGainGoldens:
    @pytest.mark.filterwarnings("ignore:could not bracket")
    @pytest.mark.parametrize("case", sorted(GENERIC_SHA256))
    def test_golden_bytes(self, case, tmp_path, monkeypatch):
        for key in list(os.environ):
            if key.startswith("TILTSIM_"):
                monkeypatch.delenv(key)
        argv, (ky1, ky2), name, digest = GENERIC_SHA256[case]
        (tmp_path / "gains.ini").write_text(f"[model]\nky1 = {ky1}\nky2 = {ky2}\n")
        out = tmp_path / "out"
        assert main([*argv, "--config", str(tmp_path / "gains.ini"), "--out-dir", str(out)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


# Runs in a fresh interpreter: argv[1] is the output directory, argv[2] an
# INI file with non-default gains. Prints which scipy modules are loaded
# after import, and whether scipy.optimize is loaded after each command.
IMPORT_PROBE = """\
import json, sys, warnings
warnings.simplefilter("ignore")
import tiltsim.cli as cli
out, gains = sys.argv[1], sys.argv[2]
seen = {"import": ["scipy" in sys.modules, "scipy.optimize" in sys.modules], "commands": {}}
for argv in (
    ["verify-lemmas", "--seed", "0", "--out-dir", out],
    ["critical-lyapunov", "--out-dir", out],
    ["sweep-delta-l", "--grid-res", "16", "--out-dir", out],
    ["sweep-delta-l", "--grid-res", "16", "--config", gains, "--out-dir", out],
    ["hitting-time", "0.5", "0.2", "--config", gains],
    ["verify-lemmas", "--grid-res", "16", "--config", gains, "--out-dir", out],
):
    cli.main(argv)
    gains_used = "generic" if gains in argv else "default"
    seen["commands"][f"{argv[0]} {gains_used}"] = "scipy.optimize" in sys.modules
print(json.dumps(seen))
"""


class TestImportCost:
    def test_no_command_loads_scipy_optimize(self, tmp_path):
        gains = tmp_path / "gains.ini"
        gains.write_text(UNBRACKETED_GAINS_CONFIG)
        src = str(Path(tiltsim.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "out"), str(gains)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen["import"] == [True, False]
        assert seen["commands"] == {
            "verify-lemmas default": False,
            "critical-lyapunov default": False,
            "sweep-delta-l default": False,
            "sweep-delta-l generic": False,
            "hitting-time generic": False,
            "verify-lemmas generic": False,
        }
