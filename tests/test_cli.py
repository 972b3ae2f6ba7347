import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
# and all three when every check gained ``applicable`` (see
# LEMMA_SHA256_WITHOUT_APPLICABLE)
LEMMA_REPORT_SHA256 = {
    0: "f6598072615ee1416afd3e80c812bfd366723678eb1b185bbb890e27124e85be",
    7: "7d0d415fa47913172b3ba6a1c6078035b467a7c7323b76679d6e4de33b0c1aba",
    31: "6df11cd6d8fab37c299923686cbe3dcc0a4ca68effcf1946a7266d5e5278a5f3",
}

# the lemma report digests from before every check carried ``applicable``:
# argv, gains (None for the defaults), digest of the report with that key
# removed from each check and re-dumped as ``write_json`` dumps it; the generic
# case re-recorded when the hitting times took exact brackets, which moved its
# values by at most 2.6e-15
LEMMA_SHA256_WITHOUT_APPLICABLE = {
    "seed-0": (
        ["verify-lemmas", "--seed", "0"],
        None,
        "66785ba4f18ceac7098d323c91e167e5a7d2b6497ea0121855e6b35bc319caa2",
    ),
    "seed-7": (
        ["verify-lemmas", "--seed", "7"],
        None,
        "1b086e898cd8c095ac5b92a167410cff1eea431b8d136c717e5c0f64319f9043",
    ),
    "seed-31": (
        ["verify-lemmas", "--seed", "31"],
        None,
        "7a7b3d61da97a11aa16ec0fbec2715cba86e042ec1317e4fe4f97523292f98ba",
    ),
    "generic": (
        ["verify-lemmas", "--grid-res", "16", "--seed", "0"],
        (6, 12),
        "33276b6bffb2d3ce2c4c0e35591677ae4c1dbf6bf7f4fa82662ca5e06e9c0093",
    ),
}

# SHA-256 of the analysis outputs at non-default gains (ky1, ky2), which run the
# bracketed crossing search: argv, gains, output file, digest.
# critical_lyapunov.json was re-recorded when it lost its always-zero
# "n_unsettled" key; with "n_unsettled": 0 put back and re-dumped by
# ``write_json`` it hashes to the old
# 9a2700d8c86c35c92ea3f33348aca7212fd5a5c6633dff67ef2e3aea61e2c87b. The grids,
# the (2, 5) summary and the lemma report were re-recorded when each crossing
# took one exact bracket in place of a sampled scan: values moved by at most
# 5.7e-14, and no sign cell, count or critical level moved
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
    # yaw sign -1: real rates, unbracketed
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
        "dd013a945a6c0cab7bf0173a98b4ce84d40ea1be1ac77d9f824ccae9704ebe7d",
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


class TestNegativeNumbers:
    # argparse alone takes a negative number with an exponent, or -inf, for a flag
    def test_exponent_flag_value(self, tmp_path):
        argv = ["sweep-delta-l", "--grid-res", "4", "--e-min", "-1e-1", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert read_json(tmp_path / "delta_l_summary.json")["e_range"][0] == -0.1

    def test_exponent_positionals(self, capsys):
        assert main(["hitting-time", "-5e-1", "-2e-1", "--branch", "neg"]) == 0
        t = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        assert t == tiltsim.hitting_time(tiltsim.ErrorState(0.5, 0.2), +1)

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

    @pytest.mark.parametrize("case", sorted(LEMMA_SHA256_WITHOUT_APPLICABLE))
    def test_reports_differ_only_by_applicable(self, case, tmp_path, monkeypatch):
        for key in list(os.environ):
            if key.startswith("TILTSIM_"):
                monkeypatch.delenv(key)
        argv, gains, digest = LEMMA_SHA256_WITHOUT_APPLICABLE[case]
        out = tmp_path / "lemmas"
        argv = [*argv, "--out-dir", str(out)]
        if gains is not None:
            (tmp_path / "gains.ini").write_text(f"[model]\nky1 = {gains[0]}\nky2 = {gains[1]}\n")
            argv += ["--config", str(tmp_path / "gains.ini")]
        assert main(argv) == 0
        report = read_json(out / "lemma_report.json")
        for check in report["checks"]:
            assert check.pop("applicable") is True
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

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
