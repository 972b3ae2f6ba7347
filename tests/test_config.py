"""The configuration surface: INI keys, TILTSIM_ variables, flags and the manifest.

These tests pin the surface from outside: which keys a file may set, which
variables and flags override them, which flags each command takes, and that
a manifest reloads to the configuration that wrote it.
"""

import json
import math
import operator
import os
import re
from pathlib import Path

import pytest

from tiltsim import cli
from tiltsim.config import ConfigError, resolve_config, write_manifest
from tiltsim.gait import PRESETS
from tiltsim.output import fmt

README = Path(__file__).resolve().parents[1] / "README.md"

# (section, key, INI text, where the resolved config keeps it, typed value)
# for every INI key; each value differs from its default and keeps an
# otherwise default run valid
INI_KEYS = [
    ("model", "m", "2.5", "params.m", 2.5),
    ("model", "theta", "0.5", "params.theta", 0.5),
    ("model", "k_thrust", "0.0625", "params.k_thrust", 0.0625),
    ("model", "kx1", "11.5", "params.kx1", 11.5),
    ("model", "kx2", "5.5", "params.kx2", 5.5),
    ("model", "ky1", "8.5", "params.ky1", 8.5),
    ("model", "ky2", "17.5", "params.ky2", 17.5),
    ("gait", "preset", "large", "gait", PRESETS["large"]),
    ("gait", "amplitude", "1.25", "gait.amplitude", 1.25),
    ("gait", "period", "3", "gait.period", 3.0),
    ("gait", "phase_sign", "1", "gait.phase_sign", 1),
    ("sim", "dt", "0.0625", "dt", 0.0625),
    ("sim", "duration", "3.5", "duration", 3.5),
    ("sim", "x0", "0.25", "initial_state.x", 0.25),
    ("sim", "y0", "-0.5", "initial_state.y", -0.5),
    ("sim", "vx0", "1.5", "initial_state.vx", 1.5),
    ("sim", "vy0", "-2", "initial_state.vy", -2.0),
    ("sweep", "e_min", "-1.5", "sweep.e_min", -1.5),
    ("sweep", "e_max", "1.75", "sweep.e_max", 1.75),
    ("sweep", "edot_min", "-1.25", "sweep.edot_min", -1.25),
    ("sweep", "edot_max", "2.5", "sweep.edot_max", 2.5),
    ("sweep", "resolution", "17", "sweep.resolution", 17),
    ("sweep", "lambda_sign", "-1", "sweep.lambda_sign", -1),
    ("sweep", "seed", "100000000000000000000", "sweep.seed", 10**20),
]

# TILTSIM_ variable -> (section, key, file value, variable value, flag, flag value)
ENV_VARS = {
    "TILTSIM_PRESET": ("gait", "preset", "small", "large", "--preset", "small"),
    "TILTSIM_AMPLITUDE": ("gait", "amplitude", "0.5", "0.75", "--amplitude", "1"),
    "TILTSIM_PERIOD": ("gait", "period", "3", "4", "--period", "5"),
    "TILTSIM_DT": ("sim", "dt", "0.0625", "0.125", "--dt", "0.25"),
    "TILTSIM_DURATION": ("sim", "duration", "2", "3", "--duration", "4"),
    "TILTSIM_GRID_RES": ("sweep", "resolution", "11", "12", "--grid-res", "13"),
    "TILTSIM_SEED": ("sweep", "seed", "5", "6", "--seed", "7"),
}

# flags of the sweep commands only: (section, key, file value, flag value)
SWEEP_FLAGS = {
    "--e-min": ("sweep", "e_min", "-1.5", "-1"),
    "--e-max": ("sweep", "e_max", "1.5", "1"),
    "--edot-min": ("sweep", "edot_min", "-1.5", "-1"),
    "--edot-max": ("sweep", "edot_max", "1.5", "1"),
    "--lambda-sign": ("sweep", "lambda_sign", "1", "-1"),
}

COMMON_FLAGS = {"--help", "--config", "--out-dir"} | {v[4] for v in ENV_VARS.values()}
COMMAND_FLAGS = {
    "simulate": COMMON_FLAGS,
    "sweep-delta-l": COMMON_FLAGS | set(SWEEP_FLAGS),
    "hitting-time": COMMON_FLAGS | {"--branch"},
    "critical-lyapunov": COMMON_FLAGS | set(SWEEP_FLAGS),
    "verify-lemmas": COMMON_FLAGS,
}

# every key away from its default, in the manifest's own layout
FULL_MANIFEST = """\
[model]
m = 2.5
theta = 0.5
k_thrust = 0.0625
kx1 = 11.5
kx2 = 5.5
ky1 = 8.5
ky2 = 17.5

[gait]
amplitude = 1.25
period = 3
phase_sign = 1

[sim]
dt = 0.0625
duration = 3
x0 = 0.25
y0 = -0.5
vx0 = 1.5
vy0 = -2

[sweep]
e_min = -1.5
e_max = 1.75
edot_min = -1.25
edot_max = 2.5
resolution = 17
lambda_sign = -1
seed = 100000000000000000000
"""


@pytest.fixture(autouse=True)
def _no_tiltsim_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("TILTSIM_"):
            monkeypatch.delenv(name)


def _ini(path, entries):
    """Write ``{(section, key): text}`` as an INI file at ``path``."""
    sections = {}
    for (section, key), text in entries.items():
        sections.setdefault(section, []).append(f"{key} = {text}")
    path.write_text("".join(f"[{s}]\n" + "\n".join(v) + "\n\n" for s, v in sections.items()))
    return path


def _resolve_one(path, section, key, text):
    """The configuration of an INI file that sets only ``[section] key``."""
    return resolve_config(_ini(path, {(section, key): text}), {}, {})


class _Resolved(Exception):
    pass


def _resolved(monkeypatch, argv):
    """The configuration a command resolves from ``argv``, without running it."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(resolve_config(*args, **kwargs))
        raise _Resolved

    monkeypatch.setattr(cli, "resolve_config", spy)
    with pytest.raises(_Resolved):
        cli.main(argv)
    return seen[0]


class TestIniKeys:
    @pytest.mark.parametrize("section,key,text,where,value", INI_KEYS, ids=[k[1] for k in INI_KEYS])
    def test_key_reaches_config_and_manifest(self, section, key, text, where, value, tmp_path):
        cfg = _resolve_one(tmp_path / "in.ini", section, key, text)
        assert operator.attrgetter(where)(cfg) == value
        write_manifest(cfg, tmp_path / "manifest.ini")
        manifest = (tmp_path / "manifest.ini").read_text().splitlines()
        if key == "preset":
            # the manifest records the gait the preset names, not its name
            assert f"amplitude = {fmt(PRESETS['large'].amplitude)}" in manifest
        else:
            assert f"{key} = {text}" in manifest
        assert resolve_config(tmp_path / "manifest.ini", {}, {}) == cfg

    def test_exactly_these_keys(self, tmp_path):
        entries = {(section, key): text for section, key, text, _, _ in INI_KEYS}
        resolve_config(_ini(tmp_path / "all.ini", entries), {}, {})
        for section in ("model", "gait", "sim", "sweep"):
            bogus = _ini(tmp_path / "bogus.ini", {(section, "bogus"): "1"})
            with pytest.raises(ConfigError, match="unknown key 'bogus'"):
                resolve_config(bogus, {}, {})
        with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
            resolve_config(_ini(tmp_path / "extra.ini", {("extra", "m"): "1"}), {}, {})

    def test_full_manifest_round_trip(self, tmp_path):
        src = tmp_path / "full.ini"
        src.write_text(FULL_MANIFEST)
        cfg = resolve_config(src, {}, {})
        assert cfg.sweep.seed == 10**20
        write_manifest(cfg, tmp_path / "manifest.ini")
        assert (tmp_path / "manifest.ini").read_bytes() == FULL_MANIFEST.encode()
        assert resolve_config(tmp_path / "manifest.ini", {}, {}) == cfg


class TestEnvironment:
    @pytest.mark.parametrize("var", sorted(ENV_VARS))
    def test_variable_overrides_file(self, var, tmp_path):
        section, key, file_value, env_value, _, _ = ENV_VARS[var]
        path = _ini(tmp_path / "in.ini", {(section, key): file_value})
        from_file = resolve_config(path, {}, {})
        from_env = resolve_config(path, {}, {var: env_value})
        assert from_env != from_file
        assert from_env == _resolve_one(tmp_path / "env.ini", section, key, env_value)

    def test_no_other_variable_is_read(self):
        # a variable for every other key and flag, each unparseable if read
        names = {f"TILTSIM_{k[1].upper()}" for k in INI_KEYS}
        names |= {"TILTSIM_" + f[2:].upper().replace("-", "_") for f in SWEEP_FLAGS}
        env = {name: "garbage" for name in names - set(ENV_VARS)}
        assert len(env) == 18
        assert resolve_config(None, {}, env) == resolve_config(None, {}, {})


class TestFlags:
    @pytest.mark.parametrize("var", sorted(ENV_VARS))
    def test_common_flag_overrides_variable(self, var, tmp_path, monkeypatch):
        section, key, file_value, env_value, flag, flag_value = ENV_VARS[var]
        path = _ini(tmp_path / "in.ini", {(section, key): file_value})
        monkeypatch.setenv(var, env_value)
        expected = _resolve_one(tmp_path / "flag.ini", section, key, flag_value)
        for command in COMMAND_FLAGS:
            argv = [command, flag, flag_value, "--config", str(path)]
            if command == "hitting-time":
                argv += ["0.1", "0"]
            assert _resolved(monkeypatch, argv) == expected

    @pytest.mark.parametrize("flag", sorted(SWEEP_FLAGS))
    def test_sweep_flag_overrides_file(self, flag, tmp_path, monkeypatch):
        section, key, file_value, flag_value = SWEEP_FLAGS[flag]
        path = _ini(tmp_path / "in.ini", {(section, key): file_value})
        expected = _resolve_one(tmp_path / "flag.ini", section, key, flag_value)
        assert expected != resolve_config(path, {}, {})
        for command in ("sweep-delta-l", "critical-lyapunov"):
            argv = [command, flag, flag_value, "--config", str(path)]
            assert _resolved(monkeypatch, argv) == expected

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_command_flag_set(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, "--help"])
        assert exit_.value.code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == COMMAND_FLAGS[command]

    def test_command_set(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        assert re.search(r"\{([a-z,-]+)\}", out).group(1).split(",") == list(COMMAND_FLAGS)

    def test_parser_reused_with_a_fresh_namespace(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        base = ["verify-lemmas", "--grid-res", "2", "--out-dir"]
        assert cli.main([*base, str(tmp_path / "a"), "--seed", "5"]) in (0, 1)
        assert cli.main([*base, str(tmp_path / "b")]) in (0, 1)
        assert json.loads((tmp_path / "a" / "lemma_report.json").read_text())["seed"] == 5
        assert json.loads((tmp_path / "b" / "lemma_report.json").read_text())["seed"] == 0


class TestNonFiniteSweepBounds:
    @pytest.mark.parametrize("flag", ["--e-min", "--e-max", "--edot-min", "--edot-max"])
    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_flag_is_config_error(self, flag, text, tmp_path, capsys):
        out = tmp_path / "crit"
        argv = ["critical-lyapunov", "--grid-res", "4", f"{flag}={text}", "--out-dir", str(out)]
        assert cli.main(argv) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["e_min", "e_max", "edot_min", "edot_max"])
    def test_file_is_config_error(self, key, tmp_path, capsys):
        path = _ini(tmp_path / "in.ini", {("sweep", key): "nan"})
        out = tmp_path / "sweep"
        argv = ["sweep-delta-l", "--grid-res", "4", "--config", str(path), "--out-dir", str(out)]
        assert cli.main(argv) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestReadme:
    def test_ini_example_resolves(self, tmp_path):
        text = README.read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", text, re.S)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        cfg = resolve_config(path, {}, {})
        assert cfg.gait.amplitude == PRESETS["large"].amplitude
        assert math.isclose(cfg.params.theta, math.pi / 6)

    def test_variables_listed(self):
        from tiltsim.config import KEYS as TABLE

        listed = set(re.findall(r"TILTSIM_[A-Z_]+", README.read_text()))
        table = {key.env for key in TABLE if key.env}
        assert table == set(ENV_VARS)
        assert listed == table | {"TILTSIM_CONFIG", "TILTSIM_OUT_DIR"}
