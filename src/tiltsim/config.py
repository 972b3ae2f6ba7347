"""Experiment configuration: INI files, environment, and flag overrides.

A config file has up to four sections ([model], [gait], [sim], [sweep]);
every key is optional and falls back to a documented default, so commands
run with no config at all. Environment variables with the TILTSIM_ prefix
override file values, and command-line flags override both. A resolved
configuration can be echoed back as a manifest file that reproduces the
run bit-identically when fed back in.

Every settable value is declared once, in ``KEYS``: file validation, typed
parsing, the environment variables, the flags of ``tiltsim.cli`` with the
commands that take them, and the manifest all follow from that table.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .gait import GaitSchedule, preset
from .plant import ModelParams, VehicleState
from .simulator import SimConfig
from .output import atomic_write_text, fmt

__all__ = [
    "ConfigError",
    "SweepSpec",
    "ExperimentConfig",
    "ENV_PREFIX",
    "KEYS",
    "resolve_config",
    "write_manifest",
]

ENV_PREFIX = "TILTSIM_"


class Key(NamedTuple):
    """One settable value: an INI key and, optionally, its command-line flag.

    ``commands`` names the ``tiltsim.cli`` commands that read the value; those
    and no others take its flag. A flag has an environment variable, the flag
    upper-cased with the prefix, unless only the sweep commands take it.
    """

    section: str
    key: str
    type: type
    flag: str | None = None
    help: str | None = None
    commands: tuple[str, ...] = ()

    @property
    def dest(self) -> str:
        """Attribute that argparse stores the flag under."""
        return self.flag.replace("-", "_")

    @property
    def env(self) -> str | None:
        return ENV_PREFIX + self.dest.upper() if set(self.commands) - set(_SWEEPS) else None


_SIM = ("simulate",)
_SWEEPS = ("sweep-delta-l", "critical-lyapunov")
_GRIDS = _SIM + _SWEEPS + ("verify-lemmas",)

# every settable value; sections and keys are written to the manifest in this order
KEYS = (
    Key("model", "m", float),
    Key("model", "theta", float),
    Key("model", "k_thrust", float),
    Key("model", "kx1", float),
    Key("model", "kx2", float),
    Key("model", "ky1", float),
    Key("model", "ky2", float),
    Key("gait", "preset", str, "preset", "gait preset name: small or large", _SIM),
    Key("gait", "amplitude", float, "amplitude", "gait yaw amplitude (rad)", _SIM),
    Key("gait", "period", float, "period", "gait period (s)", _SIM + _SWEEPS),
    Key("gait", "phase_sign", int),
    Key("sim", "dt", float, "dt", "integrator step (s)", _SIM),
    Key("sim", "duration", float, "duration", "simulated horizon (s)", _SIM),
    Key("sim", "x0", float),
    Key("sim", "y0", float),
    Key("sim", "vx0", float),
    Key("sim", "vy0", float),
    Key("sweep", "e_min", float, "e-min", "grid lower bound along e", _SWEEPS),
    Key("sweep", "e_max", float, "e-max", "grid upper bound along e", _SWEEPS),
    Key("sweep", "edot_min", float, "edot-min", "grid lower bound along edot", _SWEEPS),
    Key("sweep", "edot_max", float, "edot-max", "grid upper bound along edot", _SWEEPS),
    Key("sweep", "resolution", int, "grid-res", "grid resolution per axis", _GRIDS),
    Key("sweep", "lambda_sign", int, "lambda-sign", "yaw sign for the sweep", ("sweep-delta-l",)),
    Key("sweep", "seed", int, "seed", "seed for randomized property sampling", ("verify-lemmas",)),
)

_NAMES = {(k.section, k.key) for k in KEYS}
_SECTIONS = tuple(dict.fromkeys(k.section for k in KEYS))
_EXPECTED = {float: "a finite number", int: "an integer"}


class ConfigError(Exception):
    """A configuration file or override could not be interpreted."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid ranges and sampling controls for the analysis commands."""

    e_min: float = -2.0
    e_max: float = 2.0
    edot_min: float = -2.0
    edot_max: float = 2.0
    resolution: int = 200
    lambda_sign: int = 1
    seed: int = 0

    def e_range(self) -> tuple[float, float]:
        return (self.e_min, self.e_max)

    def __post_init__(self) -> None:
        if self.lambda_sign not in (-1, 1):
            raise ValueError(f"lambda_sign must be -1 or +1, got {self.lambda_sign}")
        if self.resolution < 1:
            raise ValueError(f"resolution must be at least 1, got {self.resolution}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for axis, lo, hi in (("e", self.e_min, self.e_max), ("edot", self.edot_min, self.edot_max)):
            if self.resolution > 1 and lo == hi:
                raise ValueError(
                    f"{axis}_min and {axis}_max must differ when resolution > 1, both are {lo}"
                )

    def edot_range(self) -> tuple[float, float]:
        return (self.edot_min, self.edot_max)


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    gait: GaitSchedule
    dt: float
    duration: float
    initial_state: VehicleState
    sweep: SweepSpec

    def sim_config(self) -> SimConfig:
        return SimConfig(
            params=self.params,
            gait=self.gait,
            dt=self.dt,
            duration=self.duration,
            initial_state=self.initial_state,
        )


def _read_file(path) -> dict[tuple[str, str], str]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    values: dict[tuple[str, str], str] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{section}] in {path}; expected one of {sorted(_SECTIONS)}"
            )
        for key, value in parser.items(section):
            if (section, key) not in _NAMES:
                raise ConfigError(
                    f"unknown key '{key}' in section [{section}] of {path}; expected one of "
                    f"{sorted(k.key for k in KEYS if k.section == section)}"
                )
            values[section, key] = value
    return values


def _parse(key: Key, raw: str):
    try:
        value = key.type(raw)
    except ValueError:
        value = None
    if value is None or (key.type is float and not math.isfinite(value)):
        raise ConfigError(f"[{key.section}] {key.key}: expected {_EXPECTED[key.type]}, got {raw!r}")
    return value


def _build(prefix: str, make, /, *args, **kwargs):
    """``make(*args, **kwargs)``, its ``ValueError`` reported as a ConfigError after ``prefix``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def resolve_config(
    config_path=None,
    overrides: dict[tuple[str, str], object] | None = None,
    env: dict[str, str] | None = None,
) -> ExperimentConfig:
    """Merge defaults, config file, environment, and explicit overrides.

    ``overrides`` maps (section, key) to already-typed or string values and
    wins over everything else.
    """
    raw = _read_file(config_path) if config_path is not None else {}
    for k in KEYS:
        if env and k.env in env:
            raw[k.section, k.key] = env[k.env]
    for name, value in (overrides or {}).items():
        if value is None:
            continue
        if name not in _NAMES:
            raise ConfigError(f"unknown override [{name[0]}] {name[1]}")
        raw[name] = str(value)

    def typed(section):
        """The keys of ``section`` that are set, parsed to their types."""
        keys = (k for k in KEYS if k.section == section and (section, k.key) in raw)
        return {k.key: _parse(k, raw[section, k.key]) for k in keys}

    params = _build("[model]: ", ModelParams, **typed("model"))
    gait_kwargs = typed("gait")
    base = _build("[gait] preset: ", preset, gait_kwargs.pop("preset", "small"))
    gait = _build("[gait]: ", dataclasses.replace, base, **gait_kwargs)
    sim_kwargs = typed("sim")
    # x0, y0, vx0 and vy0 are the initial state's fields with a 0 suffix; the
    # fields they leave unset keep SimConfig's default start
    state = {key[:-1]: sim_kwargs.pop(key) for key in list(sim_kwargs) if key.endswith("0")}
    start = SimConfig.initial_state
    initial_state = _build("[sim] initial state: ", dataclasses.replace, start, **state)
    sweep = _build("[sweep] ", SweepSpec, **typed("sweep"))
    sim = _build("[sim]: ", SimConfig, params, gait, initial_state=initial_state, **sim_kwargs)
    return ExperimentConfig(params, gait, sim.dt, sim.duration, initial_state, sweep)


def write_manifest(cfg: ExperimentConfig, path) -> None:
    """Echo the fully resolved configuration as a reload-able config file.

    The gait is written as the amplitude, period and phase sign it resolved
    to, so ``preset`` is left out.
    """
    owners = {"model": cfg.params, "gait": cfg.gait, "sim": cfg, "sweep": cfg.sweep}
    blocks = []
    for section, owner in owners.items():
        lines = [f"[{section}]"]
        for k in KEYS:
            if k.section != section or k.type is str:
                continue
            if hasattr(owner, k.key):
                value = getattr(owner, k.key)
            else:  # x0, y0, vx0 and vy0 live on the initial state
                value = getattr(cfg.initial_state, k.key[:-1])
            # str, not fmt, for integers: fmt(10**20) is '1e+20'
            lines.append(f"{k.key} = {fmt(value) if k.type is float else value}")
        blocks.append("\n".join(lines))
    atomic_write_text(Path(path), "\n\n".join(blocks) + "\n")
