"""Experiment configuration: INI files, environment, and flag overrides.

A config file has up to four sections ([model], [gait], [sim], [sweep]);
every key is optional and falls back to a documented default, so commands
run with no config at all. Environment variables with the TILTSIM_ prefix
override file values, and command-line flags override both. A resolved
configuration can be echoed back as a manifest file that reproduces the
run bit-identically when fed back in.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .gait import GaitSchedule, preset
from .plant import ModelParams, VehicleState
from .simulator import SimConfig
from .output import atomic_write_text, fmt

__all__ = [
    "ConfigError",
    "SweepSpec",
    "ExperimentConfig",
    "ENV_PREFIX",
    "resolve_config",
    "write_manifest",
]

ENV_PREFIX = "TILTSIM_"

_SCHEMA = {
    "model": ("m", "theta", "k_thrust", "kx1", "kx2", "ky1", "ky2"),
    "gait": ("preset", "amplitude", "period", "phase_sign"),
    "sim": ("dt", "duration", "x0", "y0", "vx0", "vy0"),
    "sweep": (
        "e_min",
        "e_max",
        "edot_min",
        "edot_max",
        "resolution",
        "lambda_sign",
        "seed",
    ),
}

# environment variables mirroring the command-line flags
_ENV_MAP = {
    "PRESET": ("gait", "preset"),
    "AMPLITUDE": ("gait", "amplitude"),
    "PERIOD": ("gait", "period"),
    "DT": ("sim", "dt"),
    "DURATION": ("sim", "duration"),
    "GRID_RES": ("sweep", "resolution"),
    "SEED": ("sweep", "seed"),
}


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


def _read_file(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    values: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}] in {path}; expected one of {sorted(_SCHEMA)}"
            )
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key '{key}' in section [{section}] of {path}; "
                    f"expected one of {sorted(_SCHEMA[section])}"
                )
            values.setdefault(section, {})[key] = value
    return values


def _as_float(values, section, key):
    raw = values.get(section, {}).get(key)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None


def _as_int(values, section, key):
    raw = values.get(section, {}).get(key)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def resolve_config(
    config_path=None,
    overrides: dict[tuple[str, str], object] | None = None,
    env: dict[str, str] | None = None,
) -> ExperimentConfig:
    """Merge defaults, config file, environment, and explicit overrides.

    ``overrides`` maps (section, key) to already-typed or string values and
    wins over everything else.
    """
    values: dict[str, dict[str, str]] = {}
    if config_path is not None:
        values = _read_file(config_path)
    if env:
        for suffix, (section, key) in _ENV_MAP.items():
            raw = env.get(ENV_PREFIX + suffix)
            if raw is not None:
                values.setdefault(section, {})[key] = raw
    if overrides:
        for (section, key), value in overrides.items():
            if value is None:
                continue
            if section not in _SCHEMA or key not in _SCHEMA[section]:
                raise ConfigError(f"unknown override [{section}] {key}")
            values.setdefault(section, {})[key] = str(value)

    model_kwargs = {}
    for key in _SCHEMA["model"]:
        val = _as_float(values, "model", key)
        if val is not None:
            model_kwargs[key] = val
    try:
        params = ModelParams(**model_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[model]: {exc}") from exc

    preset_name = values.get("gait", {}).get("preset", "small")
    try:
        base = preset(preset_name)
    except ValueError as exc:
        raise ConfigError(f"[gait] preset: {exc}") from exc
    gait_kwargs = {}
    amplitude = _as_float(values, "gait", "amplitude")
    if amplitude is not None:
        gait_kwargs["amplitude"] = amplitude
    period = _as_float(values, "gait", "period")
    if period is not None:
        gait_kwargs["period"] = period
    phase_sign = _as_int(values, "gait", "phase_sign")
    if phase_sign is not None:
        gait_kwargs["phase_sign"] = phase_sign
    try:
        gait = dataclasses.replace(base, **gait_kwargs) if gait_kwargs else base
    except ValueError as exc:
        raise ConfigError(f"[gait]: {exc}") from exc

    dt = _as_float(values, "sim", "dt")
    duration = _as_float(values, "sim", "duration")
    state_kwargs = {}
    for cfg_key, field in (("x0", "x"), ("y0", "y"), ("vx0", "vx"), ("vy0", "vy")):
        val = _as_float(values, "sim", cfg_key)
        if val is not None:
            state_kwargs[field] = val
    try:
        initial_state = VehicleState(
            state_kwargs.get("x", 0.0),
            state_kwargs.get("y", 0.0),
            state_kwargs.get("vx", 0.0),
            state_kwargs.get("vy", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"[sim] initial state: {exc}") from exc

    sweep_kwargs = {}
    for key in ("e_min", "e_max", "edot_min", "edot_max"):
        val = _as_float(values, "sweep", key)
        if val is not None:
            sweep_kwargs[key] = val
    for key in ("resolution", "lambda_sign", "seed"):
        val = _as_int(values, "sweep", key)
        if val is not None:
            sweep_kwargs[key] = val
    sweep = SweepSpec(**sweep_kwargs)
    if sweep.lambda_sign not in (-1, 1):
        raise ConfigError(f"[sweep] lambda_sign must be -1 or +1, got {sweep.lambda_sign}")
    if sweep.resolution < 1:
        raise ConfigError(f"[sweep] resolution must be at least 1, got {sweep.resolution}")
    if sweep.seed < 0:
        raise ConfigError(f"[sweep] seed must be nonnegative, got {sweep.seed}")

    cfg = ExperimentConfig(
        params=params,
        gait=gait,
        dt=dt if dt is not None else 1e-3,
        duration=duration if duration is not None else 20.0,
        initial_state=initial_state,
        sweep=sweep,
    )
    try:
        cfg.sim_config()
    except ValueError as exc:
        raise ConfigError(f"[sim]: {exc}") from exc
    return cfg


def write_manifest(cfg: ExperimentConfig, path) -> None:
    """Echo the fully resolved configuration as a reload-able config file."""
    p, g, s = cfg.params, cfg.gait, cfg.sweep
    lines = [
        "[model]",
        f"m = {fmt(p.m)}",
        f"theta = {fmt(p.theta)}",
        f"k_thrust = {fmt(p.k_thrust)}",
        f"kx1 = {fmt(p.kx1)}",
        f"kx2 = {fmt(p.kx2)}",
        f"ky1 = {fmt(p.ky1)}",
        f"ky2 = {fmt(p.ky2)}",
        "",
        "[gait]",
        f"amplitude = {fmt(g.amplitude)}",
        f"period = {fmt(g.period)}",
        f"phase_sign = {g.phase_sign}",
        "",
        "[sim]",
        f"dt = {fmt(cfg.dt)}",
        f"duration = {fmt(cfg.duration)}",
        f"x0 = {fmt(cfg.initial_state.x)}",
        f"y0 = {fmt(cfg.initial_state.y)}",
        f"vx0 = {fmt(cfg.initial_state.vx)}",
        f"vy0 = {fmt(cfg.initial_state.vy)}",
        "",
        "[sweep]",
        f"e_min = {fmt(s.e_min)}",
        f"e_max = {fmt(s.e_max)}",
        f"edot_min = {fmt(s.edot_min)}",
        f"edot_max = {fmt(s.edot_max)}",
        f"resolution = {s.resolution}",
        f"lambda_sign = {s.lambda_sign}",
        f"seed = {s.seed}",
    ]
    atomic_write_text(Path(path), "\n".join(lines) + "\n")
