"""Command-line front end for reproducible simulation and analysis runs.

Subcommands: simulate, sweep-delta-l, hitting-time, critical-lyapunov,
verify-lemmas. Exit codes: 0 all checks passed, 1 checks failed, 2
configuration error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import ErrorState, critical_lyapunov, delta_l_grid
from .checks import run_lemma_checks
from .config import KEYS, ConfigError, ENV_PREFIX, resolve_config, write_manifest
from .output import fmt, streamed_trajectory_csv, write_grid_csv, write_json
from .simulator import DivergenceError, run, verify_trajectory

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

UNBRACKETED_NOTE = (
    "note: L_critical is the last search bound, not a critical level "
    "(the search could not bracket the level from above)"
)
# argparse alone would take "-1e-1", "-inf" and "-nan" for flags, not numbers
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.I)
DEGENERATE_NOTE = (
    "note: L_critical is 0, not a critical level "
    "(no grid cell has a nonnegative half-period Lyapunov change)"
)


def _print_level_note(crit) -> None:
    """Say why an unbracketed level is not a critical level; nothing for a bracketed one."""
    if not crit.bracketed:
        print(DEGENERATE_NOTE if crit.n_positive_cells == 0 else UNBRACKETED_NOTE)


def _print_checks(report: dict) -> None:
    """One ``[PASS]``, ``[FAIL]`` or ``[SKIP]`` (not applicable) line per check of a report."""
    for c in report["checks"]:
        status = "SKIP" if not c["applicable"] else "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse gets a fresh namespace.

    A command takes ``--config``, ``--out-dir`` if it writes files, and the
    flags that ``KEYS`` declares for it.
    """
    parser = argparse.ArgumentParser(
        prog="tiltsim",
        description="Tilt-vehicle gait simulation and saturation-stability verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help in (
        ("simulate", cmd_simulate, "run the closed loop and verify the log"),
        ("sweep-delta-l", cmd_sweep_delta_l, "grid sweep of the half-period Lyapunov change"),
        ("hitting-time", cmd_hitting_time, "threshold hitting time for one error state"),
        ("critical-lyapunov", cmd_critical_lyapunov, "critical Lyapunov level and supremum bound"),
        ("verify-lemmas", cmd_verify_lemmas, "run the full invariant suite"),
    ):
        command = sub.add_parser(name, help=help)
        command._negative_number_matcher = NEGATIVE_NUMBER
        command.set_defaults(func=func)
        command.add_argument("--config", type=Path, help="INI config file")
        if func is not cmd_hitting_time:  # the one command that writes no file
            command.add_argument("--out-dir", type=Path, help="output directory (default ./out)")
        for key in KEYS:
            if key.flag and name in key.commands:
                command.add_argument("--" + key.flag, type=key.type, help=key.help)
    hit = sub.choices["hitting-time"]
    hit.add_argument("e", type=float, help="lateral position error")
    hit.add_argument("edot", type=float, help="lateral velocity error")
    hit.add_argument("--branch", choices=("pos", "neg"), default="pos")
    return parser


def _resolve(args):
    config_path = args.config
    if config_path is None:
        env_path = os.environ.get(ENV_PREFIX + "CONFIG")
        if env_path:
            config_path = Path(env_path)
    overrides = {(k.section, k.key): getattr(args, k.dest, None) for k in KEYS if k.flag}
    return resolve_config(config_path, overrides, dict(os.environ), args.command)


def _out_dir(args) -> Path:
    return args.out_dir or Path(os.environ.get(ENV_PREFIX + "OUT_DIR", "out"))


def cmd_simulate(args) -> int:
    cfg, out_dir = _resolve(args), _out_dir(args)
    sim_cfg = cfg.sim_config()
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(cfg, out_dir / "manifest.ini")
    # the CSV is formatted while the run integrates; a diverged run's partial log is written too
    with streamed_trajectory_csv(out_dir / "trajectory.csv", sim_cfg) as (table, logged):
        try:
            traj = run(sim_cfg, table, logged)
        except DivergenceError as exc:
            print(f"divergence: {exc}", file=sys.stderr)
            # enough to reproduce: simulator.step(state, t, config) fails again
            report = {"passed": False, "diverged": True, "cause": exc.cause, "t": exc.t}
            report.update(step=exc.step, yaw=exc.yaw, state=dataclasses.asdict(exc.state))
        else:
            report = verify_trajectory(traj, sim_cfg, grid_resolution=cfg.sweep.resolution)
            report = report.to_dict()
    write_json(out_dir / "report.json", report)
    if report.get("diverged"):
        return EXIT_DIVERGED
    _print_checks(report)
    summary = report["summary"]
    print(
        f"samples={summary['n_samples']} clamped={summary['n_clamped_samples']} "
        f"max|ex|={summary['max_abs_ex']:.3e} max|ey|={summary['max_abs_ey']:.3e}"
    )
    return EXIT_OK if report["passed"] else EXIT_CHECKS_FAILED


def cmd_sweep_delta_l(args) -> int:
    cfg, out_dir = _resolve(args), _out_dir(args)
    sweep = cfg.sweep
    grid = delta_l_grid(
        sweep.e_range(),
        sweep.edot_range(),
        sweep.resolution,
        sweep.lambda_sign,
        cfg.params,
        cfg.gait.half_period,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_grid_csv(grid, out_dir / "delta_l_grid.csv")
    summary = grid.summary()
    if grid.n_admissible == 0:
        summary["note"] = "no admissible cells in the requested ranges"
        summary["l_critical"] = None
        summary["sup_bound"] = None
        summary["bracketed"] = None
    else:
        # the search takes this grid and computes only the other sign's
        crit = analysis._critical_from(grid, cfg.params, cfg.gait.half_period)
        summary["l_critical"] = crit.l_critical
        summary["sup_bound"] = crit.sup_bound
        summary["bracketed"] = crit.bracketed
    write_json(out_dir / "delta_l_summary.json", summary)
    peak = summary["max_delta_l"]
    print(f"admissible cells: {summary['n_admissible']}")
    print(f"nonnegative-change cells: {summary['n_positive']}")
    if summary["l_critical"] is not None:
        print(f"nonnegative-change cells, both yaw signs: {crit.n_positive_cells}")
    print(f"max delta L: {'n/a' if peak is None else fmt(peak)}")
    if summary["l_critical"] is not None:
        print(f"L_critical: {fmt(summary['l_critical'])}")
        print(f"supremum bound: {fmt(summary['sup_bound'])}")
        _print_level_note(crit)
    return EXIT_OK


def cmd_hitting_time(args) -> int:
    cfg = _resolve(args)
    try:
        state = ErrorState(args.e, args.edot)
    except ValueError as exc:
        print(f"invalid state: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sign = 1 if args.branch == "pos" else -1
    admissible = analysis.in_admissible_region(state, sign, cfg.params)
    pd_output = analysis._pd_output(state.e, state.edot, cfg.params)
    if admissible and not math.isfinite(pd_output):
        # neither hitting time means anything once ky1*edot + ky2*e overflows
        print(f"divergence: PD output ky1*edot + ky2*e is {fmt(pd_output)}", file=sys.stderr)
        return EXIT_DIVERGED
    try:
        # a state far out overflows the closed form, which the check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            t_closed = analysis.hitting_time(state, sign, cfg.params)
        t_event = analysis.hitting_time_simulated(state, sign, cfg.params)
    except ValueError as exc:
        # both hitting times raise ValueError for an inadmissible state and for
        # a flow that never reaches the threshold
        label = "no threshold crossing" if admissible else "inadmissible state"
        print(f"{label}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    residual = abs(t_closed - t_event)
    if not math.isfinite(residual):
        print(
            f"divergence: closed-form hitting time {fmt(t_closed)}, "
            f"event-detected {fmt(t_event)}",
            file=sys.stderr,
        )
        return EXIT_DIVERGED
    print(f"hitting time: {fmt(t_closed)}")
    print(f"event-detected: {fmt(t_event)}")
    print(f"residual: {fmt(residual)}")
    return EXIT_OK


def cmd_critical_lyapunov(args) -> int:
    cfg, out_dir = _resolve(args), _out_dir(args)
    sweep = cfg.sweep
    crit = critical_lyapunov(
        sweep.e_range(),
        sweep.edot_range(),
        sweep.resolution,
        cfg.params,
        half_period=cfg.gait.half_period,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "critical_lyapunov.json", crit.to_dict())
    print(f"L_critical: {fmt(crit.l_critical)}")
    print(f"grid max: {fmt(crit.grid_max)}")
    print(f"nonnegative-change cells: {crit.n_positive_cells}")
    print(f"supremum bound: {fmt(crit.sup_bound)}")
    _print_level_note(crit)
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    cfg, out_dir = _resolve(args), _out_dir(args)
    report = run_lemma_checks(cfg.params, cfg.sweep.resolution, cfg.sweep.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "lemma_report.json", report)
    _print_checks(report)
    return EXIT_OK if report["passed"] else EXIT_CHECKS_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"configuration error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
