"""Command-line front end for reproducible simulation and analysis runs.

Subcommands: simulate, sweep-delta-l, hitting-time, critical-lyapunov,
verify-lemmas. Exit codes: 0 all checks passed, 1 checks failed, 2
configuration error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import analysis
from .analysis import ErrorState, critical_lyapunov, delta_l_grid
from .checks import run_lemma_checks
from .config import ConfigError, ENV_PREFIX, resolve_config, write_manifest
from .output import fmt, write_grid_csv, write_json, write_trajectory_csv
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="INI config file")
    parser.add_argument("--out-dir", type=Path, help="output directory (default ./out)")
    parser.add_argument("--preset", help="gait preset name: small or large")
    parser.add_argument("--dt", type=float, help="integrator step (s)")
    parser.add_argument("--duration", type=float, help="simulated horizon (s)")
    parser.add_argument("--amplitude", type=float, help="gait yaw amplitude (rad)")
    parser.add_argument("--period", type=float, help="gait period (s)")
    parser.add_argument("--grid-res", type=int, help="grid resolution per axis")
    parser.add_argument("--seed", type=int, help="seed for randomized property sampling")


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--e-min", type=float, help="grid lower bound along e")
    parser.add_argument("--e-max", type=float, help="grid upper bound along e")
    parser.add_argument("--edot-min", type=float, help="grid lower bound along edot")
    parser.add_argument("--edot-max", type=float, help="grid upper bound along edot")
    parser.add_argument("--lambda-sign", type=int, choices=(-1, 1), help="yaw sign for the sweep")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltsim",
        description="Tilt-vehicle gait simulation and saturation-stability verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the closed loop and verify the log")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep-delta-l", help="grid sweep of the half-period Lyapunov change")
    _add_common(p_sweep)
    _sweep_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep_delta_l)

    p_hit = sub.add_parser("hitting-time", help="threshold hitting time for one error state")
    _add_common(p_hit)
    p_hit.add_argument("e", type=float, help="lateral position error")
    p_hit.add_argument("edot", type=float, help="lateral velocity error")
    p_hit.add_argument("--branch", choices=("pos", "neg"), default="pos")
    p_hit.set_defaults(func=cmd_hitting_time)

    p_crit = sub.add_parser("critical-lyapunov", help="critical Lyapunov level and supremum bound")
    _add_common(p_crit)
    _sweep_flags(p_crit)
    p_crit.set_defaults(func=cmd_critical_lyapunov)

    p_ver = sub.add_parser("verify-lemmas", help="run the full invariant suite")
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify_lemmas)

    return parser


def _overrides_from(args) -> dict:
    pairs = {
        ("gait", "preset"): getattr(args, "preset", None),
        ("gait", "amplitude"): getattr(args, "amplitude", None),
        ("gait", "period"): getattr(args, "period", None),
        ("sim", "dt"): getattr(args, "dt", None),
        ("sim", "duration"): getattr(args, "duration", None),
        ("sweep", "resolution"): getattr(args, "grid_res", None),
        ("sweep", "seed"): getattr(args, "seed", None),
        ("sweep", "e_min"): getattr(args, "e_min", None),
        ("sweep", "e_max"): getattr(args, "e_max", None),
        ("sweep", "edot_min"): getattr(args, "edot_min", None),
        ("sweep", "edot_max"): getattr(args, "edot_max", None),
        ("sweep", "lambda_sign"): getattr(args, "lambda_sign", None),
    }
    return {k: v for k, v in pairs.items() if v is not None}


def _resolve(args):
    config_path = args.config
    if config_path is None:
        env_path = os.environ.get(ENV_PREFIX + "CONFIG")
        if env_path:
            config_path = Path(env_path)
    cfg = resolve_config(config_path, _overrides_from(args), dict(os.environ))
    out_dir = args.out_dir or Path(os.environ.get(ENV_PREFIX + "OUT_DIR", "out"))
    return cfg, out_dir


def cmd_simulate(args) -> int:
    cfg, out_dir = _resolve(args)
    sim_cfg = cfg.sim_config()
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(cfg, out_dir / "manifest.ini")
    try:
        traj = run(sim_cfg)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        if exc.trajectory is not None:
            write_trajectory_csv(exc.trajectory, out_dir / "trajectory.csv")
        # enough to reproduce: simulator.step(state, t, config) fails again
        report = {"passed": False, "diverged": True, "t": exc.t, "step": exc.step, "yaw": exc.yaw}
        report["state"] = dataclasses.asdict(exc.state)
        write_json(out_dir / "report.json", report)
        return EXIT_DIVERGED
    report = verify_trajectory(traj, sim_cfg, grid_resolution=cfg.sweep.resolution)
    write_trajectory_csv(traj, out_dir / "trajectory.csv")
    write_json(out_dir / "report.json", report.to_dict())
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        if not check.applicable:
            status = "SKIP"
        print(f"[{status}] {check.name}")
    print(
        f"samples={report.summary['n_samples']} clamped={report.summary['n_clamped_samples']} "
        f"max|ex|={report.summary['max_abs_ex']:.3e} max|ey|={report.summary['max_abs_ey']:.3e}"
    )
    return EXIT_OK if report.passed else EXIT_CHECKS_FAILED


def cmd_sweep_delta_l(args) -> int:
    cfg, out_dir = _resolve(args)
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
        crit = analysis._critical_from(
            grid, sweep.e_range(), sweep.edot_range(), cfg.params, cfg.gait.half_period
        )
        summary["l_critical"] = crit.l_critical
        summary["sup_bound"] = crit.sup_bound
        summary["bracketed"] = crit.bracketed
    write_json(out_dir / "delta_l_summary.json", summary)
    peak = summary["max_delta_l"]
    print(f"admissible cells: {summary['n_admissible']}")
    print(f"nonnegative-change cells: {summary['n_positive']}")
    print(f"max delta L: {'n/a' if peak is None else fmt(peak)}")
    if summary.get("l_critical") is not None:
        print(f"L_critical: {fmt(summary['l_critical'])}")
        print(f"supremum bound: {fmt(summary['sup_bound'])}")
        if not summary["bracketed"]:
            print(UNBRACKETED_NOTE)
    return EXIT_OK


def cmd_hitting_time(args) -> int:
    cfg, _ = _resolve(args)
    state = ErrorState(args.e, args.edot)
    sign = 1 if args.branch == "pos" else -1
    admissible = analysis.in_admissible_region(state, sign, cfg.params)
    try:
        t_closed = analysis.hitting_time(state, sign, cfg.params)
        t_event = analysis.hitting_time_simulated(state, sign, cfg.params)
    except ValueError as exc:
        # both hitting times raise ValueError for an inadmissible state and for
        # a flow that never reaches the threshold
        label = "no threshold crossing" if admissible else "inadmissible state"
        print(f"{label}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    residual = abs(t_closed - t_event)
    print(f"hitting time: {fmt(t_closed)}")
    print(f"event-detected: {fmt(t_event)}")
    print(f"residual: {fmt(residual)}")
    return EXIT_OK


def cmd_critical_lyapunov(args) -> int:
    cfg, out_dir = _resolve(args)
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
    if not crit.bracketed:
        print(UNBRACKETED_NOTE)
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    cfg, out_dir = _resolve(args)
    report = run_lemma_checks(cfg.params, cfg.sweep.resolution, cfg.sweep.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "lemma_report.json", report)
    for check in report["checks"]:
        print(f"[{'PASS' if check['passed'] else 'FAIL'}] {check['name']}")
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
