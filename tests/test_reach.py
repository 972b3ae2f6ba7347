"""Every function in ``src/tiltsim`` is reached by a command, or kept for a stated reason.

The argv lists below run through ``cli.main`` in-process under
``sys.setprofile``, which records the code object of every Python call.
The test then parses each module of the package with ``ast`` and asserts
that the ``def`` bodies no command called are exactly the keys of
``KEPT``. Code that no command reaches either leaves ``src/`` (a reference
copy that tests compare against goes to ``tests/oracles.py``) or gets its
reason in ``KEPT``. Every name in a module's ``__all__`` must resolve, so a
deleted function or type cannot linger there.
"""

from __future__ import annotations

import ast
import importlib
import os
import sys
import warnings
from pathlib import Path

import tiltsim
from tiltsim import cli

SRC = Path(tiltsim.__file__).parent

_SPAN = "wrapped by name by a benchmark per-layer span (benchmarks/tracing.py TRACED)"
_PAPER = "analysis API named by the paper's argument"

# qualified name (module.[class.]function) -> why no command needs to reach it
KEPT = {
    "plant.accelerate": _SPAN,
    "analysis.acceleration_angle": _SPAN,
    "analysis.brentq": _SPAN,
    "analysis.verify_quadrant_capture": _SPAN + "; " + _PAPER,
    "simulator.step": _PAPER + ": one closed-loop step, which reproduces a divergence report",
    "output.write_trajectory_csv": _SPAN
    + "; writes a trajectory already in memory (simulate streams its CSV instead)",
}

GENERIC_GAINS = "[model]\nky1 = 6.0\nky2 = 12.0\n"
DIVERGING = "[model]\nky2 = 1e307\n\n[sim]\ny0 = 0.5\n"


def _argvs(tmp_path: Path) -> list[list[str]]:
    generic = tmp_path / "generic.ini"
    generic.write_text(GENERIC_GAINS)
    diverging = tmp_path / "diverging.ini"
    diverging.write_text(DIVERGING)
    argvs = []
    for name, config in (("default", []), ("generic", ["--config", str(generic)])):
        out = ["--out-dir", str(tmp_path / name)]
        argvs += [
            ["simulate", "--preset", "small", "--duration", "4", "--grid-res", "30", *config, *out],
            ["simulate", "--preset", "large", "--duration", "4", "--grid-res", "30", *config, *out],
            ["sweep-delta-l", "--grid-res", "40", *config, *out],
            ["sweep-delta-l", "--grid-res", "40", "--lambda-sign", "-1", *config, *out],
            ["critical-lyapunov", "--grid-res", "30", *config, *out],
            ["verify-lemmas", "--grid-res", "30", *config, *out],
            ["hitting-time", "0.5", "0.2", *config],
            ["hitting-time", "-0.5", "-0.2", "--branch", "neg", *config],
        ]
    argvs += [
        ["simulate", "--config", str(diverging), "--out-dir", str(tmp_path / "diverging")],
        ["hitting-time", "0.001", "0.001"],  # inadmissible
    ]
    return argvs


def _called(argvs) -> set[tuple[str, int]]:
    """(file, first line) of every Python function called while ``cli.main`` runs ``argvs``."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    cli.build_parser.cache_clear()  # a cached parser would skip its builder
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sys.setprofile(profile)
        try:
            for argv in argvs:
                cli.main(argv)
        finally:
            sys.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def _defined() -> dict[str, tuple[str, int]]:
    """Qualified name -> (file, first line) of every ``def`` in the package's modules."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[name] = (path, first)
                visit(child, name, path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, str(path.resolve()))
    return found


def test_unreached_functions_are_exactly_the_kept_ones(tmp_path, monkeypatch, capsys):
    for var in [v for v in os.environ if v.startswith("TILTSIM_")]:
        monkeypatch.delenv(var)
    # two allowed CPUs on any host, so that the CSV writer forks its
    # formatting child; no CPU has these numbers, so the child fails to pin
    # itself, and this process then formats every chunk of the table, which
    # reaches the same code whichever process gets to a chunk first
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {-2, -1}, raising=False)
    called = _called(_argvs(tmp_path))
    capsys.readouterr()
    unreached = {name for name, where in _defined().items() if where not in called}
    assert unreached == set(KEPT), (
        f"reached but kept: {sorted(set(KEPT) - unreached)}; "
        f"unreached and not kept: {sorted(unreached - set(KEPT))}"
    )


def test_every_exported_name_resolves():
    modules = [tiltsim] + [importlib.import_module(f"tiltsim.{p.stem}") for p in SRC.glob("*.py")]
    missing = [
        f"{m.__name__}.{name}" for m in modules for name in m.__all__ if not hasattr(m, name)
    ]
    assert missing == []
