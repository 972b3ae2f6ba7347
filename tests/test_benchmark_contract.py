"""What the benchmark under ``benchmarks/`` needs from the package.

``benchmarks/tracing.py`` wraps each ``(module, function)`` pair of ``TRACED``
by name, so ``run.py --trace 1`` fails when one of them is renamed or
removed. ``benchmarks/harness.py`` records ``sys.modules["scipy"].__version__``
after importing ``tiltsim.cli``, so every run fails when the package stops
importing scipy. Both sides have to change together.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tiltsim

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", BENCHMARKS / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("layer, name", tracing.TRACED)
def test_traced_function_resolves(layer, name):
    module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
    assert callable(getattr(module, name))


def test_cli_import_loads_scipy():
    src = str(Path(tiltsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, tiltsim.cli; print(sys.modules['scipy'].__version__)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
