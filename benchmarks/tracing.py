"""Per-layer spans recorded from outside the tiltsim package.

``Tracer.install`` replaces each listed public function with a wrapper in
every ``tiltsim`` module namespace that holds it, so calls that look the
name up at call time (module globals, ``from ... import ...`` bindings,
``analysis.brentq``) all go through the wrapper. Each span records its
name, start, end and parent span; spans stay in compact arrays until
``metrics`` aggregates them after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "tiltsim"
# (module, function) pairs wrapped with a span, named <layer>.<function>
TRACED = (
    ("cli", "main"),
    ("config", "resolve_config"),
    ("config", "write_manifest"),
    ("simulator", "run"),
    ("simulator", "verify_trajectory"),
    ("controller", "desired_accel"),
    ("controller", "raw_inversion"),
    ("controller", "clamp"),
    ("controller", "switch_matrix_of"),
    ("controller", "classify_region"),
    ("plant", "accelerate"),
    ("gait", "reference_at"),
    ("analysis", "critical_lyapunov"),
    ("analysis", "delta_l_grid"),
    ("analysis", "brentq"),
    ("analysis", "half_period_map"),
    ("analysis", "in_admissible_region"),
    ("analysis", "hitting_time_simulated"),
    ("analysis", "verify_quadrant_capture"),
    ("analysis", "feasible_cone"),
    ("analysis", "acceleration_angle"),
    ("checks", "run_lemma_checks"),
    ("output", "write_trajectory_csv"),
    ("output", "write_grid_csv"),
    ("output", "write_json"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bytes_written = 0
        self._stack = [-1]

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id,
            self.parent,
            self.start,
            self.end,
            self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def counted(path, text):
            self.bytes_written += len(text.encode("utf-8"))
            return fn(path, text)

        return counted

    def _patch(self, original, replacement) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for attr in [k for k, v in vars(module).items() if v is original]:
                setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every function in ``TRACED`` and count bytes handed to the writer."""
        for layer, fn_name in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{layer}"], fn_name)
            self._patch(original, self._span(f"{layer}.{fn_name}", original))
        writer = sys.modules[f"{PACKAGE}.output"].atomic_write_text
        self._patch(writer, self._count_bytes(writer))

    def metrics(self) -> dict[str, float]:
        """``<name>.calls``, ``.total_s`` (inclusive) and ``.self_s`` per span name.

        Self time is a span's duration minus the durations of its direct
        children; the run is single-threaded, so children never overlap.
        """
        n_names = len(self.names)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(name_id, minlength=n_names)
        total = np.bincount(name_id, weights=dur, minlength=n_names)
        own = np.bincount(name_id, weights=dur - child, minlength=n_names)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
        out["output.bytes"] = self.bytes_written
        return out
