"""Benchmark worker: one fresh interpreter that runs CLI operations in-process.

Usage: ``python3 worker.py <checkout root> <temp dir>``. The worker imports
``tiltsim.cli`` from ``<root>/src``, prints ``ready``, then reads a JSON
plan on stdin::

    {"rounds": [[op, ...], ...], "seconds": 30, "max_rounds": 0, "trace": false}

It runs the rounds one operation at a time (a closed loop with one
client) until the next round would end past ``seconds`` (at least one
round; at most ``max_rounds`` when that is positive), checks each
operation's outputs, and prints one JSON result line. An empty plan ends
the worker right after set-up.
"""

import json
import os
import sys


def main() -> int:
    root, work = sys.argv[1], sys.argv[2]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import tiltsim.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"tiltsim was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    text = sys.stdin.read()
    if not text.strip():
        return 0
    # imported only now, so that set-up time covers tiltsim.cli alone
    from pathlib import Path

    import harness

    plan = json.loads(text)
    pins = json.loads((Path(__file__).parent / "pins.json").read_text())
    result = harness.run_plan(cli, plan, Path(work), pins)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
