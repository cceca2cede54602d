#!/usr/bin/env python3
"""Capture the outputs the gate compares against, into ``reference/``.

Run from the repository root, at a commit whose outputs are accepted as
correct:

    python3 perfbench/capture_reference.py

It runs every command line that any workload and seed can produce once,
untraced, and stores its normalised outputs (see ``gate.normalise``).
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import gate
from run import ROOT, Bench, all_commands


def main() -> int:
    work = ROOT / ".perfbench-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        bench = Bench(ROOT, work, time.monotonic() + 3600.0)
        for args in all_commands():
            child, outputs = bench.outputs(bench.cli(args))
            doc = {"args": args, **outputs}
            gate.reference_path(args).write_text(
                json.dumps(doc, separators=(",", ":")) + "\n")
            print(f"exit {child.exit_code} in {child.wall_s:.2f} s: {' '.join(args)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
