#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-gnp-distance --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the traced
pass and prints the per-layer metrics; both are listed in ``BENCHMARK.json``
and described in :mod:`perfbench.workloads`.  ``--workload all`` runs every
workload in turn, each ending with its own JSON line.  Human-readable lines (metric
table with sample counts, failure fraction, environment stamp) come first;
the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every served answer and
every decomposition is checked; any wrong one makes the run exit 1.
Scratch files (the daemon's trace, the benchmark's span file) go to
``.perfbench-work/<workload>/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_checkout() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no package under {SRC}/repro; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # REPRO_* knobs (BFS kernel, tracing, profiling, workers) are read at
    # import time by the in-process layers, so drop them before importing.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    _import_checkout()
    from perfbench.bench import run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {sorted(WORKLOADS)} or 'all')")
    correct = True
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        workdir = ROOT / ".perfbench-work" / name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        report = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), workdir
        )
        for line in report.lines():
            print(line)
        print(json.dumps(report.result()), flush=True)
        correct = correct and report.correct
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
