"""Oracle-table digests at serving scale.

The golden fixtures under ``tests/`` stop at n ≤ 200, but the carving
kernel's top-two displacement chains mostly show up on large expanders.
This script builds the oracle of each graph the serving benchmark uses
(``build_oracle(seed=2)``, default parameters) and hashes every stored
scale's ``centers``, ``indptr``, ``member_cluster``, ``member_dist`` and
``member_parent`` columns, so any change to carving or compaction that
moves a single table entry shows up as a digest mismatch.

Usage::

    PYTHONPATH=src python benchmarks/oracle_digest.py           # check
    PYTHONPATH=src python benchmarks/oracle_digest.py --write   # re-record

Checking exits 1 on any mismatch and prints the differing columns.  The
recorded digests live in ``benchmarks/baselines/oracle-digests.json``;
re-record them only for a change that is *meant* to move the tables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
from array import array

from repro.graphs import parse_graph_spec
from repro.oracle import build_oracle

SPECS = ("gnp_fast:20000:0.0003", "torus:120:120")
SEED = 2
COLUMNS = ("centers", "indptr", "member_cluster", "member_dist", "member_parent")
BASELINE = pathlib.Path(__file__).parent / "baselines" / "oracle-digests.json"


def column_digest(values) -> str:
    """sha256 of a column as native int64 words (little-endian on x86/arm)."""
    return hashlib.sha256(array("q", values).tobytes()).hexdigest()


def digests(spec: str) -> list[dict[str, str]]:
    """Per-scale column digests of the oracle built on ``spec``."""
    graph = parse_graph_spec(spec, seed=SEED)
    oracle = build_oracle(graph, seed=SEED)
    return [
        {name: column_digest(getattr(scale, name)) for name in COLUMNS}
        for scale in oracle.scales
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="re-record the baseline digests"
    )
    args = parser.parse_args(argv)
    current = {spec: digests(spec) for spec in SPECS}
    if args.write:
        BASELINE.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {BASELINE}")
        return 0
    expected = json.loads(BASELINE.read_text())
    failed = False
    for spec in SPECS:
        got, want = current[spec], expected.get(spec, [])
        if len(got) != len(want):
            problems = [f"{len(got)} scales, expected {len(want)}"]
        else:
            problems = [
                f"scale {index} column {name} differs"
                for index, (row, ref) in enumerate(zip(got, want))
                for name in COLUMNS
                if row[name] != ref[name]
            ]
        for problem in problems or [f"{len(got)} scales match"]:
            print(f"{spec}: {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
