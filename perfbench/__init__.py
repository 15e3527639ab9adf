"""The repository benchmark: one command, named workloads, named metrics.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload of :mod:`perfbench.workloads` against the package under
``src/`` and prints, as its last stdout line, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) named in ``BENCHMARK.json``.  Every layer is driven from
outside through its public functions; nothing here patches ``src/``.
"""
