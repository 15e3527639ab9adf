"""Smoke tests of the benchmark itself, on tiny graphs.

They check that a run emits exactly the metrics ``BENCHMARK.json`` names,
with their units, that a corrupted served answer or a sync result unequal
to batch fails the run, that the daemon runs without ``REPRO_*`` knobs, and
that the command refuses to run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import bench
from perfbench import decompose as dec
from perfbench.measure import (
    PROBE_REF_S,
    Tracer,
    at_reference_speed,
    calibration_loop,
    quantile,
)
from perfbench.serving import clean_env
from perfbench.workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = Workload(
    name="tiny",
    serve_spec="grid:6:6",
    op="route",
    pairs="zipf",
    open_rate=200.0,
    decompose_spec="grid:5:5",
    batch_reps=2,
    sync_reps=1,
    query_batch=4,
)


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize(
    "workload, trace",
    [
        (TINY, False),
        (replace(TINY, op="distance", pairs="uniform"), False),
        (TINY, True),
    ],
    ids=["route", "distance", "traced"],
)
def test_run_emits_every_named_metric_with_its_unit(workload, trace, tmp_path):
    report = bench.run_workload(workload, seed=3, seconds=0.5, trace=trace,
                                workdir=tmp_path)
    result = report.result()
    assert result["correct"], report.problems
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    json.loads(json.dumps(result))  # the final line is plain JSON


def test_corrupted_served_answer_fails_the_run(monkeypatch, tmp_path):
    real_closed_loop = bench.closed_loop
    corrupted = []

    def corrupting_closed_loop(*args, **kwargs):
        phase = real_closed_loop(*args, **kwargs)
        if phase.name == "closed" and not corrupted:
            pairs, answer = phase.answered[0]
            phase.answered[0] = (pairs, [None] + answer[1:])
            corrupted.append(pairs)
        return phase

    monkeypatch.setattr(bench, "closed_loop", corrupting_closed_loop)
    report = bench.run_workload(TINY, seed=3, seconds=0.5, trace=False,
                                workdir=tmp_path)
    assert not report.correct
    assert report.result()["failed"] == 1
    assert any("closed route" in problem for problem in report.problems)


def test_decomposition_checked_against_another_graph_fails():
    grid = dec.input_graph("grid:5:5", 1)
    result = dec.decompose(grid, "batch")
    assert dec.problems(grid, result) == []
    assert dec.problems(dec.input_graph("path:25", 1), result) != []


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-torus-route",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert '"correct"' not in run.stdout


def test_quantiles_are_exact_order_statistics():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert quantile(samples, 0.5) == 3.0
    assert quantile(samples, 0.99) == 5.0
    assert quantile(list(range(1, 101)), 0.99) == 99


def test_reference_speed_rescales_by_the_median_probe():
    assert at_reference_speed(3.0, [PROBE_REF_S]) == pytest.approx(3.0)
    # A host running the probe at half speed made the work take twice as long.
    slow = [PROBE_REF_S, 2 * PROBE_REF_S, 2 * PROBE_REF_S]
    assert at_reference_speed(3.0, slow) == pytest.approx(1.5)
    for iterations in (7, 10, 200_000):  # the loop checks its own sum
        assert calibration_loop(iterations) >= 0


def test_gated_times_are_their_raw_figures_at_reference_speed():
    report = bench.Report(TINY, seed=3, trace=False)
    for raw, _ in bench._AT_REFERENCE_SPEED.values():
        report.put(raw, 4.0, "s", 10, advisory=True)
    bench.reference_speed_metrics(report, [2 * PROBE_REF_S])
    gated = report.result()["metrics"]
    assert gated["throughput_ref_qps"]["value"] == pytest.approx(8.0)
    assert gated["p50_ref_ms"]["value"] == pytest.approx(2.0)
    assert gated["decompose_ref_s"]["value"] == pytest.approx(2.0)


def test_tracer_derives_self_time_from_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    own = tracer.self_seconds()
    outer, = tracer.seconds("outer")
    inner, = tracer.seconds("inner")
    assert tracer.spans[1]["parent"] == 0
    assert own["outer"] == pytest.approx(outer - inner)


def test_sync_result_differing_from_batch_fails_the_run(monkeypatch):
    real_decompose = dec.decompose

    def reseeded_sync(graph, backend):
        if backend == "batch":
            return real_decompose(graph, backend)
        return dec.decompose_distributed(
            graph, k=dec.default_k(graph.num_vertices), seed=dec.SHIFT_SEED + 1,
            backend=backend)

    monkeypatch.setattr(dec, "decompose", reseeded_sync)
    report = bench.Report(TINY, seed=3, trace=False)
    bench.interleave(bench.decompose_stage(TINY, 3, False, report, Tracer()))
    assert report.failed == 1
    assert any("differs from batch" in problem for problem in report.problems)


def test_daemon_environment_drops_every_repro_knob(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "py")
    monkeypatch.setenv("REPRO_TELEMETRY", "on")
    env = clean_env(ROOT / "src")
    assert not [name for name in env if name.startswith("REPRO_")]
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")
