"""One benchmark run: set-up, serve stage, decomposition stage, layer probes.

:func:`run_workload` runs every stage of one workload and returns a
:class:`Report`.  Untraced runs (``trace=False``) report the end-to-end
metrics; the traced run reports the per-layer metrics instead, timing each
call into ``repro.graphs``, ``repro.core``, ``repro.engine`` /
``repro.distributed``, ``repro.oracle`` and ``repro.serving`` inside the
benchmark's own spans (:class:`perfbench.measure.Tracer`), and hands
collectors only to the entry points that already accept one
(``build_oracle(telemetry=)`` and the daemon's ``--trace``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core import elkin_neiman
from repro.experiments import environment_block
from repro.graphs import bfs_levels
from repro.oracle import build_oracle, load
from repro.rng import derive_seed
from repro.telemetry import Telemetry
from repro.telemetry.sink import read_trace

from . import decompose as dec
from .measure import (
    PROBE_REF_S,
    Tracer,
    at_reference_speed,
    calibration_loop,
    median,
    own_heap,
    quantile,
    speed_probe,
)
from .serving import (
    Daemon,
    LoadPhase,
    closed_loop,
    open_loop,
    ping_seconds,
    request_stream,
    uniform_pairs,
    wrong_answers,
)
from .workloads import (
    CLOSED_SHARE,
    CONNECTIONS,
    PAIRS_PER_REQUEST,
    SERVE_ROUNDS,
    SERVE_SEED,
    SETUP_REPEATS,
    SLAB_PAIRS,
    WARMUP_SECONDS,
    Workload,
)

ROOT = Path(__file__).resolve().parent.parent
#: Upper bound on closed-loop request rate, used to size the pre-drawn stream.
_MAX_RATE = 5000
_CALIBRATION_REPEATS = 3
_PING_COUNT = 500
_BFS_SOURCES = 5
_QUERY_PROBE_BATCHES = 100
#: Gated end-to-end metrics and the raw (printed, not gated) time each one
#: rescales to the reference host speed; ``-1`` marks a rate, not a time.
_AT_REFERENCE_SPEED = {
    "throughput_ref_qps": ("throughput_qps", -1),
    "p50_ref_ms": ("p50_ms", 1),
    "open_p50_ref_ms": ("open_p50_ms", 1),
    "decompose_ref_s": ("decompose_s", 1),
}


class Report:
    """Metrics (value, unit, sample count), op counts and failure notes."""

    def __init__(self, workload: Workload, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def put(self, name: str, value, unit: str, samples: int = 1,
            advisory: bool = False) -> None:
        """Record a metric; ``advisory`` ones are printed but not in the result."""
        self.metrics[name] = {"value": value, "unit": unit, "samples": samples,
                              "advisory": advisory}

    def ops(self, what: str, attempted: int, failed: int) -> None:
        """Count ``attempted`` checked ops, ``failed`` of them wrong or errored."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def lines(self) -> list[str]:
        """The human-readable part of the output."""
        mode = "per-layer (traced)" if self.trace else "end-to-end"
        out = [f"# {self.workload.name} seed={self.seed}: {mode} metrics"]
        width = max(len(name) for name in self.metrics)
        for name, m in self.metrics.items():
            out.append(
                f"{name:<{width}}  {m['value']:>14.6g} {m['unit']:<8} "
                f"(n={m['samples']}){'  advisory, not gated' if m['advisory'] else ''}"
            )
        out.append(
            f"{'failed_frac':<{width}}  {self.failed / max(self.attempted, 1):>14.6g} "
            f"{'ratio':<8} (n={self.attempted} attempted ops, {self.failed} failed)"
        )
        out += [f"  {note}" for note in self.notes]
        out += [f"FAILED: {problem}" for problem in self.problems]
        return out

    def result(self) -> dict:
        """The final JSON line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in self.metrics.items() if not m["advisory"]
            },
        }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> Report:
    """Run every stage of ``workload`` once (see the module docstring).

    The stages are generators that yield between steps; :func:`interleave`
    advances them round-robin, so the samples of every metric are spread
    over the whole run instead of one stretch of it.  This machine's speed
    wanders by ±20 % over a few seconds, and spreading the samples is what
    keeps one slow stretch from moving a metric.

    Over minutes it wanders by up to a factor of two, which moves every
    sample of a run alike.  A :func:`speed_probe` after every step samples
    the host speed over the same stretch; the gated time metrics are the
    raw ones rescaled by it (see :func:`reference_speed_metrics`).
    """
    report = Report(workload, seed, trace)
    tracer = Tracer()
    calib = [calibration_loop() for _ in range(_CALIBRATION_REPEATS)]
    stamp = {
        "environment": environment_block(),
        "nproc": os.cpu_count(),
        "env.calib_s": median(calib),
    }
    report.notes.append("environment " + json.dumps(stamp, sort_keys=True))
    probes = [speed_probe()]
    interleave(
        serve_stage(workload, seed, seconds, trace, workdir, report, tracer),
        decompose_stage(workload, seed, trace, report, tracer),
        between=lambda: probes.append(speed_probe()),
    )
    if not trace:
        reference_speed_metrics(report, probes)
    if trace:
        report.put("env.calib_s", median(calib), "s", len(calib))
        tracer.write(workdir / "spans.json")
    return report


def interleave(*stages, between=lambda: None) -> None:
    """Advance each stage generator one step in turn until all are done.

    ``between`` is called after every step.
    """
    active = list(stages)
    try:
        while active:
            for stage in list(active):
                try:
                    next(stage)
                except StopIteration:
                    active.remove(stage)
                between()
    finally:
        for stage in stages:
            stage.close()


# ----------------------------------------------------------------------
# Serve stage
# ----------------------------------------------------------------------
def serve_stage(w: Workload, seed: int, seconds: float, trace: bool,
                workdir: Path, report: Report, tracer: Tracer):
    """Spawn the daemon, load it closed- and open-loop, check every answer.

    Untraced runs spawn :data:`SETUP_REPEATS` daemons spread evenly over
    the run (``setup_s`` is their median) and serve from the first.  Every
    daemon serves the graph of :data:`SERVE_SEED`; ``seed`` draws the
    requests.  Load runs in :data:`SERVE_ROUNDS` rounds of one closed-loop
    and one open-loop segment each.

    The traced run serves from a ``--trace`` daemon and also spawns an
    untraced one.  Each closed-loop segment's requests go to both, the
    untraced one first in every other round, and ``telemetry.overhead`` is
    the ratio of their median per-request latencies.
    """
    trace_path = workdir / "daemon-trace.jsonl" if trace else None
    spawn_every = SERVE_ROUNDS // SETUP_REPEATS
    closed_s = seconds * CLOSED_SHARE / SERVE_ROUNDS
    open_s = seconds * (1 - CLOSED_SHARE) / SERVE_ROUNDS
    daemon = Daemon(ROOT, workdir, w.serve_spec, SERVE_SEED, trace_path)
    plain = Daemon(ROOT, workdir, w.serve_spec, SERVE_SEED) if trace else None
    daemons = [d for d in (daemon, plain) if d is not None]
    closed, opened = LoadPhase("closed"), LoadPhase("open")
    closed_rates = []  # answered pairs/s of each closed-loop segment
    untraced = LoadPhase("untraced")
    counters = {"batches": 0, "batched_pairs": 0}
    spawn_seconds = []
    clients = {}
    try:
        with tracer.span("serve.spawn"):
            for d in daemons:
                d.spawn()
            for d in daemons:
                d.wait_ready()
        spawn_seconds.append(daemon.ready_seconds)
        clients = {d: [d.client() for _ in range(CONNECTIONS)] for d in daemons}
        yield
        reference = reference_oracle(w, seed, trace, report, tracer)
        n = reference.graph.num_vertices
        yield
        slab = uniform_pairs(n, SLAB_PAIRS, seed, "slab")
        slab_log: dict[str, list] = {"distance": [], "route": []}
        with daemon.client() as client:
            for start in range(0, len(slab), PAIRS_PER_REQUEST):
                pairs = slab[start:start + PAIRS_PER_REQUEST]
                slab_log["distance"].append((pairs, client.distances(pairs)))
                slab_log["route"].append((pairs, client.routes(pairs)))
        for op, log in slab_log.items():
            report.ops(f"slab {op}", len(log), wrong_answers(reference, op, log))

        def stream(label: str, requests: int) -> list:
            return request_stream(w, n, seed, label, max(1, requests))

        def checked(segment: LoadPhase) -> LoadPhase:
            # Check each segment as it ends and drop its answers, so the
            # answer log does not grow the heap the later steps run on.
            wrong = wrong_answers(reference, w.op, segment.answered)
            report.ops(f"{segment.name} {w.op}", segment.requests, segment.errors + wrong)
            segment.answered.clear()
            return segment

        warmup = stream("warmup", int(WARMUP_SECONDS * _MAX_RATE))
        for d in daemons:
            checked(closed_loop(clients[d], w.op, warmup, WARMUP_SECONDS, "warmup"))
        first = _stats(daemon) if trace else None
        for r in range(SERVE_ROUNDS):
            requests = stream(f"closed{r}", int(closed_s * _MAX_RATE))

            def untraced_segment() -> None:
                with tracer.span("serve.closed_loop", op=w.op, untraced=True):
                    untraced.merge(checked(closed_loop(
                        clients[plain], w.op, requests, closed_s, "untraced")))

            if plain is not None and r % 2:
                untraced_segment()
            before = _stats(daemon) if trace else None
            with tracer.span("serve.closed_loop", op=w.op):
                segment = closed_loop(clients[daemon], w.op, requests, closed_s)
            closed_rates.append(segment.pairs / segment.elapsed)
            closed.merge(checked(segment))
            if trace:
                after = _stats(daemon)
                for key in counters:
                    counters[key] += after[key] - before[key]
            if plain is not None and not r % 2:
                untraced_segment()
            with tracer.span("serve.open_loop", op=w.op):
                segment = open_loop(
                    clients[daemon], w.op, stream(f"open{r}", int(w.open_rate * open_s)),
                    w.open_rate, open_s)
            opened.merge(checked(segment))
            yield
            if not trace and (r + 1) % spawn_every == 0 \
                    and len(spawn_seconds) < SETUP_REPEATS:
                with tracer.span("serve.spawn"), \
                        Daemon(ROOT, workdir, w.serve_spec, SERVE_SEED) as probe:
                    spawn_seconds.append(probe.ready_seconds)
                yield
        if trace:
            last = _stats(daemon)
            with tracer.span("serve.ping", count=_PING_COUNT):
                pings = ping_seconds(daemon, _PING_COUNT)
            rss = daemon.rss_mb()
    finally:
        for connections in clients.values():
            for client in connections:
                client.close()
        for d in daemons:
            d.stop()

    report.notes.append(
        f"closed loop: {closed.requests} requests, {closed.pairs} pairs in "
        f"{closed.elapsed:.3f}s; open loop: {opened.requests} requests at "
        f"{w.open_rate:g}/s"
    )
    # open_late_ms is the generator's own p99 lateness; it and the latency
    # tails are printed but not gated in untraced runs: on a shared 2-core VM
    # one slow stretch of the host moves tails by 50-170 % between runs.
    report.put("open_late_ms", quantile(opened.late, 0.99) * 1e3, "ms",
               len(opened.late), advisory=not trace)
    if trace:
        serve_layer(counters, first, last, pings, rss, trace_path, report)
        report.put("telemetry.overhead",
                   median(closed.latencies) / median(untraced.latencies),
                   "ratio", len(untraced.latencies))
        query_layer(w, seed, reference, report, tracer)
        return
    report.put("setup_s", median(spawn_seconds), "s", len(spawn_seconds))
    # Raw wall-clock figures are printed; the gated ones are these rescaled
    # to the reference host speed (see reference_speed_metrics).
    # Throughput is the median over the closed-loop segments, so that a
    # slow stretch covering a few of them does not move it.
    report.put("throughput_qps", median(closed_rates), "pairs/s",
               len(closed_rates), advisory=True)
    for name, phase in (("", closed), ("open_", opened)):
        for q in (0.5, 0.9, 0.99):
            report.put(f"{name}p{round(q * 100)}_ms", quantile(phase.latencies, q) * 1e3,
                       "ms", len(phase.latencies), advisory=True)


def reference_speed_metrics(report: Report, probes: list[float]) -> None:
    """Add the gated ``*_ref`` metrics: raw times at the reference host speed.

    Each is its raw metric rescaled by :func:`at_reference_speed` over the
    run's speed probes, so a run on a host slowed by other tenants reads
    about the same as one on a quiet host, while a change to the program's
    own speed moves it fully.  ``setup_s`` stays raw, as the contract asks.
    """
    report.notes.append(
        f"host speed: median probe {median(probes) * 1e3:.2f} ms over "
        f"{len(probes)} probes (reference {PROBE_REF_S * 1e3:.2f} ms)"
    )
    for name, (raw, power) in _AT_REFERENCE_SPEED.items():
        metric = report.metrics[raw]
        value = at_reference_speed(metric["value"] ** power, probes) ** power
        report.put(name, value, metric["unit"], metric["samples"])


def reference_oracle(w: Workload, seed: int, trace: bool, report: Report,
                     tracer: Tracer):
    """The in-process oracle every served answer is checked against.

    Untraced runs call ``repro.oracle.load`` itself.  The traced run makes
    the same two calls ``load`` makes (parse the spec, build with defaults)
    so that parsing and building are timed apart, then builds once more
    with a collector for the carve/scale split.
    """
    if not trace:
        with tracer.span("oracle.load"):
            return load(w.serve_spec, seed=SERVE_SEED, use_cache=False)
    for _ in range(SETUP_REPEATS):
        with tracer.span("graphs.parse", spec=w.serve_spec):
            graph = dec.input_graph(w.serve_spec, SERVE_SEED)
    parse = tracer.seconds("graphs.parse")
    report.put("graphs.parse_s", median(parse), "s", len(parse))
    bfs_layer(graph, seed, report, tracer)
    core_layer(graph, report, tracer)
    with own_heap(), tracer.span("oracle.build") as span:
        oracle = build_oracle(graph, seed=SERVE_SEED)
    report.put("oracle.build_s", span["end"] - span["start"], "s")
    telemetry = Telemetry()
    with own_heap(), tracer.span("oracle.build", traced=True):
        build_oracle(graph, seed=SERVE_SEED, telemetry=telemetry)
    carves = [s["seconds"] for s in telemetry.spans if s["name"] == "carve"]
    scales = [s["seconds"] for s in telemetry.spans if s["name"] == "scale"]
    report.put("oracle.carve_s", sum(carves), "s", len(carves))
    report.put("oracle.scale_s", sum(scales), "s", len(scales))
    report.put("oracle.scales", oracle.num_scales, "count")
    report.put("oracle.entries", sum(s.entries for s in oracle.scales), "count")
    return oracle


def _stats(daemon: Daemon) -> dict:
    with daemon.client() as client:
        return client.stats()


def serve_layer(counters, first, last, pings, rss, trace_path, report) -> None:
    """``serve.*`` metrics from the ``stats`` op, pings and the daemon trace.

    Batch counts cover the closed-loop segments; cache counts cover every
    segment after warm-up.
    """
    report.put("serve.ping_us", median(pings) * 1e6, "us", len(pings))
    batches = counters["batches"]
    report.put("serve.batches", batches, "count")
    report.put("serve.mean_batch_pairs", counters["batched_pairs"] / max(batches, 1),
               "pairs", batches)
    hits = last["cache"]["hits"] - first["cache"]["hits"]
    lookups = hits + last["cache"]["misses"] - first["cache"]["misses"]
    report.put("serve.cache_hit_ratio", hits / max(lookups, 1), "ratio", lookups)
    report.notes.append(f"cache: {hits} hits of {lookups} lookups after warm-up")
    _, records = read_trace(trace_path)
    for name in ("serve.batch", "serve.request"):
        own = [r["self_seconds"] for r in records
               if r.get("kind") == "span" and r.get("name") == name]
        report.put(f"{name}_self_s", median(own) if own else 0.0, "s", len(own))
    report.put("serve.rss_mb", rss, "MiB")


def bfs_layer(graph, seed: int, report: Report, tracer: Tracer) -> None:
    """``graphs.bfs_ns_per_edge``: full BFS from seeded sources, edges counted."""
    indptr, _ = graph.csr()
    per_edge = []
    for s, _ in uniform_pairs(graph.num_vertices, _BFS_SOURCES, seed, "bfs"):
        with tracer.span("graphs.bfs_levels") as span:
            levels = bfs_levels(graph, [s])
        scanned = sum(indptr[v + 1] - indptr[v] for level in levels for v in level)
        per_edge.append((span["end"] - span["start"]) * 1e9 / max(scanned, 1))
    report.put("graphs.bfs_ns_per_edge", median(per_edge), "ns", len(per_edge))


def core_layer(graph, report: Report, tracer: Tracer) -> None:
    """Centralized Theorem 1 with the oracle's level-0 parameters."""
    with own_heap(), tracer.span("core.decompose") as span:
        decomposition, trace = elkin_neiman.decompose(
            graph, k=dec.default_k(graph.num_vertices), c=4.0,
            seed=derive_seed(SERVE_SEED, "oracle", "level", 0),
        )
    report.put("core.decompose_s", span["end"] - span["start"], "s")
    report.put("core.phases", trace.total_phases, "count")
    report.put("core.clusters", decomposition.num_clusters, "count")


def query_layer(w: Workload, seed: int, oracle, report: Report, tracer: Tracer) -> None:
    """In-process per-pair cost of ``distances``/``routes`` at ``query_batch``."""
    pairs = uniform_pairs(oracle.graph.num_vertices,
                          w.query_batch * (_QUERY_PROBE_BATCHES + 1), seed, "probe")
    batches = [pairs[i:i + w.query_batch] for i in range(0, len(pairs), w.query_batch)]
    for op, call in (("distance", oracle.distances), ("route", oracle.routes)):
        call(batches[0])  # warm lazy views
        for batch in batches[1:]:
            with tracer.span(f"oracle.{op}", pairs=len(batch)):
                call(batch)
        per_batch = tracer.seconds(f"oracle.{op}")
        report.put(f"oracle.{op}_us_per_pair", median(per_batch) * 1e6 / w.query_batch,
                   "us", len(per_batch))


# ----------------------------------------------------------------------
# Decomposition stage
# ----------------------------------------------------------------------
def decompose_stage(w: Workload, seed: int, trace: bool, report: Report,
                    tracer: Tracer):
    """Batch engine on ``decompose_spec``; sync = batch on the first graphs.

    Every batch repetition decomposes its own graph, drawn from ``seed``, so
    a metric is the median over several graphs of the family rather than
    the time of one draw (the EN round count varies by ±16 % between
    G(n, p) draws at n = 2000).  The sync reference runs on the first
    ``sync_reps`` of those graphs and must equal the batch result stored
    for the same graph.  Each repetition is one step and is checked as soon
    as it ends.
    """
    seeds = dec.graph_seeds(seed, w.batch_reps)
    names = {"batch": "engine.decompose", "sync": "distributed.decompose"}
    with tracer.span("graphs.generate"):
        graphs = [dec.input_graph(w.decompose_spec, s) for s in seeds]
    yield
    # Spread both backends' repetitions evenly over the stage.  Since
    # sync_reps <= batch_reps, batch repetition i sorts before sync i.
    plan = sorted(
        [((i + 0.5) / w.batch_reps, "batch", i) for i in range(w.batch_reps)]
        + [((i + 0.5) / w.sync_reps, "sync", i) for i in range(w.sync_reps)]
    )
    per_message = {"batch": [], "sync": []}
    batch_prints = {}
    for _, backend, i in plan:
        graph = graphs[i]
        with own_heap(), tracer.span(names[backend], spec=w.decompose_spec) as span:
            result = dec.decompose(graph, backend)
        seconds = span["end"] - span["start"]
        per_message[backend].append(seconds * 1e9 / max(result.stats.messages_sent, 1))
        found = dec.problems(graph, result)
        if backend == "batch":
            if i == 0:
                first = result.stats
            if i < w.sync_reps:
                batch_prints[i] = dec.fingerprint(result)
        elif dec.fingerprint(result) != batch_prints.pop(i):
            found.append("sync result differs from batch on the same graph")
        report.ops(f"{backend} decomposition", 1, 1 if found else 0)
        report.problems.extend(f"{backend}: {p}" for p in found[:5])
        yield

    report.notes.append(f"batch on {w.decompose_spec} (first graph): {first.summary()}")
    if trace:
        report.put("engine.rounds", first.rounds, "count")
        report.put("engine.messages", first.messages_sent, "count")
        report.put("engine.words", first.words_sent, "count")
        for backend, metric in (("batch", "engine"), ("sync", "distributed")):
            values = per_message[backend]
            report.put(f"{metric}.ns_per_message", median(values), "ns", len(values))
        return
    batch_s = tracer.seconds(names["batch"])
    report.put("decompose_s", median(batch_s), "s", len(batch_s), advisory=True)
    # The sync reference is printed, not gated: its run-to-run spread on a
    # shared 2-core VM (0.19-0.32 over ten seeds) exceeds any usable bound.
    sync_s = tracer.seconds(names["sync"])
    report.put("decompose_sync_s", median(sync_s), "s", len(sync_s), advisory=True)
