"""The shared execution of the distributed EN / LS / MPX drivers.

:class:`~repro.distributed.execution.Execution` owns everything the three
drivers share that is not protocol logic — option validation, building
the node network or batch engine, the round stream, causal log, run span
and histograms — and :class:`NodePhases` / :class:`BatchPhases` run one
phase on either path.  These tests pin that layer directly, and pin the
telemetry names each driver exposes through it.
"""

from __future__ import annotations

import pytest

from repro.baselines.distributed_ls import LSNodeAlgorithm
from repro.baselines.distributed_ls import decompose_distributed as ls_decompose
from repro.baselines.distributed_mpx import partition_distributed
from repro.core.distributed_en import ENNodeAlgorithm, decompose_distributed
from repro.distributed import NodeAlgorithm, SyncNetwork
from repro.distributed.async_net import AsyncNetwork, AsyncStats
from repro.distributed.execution import BatchPhases, Execution, NodePhases
from repro.engine.core import BatchEngine
from repro.errors import ParameterError, SimulationError
from repro.graphs import cycle_graph, path_graph
from repro.telemetry import Telemetry, reset


@pytest.fixture(autouse=True)
def _isolated_ambient(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    reset()
    yield
    reset()


def _execution(graph=None, protocol="en", *, backend="sync", delivery="fifo",
               faults=None, telemetry=None, **stream_attrs):
    return Execution(
        graph if graph is not None else path_graph(4),
        protocol,
        seed=1,
        word_budget=None,
        backend=backend,
        delivery=delivery,
        faults=faults,
        telemetry=telemetry,
        **stream_attrs,
    )


class Idle(NodeAlgorithm):
    """Sends nothing; carries the join fields the phase runners read."""

    def __init__(self) -> None:
        self.joined_phase: int | None = None
        self.center: int | None = None


# ---------------------------------------------------------------------------
# Validation — the one copy shared by all three drivers
# ---------------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize("backend", ["gpu", "", "SYNC", "Batch"])
    def test_unknown_backend_rejected(self, backend):
        with pytest.raises(ParameterError, match="backend must be"):
            _execution(backend=backend)

    @pytest.mark.parametrize("backend", ["sync", "batch"])
    @pytest.mark.parametrize(
        "adversary",
        [
            {"delivery": "random:2"},
            {"faults": "drop:0.1"},
            {"faults": "crash:1@1-"},
        ],
        ids=["delivery", "drop", "crash"],
    )
    def test_adversary_off_async_rejected(self, backend, adversary):
        with pytest.raises(ParameterError, match="require backend='async'"):
            _execution(backend=backend, **adversary)

    @pytest.mark.parametrize("backend", ["sync", "batch"])
    @pytest.mark.parametrize("faults", [None, "", "none"])
    def test_no_fault_spellings_accepted_off_async(self, backend, faults):
        execution = _execution(backend=backend, faults=faults)
        assert execution.backend == backend
        assert execution.batch is (backend == "batch")

    def test_async_accepts_delivery_and_faults(self):
        execution = _execution(backend="async", delivery="random:2", faults="drop:0.1")
        assert (execution.delivery, execution.faults) == ("random:2", "drop:0.1")


# ---------------------------------------------------------------------------
# Telemetry plumbing
# ---------------------------------------------------------------------------
class TestTelemetry:
    def test_disabled_has_no_stream_log_or_span(self):
        execution = _execution()
        assert execution.tel is None
        assert execution.rounds is None and execution.causal is None
        execution.network([Idle() for _ in range(4)])
        with execution.span("run", "run_seconds") as span:
            assert span is None

    @pytest.mark.parametrize("protocol", ["en", "ls", "mpx"])
    def test_stream_and_log_named_after_protocol(self, protocol):
        tel = Telemetry()
        execution = _execution(protocol=protocol, backend="batch", telemetry=tel, mode="m")
        assert execution.rounds.stream == f"{protocol}.rounds"
        assert list(execution.rounds.attrs) == ["backend", "mode"]
        assert execution.rounds.attrs == {"backend": "batch", "mode": "m"}
        assert execution.causal.stream == f"{protocol}.causal"

    def test_async_span_carries_replay_key_and_adversary_counters(self):
        tel = Telemetry()
        execution = _execution(backend="async", delivery="random:2", telemetry=tel)
        network = execution.network([Idle() for _ in range(4)])
        with execution.span("run", None, n=4):
            network.run_rounds(2)
        (record,) = tel.spans
        expected = ["backend", "n", "delivery", "faults", *AsyncStats().as_dict()]
        assert list(record["attrs"]) == expected
        assert record["attrs"]["faults"] == "none"

    def test_span_records_histogram_once_closed(self):
        tel = Telemetry()
        execution = _execution(backend="batch", telemetry=tel)
        execution.batch_engine()
        with execution.span("run", "run_seconds", n=4) as span:
            pass
        assert tel.hists["run_seconds"].count == 1
        assert span.attrs == {"backend": "batch", "n": 4}

    def test_failed_span_records_no_histogram(self):
        tel = Telemetry()
        execution = _execution(backend="batch", telemetry=tel)
        execution.batch_engine()
        with pytest.raises(RuntimeError):
            with execution.span("run", "run_seconds"):
                raise RuntimeError("boom")
        assert "run_seconds" not in tel.hists
        assert tel.spans[-1]["status"] == "error"


# ---------------------------------------------------------------------------
# The phase loop
# ---------------------------------------------------------------------------
def _one_per_phase(phase, active):
    """A step joining the smallest live vertex alone, budget 1."""
    v = min(active)
    return 1, {v: v}


class TestPhases:
    def test_counts_phases_rounds_and_histogram(self):
        tel = Telemetry()
        execution = _execution(backend="batch", telemetry=tel)
        execution.batch_engine()
        joins, rounds = execution.phases(
            _one_per_phase, 10, "exhausted", "run", "phase_seconds", n=4
        )
        assert joins == [{0: 0}, {1: 1}, {2: 2}, {3: 3}]
        assert rounds == [3, 3, 3, 3]
        phase_spans = [s for s in tel.spans if s["name"] == "phase"]
        assert [s["attrs"] for s in phase_spans] == [
            {"phase": p, "budget": 1} for p in (1, 2, 3, 4)
        ]
        assert all(s["counters"] == {"joined": 1} for s in phase_spans)
        (run,) = [s for s in tel.spans if s["name"] == "run"]
        assert run["counters"] == {"phases": 4, "rounds": 12}
        assert tel.hists["phase_seconds"].count == 4

    def test_raises_past_max_phases(self):
        execution = _execution(backend="batch")
        execution.batch_engine()
        with pytest.raises(SimulationError, match="out of phases"):
            execution.phases(_one_per_phase, 2, "out of phases", "run", "h")


# ---------------------------------------------------------------------------
# Phase runners
# ---------------------------------------------------------------------------
class TestRunners:
    @pytest.mark.parametrize(
        "backend, expected",
        [("sync", SyncNetwork), ("async", AsyncNetwork), ("batch", BatchEngine)],
    )
    def test_runner_matches_backend(self, backend, expected):
        execution = _execution(backend=backend)
        runner = execution.runner(lambda v: Idle(), Idle, "full", int, None)
        assert isinstance(runner, BatchPhases if backend == "batch" else NodePhases)
        assert isinstance(execution.engine, expected)
        assert execution.stats is execution.engine.stats

    def test_joiner_without_center_raises(self):
        runner = NodePhases(_execution().network(lambda v: Idle()), Idle)

        def arm(node):
            node.joined_phase = 1

        with pytest.raises(SimulationError, match="without a center"):
            runner.run_phase(1, 0, {0: 0.0, 1: 0.0}, arm)

    def test_node_of_the_wrong_kind_raises(self):
        runner = NodePhases(_execution().network(lambda v: Idle()), ENNodeAlgorithm)
        with pytest.raises(SimulationError, match="expected ENNodeAlgorithm"):
            runner.run_phase(1, 0, {0: 0.0}, lambda node: None)

    def test_node_runner_reads_back_joiners_of_this_phase_only(self):
        runner = NodePhases(_execution().network(lambda v: Idle()), Idle)

        def arm(node):
            node.joined_phase, node.center = 2, 3

        assert runner.run_phase(2, 0, {0: 0.0, 1: 0.0}, arm) == {0: 3, 1: 3}
        assert runner.run_phase(3, 0, {2: 0.0}, lambda node: None) == {}


@pytest.mark.parametrize(
    "node",
    [ENNodeAlgorithm(0, 1, "toptwo"), LSNodeAlgorithm(0, 1, 0.5, 3)],
    ids=["en", "ls"],
)
def test_node_algorithms_start_with_no_active_neighbors(node):
    assert node.active_neighbors == set()


# ---------------------------------------------------------------------------
# The drivers' telemetry contract, on every backend
# ---------------------------------------------------------------------------
DRIVERS = {
    "en": (
        lambda graph, **kw: decompose_distributed(graph, k=3, seed=4, **kw),
        "en.decompose", ["backend", "mode", "n"], "en.phase_seconds",
    ),
    "ls": (
        lambda graph, **kw: ls_decompose(graph, k=3, seed=4, **kw),
        "ls.decompose", ["backend", "n", "k"], "ls.phase_seconds",
    ),
    "mpx": (
        lambda graph, **kw: partition_distributed(graph, beta=0.5, seed=4, **kw),
        "mpx.partition", ["backend", "mode", "n"], "mpx.partition_seconds",
    ),
}


@pytest.mark.parametrize("backend", ["sync", "batch", "async"])
@pytest.mark.parametrize("protocol", sorted(DRIVERS))
def test_driver_span_stream_and_histogram_names(protocol, backend):
    run, span_name, attr_names, histogram = DRIVERS[protocol]
    options = {"backend": backend}
    if backend == "async":
        options["delivery"] = "random:2"
        attr_names = [*attr_names, "delivery", "faults", *AsyncStats().as_dict()]
    tel = Telemetry()
    run(cycle_graph(12), telemetry=tel, **options)
    (top,) = [s for s in tel.spans if s["depth"] == 0]
    assert top["name"] == span_name
    assert list(top["attrs"]) == attr_names
    assert top["attrs"]["backend"] == backend
    assert tel.hists[histogram].count >= 1
    assert {row["stream"] for row in tel.rounds} == {f"{protocol}.rounds"}
    assert {row["backend"] for row in tel.rounds} == {backend}
    assert tel.causal
    assert {row["stream"] for row in tel.causal} == {f"{protocol}.causal"}
