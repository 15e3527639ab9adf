"""CONGEST enforcement and tracing, on both engines (satellite coverage).

Two simulator-level guarantees, pinned on :class:`SyncNetwork` *and* on
the batch engine:

* a ``word_budget`` violation raises :class:`CongestViolation` in the
  **exact** round the offending flush happens — not a round late, not at
  the end of the run — and the two engines report the identical round
  (in fact the identical message, offending edge included);
* an attached :class:`EventRecorder` sees a consistent event stream:
  send events match ``messages_sent`` one-for-one, rounds are monotone
  within the run's bounds, halt events match the halted set — and the
  batch engine emits the *same* events as the reference.
"""

from __future__ import annotations

import re

import pytest

from repro.core.distributed_en import decompose_distributed
from repro.distributed import (
    Context,
    FloodNode,
    LeaderElectionNode,
    NodeAlgorithm,
    SyncNetwork,
    run_bfs_tree,
    ConvergecastSumNode,
    BFSTreeNode,
)
from repro.engine import bfs_tree, convergecast_sum, flood, leader_election
from repro.errors import CongestViolation
from repro.graphs import erdos_renyi, path_graph, random_connected, star_graph
from repro.telemetry.events import EventRecorder


def _violation_message(fn) -> str | None:
    try:
        fn()
    except CongestViolation as exc:
        return str(exc)
    return None


def _violation_round(message: str) -> int:
    match = re.search(r"in round (\d+)", message)
    assert match, message
    return int(match.group(1))


class TestExactViolationRound:
    def test_sync_network_reports_the_offending_round(self):
        """A node that widens its sends each round must trip the budget in
        exactly the first round its traffic exceeds it."""

        class Widening(NodeAlgorithm):
            def on_round(self, ctx: Context, inbox) -> None:
                # round r sends r one-word messages across each edge
                for _ in range(ctx.round_number):
                    ctx.broadcast(1)

        network = SyncNetwork(path_graph(2), lambda v: Widening(), word_budget=3)
        message = _violation_message(lambda: network.run_rounds(10))
        assert message is not None
        assert _violation_round(message) == 4  # 4 words first exceeds budget 3

    @pytest.mark.parametrize("mode,budget", [("full", 7), ("full", 4), ("toptwo", 7)])
    def test_en_backends_raise_in_the_same_round(self, mode, budget):
        graph = erdos_renyi(60, 0.08, seed=5)
        for seed in (1, 2, 3):
            sync_message = _violation_message(
                lambda: decompose_distributed(
                    graph, k=5, c=8.0, seed=seed, mode=mode, word_budget=budget
                )
            )
            batch_message = _violation_message(
                lambda: decompose_distributed(
                    graph,
                    k=5,
                    c=8.0,
                    seed=seed,
                    mode=mode,
                    word_budget=budget,
                    backend="batch",
                )
            )
            # Not merely the same round: the identical message, offending
            # edge and word count included.
            assert sync_message == batch_message
        assert sync_message is not None
        assert _violation_round(sync_message) >= 2  # a mid-run flush, not round 1

    def test_flood_violates_at_round_zero_on_both_engines(self):
        graph = star_graph(5)

        def sync_run():
            network = SyncNetwork(graph, lambda v: FloodNode(v, 0), word_budget=1)
            network.run_until_quiet(10)

        sync_message = _violation_message(sync_run)
        batch_message = _violation_message(lambda: flood(graph, 0, word_budget=1))
        assert sync_message == batch_message
        assert _violation_round(sync_message) == 0

    def test_leader_election_within_budget_runs_clean(self):
        graph = random_connected(30, 0.08, seed=2)
        result = leader_election(graph, word_budget=2)  # exactly one 2-word msg/edge/round
        assert set(result.leader.values()) == {0}


def _sync_trace(graph, factory, max_rounds):
    tracer = EventRecorder()
    network = SyncNetwork(graph, factory, tracer=tracer)
    network.run_until_quiet(max_rounds)
    return tracer, network


class TestTraceInvariants:
    GRAPH = random_connected(36, 0.06, seed=4)

    def _check_invariants(self, tracer, stats, rounds):
        sends = list(tracer.sends())
        assert len(sends) == stats.messages_sent
        assert all(0 <= event.round <= rounds for event in tracer.events)
        grouped = tracer.rounds()
        assert sum(len(events) for events in grouped.values()) == len(tracer.events)

    def test_flood_trace_identical(self):
        reference, network = _sync_trace(
            self.GRAPH, lambda v: FloodNode(v, 0), self.GRAPH.num_vertices + 1
        )
        tracer = EventRecorder()
        result = flood(self.GRAPH, 0, tracer=tracer)
        assert tracer.events == reference.events
        self._check_invariants(tracer, result.stats, result.rounds)

    def test_bfs_tree_trace_identical(self):
        reference, network = _sync_trace(
            self.GRAPH, lambda v: BFSTreeNode(v, 0), self.GRAPH.num_vertices + 2
        )
        tracer = EventRecorder()
        result = bfs_tree(self.GRAPH, 0, tracer=tracer)
        assert tracer.events == reference.events
        self._check_invariants(tracer, result.stats, result.rounds)

    def test_leader_trace_identical(self):
        reference, network = _sync_trace(
            self.GRAPH, lambda v: LeaderElectionNode(v), self.GRAPH.num_vertices + 2
        )
        tracer = EventRecorder()
        result = leader_election(self.GRAPH, tracer=tracer)
        assert tracer.events == reference.events
        self._check_invariants(tracer, result.stats, result.rounds)

    def test_convergecast_trace_identical_including_halts(self):
        graph = self.GRAPH
        values = {v: float(v) for v in graph.vertices()}
        parents, _ = run_bfs_tree(graph, 0)
        children = {v: [] for v in parents}
        for v, parent in parents.items():
            if parent >= 0:
                children[parent].append(v)
        reference, network = _sync_trace(
            graph,
            lambda v: ConvergecastSumNode(
                v,
                values.get(v, 0.0) if v in parents else 0.0,
                parents.get(v),
                children.get(v, ()),
            ),
            2 * graph.num_vertices + 4,
        )
        tracer = EventRecorder()
        result = convergecast_sum(graph, 0, values, tracer=tracer)
        assert tracer.events == reference.events
        halts = list(tracer.halts())
        # every tree vertex except the root halts, exactly once
        assert sorted(event.node for event in halts) == sorted(
            v for v, parent in parents.items() if parent >= 0
        )
        self._check_invariants(tracer, result.stats, result.rounds)

    def test_trace_limit_respected_by_batch_engine(self):
        tracer = EventRecorder(limit=5)
        flood(self.GRAPH, 0, tracer=tracer)
        assert len(tracer.events) == 5
        assert tracer.truncated
