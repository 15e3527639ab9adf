"""Tests for the simulator's execution tracing."""

from __future__ import annotations

from repro.distributed import Context, NodeAlgorithm, SyncNetwork
from repro.graphs import path_graph
from repro.telemetry.events import EventRecorder


class PingOnce(NodeAlgorithm):
    def on_start(self, ctx: Context) -> None:
        ctx.broadcast(("ping", ctx.node_id))

    def on_round(self, ctx: Context, inbox) -> None:
        ctx.halt()


class TestTraceRecorder:
    def test_records_sends(self):
        tracer = EventRecorder()
        net = SyncNetwork(path_graph(3), lambda v: PingOnce(), tracer=tracer)
        net.run_rounds(2)
        sends = list(tracer.sends())
        # 0 and 2 broadcast once each (1 nbr), 1 broadcasts to 2 nbrs.
        assert len(sends) == 4
        assert all(event.kind == "send" for event in sends)
        assert all(event.round == 0 for event in sends)

    def test_records_halts(self):
        tracer = EventRecorder()
        net = SyncNetwork(path_graph(3), lambda v: PingOnce(), tracer=tracer)
        net.run_rounds(2)
        halts = list(tracer.halts())
        assert sorted(event.node for event in halts) == [0, 1, 2]
        assert all(event.round == 1 for event in halts)

    def test_node_filter(self):
        tracer = EventRecorder(node_filter=lambda v: v == 1)
        net = SyncNetwork(path_graph(3), lambda v: PingOnce(), tracer=tracer)
        net.run_rounds(2)
        assert all(event.node == 1 for event in tracer.events)
        assert len(list(tracer.sends())) == 2

    def test_limit_truncates(self):
        tracer = EventRecorder(limit=2)
        net = SyncNetwork(path_graph(4), lambda v: PingOnce(), tracer=tracer)
        net.run_rounds(2)
        assert len(tracer.events) == 2
        assert tracer.truncated

    def test_messages_between(self):
        tracer = EventRecorder()
        net = SyncNetwork(path_graph(3), lambda v: PingOnce(), tracer=tracer)
        net.run_rounds(2)
        on_edge = tracer.messages_between(0, 1)
        assert len(on_edge) == 2  # one each way
        assert {event.node for event in on_edge} == {0, 1}

    def test_rounds_grouping(self):
        tracer = EventRecorder()
        net = SyncNetwork(path_graph(3), lambda v: PingOnce(), tracer=tracer)
        net.run_rounds(2)
        grouped = tracer.rounds()
        assert set(grouped) == {0, 1}

    def test_no_tracer_no_events(self):
        net = SyncNetwork(path_graph(3), lambda v: PingOnce())
        net.run_rounds(2)  # simply must not crash

    def test_tracing_the_decomposition_protocol(self):
        from repro.core.distributed_en import decompose_distributed
        from repro.graphs import erdos_renyi

        # The protocol runs its own SyncNetwork; trace a manual copy.
        graph = path_graph(8)
        tracer = EventRecorder()
        from repro.core.distributed_en import ENNodeAlgorithm

        net = SyncNetwork(
            graph, [ENNodeAlgorithm(v, 3, "toptwo") for v in range(8)], tracer=tracer
        )
        net.start()
        for v in range(8):
            net.algorithm(v).begin_phase(1, 1.0, 3)
        net.run_rounds(5)
        payload_tags = {event.payload[0] for event in tracer.sends()}
        assert payload_tags <= {"b", "left"}


class TestLimitHitBitIdentity:
    """A recorder that fills up mid-run must not perturb the run.

    Once the event bound is hit the recorder only flips ``truncated`` —
    results and :class:`NetworkStats` stay bit-identical to an untraced
    run, on both engines.
    """

    def test_sync_network_results_survive_a_full_recorder(self):
        from repro.graphs import erdos_renyi

        graph = erdos_renyi(24, 0.2, seed=3)

        def run(tracer):
            net = SyncNetwork(graph, lambda v: PingOnce(), tracer=tracer)
            net.run_rounds(3)
            return net.stats, [net.halted(v) for v in range(24)]

        plain_stats, plain_state = run(None)
        tracer = EventRecorder(limit=1)
        traced_stats, traced_state = run(tracer)
        assert tracer.truncated and len(tracer.events) == 1
        assert traced_stats == plain_stats
        assert traced_state == plain_state

    def test_batch_engine_results_survive_a_full_recorder(self):
        from repro.engine import bfs_tree, flood, leader_election
        from repro.graphs import grid_graph

        graph = grid_graph(6, 6)
        for run, view in (
            (flood, lambda r: (r.arrival, r.stats)),
            (bfs_tree, lambda r: (r.depths, r.parents, r.stats)),
        ):
            plain = run(graph, 0)
            tracer = EventRecorder(limit=2)
            traced = run(graph, 0, tracer=tracer)
            assert tracer.truncated
            assert view(traced) == view(plain)
        plain = leader_election(graph)
        tracer = EventRecorder(limit=2)
        traced = leader_election(graph, tracer=tracer)
        assert tracer.truncated
        assert (traced.leader, traced.stats) == (plain.leader, plain.stats)

    def test_en_protocol_phase_survives_a_full_recorder(self):
        from repro.core.distributed_en import ENNodeAlgorithm
        from repro.graphs import erdos_renyi

        graph = erdos_renyi(20, 0.25, seed=9)

        def run_phase(tracer):
            net = SyncNetwork(
                graph,
                [ENNodeAlgorithm(v, 3, "toptwo") for v in range(20)],
                tracer=tracer,
            )
            net.start()
            for v in range(20):
                net.algorithm(v).begin_phase(1, 1.0, 3)
            net.run_rounds(5)
            return net.stats, [
                (net.algorithm(v).joined_phase, net.algorithm(v).center)
                for v in range(20)
            ]

        plain = run_phase(None)
        tracer = EventRecorder(limit=3)
        traced = run_phase(tracer)
        assert tracer.truncated and len(tracer.events) == 3
        assert traced == plain
