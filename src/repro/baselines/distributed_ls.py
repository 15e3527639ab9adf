"""Distributed Linial–Saks protocol on the synchronous simulator.

Message-passing implementation of the LS93 weak-diameter decomposition
(see :mod:`repro.baselines.linial_saks` for the algorithm).  The phase
structure mirrors the Elkin–Neiman protocol
(:mod:`repro.core.distributed_en`): ``B_t`` broadcast rounds, one decision
point, one announce round.  Differences:

* broadcasts carry ``(ID, radius, distance)`` and the *ID* is load-bearing
  (minimum-ID wins), unlike Elkin–Neiman where IDs only dedupe;
* radii are integers from the capped geometric distribution, so ``B_t``
  is at most ``k``;
* every newly heard value is forwarded (``full`` mode).  LS93's own
  CONGEST-ness relies on a counting argument we do not replicate; the
  measured per-edge bandwidth of this protocol versus Elkin–Neiman's
  top-two mode is part of experiment E8's story.

Runs are cross-validated against the centralized reference: both draw
radii from the same ``(seed, phase, vertex)`` streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..core.decomposition import Cluster, NetworkDecomposition
from ..distributed.message import Message
from ..distributed.metrics import NetworkStats
from ..distributed.node import Context, NodeAlgorithm, algorithm_at
from ..distributed.synchronizer import build_network
from ..errors import ParameterError, SimulationError
from ..graphs.activeset import ActiveSet
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED
from ..telemetry import maybe_span, resolve
from .linial_saks import sample_ls_radius

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Telemetry

__all__ = ["LSNodeAlgorithm", "DistributedLSResult", "decompose_distributed"]

_BCAST = "b"
_LEFT = "left"


class LSNodeAlgorithm(NodeAlgorithm):
    """Node-local state machine of the Linial–Saks protocol."""

    def __init__(self, vertex: int, seed: int, p: float, k: int) -> None:
        self.vertex = vertex
        self.seed = seed
        self.p = p
        self.k = k
        self.active_neighbors: set[int] | None = None
        self.joined_phase: int | None = None
        self.center: int | None = None
        # Per-phase state.
        self.phase = 0
        self.radius = 0
        self.broadcast_rounds = 0
        self.round_in_phase = 0
        self.entries: dict[int, tuple[int, int]] = {}  # origin -> (radius, dist)
        self._new_origins: list[int] = []

    def begin_phase(self, phase: int, broadcast_rounds: int) -> None:
        """Arm the node for ``phase`` (control plane, see distributed_en)."""
        self.phase = phase
        self.radius = sample_ls_radius(self.seed, phase, self.vertex, self.p, self.k)
        self.broadcast_rounds = broadcast_rounds
        self.round_in_phase = 0
        self.entries = {self.vertex: (self.radius, 0)}
        self._new_origins = [self.vertex]

    def on_start(self, ctx: Context) -> None:
        self.active_neighbors = set(ctx.neighbors)

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        self.round_in_phase += 1
        assert self.active_neighbors is not None
        for message in inbox:
            payload = message.payload
            if payload[0] == _LEFT:
                self.active_neighbors.discard(message.sender)
                continue
            _tag, origin, radius, distance = payload
            known = self.entries.get(origin)
            if known is None or distance < known[1]:
                self.entries[origin] = (radius, distance)
                self._new_origins.append(origin)
        if self.round_in_phase <= self.broadcast_rounds:
            outgoing = [
                origin
                for origin in self._new_origins
                if self.entries[origin][1] + 1 <= self.entries[origin][0]
            ]
            self._new_origins = []
            for origin in outgoing:
                radius, distance = self.entries[origin]
                for neighbor in sorted(self.active_neighbors):
                    ctx.send(neighbor, (_BCAST, origin, radius, distance + 1))
        if self.round_in_phase == self.broadcast_rounds + 1:
            self._decide()
        elif self.round_in_phase == self.broadcast_rounds + 2:
            if self.joined_phase == self.phase:
                for neighbor in sorted(self.active_neighbors):
                    ctx.send(neighbor, (_LEFT,))
                ctx.halt()

    def _decide(self) -> None:
        winner = min(self.entries)  # minimum ID among broadcasts that reached us
        radius, distance = self.entries[winner]
        if distance < radius:
            self.joined_phase = self.phase
            self.center = winner


@dataclass
class DistributedLSResult:
    """Outcome of a distributed Linial–Saks run."""

    decomposition: NetworkDecomposition
    stats: NetworkStats
    phases: int
    rounds_per_phase: list[int] = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        """Total communication rounds."""
        return sum(self.rounds_per_phase)


class _SyncLSPhases:
    """Reference phase executor (one :class:`LSNodeAlgorithm` per vertex),
    on :class:`SyncNetwork` or — with ``backend="async"`` — the
    α-synchronized :class:`~repro.distributed.async_net.AsyncNetwork`."""

    def __init__(
        self, graph: Graph, seed: int, p: float, k: int, word_budget, rounds=None,
        causal=None, backend: str = "sync", delivery: str = "fifo", faults=None,
    ) -> None:
        self._network = build_network(
            graph,
            [LSNodeAlgorithm(v, seed, p, k) for v in range(graph.num_vertices)],
            seed=seed,
            word_budget=word_budget,
            rounds=rounds,
            causal=causal,
            backend=backend,
            delivery=delivery,
            faults=faults,
        )
        self._network.start()

    @property
    def stats(self) -> NetworkStats:
        return self._network.stats

    @property
    def async_stats(self):
        """Adversary counters (``None`` on the sync engine)."""
        return getattr(self._network, "async_stats", None)

    def finish(self) -> None:
        self._network.finish_rounds()

    def run_phase(self, phase, budget, radii):
        for v in radii:
            algorithm_at(self._network, v, LSNodeAlgorithm).begin_phase(phase, budget)
        self._network.run_rounds(budget + 2)
        joined: dict[int, int] = {}
        for v in radii:
            algorithm = algorithm_at(self._network, v, LSNodeAlgorithm)
            if algorithm.joined_phase == phase:
                if algorithm.center is None:
                    raise SimulationError(
                        f"vertex {v} joined in phase {phase} without a center"
                    )
                joined[v] = algorithm.center
        return joined


def decompose_distributed(
    graph: Graph,
    k: int,
    seed: int = DEFAULT_SEED,
    p: float | None = None,
    adaptive_phase_length: bool = True,
    word_budget: int | None = None,
    max_phases: int | None = None,
    backend: str = "sync",
    delivery: str = "fifo",
    faults: str | None = None,
    telemetry: "Telemetry | None" = None,
) -> DistributedLSResult:
    """Run the distributed LS protocol to completion.

    Parameters mirror :func:`repro.baselines.linial_saks.decompose`;
    ``adaptive_phase_length`` chooses ``B_t = max r_v`` (driver-computed)
    instead of the fixed worst case ``k``.  ``backend="batch"`` runs the
    identical protocol on the columnar round engine
    (:class:`repro.engine.ls.BatchLSPhases`) — bit-identical outputs and
    stats, engine-speed execution.  ``backend="async"`` steps the node
    algorithms on the α-synchronized asynchronous engine under a
    ``delivery`` schedule and optional ``faults`` plan (``docs/async.md``)
    — bit-identical to ``"sync"`` for fault-free FIFO runs.
    ``telemetry`` (or the ambient trace) enables phase spans and the
    ``ls.rounds`` metrics stream.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if backend not in ("sync", "batch", "async"):
        raise ParameterError(
            f"backend must be 'sync', 'batch' or 'async', got {backend!r}"
        )
    if backend != "async" and (delivery != "fifo" or faults not in (None, "", "none")):
        raise ParameterError(
            f"delivery/faults require backend='async', got backend={backend!r}"
        )
    n = graph.num_vertices
    if p is None:
        p = float(max(n, 2)) ** (-1.0 / k)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must be in (0, 1), got {p}")
    nominal = max(
        1, math.ceil(2.0 * max(n, 2) ** (1.0 / k) * math.log(max(n, 2)) / max(1.0 - p, 1e-9))
    )
    if max_phases is None:
        max_phases = 10 * nominal + 100
    tel = resolve(telemetry)
    rounds = (
        tel.round_stream("ls.rounds", backend=backend) if tel is not None else None
    )
    causal = tel.causal_log("ls.causal") if tel is not None else None
    if backend in ("sync", "async"):
        runner = _SyncLSPhases(
            graph, seed, p, k, word_budget, rounds, causal,
            backend=backend, delivery=delivery, faults=faults,
        )
    else:
        from ..engine.ls import BatchLSPhases

        runner = BatchLSPhases(graph, word_budget, rounds=rounds, causal=causal)
    active = ActiveSet.full(n)
    clusters: list[Cluster] = []
    rounds_per_phase: list[int] = []
    phase = 0
    span_attrs = {"backend": backend, "n": n, "k": k}
    if backend == "async":
        span_attrs["delivery"] = delivery
        span_attrs["faults"] = faults or "none"
    phase_hist = tel.histogram("ls.phase_seconds") if tel is not None else None
    with maybe_span(tel, "ls.decompose", **span_attrs) as run_span:
        while active:
            phase += 1
            if phase > max_phases:
                raise SimulationError(
                    f"LS protocol did not exhaust the graph within {max_phases} phases"
                )
            radii = {v: sample_ls_radius(seed, phase, v, p, k) for v in active}
            budget = max(radii.values(), default=0) if adaptive_phase_length else k
            with maybe_span(tel, "phase", phase=phase) as phase_span:
                joined = runner.run_phase(phase, budget, radii)
                if phase_span is not None:
                    phase_span.annotate(budget=budget)
                    phase_span.add("joined", len(joined))
            if phase_span is not None:
                phase_hist.record(phase_span.seconds)
            rounds_per_phase.append(budget + 2)
            by_center: dict[int, list[int]] = {}
            for v, center in joined.items():
                by_center.setdefault(center, []).append(v)
            for center in sorted(by_center):
                clusters.append(
                    Cluster(
                        index=len(clusters),
                        color=phase - 1,
                        vertices=frozenset(by_center[center]),
                        center=center,
                    )
                )
            active -= joined.keys()
        if tel is not None:
            runner.finish()
            run_span.add("phases", phase)
            run_span.add("rounds", sum(rounds_per_phase))
            async_stats = getattr(runner, "async_stats", None)
            if async_stats is not None:
                run_span.annotate(**async_stats.as_dict())
    return DistributedLSResult(
        decomposition=NetworkDecomposition(graph, clusters),
        stats=runner.stats,
        phases=phase,
        rounds_per_phase=rounds_per_phase,
    )
