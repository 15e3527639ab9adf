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
from ..distributed.execution import Execution
from ..distributed.message import Message
from ..distributed.metrics import NetworkStats
from ..distributed.node import Context, NodeAlgorithm
from ..errors import ParameterError
from ..graphs.activeset import ActiveSet
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED
from .linial_saks import sample_ls_radius

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.broadcast import ShiftedFlood
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
        self.active_neighbors: set[int] = set()
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


def _decide_batch(flood: ShiftedFlood, live: Sequence[int]) -> dict[int, int]:
    """:meth:`LSNodeAlgorithm._decide` over the batch flood's summaries: the
    minimum origin heard wins iff its value arrived with distance < radius."""
    min_origin, min_shifted = flood.min_origin, flood.min_shifted
    return {v: min_origin[v] for v in live if min_shifted[v] > 0}


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
    (:class:`repro.distributed.execution.BatchPhases`) — bit-identical
    outputs and stats, engine-speed execution.  ``backend="async"`` steps the node
    algorithms on the α-synchronized asynchronous engine under a
    ``delivery`` schedule and optional ``faults`` plan (``docs/async.md``)
    — bit-identical to ``"sync"`` for fault-free FIFO runs.
    ``telemetry`` (or the ambient trace) enables phase spans and the
    ``ls.rounds`` metrics stream.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    execution = Execution(
        graph, "ls", seed=seed, word_budget=word_budget, backend=backend,
        delivery=delivery, faults=faults, telemetry=telemetry,
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
    # Integer radii are their own broadcast caps; every new value is forwarded.
    runner = execution.runner(
        lambda v: LSNodeAlgorithm(v, seed, p, k), LSNodeAlgorithm, "full", int,
        _decide_batch,
    )

    def step(phase: int, active: ActiveSet) -> tuple[int, dict[int, int]]:
        radii = {v: sample_ls_radius(seed, phase, v, p, k) for v in active}
        budget = max(radii.values(), default=0) if adaptive_phase_length else k
        return budget, runner.run_phase(
            phase, budget, radii, lambda node: node.begin_phase(phase, budget)
        )

    joins, rounds_per_phase = execution.phases(
        step,
        max_phases,
        f"LS protocol did not exhaust the graph within {max_phases} phases",
        "ls.decompose",
        "ls.phase_seconds",
        n=n,
        k=k,
    )
    clusters: list[Cluster] = []
    for color, joined in enumerate(joins):
        by_center: dict[int, list[int]] = {}
        for v, center in joined.items():
            by_center.setdefault(center, []).append(v)
        for center in sorted(by_center):
            clusters.append(
                Cluster(
                    index=len(clusters),
                    color=color,
                    vertices=frozenset(by_center[center]),
                    center=center,
                )
            )
    return DistributedLSResult(
        decomposition=NetworkDecomposition(graph, clusters),
        stats=execution.stats,
        phases=len(joins),
        rounds_per_phase=rounds_per_phase,
    )
