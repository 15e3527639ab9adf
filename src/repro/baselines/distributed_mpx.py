"""Distributed Miller–Peng–Xu partition on the synchronous simulator.

One-shot shifted-BFS competition: every vertex injects ``δ_v ~ Exp(β)``
and the network floods shifted values for ``B = max ⌊δ_v⌋`` rounds; each
vertex is assigned to the origin of the largest shifted value it heard
(its own included, so everyone is assigned).

Forwarding modes:

* ``full`` — forward every newly heard value;
* ``topone`` — forward only the current best value.  This suffices for
  assignment: if ``x`` suppresses origin ``o`` because it holds a larger
  shifted value ``m'``, then anything downstream of ``x`` would receive a
  value at least as large as ``o``'s via ``x``'s best, so ``o`` can never
  win downstream of ``x`` — the classical argument MPX's parallel
  implementation rests on.  Messages are then O(1) words per edge per
  round.

Cross-validated bit-for-bit against :func:`repro.baselines.mpx.partition`
(both draw shifts from the ``(seed, "mpx-shift", vertex)`` streams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

from ..core.decomposition import Cluster, NetworkDecomposition
from ..distributed.execution import BatchPhases, Execution
from ..distributed.message import Message
from ..distributed.metrics import NetworkStats
from ..distributed.node import Context, NodeAlgorithm, algorithm_at
from ..errors import ParameterError, SimulationError
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED, stream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Telemetry

__all__ = ["MPXNodeAlgorithm", "DistributedMPXResult", "partition_distributed"]

_BCAST = "b"


class MPXNodeAlgorithm(NodeAlgorithm):
    """Node-local logic of the one-shot MPX competition."""

    def __init__(
        self, vertex: int, seed: int, beta: float, mode: Literal["full", "topone"]
    ) -> None:
        if mode not in ("full", "topone"):
            raise ParameterError(f"mode must be 'full' or 'topone', got {mode!r}")
        self.vertex = vertex
        self.seed = seed
        self.beta = beta
        self.mode = mode
        self.shift = 0.0
        self.broadcast_rounds = 0
        self.entries: dict[int, tuple[float, int]] = {}
        self._new_origins: list[int] = []
        self._sent_origins: set[int] = set()
        self.center: int | None = None

    def configure(self, broadcast_rounds: int) -> None:
        """Set the flood length ``B`` (common-knowledge parameter)."""
        self.broadcast_rounds = broadcast_rounds

    def on_start(self, ctx: Context) -> None:
        self.shift = stream(self.seed, "mpx-shift", self.vertex).expovariate(self.beta)
        self.entries = {self.vertex: (self.shift, 0)}
        self._new_origins = [self.vertex]

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        for message in inbox:
            _tag, origin, shift, distance = message.payload
            known = self.entries.get(origin)
            if known is None or distance < known[1]:
                self.entries[origin] = (shift, distance)
                self._new_origins.append(origin)
        if ctx.round_number <= self.broadcast_rounds:
            self._forward(ctx)
        if ctx.round_number == self.broadcast_rounds + 1:
            self.center = min(
                self.entries,
                key=lambda o: (-(self.entries[o][0] - self.entries[o][1]), o),
            )
            ctx.halt()

    def _eligible(self, origin: int) -> bool:
        shift, distance = self.entries[origin]
        return distance + 1 <= math.floor(shift)

    def _forward(self, ctx: Context) -> None:
        if self.mode == "full":
            outgoing = [o for o in self._new_origins if self._eligible(o)]
        else:
            eligible = [o for o in self.entries if self._eligible(o)]
            eligible.sort(
                key=lambda o: (-(self.entries[o][0] - self.entries[o][1]), o)
            )
            outgoing = [o for o in eligible[:1] if o not in self._sent_origins]
        self._new_origins = []
        for origin in outgoing:
            self._sent_origins.add(origin)
            shift, distance = self.entries[origin]
            for neighbor in ctx.neighbors:
                ctx.send(neighbor, (_BCAST, origin, shift, distance + 1))


@dataclass
class DistributedMPXResult:
    """Outcome of a distributed MPX run."""

    decomposition: NetworkDecomposition
    center_of: dict[int, int]
    stats: NetworkStats
    rounds: int
    cut_edges: int
    cut_fraction: float


def partition_distributed(
    graph: Graph,
    beta: float,
    seed: int = DEFAULT_SEED,
    mode: Literal["full", "topone"] = "topone",
    word_budget: int | None = None,
    backend: str = "sync",
    delivery: str = "fifo",
    faults: str | None = None,
    telemetry: "Telemetry | None" = None,
) -> DistributedMPXResult:
    """Run the distributed MPX partition on ``graph`` with rate ``beta``.

    The flood length ``B = max ⌊δ_v⌋`` is computed by the driver from the
    shared shift streams (the standard w.h.p. bound is
    ``O(log n / β)``); the run then takes ``B + 1`` rounds.
    ``backend="batch"`` runs the identical competition as one
    :class:`~repro.distributed.execution.BatchPhases` flood on the
    columnar round engine — bit-identical assignment and stats.
    ``backend="async"`` runs it on the α-synchronized asynchronous engine
    under a ``delivery`` schedule and optional ``faults`` plan
    (``docs/async.md``); note the one-shot
    competition requires every vertex to decide, so fault plans that
    crash a node through its decision round raise
    :class:`~repro.errors.SimulationError` naming it — use drop faults
    (a vertex always holds its own entry).
    ``telemetry`` (or the ambient trace) enables the run span and the
    ``mpx.rounds`` metrics stream.
    """
    if beta <= 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    if mode not in ("full", "topone"):
        raise ParameterError(f"mode must be 'full' or 'topone', got {mode!r}")
    execution = Execution(
        graph, "mpx", seed=seed, word_budget=word_budget, backend=backend,
        delivery=delivery, faults=faults, telemetry=telemetry, mode=mode,
    )
    n = graph.num_vertices
    shifts = {
        v: stream(seed, "mpx-shift", v).expovariate(beta) for v in range(n)
    }
    budget = max((math.floor(s) for s in shifts.values()), default=0)
    with execution.span(
        "mpx.partition", "mpx.partition_seconds", mode=mode, n=n
    ) as run_span:
        if execution.batch:
            runner = BatchPhases(
                execution.batch_engine(), "full" if mode == "full" else 1, math.floor
            )
            best_origin = runner.flood(shifts, budget).best_origin
            center_of = {v: best_origin[v] for v in range(n)}
            runner.engine.halt(range(n))
        else:
            algorithms = [MPXNodeAlgorithm(v, seed, beta, mode) for v in range(n)]
            for algorithm in algorithms:
                algorithm.configure(budget)
            network = execution.network(algorithms)
            network.run_rounds(budget + 1)
            center_of = {}
            for v in range(n):
                algorithm = algorithm_at(network, v, MPXNodeAlgorithm)
                if algorithm.center is None:
                    raise SimulationError(
                        f"vertex {v} was never assigned a center "
                        f"(it did not run its decision round {budget + 1})"
                    )
                center_of[v] = algorithm.center
        if run_span is not None:
            run_span.add("rounds", budget + 1)
    by_center: dict[int, list[int]] = {}
    for v, center in center_of.items():
        by_center.setdefault(center, []).append(v)
    clusters = [
        Cluster(index=i, color=i, vertices=frozenset(by_center[center]), center=center)
        for i, center in enumerate(sorted(by_center))
    ]
    cut = sum(1 for u, v in graph.edges() if center_of[u] != center_of[v])
    return DistributedMPXResult(
        decomposition=NetworkDecomposition(graph, clusters),
        center_of=center_of,
        stats=execution.stats,
        rounds=budget + 1,
        cut_edges=cut,
        cut_fraction=cut / graph.num_edges if graph.num_edges else 0.0,
    )
