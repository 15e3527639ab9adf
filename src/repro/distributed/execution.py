"""One execution of a distributed decomposition protocol.

The distributed EN, LS and MPX drivers run the same epoch — shifted
values flood for ``B_t`` rounds, every vertex decides locally, joiners
announce and halt — on any of three backends: ``"sync"`` (one
:class:`~repro.distributed.node.NodeAlgorithm` per vertex on
:class:`~repro.distributed.network.SyncNetwork`), ``"async"`` (the same
node algorithms on the α-synchronized
:class:`~repro.distributed.async_net.AsyncNetwork`, under a delivery
schedule and fault plan) and ``"batch"`` (the columnar
:class:`~repro.engine.core.BatchEngine`).

:class:`Execution` is everything such a run shares that is not protocol
logic: the backend/delivery/faults validation (its only copy), building
the node network or the batch engine, the ``<protocol>.rounds`` stream,
the ``<protocol>.causal`` log, the run span with its async adversary
counters, and the per-phase histogram.  The drivers keep the phase
logic — radii, schedule, truncation bookkeeping, result assembly.

Two phase runners execute one multi-phase protocol phase at a time,
both returning ``joiner -> center``:

* :class:`NodePhases` arms the live node algorithms through a
  per-protocol callable, runs ``budget + 2`` rounds and reads the
  joiners back;
* :class:`BatchPhases` runs one :class:`~repro.engine.broadcast
  .ShiftedFlood` epoch with the protocol's caps, forwarding policy and
  decision rule, then the shared announce round.

Both are bit-identical to each other on every seeded run
(``tests/engine/test_en_equivalence.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from ..engine.broadcast import LiveTopology, ShiftedFlood, announce_round
from ..engine.core import BatchEngine
from ..errors import ParameterError, SimulationError
from ..graphs.activeset import ActiveSet
from ..graphs.graph import Graph
from ..telemetry import maybe_span, resolve
from .async_net import AsyncNetwork
from .network import SyncNetwork
from .node import NodeAlgorithm, algorithm_at

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Span, Telemetry
    from .metrics import NetworkStats

__all__ = ["BatchPhases", "Execution", "NodePhases"]

#: ``(flood, live vertices) -> joiner -> center`` — a batch decision rule.
Decide = Callable[[ShiftedFlood, Sequence[int]], "dict[int, int]"]


class NodePhases:
    """Phase runner over one node algorithm per vertex (sync or async)."""

    def __init__(self, network, kind: type[NodeAlgorithm]) -> None:
        self.network = network
        self.kind = kind

    def run_phase(
        self,
        phase: int,
        budget: int,
        live: Mapping[int, float],
        arm: Callable[[NodeAlgorithm], None],
    ) -> dict[int, int]:
        """Arm every ``live`` vertex, run ``budget + 2`` rounds, collect
        the vertices whose node algorithm joined in ``phase``."""
        network, kind = self.network, self.kind
        for v in live:
            arm(algorithm_at(network, v, kind))
        network.run_rounds(budget + 2)
        joined: dict[int, int] = {}
        for v in live:
            algorithm = algorithm_at(network, v, kind)
            if algorithm.joined_phase == phase:
                if algorithm.center is None:
                    raise SimulationError(
                        f"vertex {v} joined in phase {phase} without a center"
                    )
                joined[v] = algorithm.center
        return joined


class BatchPhases:
    """Phase runner on the batch engine: flood, decide, announce.

    ``policy`` is the :class:`ShiftedFlood` forwarding policy, ``cap``
    maps an injected value to its broadcast range and ``decide`` is the
    protocol's decision rule over the flood's summaries.  Node
    algorithms are not used here; the flood consumes the driver's
    values directly.
    """

    def __init__(
        self,
        engine: BatchEngine,
        policy,
        cap: Callable[[float], int],
        decide: Decide | None = None,
    ) -> None:
        self.engine = engine
        self.topology = LiveTopology(engine.graph)
        self.policy = policy
        self.cap = cap
        self.decide = decide
        self._carry = 0  # announce messages in flight into the next phase

    def flood(self, values: Mapping[int, float], budget: int) -> ShiftedFlood:
        """Rounds ``1 .. budget + 1`` of one epoch over the live vertices."""
        cap = self.cap
        flood = ShiftedFlood(
            self.engine,
            self.topology,
            values,
            {v: cap(value) for v, value in values.items()},
            self.policy,
            first_round_delivered=self._carry,
        )
        flood.run(budget)
        return flood

    def run_phase(
        self, phase: int, budget: int, radii: Mapping[int, float], arm=None
    ) -> dict[int, int]:
        """One phase of ``budget + 2`` rounds (``arm`` is for node runners)."""
        flood = self.flood(radii, budget)
        joined = self.decide(flood, self.topology.live_list)
        self._carry = announce_round(self.engine, self.topology, list(joined))
        return joined


class Execution:
    """Backend, adversary and telemetry of one driver call.

    ``protocol`` prefixes the round stream and causal log names;
    ``stream_attrs`` follow ``backend`` on the round stream.  Raises
    :class:`~repro.errors.ParameterError` for an unknown backend, and for
    a delivery schedule or fault plan off ``backend="async"`` — silently
    ignoring an adversary would make a run look robust without testing
    anything.
    """

    def __init__(
        self,
        graph: Graph,
        protocol: str,
        *,
        seed: int,
        word_budget: int | None,
        backend: str,
        delivery: str,
        faults: str | None,
        telemetry: "Telemetry | None",
        **stream_attrs,
    ) -> None:
        if backend not in ("sync", "batch", "async"):
            raise ParameterError(
                f"backend must be 'sync', 'batch' or 'async', got {backend!r}"
            )
        if backend != "async" and (
            delivery != "fifo" or faults not in (None, "", "none")
        ):
            raise ParameterError(
                f"delivery/faults require backend='async', got backend={backend!r}"
            )
        self.graph = graph
        self.seed = seed
        self.word_budget = word_budget
        self.backend = backend
        self.delivery = delivery
        self.faults = faults
        self.tel = tel = resolve(telemetry)
        self.rounds = (
            tel.round_stream(f"{protocol}.rounds", backend=backend, **stream_attrs)
            if tel is not None
            else None
        )
        self.causal = tel.causal_log(f"{protocol}.causal") if tel is not None else None
        self.engine = None  # the network or batch engine, once built

    @property
    def batch(self) -> bool:
        return self.backend == "batch"

    @property
    def stats(self) -> "NetworkStats":
        return self.engine.stats

    def network(self, algorithms):
        """The started sync or async network over ``algorithms``."""
        common = dict(
            seed=self.seed, word_budget=self.word_budget,
            rounds=self.rounds, causal=self.causal,
        )
        if self.backend == "async":
            network = AsyncNetwork(
                self.graph, algorithms, delivery=self.delivery,
                faults=self.faults, **common,
            )
        else:
            network = SyncNetwork(self.graph, algorithms, **common)
        network.start()
        self.engine = network
        return network

    def batch_engine(self) -> BatchEngine:
        """The columnar engine for ``backend="batch"``."""
        self.engine = BatchEngine(
            self.graph, self.word_budget, rounds=self.rounds, causal=self.causal
        )
        return self.engine

    def runner(
        self,
        node: Callable[[int], NodeAlgorithm],
        kind: type[NodeAlgorithm],
        policy,
        cap: Callable[[float], int],
        decide: Decide,
    ) -> NodePhases | BatchPhases:
        """The phase runner for this backend; see the module docstring."""
        if self.batch:
            return BatchPhases(self.batch_engine(), policy, cap, decide)
        return NodePhases(self.network(node), kind)

    @contextmanager
    def span(
        self, name: str, histogram: str | None = None, /, **attrs
    ) -> Iterator["Span | None"]:
        """The run span: ``backend`` first, then ``attrs``, then on async
        the replay key ``(delivery, faults)``.  On success it flushes the
        round stream and annotates the adversary counters; ``histogram``
        (if given) records the span's wall time once it has closed."""
        attrs = {"backend": self.backend, **attrs}
        if self.backend == "async":
            attrs["delivery"] = self.delivery
            attrs["faults"] = self.faults or "none"
        with maybe_span(self.tel, name, **attrs) as span:
            yield span
            if span is not None:
                self.engine.finish_rounds()
                async_stats = getattr(self.engine, "async_stats", None)
                if async_stats is not None:
                    span.annotate(**async_stats.as_dict())
        if span is not None and histogram is not None:
            self.tel.histogram(histogram).record(span.seconds)

    def phases(
        self,
        step: Callable[[int, ActiveSet], "tuple[int, dict[int, int]]"],
        max_phases: int,
        exhausted: str,
        name: str,
        histogram: str,
        /,
        **attrs,
    ) -> tuple[list[dict[int, int]], list[int]]:
        """Run phases until every vertex has joined.

        ``step(phase, active)`` runs one phase over the live vertices and
        returns ``(budget, joiner -> center)``; the phase takes
        ``budget + 2`` rounds.  Each phase gets a ``phase`` span whose
        wall time feeds ``histogram``; the run span ``name`` (see
        :meth:`span`) counts phases and rounds.  Raises
        :class:`~repro.errors.SimulationError` with ``exhausted`` past
        ``max_phases``.  Returns the per-phase joins and round counts.
        """
        tel = self.tel
        hist = tel.histogram(histogram) if tel is not None else None
        active = ActiveSet.full(self.graph.num_vertices)
        joins: list[dict[int, int]] = []
        rounds_per_phase: list[int] = []
        with self.span(name, **attrs) as run_span:
            while active:
                phase = len(joins) + 1
                if phase > max_phases:
                    raise SimulationError(exhausted)
                with maybe_span(tel, "phase", phase=phase) as phase_span:
                    budget, joined = step(phase, active)
                    if phase_span is not None:
                        phase_span.annotate(budget=budget)
                        phase_span.add("joined", len(joined))
                if phase_span is not None:
                    hist.record(phase_span.seconds)
                rounds_per_phase.append(budget + 2)
                joins.append(joined)
                active -= joined.keys()
            if run_span is not None:
                run_span.add("phases", len(joins))
                run_span.add("rounds", sum(rounds_per_phase))
        return joins, rounds_per_phase
