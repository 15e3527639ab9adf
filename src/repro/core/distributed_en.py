"""The distributed Elkin–Neiman protocol on the synchronous simulator.

This is the paper's algorithm as an actual message-passing protocol.  Each
phase ``t`` has ``B_t + 2`` rounds:

* rounds ``1..B_t``: *broadcast* — every live vertex injects its radius
  ``r_v`` and forwards received radii one hop per round, carrying the
  origin's radius and the hop distance (``O(1)`` words);
* end of round ``B_t + 1``: every vertex has heard every broadcast within
  range (a distance-``d`` value arrives in round ``d + 1``) and applies the
  join rule ``m₁ − m₂ > 1`` locally;
* round ``B_t + 2``: joiners announce ``left`` to their neighbours and
  halt; survivors prune their neighbour lists and start phase ``t + 1``.

Two forwarding modes implement the paper's two message-size regimes:

* ``mode="full"`` forwards every newly arrived value — simple, but a
  vertex may relay many values in one round (LOCAL-style bandwidth);
* ``mode="toptwo"`` forwards only the two largest shifted values from its
  list, the paper's CONGEST optimisation (§2, end): "the third and onward
  values in v's list will not be used by any other vertex".  Messages are
  then ``O(1)`` words per edge per round.

Phase length ``B_t``:

* ``adaptive`` (default): ``B_t = max_v ⌊r_v⌋`` over live vertices,
  computed by the driver from the shared radius streams.  This reproduces
  the paper's idealised unbounded broadcast exactly, so the run is
  bit-identical to the centralized reference
  (:func:`repro.core.elkin_neiman.decompose` with ``use_range_cap=False``).
* ``fixed``: ``B_t = ⌊k⌋``, the budget Lemma 1 makes sufficient w.h.p.;
  broadcasts that would outrun it (probability ``≤ 2/c`` in total) are
  truncated.  Matches the centralized reference with ``use_range_cap=True``.

Radii are drawn from streams keyed by ``(seed, phase, vertex)`` — each node
derives its own radius from common knowledge (the seed) plus local identity,
with no communication.  The driver re-derives the same values for
bookkeeping (phase lengths, truncation events); it never tells the nodes
anything they could not know.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Sequence

from ..distributed.execution import Execution
from ..distributed.message import Message
from ..distributed.metrics import NetworkStats
from ..distributed.node import Context, NodeAlgorithm
from ..errors import ParameterError
from ..graphs.activeset import ActiveSet
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED
from .decomposition import NetworkDecomposition
from .params import PhaseSchedule, Theorem1Schedule
from .shifts import TruncationEvent, find_truncation_events, sample_phase_radii, sample_radius

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.broadcast import ShiftedFlood
    from ..telemetry import Telemetry

__all__ = ["ENNodeAlgorithm", "DistributedRunResult", "decompose_distributed"]

ForwardMode = Literal["full", "toptwo"]

_BCAST = "b"
_LEFT = "left"


class ENNodeAlgorithm(NodeAlgorithm):
    """Node-local state machine of the Elkin–Neiman protocol.

    The driver calls :meth:`begin_phase` between phases (phase boundaries
    are common knowledge in a synchronous network); everything else happens
    through messages.
    """

    def __init__(self, vertex: int, seed: int, mode: ForwardMode) -> None:
        if mode not in ("full", "toptwo"):
            raise ParameterError(f"mode must be 'full' or 'toptwo', got {mode!r}")
        self.vertex = vertex
        self.seed = seed
        self.mode: ForwardMode = mode
        # Lifetime state.
        self.active_neighbors: set[int] = set()
        self.joined_phase: int | None = None
        self.center: int | None = None
        # Per-phase state.
        self.phase = 0
        self.radius = 0.0
        self.broadcast_rounds = 0
        self.round_in_phase = 0
        self.entries: dict[int, tuple[float, int]] = {}
        self._new_origins: list[int] = []
        self._sent_origins: set[int] = set()

    # ------------------------------------------------------------------
    # Control plane (driver)
    # ------------------------------------------------------------------
    def begin_phase(self, phase: int, beta: float, broadcast_rounds: int) -> None:
        """Arm the node for phase ``phase`` with rate ``beta``.

        ``broadcast_rounds`` is the phase's broadcast budget ``B_t``
        (``⌊k⌋`` in fixed mode; the global max range in adaptive mode).
        The node draws its radius from the shared stream — the same value
        the centralized reference uses.
        """
        self.phase = phase
        self.radius = sample_radius(self.seed, phase, self.vertex, beta)
        self.broadcast_rounds = broadcast_rounds
        self.round_in_phase = 0
        self.entries = {self.vertex: (self.radius, 0)}
        self._new_origins = [self.vertex]
        self._sent_origins = set()

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
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
            self._forward(ctx)
        if self.round_in_phase == self.broadcast_rounds + 1:
            self._decide()
        elif self.round_in_phase == self.broadcast_rounds + 2:
            if self.joined_phase == self.phase:
                for neighbor in sorted(self.active_neighbors):
                    ctx.send(neighbor, (_LEFT,))
                ctx.halt()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _eligible(self, origin: int) -> bool:
        """Whether ``origin``'s value may travel one more hop."""
        radius, distance = self.entries[origin]
        return distance + 1 <= math.floor(radius)

    def _shifted(self, origin: int) -> float:
        radius, distance = self.entries[origin]
        return radius - distance

    def _forward(self, ctx: Context) -> None:
        if self.mode == "full":
            outgoing = [o for o in self._new_origins if self._eligible(o)]
        else:
            eligible = [o for o in self.entries if self._eligible(o)]
            eligible.sort(key=lambda o: (-self._shifted(o), o))
            outgoing = [o for o in eligible[:2] if o not in self._sent_origins]
        self._new_origins = []
        for origin in outgoing:
            self._sent_origins.add(origin)
            radius, distance = self.entries[origin]
            for neighbor in sorted(self.active_neighbors):
                ctx.send(neighbor, (_BCAST, origin, radius, distance + 1))

    def _decide(self) -> None:
        best = -math.inf
        best_origin = -1
        second = -math.inf
        for origin, (radius, distance) in self.entries.items():
            value = radius - distance
            if value > best or (value == best and origin < best_origin):
                if best_origin != -1:
                    second = max(second, best)
                best, best_origin = value, origin
            else:
                second = max(second, value)
        if len(self.entries) == 1:
            second = 0.0
        if best - second > 1.0:
            self.joined_phase = self.phase
            self.center = best_origin


def _decide_batch(flood: ShiftedFlood, live: Sequence[int]) -> dict[int, int]:
    """:meth:`ENNodeAlgorithm._decide` over the batch flood's summaries."""
    best_value, second_value = flood.best_value, flood.second_value
    best_origin, num_entries = flood.best_origin, flood.num_entries
    joined: dict[int, int] = {}
    for v in live:
        second = second_value[v] if num_entries[v] > 1 else 0.0
        if best_value[v] - second > 1.0:
            joined[v] = best_origin[v]
    return joined


@dataclass
class DistributedRunResult:
    """Everything a distributed run produced.

    Attributes
    ----------
    decomposition:
        The strong-diameter network decomposition (colour = phase − 1).
    stats:
        Communication costs (rounds, messages, words, peak words per edge
        per round — the CONGEST figure of merit).
    phases:
        Number of phases executed.
    rounds_per_phase:
        ``B_t + 2`` for each phase.
    nominal_phases:
        The schedule's promised budget.
    exhausted_within_nominal:
        Whether the run finished within it (Corollary 7 event).
    truncation_events:
        Lemma-1 bad events observed (empty w.p. ``≥ 1 − 2/c``).
    """

    decomposition: NetworkDecomposition
    stats: NetworkStats
    phases: int
    rounds_per_phase: list[int]
    nominal_phases: int
    exhausted_within_nominal: bool
    truncation_events: list[TruncationEvent] = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        """Total communication rounds across all phases."""
        return sum(self.rounds_per_phase)


def decompose_distributed(
    graph: Graph,
    k: float | None = None,
    c: float = 4.0,
    schedule: PhaseSchedule | None = None,
    seed: int = DEFAULT_SEED,
    mode: ForwardMode = "toptwo",
    adaptive_phase_length: bool = True,
    word_budget: int | None = None,
    max_phases: int | None = None,
    backend: str = "sync",
    delivery: str = "fifo",
    faults: str | None = None,
    telemetry: "Telemetry | None" = None,
) -> DistributedRunResult:
    """Run the distributed protocol to completion on ``graph``.

    Parameters
    ----------
    graph:
        Communication topology (also the graph being decomposed).
    k, c:
        Theorem 1 parameters, used when ``schedule`` is not given.
    schedule:
        Explicit phase schedule (pass a
        :class:`~repro.core.params.Theorem2Schedule` /
        :class:`~repro.core.params.Theorem3Schedule` to run those variants
        distributedly).
    seed:
        Root seed shared by nodes and driver.
    mode:
        ``"toptwo"`` (paper's CONGEST optimisation, default) or ``"full"``.
    adaptive_phase_length:
        See the module docstring; ``True`` matches the uncapped centralized
        reference exactly, ``False`` uses the paper's fixed ``⌊k⌋`` budget.
    word_budget:
        Optional per-edge-per-round word cap; the engine raises
        :class:`~repro.errors.CongestViolation` when exceeded.
    max_phases:
        Hard safety cap (default ``10 × nominal + 100``).
    backend:
        ``"sync"`` (default) steps one :class:`ENNodeAlgorithm` per vertex
        through :class:`SyncNetwork` — the reference implementation.
        ``"batch"`` executes the identical protocol columnarly on the
        batch round engine (:class:`repro.distributed.execution.BatchPhases`);
        outputs, round counts and stats are bit-identical, only the
        wall-clock differs (see ``benchmarks/bench_engine.py``).
        ``"async"`` steps the same node algorithms on the α-synchronized
        :class:`~repro.distributed.async_net.AsyncNetwork` — bit-identical
        to ``"sync"`` under the default FIFO delivery with no faults
        (``docs/async.md``).
    delivery:
        Delivery-schedule spec for ``backend="async"``
        (:mod:`repro.distributed.schedule`): ``"fifo"`` (default),
        ``"random:B"``, ``"latest:B"``, ``"starve:B[:F]"``.
    faults:
        Fault-plan spec for ``backend="async"``
        (:mod:`repro.distributed.faults`), e.g.
        ``"crash:3@2-6;drop:0.05"``; ``None`` for a fault-free run.
    telemetry:
        Explicit :class:`~repro.telemetry.Telemetry` collector, or
        ``None`` to use the ambient one (``--trace`` /
        ``REPRO_TELEMETRY``).  When enabled the run emits phase spans
        and the ``en.rounds`` per-round metrics stream — identically
        keyed on both backends.

    Returns
    -------
    DistributedRunResult
    """
    if mode not in ("full", "toptwo"):
        raise ParameterError(f"mode must be 'full' or 'toptwo', got {mode!r}")
    execution = Execution(
        graph, "en", seed=seed, word_budget=word_budget, backend=backend,
        delivery=delivery, faults=faults, telemetry=telemetry, mode=mode,
    )
    if schedule is None:
        if k is None:
            raise ParameterError("either k or an explicit schedule is required")
        schedule = Theorem1Schedule(n=max(graph.num_vertices, 1), k=k, c=c)
    if max_phases is None:
        max_phases = 10 * schedule.nominal_phases + 100
    runner = execution.runner(
        lambda v: ENNodeAlgorithm(v, seed, mode),
        ENNodeAlgorithm,
        "full" if mode == "full" else 2,
        math.floor,
        _decide_batch,
    )
    truncations: list[TruncationEvent] = []

    def step(phase: int, active: ActiveSet) -> tuple[int, dict[int, int]]:
        beta = schedule.beta(phase)
        # Driver-side rederivation of the radii (control plane bookkeeping
        # only — each node draws its own value from the same stream; the
        # batch runner consumes these exact values).
        radii = sample_phase_radii(seed, phase, active, beta)
        truncations.extend(
            find_truncation_events(radii, phase, getattr(schedule, "k", math.inf))
        )
        if adaptive_phase_length:
            budget = max((math.floor(r) for r in radii.values()), default=0)
        else:
            budget = schedule.range_cap(phase)
        return budget, runner.run_phase(
            phase, budget, radii, lambda node: node.begin_phase(phase, beta, budget)
        )

    joins, rounds_per_phase = execution.phases(
        step,
        max_phases,
        f"graph not exhausted after {max_phases} phases "
        f"(nominal budget {schedule.nominal_phases})",
        "en.decompose",
        "en.phase_seconds",
        mode=mode,
        n=graph.num_vertices,
    )
    centers = {v: center for joined in joins for v, center in joined.items()}
    decomposition = NetworkDecomposition.from_blocks(
        graph, [sorted(joined) for joined in joins], centers
    )
    phases = len(joins)
    return DistributedRunResult(
        decomposition=decomposition,
        stats=execution.stats,
        phases=phases,
        rounds_per_phase=rounds_per_phase,
        nominal_phases=schedule.nominal_phases,
        exhausted_within_nominal=phases <= schedule.nominal_phases,
        truncation_events=truncations,
    )
