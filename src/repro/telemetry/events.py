"""Per-message event tracing.

The simulator's send/halt event stream.  An :class:`EventRecorder`
attaches to either engine — ``SyncNetwork(tracer=...)`` or
``BatchEngine(..., tracer=...)`` — and records the identical,
bit-for-bit event stream both produce (pinned by
``tests/engine/test_congest_tracing.py``).

Within the telemetry layer the recorder is *one subscriber* of the
engine hooks, alongside the aggregated
:class:`~repro.telemetry.rounds.RoundStream`; bind it to a
:class:`~repro.telemetry.core.Telemetry` object (``telemetry=``) and
every kept event is additionally mirrored to the telemetry sink as a
``{"kind": "event"}`` record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .core import Telemetry

__all__ = ["TraceEvent", "EventRecorder"]


@dataclass(frozen=True)
class TraceEvent:
    """One traced event.

    ``kind`` is ``"send"`` (payload = message payload) or ``"halt"``
    (payload = ``None``); ``round`` is the round in which it happened.
    """

    round: int
    kind: str
    node: int
    peer: int | None
    payload: Any


@dataclass
class EventRecorder:
    """Bounded in-memory event recorder (the engines' ``tracer=``).

    Parameters
    ----------
    limit:
        Maximum number of events kept; older events are *not* evicted —
        recording simply stops (and ``truncated`` flips) so that traces
        always describe a prefix of the run.
    node_filter:
        Optional predicate on node id; events from other nodes are
        dropped.
    telemetry:
        Optional :class:`~repro.telemetry.core.Telemetry` to mirror
        kept events into (as ``{"kind": "event"}`` sink records).
    """

    limit: int = 100_000
    node_filter: Callable[[int], bool] | None = None
    events: list[TraceEvent] = field(default_factory=list)
    truncated: bool = False
    telemetry: "Telemetry | None" = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Hooks called by the engine
    # ------------------------------------------------------------------
    def on_send(self, message) -> None:
        """Record a message send (duck-typed over :class:`Message`)."""
        if self.node_filter is not None and not self.node_filter(message.sender):
            return
        self._append(
            TraceEvent(
                round=message.sent_round,
                kind="send",
                node=message.sender,
                peer=message.receiver,
                payload=message.payload,
            )
        )

    def on_halt(self, node: int, round_number: int) -> None:
        """Record a node halting."""
        if self.node_filter is not None and not self.node_filter(node):
            return
        self._append(
            TraceEvent(round=round_number, kind="halt", node=node, peer=None, payload=None)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def sends(self) -> Iterator[TraceEvent]:
        """All recorded send events, in order."""
        return (event for event in self.events if event.kind == "send")

    def halts(self) -> Iterator[TraceEvent]:
        """All recorded halt events, in order."""
        return (event for event in self.events if event.kind == "halt")

    def rounds(self) -> dict[int, list[TraceEvent]]:
        """Events grouped by round."""
        grouped: dict[int, list[TraceEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.round, []).append(event)
        return grouped

    def messages_between(self, a: int, b: int) -> list[TraceEvent]:
        """Send events on the (directed both ways) edge ``{a, b}``."""
        return [
            event
            for event in self.sends()
            if {event.node, event.peer} == {a, b}
        ]

    def _append(self, event: TraceEvent) -> None:
        if len(self.events) >= self.limit:
            self.truncated = True
            return
        self.events.append(event)
        if self.telemetry is not None:
            self.telemetry.record_event(event)
