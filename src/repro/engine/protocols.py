"""Columnar ports of the standard protocols in :mod:`repro.distributed.protocols`.

Each protocol here reproduces its :class:`~repro.distributed.node.NodeAlgorithm`
reference — outputs, round counts, halt rounds, the full
:class:`~repro.distributed.metrics.NetworkStats` and (with a tracer) the
exact event stream — while storing all state in flat per-vertex arrays
and executing each round as bulk work over the CSR buffers:

* :class:`BatchFlood` / :class:`BatchBFSTree` ride the fused
  frontier-list kernel (:func:`repro.graphs._kernel.bfs_levels`): a
  flood *is* a BFS, so the whole run collapses into one kernel call plus
  arithmetic over the levels;
* :class:`BatchLeaderElection` is delta-driven: only vertices whose
  leader estimate improved transmit, via :func:`~repro.engine.primitives.scatter_min`;
* :class:`BatchConvergecastSum` schedules the tree aggregation by report
  round; float accumulation replays the reference inbox order exactly
  (children merged in ``(report round, id)`` order), so totals are
  bit-identical, not merely close.

The module-level helpers (:func:`flood`, :func:`bfs_tree`,
:func:`convergecast_sum`, :func:`leader_election`) mirror the
``run_*`` drivers of the reference module and return result objects that
also carry the engine stats.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..distributed.metrics import NetworkStats
from ..graphs._kernel import bfs_levels, gather_frontier_rows
from ..graphs.graph import Graph
from ..telemetry.events import EventRecorder
from . import _backend
from .core import BatchEngine
from .primitives import scatter_min

__all__ = [
    "BatchProtocol",
    "BatchFlood",
    "BatchBFSTree",
    "BatchConvergecastSum",
    "BatchLeaderElection",
    "FloodResult",
    "BFSTreeResult",
    "ConvergecastResult",
    "LeaderElectionResult",
    "flood",
    "bfs_tree",
    "convergecast_sum",
    "leader_election",
]


class BatchProtocol:
    """Base class for columnar protocols driven by a :class:`BatchEngine`.

    Subclasses implement :meth:`run`, which must execute the whole
    protocol — advancing rounds via ``engine.begin_round()``, reporting
    traffic via ``engine.account_sends(...)`` / ``engine.deliver(...)``
    and halting vertices via ``engine.halt(...)`` — and return a result
    object.  The engine supplies the simulator-level semantics (stats,
    CONGEST budget, tracing); the protocol supplies the columnar round
    logic.
    """

    def run(self, engine: BatchEngine):
        raise NotImplementedError


# ----------------------------------------------------------------------
# Flood
# ----------------------------------------------------------------------
@dataclass
class FloodResult:
    """Outcome of a batch flood: arrival rounds (= distances) plus costs."""

    arrival: Dict[int, int]
    stats: NetworkStats
    rounds: int


class BatchFlood(BatchProtocol):
    """Flood a token from ``root``; equivalent of :class:`FloodNode`."""

    def __init__(self, root: int) -> None:
        self.root = root

    def run(self, engine: BatchEngine) -> FloodResult:
        graph = engine.graph
        indptr, indices = graph.csr()
        root = self.root
        levels = bfs_levels(graph, [root], bytearray(graph.num_vertices))
        arrival = {v: d for d, level in enumerate(levels) for v in level}
        if indptr[root + 1] == indptr[root]:  # isolated root: nothing in flight
            return FloodResult(arrival, engine.stats, 0)
        payload = ("flood", root)
        pending = 0
        for depth, level in enumerate(levels):
            if depth > 0:
                engine.begin_round()
                engine.deliver(pending)
            messages = sum(indptr[v + 1] - indptr[v] for v in level)
            if engine.tracer is not None:
                for v in level:
                    engine.trace_broadcast(
                        v, indices[indptr[v] : indptr[v + 1]], payload, 2
                    )
            first = level[0]
            engine.account_sends(
                messages,
                2 * messages,
                2 if messages else 0,
                offender=(first, indices[indptr[first]]) if messages else None,
            )
            pending = messages
        engine.begin_round()  # the quiet round that drains the last wave
        engine.deliver(pending)
        return FloodResult(arrival, engine.stats, engine.round)


def flood(
    graph: Graph,
    root: int,
    word_budget: int | None = None,
    tracer: EventRecorder | None = None,
) -> FloodResult:
    """Batch counterpart of :func:`repro.distributed.protocols.run_flood`."""
    return BatchFlood(root).run(BatchEngine(graph, word_budget, tracer))


# ----------------------------------------------------------------------
# BFS tree
# ----------------------------------------------------------------------
@dataclass
class BFSTreeResult:
    """Parent/depth layers of a BFS tree plus per-vertex children lists."""

    parents: Dict[int, int]
    depths: Dict[int, int]
    children: Dict[int, List[int]]
    stats: NetworkStats
    rounds: int


class BatchBFSTree(BatchProtocol):
    """Build a BFS tree from ``root``; equivalent of :class:`BFSTreeNode`.

    The reference node adopts the *first announcer* as parent; since all
    depth-``d`` vertices announce simultaneously and inboxes are sorted
    by sender, that is the minimum-id neighbour one level up.
    """

    def __init__(self, root: int) -> None:
        self.root = root

    def run(self, engine: BatchEngine) -> BFSTreeResult:
        graph = engine.graph
        n = graph.num_vertices
        indptr, indices = graph.csr()
        root = self.root
        levels = bfs_levels(graph, [root], bytearray(n))
        level_of = array("l", bytes(array("l").itemsize * n))
        for depth, level in enumerate(levels):
            for v in level:
                level_of[v] = depth + 1  # 0 = unreached
        parents: Dict[int, int] = {root: -1}
        depths: Dict[int, int] = {root: 0}
        children: Dict[int, List[int]] = {v: [] for lvl in levels for v in lvl}
        for depth in range(1, len(levels)):
            for v in levels[depth]:
                for position in range(indptr[v], indptr[v + 1]):
                    u = indices[position]
                    if level_of[u] == depth:  # stored depth + 1
                        parents[v] = u
                        children[u].append(v)
                        break
                depths[v] = depth
        if indptr[root + 1] == indptr[root]:
            return BFSTreeResult(parents, depths, children, engine.stats, 0)
        pending = 0
        for depth, level in enumerate(levels):
            if depth > 0:
                engine.begin_round()
                engine.deliver(pending)
            messages = words = 0
            peak = 0
            offender: Tuple[int, int] | None = None
            for v in level:
                degree = indptr[v + 1] - indptr[v]
                messages += degree
                if depth == 0:
                    words += 2 * degree
                    if degree and peak < 2:
                        peak, offender = 2, (v, indices[indptr[v]])
                else:
                    words += 2 * degree - 1  # one 1-word "child", rest "bfs"
                    if degree > 1 and peak < 2:
                        first = next(
                            indices[p]
                            for p in range(indptr[v], indptr[v + 1])
                            if indices[p] != parents[v]
                        )
                        peak, offender = 2, (v, first)
                    elif peak == 0:
                        peak, offender = 1, (v, parents[v])
            if engine.tracer is not None:
                self._trace_level(engine, depth, levels[depth], parents, indptr, indices)
            engine.account_sends(messages, words, peak, offender)
            pending = messages
        engine.begin_round()
        engine.deliver(pending)
        return BFSTreeResult(parents, depths, children, engine.stats, engine.round)

    @staticmethod
    def _trace_level(engine, depth, level, parents, indptr, indices) -> None:
        for v in level:
            row = indices[indptr[v] : indptr[v + 1]]
            if depth == 0:
                engine.trace_broadcast(v, row, ("bfs", 1), 2)
            else:
                parent = parents[v]
                engine.trace_broadcast(v, (parent,), ("child",), 1)
                engine.trace_broadcast(
                    v, [u for u in row if u != parent], ("bfs", depth + 1), 2
                )


def bfs_tree(
    graph: Graph,
    root: int,
    word_budget: int | None = None,
    tracer: EventRecorder | None = None,
) -> BFSTreeResult:
    """Batch counterpart of :func:`repro.distributed.protocols.run_bfs_tree`."""
    return BatchBFSTree(root).run(BatchEngine(graph, word_budget, tracer))


# ----------------------------------------------------------------------
# Convergecast
# ----------------------------------------------------------------------
@dataclass
class ConvergecastResult:
    """Root total of a tree aggregation plus the convergecast-stage costs."""

    total: float
    totals: Dict[int, float]
    stats: NetworkStats
    rounds: int


class BatchConvergecastSum(BatchProtocol):
    """Sum values up a precomputed tree; equivalent of :class:`ConvergecastSumNode`.

    A vertex "reports" (sends its subtree total to its parent, then
    halts) in round ``r(v) = 1 + max r(children)`` with leaves at
    ``r = 0``.  Children merge into a parent in ``(r(child), id)``
    order — exactly the order their messages appear in the reference
    node's sorted inboxes — so float totals are bit-identical.
    """

    def __init__(
        self,
        values: Mapping[int, float],
        parents: Mapping[int, int],
        children: Mapping[int, List[int]],
        depths: Mapping[int, int] | None = None,
    ) -> None:
        self.values = values
        self.parents = parents
        self.children = children
        self.depths = depths

    def run(self, engine: BatchEngine) -> ConvergecastResult:
        parents, children = self.parents, self.children
        depth_of = self.depths if self.depths is not None else self._all_depths()
        report_round: Dict[int, int] = {}
        # Deepest vertices first: r(v) depends only on r(children).
        for v in sorted(parents, key=lambda v: -depth_of[v]):
            kids = children.get(v, [])
            report_round[v] = 1 + max((report_round[c] for c in kids), default=-1)
        totals = {v: float(self.values.get(v, 0.0)) for v in parents}
        senders_by_round: Dict[int, List[int]] = {}
        for v in parents:
            if parents[v] >= 0:
                senders_by_round.setdefault(report_round[v], []).append(v)
        last = max(senders_by_round, default=-1)
        pending = 0
        for r in range(last + 1):
            if r > 0:
                engine.begin_round()
                engine.deliver(pending)
            senders = sorted(senders_by_round.get(r, ()))
            for v in senders:  # ascending = the reference inbox order
                totals[parents[v]] += totals[v]
            messages = len(senders)
            if engine.tracer is not None:
                for v in senders:
                    engine.trace_broadcast(v, (parents[v],), ("sum", totals[v]), 2)
            engine.account_sends(
                messages,
                2 * messages,
                2 if messages else 0,
                offender=(senders[0], parents[senders[0]]) if messages else None,
            )
            engine.halt(senders)
            pending = messages
        if pending:
            engine.begin_round()
            engine.deliver(pending)
        root_total = next(
            (totals[v] for v, parent in parents.items() if parent == -1), 0.0
        )
        return ConvergecastResult(root_total, totals, engine.stats, engine.round)

    def _all_depths(self) -> Dict[int, int]:
        """Tree depths in O(n): walk each unresolved parent chain once,
        then unwind it (memoised, so shared prefixes are never re-walked)."""
        parents = self.parents
        depth_of: Dict[int, int] = {}
        for v in parents:
            chain = []
            x = v
            while x not in depth_of and parents.get(x, -1) >= 0:
                chain.append(x)
                x = parents[x]
            depth = depth_of.get(x, 0)
            for node in reversed(chain):
                depth += 1
                depth_of[node] = depth
            if v not in depth_of:  # v is a root (or detached vertex)
                depth_of[v] = 0
        return depth_of


def convergecast_sum(
    graph: Graph,
    root: int,
    values: Mapping[int, float],
    word_budget: int | None = None,
    tracer: EventRecorder | None = None,
) -> ConvergecastResult:
    """Batch counterpart of :func:`run_convergecast_sum`.

    Builds the BFS tree with :func:`bfs_tree` (unmetered, like the
    reference helper's first stage), then runs the metered convergecast.
    """
    tree = bfs_tree(graph, root)
    protocol = BatchConvergecastSum(values, tree.parents, tree.children, tree.depths)
    return protocol.run(BatchEngine(graph, word_budget, tracer))


# ----------------------------------------------------------------------
# Leader election
# ----------------------------------------------------------------------
@dataclass
class LeaderElectionResult:
    """Per-vertex elected leader (min id per component) plus costs."""

    leader: Dict[int, int]
    stats: NetworkStats
    rounds: int


class BatchLeaderElection(BatchProtocol):
    """Minimum-id election; equivalent of :class:`LeaderElectionNode`.

    Delta-driven: after the initial all-broadcast, only vertices whose
    estimate improved last round transmit, so each round is one sparse
    :func:`scatter_min` over the sender frontier.
    """

    def run(self, engine: BatchEngine) -> LeaderElectionResult:
        graph = engine.graph
        n = graph.num_vertices
        indptr, indices = graph.csr()
        leader = array("l", range(n))
        if n == 0:
            return LeaderElectionResult({}, engine.stats, 0)
        sent_value = array("l", leader)
        senders = list(range(n))
        pending = self._send(engine, senders, sent_value, indptr, indices)
        # One sentinel buffer for the whole run (no id can exceed n - 1);
        # after each round only the entries the frontier touched are
        # reset, so late rounds cost O(frontier edge work), not O(n).
        incoming = array("l", [n]) * n
        while pending:
            engine.begin_round()
            engine.deliver(pending)
            scatter_min(graph, senders, sent_value, incoming)
            candidates = self._touched(graph, senders, indptr, indices, n)
            changed = []
            for v in candidates:  # ascending either way: deterministic
                value = incoming[v]
                incoming[v] = n  # reset the touched entry for next round
                if value < leader[v]:
                    leader[v] = value
                    sent_value[v] = value
                    changed.append(v)
            senders = changed
            pending = self._send(engine, senders, sent_value, indptr, indices)
        return LeaderElectionResult(
            {v: leader[v] for v in range(n)}, engine.stats, engine.round
        )

    @staticmethod
    def _touched(graph, senders, indptr, indices, n):
        """The vertices last round's frontier may have written: dense scan
        when the frontier covers most of the graph, the frontier's
        (deduplicated, sorted) neighbour set otherwise — vectorised with
        the same row-gather the scatter itself used when it pays."""
        edge_work = sum(indptr[u + 1] - indptr[u] for u in senders)
        if 4 * edge_work >= n:
            return range(n)
        if _backend.numpy_enabled() and len(senders) >= _backend.WIDE_THRESHOLD:
            np_indptr, np_indices = graph._numpy_csr()
            frontier = _backend.np.asarray(senders, dtype=np_indptr.dtype)
            targets, _counts = gather_frontier_rows(np_indptr, np_indices, frontier)
            if targets is None:
                return []
            return _backend.np.unique(targets).tolist()
        return sorted(
            {indices[p] for u in senders for p in range(indptr[u], indptr[u + 1])}
        )

    @staticmethod
    def _send(engine, senders, sent_value, indptr, indices) -> int:
        messages = sum(indptr[v + 1] - indptr[v] for v in senders)
        if engine.tracer is not None:
            for v in senders:
                engine.trace_broadcast(
                    v, indices[indptr[v] : indptr[v + 1]], ("min", sent_value[v]), 2
                )
        first = next((v for v in senders if indptr[v + 1] > indptr[v]), None)
        engine.account_sends(
            messages,
            2 * messages,
            2 if messages else 0,
            offender=(first, indices[indptr[first]]) if first is not None else None,
        )
        return messages


def leader_election(
    graph: Graph,
    word_budget: int | None = None,
    tracer: EventRecorder | None = None,
) -> LeaderElectionResult:
    """Batch counterpart of :func:`run_leader_election`."""
    return BatchLeaderElection().run(BatchEngine(graph, word_budget, tracer))
