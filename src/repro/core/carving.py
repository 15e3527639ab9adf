"""The single-phase carving kernel (paper §2, "Construction").

Given the current graph :math:`G_t` (as an active vertex set) and one
radius ``r_v`` per active vertex, this module computes the block
:math:`W_t`:

1. every vertex ``v`` *broadcasts* ``r_v`` to its ``⌊r_v⌋``-neighbourhood
   in :math:`G_t` (optionally capped at ``range_cap`` hops);
2. every vertex ``y`` records ``m_i = r_{v_i} − d_{G_t}(y, v_i)`` for each
   broadcast that reaches it (its own included, with ``m = r_y``);
3. ``y`` joins :math:`W_t` **iff** ``m₁ − m₂ > 1``, where ``m₁ ≥ m₂`` are
   the two largest recorded values and ``m₂ = 0`` when only one broadcast
   arrived.  The argmax vertex ``v₁`` is ``y``'s *center*.

The same kernel runs inside the centralized drivers (Theorems 1–3) and the
oracle hierarchy, and is the ground truth the distributed protocol is
cross-validated against.

Top-two sweep
-------------
The join rule only reads the two largest values, so — as in the paper's
CONGEST implementation — no vertex needs to hear more than the top two.
:func:`carve_block` runs one level-synchronous, multi-source sweep over
the active set.  Every vertex keeps one pair of slots, each holding an
origin ``o`` heard at hop distance ``d`` with value ``r_o − d``, ordered
by ``(value descending, origin ascending)``.  Round 0 seeds every vertex
with its own broadcast.  In round ``d`` a vertex sends to its active
neighbours exactly the entries that entered its slots in round ``d − 1``,
still hold them when that round ends, and are still in range
(``d − 1 < reach(o)``).  A receiver discards an origin it already holds
(a later copy is never better) and any entry a full second slot
dominates.  A phase therefore costs ``O(rounds · live edges)`` instead
of the sum of all ball sizes.

*One pair of slots is enough.*  A forwardable entry (``d < reach(o) ≤
⌊r_o⌋``) has value ``r_o − d ≥ 1``, while an entry at its range limit
has value ``r_o − ⌊r_o⌋ < 1`` — unless it stopped at ``range_cap``, and
then it arrives in round ``range_cap``, after the last round anything is
forwarded.  So while forwarding is still possible, every forwardable
entry outranks every non-forwardable one, and the top two among
forwardable entries (what a vertex must forward) are exactly the
forwardable members of its top two.

*Exactness.*  By induction on ``d``, after round ``d`` every vertex's
slots are the exact top two among its entries at distance ``≤ d``.
Suppose origin ``a`` is in ``y``'s true top two at distance ``d``, and
let ``w`` be ``y``'s predecessor on a shortest path to ``a``; then
``d(w, a) = d − 1 < reach(a)``, so ``a`` is forwardable at ``w``.  If
``a`` were not in ``w``'s top two, two entries ``b``, ``c`` beating it
there would be forwardable too (their values are at least ``a``'s,
which is ``≥ 1``), would reach ``y`` within one more hop, each losing at most the
one unit ``a`` loses — so both would beat ``a`` at ``y``, a
contradiction.  Hence ``w`` forwards ``a`` in round ``d`` and ``y``
records it.  Values are computed as ``r_o − d`` exactly as a per-vertex
BFS would, and for ``d ≤ ⌊r_o⌋`` that subtraction is exact in floating
point, so the order argument holds bit for bit and ``best``/``second``
equal the values of the full broadcast.

``TopTwo.count`` is the number of broadcasts heard *saturating at 2*:
filtered entries are never delivered, so the sweep cannot count them.
Every reader only tells a lone broadcast (1) from a contested one (≥ 2).

Tie-breaking: radii are continuous, so exact ties between shifted values
have probability zero; for bit-level determinism we still order competitors
by ``(m, -origin)`` so equal values resolve toward the smaller origin id.
This choice can only matter on measure-zero events and never affects the
guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Container, Mapping

from ..errors import ParameterError
from ..graphs.activeset import ActiveSet, blocked_from_active
from ..graphs.graph import Graph

__all__ = ["TopTwo", "PhaseOutcome", "carve_block", "broadcast_reach"]


@dataclass
class TopTwo:
    """The two largest shifted values seen by one vertex.

    ``best`` / ``second`` are the values ``m₁`` / ``m₂``; ``best_origin``
    is the center candidate ``v₁``.  ``second`` defaults to 0.0, the
    paper's convention when no second broadcast arrives.  ``count`` is
    the number of broadcasts heard, saturating at 2.
    """

    best: float = -math.inf
    best_origin: int = -1
    second: float = 0.0
    second_origin: int = -1
    count: int = 0

    def offer(self, value: float, origin: int) -> None:
        """Account for a broadcast with shifted value ``value`` from ``origin``."""
        self.count = min(self.count + 1, 2)
        if value > self.best or (value == self.best and origin < self.best_origin):
            if self.count > 1:
                self.second, self.second_origin = self.best, self.best_origin
            self.best, self.best_origin = value, origin
        elif self.count > 1 and (
            self.second_origin == -1
            or value > self.second
            or (value == self.second and origin < self.second_origin)
        ):
            self.second, self.second_origin = value, origin

    @property
    def gap(self) -> float:
        """``m₁ − m₂`` (with the ``m₂ = 0`` convention for lone broadcasts)."""
        second = self.second if self.count > 1 else 0.0
        return self.best - second

    @property
    def joins(self) -> bool:
        """The paper's join rule: ``m₁ − m₂ > 1``."""
        return self.gap > 1.0

    def joins_with_threshold(self, threshold: float) -> bool:
        """Generalised join rule ``m₁ − m₂ > threshold`` (ablation only).

        The paper's constant is 1 — exactly the per-hop decay of the
        shifted values, which is what makes Claim 3 (shortest-path
        closure, hence *strong* diameter) go through.  Thresholds below 1
        break that closure and produce disconnected clusters; thresholds
        above 1 only shrink blocks and slow exhaustion.  Exercised by
        ``benchmarks/bench_ablation.py``.
        """
        return self.gap > threshold


@dataclass
class PhaseOutcome:
    """Result of carving one block.

    Attributes
    ----------
    block:
        The carved block ``W_t`` (vertices joining this phase).
    center_of:
        For every vertex of ``block``, the center it chose.
    top_two:
        Per active vertex, its :class:`TopTwo` record — kept so analyses
        (gap distributions, Lemma 5 checks) can inspect the full outcome.
    """

    block: set[int] = field(default_factory=set)
    center_of: dict[int, int] = field(default_factory=dict)
    top_two: dict[int, TopTwo] = field(default_factory=dict)


def broadcast_reach(radius: float, range_cap: int | None) -> int:
    """Hop range of a broadcast with radius ``radius``: ``⌊r⌋``, optionally capped.

    The cap models the fixed per-phase round budget of the distributed
    protocol (``k`` rounds — Lemma 1 guarantees the cap is w.h.p. inactive).
    """
    if radius < 0:
        raise ParameterError(f"radius must be >= 0, got {radius}")
    reach = math.floor(radius)
    if range_cap is not None:
        reach = min(reach, range_cap)
    return reach


def carve_block(
    graph: Graph,
    active: Container[int] | ActiveSet,
    radii: Mapping[int, float],
    range_cap: int | None = None,
    gap_threshold: float = 1.0,
) -> PhaseOutcome:
    """Carve one block out of ``G[active]`` using the given radii.

    Parameters
    ----------
    graph:
        Host graph.
    active:
        The vertices of the current graph :math:`G_t`.  Must contain
        exactly the keys of ``radii``.
    radii:
        ``vertex -> r_v`` for every active vertex.
    range_cap:
        Optional hop cap on every broadcast (the distributed protocol's
        per-phase round budget; ``None`` reproduces the paper's idealised
        unbounded broadcast).
    gap_threshold:
        The join rule's gap (paper: 1.0).  Exposed **for ablation
        studies only** — any value below 1 voids the strong-diameter
        guarantee (see :meth:`TopTwo.joins_with_threshold`).

    Returns
    -------
    PhaseOutcome
        Block, chosen centers and per-vertex top-two records.

    Notes
    -----
    Every vertex hears at least its own broadcast (distance 0 is always
    within range since ``⌊r⌋ ≥ 0``), so ``m₁`` is always defined — matching
    the paper's observation that an isolated vertex joins iff ``r_y > 1``.
    The broadcasts are delivered by the top-two sweep described in the
    module docstring.
    """
    n = graph.num_vertices
    blocked = blocked_from_active(n, active)
    order = sorted(radii)
    for v in order:
        if not 0 <= v < n or blocked[v]:
            raise ParameterError(f"radius given for inactive vertex {v}")
    reach = {v: broadcast_reach(radii[v], range_cap) for v in order}
    # Slot columns, indexed by vertex: value, origin and the round the
    # entry arrived in (= its hop distance).  An empty slot is (-inf, -1).
    best, second = [-math.inf] * n, [-math.inf] * n
    best_of, second_of = [-1] * n, [-1] * n
    best_round, second_round = [0] * n, [0] * n
    sends: list[tuple[int, int]] = []
    for v in order:
        best[v], best_of[v] = radii[v], v
        if reach[v] > 0:
            sends.append((v, v))
    indptr, indices = graph.csr()
    d = 0
    while sends:
        d += 1
        touched: set[int] = set()
        for w, o in sends:
            value = radii[o] - d
            for y in indices[indptr[w]:indptr[w + 1]]:
                if blocked[y]:
                    continue
                # A held origin never re-enters: a later copy has a smaller
                # value, so it can only beat the second slot, and only when
                # it holds the first one.
                b = best[y]
                if value > b or (value == b and o < best_of[y]):
                    second[y], second_of[y] = b, best_of[y]
                    second_round[y] = best_round[y]
                    best[y], best_of[y], best_round[y] = value, o, d
                else:
                    s = second[y]
                    if not (
                        (value > s or (value == s and o < second_of[y]))
                        and o != best_of[y]
                    ):
                        continue
                    second[y], second_of[y], second_round[y] = value, o, d
                touched.add(y)
        sends = []
        for y in touched:
            o = best_of[y]
            if best_round[y] == d and d < reach[o]:
                sends.append((y, o))
            o = second_of[y]
            if second_round[y] == d and d < reach[o]:
                sends.append((y, o))
    outcome = PhaseOutcome()
    top_two, block, center_of = outcome.top_two, outcome.block, outcome.center_of
    for y in order:
        m1, v1 = best[y], best_of[y]
        if second_of[y] == -1:
            m2, count = 0.0, 1
        else:
            m2, count = second[y], 2
        top_two[y] = TopTwo(m1, v1, m2, second_of[y], count)
        # TopTwo.joins_with_threshold, inlined: a method call per active
        # vertex was a large share of a phase's time on sparse graphs.
        if m1 - m2 > gap_threshold:
            block.add(y)
            center_of[y] = v1
    return outcome
