"""Building blocks of the decomposition stage and its correctness checks.

``decompose_distributed`` is called through its public signature.  Each
result is checked in O(n + m): ``validate()`` (partition, proper colouring)
plus a center-rooted BFS inside every cluster, which certifies that the
cluster is connected and that its strong diameter is at most twice its
radius bound.  The all-pairs ``validate(max_diameter=…)`` is not used: it
costs tens of seconds at n = 2·10⁴.
"""

from __future__ import annotations

import dataclasses
import math
import random

from repro.core import decompose_distributed
from repro.errors import DecompositionError
from repro.graphs import parse_graph_spec

from .workloads import SHIFT_SEED


def default_k(n: int) -> int:
    """``⌈ln n⌉`` (at least 2), the oracle's level-0 choice."""
    return max(2, math.ceil(math.log(max(n, 2))))


def decompose(graph, backend: str):
    """One Theorem-1 run of the distributed protocol on ``backend``."""
    return decompose_distributed(
        graph, k=default_k(graph.num_vertices), seed=SHIFT_SEED, backend=backend
    )


def radius_bound(result, k: int) -> int:
    """Largest hop radius any cluster may have around its center.

    A vertex joins the center whose shifted broadcast reaches it, so its
    distance to that center is at most ``⌊r_center⌋``.  Radii below the
    Lemma-1 threshold ``k + 1`` give ``⌊r⌋ ≤ k``; larger ones are listed
    as truncation events.
    """
    return max([k] + [math.floor(e.radius) for e in result.truncation_events])


def problems(graph, result) -> list[str]:
    """Everything wrong with one decomposition result (empty when correct)."""
    decomposition = result.decomposition
    try:
        decomposition.validate()
    except DecompositionError as exc:
        return [f"validate(): {exc}"]
    bound = radius_bound(result, default_k(graph.num_vertices))
    indptr, indices = graph.csr()
    owner = [-1] * graph.num_vertices
    for cluster in decomposition.clusters:
        for v in cluster.vertices:
            owner[v] = cluster.index
    depth = [-1] * graph.num_vertices
    found = []
    for cluster in decomposition.clusters:
        center = cluster.center
        if center is None or owner[center] != cluster.index:
            found.append(f"cluster {cluster.index} has no member center")
            continue
        depth[center] = 0
        level, reached, radius = [center], 1, 0
        while level:
            nxt = []
            for u in level:
                for w in indices[indptr[u]:indptr[u + 1]]:
                    if owner[w] == cluster.index and depth[w] < 0:
                        depth[w] = depth[u] + 1
                        nxt.append(w)
            if nxt:
                radius += 1
            reached += len(nxt)
            level = nxt
        if reached != len(cluster.vertices):
            found.append(f"cluster {cluster.index} is disconnected")
        elif radius > bound:
            found.append(
                f"cluster {cluster.index} has radius {radius} > bound {bound} "
                f"(strong diameter may exceed {2 * bound})"
            )
    return found


def fingerprint(result) -> tuple:
    """Everything the sync = batch contract pins: clusters, rounds, stats."""
    clusters = [
        (c.color, c.center, sorted(c.vertices))
        for c in result.decomposition.clusters
    ]
    return (
        clusters,
        result.phases,
        list(result.rounds_per_phase),
        dataclasses.astuple(result.stats),
    )


def graph_seeds(seed: int, count: int) -> list[int]:
    """``count`` graph seeds drawn from the run's ``seed``, one per repetition."""
    rng = random.Random(f"perfbench-graphs:{seed}")
    return [rng.getrandbits(31) for _ in range(count)]


def input_graph(spec: str, seed: int):
    """The benchmark input graph for ``spec`` under ``seed``."""
    return parse_graph_spec(spec, seed=seed)
