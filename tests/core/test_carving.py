"""Unit tests for the single-phase carving kernel."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.carving import TopTwo, broadcast_reach, carve_block
from repro.errors import ParameterError
from repro.graphs import Graph, GraphBuilder, cycle_graph, path_graph, star_graph


def carve_by_ball(graph, active, radii, range_cap=None, gap_threshold=1.0):
    """Differential oracle: one bounded BFS per broadcast over ``active``.

    The paper's construction read literally — every vertex offers
    ``r_v − d`` to every active vertex within ``reach(v)`` hops — so a
    phase costs the sum of all ball sizes.  Returns ``(block, center_of,
    records)`` for comparison with :func:`carve_block`'s top-two sweep.
    """
    records = {v: TopTwo() for v in radii}
    for v in sorted(radii):
        records[v].offer(radii[v], v)
        seen, frontier = {v}, [v]
        for d in range(1, broadcast_reach(radii[v], range_cap) + 1):
            level = []
            for u in frontier:
                for w in graph.neighbors(u):
                    if w in active and w not in seen:
                        seen.add(w)
                        level.append(w)
                        records[w].offer(radii[v] - d, v)
            frontier = level
    block = {y for y, r in records.items() if r.joins_with_threshold(gap_threshold)}
    return block, {y: records[y].best_origin for y in block}, records


def summary(record):
    return (
        record.best,
        record.best_origin,
        record.second,
        record.second_origin,
        record.count > 1,
    )


def assert_matches_oracle(graph, active, radii, range_cap=None, gap_threshold=1.0):
    out = carve_block(graph, active, radii, range_cap, gap_threshold)
    block, center_of, records = carve_by_ball(
        graph, active, radii, range_cap, gap_threshold
    )
    assert out.block == block
    assert out.center_of == center_of
    assert {y: summary(r) for y, r in out.top_two.items()} == {
        y: summary(r) for y, r in records.items()
    }
    return out


class TestTopTwo:
    def test_single_offer(self):
        t = TopTwo()
        t.offer(3.0, 7)
        assert t.best == 3.0
        assert t.best_origin == 7
        assert t.gap == 3.0  # m2 = 0 convention for lone broadcasts

    def test_two_offers(self):
        t = TopTwo()
        t.offer(3.0, 7)
        t.offer(1.0, 2)
        assert t.gap == 2.0
        assert t.second == 1.0

    def test_promotion(self):
        t = TopTwo()
        t.offer(1.0, 2)
        t.offer(3.0, 7)
        assert (t.best, t.best_origin) == (3.0, 7)
        assert (t.second, t.second_origin) == (1.0, 2)

    def test_third_smaller_ignored(self):
        t = TopTwo()
        t.offer(3.0, 1)
        t.offer(2.0, 2)
        t.offer(1.0, 3)
        assert (t.best, t.second) == (3.0, 2.0)

    def test_middle_insert(self):
        t = TopTwo()
        t.offer(3.0, 1)
        t.offer(1.0, 2)
        t.offer(2.0, 3)
        assert (t.best, t.second) == (3.0, 2.0)
        assert t.second_origin == 3

    def test_exact_tie_prefers_smaller_origin(self):
        t = TopTwo()
        t.offer(3.0, 9)
        t.offer(3.0, 4)
        assert t.best_origin == 4
        assert t.second_origin == 9
        assert t.gap == 0.0

    def test_joins_rule(self):
        t = TopTwo()
        t.offer(2.5, 0)
        assert t.joins  # 2.5 - 0 > 1
        t.offer(2.0, 1)
        assert not t.joins  # 2.5 - 2.0 <= 1


class TestBroadcastReach:
    def test_floor(self):
        assert broadcast_reach(2.9, None) == 2
        assert broadcast_reach(3.0, None) == 3
        assert broadcast_reach(0.5, None) == 0

    def test_cap(self):
        assert broadcast_reach(7.2, 3) == 3
        assert broadcast_reach(1.2, 3) == 1

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            broadcast_reach(-0.1, None)


class TestCarveBlock:
    def test_isolated_vertex_joins_iff_radius_over_one(self):
        g = Graph(2)
        out = carve_block(g, {0, 1}, {0: 1.5, 1: 0.9})
        assert out.block == {0}
        assert out.center_of == {0: 0}

    def test_exactly_one_means_no_join(self):
        # The rule is strict: m1 - m2 > 1.
        g = Graph(1)
        out = carve_block(g, {0}, {0: 1.0})
        assert out.block == set()

    def test_dominant_center_claims_ball(self):
        g = path_graph(5)
        radii = {0: 4.6, 1: 0.1, 2: 0.1, 3: 0.1, 4: 0.1}
        out = carve_block(g, set(g.vertices()), radii)
        # m at vertex v is 4.6 - v; own values are 0.1: gaps all > 1.
        assert out.block == {0, 1, 2, 3}
        assert all(out.center_of[v] == 0 for v in out.block)
        # vertex 4 is at distance 4 but reach = floor(4.6) = 4: m = 0.6 vs own 0.1
        assert 4 not in out.block

    def test_two_competing_centers_boundary_excluded(self):
        g = path_graph(7)
        radii = {v: 0.0 for v in g.vertices()}
        radii[0] = 3.5
        radii[6] = 3.5
        out = carve_block(g, set(g.vertices()), radii)
        # Vertex 3 hears 3.5-3 = 0.5 from both: gap 0 -> excluded.
        assert 3 not in out.block
        assert 2 in out.block and out.center_of[2] == 0
        assert 4 in out.block and out.center_of[4] == 6

    def test_active_set_respected(self):
        g = path_graph(5)
        active = {0, 1, 3, 4}  # vertex 2 carved earlier
        radii = {0: 3.7, 1: 0.0, 3: 3.7, 4: 0.0}
        out = carve_block(g, active, radii)
        # 0's broadcast cannot cross the inactive vertex 2.
        assert out.center_of[1] == 0
        assert out.center_of[4] == 3

    def test_radius_for_inactive_vertex_rejected(self):
        g = path_graph(3)
        with pytest.raises(ParameterError, match="inactive"):
            carve_block(g, {0, 1}, {0: 1.0, 2: 1.0})

    def test_range_cap_truncates(self):
        g = path_graph(6)
        radii = {v: 0.0 for v in g.vertices()}
        radii[0] = 5.9
        uncapped = carve_block(g, set(g.vertices()), radii)
        capped = carve_block(g, set(g.vertices()), radii, range_cap=2)
        assert 3 in uncapped.block
        assert 3 not in capped.block  # broadcast stops at distance 2
        assert 1 in capped.block

    def test_every_vertex_hears_itself(self):
        g = cycle_graph(5)
        radii = {v: 0.3 for v in g.vertices()}
        out = carve_block(g, set(g.vertices()), radii)
        assert all(out.top_two[v].count >= 1 for v in g.vertices())
        assert out.block == set()  # all gaps are 0 (equal radii, reach 0)

    def test_star_center_wins_all(self):
        g = star_graph(6)
        radii = {v: 0.0 for v in g.vertices()}
        radii[0] = 2.5
        out = carve_block(g, set(g.vertices()), radii)
        assert out.block == set(g.vertices())
        assert all(out.center_of[v] == 0 for v in g.vertices())

    def test_block_empty_when_no_radii_exceed_one(self):
        g = path_graph(4)
        radii = {v: 0.5 for v in g.vertices()}
        out = carve_block(g, set(g.vertices()), radii)
        assert out.block == set()

    def test_deterministic(self):
        g = cycle_graph(9)
        radii = {v: (v * 7 % 5) + 0.25 for v in g.vertices()}
        a = carve_block(g, set(g.vertices()), radii)
        b = carve_block(g, set(g.vertices()), radii)
        assert a.block == b.block
        assert a.center_of == b.center_of


@st.composite
def carving_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    builder = GraphBuilder(n)
    if possible:
        for u, v in draw(st.lists(st.sampled_from(possible), max_size=3 * n)):
            builder.add_edge(u, v)
    active = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    # Integer and repeated radii force exact ties between shifted values.
    radius = st.one_of(
        st.sampled_from([0, 1, 2, 3, 0.5, 1.0, 2.0, 2.5]),
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    )
    radii = {v: draw(radius) for v in sorted(active)}
    return builder.build(), active, radii


class TestTopTwoSweep:
    """The sweep against :func:`carve_by_ball`, the per-vertex-BFS oracle."""

    @given(
        carving_inputs(),
        st.sampled_from([None, 1, 2]),
        st.sampled_from([0.25, 1.0, 1.75]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_vertex_bfs(self, inputs, range_cap, gap_threshold):
        graph, active, radii = inputs
        assert_matches_oracle(graph, active, radii, range_cap, gap_threshold)

    def test_far_origin_displaces_near_one_mid_sweep(self):
        # Origin 4 claims vertices 5 and 6 in rounds 1-2; origin 0 arrives
        # in rounds 4-6 and pushes it down to the second slot everywhere.
        g = path_graph(7)
        radii = {v: 0.1 for v in g.vertices()}
        radii[0], radii[4] = 9.5, 2.5
        out = assert_matches_oracle(g, set(g.vertices()), radii)
        assert out.block == set(g.vertices())
        assert set(out.center_of.values()) == {0}
        assert summary(out.top_two[5]) == (4.5, 0, 1.5, 4, True)
        assert summary(out.top_two[6]) == (3.5, 0, 0.5, 4, True)

    def test_range_limit_entry_decides_but_is_not_forwarded(self):
        # Under range_cap=2, origins 0 and 4 reach vertex 2 in round 2 at
        # their range limit and take its top two, yet neither may travel
        # further; origin 3 got there in round 1 and was forwarded before
        # they displaced it, so vertex 1 still hears it.
        g = path_graph(5)
        radii = {0: 9.0, 1: 0.1, 2: 0.2, 3: 3.0, 4: 8.5}
        out = assert_matches_oracle(g, set(g.vertices()), radii, range_cap=2)
        assert summary(out.top_two[2]) == (7.0, 0, 6.5, 4, True)
        assert summary(out.top_two[1]) == (8.0, 0, 1.0, 3, True)
        assert summary(out.top_two[3]) == (7.5, 4, 3.0, 3, True)
        assert out.block == {0, 1, 3, 4}
