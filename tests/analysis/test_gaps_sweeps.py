"""Tests for in-run gap statistics."""

from __future__ import annotations

import math

import pytest

from repro.analysis import GapStatistics, gap_profile, phase_gap_statistics
from repro.core.carving import carve_block
from repro.core.shifts import sample_phase_radii
from repro.errors import ParameterError
from repro.graphs import Graph, erdos_renyi, grid_graph, path_graph


class TestPhaseGapStatistics:
    def _outcome(self, graph, beta=1.0, seed=3):
        active = set(graph.vertices())
        radii = sample_phase_radii(seed, 1, active, beta)
        return carve_block(graph, active, radii)

    def test_counts_consistent(self):
        graph = erdos_renyi(50, 0.08, seed=2)
        outcome = self._outcome(graph)
        stats = phase_gap_statistics(outcome, 1.0)
        assert stats.active == 50
        assert stats.joined == len(outcome.block)
        assert stats.join_rate == pytest.approx(stats.joined / 50)
        assert 0 <= stats.lone_broadcasts <= 50

    def test_floor_is_exp_minus_beta(self):
        graph = path_graph(10)
        stats = phase_gap_statistics(self._outcome(graph, beta=0.7), 0.7)
        assert stats.floor == pytest.approx(math.exp(-0.7))

    def test_gap_order_statistics(self):
        graph = grid_graph(5, 5)
        stats = phase_gap_statistics(self._outcome(graph), 1.0)
        assert stats.mean_gap <= stats.max_gap
        assert stats.median_gap <= stats.max_gap
        assert stats.mean_gap >= 0.0

    def test_empty_outcome_rejected(self):
        from repro.core.carving import PhaseOutcome

        with pytest.raises(ParameterError):
            phase_gap_statistics(PhaseOutcome(), 1.0)

    def test_bad_beta(self):
        graph = path_graph(4)
        with pytest.raises(ParameterError):
            phase_gap_statistics(self._outcome(graph), 0.0)


class TestGapProfile:
    def test_lemma5_floor_in_run_expectation(self):
        """In-run Lemma 5: the MEAN phase-1 join rate over independent
        seeds clears e^{-beta}.  (Single phases can dip below — joins are
        correlated within a phase — so the check is on the expectation.)
        """
        graph = erdos_renyi(120, 0.05, seed=4)
        beta = 1.0
        rates = []
        for seed in range(20):
            series = gap_profile(graph, beta=beta, phases=1, seed=seed)
            rates.append(series[0].join_rate)
        mean = sum(rates) / len(rates)
        spread = (max(rates) - min(rates)) or 0.05
        assert mean >= math.exp(-beta) - spread / math.sqrt(len(rates))

    def test_above_floor_is_descriptive(self):
        graph = erdos_renyi(60, 0.06, seed=4)
        series = gap_profile(graph, beta=1.0, phases=5, seed=4)
        for stats in series:
            assert stats.above_floor == (stats.join_rate >= stats.floor)

    def test_stops_at_exhaustion(self):
        graph = path_graph(6)
        series = gap_profile(graph, beta=0.2, phases=100, seed=5)
        assert len(series) < 100
        assert sum(stats.joined for stats in series) == 6

    def test_active_counts_decrease(self):
        graph = erdos_renyi(80, 0.06, seed=6)
        series = gap_profile(graph, beta=1.0, phases=8, seed=6)
        actives = [stats.active for stats in series]
        assert all(a >= b for a, b in zip(actives, actives[1:]))

    def test_validation(self):
        with pytest.raises(ParameterError):
            gap_profile(path_graph(3), beta=1.0, phases=0)

