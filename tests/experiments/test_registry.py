"""Scenario registry, adapters and aggregation over a real tiny run."""

from __future__ import annotations

import math

import pytest

from repro.errors import ParameterError
from repro.experiments import (
    ALGORITHMS,
    SCENARIOS,
    aggregate_experiment,
    aggregate_trials,
    build_experiment,
    confidence_interval,
    get_scenario,
    mean_curve,
    per_trial_rows,
    quantile,
    run_experiment,
    scenario_names,
)


class TestRegistry:
    def test_expected_scenarios_present(self):
        names = scenario_names()
        for required in (
            "er-sweep",
            "grid-vs-tree",
            "strong-vs-weak",
            "high-radius",
            "congest-rounds",
            "kernel-scaling",
            "engine-scaling",
            "oracle-scaling",
            "smoke",
        ):
            assert required in names

    def test_every_scenario_uses_a_registered_algorithm(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.algorithm in ALGORITHMS, name
            assert scenario.points, name
            assert scenario.description, name

    def test_engine_adapter_cross_validates_against_sync(self):
        from repro.experiments.spec import TrialSpec
        from repro.experiments.adapters import run_trial

        trial = TrialSpec(
            algorithm="engine",
            graph="conn:48:0.04",
            params=(("k", 3), ("compare", "sync")),
            seed=11,
            graph_seed=11,
            index=0,
        )
        record = run_trial(trial)
        assert record["matches_sync"] is True
        assert record["checksum"] == run_trial(trial)["checksum"]  # deterministic
        assert record["rounds"] > 0 and record["messages"] > 0

    def test_oracle_adapter_validates_stretch_and_is_deterministic(self):
        from repro.experiments.spec import TrialSpec
        from repro.experiments.adapters import run_trial

        trial = TrialSpec(
            algorithm="oracle",
            graph="gnp_fast:160:0.03",
            params=(("queries", 256), ("check", 48)),
            seed=19,
            graph_seed=19,
            index=0,
        )
        record = run_trial(trial)
        assert record["stretch_ok"] is True
        assert record["scales"] >= 1
        assert record["queries"] == 256
        assert record["checksum"] == run_trial(trial)["checksum"]

    def test_oracle_adapter_checksum_is_backend_independent(self, monkeypatch):
        from repro.experiments.spec import TrialSpec
        from repro.experiments.adapters import run_trial
        from repro.graphs import _kernel

        trial = TrialSpec(
            algorithm="oracle",
            graph="torus:12:12",
            params=(("queries", 200), ("check", 24)),
            seed=7,
            graph_seed=7,
            index=0,
        )
        with_numpy = run_trial(trial)
        monkeypatch.setattr(_kernel, "USE_NUMPY", False)
        assert run_trial(trial) == with_numpy

    def test_unknown_scenario_raises(self):
        with pytest.raises(ParameterError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_build_experiment_overrides(self):
        spec = build_experiment("smoke", trials=7, root_seed=123)
        assert spec.trials == 7
        assert spec.root_seed == 123
        assert spec.name == "smoke"

    def test_build_experiment_defaults(self):
        scenario = get_scenario("er-sweep")
        spec = build_experiment("er-sweep")
        assert spec.trials == scenario.trials
        assert spec.root_seed == scenario.root_seed


def _distributed_trial(algorithm, **params):
    from repro.experiments.spec import TrialSpec

    return TrialSpec(
        algorithm=algorithm,
        graph="er:40:0.1",
        params=tuple(sorted(params.items())),
        seed=5,
        graph_seed=5,
        index=0,
    )


class TestDistributedAdapters:
    """The shootout and robustness legs over the EN/LS/MPX drivers."""

    @pytest.mark.parametrize("algo", ["en", "ls", "mpx"])
    def test_shootout_record_is_backend_independent(self, algo):
        from repro.experiments.adapters import run_trial

        sync = run_trial(_distributed_trial("shootout", algo=algo, backend="sync"))
        batch = run_trial(_distributed_trial("shootout", algo=algo, backend="batch"))
        assert (sync["algo"], sync["backend"], batch["backend"]) == (algo, "sync", "batch")
        assert {k: v for k, v in sync.items() if k != "backend"} == {
            k: v for k, v in batch.items() if k != "backend"
        }
        assert sync["rounds"] > 0 and sync["messages"] > 0
        if algo == "mpx":
            assert sync["phases"] == 1

    @pytest.mark.parametrize("algo", ["en", "ls", "mpx"])
    def test_robustness_fifo_matches_sync_without_drift(self, algo):
        from repro.experiments.adapters import run_trial

        record = run_trial(_distributed_trial("robustness", algo=algo, delivery="fifo"))
        assert record["algo"] == algo
        assert record["matches_sync"] is True
        assert record["critical_path_rounds"] == record["rounds"]
        assert record["critical_path_drift"] == 0
        assert record["dropped"] == record["delayed"] == record["reordered"] == 0

    @pytest.mark.parametrize("leg", ["shootout", "robustness"])
    def test_unknown_algo_names_the_leg(self, leg):
        from repro.experiments.adapters import run_trial

        with pytest.raises(ParameterError, match=f"{leg} algo must be"):
            run_trial(_distributed_trial(leg, algo="bogus"))


class TestSmokeScenarioEndToEnd:
    def test_smoke_runs_and_aggregates(self):
        result = run_experiment(build_experiment("smoke", trials=3))
        assert not result.failures
        rows = aggregate_experiment(result)
        assert len(rows) == 1
        row = rows[0]
        assert row["graph"] == "er:24:0.2"
        assert row["trials"] == 3
        assert row["n"] == 24
        # EN clusters are always connected (finite strong diameter);
        # the 2k-2 bound itself is probabilistic, so don't pin it here.
        assert row["disconnected"] == 0
        strong = row.get("strong_diameter", row.get("strong_diameter_max"))
        assert strong is not None and strong >= 0

    def test_per_trial_rows(self):
        result = run_experiment(build_experiment("smoke", trials=2))
        rows = per_trial_rows(result)
        assert len(rows) == 2
        assert [row["trial"] for row in rows] == [0, 1]
        assert all(row["cached"] is False for row in rows)


class TestAggregation:
    def test_quantile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 4.0
        assert quantile(values, 0.5) == 2.5

    def test_quantile_validation(self):
        with pytest.raises(ParameterError):
            quantile([], 0.5)
        with pytest.raises(ParameterError):
            quantile([1.0], 1.5)

    def test_confidence_interval(self):
        assert confidence_interval([3.0]) == 0.0
        values = [1.0, 2.0, 3.0, 4.0]
        expected = 1.96 * math.sqrt(5.0 / 3.0) / 2.0
        assert confidence_interval(values) == pytest.approx(expected)

    def test_mean_curve_pads_short_runs_with_zero(self):
        assert mean_curve([[4.0, 2.0], [2.0]]) == [3.0, 1.0]
        assert mean_curve([]) == []

    def test_aggregate_trials_generic(self):
        records = [
            {"n": 10, "rounds": 4, "ok": True},
            {"n": 10, "rounds": 6, "ok": False},
            {"n": 20, "rounds": 8, "ok": True},
        ]
        rows = aggregate_trials(records, group_by=["n"])
        assert rows[0]["n"] == 10 and rows[0]["trials"] == 2
        assert rows[0]["rounds_mean"] == 5.0
        assert rows[0]["ok_frac"] == 0.5
        assert rows[1]["ok_frac"] == 1.0

    def test_aggregate_trials_constant_metric_collapses(self):
        records = [{"n": 10, "bound": 4}, {"n": 10, "bound": 4}]
        rows = aggregate_trials(records, group_by=["n"])
        assert rows[0]["bound"] == 4
        assert "bound_mean" not in rows[0]

    def test_aggregate_trials_validation(self):
        with pytest.raises(ParameterError, match="group_by"):
            aggregate_trials([{"a": 1}], group_by=[])
        with pytest.raises(ParameterError, match="missing group column"):
            aggregate_trials([{"a": 1}], group_by=["b"])
        assert aggregate_trials([], group_by=["a"]) == []
