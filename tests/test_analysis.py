"""Tests for the analysis layer: reporting helpers and the evaluation testbed."""

import dataclasses

import pytest

from repro.analysis import (
    PINNED_COMPONENTS,
    build_testbed,
    format_mapping,
    format_series,
    format_table,
)
from repro.analysis.experiments import (
    figure16_personalization,
    figure21_drl_vs_nsga2,
    run_methods,
)
from repro.cluster import ON_PREM
from repro.optimizer.atlas_ga import AtlasGA


class TestReporting:
    def test_format_table_alignment_and_values(self):
        rows = [
            {"method": "atlas", "cost": 1.234, "plans": 9},
            {"method": "remap", "cost": 10.5, "plans": 1},
        ]
        text = format_table(rows, title="Comparison")
        assert "Comparison" in text
        assert "atlas" in text and "remap" in text
        assert "1.23" in text and "10.50" in text
        assert len({len(line) for line in text.splitlines()[1:]}) == 1  # aligned

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="Empty")

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "b" in text and "a" not in text.splitlines()[0]

    def test_format_series_downsamples(self):
        text = format_series({"reward": list(range(100))}, max_points=10)
        assert text.count(",") <= 10

    def test_format_mapping(self):
        text = format_mapping({"key": 3.14159}, precision=2, title="T")
        assert "T" in text and "3.14" in text


@pytest.fixture(scope="module")
def small_testbed():
    return build_testbed(
        duration_ms=45_000.0,
        base_rps=10.0,
        peak_rps=15.0,
        evaluation_budget=250,
        population_size=16,
        train_iterations=10,
        traces_per_api=8,
    )


class TestTestbed:
    def test_pinned_components_stay_on_prem(self, small_testbed):
        for component in PINNED_COMPONENTS["social-network"]:
            assert small_testbed.preferences.pinned_placement[component] == ON_PREM

    def test_onprem_limit_is_binding_under_burst(self, small_testbed):
        estimate = small_testbed.atlas.knowledge.estimator.predict_scaled(
            small_testbed.expected_scale
        )
        peak = estimate.peak("cpu_millicores", small_testbed.application.component_names)
        assert peak > small_testbed.onprem_cpu_limit

    def test_all_on_prem_plan_is_infeasible_for_burst(self, small_testbed):
        evaluator = small_testbed.evaluator()
        assert not evaluator.is_feasible(small_testbed.baseline_plan)

    def test_no_stress_latencies_positive(self, small_testbed):
        latencies = small_testbed.no_stress_latencies()
        assert set(latencies) == set(small_testbed.application.api_names)
        assert all(v > 0 for v in latencies.values())

    def test_scaled_requests_cached_and_larger(self, small_testbed):
        burst = small_testbed.scaled_requests()
        again = small_testbed.scaled_requests()
        assert burst is again
        assert len(burst) > len(small_testbed.requests) * 2

    def test_measure_plan_returns_simulation(self, small_testbed):
        result = small_testbed.measure_plan(small_testbed.baseline_plan, scale=1.0)
        assert result.request_count() > 0
        factor = small_testbed.measured_impact_factor(result)
        # At the learning-time load the all-on-prem placement is at most mildly contended
        # (the physical capacity is sized for the owner's burst-time limit).
        assert 0.8 <= factor <= 3.0

    def test_hotel_testbed_builds(self):
        testbed = build_testbed(
            application="hotel-reservation",
            duration_ms=30_000.0,
            base_rps=8.0,
            peak_rps=12.0,
            evaluation_budget=200,
            population_size=12,
            train_iterations=5,
            traces_per_api=5,
        )
        assert testbed.application.name == "hotel-reservation"
        assert testbed.preferences.pinned_placement

    def test_unknown_application_rejected(self):
        with pytest.raises(ValueError):
            build_testbed(application="bank")


class _SearchStarted(Exception):
    """Raised by the spy once a search has received its configuration."""


class TestExperimentConfigs:
    def test_a_tuned_ga_config_survives_every_derivation(self, small_testbed, monkeypatch):
        """``run_methods``, Figure 16 and Figure 21 hand the search the testbed's own
        GA configuration with only the budget (and Figure 21's crossover) changed."""
        tuned = dataclasses.replace(
            small_testbed.atlas.config.ga,
            mutation_rate=0.21,
            immigrants_per_generation=3,
            local_search_period=2,
            max_generations=17,
        )
        monkeypatch.setattr(small_testbed.atlas.config, "ga", tuned)
        received = []

        def spy(self, evaluator, components, config=None, *args, **kwargs):
            received.append(config)
            raise _SearchStarted

        monkeypatch.setattr(AtlasGA, "__init__", spy)
        for run in (
            lambda: run_methods(small_testbed, methods=("atlas",), search_budget=200),
            lambda: figure16_personalization(small_testbed, {"none": []}, search_budget=200),
            lambda: figure21_drl_vs_nsga2(small_testbed, evaluation_budget=200),
        ):
            with pytest.raises(_SearchStarted):
                run()
        assert received == [
            dataclasses.replace(tuned, evaluation_budget=200),
            dataclasses.replace(tuned, evaluation_budget=200),
            dataclasses.replace(tuned, evaluation_budget=200, crossover="drl"),
        ]
