"""Tests for the migration quality models: delay injection, availability, cost, evaluator."""

import pytest

from repro.cluster import CLOUD, ON_PREM, MigrationPlan, NodeSpec, default_network_model
from repro.learning import ApiProfiler, FootprintLearner, ResourceEstimator
from repro.quality import (
    ApiAvailabilityModel,
    ApiPerformanceModel,
    CloudCostModel,
    DelayInjector,
    MigrationPreferences,
    PricingCatalog,
    QualityEvaluator,
)
from repro.telemetry import Span, Trace


@pytest.fixture(scope="module")
def quality_stack(tiny_telemetry):
    """Performance/availability/cost models built from the tiny app's telemetry."""
    app, result = tiny_telemetry
    telemetry = result.telemetry
    baseline = MigrationPlan.all_on_prem(app.component_names)
    profiles = ApiProfiler(
        telemetry, stateful_components=app.stateful_components(), traces_per_api=20
    ).profile_all()
    footprint = FootprintLearner(telemetry).learn()
    network = default_network_model()
    performance = ApiPerformanceModel(
        traces_by_api={api: p.sample_traces for api, p in profiles.items()},
        footprint=footprint,
        network=network,
        baseline_plan=baseline,
        traces_per_api=20,
    )
    availability = ApiAvailabilityModel(
        stateful_components_by_api={api: p.stateful_components for api, p in profiles.items()},
        baseline_plan=baseline,
    )
    estimator = ResourceEstimator(app, telemetry).fit()
    estimate = estimator.predict_scaled(3.0)
    cost = CloudCostModel(
        catalog=PricingCatalog(),
        estimate=estimate,
        footprint=footprint,
        storage_by_component={c.name: c.resources.storage_gb for c in app.components},
        baseline_plan=baseline,
        time_compression=288.0,
    )
    return app, baseline, performance, availability, cost, estimate


def simple_trace():
    """Root with a parallel pair, a sequential child and a background child."""
    spans = [
        Span("t", "root", None, "Frontend", "/api", 0.0, 20.0),
        Span("t", "p1", "root", "A", "op", 2.0, 6.0),
        Span("t", "p2", "root", "B", "op", 2.5, 8.0),
        Span("t", "seq", "root", "C", "op", 11.0, 5.0),
        Span("t", "bg", "root", "D", "op", 16.5, 30.0),
    ]
    return Trace("t", "/api", spans)


class TestDelayInjector:
    def test_no_delay_is_identity(self):
        trace = simple_trace()
        injected = DelayInjector(trace).inject({})
        assert injected.latency_ms == pytest.approx(trace.latency_ms)
        for original, new in zip(
            sorted(trace.spans, key=lambda s: s.span_id),
            sorted(injected.spans, key=lambda s: s.span_id),
        ):
            assert new.start_ms == pytest.approx(original.start_ms)

    def test_sequential_delay_propagates_to_root(self):
        trace = simple_trace()
        latency = DelayInjector(trace).injected_latency_ms({("Frontend", "C"): 40.0})
        assert latency == pytest.approx(trace.latency_ms + 40.0)

    def test_parallel_delay_absorbed_by_slower_sibling(self):
        trace = simple_trace()
        # Delaying A by 2ms keeps it finishing before B (which ends at 10.5), so the
        # end-to-end latency is unchanged.
        latency = DelayInjector(trace).injected_latency_ms({("Frontend", "A"): 2.0})
        assert latency == pytest.approx(trace.latency_ms)

    def test_parallel_delay_beyond_sibling_extends_latency(self):
        trace = simple_trace()
        latency = DelayInjector(trace).injected_latency_ms({("Frontend", "A"): 50.0})
        assert latency > trace.latency_ms + 40.0

    def test_background_delay_has_no_effect(self):
        trace = simple_trace()
        latency = DelayInjector(trace).injected_latency_ms({("Frontend", "D"): 500.0})
        assert latency == pytest.approx(trace.latency_ms)

    def test_delay_on_nested_edge(self, tiny_telemetry):
        app, result = tiny_telemetry
        trace = result.telemetry.get_traces("/write", limit=1)[0]
        base = trace.latency_ms
        injected = DelayInjector(trace).injected_latency_ms({("ServiceB", "Database"): 46.0})
        assert injected == pytest.approx(base + 46.0, abs=1.0)


class TestApiPerformanceModel:
    def test_baseline_plan_has_unit_impact(self, quality_stack):
        app, baseline, performance, *_ = quality_stack
        for api in performance.apis:
            assert performance.estimate(api, baseline).impact_factor == pytest.approx(1.0)
        assert performance.qperf(baseline) == pytest.approx(1.0)

    def test_edge_delays_only_for_crossing_edges(self, quality_stack):
        app, baseline, performance, *_ = quality_stack
        plan = MigrationPlan.from_offloaded(app.component_names, ["Database"])
        delays = performance.edge_delays("/write", plan)
        assert ("ServiceB", "Database") in delays
        assert all(delta > 20.0 for delta in delays.values())
        assert performance.edge_delays("/write", baseline) == {}

    def test_edge_delays_refuses_an_api_without_traces(self, quality_stack):
        app, baseline, performance, *_ = quality_stack
        # Like estimate / estimate_latencies: a misspelt API is an error, not "no delay".
        for door in (performance.edge_delays, performance.estimate_latencies):
            with pytest.raises(KeyError, match="no traces available for API '/wirte'"):
                door("/wirte", baseline)

    def test_offloading_background_component_keeps_latency(self, quality_stack):
        app, baseline, performance, *_ = quality_stack
        plan = MigrationPlan.from_offloaded(app.component_names, ["Notifier"])
        assert performance.estimate("/read", plan).impact_factor == pytest.approx(1.0, abs=0.05)

    def test_offloading_sequential_store_hurts_write_api(self, quality_stack):
        app, baseline, performance, *_ = quality_stack
        plan = MigrationPlan.from_offloaded(app.component_names, ["Database"])
        assert performance.estimate("/write", plan).impact_factor > 3.0

    def test_qperf_weighted_by_critical_apis(self, quality_stack):
        app, baseline, performance, *_ = quality_stack
        plan = MigrationPlan.from_offloaded(app.component_names, ["Database"])
        unweighted = performance.qperf(plan)
        weighted = performance.qperf(plan, {"/write": 2.0, "/read": 1.0})
        assert weighted > unweighted

    def test_estimate_all_and_impact_factors(self, quality_stack):
        app, baseline, performance, *_ = quality_stack
        plan = MigrationPlan.from_offloaded(app.component_names, ["ServiceB"])
        estimates = performance.estimate_all(plan)
        factors = performance.impact_factors(plan)
        assert set(estimates) == set(factors) == set(performance.apis)
        for api, estimate in estimates.items():
            assert factors[api] == pytest.approx(estimate.impact_factor)

    def test_moving_whole_cloud_restores_latency(self, quality_stack):
        app, baseline, performance, *_ = quality_stack
        plan = MigrationPlan.all_cloud(app.component_names)
        # Everything collocated again (in the cloud): no inter-DC edges remain.
        assert performance.qperf(plan) == pytest.approx(1.0, abs=0.05)

    def test_api_components_and_edges(self, quality_stack):
        _app, _baseline, performance, *_ = quality_stack
        assert ("Frontend", "ServiceA") in performance.invocation_edges()
        assert "Database" in performance.api_components()["/write"]


class TestApiAvailabilityModel:
    def test_disruption_requires_stateful_move(self, quality_stack):
        app, baseline, _perf, availability, *_ = quality_stack
        stateless_move = MigrationPlan.from_offloaded(app.component_names, ["ServiceA"])
        stateful_move = MigrationPlan.from_offloaded(app.component_names, ["Database"])
        assert availability.qavai(stateless_move) == 0.0
        assert availability.disrupted_apis(stateful_move) == ["/read", "/write"]
        assert availability.qavai(stateful_move) == 2.0

    def test_weighted_disruption(self, quality_stack):
        app, _baseline, _perf, availability, *_ = quality_stack
        plan = MigrationPlan.from_offloaded(app.component_names, ["Database"])
        assert availability.qavai(plan, {"/read": 2.0, "/write": 1.0}) == 3.0

    def test_estimate_object(self, quality_stack):
        app, _baseline, _perf, availability, *_ = quality_stack
        estimate = availability.estimate(
            MigrationPlan.from_offloaded(app.component_names, ["Database"])
        )
        assert estimate.disrupted_count == 2
        assert estimate.weighted_disruption == 2.0


class TestCloudCostModel:
    def test_all_on_prem_costs_nothing(self, quality_stack):
        app, baseline, _perf, _avail, cost, _est = quality_stack
        assert cost.qcost(baseline) == pytest.approx(0.0)

    def test_offloading_increases_cost(self, quality_stack):
        app, _baseline, _perf, _avail, cost, _est = quality_stack
        plan = MigrationPlan.from_offloaded(app.component_names, ["ServiceA", "ServiceB"])
        assert cost.qcost(plan) > 0.0

    def test_cost_breakdown_components(self, quality_stack):
        app, _baseline, _perf, _avail, cost, _est = quality_stack
        plan = MigrationPlan.from_offloaded(
            app.component_names, ["ServiceA", "ServiceB", "Database"]
        )
        estimate = cost.estimate_cost(plan)
        assert estimate.compute_usd > 0.0
        assert estimate.storage_usd > 0.0  # the stateful Database moved
        assert estimate.traffic_usd >= 0.0
        assert estimate.total_usd == pytest.approx(
            estimate.compute_usd + estimate.storage_usd + estimate.traffic_usd
        )
        assert estimate.per_day_usd() > estimate.total_usd  # period is shorter than a day
        breakdown = estimate.breakdown_per_day()
        assert set(breakdown) == {"compute", "storage", "traffic"}

    def test_no_storage_cost_without_stateful_moves(self, quality_stack):
        app, _baseline, _perf, _avail, cost, _est = quality_stack
        plan = MigrationPlan.from_offloaded(app.component_names, ["ServiceA"])
        assert cost.storage_cost(plan) == 0.0

    def test_traffic_cost_counts_only_cross_dc_pairs(self, quality_stack):
        app, _baseline, _perf, _avail, cost, _est = quality_stack
        collocated = MigrationPlan.all_cloud(app.component_names)
        assert cost.traffic_cost(collocated) == 0.0
        split = MigrationPlan.from_offloaded(app.component_names, ["Database"])
        assert cost.traffic_cost(split) > 0.0

    def test_catalog_validation(self):
        with pytest.raises(ValueError):
            PricingCatalog(storage_usd_per_gb_month=-1.0)

    def test_node_series_in_estimate(self, quality_stack):
        app, _baseline, _perf, _avail, cost, _est = quality_stack
        plan = MigrationPlan.all_cloud(app.component_names)
        estimate = cost.estimate_cost(plan)
        assert len(estimate.node_series) == _est.steps
        assert all(n >= 1 for n in estimate.node_series)


class TestPreferences:
    def test_api_weights(self):
        prefs = MigrationPreferences(critical_apis=["/a"])
        assert prefs.api_weight("/a") == 2.0
        assert prefs.api_weight("/b") == 1.0
        assert prefs.api_weights(["/a", "/b"]) == {"/a": 2.0, "/b": 1.0}

    def test_pin_checks(self):
        prefs = MigrationPreferences.pin_on_prem(["X"])
        plan_ok = MigrationPlan.all_on_prem(["X", "Y"])
        plan_bad = MigrationPlan.from_offloaded(["X", "Y"], ["X"])
        assert prefs.pins_respected(plan_ok)
        assert prefs.pin_violations(plan_bad) == ["X"]

    def test_with_helpers_do_not_mutate(self):
        prefs = MigrationPreferences(critical_apis=["/a"], budget_usd=10.0)
        other = prefs.with_critical_apis(["/b"]).with_budget(5.0)
        assert prefs.critical_apis == ["/a"]
        assert prefs.budget_usd == 10.0
        assert other.critical_apis == ["/b"]
        assert other.budget_usd == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MigrationPreferences(critical_weight=0.0)
        with pytest.raises(ValueError):
            MigrationPreferences(budget_usd=-1.0)
        with pytest.raises(ValueError):
            MigrationPreferences(onprem_limits={"cpu_millicores": -5.0})

    @pytest.mark.parametrize(
        "knobs",
        [
            {"critical_weight": float("nan")},
            {"critical_weight": float("inf")},
            {"budget_usd": float("nan")},
            {"onprem_limits": {"cpu_millicores": float("nan")}},
            {"onprem_limits": {"memory_mb": 10.0, "cpu_millicores": float("nan")}},
        ],
    )
    def test_nan_knobs_are_rejected(self, knobs):
        with pytest.raises(ValueError, match="finite"):
            MigrationPreferences(**knobs)

    def test_infinity_stays_no_budget_and_no_limit(self):
        prefs = MigrationPreferences(
            budget_usd=float("inf"), onprem_limits={"cpu_millicores": float("inf")}
        )
        assert prefs.budget_usd == float("inf")
        assert prefs.onprem_limit("cpu_millicores") == float("inf")


class TestQualityEvaluator:
    def _evaluator(self, quality_stack, preferences=None):
        app, baseline, performance, availability, cost, estimate = quality_stack
        return app, QualityEvaluator(
            performance=performance,
            availability=availability,
            cost=cost,
            preferences=preferences or MigrationPreferences(),
            estimate=estimate,
        )

    def test_objectives_and_feasibility(self, quality_stack):
        app, evaluator = self._evaluator(quality_stack)
        quality = evaluator.evaluate(MigrationPlan.all_on_prem(app.component_names))
        assert quality.feasible
        assert quality.objectives() == (quality.perf, quality.avail, quality.cost)

    def test_cache_hits_do_not_recount(self, quality_stack):
        app, evaluator = self._evaluator(quality_stack)
        plan = MigrationPlan.from_offloaded(app.component_names, ["ServiceA"])
        evaluator.evaluate(plan)
        first = evaluator.evaluations
        evaluator.evaluate(plan)
        assert evaluator.evaluations == first
        assert evaluator.cache_size() >= 1

    def test_pin_constraint_violation(self, quality_stack):
        prefs = MigrationPreferences.pin_on_prem(["Database"])
        app, evaluator = self._evaluator(quality_stack, prefs)
        plan = MigrationPlan.from_offloaded(app.component_names, ["Database"])
        quality = evaluator.evaluate(plan)
        assert not quality.feasible
        assert any("Database" in v for v in quality.violations)

    def test_onprem_limit_violation(self, quality_stack):
        prefs = MigrationPreferences(onprem_limits={"cpu_millicores": 1.0})
        app, evaluator = self._evaluator(quality_stack, prefs)
        quality = evaluator.evaluate(MigrationPlan.all_on_prem(app.component_names))
        assert not quality.feasible
        # Offloading everything satisfies the on-prem limit again.
        assert evaluator.is_feasible(MigrationPlan.all_cloud(app.component_names))

    def test_budget_violation(self, quality_stack):
        prefs = MigrationPreferences(budget_usd=0.0)
        app, evaluator = self._evaluator(quality_stack, prefs)
        plan = MigrationPlan.all_cloud(app.component_names)
        assert not evaluator.is_feasible(plan)

    def test_dominates(self, quality_stack):
        app, evaluator = self._evaluator(quality_stack)
        base = evaluator.evaluate(MigrationPlan.all_on_prem(app.component_names))
        moved = evaluator.evaluate(MigrationPlan.from_offloaded(app.component_names, ["Database"]))
        assert base.dominates(moved)
        assert not moved.dominates(base)
