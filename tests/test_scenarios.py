"""Scenario-axis invariants.

Three laws anchor the scenario refactor:

1. **Single-scenario identity** — a problem without a scenario set is the
   untouched classic path, and robust evaluation over the single *baseline* scenario
   is bitwise identical to it: objectives, feasibility, violation strings, the
   ``evaluations`` counter, and whole fixed-seed GA / NSGA-II / random-search
   trajectories (sha256-fingerprinted).  The pre/post-refactor fingerprints of the
   classic path were additionally verified unchanged during development
   (``ga_all_evaluated = fa6f5ef32f1b…``, ``nsga_plans = ad5b2f79e163…``,
   ``random_search = 576ea18f2526…`` on the tiny stack); in CI the law is enforced
   structurally, platform-independently, by comparing the two in-session runs.
2. **Tensor = independent evaluators** — S-scenario robust evaluation produces, per
   scenario, exactly what S independent single-scenario evaluators produce.
3. **Aggregator contract** — identity on S=1 (bitwise), monotone, bounded by
   [min, max], with CVaR degenerating to the weighted mean (alpha=1) and the worst
   case (alpha→0).
"""

import numpy as np
import pytest
from fingerprints import fingerprint_front, fingerprint_qualities
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import MigrationPlan, default_network_model
from repro.learning import ApiProfiler, FootprintLearner, ResourceEstimator
from repro.monitoring import DriftDetector
from repro.optimizer import AtlasGA, GAConfig
from repro.optimizer.baselines import (
    AffinityNSGA2Baseline,
    BaselineContext,
    RandomSearchBaseline,
)
from repro.quality import (
    ApiAvailabilityModel,
    ApiPerformanceModel,
    CloudCostModel,
    CVaR,
    EgressTrafficObjective,
    MigrationPreferences,
    PlacementProblem,
    PricingCatalog,
    QualityEvaluator,
    ScenarioSet,
    ScenarioSpec,
    WeightedMean,
    WorstCase,
    scaled_footprint,
)
from repro.workload import ApiMix, DiurnalProfile, WorkloadScenario
from repro.workload.profiles import BehaviorChange

S4 = ScenarioSet(
    (
        ScenarioSpec(name="observed"),
        ScenarioSpec(name="burst", rate_scale=4.0, weight=0.5),
        ScenarioSpec(name="mix", api_rate_factors={"/write": 2.0, "/read": 0.5}),
        ScenarioSpec(name="chatty", payload_factors={"/read": 3.0}),
    )
)
#: The baseline scenario alone as a problem's robust axis: a run over it is the
#: classic run with a per-scenario breakdown.
BASELINE_PROBLEM = PlacementProblem.default(scenarios=ScenarioSet.baseline())
S4_PROBLEM = PlacementProblem.default(scenarios=S4)


@pytest.fixture(scope="module")
def scenario_stack(tiny_telemetry):
    """Learned models of the tiny app plus an evaluator factory with an estimator."""
    app, result = tiny_telemetry
    telemetry = result.telemetry
    baseline = MigrationPlan.all_on_prem(app.component_names)
    profiles = ApiProfiler(
        telemetry, stateful_components=app.stateful_components(), traces_per_api=20
    ).profile_all()
    footprint = FootprintLearner(telemetry).learn()
    estimator = ResourceEstimator(app, telemetry).fit()
    estimate = estimator.predict_scaled(3.0)
    # Above the base peak (the observed scenario fits on-prem) but far below the
    # burst scenarios' demand, so robust feasibility has something to disagree on.
    limit = estimate.peak("cpu_millicores", app.component_names) * 1.1

    def build_evaluator(preferences=None, with_estimator=True, problem=None, traces=None):
        performance = ApiPerformanceModel(
            traces_by_api=traces or {api: p.sample_traces for api, p in profiles.items()},
            footprint=footprint,
            network=default_network_model(),
            baseline_plan=baseline,
            traces_per_api=20,
        )
        availability = ApiAvailabilityModel(
            {api: p.stateful_components for api, p in profiles.items()}, baseline
        )
        cost = CloudCostModel(
            PricingCatalog(),
            estimate,
            footprint,
            {c.name: c.resources.storage_gb for c in app.components},
            baseline,
            time_compression=288.0,
        )
        return QualityEvaluator(
            performance=performance,
            availability=availability,
            cost=cost,
            preferences=preferences
            or MigrationPreferences.pin_on_prem(
                ["Database"], onprem_limits={"cpu_millicores": limit}
            ),
            estimate=estimate,
            component_order=app.component_names,
            estimator=estimator if with_estimator else None,
            problem=problem,
        )

    return app, telemetry, build_evaluator


# The canonical fingerprint helper lives in tests/fingerprints.py (one source of
# truth for every fixed-seed suite).
_fingerprint = fingerprint_qualities


vectors_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=1), min_size=6, max_size=6),
    min_size=1,
    max_size=6,
)


class TestSingleScenarioIdentity:
    """Law 1: the default scenario is byte-identical to the classic path."""

    @settings(max_examples=20)
    @given(vectors=vectors_strategy)
    def test_baseline_scenario_matches_classic_evaluation(self, scenario_stack, vectors):
        _app, _telemetry, build_evaluator = scenario_stack
        k4 = PlacementProblem.default(extra_objectives=(EgressTrafficObjective(),))
        # The paper's K=3 stack and a K=4 one.
        for problem in (PlacementProblem.default(), k4):
            classic = build_evaluator(problem=problem)
            robust = build_evaluator(
                problem=problem.with_scenarios(ScenarioSet.baseline())
            )
            classic_qualities = classic.evaluate_vectors(vectors)
            robust_qualities = robust.evaluate_vectors(vectors)
            for a, b in zip(classic_qualities, robust_qualities):
                # One engine, S=1: the same bits in the same result shape.
                assert repr(a.values) == repr(b.values) and a.names == b.names
                assert len(a.values) == len(problem.objectives)
                assert a.feasible == b.feasible
                assert a.violations == b.violations
                assert a.scenarios == ()
            assert classic.evaluations == robust.evaluations
            # The breakdown of the single baseline scenario is the classic result itself.
            for a, b in zip(classic_qualities, robust_qualities):
                (only,) = b.scenarios
                assert repr(only.values) == repr(a.values) and only.names == a.names
                assert (only.feasible, only.violations) == (a.feasible, a.violations)

    def test_fixed_seed_ga_fingerprint_invariant(self, scenario_stack):
        """The GA trajectory under a bound baseline scenario is the classic one."""
        app, _telemetry, build_evaluator = scenario_stack
        config = GAConfig(
            population_size=16,
            offspring_per_generation=8,
            evaluation_budget=220,
            train_iterations=20,
            train_batch_size=2,
            train_pairs=8,
            seed=11,
        )
        classic = AtlasGA(build_evaluator(), app.component_names, config=config).run()
        bound_evaluator = build_evaluator(problem=BASELINE_PROBLEM)
        bound = AtlasGA(bound_evaluator, app.component_names, config=config).run()
        assert _fingerprint(classic.all_evaluated) == _fingerprint(bound.all_evaluated)
        assert _fingerprint(classic.pareto) == _fingerprint(bound.pareto)
        assert classic.evaluations == bound.evaluations
        assert bound.pareto[0].scenarios  # robust run carries the breakdown

    def test_fixed_seed_nsga2_and_random_search_fingerprints(self, scenario_stack):
        app, telemetry, build_evaluator = scenario_stack

        def context(evaluator):
            return BaselineContext(
                components=app.component_names,
                evaluator=evaluator,
                traffic_matrix=telemetry.traffic_matrix(),
                message_matrix={},
                busyness={},
            )

        classic_nsga = AffinityNSGA2Baseline(
            context(build_evaluator()), population_size=16, evaluation_budget=160, seed=5
        ).recommend()
        bound_nsga = AffinityNSGA2Baseline(
            context(build_evaluator(problem=BASELINE_PROBLEM)),
            population_size=16,
            evaluation_budget=160,
            seed=5,
        ).recommend()
        assert fingerprint_front(classic_nsga) == fingerprint_front(bound_nsga)

        classic_random = RandomSearchBaseline(
            context(build_evaluator()), evaluation_budget=150, seed=9
        ).recommend()
        bound_random = RandomSearchBaseline(
            context(build_evaluator(problem=BASELINE_PROBLEM)),
            evaluation_budget=150,
            seed=9,
        ).recommend()
        assert _fingerprint(classic_random) == _fingerprint(bound_random)


class TestTensorMatchesIndependentEvaluators:
    """Law 2: the S×P tensor equals S independent single-scenario evaluations."""

    def test_per_scenario_entries_match_independent_evaluators(self, scenario_stack):
        _app, _telemetry, build_evaluator = scenario_stack
        rng = np.random.default_rng(17)
        vectors = (rng.random((12, 6)) < 0.5).astype(int).tolist()
        robust = build_evaluator(problem=S4_PROBLEM).evaluate_vectors(vectors)
        for spec in S4:
            independent = build_evaluator(
                problem=PlacementProblem.default(scenarios=ScenarioSet((spec,)))
            ).evaluate_vectors(vectors)
            for robust_quality, single in zip(robust, independent):
                entry = next(
                    s for s in robust_quality.scenarios if s.scenario == spec.name
                )
                assert repr(entry.objectives()) == repr(
                    single.scenarios[0].objectives()
                )
                assert entry.feasible == single.scenarios[0].feasible
                assert entry.violations == single.scenarios[0].violations

    def test_aggregated_objectives_recompute_from_breakdown(self, scenario_stack):
        _app, _telemetry, build_evaluator = scenario_stack
        aggregator = WeightedMean()
        vectors = [[0, 1, 1, 0, 0, 1], [0, 0, 1, 1, 0, 0]]
        qualities = build_evaluator(
            problem=PlacementProblem.default(scenarios=S4, aggregator=aggregator)
        ).evaluate_vectors(vectors)
        weights = np.asarray([spec.weight for spec in S4], dtype=np.float64)
        for quality in qualities:
            perf = np.asarray([[s.perf] for s in quality.scenarios])
            avail = np.asarray([[s.avail] for s in quality.scenarios])
            cost = np.asarray([[s.cost] for s in quality.scenarios])
            assert quality.perf == float(aggregator.combine(perf, weights)[0])
            assert quality.avail == float(aggregator.combine(avail, weights)[0])
            assert quality.cost == float(aggregator.combine(cost, weights)[0])

    def test_robust_feasibility_is_all_scenarios(self, scenario_stack):
        _app, _telemetry, build_evaluator = scenario_stack
        evaluator = build_evaluator(problem=S4_PROBLEM)
        onprem = [[0, 0, 0, 0, 0, 0]]
        quality = evaluator.evaluate_vectors(onprem)[0]
        by_name = {s.scenario: s for s in quality.scenarios}
        # All-on-prem fits the observed workload but not the 4x burst.
        assert by_name["observed"].feasible
        assert not by_name["burst"].feasible
        assert not quality.feasible
        assert any(v.startswith("[burst] ") for v in quality.violations)
        # feasible_mask agrees with the per-scenario conjunction.
        mask = evaluator.feasible_mask(onprem)
        assert bool(mask[0]) == quality.feasible

    def test_scenario_counters(self, scenario_stack):
        _app, _telemetry, build_evaluator = scenario_stack
        evaluator = build_evaluator(problem=S4_PROBLEM)
        vectors = [[0, 1, 0, 1, 0, 0], [0, 1, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]]
        evaluator.evaluate_vectors(vectors)
        assert evaluator.evaluations == 2  # distinct plans
        assert evaluator.scenario_evaluations == 2 * len(S4)


class TestAggregators:
    """Law 3: aggregator contract (identity, monotonicity, bounds, degeneration)."""

    aggregators = [WorstCase(), WeightedMean(), CVaR(0.4), CVaR(1.0)]

    @settings(max_examples=60)
    @given(
        values=st.lists(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        ),
        weights=st.lists(
            st.floats(min_value=0.1, max_value=10.0), min_size=5, max_size=5
        ),
    )
    def test_bounded_and_monotone(self, values, weights):
        tensor = np.asarray(values, dtype=np.float64)
        weight_array = np.asarray(weights[: tensor.shape[0]], dtype=np.float64)
        for aggregator in self.aggregators:
            combined = aggregator.combine(tensor, weight_array)
            assert combined.shape == (tensor.shape[1],)
            lower = tensor.min(axis=0)
            upper = tensor.max(axis=0)
            assert np.all(combined >= lower - 1e-9 * (1 + np.abs(lower)))
            assert np.all(combined <= upper + 1e-9 * (1 + np.abs(upper)))
            # Raising any single entry never lowers the aggregate.
            bumped = tensor.copy()
            bumped[0, 0] += 1.0
            bumped_combined = aggregator.combine(bumped, weight_array)
            assert bumped_combined[0] >= combined[0] - 1e-12 * (1 + abs(combined[0]))

    @settings(max_examples=40)
    @given(
        row=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=4,
        ),
        weight=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_single_scenario_identity_is_bitwise(self, row, weight):
        tensor = np.asarray([row], dtype=np.float64)
        weights = np.asarray([weight], dtype=np.float64)
        for aggregator in self.aggregators:
            combined = aggregator.combine(tensor, weights)
            assert combined.tobytes() == tensor[0].tobytes()

    def test_cvar_degenerations(self):
        tensor = np.asarray([[1.0, 5.0], [3.0, 1.0], [2.0, 9.0]])
        weights = np.asarray([1.0, 2.0, 1.0])
        mean = WeightedMean().combine(tensor, weights)
        assert np.allclose(CVaR(1.0).combine(tensor, weights), mean)
        worst = WorstCase().combine(tensor, weights)
        assert np.allclose(CVaR(1e-9).combine(tensor, weights), worst)
        # A tighter tail is at least as pessimistic as a wider one.
        assert np.all(
            CVaR(0.25).combine(tensor, weights)
            >= CVaR(0.75).combine(tensor, weights) - 1e-12
        )

    def test_cvar_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            CVaR(0.0)
        with pytest.raises(ValueError):
            CVaR(1.5)

    @settings(max_examples=80)
    @given(
        values=st.lists(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=4,
                max_size=4,
            ),
            min_size=1,
            max_size=6,
        ),
        weights=st.lists(
            st.floats(min_value=0.1, max_value=10.0), min_size=6, max_size=6
        ),
    )
    # A +0.0/-0.0 tie across scenarios: sort order and ``max`` pick different zeros.
    @example(values=[[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -0.0]], weights=[1.0] * 6)
    def test_cvar_boundary_laws_are_bitwise(self, values, weights):
        """CVaR(alpha=1) == WeightedMean and CVaR(alpha→0⁺) == WorstCase, bitwise.

        The boundary laws are exact by construction (the implementation special-
        cases both limits rather than relying on float cancellation), so the
        comparison is on raw bytes, not a tolerance.
        """
        tensor = np.asarray(values, dtype=np.float64)
        weight_array = np.asarray(weights[: tensor.shape[0]], dtype=np.float64)
        mean = WeightedMean().combine(tensor, weight_array)
        assert CVaR(1.0).combine(tensor, weight_array).tobytes() == mean.tobytes()
        worst = WorstCase().combine(tensor, weight_array)
        # Any tail mass at or below the heaviest single scenario's weight share
        # keeps the conditional tail inside the worst row.
        tiny_alpha = min(1e-12, float(weight_array.min() / weight_array.sum()) / 2.0)
        assert (
            CVaR(tiny_alpha).combine(tensor, weight_array).tobytes()
            == worst.tobytes()
        )


class TestScenarioSpecs:
    def test_from_workload_compiles_factors(self):
        mix = ApiMix({"/read": 0.6, "/write": 0.4})
        profile = DiurnalProfile(base_rps=10.0, peak_rps=20.0)
        base = WorkloadScenario(mix=mix, profile=profile, name="base")
        shifted = WorkloadScenario(
            mix=mix,
            profile=profile.scaled(2.0),
            changes=[
                BehaviorChange(
                    start_ms=0.0,
                    apis=["/write"],
                    payload_scale=3.0,
                    mix_override={"/write": 0.8},
                )
            ],
            name="drifted",
        )
        spec = ScenarioSpec.from_workload(shifted, base)
        assert spec.name == "drifted"
        assert spec.rate_scale == pytest.approx(2.0)
        # /write goes from 0.4 to 0.8/1.4 of the mix; /read shrinks accordingly.
        assert spec.api_rate_factors["/write"] == pytest.approx((0.8 / 1.4) / 0.4)
        assert spec.api_rate_factors["/read"] == pytest.approx((0.6 / 1.4) / 0.6)
        assert spec.payload_factors == {"/write": 3.0}
        assert spec.changes_rates and spec.changes_payloads

    def test_from_workload_zeroes_dropped_apis(self):
        """An API the forecast mix drops compiles to rate factor 0, not 1."""
        base = WorkloadScenario(
            mix=ApiMix({"/read": 0.6, "/write": 0.4}),
            profile=DiurnalProfile(),
            name="base",
        )
        narrowed = WorkloadScenario(
            mix=ApiMix({"/read": 1.0}), profile=base.profile, name="only-read"
        )
        spec = ScenarioSpec.from_workload(narrowed, base)
        assert spec.api_rate_factors["/write"] == 0.0
        assert spec.api_rate_factors["/read"] == pytest.approx(1.0 / 0.6)

    def test_scenario_set_validation(self):
        with pytest.raises(ValueError):
            ScenarioSet(())
        with pytest.raises(ValueError):
            ScenarioSet((ScenarioSpec(name="a"), ScenarioSpec(name="a")))
        assert ScenarioSet.baseline()[0].is_baseline
        assert ScenarioSet.with_bursts([2.0, 5.0]).names == [
            "observed",
            "burst-x2",
            "burst-x5",
        ]

    def test_scaled_footprint_identity_and_scaling(self, scenario_stack):
        _app, _telemetry, build_evaluator = scenario_stack
        evaluator = build_evaluator()
        footprint = evaluator.cost.footprint
        assert scaled_footprint(footprint, ScenarioSpec(name="same")) is footprint
        scaled = scaled_footprint(
            footprint, ScenarioSpec(name="big", payload_factors={"/read": 2.0})
        )
        for (src, dst), edge in footprint.edges_of("/read").items():
            assert scaled.request_bytes("/read", src, dst) == edge.request_bytes * 2.0
        for (src, dst), edge in footprint.edges_of("/write").items():
            assert scaled.request_bytes("/write", src, dst) == edge.request_bytes

    def test_rate_changing_scenario_requires_estimator(self, scenario_stack):
        _app, _telemetry, build_evaluator = scenario_stack
        evaluator = build_evaluator(
            with_estimator=False,
            problem=PlacementProblem.default(
                scenarios=ScenarioSpec(name="burst", rate_scale=2.0)
            ),
        )
        with pytest.raises(ValueError, match="estimator"):
            evaluator.evaluate_vectors([[0, 1, 0, 0, 0, 0]])


class TestInvalidation:
    def test_invalidate_reaches_scenario_views(self, scenario_stack):
        """A view built before a splice that moves an API's edge list scores like a
        fresh evaluator over the spliced window, by ``float.hex``, and its Δ table
        covers the new reach (the live edges: the background Notifier call never had
        a Δ column)."""
        _app, _telemetry, build_evaluator = scenario_stack
        evaluator = build_evaluator(problem=S4_PROBLEM)
        vectors = [[0, 1, 1, 0, 0, 1], [1, 1, 1, 1, 1, 1], [0, 0, 1, 1, 0, 0]]
        evaluator.evaluate_vectors(vectors)
        chatty = next(spec for spec in S4 if spec.name == "chatty")
        _, view = evaluator._scenario_pair(chatty)
        assert view is not evaluator.performance
        old_edges = list(view._edges["/read"])
        assert not any(callee == "Notifier" for _caller, callee in view._reach("/read")[0])
        # The drifted /read stops calling its background Notifier.
        window = [
            trace.with_spans([s for s in trace.spans if s.component != "Notifier"])
            for trace in evaluator.performance._traces["/read"]
        ]
        evaluator.splice({"/read": window})
        assert view._edges["/read"] == [e for e in old_edges if e[1] != "Notifier"] != old_edges
        fresh = build_evaluator(
            problem=S4_PROBLEM,
            traces={**evaluator.performance._traces, "/read": window},
        )

        def hexes(qualities):
            return [
                [value.hex() for value in vector.values]
                for quality in qualities
                for vector in (quality, *quality.scenarios)
            ]

        spliced = evaluator.evaluate_vectors(vectors)
        assert evaluator._scenario_pair(chatty)[1] is view
        assert hexes(spliced) == hexes(fresh.evaluate_vectors(vectors))
        built_for, (_size, table, *_rest) = view._delta_tables["/read"]
        assert built_for is view._reach("/read")[0]  # the live edges: no Notifier call
        assert table.shape[0] == len(view._reach("/read")[0])

    def test_drift_detector_emits_refreshed_scenario(self):
        rng = np.random.default_rng(2)
        real = {"/read": (50 + rng.normal(0, 2, 200)).tolist()}
        approx = {"/read": (50 + rng.normal(0, 2.5, 200)).tolist()}
        detector = DriftDetector(approx, real, threshold_factor=3.0)
        base = WorkloadScenario(
            mix=ApiMix({"/read": 1.0}), profile=DiurnalProfile(), name="observed"
        )
        # No drift: recent matches the post-migration ground truth.
        assert detector.refreshed_scenario(base, {"/read": real["/read"][:100]}) is None
        # Strong drift: a big latency shift emits a refreshed scenario whose change
        # carries the observed inflation as a payload scale.
        recent = {"/read": (150 + rng.normal(0, 2, 200)).tolist()}
        assert detector.drifted_apis(recent) == ["/read"]
        refreshed = detector.refreshed_scenario(base, recent)
        assert refreshed is not None and refreshed.name == "observed-drift"
        change = refreshed.changes[-1]
        assert change.apis == ["/read"]
        assert change.payload_scale == pytest.approx(3.0, rel=0.05)


class TestBoundEvaluatorDoors:
    """The optimizers' entry points all route through the bound scenario set."""

    def test_bound_evaluate_and_masks_agree(self, scenario_stack):
        app, _telemetry, build_evaluator = scenario_stack
        bound = build_evaluator(problem=S4_PROBLEM)
        reference = build_evaluator(problem=S4_PROBLEM)
        vectors = [[0, 1, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0]]
        via_bound = bound.evaluate_vectors(vectors)
        via_reference = reference.evaluate_vectors(vectors)
        assert [repr(q.objectives()) for q in via_bound] == [
            repr(q.objectives()) for q in via_reference
        ]
        # A problem without an aggregator is scored by its worst scenario.
        for quality in via_bound:
            worst = tuple(map(max, zip(*(entry.values for entry in quality.scenarios))))
            assert repr(quality.values) == repr(worst)
        plans = [
            MigrationPlan.from_vector(app.component_names, v) for v in vectors
        ]
        assert [q.feasible for q in bound.evaluate_batch(plans)] == [
            q.feasible for q in via_reference
        ]
        assert bound.is_feasible(plans[0]) == via_reference[0].feasible
        assert list(bound.feasible_mask(vectors)) == [
            q.feasible for q in via_reference
        ]
        np.testing.assert_array_equal(
            bound.qcost_vectors(vectors),
            np.asarray([q.cost for q in via_reference]),
        )
        assert bound.cache_size() == 2
        assert all(q.scenarios for q in bound.evaluated_qualities())

    def test_single_plan_doors_agree_on_a_bound_evaluator(self, scenario_stack):
        """``is_feasible``, ``constraint_violations`` and ``evaluate`` are one answer.

        Regression: on a bound evaluator ``is_feasible`` judged the plan under every
        scenario while ``constraint_violations`` checked the base workload only, so a
        plan the burst scenario breaks was infeasible with no violation to show."""
        app, _telemetry, build_evaluator = scenario_stack
        bound = build_evaluator(problem=PlacementProblem.default(scenarios=S4))
        unbound = build_evaluator()
        rng = np.random.default_rng(2024)
        disagreed = 0
        for vector in rng.integers(0, 2, size=(40, len(app.component_names))).tolist():
            plan = MigrationPlan.from_vector(app.component_names, vector)
            evaluations = bound.evaluations
            violations = bound.constraint_violations(plan)
            assert bool(violations) == (not bound.is_feasible(plan))
            assert bound.evaluations == evaluations  # constraint-only: no budget spent
            assert violations == list(bound.evaluate(plan).violations)
            assert all(v.startswith("[") for v in violations)  # scenario-prefixed
            base = unbound.constraint_violations(plan)
            assert base == list(unbound.evaluate_reference(plan).violations)
            assert bool(base) == (not unbound.is_feasible(plan))
            disagreed += bool(violations) and not base
        assert disagreed  # the sample holds plans only a non-base scenario breaks
