"""Plugin laws of the pluggable objective/constraint stack (`quality/problem.py`).

Four laws anchor the API redesign:

1. **Default-stack identity** — the default :class:`PlacementProblem` (the paper's
   QPerf / QAvai / QCost triple under the Eq. 4 constraints) is *byte-identical* to
   the hardcoded pipeline it replaced: objectives, feasibility, violation strings,
   the ``evaluations`` counter, and whole fixed-seed GA / NSGA-II / random-search
   trajectories (sha256-fingerprinted, problem-built vs. legacy-built evaluators
   compared in-session — the same structural enforcement as ``tests/test_scenarios.py``;
   the pre/post-redesign fingerprints of the legacy path were additionally verified
   unchanged during development: ``ga_all_evaluated = 64aa48e13c07…``,
   ``nsga_plans = 1532e2212b5c…``, ``random_search = f2ab2c63f06c…`` on the tiny
   stack).
2. **Sense monotonicity** — an objective's minimized view is monotone in its raw
   score: increasing for ``sense="min"``, decreasing for ``sense="max"``; stored
   result values always minimize.
3. **Mask ⇔ violations** — a constraint's vectorized ``violated`` mask agrees with
   its materialized violation strings (violated row ⇔ non-empty strings), both
   batched and through the scalar ``violations_plan`` oracle.
4. **Custom plugins end-to-end** — a toy custom objective (and the shipped
   ``EgressTrafficObjective`` / ``MigrationChurnObjective``) widens GA, NSGA-II and
   random search to K dimensions with correct Pareto semantics and a knee point on
   the normalized front.
"""

import numpy as np
import pytest
from fingerprints import fingerprint_front, fingerprint_qualities
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MigrationPlan, default_network_model
from repro.learning import ApiProfiler, FootprintLearner, ResourceEstimator
from repro.optimizer import AtlasGA, GAConfig, distance_to_ideal, knee_index
from repro.optimizer.baselines import (
    AffinityNSGA2Baseline,
    BaselineContext,
    RandomSearchBaseline,
)
from repro.quality import (
    ApiAvailabilityModel,
    ApiPerformanceModel,
    CloudCostModel,
    EgressTrafficObjective,
    MigrationChurnObjective,
    MigrationPreferences,
    Objective,
    PlacementProblem,
    PlanQuality,
    PricingCatalog,
    QPerfObjective,
    QualityEvaluator,
    ScenarioQuality,
    ScenarioSet,
    ScenarioSpec,
    WorstCase,
)

TINY_GA = GAConfig(
    population_size=16,
    offspring_per_generation=8,
    evaluation_budget=220,
    train_iterations=20,
    train_batch_size=2,
    train_pairs=8,
    seed=11,
)


class OffloadCountObjective(Objective):
    """Toy custom objective: number of components placed off-prem (minimized)."""

    name = "offload_count"

    def score_matrix(self, ctx):
        return (ctx.matrix != 0).sum(axis=1).astype(np.float64)


class OnPremCountObjective(Objective):
    """Toy maximized objective: number of components kept on-prem."""

    name = "onprem_count"
    sense = "max"

    def score_matrix(self, ctx):
        return (ctx.matrix == 0).sum(axis=1).astype(np.float64)


@pytest.fixture(scope="module")
def problem_stack(tiny_telemetry):
    """Learned models of the tiny app plus an evaluator factory taking a problem."""
    app, result = tiny_telemetry
    telemetry = result.telemetry
    baseline = MigrationPlan.all_on_prem(app.component_names)
    profiles = ApiProfiler(
        telemetry, stateful_components=app.stateful_components(), traces_per_api=20
    ).profile_all()
    footprint = FootprintLearner(telemetry).learn()
    estimator = ResourceEstimator(app, telemetry).fit()
    estimate = estimator.predict_scaled(3.0)
    limit = estimate.peak("cpu_millicores", app.component_names) * 0.8

    def build_evaluator(problem=None, preferences=None, budget=None):
        performance = ApiPerformanceModel(
            traces_by_api={api: p.sample_traces for api, p in profiles.items()},
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
        if preferences is None:
            preferences = MigrationPreferences.pin_on_prem(
                ["Database"],
                onprem_limits={"cpu_millicores": limit},
                budget_usd=budget if budget is not None else float("inf"),
            )
        return QualityEvaluator(
            performance=performance,
            availability=availability,
            cost=cost,
            preferences=preferences,
            estimate=estimate,
            component_order=app.component_names,
            estimator=estimator,
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


class TestDefaultStackIdentity:
    """Law 1: the default problem is byte-identical to the legacy hardcoded stack."""

    @settings(max_examples=20)
    @given(vectors=vectors_strategy)
    def test_default_problem_matches_legacy_evaluation(self, problem_stack, vectors):
        _app, _telemetry, build_evaluator = problem_stack
        legacy = build_evaluator()  # problem=None -> internal default
        declared = build_evaluator(problem=PlacementProblem.default())
        legacy_qualities = legacy.evaluate_vectors(vectors)
        declared_qualities = declared.evaluate_vectors(vectors)
        for a, b in zip(legacy_qualities, declared_qualities):
            assert repr(tuple(a.objectives())) == repr(tuple(b.objectives()))
            assert (a.perf, a.avail, a.cost) == (b.perf, b.avail, b.cost)
            assert a.feasible == b.feasible
            assert a.violations == b.violations
        assert legacy.evaluations == declared.evaluations

    @settings(max_examples=15)
    @given(vectors=vectors_strategy)
    def test_batched_matches_scalar_oracle(self, problem_stack, vectors):
        """The plugin engine's batched path equals the plugin scalar oracle bitwise."""
        _app, _telemetry, build_evaluator = problem_stack
        batched = build_evaluator(budget=200.0)
        scalar = build_evaluator(budget=200.0)
        via_matrix = batched.evaluate_vectors(vectors)
        components = list(batched._canonical)
        for vector, quality in zip(vectors, via_matrix):
            plan = MigrationPlan.from_vector(components, list(vector))
            reference = scalar.evaluate_reference(plan)
            assert repr(tuple(reference.objectives())) == repr(
                tuple(quality.objectives())
            )
            assert reference.feasible == quality.feasible
            assert reference.violations == quality.violations

    @settings(max_examples=15)
    @given(vectors=vectors_strategy)
    def test_extra_objective_leaves_the_default_columns_bitwise(
        self, problem_stack, vectors
    ):
        """Columns 0-2 of a K=4 evaluation are the K=3 evaluation of the same plans
        (a budget inside the tiny stack's cost range, 0-0.82 USD, so it binds)."""
        _app, _telemetry, build_evaluator = problem_stack
        k4_problem = PlacementProblem.default(
            extra_objectives=(EgressTrafficObjective(),)
        )
        k3 = build_evaluator(budget=0.5).evaluate_vectors(vectors)
        k4 = build_evaluator(problem=k4_problem, budget=0.5).evaluate_vectors(vectors)
        for a, b in zip(k3, k4):
            assert len(b.objectives()) == 4
            assert repr(tuple(b.objectives())[:3]) == repr(tuple(a.objectives()))
            assert (b.feasible, b.violations) == (a.feasible, a.violations)

    def test_fixed_seed_ga_fingerprint_invariant(self, problem_stack):
        """The GA trajectory under an explicit default problem is the legacy one."""
        app, _telemetry, build_evaluator = problem_stack
        legacy = AtlasGA(build_evaluator(), app.component_names, config=TINY_GA).run()
        declared = AtlasGA(
            build_evaluator(problem=PlacementProblem.default()),
            app.component_names,
            config=TINY_GA,
        ).run()
        assert _fingerprint(legacy.all_evaluated) == _fingerprint(declared.all_evaluated)
        assert _fingerprint(legacy.pareto) == _fingerprint(declared.pareto)
        assert legacy.evaluations == declared.evaluations
        assert declared.objective_names == ("qperf", "qavai", "qcost")

    def test_fixed_seed_nsga2_and_random_search_fingerprints(self, problem_stack):
        app, telemetry, build_evaluator = problem_stack

        def context(evaluator):
            return BaselineContext(
                components=app.component_names,
                evaluator=evaluator,
                traffic_matrix=telemetry.traffic_matrix(),
                message_matrix={},
                busyness={},
            )

        nsga_fingerprint = fingerprint_front

        legacy_nsga = AffinityNSGA2Baseline(
            context(build_evaluator()), population_size=16, evaluation_budget=160, seed=5
        ).recommend()
        declared_nsga = AffinityNSGA2Baseline(
            context(build_evaluator(problem=PlacementProblem.default())),
            population_size=16,
            evaluation_budget=160,
            seed=5,
        ).recommend()
        assert nsga_fingerprint(legacy_nsga) == nsga_fingerprint(declared_nsga)

        legacy_random = RandomSearchBaseline(
            context(build_evaluator()), evaluation_budget=150, seed=9
        ).recommend()
        declared_random = RandomSearchBaseline(
            context(build_evaluator(problem=PlacementProblem.default())),
            evaluation_budget=150,
            seed=9,
        ).recommend()
        assert _fingerprint(legacy_random) == _fingerprint(declared_random)


class TestSenseMonotonicity:
    """Law 2: the minimized view is monotone in the raw score, per sense."""

    @settings(max_examples=50)
    @given(
        scores=st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=2,
            max_size=8,
        )
    )
    def test_minimized_view_preserves_or_reverses_order(self, scores):
        arr = np.asarray(scores, dtype=np.float64)
        minimized = OffloadCountObjective().minimized(arr)
        maximized = OnPremCountObjective().minimized(arr)
        order = np.argsort(arr, kind="stable")
        # sense="min": same order; sense="max": reversed preference.
        assert np.array_equal(np.sort(minimized), minimized[order])
        assert np.array_equal(np.sort(maximized)[::-1], maximized[order])

    def test_max_sense_objective_negates_stored_values(self, problem_stack):
        _app, _telemetry, build_evaluator = problem_stack
        problem = PlacementProblem.default(extra_objectives=(OnPremCountObjective(),))
        evaluator = build_evaluator(problem=problem)
        vectors = [[0, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 1]]
        qualities = evaluator.evaluate_vectors(vectors)
        # All-on-prem keeps 6 components local -> minimized value -6.
        assert qualities[0].value("onprem_count") == -6.0
        assert qualities[1].value("onprem_count") == -3.0
        # The "better" (more on-prem) plan minimizes the stored value.
        assert qualities[0].value("onprem_count") < qualities[1].value("onprem_count")

    def test_invalid_sense_rejected(self):
        with pytest.raises(ValueError):

            class Broken(Objective):  # noqa: F811 - intentionally throwaway
                name = "broken"
                sense = "sideways"


class TestConstraintMaskLaw:
    """Law 3: the vectorized mask agrees with the materialized violation strings."""

    @settings(max_examples=20)
    @given(vectors=vectors_strategy)
    def test_mask_iff_violations(self, problem_stack, vectors):
        _app, _telemetry, build_evaluator = problem_stack
        evaluator = build_evaluator(budget=150.0)
        matrix, components = evaluator._lower(vectors, None)
        ctx = evaluator._contexts(matrix, components, None)[0]
        for constraint in evaluator.problem.constraints:
            check = constraint.check(ctx)
            assert check.violated.shape == (matrix.shape[0],)
            for row in range(matrix.shape[0]):
                strings = check.materialize(row)
                assert bool(check.violated[row]) == bool(strings)

    @settings(max_examples=20)
    @given(vectors=vectors_strategy)
    def test_scalar_violations_match_batched_mask(self, problem_stack, vectors):
        _app, _telemetry, build_evaluator = problem_stack
        evaluator = build_evaluator(budget=150.0)
        matrix, components = evaluator._lower(vectors, None)
        ctx = evaluator._contexts(matrix, components, None)[0]
        checks = {c.name: c.check(ctx) for c in evaluator.problem.constraints}
        for row, vector in enumerate(matrix.tolist()):
            plan = MigrationPlan.from_vector(components, vector)
            plan_ctx = evaluator._contexts(
                matrix[row : row + 1], components, None, plans=[plan]
            )[0]
            for constraint in evaluator.problem.constraints:
                batched = checks[constraint.name]
                scalar_strings = constraint.violations_plan(plan_ctx, plan)
                assert scalar_strings == batched.materialize(row)

    def test_feasible_mask_is_constraint_conjunction(self, problem_stack):
        _app, _telemetry, build_evaluator = problem_stack
        evaluator = build_evaluator(budget=150.0)
        vectors = [[0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1], [0, 1, 0, 1, 0, 0]]
        matrix, components = evaluator._lower(vectors, None)
        ctx = evaluator._contexts(matrix, components, None)[0]
        violated = np.zeros(matrix.shape[0], dtype=bool)
        for constraint in evaluator.problem.constraints:
            violated |= constraint.check(ctx).violated
        np.testing.assert_array_equal(
            evaluator.feasible_mask(vectors), ~violated
        )


class TestCustomObjectivesEndToEnd:
    """Law 4: custom plugins run through every optimizer with K-dim fronts."""

    @pytest.fixture(scope="class")
    def k4_problem(self):
        return PlacementProblem.default(extra_objectives=(OffloadCountObjective(),))

    def test_ga_produces_k4_front(self, problem_stack, k4_problem):
        app, _telemetry, build_evaluator = problem_stack
        evaluator = build_evaluator(problem=k4_problem)
        result = AtlasGA(evaluator, app.component_names, config=TINY_GA).run()
        assert result.objective_names == ("qperf", "qavai", "qcost", "offload_count")
        assert result.pareto
        for quality in result.pareto:
            assert len(quality.objectives()) == 4
            assert quality.value("offload_count") == float(
                len(quality.plan.offloaded())
            )
        # Mutual non-domination in 4-D.
        for a in result.pareto:
            for b in result.pareto:
                if a is not b:
                    assert not a.dominates(b)
        assert [tuple(p) for p in result.front_points()] == [
            tuple(q.objectives()) for q in result.pareto
        ]
        # knee_point sits on the front and minimizes distance-to-ideal.
        knee = result.knee_point()
        distances = distance_to_ideal(result.front_points())
        assert knee is result.pareto[int(np.argmin(distances))]
        ordered = result.knee_ordered()
        assert ordered[0] is knee
        assert sorted(map(id, ordered)) == sorted(map(id, result.pareto))
        # best_for resolves names; unknown names are KeyError, not ValueError.
        assert result.best_for("offload_count") is result.pareto[
            int(np.argmin([q.value("offload_count") for q in result.pareto]))
        ]
        with pytest.raises(KeyError):
            result.best_for("nope")

    def test_nsga2_and_random_search_respect_k4(self, problem_stack, k4_problem):
        app, telemetry, build_evaluator = problem_stack
        evaluator = build_evaluator(problem=k4_problem)
        context = BaselineContext(
            components=app.component_names,
            evaluator=evaluator,
            traffic_matrix=telemetry.traffic_matrix(),
            message_matrix={},
            busyness={},
        )
        random_front = RandomSearchBaseline(
            context, evaluation_budget=150, seed=9
        ).recommend()
        assert random_front
        for quality in random_front:
            assert len(quality.objectives()) == 4
        for a in random_front:
            for b in random_front:
                if a is not b:
                    assert not a.dominates(b)
        # The affinity NSGA-II keeps its own 2-objective space but runs against the
        # K-objective evaluator's feasibility/cost doors without issue.
        nsga = AffinityNSGA2Baseline(
            context, population_size=16, evaluation_budget=120, seed=5
        ).recommend()
        assert nsga.evaluations >= 120

    def test_shipped_plugins_score_correctly(self, problem_stack):
        _app, _telemetry, build_evaluator = problem_stack
        problem = PlacementProblem.default(
            extra_objectives=(EgressTrafficObjective(), MigrationChurnObjective())
        )
        evaluator = build_evaluator(problem=problem)
        vectors = [[0, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 1]]
        onprem, offloaded = evaluator.evaluate_vectors(vectors)
        # The all-on-prem plan moves nothing and crosses no location boundary.
        assert onprem.value("egress_gb") == 0.0
        assert onprem.value("migration_churn") == 0.0
        assert offloaded.value("egress_gb") > 0.0
        assert offloaded.value("migration_churn") == 3.0
        # Egress tracks the raw bytes of the cost model's traffic lowering.
        lowering = evaluator.cost._lowering(list(evaluator._canonical))
        matrix = np.asarray([vectors[1]])
        crossing = matrix[:, lowering.src_cols] != matrix[:, lowering.dst_cols]
        expected = float((crossing @ (lowering.total_bytes / 1e9))[0])
        assert offloaded.value("egress_gb") == expected

    def test_scenario_robust_custom_objective(self, problem_stack):
        """A custom objective rides the scenario axis: per-scenario values + aggregate."""
        _app, _telemetry, build_evaluator = problem_stack
        scenarios = ScenarioSet(
            (ScenarioSpec(name="observed"), ScenarioSpec(name="chatty",
                                                         payload_factors={"/read": 3.0}))
        )
        problem = PlacementProblem.default(
            extra_objectives=(EgressTrafficObjective(),)
        ).with_scenarios(scenarios)
        evaluator = build_evaluator(problem=problem)
        quality = evaluator.evaluate_vectors([[0, 1, 1, 0, 0, 1]])[0]
        assert len(quality.scenarios) == 2
        by_name = {entry.scenario: entry for entry in quality.scenarios}
        # Payload growth inflates the scenario's cross-location bytes.
        assert (
            by_name["chatty"].value("egress_gb")
            > by_name["observed"].value("egress_gb")
        )
        # Worst-case aggregation picks the chatty scenario's egress.
        assert quality.value("egress_gb") == by_name["chatty"].value("egress_gb")


class TestProblemApi:
    def test_default_problem_shape(self):
        problem = PlacementProblem.default()
        assert problem.K == 3
        assert problem.objective_names == ("qperf", "qavai", "qcost")
        assert problem.index_of("qcost") == 2
        with pytest.raises(KeyError):
            problem.index_of("nope")

    def test_with_objectives_appends(self):
        problem = PlacementProblem.default().with_objectives(EgressTrafficObjective())
        assert problem.K == 4
        assert problem.objective_names[-1] == "egress_gb"

    def test_with_scenarios_preserves_aggregator(self):
        from repro.quality import CVaR, ScenarioSet, ScenarioSpec

        risk = CVaR(0.9)
        base = ScenarioSet((ScenarioSpec(name="a"),))
        problem = PlacementProblem.default(scenarios=base, aggregator=risk)
        rebound = problem.with_scenarios(
            ScenarioSet((ScenarioSpec(name="a"), ScenarioSpec(name="b", rate_scale=2.0)))
        )
        assert rebound.aggregator is risk
        replaced = problem.with_scenarios(base, aggregator=CVaR(0.2))
        assert replaced.aggregator is not risk

    def test_k3_non_triple_problem_keeps_its_names(self, problem_stack):
        """A K=3 problem that replaces a built-in must not masquerade as the triple."""
        _app, _telemetry, build_evaluator = problem_stack
        from repro.quality import QAvaiObjective, QCostObjective

        problem = PlacementProblem(
            objectives=(OffloadCountObjective(), QAvaiObjective(), QCostObjective()),
            constraints=PlacementProblem.default().constraints,
        )
        evaluator = build_evaluator(problem=problem)
        quality = evaluator.evaluate_vectors([[0, 1, 1, 0, 0, 1]])[0]
        assert quality.objective_names() == ("offload_count", "qavai", "qcost")
        assert quality.value("offload_count") == 3.0
        # Positional legacy fallback: perf mirrors column 0 (there is no qperf).
        assert quality.perf == 3.0

    def test_duplicate_objective_names_rejected(self):
        with pytest.raises(ValueError):
            PlacementProblem.default(extra_objectives=(QPerfObjective(),))

    def test_aggregator_requires_scenarios(self):
        from repro.quality import WeightedMean

        with pytest.raises(ValueError):
            PlacementProblem.default(aggregator=WeightedMean())

    def test_empty_objectives_rejected(self):
        with pytest.raises(ValueError):
            PlacementProblem(objectives=(), constraints=())

    def test_triple_view_positional_fallback(self):
        plan = MigrationPlan.from_vector(["c0"], [1])
        quality = PlanQuality(
            plan=plan, values=(5.0,), names=("offload_count",), feasible=True
        )
        assert quality.perf == 5.0
        assert np.isnan(quality.avail) and np.isnan(quality.cost)
        # By name when the paper objectives are present, wherever their column is.
        entry = ScenarioQuality(
            scenario="s", values=(1.0, 2.0, 3.0), names=("qcost", "x", "qperf"), feasible=True
        )
        assert (entry.perf, entry.avail, entry.cost) == (3.0, 2.0, 1.0)

    def test_knee_index_balances_extremes(self):
        # Two extreme corners and one balanced point: the knee is the balanced one.
        points = [(0.0, 1.0), (1.0, 0.0), (0.2, 0.2)]
        assert knee_index(points) == 2


class TestLegacyShim:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scenarios": ScenarioSpec(name="burst", rate_scale=1.5)},
            {"aggregator": WorstCase()},
            {
                "problem": PlacementProblem.default(),
                "scenarios": ScenarioSpec(name="x", rate_scale=2.0),
            },
        ],
        ids=["scenarios", "aggregator", "problem+scenarios"],
    )
    def test_removed_kwargs_raise_type_error(self, tiny_telemetry, kwargs):
        """The ``scenarios=`` / ``aggregator=`` shim is gone: the scenario axis is
        declared on the problem (``PlacementProblem.default(scenarios=...)``)."""
        from repro.recommend import Atlas, AtlasConfig

        app, result = tiny_telemetry
        atlas = Atlas(app, MigrationPreferences(), config=AtlasConfig(traces_per_api=10))
        atlas.learn(result.telemetry)
        with pytest.raises(TypeError, match="unexpected keyword"):
            atlas.recommend(**kwargs)

    def test_problem_front_door_rejects_conflicting_kwargs(self, tiny_telemetry):
        from repro.recommend import Atlas, AtlasConfig

        app, result = tiny_telemetry
        atlas = Atlas(app, MigrationPreferences(), config=AtlasConfig(traces_per_api=10))
        atlas.learn(result.telemetry)
        with pytest.raises(ValueError, match="both"):
            atlas.recommend(
                problem=PlacementProblem.default(
                    preferences=MigrationPreferences()
                ),
                preferences=MigrationPreferences(),
            )
