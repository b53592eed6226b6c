"""Plan-matrix pipeline invariants.

The batched evaluation path (``QualityEvaluator.evaluate_vectors`` /
``evaluate_batch`` over a P×C location matrix) must be *bitwise* identical to the
per-plan reference oracle (``evaluate``) — objectives, feasibility, violation strings
and the ``evaluations`` counter — on both the 2-location and the 3-location quality
stacks.  The building blocks carry the same contract: ``node_counts`` vs
``nodes_for``, ``capacity_matrix`` vs ``capacity_series``, ``qcost_stack`` vs
``qcost``, ``disruption_matrix`` + ``qavai_stack`` vs ``qavai``, ``impact_matrix`` +
``qperf_stack`` vs ``qperf``, ``feasible_mask`` vs ``is_feasible``.  Every door of
the evaluator refuses a location its network does not have.  The allowed-locations
whitelist and the region-aware single-plan baselines ride on the same machinery and
are covered here too, and the scalar oracle is held to leaving no state on its models.
"""

import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CLOUD,
    ON_PREM,
    MigrationPlan,
    NodeSpec,
    default_multi_location_network,
    default_network_model,
)
from repro.cluster.autoscaler import AutoscalerConfig, ClusterAutoscaler, StorageAutoscaler
from repro.learning import ApiProfiler, FootprintLearner, ResourceEstimator
from repro.learning.footprint import EdgeFootprint, NetworkFootprint
from repro.optimizer import AtlasGA, GAConfig
from repro.optimizer.baselines import (
    BaselineContext,
    GreedyBusiestBaseline,
    IntMABaseline,
)
from repro.optimizer.drl.agent import CrossoverAgent
from repro.quality import (
    ApiAvailabilityModel,
    ApiPerformanceModel,
    CloudCostModel,
    MigrationPreferences,
    PricingCatalog,
    QualityEvaluator,
)
from repro.quality import cost as cost_module

THREE_LOCATIONS = (0, 1, 2)

CHEAP_WEST = PricingCatalog(
    node_spec=NodeSpec(
        name="west", cpu_millicores=2_000.0, memory_mb=8_192.0, hourly_price_usd=0.05
    ),
    storage_usd_per_gb_month=0.04,
    egress_usd_per_gb=0.07,
)


@pytest.fixture(scope="module")
def matrix_stack(tiny_telemetry):
    """Learned models of the tiny app plus an evaluator factory over any topology."""
    app, result = tiny_telemetry
    telemetry = result.telemetry
    baseline = MigrationPlan.all_on_prem(app.component_names)
    profiles = ApiProfiler(
        telemetry, stateful_components=app.stateful_components(), traces_per_api=20
    ).profile_all()
    footprint = FootprintLearner(telemetry).learn()
    estimator = ResourceEstimator(app, telemetry).fit()
    estimate = estimator.predict_scaled(3.0)

    def build_evaluator(
        locations=(ON_PREM, CLOUD),
        catalogs=None,
        location_weights=None,
        preferences=None,
        engine="compiled",
        cost_footprint=footprint,
    ):
        if len(locations) == 2:
            network = default_network_model()
        else:
            network = default_multi_location_network(locations=locations)
        performance = ApiPerformanceModel(
            traces_by_api={api: p.sample_traces for api, p in profiles.items()},
            footprint=footprint,
            network=network,
            baseline_plan=baseline,
            traces_per_api=20,
            engine=engine,
        )
        availability = ApiAvailabilityModel(
            {api: p.stateful_components for api, p in profiles.items()},
            baseline,
            location_weights=location_weights,
        )
        cost = CloudCostModel(
            PricingCatalog(),
            estimate,
            cost_footprint,
            {c.name: c.resources.storage_gb for c in app.components},
            baseline,
            time_compression=288.0,
            catalogs=catalogs,
        )
        return QualityEvaluator(
            performance=performance,
            availability=availability,
            cost=cost,
            preferences=preferences or MigrationPreferences(),
            estimate=estimate,
            component_order=app.component_names,
        )

    return app, build_evaluator


THREE_DC_KWARGS = dict(
    locations=THREE_LOCATIONS,
    catalogs={CLOUD: PricingCatalog(), 2: CHEAP_WEST},
    location_weights={CLOUD: 1.0, 2: 2.0},
)

CONSTRAINED_PREFS = dict(
    pinned_placement={"Database": ON_PREM},
    onprem_limits={"cpu_millicores": 250.0},
    budget_usd=0.2,
    critical_apis=["/write"],
)

# A mixed-radix admissible box: one pin, two whitelists of different widths.
WHITELISTED_PREFS = dict(
    pinned_placement={"Database": ON_PREM},
    allowed_locations={"ServiceA": (2,), "Cache": (1, 2), "Notifier": (1,)},
    critical_apis=["/read"],
)


class TestAutoscalerBatch:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
                st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_node_counts_match_nodes_for(self, demand):
        scaler = ClusterAutoscaler(
            NodeSpec(name="n", cpu_millicores=2_000.0, memory_mb=8_192.0, hourly_price_usd=0.1)
        )
        small = ClusterAutoscaler(
            NodeSpec(name="s", cpu_millicores=750.0, memory_mb=3_000.0, hourly_price_usd=0.1),
            AutoscalerConfig(cpu_headroom=0.35, memory_headroom=0.05),
        )
        cpu = np.asarray([c for c, _ in demand])
        mem = np.asarray([m for _, m in demand])
        alone = ClusterAutoscaler.node_counts(cpu, mem, *scaler.constants)
        assert alone.tolist() == [scaler.nodes_for(c, m) for c, m in demand]
        # One formula over both autoscalers: each row under its own broadcast constants.
        constants = [
            np.asarray([one, two]).reshape(2, 1)
            for one, two in zip(scaler.constants, small.constants)
        ]
        both = ClusterAutoscaler.node_counts(np.stack([cpu, cpu]), np.stack([mem, mem]), *constants)
        assert both.tolist() == [
            [one.nodes_for(c, m) for c, m in demand] for one in (scaler, small)
        ]

    def test_node_counts_matrix_shape_and_zero(self):
        scaler = ClusterAutoscaler(
            NodeSpec(name="n", cpu_millicores=2_000.0, memory_mb=8_192.0, hourly_price_usd=0.1)
        )
        cpu = np.asarray([[0.0, 1.0], [4_000.0, 5e-324]])
        mem = np.asarray([[0.0, 0.0], [0.0, 0.0]])
        nodes = ClusterAutoscaler.node_counts(cpu, mem, *scaler.constants)
        assert nodes.shape == (2, 2)
        assert nodes[0, 0] == 0  # no demand, no node
        assert nodes[0, 1] == 1  # any demand needs a node
        assert nodes[1, 1] == 1  # subnormal demand must not ceil to zero
        assert nodes[1, 0] == scaler.nodes_for(4_000.0, 0.0)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_capacity_matrix_matches_capacity_series(self, usage, migrated):
        scaler = StorageAutoscaler(AutoscalerConfig())
        batched = scaler.capacity_matrix(
            np.asarray([usage, usage]), np.asarray([migrated, 0.0])
        )
        assert batched[0].tolist() == scaler.capacity_series(usage, migrated)
        assert batched[1].tolist() == scaler.capacity_series(usage, 0.0)


class TestBatchedEquivalence:
    """evaluate_batch / evaluate_vectors must match the per-plan oracle bitwise."""

    def _vectors(self, app, n_locations, count=120, seed=11):
        rng = np.random.default_rng(seed)
        return rng.integers(0, n_locations, size=(count, len(app.component_names)))

    @pytest.mark.parametrize(
        "topology, prefs_kwargs",
        [
            ({}, {}),
            ({}, CONSTRAINED_PREFS),
            (THREE_DC_KWARGS, {}),
            (THREE_DC_KWARGS, CONSTRAINED_PREFS),
            (THREE_DC_KWARGS, WHITELISTED_PREFS),
        ],
        ids=["2loc", "2loc-constrained", "3loc", "3loc-constrained", "3loc-whitelisted"],
    )
    def test_batch_matches_oracle(self, matrix_stack, topology, prefs_kwargs):
        """Random vectors over every site: rows inside and outside the admissible
        box of the problem's pins and whitelists, against the scalar oracle."""
        app, build_evaluator = matrix_stack
        locations = topology.get("locations", (ON_PREM, CLOUD))
        prefs = MigrationPreferences(
            pinned_placement=dict(prefs_kwargs.get("pinned_placement", {})),
            onprem_limits=dict(prefs_kwargs.get("onprem_limits", {})),
            budget_usd=prefs_kwargs.get("budget_usd", float("inf")),
            critical_apis=list(prefs_kwargs.get("critical_apis", [])),
            allowed_locations=dict(prefs_kwargs.get("allowed_locations", {})),
        )
        scalar = build_evaluator(preferences=prefs, **topology)
        batched = build_evaluator(preferences=prefs, **topology)
        vectors = self._vectors(app, len(locations))
        plans = [
            MigrationPlan.from_vector(app.component_names, v)
            for v in vectors.tolist()
        ]
        want = [scalar.evaluate_reference(plan) for plan in plans]
        got = batched.evaluate_vectors(vectors, app.component_names)
        for w, g in zip(want, got):
            assert g.objectives() == w.objectives()  # bitwise
            assert g.feasible == w.feasible
            assert g.violations == w.violations
        memos = [m for memos in batched.performance._memo_store.values() for m in memos.values()]
        assert any(any(memo.boxes.values()) for memo in memos)  # a pre-filled memo scored them
        # Plan by plan: same count, same distinct-plan cache, same evaluation order.
        single = build_evaluator(preferences=prefs, **topology)
        for plan in plans:
            single.evaluate(plan)
        assert single.evaluations == batched.evaluations
        assert [q.plan.to_vector() for q in single.evaluated_qualities()] == [
            q.plan.to_vector() for q in batched.evaluated_qualities()
        ]

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=6, max_size=6))
    @settings(max_examples=40)
    def test_single_vector_property(self, matrix_stack, vector):
        app, build_evaluator = matrix_stack
        scalar = build_evaluator(**THREE_DC_KWARGS)
        batched = build_evaluator(**THREE_DC_KWARGS)
        plan = MigrationPlan.from_vector(app.component_names, list(vector))
        want = scalar.evaluate_reference(plan)
        got = batched.evaluate_vectors([list(vector)], app.component_names)[0]
        assert got.objectives() == want.objectives()
        assert got.feasible == want.feasible
        assert got.violations == want.violations

    def test_objective_batches_match_scalar_models(self, matrix_stack):
        app, build_evaluator = matrix_stack
        evaluator = build_evaluator(**THREE_DC_KWARGS)
        components = app.component_names
        vectors = self._vectors(app, 3, count=60, seed=5)
        plans = [MigrationPlan.from_vector(components, v) for v in vectors.tolist()]
        weights = evaluator.api_weights
        performance, availability = evaluator.performance, evaluator.availability
        (qperf,) = performance.qperf_stack(
            [performance.impact_matrix(vectors, components)],
            [performance.weight_vector(weights)],
        )
        disruption = availability.disruption_matrix(vectors, components)
        (qavai,) = availability.qavai_stack(
            disruption, [availability.weight_vector(weights, disruption[0])]
        )
        (qcost,) = CloudCostModel.qcost_stack([evaluator.cost], vectors, components)
        for index, plan in enumerate(plans):
            assert qperf[index] == evaluator.performance.qperf(plan, weights)
            assert qavai[index] == evaluator.availability.qavai(plan, weights)
            assert qcost[index] == evaluator.cost.qcost(plan)

    def test_traffic_batch_keeps_the_scalar_summation_order(self, matrix_stack):
        app, build_evaluator = matrix_stack
        # The learned byte sizes sum exactly in any order, which would let a
        # reordered traffic kernel through: bill every component pair of both APIs
        # at sizes that use the whole mantissa.
        rng = np.random.default_rng(23)
        names = app.component_names
        edges = {
            api: [
                EdgeFootprint(api, src, dst, *(rng.random(2) * 2.0 ** rng.integers(4, 24, 2)))
                for src in names
                for dst in names
                if src != dst
            ]
            for api in ("/read", "/write")
        }

        def cost_model(edges_of):
            footprint = NetworkFootprint([e for api in edges for e in edges_of(api)])
            return build_evaluator(cost_footprint=footprint, **THREE_DC_KWARGS).cost

        scalar, batched = cost_model(edges.get), cost_model(edges.get)
        backwards = cost_model(lambda api: reversed(edges[api]))
        vectors = self._vectors(app, 3, count=80, seed=9)
        (costs,) = CloudCostModel.qcost_stack([batched], vectors, names)
        order_sensitive = 0
        for vector, cost in zip(vectors.tolist(), costs):
            plan = MigrationPlan.from_vector(names, vector)
            assert cost == scalar.qcost(plan)
            order_sensitive += backwards.traffic_cost(plan) != scalar.traffic_cost(plan)
        assert order_sensitive > len(vectors) // 2  # the data tells summation orders apart

    def test_feasible_mask_matches_is_feasible(self, matrix_stack):
        app, build_evaluator = matrix_stack
        prefs = MigrationPreferences(
            onprem_limits={"cpu_millicores": 300.0}, budget_usd=30.0
        )
        evaluator = build_evaluator(preferences=prefs, **THREE_DC_KWARGS)
        vectors = self._vectors(app, 3, count=80, seed=3)
        mask = evaluator.feasible_mask(vectors, app.component_names)
        for vector, ok in zip(vectors.tolist(), mask):
            plan = MigrationPlan.from_vector(app.component_names, vector)
            assert bool(ok) == evaluator.is_feasible(plan)

    def test_mixed_scalar_and_batch_share_cache(self, matrix_stack):
        app, build_evaluator = matrix_stack
        evaluator = build_evaluator()
        plan = MigrationPlan.from_offloaded(app.component_names, ["ServiceA"])
        first = evaluator.evaluate(plan)
        count = evaluator.evaluations
        again = evaluator.evaluate_vectors([plan.to_vector()], app.component_names)[0]
        assert again is first
        assert evaluator.evaluations == count

    def test_empty_batch(self, matrix_stack):
        app, build_evaluator = matrix_stack
        evaluator = build_evaluator()
        names = app.component_names
        assert evaluator.evaluate_vectors([], names) == []
        assert evaluator.feasible_mask([], names).shape == (0,)
        assert evaluator.qcost_vectors([], names).shape == (0,)
        empty = np.zeros((0, len(names)), dtype=np.int64)
        performance, availability = evaluator.performance, evaluator.availability
        impacts = performance.impact_matrix(empty, names)
        unweighted = performance.weight_vector(None)
        assert performance.qperf_stack([impacts], [unweighted]).shape == (1, 0)
        disruption = availability.disruption_matrix(empty, names)
        unweighted = availability.weight_vector(None, disruption[0])
        assert availability.qavai_stack(disruption, [unweighted]).shape == (1, 0)
        assert CloudCostModel.qcost_stack([evaluator.cost], empty, names).shape == (1, 0)

    def test_permuted_component_order_shares_cache(self, matrix_stack):
        app, build_evaluator = matrix_stack
        evaluator = build_evaluator()
        components = app.component_names
        permuted = list(reversed(components))
        plan = MigrationPlan.from_offloaded(components, ["ServiceA"])
        want = evaluator.evaluate(plan)
        count = evaluator.evaluations
        vector = [plan[c] for c in permuted]
        got = evaluator.evaluate_vectors([vector], permuted)[0]
        assert got is want  # same cache entry despite the permuted column order
        assert evaluator.evaluations == count


class TestCostScoredOnce:
    """Each plan's cost is computed exactly once per evaluation (satellite fix)."""

    def test_scalar_path_single_qcost_compute(self, matrix_stack, monkeypatch):
        app, build_evaluator = matrix_stack
        prefs = MigrationPreferences(budget_usd=0.05)  # budget constraint active
        evaluator = build_evaluator(preferences=prefs)
        calls = []
        original = type(evaluator.cost).estimate_cost

        def counting(self, plan):
            calls.append(tuple(plan.to_vector()))
            return original(self, plan)

        monkeypatch.setattr(type(evaluator.cost), "estimate_cost", counting)
        plan = MigrationPlan.from_offloaded(app.component_names, ["ServiceA", "Cache"])
        quality = evaluator.evaluate_reference(plan)
        assert not quality.feasible  # a 5-cent budget is blown
        # One uncached compute for the objective, reused by the budget check.
        assert calls.count(tuple(plan.to_vector())) == 1

    def test_batch_path_single_qcost_batch(self, matrix_stack, monkeypatch):
        app, build_evaluator = matrix_stack
        prefs = MigrationPreferences(budget_usd=0.05)
        evaluator = build_evaluator(preferences=prefs)
        batch_calls = []
        scalar_calls = []
        original_batch = cost_module._CostStack.qcost
        original_scalar = type(evaluator.cost).estimate_cost

        def counting_batch(self, models, matrix, sums):
            batch_calls.append(len(matrix))
            return original_batch(self, models, matrix, sums)

        def counting_scalar(self, plan):
            scalar_calls.append(plan)
            return original_scalar(self, plan)

        monkeypatch.setattr(cost_module._CostStack, "qcost", counting_batch)
        monkeypatch.setattr(type(evaluator.cost), "estimate_cost", counting_scalar)
        rng = np.random.default_rng(2)
        vectors = rng.integers(0, 2, size=(40, len(app.component_names)))
        evaluator.evaluate_vectors(vectors, app.component_names)
        # One batched cost pass over the distinct plans, no per-plan recompute —
        # not even for the budget check or the violation strings.
        assert batch_calls == [len({tuple(v) for v in vectors.tolist()})]
        assert scalar_calls == []


def _dict_sizes(evaluator):
    """Size of every ``dict`` attribute of the evaluator's three models."""
    return {
        (part, name): len(value)
        for part in ("performance", "availability", "cost")
        for name, value in vars(getattr(evaluator, part)).items()
        if isinstance(value, dict)
    }


def _oracle_bits(evaluator, door, plan):
    """What one scalar-oracle call returns, every float as ``float.hex``."""
    if door == "evaluate_reference":
        quality = evaluator.evaluate_reference(plan)
        return [v.hex() for v in quality.values], quality.feasible, quality.violations
    return {
        api: (
            estimate.baseline_mean_ms.hex(),
            estimate.estimated_mean_ms.hex(),
            [latency.hex() for latency in estimate.estimated_latencies_ms],
        )
        for api, estimate in evaluator.performance.estimate_all(plan).items()
    }


class TestStatelessOracle:
    """The per-plan path is a pure function of (models, plan): it keeps nothing."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["evaluate_reference", "estimate_all"]),
                st.lists(st.integers(min_value=0, max_value=2), min_size=6, max_size=6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_scalar_oracle_leaves_no_state_on_its_models(self, matrix_stack, calls):
        app, build_evaluator = matrix_stack
        names = app.component_names

        def evaluator():
            prefs = MigrationPreferences(**copy.deepcopy(CONSTRAINED_PREFS))
            return build_evaluator(preferences=prefs, **THREE_DC_KWARGS)

        used = evaluator()
        used.evaluate_reference(MigrationPlan.all_on_prem(names))  # compiles every API
        sizes = _dict_sizes(used)
        for door, vector in calls:
            plan = MigrationPlan.from_vector(names, vector)
            assert _oracle_bits(used, door, plan) == _oracle_bits(evaluator(), door, plan)
            assert _dict_sizes(used) == sizes


class TestUnknownLocations:
    @pytest.mark.parametrize("location", [-1, len(THREE_LOCATIONS)])
    @pytest.mark.parametrize(
        "door", ["evaluate_vectors", "feasible_mask", "qcost_vectors", "is_feasible"]
    )
    def test_every_door_refuses_a_location_off_the_network(
        self, matrix_stack, door, location
    ):
        app, build_evaluator = matrix_stack
        evaluator = build_evaluator(**THREE_DC_KWARGS)
        names = app.component_names
        vector = [CLOUD] * len(names)
        vector[names.index("Cache")] = location
        expected = f"unknown location {location} for component 'Cache'"
        if door == "is_feasible" and location < 0:
            expected = "negative location for component 'Cache'"  # no plan holds it
        with pytest.raises(ValueError, match=re.escape(expected)):
            if door == "is_feasible":
                evaluator.is_feasible(MigrationPlan.from_vector(names, vector))
            else:
                getattr(evaluator, door)([vector], names)


    @pytest.mark.parametrize("door", ["evaluate_vectors", "feasible_mask", "qcost_vectors"])
    def test_every_door_refuses_a_non_integral_location(self, matrix_stack, door):
        """1.5 names no site: the lowering refuses it instead of scoring site 1; a
        float an int equals scores as that int."""
        app, build_evaluator = matrix_stack
        evaluator = build_evaluator(**THREE_DC_KWARGS)
        names = app.component_names
        vector = [float(CLOUD)] * len(names)
        vector[names.index("Cache")] = 1.5
        with pytest.raises(
            ValueError, match=re.escape("non-integral location 1.5 for component 'Cache'")
        ):
            getattr(evaluator, door)([vector], names)
        whole = [float(CLOUD)] * len(names)
        got = getattr(evaluator, door)(np.asarray([whole]), names)
        want = getattr(build_evaluator(**THREE_DC_KWARGS), door)([[CLOUD] * len(names)], names)
        if door == "evaluate_vectors":
            got, want = [q.values for q in got], [q.values for q in want]
        assert np.array_equal(got, want)


class TestAllowedLocations:
    def test_whitelist_normalized_and_on_prem_implicit(self):
        prefs = MigrationPreferences(allowed_locations={"X": (2, 1, 2)})
        assert prefs.allowed_locations["X"] == (0, 1, 2)
        assert prefs.allowed_at("X", ON_PREM)
        assert prefs.allowed_at("X", 2)
        assert not prefs.allowed_at("X", 3)
        assert prefs.allowed_at("unlisted", 7)

    def test_pin_conflicting_with_whitelist_rejected(self):
        with pytest.raises(ValueError, match="whitelist"):
            MigrationPreferences(
                pinned_placement={"X": 3}, allowed_locations={"X": (1, 2)}
            )

    def test_whitelist_violation_feasibility_and_string(self, matrix_stack):
        app, build_evaluator = matrix_stack
        prefs = MigrationPreferences(allowed_locations={"Cache": (1,)})
        scalar = build_evaluator(preferences=prefs, **THREE_DC_KWARGS)
        batched = build_evaluator(preferences=prefs, **THREE_DC_KWARGS)
        base = MigrationPlan.all_on_prem(app.component_names)
        allowed_plan = base.with_location("Cache", 1)
        banned_plan = base.with_location("Cache", 2)
        assert scalar.is_feasible(allowed_plan)
        want = scalar.evaluate_reference(banned_plan)
        assert not want.feasible
        assert any("Cache" in v and "location 2" in v for v in want.violations)
        got = batched.evaluate_vectors(
            [banned_plan.to_vector()], app.component_names
        )[0]
        assert got.violations == want.violations

    def test_ga_sampling_and_mutation_respect_whitelist(self, matrix_stack):
        app, build_evaluator = matrix_stack
        prefs = MigrationPreferences(allowed_locations={"Cache": (1,), "Notifier": ()})
        evaluator = build_evaluator(preferences=prefs, **THREE_DC_KWARGS)
        config = GAConfig(
            population_size=10,
            offspring_per_generation=5,
            evaluation_budget=120,
            max_generations=6,
            train_iterations=4,
            train_batch_size=2,
            train_pairs=6,
            local_search_period=0,  # local-search probes explore freely; sampling must not
            seed=2,
        )
        ga = AtlasGA(
            evaluator, app.component_names, config, locations=THREE_LOCATIONS
        )
        cache_idx = app.component_names.index("Cache")
        notifier_idx = app.component_names.index("Notifier")
        for _ in range(50):
            vector = ga._random_vector()
            assert vector[cache_idx] in (0, 1)
            assert vector[notifier_idx] == 0
        result = ga.run()
        for quality in result.all_evaluated:
            assert quality.plan["Cache"] in (0, 1)
            assert quality.plan["Notifier"] == 0

    def test_crossover_agent_repairs_disallowed_draws(self):
        agent = CrossoverAgent(
            n_components=6,
            hidden_dims=(8,),
            seed=3,
            locations=THREE_LOCATIONS,
            pinned={0: ON_PREM},
            allowed={1: (0, 1), 2: (0,)},
        )
        rng = np.random.default_rng(0)
        for _ in range(40):
            child = agent.crossover([0, 1, 2, 0, 1, 2], [2, 1, 0, 2, 1, 0], rng)
            assert child[0] == ON_PREM
            assert child[1] in (0, 1)
            assert child[2] == 0

    def test_agent_without_whitelist_unchanged(self):
        plain = CrossoverAgent(n_components=5, hidden_dims=(8,), seed=4)
        with_empty = CrossoverAgent(n_components=5, hidden_dims=(8,), seed=4, allowed={})
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        assert plain.crossover([0, 1, 0, 1, 1], [1, 0, 0, 1, 0], rng_a) == \
            with_empty.crossover([0, 1, 0, 1, 1], [1, 0, 0, 1, 0], rng_b)


class TestRegionAwareBaselines:
    def _context(self, matrix_stack, preferences=None):
        app, build_evaluator = matrix_stack
        evaluator = build_evaluator(
            preferences=preferences,
            locations=THREE_LOCATIONS,
            catalogs={CLOUD: PricingCatalog(), 2: CHEAP_WEST},
        )
        # A constraint that forces offloading: tiny on-prem CPU allowance.
        evaluator.preferences.onprem_limits["cpu_millicores"] = 1.0
        return app, BaselineContext(
            components=app.component_names,
            evaluator=evaluator,
            traffic_matrix={("ServiceA", "Database"): 1_000.0},
            busyness={c: 1.0 for c in app.component_names},
            locations=THREE_LOCATIONS,
            network=default_multi_location_network(locations=THREE_LOCATIONS),
        )

    def test_site_preference_ranks_cheapest_first(self, matrix_stack):
        _app, context = self._context(matrix_stack)
        assert context.site_preference() == [2, 1]

    def test_greedy_offloads_to_cheapest_site(self, matrix_stack):
        _app, context = self._context(matrix_stack)
        plan = GreedyBusiestBaseline(context).recommend()
        assert plan.offloaded(), "the tight CPU limit must force offloading"
        assert all(plan[c] == 2 for c in plan.offloaded())

    def test_affinity_heuristic_offloads_to_cheapest_site(self, matrix_stack):
        _app, context = self._context(matrix_stack)
        plan = IntMABaseline(context).recommend()
        assert plan.offloaded()
        assert all(plan[c] == 2 for c in plan.offloaded())

    def test_whitelist_steers_component_to_permitted_site(self, matrix_stack):
        prefs = MigrationPreferences(allowed_locations={"ServiceA": (1,)})
        app, context = self._context(matrix_stack, preferences=prefs)
        plan = GreedyBusiestBaseline(context).recommend()
        assert plan.offloaded()
        # West is cheaper, but ServiceA's whitelist only permits east.
        assert plan["ServiceA"] in (ON_PREM, 1)
        assert any(plan[c] == 2 for c in plan.offloaded() if c != "ServiceA")
