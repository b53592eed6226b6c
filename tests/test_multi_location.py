"""N-location topology invariants.

Three laws anchor the multi-location generalization:

1. **Degeneration** (property-based): a 3-location quality stack whose third site is
   unreachable/priced out scores every two-location plan *identically* to the
   two-location stack — adding an unused region never perturbs the objectives.
2. **Engine equivalence**: the compiled replay engine matches the recursive
   ``DelayInjector`` oracle on 3-location topologies exactly, like it does on two.
3. **Two-location invariance**: the paper's two-site search is the N = 2 case of the
   one N-site path.  The shared sampler at ``locations=(0, 1)`` is the bit-vector
   draw, value for value and generator state for generator state, so fixed-seed
   2-DC runs reproduce pre-N-location results.
"""

import numpy as np
import pytest
from fingerprints import fingerprint_qualities, fingerprint_search_result
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CLOUD,
    ON_PREM,
    MigrationPlan,
    NodeSpec,
    default_multi_location_cluster,
    default_multi_location_network,
    default_network_model,
)
from repro.learning import ApiProfiler, FootprintLearner, ResourceEstimator
from repro.optimizer import AtlasGA, GAConfig, RandomSearchBaseline
from repro.optimizer.baselines import BaselineContext
from repro.optimizer.drl.agent import CrossoverAgent
from repro.optimizer.nsga2 import random_location_vector
from repro.quality import (
    ApiAvailabilityModel,
    ApiPerformanceModel,
    CloudCostModel,
    MigrationPreferences,
    PricingCatalog,
    QualityEvaluator,
)

THREE_LOCATIONS = (0, 1, 2)

#: A third region so expensive that any plan touching it blows any sane budget.
PRICED_OUT = PricingCatalog(
    node_spec=NodeSpec(
        name="unobtainium",
        cpu_millicores=2_000.0,
        memory_mb=8_192.0,
        hourly_price_usd=1e9,
    ),
    storage_usd_per_gb_month=1e9,
    egress_usd_per_gb=1e9,
)


@pytest.fixture(scope="module")
def tiny_stack(tiny_telemetry):
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
        engine="compiled",
        preferences=None,
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
            footprint,
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


def _plan(app, vector):
    return MigrationPlan.from_vector(app.component_names, list(vector))


class TestDegeneration:
    """Adding an unreachable/priced-out third site must not change anything."""

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=6, max_size=6))
    @settings(max_examples=40)
    def test_two_location_plans_score_identically(self, tiny_stack, vector):
        app, build_evaluator = tiny_stack
        two_dc = build_evaluator(locations=(ON_PREM, CLOUD))
        three_dc = build_evaluator(
            locations=THREE_LOCATIONS,
            catalogs={CLOUD: PricingCatalog(), 2: PRICED_OUT},
            location_weights={CLOUD: 1.0, 2: 5.0},
        )
        plan = _plan(app, vector)
        got = three_dc.evaluate(plan)
        want = two_dc.evaluate_reference(plan)
        assert got.objectives() == want.objectives()
        assert three_dc.evaluate_reference(plan).objectives() == want.objectives()
        assert got.feasible == want.feasible
        assert got.violations == want.violations

    def test_priced_out_region_is_infeasible_under_budget(self, tiny_stack):
        app, build_evaluator = tiny_stack
        preferences = MigrationPreferences(budget_usd=1e6)
        three_dc = build_evaluator(
            locations=THREE_LOCATIONS,
            catalogs={CLOUD: PricingCatalog(), 2: PRICED_OUT},
            preferences=preferences,
        )
        for component in app.component_names:
            plan = MigrationPlan.all_on_prem(app.component_names).with_location(
                component, 2
            )
            assert not three_dc.is_feasible(plan)

    def test_search_degenerates_when_third_site_priced_out(self, tiny_stack):
        """The 3-location GA never keeps a plan on the priced-out site, and every plan
        it returns scores exactly as the plain two-location stack scores it."""
        app, build_evaluator = tiny_stack
        preferences = MigrationPreferences(budget_usd=1e6)
        three_dc = build_evaluator(
            locations=THREE_LOCATIONS,
            catalogs={CLOUD: PricingCatalog(), 2: PRICED_OUT},
            preferences=preferences,
        )
        config = GAConfig(
            population_size=12,
            offspring_per_generation=6,
            evaluation_budget=160,
            max_generations=10,
            train_iterations=5,
            train_batch_size=2,
            train_pairs=8,
            seed=3,
        )
        result = AtlasGA(
            three_dc, app.component_names, config, locations=THREE_LOCATIONS
        ).run()
        assert result.pareto, "the search must still find feasible plans"
        two_dc = build_evaluator(locations=(ON_PREM, CLOUD), preferences=preferences)
        for quality in result.pareto:
            assert set(quality.plan.locations_used()) <= {ON_PREM, CLOUD}
            assert quality.objectives() == two_dc.evaluate_reference(quality.plan).objectives()


class TestEngineEquivalenceThreeLocations:
    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=6, max_size=6))
    @settings(max_examples=40)
    def test_compiled_matches_oracle(self, tiny_stack, vector):
        app, build_evaluator = tiny_stack
        compiled = build_evaluator(locations=THREE_LOCATIONS, engine="compiled")
        reference = build_evaluator(locations=THREE_LOCATIONS, engine="reference")
        plan = _plan(app, vector)
        got = compiled.evaluate(plan)
        want = reference.evaluate_reference(plan)
        assert got.objectives() == want.objectives()  # bitwise, like the 2-DC contract
        for api in compiled.performance.apis:
            assert compiled.performance.estimate_latencies(
                api, plan
            ) == reference.performance.estimate_latencies(api, plan)


class TestTwoLocationInvariance:
    """Explicit ``locations=(0, 1)`` must be byte-identical to the historical path."""

    @given(
        seed=st.integers(0, 2**63 - 1),
        n=st.integers(0, 64),
        offload_prob=st.floats(0.0, 1.0),
        order=st.sampled_from(["atlas-ga", "random-search"]),
    )
    def test_two_site_sampler_is_the_bit_vector_draw(self, seed, n, offload_prob, order):
        """Canary for the premise of the one path: at one remote site the sampler's
        ``integers(0, 1, size=n)`` returns zeros and draws nothing.

        The GA (and the affinity NSGA-II) draw their offload probability before the
        mask, random search between the mask and the sites; both must leave the
        generator where the bare bit-vector draw leaves it.
        """
        bare, shared = np.random.default_rng(seed), np.random.default_rng(seed)
        if order == "atlas-ga":
            bare.uniform(0.1, 0.95)
            shared.uniform(0.1, 0.95)
        want = [int(d < offload_prob) for d in bare.random(n)]
        offloaded = shared.random(n) < offload_prob
        if order == "random-search":
            bare.uniform(0.1, 0.9)
            shared.uniform(0.1, 0.9)
        got = random_location_vector(shared, offloaded, (ON_PREM, CLOUD))
        assert got == want and all(type(gene) is int for gene in got)
        assert shared.bit_generator.state == bare.bit_generator.state, (
            "numpy's Generator.integers(0, 1, size=n) consumed the stream: the "
            "two-site search is no longer the bit-vector GA's draw for draw"
        )

    def test_atlas_ga_fixed_seed_trajectory_unchanged(self, tiny_stack):
        app, build_evaluator = tiny_stack
        config = GAConfig(
            population_size=10,
            offspring_per_generation=5,
            evaluation_budget=120,
            max_generations=8,
            train_iterations=5,
            train_batch_size=2,
            train_pairs=8,
            seed=7,
        )
        implicit = AtlasGA(build_evaluator(), app.component_names, config).run()
        explicit = AtlasGA(
            build_evaluator(), app.component_names, config, locations=(ON_PREM, CLOUD)
        ).run()
        assert fingerprint_search_result(implicit) == fingerprint_search_result(
            explicit
        )

    def test_crossover_agent_binary_path_unchanged(self):
        binary = CrossoverAgent(n_components=5, hidden_dims=(8,), seed=4)
        explicit = CrossoverAgent(
            n_components=5, hidden_dims=(8,), seed=4, locations=(0, 1)
        )
        parent_a, parent_b = [0, 1, 0, 1, 1], [1, 0, 0, 1, 0]
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        assert binary.crossover(parent_a, parent_b, rng_a) == explicit.crossover(
            parent_a, parent_b, rng_b
        )

    def test_random_search_binary_path_unchanged(self, tiny_stack):
        app, build_evaluator = tiny_stack

        def run(locations):
            evaluator = build_evaluator()
            context = BaselineContext(
                components=app.component_names,
                evaluator=evaluator,
                traffic_matrix={},
                locations=locations,
            )
            front = RandomSearchBaseline(context, evaluation_budget=60, seed=2).recommend()
            return fingerprint_qualities(front)

        assert run((ON_PREM, CLOUD)) == run((0, 1))


class TestMultiLocationSearch:
    def test_agent_emits_all_locations_and_respects_pins(self):
        agent = CrossoverAgent(
            n_components=8,
            hidden_dims=(16,),
            seed=0,
            locations=THREE_LOCATIONS,
            pinned={0: ON_PREM, 7: 2},
        )
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(60):
            child = agent.crossover([0, 1, 2, 0, 1, 2, 0, 1], [2, 1, 0, 2, 1, 0, 2, 1], rng)
            assert child[0] == ON_PREM and child[7] == 2
            seen.update(child)
            assert set(child) <= set(THREE_LOCATIONS)
        assert seen == set(THREE_LOCATIONS)

    def test_agent_rejects_pins_outside_location_set(self):
        for locations, outside in ((THREE_LOCATIONS, 7), ((ON_PREM, CLOUD), 2)):
            with pytest.raises(ValueError, match="pinned locations"):
                CrossoverAgent(
                    n_components=4, hidden_dims=(8,), locations=locations,
                    pinned={1: outside},
                )

    def test_ga_rejects_pins_outside_location_set(self, tiny_stack):
        app, build_evaluator = tiny_stack
        stateful = sorted(app.stateful_components())
        for locations, outside in ((THREE_LOCATIONS, 7), ((ON_PREM, CLOUD), 2)):
            preferences = MigrationPreferences(pinned_placement={stateful[0]: outside})
            evaluator = build_evaluator(locations=locations, preferences=preferences)
            with pytest.raises(ValueError, match="outside the search"):
                AtlasGA(
                    evaluator, app.component_names, GAConfig(seed=0), locations=locations
                )

    def test_agent_training_improves_nothing_but_runs(self, tiny_stack):
        """Categorical training must run end to end and keep pins fixed."""
        agent = CrossoverAgent(
            n_components=6, hidden_dims=(8,), seed=1, locations=THREE_LOCATIONS,
            pinned={2: ON_PREM},
        )
        pairs = [([0, 1, 0, 2, 1, 0], [2, 0, 1, 0, 2, 1])]

        def reward(children, _parents_a, _parents_b):
            assert all(child[2] == ON_PREM for child in children)
            return [1.0 if child.count(ON_PREM) >= 2 else -1.0 for child in children]

        history = agent.train(pairs, reward, iterations=5, batch_size=2)
        assert len(history.mean_rewards) == 5

    def test_ga_explores_every_location(self, tiny_stack):
        app, build_evaluator = tiny_stack
        evaluator = build_evaluator(
            locations=THREE_LOCATIONS,
            catalogs={CLOUD: PricingCatalog(), 2: PricingCatalog()},
        )
        config = GAConfig(
            population_size=12,
            offspring_per_generation=6,
            evaluation_budget=150,
            max_generations=8,
            train_iterations=4,
            train_batch_size=2,
            train_pairs=8,
            seed=5,
        )
        result = AtlasGA(
            evaluator, app.component_names, config, locations=THREE_LOCATIONS
        ).run()
        visited = set()
        for quality in result.all_evaluated:
            visited.update(quality.plan.locations_used())
        assert visited == set(THREE_LOCATIONS)

    def test_affinity_seed_cut_accounting_with_third_site_pin(self):
        """A neighbour pinned to a third site crosses the cut on *both* sides of a
        toggle, so it must never make a move look cut-reducing."""
        from repro.optimizer.atlas_ga import affinity_seed_vectors

        components = ["a", "b", "p"]
        seeds = affinity_seed_vectors(
            components=components,
            pinned={"p": 2},
            # a<->p dominates but is cross-site whatever a does; a<->b is local and
            # would be cut by offloading a.
            pair_traffic={("a", "p"): 100.0, ("a", "b"): 10.0},
            is_feasible=lambda plan: True,
            rng=np.random.default_rng(0),
            count=2,
            locations=THREE_LOCATIONS,
        )
        for seed in seeds:
            # Offloading "a" would add 10 bytes of cut; the pinned edge is a wash.
            assert seed == [ON_PREM, ON_PREM, 2]

    def test_all_evaluated_scoped_to_one_run(self, tiny_stack):
        app, build_evaluator = tiny_stack
        evaluator = build_evaluator()
        config = GAConfig(
            population_size=8,
            offspring_per_generation=4,
            evaluation_budget=60,
            max_generations=4,
            train_iterations=3,
            train_batch_size=2,
            train_pairs=6,
            seed=11,
        )
        first = AtlasGA(evaluator, app.component_names, config).run()
        config_b = GAConfig(
            population_size=8,
            offspring_per_generation=4,
            evaluation_budget=120,
            max_generations=4,
            train_iterations=3,
            train_batch_size=2,
            train_pairs=6,
            seed=12,
        )
        second = AtlasGA(evaluator, app.component_names, config_b).run()
        # The two runs partition the shared evaluator's distinct-plan cache.
        assert len(first.all_evaluated) + len(second.all_evaluated) == evaluator.cache_size()

    def test_move_candidates_cover_all_targets(self, tiny_stack):
        app, build_evaluator = tiny_stack
        evaluator = build_evaluator(locations=THREE_LOCATIONS)
        ga = AtlasGA(
            evaluator, app.component_names, GAConfig(seed=0), locations=THREE_LOCATIONS
        )
        vector = [0] * len(app.component_names)
        moves = ga._move_candidates(vector)
        single_values = {tuple(m) for m in moves}
        # Every component can be moved to each of the two remote sites.
        for gene in range(len(vector)):
            for target in (1, 2):
                candidate = list(vector)
                candidate[gene] = target
                assert tuple(candidate) in single_values


class TestTopologyBuilders:
    def test_multi_location_cluster_shape(self):
        cluster = default_multi_location_cluster()
        assert cluster.location_ids == [0, 1, 2]
        assert [dc.name for dc in cluster.datacenters] == [
            "on-prem",
            "cloud-east",
            "cloud-west",
        ]
        assert [dc.location_id for dc in cluster.elastic_datacenters()] == [1, 2]
        assert [dc.location_id for dc in cluster.remote_datacenters()] == [1, 2]
        assert cluster.n_locations == 3

    def test_extra_regions_extend_location_ids(self):
        cluster = default_multi_location_cluster(
            extra_regions=[{"name": "edge", "region": "factory-floor"}]
        )
        assert cluster.location_ids == [0, 1, 2, 3]
        assert cluster.datacenter(3).name == "edge"

    def test_multi_location_network_is_dense_and_degenerates(self):
        network = default_multi_location_network(locations=(0, 1, 2))
        assert network.locations() == [0, 1, 2]
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                assert network.has_link(a, b)
        two_dc = default_network_model()
        for pair in ((0, 0), (1, 1), (0, 1)):
            assert network.latency_ms(*pair) == two_dc.latency_ms(*pair)
            assert network.bandwidth_mbps(*pair) == two_dc.bandwidth_mbps(*pair)
        # The farther region is actually farther.
        assert network.latency_ms(0, 2) > network.latency_ms(0, 1)

    def test_plan_locations_used(self):
        plan = MigrationPlan({"a": 0, "b": 2, "c": 0, "d": 1})
        assert plan.locations_used() == [0, 1, 2]
        assert plan.components_at(2) == ["b"]
        assert sorted(plan.offloaded()) == ["b", "d"]


class TestMultiLocationQuality:
    def test_cost_bills_each_region_with_its_catalog(self, tiny_stack):
        app, build_evaluator = tiny_stack
        cheap_west = PricingCatalog(
            node_spec=NodeSpec(
                name="west", cpu_millicores=2_000.0, memory_mb=8_192.0,
                hourly_price_usd=0.01,
            ),
            storage_usd_per_gb_month=0.01,
            egress_usd_per_gb=0.09,
        )
        evaluator = build_evaluator(
            locations=THREE_LOCATIONS,
            catalogs={CLOUD: PricingCatalog(), 2: cheap_west},
        )
        components = app.component_names
        east = MigrationPlan.from_vector(components, [1] * len(components))
        west = MigrationPlan.from_vector(components, [2] * len(components))
        east_cost = evaluator.cost.qcost(east)
        west_cost = evaluator.cost.qcost(west)
        assert west_cost < east_cost  # same demand, cheaper nodes/storage
        by_location = evaluator.cost.node_series_by_location(east)
        assert set(by_location) == {CLOUD, 2}
        assert sum(by_location[2]) == 0  # nothing placed west under the east plan

    def test_availability_weights_scale_with_destination(self, tiny_stack):
        app, build_evaluator = tiny_stack
        weighted = build_evaluator(
            locations=THREE_LOCATIONS,
            location_weights={CLOUD: 1.0, 2: 3.0},
        ).availability
        stateful = sorted(app.stateful_components())
        assert stateful, "tiny app must have a stateful component"
        base = MigrationPlan.all_on_prem(app.component_names)
        near = base.with_location(stateful[0], CLOUD)
        far = base.with_location(stateful[0], 2)
        assert weighted.qavai(far) == 3.0 * weighted.qavai(near)
        assert weighted.disruption_factor("/read", far) in (0.0, 3.0)
