"""A compiled scenario is shared by content across evaluators, and only by content.

An evaluator built through an artifact cache keys every compiled scenario (the
scenario estimate, payload-scaled footprint, faulted network / availability /
preferences / catalogs, derived cost model and τ_A weights) by
``("scenario", evaluator.content_digest, spec.identity_key())``.  The digest is
composed from everything a compile reads and from no trace, so a fresh evaluator
over spliced knowledge reuses what the last certificate compiled.  Two laws pin it:

1. **Sharing changes no bit** (property): ``evaluate_batch`` and ``certify_plan``
   from a second evaluator reading a warm cache ≡ the same calls on a cold evaluator
   with no cache, by ``float.hex``, over random specs (rate, payload and mix × every
   fault kind) on 2 and 3 sites, random plans and certify budgets.
2. **The key is complete** (examples): changing any one input a compile reads
   misses; a trace-only splice hits.

A certificate is content too: ``certify_plan`` on an evaluator built through a cache
keeps it there under ``("certificate", sha)``.  Law 1 therefore certifies, on the
warm evaluator, a plan nobody has certified yet, so the adversary runs over the shared
scenarios instead of answering from the cache; and

3. **The certificate key is complete** (examples): every input the adversary reads —
   the current traces, the plan's locations, budget, seed, bounds, extra specs, the
   problem, the locations searched, the engine — misses when it alone changes; an
   advisor learned again from the same telemetry hits.

Evaluators racing on threads over one cache fill the shared models' memos and still
score and certify what a cold evaluator does; racing on one plan, they run the
adversary once.

Run deeper with ``--hypothesis-profile=ci`` (see ``tests/conftest.py``).
"""

import copy
import dataclasses
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_artifacts import TINY_GA, _perturb

from repro.apps import Application
from repro.cluster import (
    CLOUD,
    ON_PREM,
    HybridCluster,
    MigrationPlan,
    NodeSpec,
    default_multi_location_cluster,
    default_multi_location_network,
)
from repro.learning import NetworkFootprint, ResourceEstimator
from repro.quality import (
    AdversaryBounds,
    ArtifactCache,
    CapacityCut,
    LinkDegradation,
    LocationOutage,
    MigrationChurnObjective,
    MigrationPreferences,
    PlacementProblem,
    PriceShock,
    PricingCatalog,
    ScenarioSet,
    ScenarioSpec,
)
from repro.recommend import Atlas, AtlasConfig

WEST = PricingCatalog(
    node_spec=NodeSpec(
        name="west", cpu_millicores=1_500.0, memory_mb=6_000.0, hourly_price_usd=0.0517
    ),
    storage_usd_per_gb_month=0.0413,
    egress_usd_per_gb=0.0713,
)
SCALE = 3.0


def _atlas(app, telemetry, sites):
    """A learned tiny-app advisor on ``sites`` locations whose every constraint bites."""
    limit = (
        ResourceEstimator(app, telemetry)
        .fit()
        .predict_scaled(SCALE)
        .peak("cpu_millicores", app.component_names)
        * 1.1
    )
    preferences = MigrationPreferences(
        critical_apis=["/write"],
        pinned_placement={"Database": ON_PREM},
        allowed_locations={"Cache": (CLOUD,)},
        onprem_limits={"cpu_millicores": limit},
    )
    if sites == 2:
        atlas = Atlas(app, preferences, config=AtlasConfig(traces_per_api=15, ga=TINY_GA))
    else:
        cluster = default_multi_location_cluster()
        atlas = Atlas(
            app,
            preferences,
            network=default_multi_location_network(locations=cluster.location_ids),
            config=AtlasConfig(
                traces_per_api=15,
                ga=TINY_GA,
                pricing_by_location={CLOUD: PricingCatalog(), 2: WEST},
            ),
            cluster=cluster,
        )
    atlas.learn(telemetry)
    return atlas


@pytest.fixture(scope="module")
def learned(tiny_telemetry):
    app, result = tiny_telemetry
    return {sites: _atlas(app, result.telemetry, sites) for sites in (2, 3)}


def kept_certificates(cache):
    return sum(key[0] == "certificate" for key in cache._entries)


def faults(sites):
    far = sites[-1]
    return st.one_of(
        st.builds(
            LocationOutage,
            st.sampled_from(sites),
            availability_penalty=st.sampled_from([1.0, 4.0]),
            evacuate=st.booleans(),
        ),
        st.builds(
            LinkDegradation,
            pairs=st.sampled_from([None, ((ON_PREM, far),)]),
            latency_factor=st.sampled_from([1.0, 3.0]),
            bandwidth_factor=st.sampled_from([1.0, 0.5]),
        ),
        st.builds(
            PriceShock,
            locations=st.sampled_from([None, (CLOUD,), (far,)]),
            compute_factor=st.sampled_from([0.5, 1.0, 2.5]),
            storage_factor=st.sampled_from([1.0, 3.0]),
            egress_factor=st.sampled_from([0.25, 1.0, 2.0]),
        ),
        st.builds(
            CapacityCut,
            st.sampled_from(sites),
            remaining_fraction=st.sampled_from([0.25, 0.5, 1.0]),
        ),
    )


@st.composite
def specs(draw, name, sites):
    """One spec: rate, mix and payload changes, each drawn on or off, plus zero to
    two faults of any kind."""
    fields = {}
    if draw(st.booleans()):
        fields["rate_scale"] = draw(st.sampled_from([0.5, 2.0, 5.0]))
    if draw(st.booleans()):
        fields["api_rate_factors"] = {
            "/write": draw(st.sampled_from([0.0, 0.75, 2.0])),
            "/read": draw(st.sampled_from([0.5, 1.0, 1.5])),
        }
    if draw(st.booleans()):
        fields["payload_factors"] = {"/read": draw(st.sampled_from([0.5, 2.5]))}
        fields["payload_scale"] = draw(st.sampled_from([1.0, 1.5]))
    fields["faults"] = tuple(draw(st.lists(faults(sites), max_size=2)))
    return ScenarioSpec(name=name, **fields)


def hexes(values):
    return [float(value).hex() for value in values]


def described(quality):
    """Everything a scored plan reports, floats as hex."""
    return (
        hexes(quality.values),
        quality.feasible,
        quality.violations,
        [
            (entry.scenario, hexes(entry.values), entry.feasible, entry.violations)
            for entry in quality.scenarios
        ],
    )


def certified(certificate):
    """Everything a certificate reports, floats as hex."""
    return (
        repr(certificate.worst_spec.compile_key()),
        hexes(certificate.baseline_values),
        certificate.baseline_feasible,
        hexes(certificate.worst_values),
        hexes(certificate.regret),
        float(certificate.worst_regret).hex(),
        certificate.feasible_under_fault,
        certificate.violations,
        certificate.budget_spent,
        sorted((name, float(value).hex()) for name, value in certificate.family_regrets.items()),
    )


class TestSharedStateEqualsACompileOfItsOwn:
    """Law 1: a warm evaluator ≡ a cold evaluator with no cache, bitwise."""

    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        sites=st.sampled_from((2, 3)),
        n_plans=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        budget=st.sampled_from((1, 4, 12)),
    )
    def test_scores_and_certificates_from_a_warm_cache_are_the_cold_ones(
        self, learned, data, sites, n_plans, seed, budget
    ):
        atlas = learned[sites]
        drawn = [
            data.draw(specs(f"s{index}", tuple(atlas.locations)))
            for index in range(data.draw(st.integers(1, 3)))
        ]
        problem = PlacementProblem.default(scenarios=ScenarioSet(tuple(drawn)))
        rng = np.random.default_rng(seed)
        components = atlas.application.component_names
        plans = [
            MigrationPlan.from_vector(components, row.tolist())
            for row in rng.integers(0, sites, size=(n_plans, len(components)))
        ]
        cache = ArtifactCache()
        first = atlas.build_evaluator(
            expected_scale=SCALE, problem=problem, artifact_cache=cache
        )
        first.evaluate_batch(plans)
        atlas.certify_plan(first, plans[0], budget=budget)

        warm = atlas.build_evaluator(
            expected_scale=SCALE, problem=problem, artifact_cache=cache
        )
        cold = atlas.build_evaluator(expected_scale=SCALE, problem=problem)
        assert warm.content_digest == first.content_digest is not None
        assert cold.content_digest is None
        for spec in problem.scenarios:
            if not spec.is_baseline:  # shared, not merely equal
                assert warm._scenario_pair(spec)[0].cost is first._scenario_pair(spec)[0].cost
        assert [described(q) for q in warm.evaluate_batch(plans)] == [
            described(q) for q in cold.evaluate_batch(plans)
        ]
        # A plan nobody has certified: the adversary runs on the warm evaluator.
        moved = components[int(rng.integers(len(components)))]
        unseen = plans[0].with_location(moved, (plans[0][moved] + 1) % sites)
        kept = kept_certificates(cache)
        certificate = atlas.certify_plan(warm, unseen, budget=budget)
        assert kept_certificates(cache) == kept + 1
        assert certified(certificate) == certified(
            atlas.certify_plan(cold, unseen, budget=budget)
        )


class TestRacingEvaluators:
    """Evaluators on racing threads fill one cache and the memos of the models they
    share: each still scores and certifies what a cold evaluator does."""

    PROBLEM = PlacementProblem.default(
        scenarios=(
            ScenarioSpec(name="burst", rate_scale=2.0, payload_factors={"/read": 2.5}),
            ScenarioSpec(name="west-out", faults=(LocationOutage(2),)),
            ScenarioSpec(
                name="pricey",
                api_rate_factors={"/write": 2.0},
                faults=(PriceShock(egress_factor=2.0),),
            ),
        )
    )

    def test_six_threads_one_cache(self, learned):
        atlas = learned[3]
        components = atlas.application.component_names
        plans = [
            MigrationPlan.from_vector(components, row.tolist())
            for row in np.random.default_rng(5).integers(0, 3, size=(9, len(components)))
        ]
        # Each thread certifies a plan of its own, so every adversary runs.
        assert len({tuple(plan.to_vector()) for plan in plans[:6]}) == 6
        cold = atlas.build_evaluator(expected_scale=SCALE, problem=self.PROBLEM)
        scores = [described(q) for q in cold.evaluate_batch(plans)]
        want = {
            index: (scores, certified(atlas.certify_plan(cold, plans[index], budget=6)))
            for index in range(6)
        }
        cache = ArtifactCache()
        results, errors = {}, []

        def work(index):
            try:
                evaluator = atlas.build_evaluator(
                    expected_scale=SCALE, problem=self.PROBLEM, artifact_cache=cache
                )
                # Half the threads fill the shared memos in the other order.
                order = plans if index % 2 else plans[::-1]
                scored = evaluator.evaluate_batch(order)
                if not index % 2:
                    scored = scored[::-1]
                results[index] = (
                    [described(q) for q in scored],
                    certified(atlas.certify_plan(evaluator, plans[index], budget=6)),
                )
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        _race(work)
        assert errors == []
        assert results == want
        assert kept_certificates(cache) == 6

    def test_six_threads_one_plan_run_the_adversary_once(self, learned, adversary_runs):
        atlas = learned[3]
        plan = MigrationPlan.all_on_prem(atlas.application.component_names).with_location(
            "Cache", CLOUD
        )
        want = certified(
            atlas.certify_plan(atlas.build_evaluator(expected_scale=SCALE), plan, budget=6)
        )
        del adversary_runs[:]
        cache = ArtifactCache()
        results, errors = {}, []

        def work(index):
            try:
                evaluator = atlas.build_evaluator(expected_scale=SCALE, artifact_cache=cache)
                results[index] = atlas.certify_plan(evaluator, plan, budget=6)
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        _race(work)
        assert errors == []
        assert adversary_runs == [plan]
        (certificate,) = {id(value): value for value in results.values()}.values()
        assert len(results) == 6 and certified(certificate) == want


def _race(work):
    """Run ``work(index)`` on six threads switching every 10 µs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        running = [threading.Thread(target=work, args=(index,)) for index in range(6)]
        for thread in running:
            thread.start()
        for thread in running:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in running)


class TestTheKeyIsComplete:
    """Law 2: one changed input a compile reads misses; a changed trace hits."""

    PROBE = ScenarioSpec(name="probe", rate_scale=2.0, payload_scale=1.5)

    @pytest.fixture()
    def base(self, learned):
        return copy.deepcopy(learned[3])

    @staticmethod
    def _shared(atlas, cache, **kwargs):
        """Whether ``atlas``'s evaluator reads the probe's compiled scenario from
        ``cache`` (compiled there first by the unchanged advisor)."""
        kwargs.setdefault("expected_scale", SCALE)
        misses = cache.misses
        atlas.build_evaluator(artifact_cache=cache, **kwargs)._scenario_pair(
            TestTheKeyIsComplete.PROBE
        )
        return cache.misses == misses

    @pytest.fixture()
    def warm(self, base):
        cache = ArtifactCache()
        self._shared(base, cache)
        assert self._shared(base, cache)
        return cache

    def _misses(self, atlas, warm, **kwargs):
        return not self._shared(atlas, warm, **kwargs)

    def test_the_expected_scale(self, base, warm):
        assert self._misses(base, warm, expected_scale=SCALE + 0.5)

    def test_an_estimator_refit(self, base, warm):
        rates = base.knowledge.estimator.telemetry.api_request_rates()
        scaled = {api: [v * SCALE for v in series] for api, series in rates.items()}
        # The key holds the rates, not how a request spelled them ...
        assert self._shared(base, warm, api_rates=scaled)
        refit = copy.copy(base.knowledge.estimator)
        refit._models = dict(refit._models)
        key, (idle, coef) = next(iter(sorted(refit._models.items())))
        refit._models[key] = (idle + 1.0, coef)
        refit._digest = None
        base.knowledge.estimator = refit
        # ... so with the same rates only the fitted models moved.
        assert self._misses(base, warm, api_rates=scaled)

    def test_the_estimate_step(self, base, warm):
        estimator = copy.copy(base.knowledge.estimator)
        rates = estimator.telemetry.api_request_rates()
        # The same fit and the same rates, billed over windows twice as long.
        estimator.telemetry = types.SimpleNamespace(
            window_ms=estimator.telemetry.window_ms * 2.0, api_request_rates=lambda: rates
        )
        base.knowledge.estimator = estimator
        assert self._misses(base, warm)

    def test_the_footprint(self, base, warm):
        footprint = base.knowledge.footprint
        edges = [edge for api in footprint.apis for edge in footprint.edges_of(api).values()]
        edges[0] = dataclasses.replace(edges[0], request_bytes=edges[0].request_bytes + 1.0)
        base.knowledge.footprint = NetworkFootprint(edges)
        assert self._misses(base, warm)

    def test_one_link(self, base, warm):
        link = base.network.link(ON_PREM, 2)
        base.network = base.network.derive(
            {(ON_PREM, 2): dataclasses.replace(link, latency_ms=link.latency_ms + 1.0)}
        )
        assert self._misses(base, warm)

    def test_the_pricing(self, base, warm):
        catalogs = dict(base.config.pricing_by_location)
        catalogs[2] = dataclasses.replace(WEST, egress_usd_per_gb=0.09)
        base.config = dataclasses.replace(base.config, pricing_by_location=catalogs)
        assert self._misses(base, warm)

    def test_the_time_compression(self, base, warm):
        base.config = dataclasses.replace(base.config, time_compression=144.0)
        assert self._misses(base, warm)

    def test_the_location_weights(self, base, warm):
        base.config = dataclasses.replace(
            base.config, availability_location_weights={2: 1.5}
        )
        assert self._misses(base, warm)

    def test_the_billable_sites(self, base):
        base.config = dataclasses.replace(base.config, pricing_by_location=None)
        cache = ArtifactCache()
        self._shared(base, cache)
        # Location 2 turns into a fixed-size site: same ids, links and config.
        base.cluster = HybridCluster(
            [
                dataclasses.replace(dc, elastic=False, node_count=4)
                if dc.location_id == 2
                else dc
                for dc in base.cluster.datacenters
            ]
        )
        assert self._misses(base, cache)

    def test_the_preferences_of_a_request(self, base, warm):
        changed = dataclasses.replace(base.preferences, critical_apis=["/read"])
        assert self._misses(base, warm, preferences=changed)

    def test_the_preferences_of_a_tenant(self, base, warm):
        base.preferences = dataclasses.replace(base.preferences, critical_apis=["/read"])
        assert self._misses(base, warm)

    def test_the_stateful_set(self, base, warm):
        profiles = base.knowledge.api_profiles
        profiles["/read"] = dataclasses.replace(
            profiles["/read"], stateful_components=["Cache", "Database"]
        )
        assert self._misses(base, warm)

    def test_the_storage_metadata(self, base, warm):
        app = base.application
        components = [
            dataclasses.replace(
                component,
                resources=dataclasses.replace(
                    component.resources, storage_gb=component.resources.storage_gb + 5.0
                ),
            )
            if component.stateful
            else component
            for component in app.components
        ]
        base.application = Application(app.name, components, app.apis)
        assert self._misses(base, warm)

    def test_the_baseline_plan(self, base, warm):
        base.current_plan = base.current_plan.with_location("Cache", CLOUD)
        assert self._misses(base, warm)

    def test_the_api_set(self, base, warm):
        profiles = base.knowledge.api_profiles
        profiles["/write"] = dataclasses.replace(profiles["/write"], sample_traces=[])
        assert self._misses(base, warm)

    def test_a_trace_only_splice_hits(self, base, warm):
        profiles = base.knowledge.api_profiles
        profiles["/read"] = dataclasses.replace(
            profiles["/read"],
            sample_traces=[_perturb(t, 1.3) for t in profiles["/read"].sample_traces],
        )
        assert self._shared(base, warm)


class TestTheCertificateKeyIsComplete:
    """Law 3: one changed input the adversary reads runs it again; equal content does not."""

    BUDGET = 4

    @pytest.fixture()
    def base(self, learned):
        return copy.deepcopy(learned[3])

    @pytest.fixture()
    def plan(self, base):
        return MigrationPlan.all_on_prem(base.application.component_names).with_location(
            "Cache", CLOUD
        )

    @pytest.fixture()
    def warm(self, base, plan, adversary_runs):
        """An evaluator through a cache that holds ``plan``'s certificate."""
        evaluator = base.build_evaluator(expected_scale=SCALE, artifact_cache=ArtifactCache())
        base.certify_plan(evaluator, plan, budget=self.BUDGET)
        assert self._kept(base, evaluator, plan, adversary_runs)
        return evaluator

    def _kept(self, atlas, evaluator, plan, runs, **kwargs):
        """Whether certifying ``plan`` on ``evaluator`` ran no adversary."""
        kwargs.setdefault("budget", self.BUDGET)
        before = len(runs)
        atlas.certify_plan(evaluator, plan, **kwargs)
        return len(runs) == before

    def _through(self, atlas, warm, **kwargs):
        """An evaluator of ``atlas`` over ``warm``'s cache."""
        return atlas.build_evaluator(
            expected_scale=SCALE, artifact_cache=warm._artifact_cache, **kwargs
        )

    def test_the_evaluator_content(self, base, warm, plan, adversary_runs):
        busier = base.build_evaluator(
            expected_scale=SCALE + 0.5, artifact_cache=warm._artifact_cache
        )
        assert not self._kept(base, busier, plan, adversary_runs)

    def test_a_trace_only_splice(self, base, warm, plan, adversary_runs):
        digest = warm.content_digest
        traces = base.knowledge.api_profiles["/read"].sample_traces
        warm.splice({"/read": [_perturb(trace, 1.3) for trace in traces]})
        # What a scenario compiles from survives the splice; the certificate does not.
        assert warm.content_digest == digest
        assert not self._kept(base, warm, plan, adversary_runs)

    def test_the_remote_site_of_one_component(self, base, warm, plan, adversary_runs):
        elsewhere = plan.with_location("Cache", 2)
        assert elsewhere.offloaded() == plan.offloaded()
        assert not self._kept(base, warm, elsewhere, adversary_runs)

    def test_the_component_order(self, base, warm, plan, adversary_runs):
        order = plan.components[::-1]
        mirrored = MigrationPlan.from_vector(order, plan.to_vector())
        assert mirrored.to_vector() == plan.to_vector() and dict(mirrored) != dict(plan)
        assert not self._kept(base, warm, mirrored, adversary_runs)

    @pytest.mark.parametrize(
        "change",
        [
            {"budget": BUDGET + 1},
            {"bounds": AdversaryBounds(max_rate_scale=4.0)},
            {"extra_specs": (ScenarioSpec(name="extra", rate_scale=2.0),)},
        ],
        ids=["budget", "bounds", "extra-spec"],
    )
    def test_an_adversary_argument(self, base, warm, plan, adversary_runs, change):
        assert not self._kept(base, warm, plan, adversary_runs, **change)

    def test_the_name_of_an_extra_spec(self, base, warm, plan, adversary_runs):
        spec = ScenarioSpec(name="extra", rate_scale=2.0)
        assert not self._kept(base, warm, plan, adversary_runs, extra_specs=(spec,))
        renamed = dataclasses.replace(spec, name="renamed")
        assert not self._kept(base, warm, plan, adversary_runs, extra_specs=(renamed,))

    def test_the_problem(self, base, warm, plan, adversary_runs):
        components = base.application.component_names

        def churn(baseline):
            problem = PlacementProblem.default(
                extra_objectives=[MigrationChurnObjective(baseline)]
            )
            return self._through(base, warm, problem=problem)

        stay = MigrationPlan.all_on_prem(components)
        assert not self._kept(base, churn(stay), plan, adversary_runs)
        assert self._kept(base, churn(stay), plan, adversary_runs)
        moved = churn(stay.with_location("Cache", CLOUD))
        assert moved.content_digest == warm.content_digest
        assert not self._kept(base, moved, plan, adversary_runs)

    def test_the_engine(self, base, warm, plan, adversary_runs):
        reference = self._through(base, warm, performance_engine="reference")
        assert reference.content_digest == warm.content_digest
        assert not self._kept(base, reference, plan, adversary_runs)

    def test_the_locations_searched(self, base, warm, plan, adversary_runs):
        two_sites = copy.copy(base)
        two_sites.cluster = None
        assert two_sites.locations != base.locations
        assert not self._kept(two_sites, warm, plan, adversary_runs)

    def test_an_advisor_learned_again_hits(self, tiny_telemetry, base, warm, plan, adversary_runs):
        app, result = tiny_telemetry
        twin = _atlas(app, result.telemetry, 3)
        assert twin.knowledge is not base.knowledge
        kept = base.certify_plan(warm, plan, budget=self.BUDGET)
        again = twin.certify_plan(self._through(twin, warm), plan, budget=self.BUDGET)
        assert again is kept and len(adversary_runs) == 1
