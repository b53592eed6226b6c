"""Fault-injection, scenario-factory and adversarial-certification invariants.

Four laws anchor the robustness layer:

1. **Fault validity** — fault parameters are validated at construction (an outage
   can never *improve* a destination: ``availability_penalty >= 1``,
   ``latency_factor >= 1``, ``bandwidth_factor <= 1``), and unknown API names in a
   spec's factor maps raise at compile time.
2. **Fault monotonicity** (property-based) — a :class:`LocationOutage` never
   improves QPerf or QAvai relative to the fault-free baseline, for any plan and
   any admissible fault parameters; and at a fixed outage choice, one step of any
   severity knob toward its bound never lowers a built-in objective and never
   restores feasibility (what certification by the all-severe corners rests on).
3. **Fault-free identity** — specs without faults keep the exact pre-fault compile
   key shape and evaluate byte-identically whether or not faulted scenarios were
   compiled alongside them in the same evaluator.
4. **Adversary dominance** — the certificate's worst case scores at least the
   scalarized regret of every factory stress family (the families are always
   scored), and certification is deterministic for a fixed budget.
"""

import pytest
from fingerprints import fingerprint_certificate, fingerprint_scenario_entries, severity_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CLOUD,
    ON_PREM,
    LinkSpec,
    MigrationPlan,
    NodeSpec,
    default_multi_location_network,
    default_network_model,
)
from repro.learning import ApiProfiler, FootprintLearner, ResourceEstimator
from repro.monitoring import DriftDetector
from repro.quality import (
    AdversaryBounds,
    ApiAvailabilityModel,
    ApiPerformanceModel,
    CapacityCut,
    CloudCostModel,
    EgressTrafficObjective,
    LinkDegradation,
    LocationOutage,
    MigrationPreferences,
    PlacementProblem,
    PriceShock,
    PricingCatalog,
    QualityEvaluator,
    ScenarioAdversary,
    ScenarioFactory,
    ScenarioSet,
    ScenarioSpec,
)

THREE_LOCATIONS = (ON_PREM, CLOUD, 2)


@pytest.fixture(scope="module")
def fault_stack(tiny_telemetry):
    """Learned models of the tiny app plus an evaluator factory (3-location capable)."""
    app, result = tiny_telemetry
    telemetry = result.telemetry
    baseline = MigrationPlan.all_on_prem(app.component_names)
    profiles = ApiProfiler(
        telemetry, stateful_components=app.stateful_components(), traces_per_api=20
    ).profile_all()
    footprint = FootprintLearner(telemetry).learn()
    estimator = ResourceEstimator(app, telemetry).fit()
    estimate = estimator.predict_scaled(3.0)
    limit = estimate.peak("cpu_millicores", app.component_names) * 1.1

    def build_evaluator(
        locations=THREE_LOCATIONS,
        preferences=None,
        with_estimator=True,
        scenarios=None,
        problem=None,
    ):
        network = (
            default_network_model()
            if len(locations) == 2
            else default_multi_location_network(locations=locations)
        )
        performance = ApiPerformanceModel(
            traces_by_api={api: p.sample_traces for api, p in profiles.items()},
            footprint=footprint,
            network=network,
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
            catalogs={loc: PricingCatalog() for loc in locations if loc != ON_PREM},
        )
        return QualityEvaluator(
            performance=performance,
            availability=availability,
            cost=cost,
            preferences=preferences
            or MigrationPreferences(onprem_limits={"cpu_millicores": limit}),
            estimate=estimate,
            component_order=app.component_names,
            estimator=estimator if with_estimator else None,
            problem=problem or PlacementProblem.default(scenarios=scenarios),
        )

    return app, build_evaluator


def _plan(app, vector):
    return MigrationPlan.from_vector(app.component_names, list(vector))


plans_strategy = st.lists(
    st.integers(min_value=0, max_value=2), min_size=6, max_size=6
)

#: Every float knob of a scenario, a fault and the adversary's bounds, as
#: ``(build, knob)`` with ``build(**{knob: value})`` constructing the object.
FLOAT_KNOBS = [
    (build, knob)
    for build, knobs in (
        (
            lambda **kw: ScenarioSpec(name="x", **kw),
            ("rate_scale", "payload_scale", "weight"),
        ),
        (
            lambda **kw: ScenarioSpec(name="x", **{k: {"/read": v} for k, v in kw.items()}),
            ("api_rate_factors", "payload_factors"),
        ),
        (
            lambda **kw: LocationOutage(CLOUD, **kw),
            ("availability_penalty", "latency_factor", "bandwidth_factor"),
        ),
        (LinkDegradation, ("latency_factor", "bandwidth_factor", "extra_latency_ms")),
        (PriceShock, ("compute_factor", "storage_factor", "egress_factor")),
        (lambda **kw: CapacityCut(CLOUD, **kw), ("remaining_fraction",)),
        (
            lambda **kw: NodeSpec(
                **{"name": "n", "cpu_millicores": 1.0, "memory_mb": 1.0, **kw}
            ),
            ("cpu_millicores", "memory_mb", "storage_gb", "hourly_price_usd"),
        ),
        (
            lambda **kw: LinkSpec(**{"latency_ms": 1.0, "bandwidth_mbps": 100.0, **kw}),
            ("latency_ms", "bandwidth_mbps"),
        ),
        (
            lambda **kw: default_network_model().degraded(**kw),
            ("latency_factor", "bandwidth_factor", "extra_latency_ms"),
        ),
        (PricingCatalog, ("storage_usd_per_gb_month", "egress_usd_per_gb")),
        (
            lambda **kw: CloudCostModel(PricingCatalog(), None, None, {}, None, **kw),
            ("time_compression",),
        ),
        (
            lambda **kw: ApiAvailabilityModel(
                {}, None, location_weights={CLOUD: kw["location_weights"]}
            ),
            ("location_weights",),
        ),
        (
            lambda **kw: DriftDetector({}, {}, **kw),
            ("threshold_factor",),
        ),
        (
            AdversaryBounds,
            (
                "max_rate_scale",
                "max_payload_scale",
                "max_latency_factor",
                "min_bandwidth_factor",
                "max_price_factor",
                "min_capacity_fraction",
                "infeasibility_penalty",
            ),
        ),
    )
    for knob in knobs
]


@pytest.fixture(scope="module")
def monotone_evaluator(fault_stack):
    """One 3-location evaluator of the default problem plus ``egress_gb``."""
    app, build_evaluator = fault_stack
    problem = PlacementProblem.default(extra_objectives=(EgressTrafficObjective(),))
    return app, build_evaluator(problem=problem)


class TestFaultValidation:
    """Law 1: inadmissible fault parameters fail fast, at construction."""

    def test_location_outage_bounds(self):
        with pytest.raises(ValueError):
            LocationOutage(CLOUD, availability_penalty=0.5)
        with pytest.raises(ValueError):
            LocationOutage(CLOUD, latency_factor=0.9)
        with pytest.raises(ValueError):
            LocationOutage(CLOUD, bandwidth_factor=0.0)
        with pytest.raises(ValueError):
            LocationOutage(CLOUD, bandwidth_factor=1.5)
        with pytest.raises(ValueError):
            LocationOutage(-1)

    def test_link_degradation_bounds(self):
        with pytest.raises(ValueError):
            LinkDegradation(latency_factor=0.5)
        with pytest.raises(ValueError):
            LinkDegradation(bandwidth_factor=2.0)
        with pytest.raises(ValueError):
            LinkDegradation(extra_latency_ms=-1.0)
        # Pair normalization gives order-independent identity.
        assert LinkDegradation(pairs=((1, 0),)).key() == LinkDegradation(
            pairs=((0, 1),)
        ).key()

    def test_price_shock_and_capacity_cut_bounds(self):
        with pytest.raises(ValueError):
            PriceShock(egress_factor=-1.0)
        with pytest.raises(ValueError):
            CapacityCut(CLOUD, remaining_fraction=0.0)
        with pytest.raises(ValueError):
            CapacityCut(CLOUD, remaining_fraction=1.5)

    @given(
        case=st.sampled_from(FLOAT_KNOBS),
        value=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    )
    def test_non_finite_knobs_are_rejected(self, case, value):
        """Every comparison with NaN is false, so a range check alone admits it — and
        one NaN weight makes ``WeightedMean`` NaN for every plan, silently breaking
        Pareto ranking; one NaN price makes every plan's QCost NaN.  Construction
        refuses NaN and ±inf on every float knob."""
        build, knob = case
        with pytest.raises(ValueError, match="finite"):
            build(**{knob: value})

    def test_spec_rejects_non_fault_entries(self):
        with pytest.raises(TypeError):
            ScenarioSpec(name="bad", faults=("not-a-fault",))

    def test_scaled_node_spec_and_network_derive(self):
        spec = NodeSpec(name="n", cpu_millicores=1000.0, memory_mb=4096.0)
        shrunk = spec.scaled(capacity_factor=0.5, price_factor=2.0)
        assert shrunk.cpu_millicores == 500.0
        assert shrunk.memory_mb == 2048.0
        assert shrunk.hourly_price_usd == spec.hourly_price_usd * 2.0
        with pytest.raises(ValueError):
            spec.scaled(capacity_factor=0.0)
        network = default_network_model()
        with pytest.raises(KeyError):
            network.derive({(0, 7): network.link(0, 1)})
        degraded = network.degraded(latency_factor=2.0, bandwidth_factor=0.5)
        assert degraded.link(0, 1).latency_ms == network.link(0, 1).latency_ms * 2.0
        assert degraded.link(0, 1).bandwidth_mbps == network.link(0, 1).bandwidth_mbps * 0.5
        # Intra-location links are untouched by the default all-inter selection.
        assert degraded.link(0, 0).latency_ms == network.link(0, 0).latency_ms

    def test_unknown_api_in_factors_raises_at_compile_time(self, fault_stack):
        app, build_evaluator = fault_stack
        evaluator = build_evaluator()
        plan = _plan(app, [0] * 6)
        typo = ScenarioSpec(name="typo", api_rate_factors={"/raed": 2.0})
        with pytest.raises(ValueError, match="unknown APIs"):
            evaluator.evaluate_under(plan, typo)
        payload_typo = ScenarioSpec(name="typo2", payload_factors={"/wirte": 2.0})
        with pytest.raises(ValueError, match="unknown APIs"):
            evaluator.evaluate_under(plan, payload_typo)


class TestFaultMonotonicity:
    """Law 2: an outage never improves QPerf/QAvai over the fault-free baseline."""

    @settings(max_examples=25)
    @given(
        vector=plans_strategy,
        penalty=st.floats(min_value=1.0, max_value=16.0),
        latency_factor=st.floats(min_value=1.0, max_value=64.0),
        bandwidth_factor=st.floats(min_value=0.05, max_value=1.0),
        site=st.sampled_from([CLOUD, 2]),
    )
    def test_location_outage_never_improves(
        self, fault_stack, vector, penalty, latency_factor, bandwidth_factor, site
    ):
        app, build_evaluator = fault_stack
        evaluator = build_evaluator()
        plan = _plan(app, vector)
        base = evaluator.evaluate_under(plan, ScenarioSpec(name="base"))
        outage = ScenarioSpec(
            name="outage",
            faults=(
                LocationOutage(
                    site,
                    availability_penalty=penalty,
                    latency_factor=latency_factor,
                    bandwidth_factor=bandwidth_factor,
                ),
            ),
        )
        faulted = evaluator.evaluate_under(plan, outage)
        assert faulted.perf >= base.perf
        assert faulted.avail >= base.avail

    @given(
        vector=plans_strategy,
        levels=st.lists(st.integers(min_value=0, max_value=2), min_size=7, max_size=7),
        outage=st.sampled_from([None, CLOUD, 2]),
        knob=st.integers(min_value=0, max_value=6),
    )
    def test_one_severity_step_never_helps(
        self, monotone_evaluator, vector, levels, outage, knob
    ):
        """At a fixed outage choice, stepping one knob of a {neutral, mid, severe}
        grid point one level toward severe raises no minimized objective — the
        shipped fourth objective ``egress_gb`` included — and never turns an
        infeasible plan feasible."""
        app, evaluator = monotone_evaluator
        if levels[knob] == 2:
            levels = levels[:knob] + [1] + levels[knob + 1 :]
        stepped = levels[:knob] + [levels[knob] + 1] + levels[knob + 1 :]
        plan = _plan(app, vector)
        sites = sorted(evaluator.cost.catalogs)
        before = evaluator.evaluate_under(plan, severity_spec(levels, outage, sites))
        after = evaluator.evaluate_under(plan, severity_spec(stepped, outage, sites))
        names = evaluator.objective_names
        for name, old, new in zip(names, before.objectives(), after.objectives()):
            assert new >= old, (name, levels, stepped, outage)
        assert before.feasible or not after.feasible

    def test_outage_evacuation_makes_placements_there_infeasible(self, fault_stack):
        app, build_evaluator = fault_stack
        evaluator = build_evaluator()
        plan = _plan(app, [0, 0, 0, CLOUD, 0, 0])
        base = evaluator.evaluate_under(plan, ScenarioSpec(name="base"))
        assert base.feasible
        faulted = evaluator.evaluate_under(
            plan,
            ScenarioSpec(name="outage", faults=(LocationOutage(CLOUD),)),
        )
        assert not faulted.feasible
        assert any("location" in violation for violation in faulted.violations)
        # Plans avoiding the failed site stay feasible.
        elsewhere = _plan(app, [0, 0, 0, 2, 0, 0])
        assert evaluator.evaluate_under(
            elsewhere,
            ScenarioSpec(name="outage2", faults=(LocationOutage(CLOUD),)),
        ).feasible

    def test_pinned_component_survives_outage_compilation(self, fault_stack):
        app, build_evaluator = fault_stack
        component = app.component_names[3]
        evaluator = build_evaluator(
            preferences=MigrationPreferences(pinned_placement={component: CLOUD})
        )
        plan = _plan(app, [0, 0, 0, CLOUD, 0, 0])
        # The pin into the failed site keeps the site admissible for that
        # component; the outage is priced through QPerf/QAvai instead.
        faulted = evaluator.evaluate_under(
            plan,
            ScenarioSpec(name="outage", faults=(LocationOutage(CLOUD),)),
        )
        assert all("may not run" not in violation for violation in faulted.violations)

    def test_onprem_outage_zeroes_capacity(self, fault_stack):
        app, build_evaluator = fault_stack
        evaluator = build_evaluator()
        plan = _plan(app, [0] * 6)
        base = evaluator.evaluate_under(plan, ScenarioSpec(name="base"))
        assert base.feasible
        faulted = evaluator.evaluate_under(
            plan,
            ScenarioSpec(name="onprem-outage", faults=(LocationOutage(ON_PREM),)),
        )
        assert not faulted.feasible
        assert any("peak" in violation for violation in faulted.violations)

    def test_link_degradation_never_improves_qperf(self, fault_stack):
        app, build_evaluator = fault_stack
        evaluator = build_evaluator()
        plan = _plan(app, [0, CLOUD, 0, 2, 0, CLOUD])
        base = evaluator.evaluate_under(plan, ScenarioSpec(name="base"))
        degraded = evaluator.evaluate_under(
            plan,
            ScenarioSpec(
                name="slow-links",
                faults=(LinkDegradation(latency_factor=4.0, bandwidth_factor=0.5),),
            ),
        )
        assert degraded.perf >= base.perf

    def test_price_shock_scales_cost(self, fault_stack):
        app, build_evaluator = fault_stack
        evaluator = build_evaluator()
        plan = _plan(app, [0, CLOUD, 0, CLOUD, 0, CLOUD])
        base = evaluator.evaluate_under(plan, ScenarioSpec(name="base"))
        shocked = evaluator.evaluate_under(
            plan,
            ScenarioSpec(
                name="shock",
                faults=(
                    PriceShock(compute_factor=3.0, storage_factor=3.0, egress_factor=3.0),
                ),
            ),
        )
        assert shocked.cost > base.cost
        # An all-on-prem plan has no cloud bill to shock.
        onprem = _plan(app, [0] * 6)
        assert (
            evaluator.evaluate_under(
                onprem,
                ScenarioSpec(name="shock2", faults=(PriceShock(egress_factor=5.0),)),
            ).cost
            == evaluator.evaluate_under(onprem, ScenarioSpec(name="base2")).cost
        )

    def test_capacity_cut_raises_elastic_cost_and_onprem_infeasibility(self, fault_stack):
        app, build_evaluator = fault_stack
        evaluator = build_evaluator()
        cloudy = _plan(app, [0, CLOUD, 0, CLOUD, 0, CLOUD])
        base = evaluator.evaluate_under(cloudy, ScenarioSpec(name="base"))
        cut = evaluator.evaluate_under(
            cloudy,
            ScenarioSpec(name="cut", faults=(CapacityCut(CLOUD, remaining_fraction=0.25),)),
        )
        assert cut.cost >= base.cost
        onprem = _plan(app, [0] * 6)
        onprem_cut = evaluator.evaluate_under(
            onprem,
            ScenarioSpec(
                name="onprem-cut",
                faults=(CapacityCut(ON_PREM, remaining_fraction=0.1),),
            ),
        )
        assert not onprem_cut.feasible
        # A cut at a location with no catalog (and not on-prem) fails at compile.
        with pytest.raises(ValueError, match="catalog"):
            evaluator.evaluate_under(
                onprem,
                ScenarioSpec(name="bad-cut", faults=(CapacityCut(9),)),
            )


class TestFaultFreeIdentity:
    """Law 3: fault-free scenarios are untouched by the fault machinery."""

    def test_fault_free_compile_key_shape_is_unchanged(self):
        spec = ScenarioSpec(name="plain", rate_scale=2.0)
        key = spec.compile_key()
        assert len(key) == 5  # the exact pre-fault shape: no trailing faults entry
        faulted = spec.with_faults(LinkDegradation(latency_factor=2.0))
        assert len(faulted.compile_key()) == 6
        assert faulted.compile_key()[:5] == key

    def test_fault_free_results_identical_with_faulted_neighbors(self, fault_stack):
        app, build_evaluator = fault_stack
        vectors = [[0] * 6, [0, 1, 0, 2, 0, 1], [2, 1, 0, 1, 0, 0]]
        plain = ScenarioSet(
            (ScenarioSpec(name="observed"), ScenarioSpec(name="burst", rate_scale=3.0))
        )
        mixed = ScenarioSet(
            (
                ScenarioSpec(name="observed"),
                ScenarioSpec(name="burst", rate_scale=3.0),
                ScenarioSpec(name="outage", faults=(LocationOutage(CLOUD),)),
            )
        )
        want = build_evaluator(scenarios=plain).evaluate_vectors(vectors)
        got = build_evaluator(scenarios=mixed).evaluate_vectors(vectors)
        for a, b in zip(want, got):
            assert fingerprint_scenario_entries(
                a, ("observed", "burst")
            ) == fingerprint_scenario_entries(b, ("observed", "burst"))

    def test_certify_run_leaves_fault_free_scores_unchanged(self, fault_stack):
        """A whole adversary run on an evaluator — every family and probe compiled
        and scored — and the fault-free control it scores next has the bits of an
        evaluator that never saw a fault (first scored *after* the run: scored
        before, the second read would be a result-cache hit)."""
        app, build_evaluator = fault_stack
        vectors = [[0] * 6, [0, 1, 0, 2, 0, 1], [2, 1, 0, 1, 0, 0]]
        names = ("observed", "burst", "chatty")
        control = ScenarioSet(
            (
                ScenarioSpec(name="observed"),
                ScenarioSpec(name="burst", rate_scale=3.0),
                ScenarioSpec(name="chatty", payload_factors={"/read": 2.0}),
            )
        )
        certified = build_evaluator(scenarios=control)
        certificate = ScenarioAdversary(certified, budget=24).certify(
            _plan(app, vectors[1])
        )
        assert certificate.budget_spent > len(names)
        want = build_evaluator(scenarios=control).evaluate_vectors(vectors)
        got = certified.evaluate_vectors(vectors)
        for a, b in zip(want, got):
            assert fingerprint_scenario_entries(a, names) == fingerprint_scenario_entries(
                b, names
            )

    def test_baseline_spec_with_fault_is_not_baseline(self):
        assert ScenarioSpec(name="x").is_baseline
        assert not ScenarioSpec(name="x", faults=(LinkDegradation(latency_factor=2.0),)).is_baseline


class TestScenarioFactory:
    def test_families_cover_the_portfolio(self, fault_stack):
        app, build_evaluator = fault_stack
        evaluator = build_evaluator()
        factory = ScenarioFactory.from_evaluator(evaluator)
        assert factory.remote_locations == (CLOUD, 2)
        names = [spec.name for spec in factory.stress_families()]
        assert names[0] == "observed"
        assert "flash-crowd-x3" in names
        assert "outage-loc1" in names and "outage-loc2" in names
        assert "egress-shock-x2" in names
        assert "payload-x2" in names
        assert "api-mix-inversion" in names

    def test_mix_inversion_preserves_total_traffic(self, fault_stack):
        app, build_evaluator = fault_stack
        factory = ScenarioFactory.from_evaluator(build_evaluator())
        inversion = factory.api_mix_inversion()
        shares = factory.api_shares()
        total = sum(
            share * inversion.api_rate_factors[api] for api, share in shares.items()
        )
        assert total == pytest.approx(1.0)
        # Inversion is a tilt towards cold APIs: the coldest API gains the most.
        coldest = min(shares, key=shares.get)
        hottest = max(shares, key=shares.get)
        assert inversion.api_rate_factors[coldest] > 1.0
        assert inversion.api_rate_factors[hottest] < 1.0

    def test_mix_inversion_degenerates_to_none(self):
        single = ScenarioFactory(locations=(0, 1), api_rates={"/only": [1.0, 2.0]})
        assert single.api_mix_inversion() is None
        uniform = ScenarioFactory(
            locations=(0, 1), api_rates={"/a": [1.0], "/b": [1.0]}
        )
        assert uniform.api_mix_inversion() is None

    def test_seasonal_bands_are_occupancy_weighted(self, fault_stack):
        app, build_evaluator = fault_stack
        factory = ScenarioFactory.from_evaluator(build_evaluator())
        seasonal = factory.seasonal(bands=4)
        weights = [spec.weight for spec in seasonal]
        assert sum(weights) == pytest.approx(1.0)
        scales = [spec.rate_scale for spec in seasonal]
        assert scales == sorted(scales)  # quantile bands rank low → high
        # The occupancy-weighted mean of the band scales reproduces the overall mean.
        assert sum(w * s for w, s in zip(weights, scales)) == pytest.approx(1.0)

    def test_seasonal_validation(self):
        factory = ScenarioFactory(locations=(0, 1), api_rates={})
        with pytest.raises(ValueError):
            factory.seasonal(bands=0, series=[1.0])
        with pytest.raises(ValueError):
            factory.seasonal(series=[])
        with pytest.raises(ValueError):
            factory.seasonal(series=[0.0, 0.0])


class TestAdversary:
    """Law 4: certified worst case dominates the stress families, deterministically."""

    def test_certificate_dominates_every_family(self, fault_stack):
        app, build_evaluator = fault_stack
        evaluator = build_evaluator()
        plan = _plan(app, [0, 1, 0, 2, 0, 1])
        adversary = ScenarioAdversary(evaluator, budget=20)
        certificate = adversary.certify(plan)
        assert certificate.family_regrets  # the families were scored
        assert all(
            certificate.worst_regret >= regret
            for regret in certificate.family_regrets.values()
        )
        assert certificate.budget_spent <= 20 or certificate.budget_spent == len(
            certificate.family_regrets
        )
        assert len(certificate.regret) == len(certificate.objective_names)
        assert certificate.summary()  # renders without error

    def test_the_corner_cuts_every_billable_site_and_reprices_storage(self, fault_stack):
        """A 3-site plan leaning on site 2, with its stateful component off-prem, is
        certified at least at its QCost under the worst case's outage and link
        choice with every price at ``max_price_factor`` — storage included — and
        every billable site cut to ``min_capacity_fraction``."""
        app, build_evaluator = fault_stack
        evaluator = build_evaluator()
        plan = _plan(app, [0, 2, 2, 1, 1, 2])
        certificate = ScenarioAdversary(evaluator).certify(plan)
        worst, bounds = certificate.worst_spec, AdversaryBounds()
        assert worst.name.startswith("corner")
        kept = tuple(
            fault
            for fault in worst.faults
            if isinstance(fault, (LocationOutage, LinkDegradation))
        )
        stressed = ScenarioSpec(
            name="stressed",
            rate_scale=worst.rate_scale,
            payload_scale=worst.payload_scale,
            faults=kept
            + (
                PriceShock(
                    compute_factor=bounds.max_price_factor,
                    storage_factor=bounds.max_price_factor,
                    egress_factor=bounds.max_price_factor,
                ),
                CapacityCut(CLOUD, remaining_fraction=bounds.min_capacity_fraction),
                CapacityCut(2, remaining_fraction=bounds.min_capacity_fraction),
            ),
        )
        qcost = certificate.objective_names.index("qcost")
        assert certificate.worst_values[qcost] >= evaluator.evaluate_under(plan, stressed).cost

    def test_certification_is_deterministic(self, fault_stack):
        app, build_evaluator = fault_stack
        plan = _plan(app, [0, 1, 0, 2, 0, 1])
        a = ScenarioAdversary(build_evaluator(), budget=16).certify(plan)
        b = ScenarioAdversary(build_evaluator(), budget=16).certify(plan)
        assert fingerprint_certificate(a) == fingerprint_certificate(b)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            AdversaryBounds(max_rate_scale=0.5)
        with pytest.raises(ValueError):
            AdversaryBounds(min_capacity_fraction=0.0)
        with pytest.raises(ValueError):
            AdversaryBounds(infeasibility_penalty=-1.0)

    def test_rate_knob_disabled_without_estimator(self, fault_stack):
        app, build_evaluator = fault_stack
        evaluator = build_evaluator(with_estimator=False)
        plan = _plan(app, [0, 1, 0, 0, 0, 0])
        certificate = ScenarioAdversary(evaluator, budget=12).certify(plan)
        # No rate-changing spec can appear anywhere in the search.
        assert not certificate.worst_spec.changes_rates
        assert all(
            "flash-crowd" not in name and name != "api-mix-inversion"
            for name in certificate.family_regrets
        )
