"""The stacked robust pass ≡ S independent single-scenario evaluators, and what it pays.

A robust scoring call runs each built-in kernel's scenario-invariant work once (the
plan-matrix lowering: membership masks, stateful placements, disruption masks,
billing buckets and their first-contribution order, pin / whitelist masks) and the
part a scenario changes as extra columns of the same ordered reduction.  Three
things pin that design:

1. **Law 2 across faults and sites** (property, bitwise): on a 3-site stack, any
   scenario set — every fault kind, rate-only / mix-only / payload-only specs, a spec
   duplicated under two names, the baseline — over plan matrices around
   ``PLAN_BLOCK`` scores per scenario exactly what S fresh single-scenario
   evaluators score (``float.hex``), with the same feasibility and violation
   strings; the aggregate, ``feasible_mask``, ``constraint_violations`` and
   ``qcost_vectors`` are the aggregator / conjunction / concatenation of those, and
   the adversary's uncached probe door (``evaluate_under``) on the robust evaluator
   answers each spec exactly as its single-scenario evaluator does.
2. **The mechanism** (spies): one cluster-autoscaler walk per billable site and
   one QAvai disruption pass per distinct availability model per scoring call —
   scenarios share a kernel exactly when they read the same objects, so specs with
   different price shocks walk once each.
3. **The doors agree**: a robust evaluation after ``feasible_mask`` over the same
   budgeted plans (and the reverse) gives the same feasibility.

Run deeper with ``--hypothesis-profile=ci`` (see ``tests/conftest.py``).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CLOUD,
    ON_PREM,
    MigrationPlan,
    NodeSpec,
    default_multi_location_network,
)
from repro.cluster.autoscaler import ClusterAutoscaler
from repro.learning import ApiProfiler, FootprintLearner, ResourceEstimator
from repro.learning.estimator import PLAN_BLOCK
from repro.quality.compiled import CompiledTraceSet
from repro.quality import (
    CVaR,
    ApiAvailabilityModel,
    ApiPerformanceModel,
    CapacityCut,
    CloudCostModel,
    LinkDegradation,
    LocationOutage,
    MigrationPreferences,
    PlacementProblem,
    PriceShock,
    PricingCatalog,
    QualityEvaluator,
    ScenarioSet,
    ScenarioSpec,
    WeightedMean,
    WorstCase,
)

SITES = (ON_PREM, CLOUD, 2)
WEST = PricingCatalog(
    node_spec=NodeSpec(
        name="west", cpu_millicores=1_500.0, memory_mb=6_000.0, hourly_price_usd=0.0517
    ),
    storage_usd_per_gb_month=0.0413,
    egress_usd_per_gb=0.0713,
)

#: The S = 4 axis of the e2e ``robust_recommend`` workload, restated over the tiny
#: application's two APIs: observed, a 5x burst, a mix shift and chatty payloads.
ROBUST_S4 = ScenarioSet(
    (
        ScenarioSpec(name="observed"),
        ScenarioSpec(name="burst-x5", rate_scale=5.0),
        ScenarioSpec(name="mix-shift", api_rate_factors={"/write": 2.0, "/read": 0.75}),
        ScenarioSpec(name="chatty-posts", payload_factors={"/write": 2.5}),
    )
)


@pytest.fixture(scope="module")
def stacked_stack(tiny_telemetry):
    """The tiny app's learned models on three sites, and a fresh-evaluator factory.

    Every call builds new model objects (no cache is shared between evaluators).
    The preferences make every constraint bite: a pin, a whitelist, an on-prem CPU
    limit the bursts break, a budget near the median plan cost and a critical API.
    """
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

    def build(location_weights=None, budget=float("inf"), scenarios=None, aggregator=None):
        performance = ApiPerformanceModel(
            traces_by_api={api: p.sample_traces for api, p in profiles.items()},
            footprint=footprint,
            network=default_multi_location_network(locations=SITES),
            baseline_plan=baseline,
            traces_per_api=20,
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
            catalogs={CLOUD: PricingCatalog(), 2: WEST},
        )
        return QualityEvaluator(
            performance=performance,
            availability=availability,
            cost=cost,
            preferences=MigrationPreferences(
                critical_apis=["/write"],
                pinned_placement={"Database": ON_PREM},
                allowed_locations={"Cache": (CLOUD,)},
                onprem_limits={"cpu_millicores": limit},
                budget_usd=budget,
            ),
            estimate=estimate,
            component_order=app.component_names,
            estimator=estimator,
            problem=PlacementProblem.default(scenarios=scenarios, aggregator=aggregator),
        )

    rng = np.random.default_rng(3)
    costs = build().qcost_vectors(rng.integers(0, 3, size=(64, len(app.component_names))))
    return app, build, float(np.median(costs))


faults = st.one_of(
    st.builds(
        LocationOutage,
        st.sampled_from(SITES),
        availability_penalty=st.sampled_from([1.0, 4.0]),
        evacuate=st.booleans(),
    ),
    st.builds(
        LinkDegradation,
        pairs=st.sampled_from([None, ((ON_PREM, 2),)]),
        latency_factor=st.sampled_from([1.0, 3.0]),
        bandwidth_factor=st.sampled_from([1.0, 0.5]),
    ),
    st.builds(
        PriceShock,
        locations=st.sampled_from([None, (CLOUD,), (2,)]),
        compute_factor=st.sampled_from([0.5, 1.0, 2.5]),
        storage_factor=st.sampled_from([1.0, 3.0]),
        egress_factor=st.sampled_from([0.25, 1.0, 2.0]),
    ),
    st.builds(
        CapacityCut,
        st.sampled_from(SITES),
        remaining_fraction=st.sampled_from([0.25, 0.5, 1.0]),
    ),
)


@st.composite
def specs(draw, name):
    """One spec of a drawn kind: baseline, rate-only, mix-only, payload-only, faulted
    (one or two faults) or everything at once."""
    kind = draw(st.sampled_from(("baseline", "rate", "mix", "payload", "faulted", "all")))
    fields = {}
    if kind in ("rate", "all"):
        fields["rate_scale"] = draw(st.sampled_from([0.5, 2.0, 5.0]))
    if kind in ("mix", "all"):
        fields["api_rate_factors"] = {
            "/write": draw(st.sampled_from([0.0, 0.75, 2.0])),
            "/read": draw(st.sampled_from([0.5, 1.0, 1.5])),
        }
    if kind in ("payload", "all"):
        fields["payload_factors"] = {"/read": draw(st.sampled_from([0.5, 2.5]))}
        fields["payload_scale"] = draw(st.sampled_from([1.0, 1.5]))
    if kind in ("faulted", "all"):
        fields["faults"] = tuple(draw(st.lists(faults, min_size=1, max_size=2)))
    return ScenarioSpec(name=name, weight=draw(st.sampled_from([0.5, 1.0, 2.0])), **fields)


@st.composite
def scenario_sets(draw):
    drawn = [draw(specs(f"s{index}")) for index in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        drawn.insert(draw(st.integers(0, len(drawn))), ScenarioSpec(name="observed"))
    if draw(st.booleans()):  # one spec under a second name: one compiled state
        drawn.append(dataclasses.replace(draw(st.sampled_from(drawn)), name="twin"))
    return ScenarioSet(tuple(drawn))


plan_counts = st.one_of(
    st.sampled_from((1, 2, PLAN_BLOCK - 1, PLAN_BLOCK + 1)), st.integers(3, 40)
)


def hexes(values):
    return [float(value).hex() for value in values]


class TestStackedPassEqualsIndependentEvaluators:
    """Law 2 over faults × sites × scenario sets × plan counts, bitwise."""

    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(
        scenario_set=scenario_sets(),
        aggregator=st.sampled_from([WorstCase(), WeightedMean(), CVaR(0.5)]),
        n_plans=plan_counts,
        seed=st.integers(0, 2**32 - 1),
        location_weights=st.sampled_from([None, {2: 1.5}]),
        tight_budget=st.booleans(),
    )
    def test_every_door_matches_single_scenario_evaluators(
        self,
        stacked_stack,
        scenario_set,
        aggregator,
        n_plans,
        seed,
        location_weights,
        tight_budget,
    ):
        app, build, median_cost = stacked_stack

        def fresh(scenarios, aggregator=None):
            return build(
                location_weights=location_weights,
                budget=median_cost if tight_budget else float("inf"),
                scenarios=scenarios,
                aggregator=aggregator,
            )

        rng = np.random.default_rng(seed)
        vectors = rng.integers(0, len(SITES), size=(n_plans, len(app.component_names)))
        evaluator = fresh(scenario_set, aggregator)
        robust = evaluator.evaluate_vectors(vectors)
        singles = [
            fresh(ScenarioSet((spec,))).evaluate_vectors(vectors) for spec in scenario_set
        ]
        names = [spec.name for spec in scenario_set]
        for row, quality in enumerate(robust):
            assert [entry.scenario for entry in quality.scenarios] == names
            expected_violations = []
            for spec, entry, single in zip(scenario_set, quality.scenarios, singles):
                (alone,) = single[row].scenarios
                assert hexes(entry.values) == hexes(alone.values) == hexes(single[row].values)
                assert entry.feasible == alone.feasible == single[row].feasible
                assert entry.violations == alone.violations == single[row].violations
                expected_violations += [f"[{spec.name}] {v}" for v in alone.violations]
            assert quality.feasible == all(entry.feasible for entry in quality.scenarios)
            if len(scenario_set) > 1:
                assert list(quality.violations) == expected_violations
            else:
                assert quality.violations == quality.scenarios[0].violations
        weights = np.asarray([spec.weight for spec in scenario_set], dtype=np.float64)
        for k in range(len(robust[0].values)):
            tensor = np.asarray([[q.values[k] for q in single] for single in singles])
            assert hexes(aggregator.combine(tensor, weights)) == hexes(
                q.values[k] for q in robust
            )

        doors = fresh(scenario_set, aggregator)
        assert doors.feasible_mask(vectors).tolist() == [q.feasible for q in robust]
        costs = np.asarray([[q.cost for q in single] for single in singles])
        assert hexes(doors.qcost_vectors(vectors)) == hexes(
            aggregator.combine(costs, weights)
        )
        for row in range(min(n_plans, 3)):
            plan = MigrationPlan.from_vector(app.component_names, vectors[row].tolist())
            assert doors.constraint_violations(plan) == list(robust[row].violations)

        # Probed through the robust evaluator's uncached door, each spec scores as its
        # own single-scenario evaluator does, and the result cache does not move.
        kept = evaluator.evaluated_qualities()
        for row in range(min(n_plans, 3)):
            plan = MigrationPlan.from_vector(app.component_names, vectors[row].tolist())
            for spec, single in zip(scenario_set, singles):
                probe = evaluator.evaluate_under(plan, spec)
                assert hexes(probe.values) == hexes(single[row].values)
                assert probe.feasible == single[row].feasible
                assert probe.violations == single[row].violations
        assert evaluator.cache_size() == len(kept) == len({tuple(v) for v in vectors.tolist()})
        assert evaluator.evaluated_qualities() == kept


class TestOneWalkPerSite:
    """The mechanism: kernels run once per object the scenarios share, per call."""

    @staticmethod
    def _spied(monkeypatch):
        calls = {"formulas": 0, "walks": 0, "disruption": 0}
        formula = ClusterAutoscaler.node_counts
        disruption = ApiAvailabilityModel.disruption_matrix

        def counting_formula(cpu, memory, *constants):
            # One row of the formula per (site, distinct autoscaler, estimate).
            calls["formulas"] += 1
            calls["walks"] += cpu.shape[0]
            return formula(cpu, memory, *constants)

        def counting_disruption(self, *args):
            calls["disruption"] += 1
            return disruption(self, *args)

        monkeypatch.setattr(ClusterAutoscaler, "node_counts", staticmethod(counting_formula))
        monkeypatch.setattr(ApiAvailabilityModel, "disruption_matrix", counting_disruption)
        return calls

    @staticmethod
    def _fresh_calls(app, evaluator, calls, n_calls=5):
        """Per-call counts over scoring calls of never-seen plans that put some
        component on every billable site."""
        rng = np.random.default_rng(11)
        counts = []
        for _ in range(n_calls):
            vectors = rng.integers(0, len(SITES), size=(3, len(app.component_names)))
            vectors[:, 0], vectors[:, 1] = CLOUD, 2
            before = dict(calls)
            evaluator.evaluate_vectors(vectors)
            counts.append({key: calls[key] - before[key] for key in calls})
        return counts

    def test_robust_s4_walks_each_site_once_and_disrupts_once(
        self, stacked_stack, monkeypatch
    ):
        app, build, _median = stacked_stack
        evaluator = build(scenarios=ROBUST_S4)
        calls = self._spied(monkeypatch)
        # Two billable sites, one autoscaler each, three distinct estimates (the
        # payload-only spec bills the base one); four scenarios share one
        # availability model.  Every walk is a row of one formula.
        assert self._fresh_calls(app, evaluator, calls) == [
            {"formulas": 1, "walks": 2 * 3, "disruption": 1}
        ] * 5

    def test_each_price_shock_walks_its_own_autoscalers(self, stacked_stack, monkeypatch):
        app, build, _median = stacked_stack
        shocked = ScenarioSet(
            tuple(
                ScenarioSpec(name=f"shock-{factor:g}", faults=(PriceShock(compute_factor=factor),))
                for factor in (0.5, 2.0, 3.0)
            )
        )
        evaluator = build(scenarios=shocked)
        calls = self._spied(monkeypatch)
        assert self._fresh_calls(app, evaluator, calls) == [
            {"formulas": 1, "walks": 3 * 2, "disruption": 1}
        ] * 5

    def test_an_outage_brings_its_own_availability_model(
        self, stacked_stack, monkeypatch
    ):
        app, build, _median = stacked_stack
        evaluator = build(
            scenarios=ScenarioSet(
                (
                    ScenarioSpec(name="observed"),
                    ScenarioSpec(name="burst", rate_scale=2.0),
                    ScenarioSpec(name="outage", faults=(LocationOutage(2),)),
                )
            )
        )
        calls = self._spied(monkeypatch)
        # The outage keeps the catalogs (one autoscaler per site, walked for the
        # base and the burst estimate) but derives availability.
        assert self._fresh_calls(app, evaluator, calls) == [
            {"formulas": 1, "walks": 2 * 2, "disruption": 2}
        ] * 5


class TestOneReplayPerApi:
    """QPerf's mechanism: every view of a robust call hands the projections its
    memos miss to one replay per API, pooled across the views."""

    @staticmethod
    def _scenarios():
        return ScenarioSet(
            (*ROBUST_S4, ScenarioSpec(name="slow-links", faults=(LinkDegradation(latency_factor=3.0),)))
        )

    def test_a_robust_call_replays_each_api_once(self, stacked_stack, monkeypatch):
        app, build, _median = stacked_stack
        # Three performance views: the base (pre-filled), the payload view of
        # chatty-posts (its /write memo) and a degraded network's (every API).
        scenarios = self._scenarios()
        evaluator = build(scenarios=scenarios)
        rng = np.random.default_rng(17)
        names = app.component_names

        def boxed():  # plans inside the base's admissible box: its pin and whitelist
            vectors = rng.integers(0, len(SITES), size=(6, len(names)))
            vectors[:, names.index("Database")] = ON_PREM
            vectors[:, names.index("Cache")] = CLOUD
            return vectors

        evaluator.evaluate_vectors(boxed())  # the base's memos pre-filled
        replays, passes = [], []
        replay_batch = CompiledTraceSet.replay_batch
        fill_misses = ApiPerformanceModel._fill_misses

        def counting_replay(compiled, rows):
            replays.append(id(compiled))
            return replay_batch(compiled, rows)

        def counting_misses(model, index, matrix, columns, reads):
            passes.append((model.apis[index], len({id(read[1]) for read in reads})))
            return fill_misses(model, index, matrix, columns, reads)

        monkeypatch.setattr(CompiledTraceSet, "replay_batch", counting_replay)
        monkeypatch.setattr(ApiPerformanceModel, "_fill_misses", counting_misses)
        for _ in range(5):
            vectors = boxed()
            reference = build(scenarios=scenarios).evaluate_vectors(vectors)
            replays.clear()
            passes.clear()
            for memos in evaluator.performance._memo_store.values():
                for memo in memos.values():
                    if not any(memo.boxes.values()):  # every view row replays: none is memoised
                        memo.entries = type(memo)(memo.entries[0].dtype).entries
            robust = evaluator.evaluate_vectors(vectors)
            assert [hexes(q.values) for q in robust] == [hexes(q.values) for q in reference]
            # One pass per API the views miss, holding the memos of both views that
            # read /write (the payload and the degraded view) and the degraded
            # view's /read.
            assert sorted(passes) == [("/read", 1), ("/write", 2)]
            assert len(replays) == len(set(replays)) == 2

    def test_out_of_box_rows_join_the_memo(self, stacked_stack, monkeypatch):
        """A pre-filled API's projections outside the base's box replay in the same
        pass as the degraded view's misses of that API, and join the base's memo:
        scoring them again replays nothing."""
        app, build, _median = stacked_stack
        scenarios = self._scenarios()
        evaluator = build(scenarios=scenarios)
        names = app.component_names
        rng = np.random.default_rng(23)
        warm, vectors = (rng.integers(0, len(SITES), size=(6, len(names))) for _ in range(2))
        warm[:, names.index("Database")] = ON_PREM
        warm[:, names.index("Cache")] = CLOUD
        vectors[:, names.index("Cache")] = CLOUD
        vectors[:3, names.index("Database")] = ON_PREM
        vectors[3:, names.index("Database")] = CLOUD  # off the pin: outside the box
        evaluator.evaluate_vectors(warm)  # the base's memos pre-filled
        reference = build(scenarios=scenarios).evaluate_vectors(vectors)
        base = evaluator.performance
        # The base's memos: the pre-filled ones (a view pre-fills nothing).
        prefilled = {
            api: memo
            for api, memos in base._memo_store.items()
            for memo in memos.values()
            if any(memo.boxes.values())
        }
        held = {api: len(memo.entries[0]) for api, memo in prefilled.items()}
        replays = []
        replay_batch = CompiledTraceSet.replay_batch

        def counting_replay(compiled, rows):
            replays.append(id(compiled))
            return replay_batch(compiled, rows)

        monkeypatch.setattr(CompiledTraceSet, "replay_batch", counting_replay)
        robust = evaluator.evaluate_vectors(vectors)
        assert [hexes(q.values) for q in robust] == [hexes(q.values) for q in reference]
        assert len(replays) == len(set(replays))  # one replay per API
        grown = [api for api, memo in prefilled.items() if len(memo.entries[0]) > held[api]]
        assert grown  # the base's out-of-box projections were kept
        evaluator._cache.clear()
        replays.clear()
        again = evaluator.evaluate_vectors(vectors)
        assert replays == []
        assert [hexes(q.values) for q in again] == [hexes(q.values) for q in reference]


class TestBudgetAcrossDoors:
    """``feasible_mask`` and a robust evaluation of the same budgeted plans agree on
    feasibility, in either order, under every scenario."""

    @pytest.mark.parametrize("first", ["feasible_mask", "evaluate_vectors"])
    def test_both_doors_agree_in_either_order(self, stacked_stack, first):
        app, build, median_cost = stacked_stack
        # A finite budget: the constraint-only pass has to price every plan.
        evaluator = build(budget=median_cost, scenarios=ROBUST_S4)
        vectors = np.random.default_rng(5).integers(
            0, len(SITES), size=(40, len(app.component_names))
        )
        doors = {
            "feasible_mask": lambda: evaluator.feasible_mask(vectors).tolist(),
            "evaluate_vectors": lambda: [
                q.feasible for q in evaluator.evaluate_vectors(vectors)
            ],
        }
        second = "evaluate_vectors" if first == "feasible_mask" else "feasible_mask"
        answer = doors[first]()
        assert doors[second]() == answer
