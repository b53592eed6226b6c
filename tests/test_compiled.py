"""Compiled trace-replay engine: equivalence with the reference oracle and cache laws.

The compiled engine must be *bitwise* identical to the recursive ``DelayInjector``
(that is what keeps fixed-seed GA trajectories engine-independent), and the projection
caches must never change results — only skip work.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MigrationPlan, default_network_model
from repro.learning import ApiProfiler, FootprintLearner, ResourceEstimator
from repro.quality import (
    ApiAvailabilityModel,
    ApiPerformanceModel,
    CloudCostModel,
    CompiledTraceSet,
    DelayInjector,
    MigrationPreferences,
    PricingCatalog,
    QualityEvaluator,
)
from repro.telemetry import Span, Trace


def random_trace(rng: np.random.Generator, trace_id: str) -> Trace:
    """A random span tree with sequential, parallel and background patterns.

    Timings are rounded to one decimal so sibling ties, zero durations and exact
    overlaps (the classification edge cases) actually occur.
    """
    n_spans = int(rng.integers(1, 16))
    components = [f"C{i}" for i in range(int(rng.integers(2, 7)))]
    spans = [
        Span(
            trace_id,
            "s0",
            None,
            str(rng.choice(components)),
            "op",
            float(np.round(rng.uniform(0, 10), 1)),
            float(np.round(rng.uniform(5, 60), 1)),
        )
    ]
    for i in range(1, n_spans):
        parent = spans[int(rng.integers(0, len(spans)))]
        start = parent.start_ms + float(np.round(rng.uniform(0, parent.duration_ms), 1))
        # Durations may exceed the parent's end: that is the background pattern.
        duration = float(np.round(rng.uniform(0, parent.duration_ms * 1.5), 1))
        spans.append(
            Span(trace_id, f"s{i}", parent.span_id, str(rng.choice(components)), "op", start, duration)
        )
    return Trace(trace_id, "/api", spans)


def random_delays(rng: np.random.Generator, edges) -> dict:
    """A random delay map including zero, negative (must be clipped) and large Δ."""
    return {edge: float(rng.uniform(-5, 80)) for edge in edges if rng.random() < 0.6}


class TestCompiledEquivalence:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80)
    def test_matches_delay_injector_on_random_topologies(self, seed):
        rng = np.random.default_rng(seed)
        traces = [random_trace(rng, f"t{k}") for k in range(int(rng.integers(1, 5)))]
        edges = sorted({edge for trace in traces for edge in trace.invocation_edges()})
        compiled = CompiledTraceSet(traces, edges)
        for _ in range(3):
            delays = random_delays(rng, edges)
            reference = [DelayInjector(trace).injected_latency_ms(delays) for trace in traces]
            replayed = compiled.latencies(delays)
            assert len(replayed) == len(reference)
            for got, want in zip(replayed, reference):
                assert got == pytest.approx(want, abs=1e-9)
                assert got == want  # bitwise: fixed-seed searches stay engine-independent

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=20)
    def test_replay_batch_rows_match_single_plan_replays(self, seed):
        rng = np.random.default_rng(seed)
        traces = [random_trace(rng, f"t{k}") for k in range(int(rng.integers(1, 4)))]
        edges = sorted({edge for trace in traces for edge in trace.invocation_edges()})
        compiled = CompiledTraceSet(traces, edges)
        delay_maps = [random_delays(rng, edges) for _ in range(5)]
        rows = np.vstack([compiled.delta_row(d) for d in delay_maps])
        matrix = compiled.replay_batch(rows)
        assert matrix.shape == (5, len(traces))
        for row, delays in zip(matrix, delay_maps):
            assert [float(v) for v in row] == compiled.latencies(delays)

    def test_no_delay_replay_is_identity(self):
        rng = np.random.default_rng(7)
        traces = [random_trace(rng, f"t{k}") for k in range(3)]
        edges = sorted({edge for trace in traces for edge in trace.invocation_edges()})
        compiled = CompiledTraceSet(traces, edges)
        for got, trace in zip(compiled.latencies({}), traces):
            assert got == pytest.approx(trace.latency_ms, abs=1e-9)

    def test_rejects_empty_trace_set_and_bad_rows(self):
        with pytest.raises(ValueError):
            CompiledTraceSet([], [])
        rng = np.random.default_rng(1)
        trace = random_trace(rng, "t")
        compiled = CompiledTraceSet([trace], sorted(set(trace.invocation_edges())))
        with pytest.raises(ValueError):
            compiled.replay_batch(np.zeros((1, compiled.n_edges + 3)))


def background_trace(rng: np.random.Generator, trace_id: str) -> Trace:
    """:func:`random_trace` with a background subtree hung off a random span: a call
    that outlives its parent (the background pattern), on components ``B0``, ``B1``, …
    no foreground span uses, with children of its own — so its edges are never live."""
    trace = random_trace(rng, trace_id)
    spans = list(trace.spans)
    parent = spans[int(rng.integers(0, len(spans)))]
    start = parent.start_ms + float(np.round(rng.uniform(0, parent.duration_ms), 1))
    hanging = [
        Span(
            trace_id, "b0", parent.span_id, "B0", "op", start,
            float(np.round(parent.end_ms - start + rng.uniform(1.0, 20.0), 1)),
        )
    ]
    for i in range(1, int(rng.integers(1, 5))):
        above = hanging[int(rng.integers(0, len(hanging)))]
        offset = float(np.round(rng.uniform(0, above.duration_ms), 1))
        duration = float(np.round(rng.uniform(0, above.duration_ms * 1.5), 1))
        hanging.append(
            Span(trace_id, f"b{i}", above.span_id, f"B{i}", "op", above.start_ms + offset, duration)
        )
    return Trace(trace_id, "/api", spans + hanging)


class TestLiveReach:
    """A background call never delays the response: its subtree leaves the compiled
    replay, and a Δ on any of its edges moves no latency, in the oracle or the replay."""

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80)
    def test_background_edges_move_no_latency(self, seed):
        rng = np.random.default_rng(seed)
        traces = [background_trace(rng, f"t{k}") for k in range(int(rng.integers(1, 4)))]
        edges = sorted({edge for trace in traces for edge in trace.invocation_edges()})
        compiled = CompiledTraceSet(traces, edges)
        live = list(compiled.edge_index)
        dead = [edge for edge in edges if edge not in compiled.edge_index]
        assert live == [edge for edge in edges if edge in compiled.edge_index]
        assert any(callee == "B0" for _caller, callee in dead)
        assert compiled.n_spans < sum(len(trace.spans) for trace in traces)
        for _ in range(3):
            delays = random_delays(rng, edges)
            moved = {**delays, **{edge: float(rng.uniform(-5, 500)) for edge in dead}}
            replayed = compiled.latencies(delays)
            assert compiled.latencies(moved) == replayed
            for trace, got in zip(traces, replayed):
                injector = DelayInjector(trace)
                want = injector.injected_latency_ms(delays)
                assert injector.injected_latency_ms(moved).hex() == want.hex()
                assert got.hex() == want.hex()


@pytest.fixture(scope="module")
def tiny_models(tiny_telemetry):
    """Performance models (both engines) + full evaluators over the tiny app."""
    app, result = tiny_telemetry
    telemetry = result.telemetry
    baseline = MigrationPlan.all_on_prem(app.component_names)
    profiles = ApiProfiler(
        telemetry, stateful_components=app.stateful_components(), traces_per_api=20
    ).profile_all()
    footprint = FootprintLearner(telemetry).learn()
    network = default_network_model()
    estimator = ResourceEstimator(app, telemetry).fit()
    estimate = estimator.predict_scaled(3.0)

    def performance(engine):
        return ApiPerformanceModel(
            traces_by_api={api: p.sample_traces for api, p in profiles.items()},
            footprint=footprint,
            network=network,
            baseline_plan=baseline,
            traces_per_api=20,
            engine=engine,
        )

    def evaluator(engine):
        return QualityEvaluator(
            performance=performance(engine),
            availability=ApiAvailabilityModel(
                {api: p.stateful_components for api, p in profiles.items()}, baseline
            ),
            cost=CloudCostModel(
                PricingCatalog(),
                estimate,
                footprint,
                {c.name: c.resources.storage_gb for c in app.components},
                baseline,
                time_compression=288.0,
            ),
            preferences=MigrationPreferences(),
            estimate=estimate,
            component_order=app.component_names,
        )

    return app, performance, evaluator


def _random_plans(app, count, seed=11):
    rng = np.random.default_rng(seed)
    names = app.component_names
    return [
        MigrationPlan.from_vector(names, [int(v) for v in rng.integers(0, 2, len(names))])
        for _ in range(count)
    ]


class TestProjectionCache:
    def test_cached_qperf_equals_uncached(self, tiny_models):
        """Plans differing only in components an API never touches share a projection;
        the cached result must equal a fresh, cache-cold computation."""
        app, performance, _evaluator = tiny_models
        cached_model = performance("compiled")
        for plan in _random_plans(app, 12):
            fresh_model = performance("compiled")  # cache-cold every time
            assert cached_model.qperf(plan) == fresh_model.qperf(plan)
            for api in cached_model.apis:
                assert cached_model.estimate_latencies(api, plan) == pytest.approx(
                    fresh_model.estimate_latencies(api, plan), abs=1e-9
                )

    def test_untouched_components_leave_latencies_alone(self, tiny_models):
        app, performance, _evaluator = tiny_models
        model = performance("compiled")
        # /read never touches ServiceB: flipping it must not change its latencies.
        assert "ServiceB" not in model.api_components()["/read"]
        base = MigrationPlan.all_on_prem(app.component_names)
        flipped = base.with_location("ServiceB", 1)
        assert model.estimate_latencies("/read", base) == model.estimate_latencies(
            "/read", flipped
        )

    def test_engines_agree_on_qperf(self, tiny_models):
        app, performance, _evaluator = tiny_models
        compiled_model = performance("compiled")
        reference_model = performance("reference")
        for plan in _random_plans(app, 12, seed=5):
            assert compiled_model.qperf(plan) == reference_model.qperf(plan)

    def test_invalid_engine_rejected(self, tiny_models):
        _app, performance, _evaluator = tiny_models
        with pytest.raises(ValueError):
            performance("interpreted")

    @pytest.mark.parametrize("engine", ["fused", "fused32", "fused-jit"])
    def test_removed_engines_rejected_naming_the_valid_two(
        self, tiny_models, tiny_telemetry, engine
    ):
        """The fused tier is deleted, not aliased: both front doors refuse its
        names and say which engines exist."""
        from repro.recommend import Atlas, AtlasConfig

        _app, performance, _evaluator = tiny_models
        with pytest.raises(ValueError, match=r"'compiled', 'reference'"):
            performance(engine)
        app, result = tiny_telemetry
        atlas = Atlas(app, MigrationPreferences(), config=AtlasConfig(traces_per_api=10))
        atlas.learn(result.telemetry)
        with pytest.raises(ValueError, match=r"'compiled', 'reference'"):
            atlas.build_evaluator(performance_engine=engine)


class TestEvaluateBatch:
    def test_matches_sequential_evaluate(self, tiny_models):
        app, _performance, evaluator = tiny_models
        plans = _random_plans(app, 20, seed=3)
        sequential = evaluator("compiled")
        batched = evaluator("compiled")
        oracle = evaluator("compiled")
        expected = [oracle.evaluate_reference(plan) for plan in plans]
        got = batched.evaluate_batch(plans)
        assert [q.objectives() for q in got] == [q.objectives() for q in expected]
        assert [q.feasible for q in got] == [q.feasible for q in expected]
        # Plan by plan, the single-plan route counts and caches like the batch.
        assert [sequential.evaluate(plan) for plan in plans] == got
        assert batched.evaluations == sequential.evaluations

    def test_deduplicates_and_counts_like_evaluate(self, tiny_models):
        app, _performance, evaluator = tiny_models
        plan = MigrationPlan.all_on_prem(app.component_names)
        batched = evaluator("compiled")
        qualities = batched.evaluate_batch([plan, plan, plan])
        assert batched.evaluations == 1
        assert qualities[0] is qualities[1] is qualities[2]
        # A second batch with the same plan is a pure cache hit.
        batched.evaluate_batch([plan])
        assert batched.evaluations == 1

    def test_evaluated_qualities_records_distinct_plans(self, tiny_models):
        app, _performance, evaluator = tiny_models
        plans = _random_plans(app, 10, seed=9)
        batched = evaluator("compiled")
        batched.evaluate_batch(plans + plans)
        recorded = batched.evaluated_qualities()
        assert len(recorded) == batched.evaluations
        distinct = {tuple(plan.to_vector()) for plan in plans}
        assert {tuple(q.plan.to_vector()) for q in recorded} == distinct

    def test_mixed_component_orders_lower_onto_the_canonical_matrix(self, tiny_models):
        """Plans expressed under different component orders share one matrix pass:
        the batch returns the very objects ``evaluate_vectors`` cached for the
        canonical lowering and counts one evaluation per distinct plan."""
        app, _performance, evaluator = tiny_models
        names = app.component_names
        plans = _random_plans(app, 12, seed=17)
        mixed = [
            MigrationPlan.from_vector(names[::-1], plan.to_vector()[::-1])
            if index % 2
            else plan
            for index, plan in enumerate(plans)
        ]
        assert len({tuple(plan.components) for plan in mixed}) == 2
        distinct = len({tuple(plan.to_vector()) for plan in plans})

        scored_first = evaluator("compiled")
        by_vector = scored_first.evaluate_vectors([plan.to_vector() for plan in plans])
        assert scored_first.evaluations == distinct
        by_batch = scored_first.evaluate_batch(mixed + mixed)
        assert scored_first.evaluations == distinct  # pure cache hits
        assert all(a is b for a, b in zip(by_batch, by_vector + by_vector))

        cold = evaluator("compiled")
        got = cold.evaluate_batch(mixed + mixed)
        assert cold.evaluations == distinct
        assert [q.objectives() for q in got] == [q.objectives() for q in by_batch]
        assert [q.violations for q in got] == [q.violations for q in by_batch]
        sequential = evaluator("compiled")
        assert [q.objectives() for q in got[: len(mixed)]] == [
            sequential.evaluate_reference(plan).objectives() for plan in mixed
        ]

    def test_batch_across_engines_identical(self, tiny_models):
        app, _performance, evaluator = tiny_models
        plans = _random_plans(app, 15, seed=21)
        compiled_q = evaluator("compiled").evaluate_batch(plans)
        reference_q = evaluator("reference").evaluate_batch(plans)
        assert [q.objectives() for q in compiled_q] == [q.objectives() for q in reference_q]


class TestEngineDeterminism:
    def test_fixed_seed_ga_front_is_engine_independent(self, tiny_models):
        """A fixed-seed AtlasGA run must produce the same Pareto front, evaluation
        count and generation count on either replay engine (bitwise equivalence)."""
        from repro.optimizer.atlas_ga import AtlasGA, GAConfig

        app, _performance, evaluator = tiny_models
        config = GAConfig(
            population_size=12,
            offspring_per_generation=6,
            evaluation_budget=150,
            max_generations=25,
            train_iterations=8,
            train_batch_size=2,
            train_pairs=8,
            seed=4,
        )
        results = {}
        for engine in ("compiled", "reference"):
            ga = AtlasGA(evaluator(engine), app.component_names, config=config)
            results[engine] = ga.run()
        compiled_result, reference_result = results["compiled"], results["reference"]
        assert [q.objectives() for q in compiled_result.pareto] == [
            q.objectives() for q in reference_result.pareto
        ]
        assert compiled_result.evaluations == reference_result.evaluations
        assert compiled_result.generations == reference_result.generations


def _edges_of(traces):
    return sorted({edge for trace in traces for edge in trace.invocation_edges()})


def _assert_same_ops(left, right):
    """Two op bundles hold equal arrays slot for slot, dtype included."""
    for slot in left.__slots__:
        a, b = getattr(left, slot), getattr(right, slot)
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_same_set(left, right):
    """Every array of two compiled sets is equal, dtype included."""
    assert left.edge_index == right.edge_index and left.n_edges == right.n_edges
    assert (left.n_traces, left.n_spans) == (right.n_traces, right.n_spans)
    for a, b in ((left._root_idx, right._root_idx), (left._root_start, right._root_start)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert len(left._levels) == len(right._levels)
    for a, b in zip(left._levels, right._levels):
        _assert_same_ops(a, b)


class TestPackedDurableForm:
    """``pickle`` round trips a set through two blobs and a length table; what comes
    back must be the same program."""

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40)
    def test_round_trip_is_array_for_array_equal_and_replays_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        traces = [random_trace(rng, f"t{k}") for k in range(int(rng.integers(1, 6)))]
        edges = _edges_of(traces)
        compiled = CompiledTraceSet(traces, edges)
        loaded = pickle.loads(pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL))
        _assert_same_set(compiled, loaded)
        rows = np.vstack([compiled.delta_row(random_delays(rng, edges)) for _ in range(4)])
        assert loaded.replay_batch(rows).tobytes() == compiled.replay_batch(rows).tobytes()
        # A second trip (what a store-loaded set written back goes through) is stable.
        _assert_same_set(loaded, pickle.loads(pickle.dumps(loaded)))

    def test_degenerate_sets_survive(self):
        leaf = Trace("leaf", "/api", [Span("leaf", "s0", None, "A", "op", 3.0, 7.5)])
        chain = Trace(
            "chain",
            "/api",
            [
                Span("chain", "s0", None, "A", "op", 0.0, 10.0),
                Span("chain", "s1", "s0", "B", "op", 1.0, 4.0),
                Span("chain", "s2", "s1", "C", "op", 2.0, 1.0),
            ],
        )
        # A lone leaf root: one level, every slot but the leaf-end pair empty.  Leaf +
        # chain: the leaf has no ops at the deeper levels, so those levels hold slots
        # some traces contribute nothing to.
        for traces in ([leaf], [chain], [leaf, chain], [chain, leaf, leaf]):
            edges = _edges_of(traces)
            compiled = CompiledTraceSet(traces, edges)
            loaded = pickle.loads(pickle.dumps(compiled))
            _assert_same_set(compiled, loaded)
            delays = {edge: 2.5 for edge in edges}
            assert loaded.latencies(delays) == compiled.latencies(delays)
            assert loaded.latencies(delays) == [
                DelayInjector(trace).injected_latency_ms(delays) for trace in traces
            ]
        lone = pickle.loads(pickle.dumps(CompiledTraceSet([leaf], [])))
        assert len(lone._levels) == 1 and lone.n_edges == 0
        assert [len(getattr(lone._levels[0], slot)) for slot in lone._levels[0].__slots__].count(0) == 12

    def test_packed_state_is_two_blobs_not_a_thousand_arrays(self):
        rng = np.random.default_rng(2)
        traces = [random_trace(rng, f"t{k}") for k in range(4)]
        compiled = CompiledTraceSet(traces, _edges_of(traces))
        state = compiled.__getstate__()
        # The replay state is the whole durable form: one blob pair and its table.
        ints, floats, lengths = state["_packed_levels"]
        assert ints.dtype == np.intp and floats.dtype == np.float64
        assert lengths.shape == (len(compiled._levels), 14)
        assert len(ints) + len(floats) == int(lengths.sum())
        assert sorted(state) == [
            "_packed_levels", "_root_idx", "_root_start", "edge_index", "n_edges",
            "n_spans", "n_traces",
        ]
        # No trace, per-trace state or content stream rides along.
        for gone in ("_levels", "_fragments", "_contents", "_traces"):
            assert gone not in state
        # Packing does not disturb the live set.
        assert compiled._levels and "_packed_levels" not in vars(compiled)
