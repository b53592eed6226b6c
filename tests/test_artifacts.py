"""Warm-path laws: artifact cache, content fingerprints, splice ≡ rebuild, serving.

Four contracts guard the warm path:

* :class:`ArtifactCache` is a plain LRU with observable counters — no result may
  ever depend on whether it is present (cached artifacts are bitwise the fresh ones).
* Content fingerprints are exactly as fine as compilation: distinct trace sets get
  distinct keys, re-profiled-but-identical content gets the same key.
* ``splice`` (performance model, evaluator) is a *rebuild*, not an approximation:
  bitwise-identical to a fresh model over the refreshed traces, over random API
  subsets, window lengths and edge vocabularies, on both engines — and a splice
  that raises changes nothing.
* The :class:`AdvisorService` memo returns the cold answer — across calls and
  across Atlas instances — and refuses to memoize requests it cannot key by content.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fingerprints import build_tiny_evaluator
from test_compiled import _random_plans, random_trace

from repro.cluster import (
    MigrationPlan,
    NetworkModel,
    default_multi_location_network,
    default_network_model,
)
from repro.learning import ApiProfiler, FootprintLearner, NetworkFootprint
from repro.optimizer import GAConfig
from repro.quality import (
    ApiPerformanceModel,
    ArtifactCache,
    MigrationPreferences,
    PlacementProblem,
    ScenarioSet,
    ScenarioSpec,
    fingerprint_traces,
)
from repro.quality import performance as performance_module
from repro.quality.compiled import CompiledTraceSet
from repro.quality.scenarios import scaled_footprint
from repro.recommend import AdvisorService, Atlas, AtlasConfig
from repro.recommend.advisor import _describe
from repro.telemetry import Span, Trace
from repro.workload import default_scenario

TINY_GA = GAConfig(
    population_size=12,
    offspring_per_generation=6,
    evaluation_budget=120,
    train_iterations=8,
    train_batch_size=2,
    train_pairs=6,
    seed=7,
)


def _perturb(trace: Trace, scale: float) -> Trace:
    """The same trace with all timings scaled — new content, same invocation edges."""
    spans = [
        dataclasses.replace(
            span, start_ms=span.start_ms * scale, duration_ms=span.duration_ms * scale
        )
        for span in trace.spans
    ]
    return trace.with_spans(spans)


def _window(traces, length, scale, drop=None):
    """A drift window: ``length`` traces cycled from ``traces``, every one retimed
    (each by its own factor near ``scale``); ``drop`` removes one component's leaf
    spans, which moves the window's edge vocabulary."""
    window = [_perturb(traces[k % len(traces)], scale + 0.001 * k) for k in range(length)]
    if drop is not None:
        window = [t.with_spans([s for s in t.spans if s.component != drop]) for t in window]
    return window


def _leaf_component(traces):
    """A component that only ever appears as a leaf span of ``traces``."""
    spans = [span for trace in traces for span in trace.spans]
    parents = {(span.trace_id, span.parent_id) for span in spans}
    inner = {s.component for s in spans if (s.trace_id, s.span_id) in parents or s.parent_id is None}
    return sorted({span.component for span in spans} - inner)[0]


def _memo_of(model, api):
    """The one QPerf memo of ``api`` a model with no scenario view holds."""
    (memo,) = model._memo_store[api].values()
    return memo


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def _arrays_of(program):
    """Every numpy array of a compiled set, in deterministic order."""
    arrays = [program._root_idx, program._root_start]
    for level in program._levels:
        for slot in level.__slots__:
            value = getattr(level, slot)
            if isinstance(value, np.ndarray):
                arrays.append(value)
    return arrays


def _assert_bitwise(left, right):
    left_arrays, right_arrays = _arrays_of(left), _arrays_of(right)
    assert len(left_arrays) == len(right_arrays)
    for a, b in zip(left_arrays, right_arrays):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


# -- the cache itself -------------------------------------------------------------------------
class TestArtifactCache:
    def test_miss_builds_then_hit_returns_same_object(self):
        cache = ArtifactCache()
        built = cache.get_or_build(("k",), lambda: [1, 2, 3])
        again = cache.get_or_build(("k",), lambda: [4, 5, 6])
        assert again is built
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1, "evictions": 0}
        assert ("k",) in cache and len(cache) == 1

    def test_lru_eviction_order_respects_hits(self):
        cache = ArtifactCache(max_entries=2)
        cache.get_or_build(("a",), lambda: "A")
        cache.get_or_build(("b",), lambda: "B")
        cache.get_or_build(("a",), lambda: "A'")  # hit: a becomes most-recent
        cache.get_or_build(("c",), lambda: "C")  # evicts b, not a
        assert ("a",) in cache and ("c",) in cache and ("b",) not in cache
        assert cache.evictions == 1
        assert cache.get_or_build(("b",), lambda: "B2") == "B2"  # b was truly gone

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries=0)

    def test_clear_drops_entries_keeps_lifetime_counters(self):
        cache = ArtifactCache()
        cache.get_or_build(("k",), lambda: 1)
        cache.get_or_build(("k",), lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1 and cache.misses == 1


# -- fingerprints -----------------------------------------------------------------------------
class TestFingerprints:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30)
    def test_distinct_trace_sets_get_distinct_keys(self, seed):
        rng = np.random.default_rng(seed)
        traces = [random_trace(rng, f"t{k}") for k in range(3)]
        base = fingerprint_traces(traces)
        # Any single-span timing tweak must move the key.
        tweaked = list(traces)
        tweaked[1] = _perturb(traces[1], 1.0000001)
        assert fingerprint_traces(tweaked) != base
        # So must dropping or reordering a trace.
        assert fingerprint_traces(traces[:2]) != base
        assert fingerprint_traces(traces[::-1]) != base

    def test_reprofiled_identical_content_hits_the_same_key(self):
        spans = [
            Span("t1", "s0", None, "A", "op", 0.0, 10.0),
            Span("t1", "s1", "s0", "B", "op", 1.0, 4.0),
        ]
        respans = [
            Span("t9", "x0", None, "A", "op", 0.0, 10.0),
            Span("t9", "x1", "x0", "B", "op", 1.0, 4.0),
        ]
        # Different trace/span ids, same structure: the compiled arrays would be
        # identical, so the key must be too.
        assert fingerprint_traces([Trace("t1", "/api", spans)]) == fingerprint_traces(
            [Trace("t9", "/api", respans)]
        )
        # ...but the API name is part of the compiled identity.
        assert fingerprint_traces([Trace("t1", "/api", spans)]) != fingerprint_traces(
            [Trace("t1", "/other", spans)]
        )

    def test_network_fingerprint_tracks_link_content(self):
        a, b = default_network_model(), default_network_model()
        assert a.content_digest() == b.content_digest()
        # A network is immutable (it owns its digest), so "a link changed" is a new
        # network with the changed link.
        (pair, link) = next(iter(sorted(b._links.items())))
        changed = b.derive({pair: dataclasses.replace(link, latency_ms=link.latency_ms + 0.5)})
        assert a.content_digest() != changed.content_digest()
        assert b.content_digest() == a.content_digest()

    def test_footprint_fingerprint_tracks_edge_bytes(self, tiny_telemetry):
        _app, result = tiny_telemetry
        one = FootprintLearner(result.telemetry).learn()
        two = FootprintLearner(result.telemetry).learn()
        assert one.content_digest() == two.content_digest()
        # A footprint is immutable (it owns its digest), so "an edge changed" is a
        # new footprint over the changed edge list.
        edges = [edge for api in two.apis for edge in two.edges_of(api).values()]
        edges[0] = dataclasses.replace(edges[0], request_bytes=edges[0].request_bytes + 1.0)
        assert one.content_digest() != NetworkFootprint(edges).content_digest()


# -- cross-instance artifact reuse ------------------------------------------------------------
@pytest.fixture()
def tiny_model_factory(tiny_telemetry):
    """Factory of tiny-app performance models with an optional shared cache."""
    app, result = tiny_telemetry
    telemetry = result.telemetry
    baseline = MigrationPlan.all_on_prem(app.component_names)
    profiles = ApiProfiler(
        telemetry, stateful_components=app.stateful_components(), traces_per_api=20
    ).profile_all()
    footprint = FootprintLearner(telemetry).learn()
    network = default_network_model()

    def build(engine="compiled", cache=None, traces=None, links=None):
        return ApiPerformanceModel(
            traces_by_api=traces
            or {api: p.sample_traces for api, p in profiles.items()},
            footprint=footprint,
            network=links or network,
            baseline_plan=baseline,
            traces_per_api=20,
            engine=engine,
            artifact_cache=cache,
        )

    return app, build


class TestCrossInstanceReuse:
    def test_two_models_share_one_physical_compile(self, tiny_model_factory):
        app, build = tiny_model_factory
        cache = ArtifactCache()
        one, two = build(cache=cache), build(cache=cache)
        for api in one.apis:
            assert one._compiled_set(api) is two._compiled_set(api)
        assert cache.hits >= len(one.apis)
        # Δ tables are shared too (same traces, plan, bytes, network, locations).
        assert one._delta_table(one.apis[0], 2) is two._delta_table(two.apis[0], 2)

    def test_distinct_content_never_false_shares(self, tiny_model_factory):
        app, build = tiny_model_factory
        cache = ArtifactCache()
        one = build(cache=cache)
        api = one.apis[0]
        perturbed = {a: list(one._traces[a]) for a in one.apis}
        perturbed[api] = [_perturb(t, 1.01) for t in perturbed[api]]
        two = build(cache=cache, traces=perturbed)
        assert one._compiled_set(api) is not two._compiled_set(api)
        # The unchanged APIs still share.
        for other in one.apis:
            if other != api:
                assert one._compiled_set(other) is two._compiled_set(other)


# -- splice ≡ rebuild -------------------------------------------------------------------------
class TestSpliceEquivalence:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    @given(data=st.data())
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_model_splice_bitwise_vs_fresh_model(self, tiny_model_factory, engine, data):
        """Any API subset, windows shorter than, as long as and longer than
        ``traces_per_api``, edge vocabularies held or moved: the spliced model and a
        live payload-scaled view of it score like a fresh model over the new traces
        (and its view), by ``float.hex``."""
        app, build = tiny_model_factory
        model = build(engine)
        apis = model.apis
        spec = ScenarioSpec(name="chatty", payload_factors={apis[0]: 1.5})

        def view_of(base):
            footprint = scaled_footprint(base.footprint, spec)
            return base.scenario_view(footprint, changed_apis=spec.changed_payload_apis())

        plans = _random_plans(app, 6, seed=data.draw(st.integers(0, 2**16), label="plans"))
        components = plans[0].components
        matrix = np.asarray([plan.to_vector() for plan in plans])

        def scores(base, view):
            impacts, viewed = base.impact_matrices(
                matrix, components, [(base, None), (view, None)]
            )
            return (
                _hexes(impacts)
                + _hexes(viewed)
                + _hexes([base.qperf(plan) for plan in plans])
                + _hexes([view.qperf(plan) for plan in plans])
                + [
                    _hexes(base.estimate(api, plan).estimated_latencies_ms)
                    for api in apis
                    for plan in plans
                ]
            )

        # Warm every cache of the model and of a live view first: splice must
        # refresh, not merely drop.
        view = view_of(model)
        scores(model, view)
        targets = data.draw(st.lists(st.sampled_from(apis), min_size=1, unique=True), label="apis")
        windows, dropped = {}, {}
        for api in targets:
            length = data.draw(
                st.one_of(st.integers(1, 19), st.just(20), st.integers(21, 40)), label="length"
            )
            scale = data.draw(st.floats(0.5, 3.0), label="scale")
            traces = model._traces[api]
            if data.draw(st.booleans(), label="moves"):
                dropped[api] = _leaf_component(traces)
            windows[api] = _window(traces, length, scale, dropped.get(api))
        model.splice(windows)
        for api in targets:
            assert model._traces[api] == windows[api][-20:]
        for api, component in dropped.items():
            assert component not in model._touched[api]
        rebuilt = build(engine, traces={api: list(model._traces[api]) for api in apis})
        for api in apis:
            assert model._edges[api] == rebuilt._edges[api]
            if engine == "compiled":
                _assert_bitwise(model._compiled_set(api), rebuilt._compiled_set(api))
        assert scores(model, view) == scores(rebuilt, view_of(rebuilt))

    def test_model_splice_validates_inputs(self, tiny_model_factory):
        _app, build = tiny_model_factory
        model = build()
        with pytest.raises(KeyError):
            model.splice({"/nope": model._traces[model.apis[0]]})
        with pytest.raises(ValueError):
            model.splice({model.apis[0]: []})

    def test_a_raising_splice_changes_nothing(self, tiny_telemetry):
        """Every target is checked before one is installed: a splice that raises on
        its second API leaves the first as it was, and the evaluator scores bitwise
        like one that never saw the call."""
        app, result = tiny_telemetry
        evaluator = build_tiny_evaluator(app, result.telemetry)
        plans = _random_plans(app, 12, seed=37)
        for plan in plans[:4]:  # warm caches the splice would have to drop
            evaluator.evaluate(plan)
        first, second = evaluator.performance.apis[:2]
        window = [_perturb(t, 2.0) for t in evaluator.performance._traces[first]]
        with pytest.raises(ValueError):
            evaluator.splice({first: window, second: []})
        with pytest.raises(KeyError):
            evaluator.splice({first: window, "/nope": window})
        cold = build_tiny_evaluator(app, result.telemetry)
        assert [_hexes(evaluator.evaluate(plan).values) for plan in plans] == [
            _hexes(cold.evaluate(plan).values) for plan in plans
        ]

    def test_evaluator_splice_matches_fresh_stack(self, tiny_telemetry):
        app, result = tiny_telemetry
        telemetry = result.telemetry
        spliced_ev = build_tiny_evaluator(app, telemetry)
        api = spliced_ev.performance.apis[0]
        spec = ScenarioSpec(name="burst", rate_scale=2.0, payload_factors={api: 1.5})
        plans = _random_plans(app, 6, seed=31)
        # Warm result caches and a compiled scenario view, then splice.
        for plan in plans[:3]:
            spliced_ev.evaluate(plan)
        spliced_ev._scenario_pair(spec)
        fresh_traces = {
            api: [_perturb(t, 1.03) for t in spliced_ev.performance._traces[api]]
        }
        spliced_ev.splice(fresh_traces)

        fresh_ev = build_tiny_evaluator(app, telemetry)
        fresh_ev.performance.splice(fresh_traces)  # same traces, cache-cold stack
        for plan in plans:
            assert spliced_ev.evaluate(plan).objectives() == (
                fresh_ev.evaluate(plan).objectives()
            )
        _, spliced_view = spliced_ev._scenario_pair(spec)
        _, fresh_view = fresh_ev._scenario_pair(spec)
        for plan in plans:
            assert spliced_view.qperf(plan) == fresh_view.qperf(plan)


# -- QPerf memos: pre-fills shared by content, restarted per splice ----------------------------
class TestImpactTables:
    """Every tiny-app API fits under the pre-fill bound, so each memo's first miss
    fills its whole box."""

    @staticmethod
    def _replays(monkeypatch):
        """Rows replayed by any compiled set from now on."""
        rows = []
        original = CompiledTraceSet.replay_batch

        def spy(self, delta_rows):
            rows.append(np.atleast_2d(delta_rows).shape[0])
            return original(self, delta_rows)

        monkeypatch.setattr(CompiledTraceSet, "replay_batch", spy)
        return rows

    @staticmethod
    def _replayed_apis(model, monkeypatch):
        """APIs of ``model`` whose compiled set replays from now on, in order."""
        apis = []
        original = CompiledTraceSet.replay_batch

        def spy(self, delta_rows):
            apis.extend(api for api, compiled in model._compiled.items() if compiled is self)
            return original(self, delta_rows)

        monkeypatch.setattr(CompiledTraceSet, "replay_batch", spy)
        return apis

    @staticmethod
    def _impact_misses(cache, monkeypatch):
        """APIs whose pre-fill missed ``cache`` from now on."""
        missed = []
        original = cache.get_or_build

        def spy(key, build):
            before = cache.misses
            value = original(key, build)
            if key[0] == "impact" and cache.misses > before:
                missed.append(key[1])
            return value

        monkeypatch.setattr(cache, "get_or_build", spy)
        return missed

    @staticmethod
    def _entries(model, api):
        codes, means = _memo_of(model, api).entries
        return codes.tobytes(), _hexes(means)

    def test_a_second_model_over_one_cache_replays_nothing(self, tiny_model_factory, monkeypatch):
        app, build = tiny_model_factory
        cache = ArtifactCache()
        plans = _random_plans(app, 24, seed=41)
        components = plans[0].components
        matrix = np.asarray([plan.to_vector() for plan in plans])
        one = build(cache=cache)
        want = one.impact_matrix(matrix, components)
        assert all(any(_memo_of(one, api).boxes.values()) for api in one.apis)  # all pre-filled
        replayed = self._replays(monkeypatch)
        two = build(cache=cache)
        got = two.impact_matrix(matrix, components)
        assert replayed == []
        assert _hexes(got) == _hexes(want)
        for api in one.apis:
            # Each memo holds its box, read from the cache, and nothing else.
            assert self._entries(two, api) == self._entries(one, api)

    def test_a_splice_rebuilds_exactly_its_table(self, tiny_model_factory, monkeypatch):
        app, build = tiny_model_factory
        cache = ArtifactCache()
        plans = _random_plans(app, 24, seed=43)
        components = plans[0].components
        matrix = np.asarray([plan.to_vector() for plan in plans])
        model = build(cache=cache)
        model.impact_matrix(matrix, components)
        missed = self._impact_misses(cache, monkeypatch)
        api = model.apis[-1]
        model.splice({api: _window(model._traces[api], 20, 1.7)})
        spliced = model.impact_matrix(matrix, components)
        assert missed == [api]
        traces = {a: list(model._traces[a]) for a in model.apis}
        shared = build(cache=cache, traces=traces).impact_matrix(matrix, components)
        assert missed == [api]  # a fresh model over the spliced traces hits every pre-fill
        fresh = build(traces=traces).impact_matrix(matrix, components)
        reference = build("reference", traces=traces).impact_matrix(matrix, components)
        assert _hexes(spliced) == _hexes(shared) == _hexes(fresh) == _hexes(reference)

    def test_after_a_splice_only_the_spliced_api_and_lazy_misses_replay(
        self, tiny_model_factory, monkeypatch
    ):
        """A pre-filled API's splice replays that API's box on the next call and
        nothing of the other pre-filled APIs; an API above the pre-fill bound replays
        only the projections it has not seen."""
        app, build = tiny_model_factory
        model = build()
        sizes = {api: len(model._reach(api)[1]) for api in model.apis}
        # Lower the bound under the widest APIs' boxes (two sites per component), so
        # they fill lazily.
        limit = 2 ** max(sizes.values()) - 1
        monkeypatch.setattr(performance_module, "_TABLE_LIMIT", limit)
        lazy = [api for api in model.apis if 2 ** sizes[api] > limit]
        tabled = next(api for api in model.apis if api not in lazy)
        plans = _random_plans(app, 24, seed=47)
        components = plans[0].components
        matrix = np.asarray([plan.to_vector() for plan in plans])
        fresh = np.asarray([plan.to_vector() for plan in _random_plans(app, 24, seed=53)])
        model.impact_matrix(matrix, components)
        assert [api for api in model.apis if not any(_memo_of(model, api).boxes.values())] == lazy
        coder = model._coder(components, model._radix())

        def projections(rows, api):
            columns = coder.reach[model.apis.index(api)]
            return {tuple(row) for row in rows[:, columns].tolist()}

        unseen = [api for api in lazy if projections(fresh, api) - projections(matrix, api)]
        assert unseen
        replayed = self._replayed_apis(model, monkeypatch)
        model.impact_matrix(matrix, components)
        assert replayed == []  # every projection is held now
        model.splice({tabled: _window(model._traces[tabled], 20, 1.3)})
        both = np.vstack([matrix, fresh])
        spliced = model.impact_matrix(both, components)
        assert sorted(replayed) == sorted([tabled, *unseen])
        traces = {a: list(model._traces[a]) for a in model.apis}
        assert _hexes(spliced) == _hexes(build(traces=traces).impact_matrix(both, components))

    def test_a_linkless_pair_raises_only_for_the_plans_that_use_it(self, tiny_model_factory):
        app, build = tiny_model_factory
        full = default_multi_location_network(locations=(0, 1, 2))
        links = NetworkModel(
            {pair: full.link(*pair) for pair in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2))}
        )
        names = app.component_names
        batched, scalar = build(links=links), build(links=links)
        rng = np.random.default_rng(5)
        # Each plan keeps every component on-prem or on one remote site: no plan
        # needs the missing 1 <-> 2 link.
        matrix = rng.integers(0, 2, size=(30, len(names))) * rng.integers(1, 3, size=(30, 1))
        impacts = batched.impact_matrix(matrix, names)
        # The pre-fills span every linked site, so they hold projections over the
        # missing 1 <-> 2 link too: only the linkless refusal keeps a plan off them.
        boxes = [
            box for api in batched.apis for box, filled in _memo_of(batched, api).boxes.items() if filled
        ]
        assert boxes and all(set(sites) == {0, 1, 2} for box in boxes for sites in box)
        plans = [MigrationPlan.from_vector(names, row) for row in matrix.tolist()]
        assert _hexes(impacts.T) == _hexes(
            [[scalar._impact_factor(api, plan) for api in scalar.apis] for plan in plans]
        )
        crossing = MigrationPlan.from_vector(
            names, [1 if c == "Frontend" else 2 if c == "ServiceA" else 0 for c in names]
        )
        with pytest.raises(KeyError) as scalar_error:
            scalar.qperf(crossing)
        with pytest.raises(KeyError) as batched_error:
            batched.impact_matrix(np.vstack([matrix, [crossing.to_vector()]]), names)
        assert str(batched_error.value) == str(scalar_error.value)

    def test_codes_past_one_word_key_by_their_bytes(self, monkeypatch):
        """An API reaching 41 components over 3 sites codes its projections in two
        int64 words (3^41 > 2^63): its memo keys by their bytes, and scores like the
        scalar oracle, misses and hits alike."""
        names = [f"C{k:02d}" for k in range(41)]
        traces = []
        for t in range(3):
            spans = [
                Span(f"t{t}", f"s{k}", f"s{k - 1}" if k else None, c, "op", k, 100.0 - 2 * k + t)
                for k, c in enumerate(names)
            ]
            traces.append(Trace(f"t{t}", "/chain", spans))
        model = ApiPerformanceModel(
            traces_by_api={"/chain": traces},
            footprint=NetworkFootprint([]),
            network=default_multi_location_network(locations=(0, 1, 2)),
            baseline_plan=MigrationPlan.all_on_prem(names),
        )
        assert len(model._reach("/chain")[1]) == 41
        rng = np.random.default_rng(11)
        matrix = rng.integers(0, 3, size=(12, len(names)))
        matrix[6:] = matrix[:6]  # every projection twice
        impacts = model.impact_matrix(matrix, names)
        memo = _memo_of(model, "/chain")
        assert memo.entries[0].dtype == np.dtype((np.void, 16))
        assert len(memo.entries[0]) == 6 + 1  # six codes and the sentinel
        oracle = [
            model._impact_factor("/chain", MigrationPlan.from_vector(names, row))
            for row in matrix.tolist()
        ]
        assert _hexes(impacts[0]) == _hexes(oracle)
        replayed = self._replays(monkeypatch)
        again = model.impact_matrix(matrix[::-1], names)
        assert replayed == [] and _hexes(again[0]) == _hexes(oracle[::-1])

    def test_a_linkless_pair_on_a_background_edge_still_raises(self):
        """The edge to a background call moves no latency and leaves the replay, but
        the scalar Δ map prices it: a plan that puts its ends on a linkless pair is
        refused by the tabled, the view's and the reference engine's batched paths
        with the scalar path's error, and a plan that does not is scored."""
        traces = []
        for k in range(4):
            spans = [
                Span(f"t{k}", "root", None, "A", "op", 0.0, 100.0 + k),
                Span(f"t{k}", "fg", "root", "F", "op", 10.0, 30.0 + k),
                Span(f"t{k}", "bg", "root", "B", "op", 50.0, 80.0 + k),  # outlives root
            ]
            traces.append(Trace(f"t{k}", "/api", spans))
        full = default_multi_location_network(locations=(0, 1, 2))
        links = NetworkModel(
            {pair: full.link(*pair) for pair in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2))}
        )
        names = ["A", "B", "F"]

        def build(engine="compiled"):
            return ApiPerformanceModel(
                traces_by_api={"/api": traces},
                footprint=NetworkFootprint([]),
                network=links,
                baseline_plan=MigrationPlan.all_on_prem(names),
                engine=engine,
            )

        model = build()
        assert list(model._compiled_set("/api").edge_index) == [("A", "F")]
        assert model.edge_delays("/api", MigrationPlan.from_vector(names, [1, 0, 0])) == {
            ("A", "B"): 23.015 - 0.168,
            ("A", "F"): 23.015 - 0.168,
        }
        scored = np.asarray([[1, 0, 1], [0, 2, 2], [1, 1, 0]])
        crossing = MigrationPlan.from_vector(names, [1, 2, 1])  # only A -> B crosses 1 <-> 2
        with pytest.raises(KeyError) as scalar_error:
            build().qperf(crossing)
        view = build().scenario_view(NetworkFootprint([]))
        engines = {"tabled": model, "view": view, "reference": build("reference")}
        for label, batched in engines.items():
            impacts = batched.impact_matrix(scored, names)
            assert _hexes(impacts[0]) == _hexes(
                [build()._impact_factor("/api", MigrationPlan.from_vector(names, row)) for row in scored.tolist()]
            ), label
            with pytest.raises(KeyError) as batched_error:
                batched.impact_matrix(np.vstack([scored, [crossing.to_vector()]]), names)
            assert str(batched_error.value) == str(scalar_error.value), label
        assert len(_memo_of(model, "/api").entries[0]) == 3**2 + 1  # over A and F only, and the sentinel


# -- scenario-state reuse across probe names --------------------------------------------------
class TestScenarioStateReuse:
    def test_same_identity_different_name_shares_compiled_state(self, tiny_telemetry):
        app, result = tiny_telemetry
        evaluator = build_tiny_evaluator(app, result.telemetry)
        api = evaluator.performance.apis[0]
        probe_a = ScenarioSpec(name="probe-1", rate_scale=1.5, payload_factors={api: 2.0})
        probe_b = ScenarioSpec(name="probe-2", rate_scale=1.5, payload_factors={api: 2.0})
        pair_a = evaluator._scenario_pair(probe_a)
        pair_b = evaluator._scenario_pair(probe_b)
        # The adversary probes identical workload shapes under throwaway names:
        # one compile, shared by reference; results carry the caller's name.
        assert pair_b is pair_a
        plan = _random_plans(app, 1, seed=3)[0]
        for probe in (probe_a, probe_b):
            quality = evaluator.evaluate_under(plan, probe)
            assert [s.scenario for s in quality.scenarios] == [probe.name]
        different = ScenarioSpec(name="probe-3", rate_scale=1.5, payload_factors={api: 3.0})
        assert evaluator._scenario_pair(different)[1] is not pair_a[1]


# -- the serving front door -------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_atlas_pair(tiny_telemetry):
    """Two independently learned Atlas instances over the same telemetry."""
    app, result = tiny_telemetry

    def learn():
        atlas = Atlas(
            app,
            MigrationPreferences.pin_on_prem(["Database"]),
            config=AtlasConfig(traces_per_api=15, ga=TINY_GA),
        )
        atlas.learn(result.telemetry)
        return atlas

    return learn(), learn()


class OpaquePreferences(MigrationPreferences):
    """Preferences without a content repr — must make requests unmemoizable."""

    __repr__ = object.__repr__


class TestAdvisorService:
    def test_memo_hit_across_calls_and_instances(self, tiny_atlas_pair):
        atlas, twin = tiny_atlas_pair
        service = AdvisorService()
        cold = service.recommend(atlas, expected_scale=2.0)
        warm = service.recommend(atlas, expected_scale=2.0)
        assert warm is cold
        # A different Atlas instance with identical learned content: same key.
        other = service.recommend(twin, expected_scale=2.0)
        assert other is cold
        assert service.recommendations.stats()["hits"] == 2
        assert service.cache.stats()["misses"] > 0  # artifacts were compiled once

    def test_different_request_content_misses(self, tiny_atlas_pair):
        atlas, _ = tiny_atlas_pair
        service = AdvisorService()
        one = service.recommend(atlas, expected_scale=2.0)
        two = service.recommend(atlas, expected_scale=2.5)
        assert two is not one
        assert service.recommendations.stats()["misses"] == 2

    def test_memoized_answer_is_the_cold_answer(self, tiny_atlas_pair):
        atlas, _ = tiny_atlas_pair
        service = AdvisorService()
        served = service.recommend(atlas, expected_scale=2.0)
        direct = atlas.recommend(expected_scale=2.0)
        assert [
            (q.plan.to_vector(), repr(tuple(q.objectives()))) for q in served.plans
        ] == [(q.plan.to_vector(), repr(tuple(q.objectives()))) for q in direct.plans]

    def test_unmemoizable_arguments_bypass_the_memo(self, tiny_telemetry, tiny_atlas_pair):
        # Anything whose repr carries an address describes identity, not content: a
        # default object repr, but also a function, a lambda or a partial — at any
        # depth of a request argument.  Such a key could collide once the id is
        # reused, and a journal entry under it could never be hit by another process.
        def hook(rate):
            return rate

        describable, _twin = tiny_atlas_pair
        probe = AdvisorService()
        assert probe._request_key(describable, {"expected_scale": 2.0}) is not None
        for opaque in (
            object(),
            hook,
            lambda rate: rate,
            functools.partial(hook, 2.0),
            {"a": lambda rate: rate},
            [("nested", {"deep": functools.partial(hook, 1)})],
        ):
            assert " at 0x" in repr(opaque)
            assert _describe(opaque) is None
            assert probe._request_key(describable, {"expected_scale": 2.0, "hook": opaque}) is None
        assert _describe({"a": [1.5, "at 0"], "b": ("x", None)}) == repr(
            {"a": [1.5, "at 0"], "b": ("x", None)}
        )

        app, result = tiny_telemetry
        atlas = Atlas(
            app,
            OpaquePreferences(),
            config=AtlasConfig(traces_per_api=15, ga=TINY_GA),
        )
        atlas.learn(result.telemetry)
        service = AdvisorService()
        assert service._request_key(atlas, {}) is None
        recommendation = service.recommend(atlas, expected_scale=2.0)
        assert recommendation.plans
        assert len(service.recommendations) == 0  # a miss is sound, a collision is not

    def test_tenant_registry(self, tiny_atlas_pair):
        atlas, twin = tiny_atlas_pair
        service = AdvisorService()
        assert service.register("team-a", atlas) is atlas
        service.register("team-b", twin)
        assert service.tenants == ["team-a", "team-b"]
        assert service.tenant("team-a") is atlas
        with pytest.raises(KeyError):
            service.tenant("team-c")
        served = service.recommend("team-a", expected_scale=2.0)
        assert service.recommend("team-b", expected_scale=2.0) is served

    def test_unlearned_atlas_still_raises_cleanly(self, tiny_app):
        service = AdvisorService()
        with pytest.raises(RuntimeError):
            service.recommend(Atlas(tiny_app))


# -- the drift → splice loop ------------------------------------------------------------------
class TestDriftSpliceLoop:
    def test_recertify_uses_the_splice_path(self, tiny_atlas_pair):
        atlas, _ = tiny_atlas_pair
        recommendation = atlas.recommend(expected_scale=2.0)
        evaluator = recommendation.evaluator
        api = evaluator.performance.apis[0]
        executed = recommendation.knee_point().plan
        refreshed = [_perturb(t, 1.04) for t in evaluator.performance._traces[api]]
        certificate = atlas.recertify(recommendation, executed, {api: refreshed}, budget=6)
        assert certificate is not None
        assert recommendation.certificate is certificate
        # The refreshed traces were installed in place (splice, not invalidate).
        assert evaluator.performance._traces[api] == refreshed[-15:]

    def test_a_regret_report_outlives_the_recertify_splice(self, tiny_atlas_pair):
        """A robust answer's regret report reads the search it reports on: the
        re-certificate's splice drops the evaluator's results, not the report."""
        atlas, _ = tiny_atlas_pair
        problem = PlacementProblem.default().with_scenarios(
            ScenarioSet(
                (ScenarioSpec(name="observed"), ScenarioSpec(name="burst", rate_scale=2.0))
            )
        )
        recommendation = atlas.recommend(expected_scale=2.0, problem=problem)
        before = recommendation.scenario_report()
        evaluator = recommendation.evaluator
        api = evaluator.performance.apis[0]
        refreshed = [_perturb(t, 1.04) for t in evaluator.performance._traces[api]]
        atlas.recertify(
            recommendation, recommendation.knee_point().plan, {api: refreshed}, budget=6
        )
        assert evaluator.cache_size() == 0
        assert recommendation.scenario_report() == before

    def test_certify_plan_seeds_the_drift_refresh_scenario(self, tiny_app, tiny_atlas_pair):
        """A drifted forecast, compiled against the observed workload it departs
        from, is one of the certificate's seed families."""
        atlas, _ = tiny_atlas_pair
        recommendation = atlas.recommend(expected_scale=2.0)
        evaluator, knee = recommendation.evaluator, recommendation.knee_point().plan
        observed = default_scenario(tiny_app)
        forecast = default_scenario(tiny_app, base_rps=37.0, peak_rps=71.0)
        spec = ScenarioSpec.from_workload(forecast, observed, name="drift-refresh")
        certificate = atlas.certify_plan(evaluator, knee, budget=6, extra_specs=(spec,))
        assert "drift-refresh" in certificate.family_regrets
        without = atlas.certify_plan(evaluator, knee, budget=6)
        assert "drift-refresh" not in without.family_regrets
