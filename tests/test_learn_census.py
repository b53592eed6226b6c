"""Interned trace shapes and the trace census ≡ walking every trace, exactly.

``Atlas.learn`` no longer visits every span of every trace: a ``Trace`` knows its
interned ``TraceShape``, a ``TraceStore`` answers its queries from a lazily built
census (time-sorted traces, shape groups, per-shape window counts) that ``add`` drops,
``ApiProfiler`` counts per shape group and classifies only each group's last trace,
and the metric / mesh stores keep their cells where a series can reach them.  The
code as it stood before — per-trace walkers, a store that filters and sorts on every
query, flat cell dicts scanned per read — lives on below as the oracles.  The law is
equality of *everything observable*: values, list orders, dict orders (compared as
``list(d.items())``), float bits, and the identity of every returned ``Trace``.

Run deeper with ``--hypothesis-profile=ci`` (see ``tests/conftest.py``).
"""

import dataclasses
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_compiled import random_trace

from repro.apps import ApiEndpoint, Application, CallNode, Component, ExecutionMode, ResourceProfile
from repro.learning import (
    ApiProfiler,
    ComponentProfiler,
    FootprintLearner,
    ResourceEstimator,
)
from repro.telemetry import Span, TelemetryServer, Trace, TraceStore
from repro.telemetry.metrics import METRIC_NAMES, MetricSample

COMPONENTS = ["A", "B", "C", "D"]
OPERATIONS = ["get", "put"]
APIS = ["/a", "/b", "/c"]
WINDOW_MS = 1_000.0


# -- the oracles: the code as it stood before shapes and the census ---------------------------
def walk_components(trace):
    seen = []
    for span in trace.spans:
        if span.component not in seen:
            seen.append(span.component)
    return seen


def walk_invocation_edges(trace):
    return [
        (trace.span(span.parent_id).component, span.component)
        for span in trace.spans
        if span.parent_id is not None
    ]


def walk_structure(trace):
    """``(root_index, parent_index, children_index)`` of ``trace``, from its span ids."""
    spans = trace.spans
    position = {span.span_id: i for i, span in enumerate(spans)}
    return (
        position[trace.root.span_id],
        tuple(-1 if span.parent_id is None else position[span.parent_id] for span in spans),
        tuple(
            tuple(position[child.span_id] for child in trace.children(span.span_id))
            for span in spans
        ),
    )


def walk_workflow_keys(trace):
    return [
        (span.component, child.component, child.operation)
        for span in trace.spans
        for child in trace.children(span.span_id)
    ]


class WalkingTraceStore:
    """The former ``TraceStore``: every query filters, sorts and walks the traces."""

    def __init__(self):
        self._traces = []
        self._by_api = {}

    def add(self, trace):
        self._traces.append(trace)
        self._by_api.setdefault(trace.api, []).append(trace)

    def __len__(self):
        return len(self._traces)

    @property
    def apis(self):
        return sorted(self._by_api)

    def traces(self, api=None, start_ms=None, end_ms=None, limit=None):
        pool = self._by_api.get(api, []) if api is not None else self._traces
        selected = [
            t
            for t in pool
            if (start_ms is None or t.start_ms >= start_ms)
            and (end_ms is None or t.start_ms < end_ms)
        ]
        selected.sort(key=lambda t: t.start_ms)
        if limit is not None and limit >= 0:
            selected = selected[-limit:] if limit else []
        return selected

    def latencies(self, api, start_ms=None, end_ms=None):
        return [t.latency_ms for t in self.traces(api, start_ms, end_ms)]

    def request_counts(self, window_ms, start_ms=0.0, end_ms=None):
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        counts = {}
        for trace in self._traces:
            if trace.start_ms < start_ms:
                continue
            if end_ms is not None and trace.start_ms >= end_ms:
                continue
            bucket = int((trace.start_ms - start_ms) // window_ms)
            counts.setdefault(trace.api, {}).setdefault(bucket, 0)
            counts[trace.api][bucket] += 1
        return counts

    def invocation_counts(self, api, window_ms, start_ms=0.0, end_ms=None):
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        counts = {}
        for trace in self.traces(api, start_ms, end_ms):
            bucket = int((trace.start_ms - start_ms) // window_ms)
            for edge in walk_invocation_edges(trace):
                counts.setdefault(edge, {}).setdefault(bucket, 0)
                counts[edge][bucket] += 1
        return counts


class FlatMetricsStore:
    """The former ``ComponentMetricsStore``: one flat cell dict, scanned per read."""

    def __init__(self, window_ms):
        self.window_ms = window_ms
        self._data = defaultdict(lambda: {name: 0.0 for name in METRIC_NAMES})
        self._components = []

    def record(self, component, time_ms, **usage):
        self.record_sample(
            MetricSample(component=component, window=int(time_ms // self.window_ms), **usage)
        )

    def record_sample(self, sample):
        cell = self._data[(sample.component, sample.window)]
        cell["cpu_millicores"] += sample.cpu_millicores
        cell["memory_mb"] = max(cell["memory_mb"], sample.memory_mb)
        cell["ingress_bytes"] += sample.ingress_bytes
        cell["egress_bytes"] += sample.egress_bytes
        cell["requests"] += sample.requests
        if sample.component not in self._components:
            self._components.append(sample.component)

    @property
    def components(self):
        return list(self._components)

    def windows(self):
        return sorted({w for (_c, w) in self._data})

    def value(self, component, window, metric):
        if metric not in METRIC_NAMES:
            raise KeyError(f"unknown metric {metric!r}")
        return self._data.get((component, window), {name: 0.0 for name in METRIC_NAMES})[metric]

    def series(self, component, metric, windows=None):
        windows = list(windows) if windows is not None else self.windows()
        return [self.value(component, w, metric) for w in windows]

    def total(self, component, metric):
        return sum(
            cell[metric] for (comp, _w), cell in self._data.items() if comp == component
        )

    def aggregate(self, metric, components=None, windows=None):
        selected = set(components) if components is not None else set(self._components)
        windows = list(windows) if windows is not None else self.windows()
        return [sum(self.value(c, w, metric) for c in selected) for w in windows]

    def samples(self):
        return [
            MetricSample(component=comp, window=window, **cell)
            for (comp, window), cell in sorted(self._data.items())
        ]


class FlatMesh:
    """The former ``PairwiseNetworkMetrics``: pairs and windows re-derived per read."""

    def __init__(self, window_ms):
        self.window_ms = window_ms
        self._data = defaultdict(lambda: [0.0, 0.0])

    def record(self, source, destination, time_ms, request_bytes, response_bytes):
        cell = self._data[(source, destination, int(time_ms // self.window_ms))]
        cell[0] += request_bytes
        cell[1] += response_bytes

    def pairs(self):
        return sorted({(s, d) for (s, d, _w) in self._data})

    def windows(self):
        return sorted({w for (_s, _d, w) in self._data})

    def request_bytes(self, source, destination, window):
        return self._data.get((source, destination, window), [0.0, 0.0])[0]

    def response_bytes(self, source, destination, window):
        return self._data.get((source, destination, window), [0.0, 0.0])[1]

    def request_series(self, source, destination, windows=None):
        windows = list(windows) if windows is not None else self.windows()
        return [self.request_bytes(source, destination, w) for w in windows]

    def response_series(self, source, destination, windows=None):
        windows = list(windows) if windows is not None else self.windows()
        return [self.response_bytes(source, destination, w) for w in windows]

    def total_bytes(self, source, destination):
        return sum(
            cell[0] + cell[1]
            for (s, d, _w), cell in self._data.items()
            if s == source and d == destination
        )

    def total_traffic_matrix(self):
        matrix = defaultdict(float)
        for (s, d, _w), cell in self._data.items():
            matrix[(s, d)] += cell[0] + cell[1]
        return dict(matrix)

    def traffic_between(self, group_a, group_b):
        set_a, set_b = set(group_a), set(group_b)
        total = 0.0
        for (s, d, _w), cell in self._data.items():
            if (s in set_a and d in set_b) or (s in set_b and d in set_a):
                total += cell[0] + cell[1]
        return total


def walking_server(window_ms=WINDOW_MS):
    """A ``TelemetryServer`` over the three former stores (its queries only delegate)."""
    server = TelemetryServer(window_ms=window_ms)
    server.traces = WalkingTraceStore()
    server.metrics = FlatMetricsStore(window_ms)
    server.mesh = FlatMesh(window_ms)
    return server


def walk_profile(profiler, traces):
    """The former ``ApiProfiler.profile`` loop: every trace replayed, in trace order."""
    components, latencies, edge_counts, workflow = [], [], {}, {}
    for trace in traces:
        latencies.append(trace.latency_ms)
        for comp in walk_components(trace):
            if comp not in components:
                components.append(comp)
        for edge in walk_invocation_edges(trace):
            edge_counts[edge] = edge_counts.get(edge, 0) + 1
        profiler._classify_trace(trace, workflow)
    return {
        "request_count": len(traces),
        "components": components,
        "stateful_components": [c for c in components if c in profiler.stateful_components],
        "latencies_ms": latencies,
        "invocations_per_request": {e: c / len(traces) for e, c in edge_counts.items()},
        "workflow_modes": workflow,
        "sample_traces": traces[-profiler.traces_per_api :],
    }


# -- observable form: orders, float bits and object identity made comparable ------------------
def seen(value):
    if isinstance(value, dict):
        return [(seen(k), seen(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [seen(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Trace):
        return ("trace", id(value))
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, seen(vars(value)))
    return value


def outcome(call):
    """What a call did: its observable result, or the error it raised."""
    try:
        return ("ok", seen(call()))
    except (ValueError, KeyError) as error:
        return ("error", type(error).__name__, str(error))


def seen_profile(profile):
    """An ``ApiProfile`` in the form :func:`walk_profile` returns (``api`` aside)."""
    fields = {f.name: getattr(profile, f.name) for f in dataclasses.fields(profile)}
    assert fields.pop("api") == profile.api
    return seen(fields)



# -- inputs: trace forests with repeated and permuted shapes ----------------------------------
def random_template(rng):
    """A call tree (parent per span, labels) plus a few timing layouts over it.

    The alphabets are small so one trace repeats ``(parent component, component,
    operation)`` keys; offsets and durations sit on a coarse grid so sibling ties,
    exact overlaps and children outliving their parent all occur.  Two layouts of
    one tree usually sort its spans differently: permuted shapes of one span multiset.
    """
    n_spans = int(rng.integers(1, 8))
    parents = [-1] + [int(rng.integers(0, i)) for i in range(1, n_spans)]
    labels = [(str(rng.choice(COMPONENTS)), str(rng.choice(OPERATIONS))) for _ in range(n_spans)]
    layouts = [
        [float(rng.integers(0, 5)) * 0.5 for _ in range(n_spans)]
        for _ in range(int(rng.integers(1, 4)))
    ]
    return parents, labels, layouts


def instantiate(rng, template, trace_id, api, base_ms):
    """One request of the template: a layout's span order, its own durations."""
    parents, labels, layouts = template
    offsets = layouts[int(rng.integers(0, len(layouts)))]
    starts = [base_ms]
    for i in range(1, len(parents)):
        starts.append(starts[parents[i]] + offsets[i])
    spans = [
        Span(
            trace_id,
            f"s{i}",
            None if parents[i] < 0 else f"s{parents[i]}",
            labels[i][0],
            labels[i][1],
            starts[i],
            float(rng.integers(0, 9)) * 0.5,
        )
        for i in range(len(parents))
    ]
    return Trace(trace_id, api, spans)


def random_forest(rng, count):
    """``count`` traces over a few templates and APIs, in a shuffled ingestion order.

    Root starts sit on a 250 ms grid over ~6 windows, so traces tie on start time
    (the sort must stay stable) and ingestion order is not time order.
    """
    templates = [random_template(rng) for _ in range(int(rng.integers(1, 5)))]
    apis = APIS[: int(rng.integers(1, len(APIS) + 1))]
    return [
        instantiate(
            rng,
            templates[int(rng.integers(0, len(templates)))],
            f"t{k}",
            str(rng.choice(apis)),
            float(rng.integers(0, 24)) * 250.0,
        )
        for k in range(count)
    ]


def random_telemetry(rng, traces):
    """The same traces, metric samples and mesh records fed to both kinds of server."""
    census, walking = TelemetryServer(window_ms=WINDOW_MS), walking_server()
    for trace in traces:
        census.ingest_trace(trace)
        walking.traces.add(trace)
    edges = sorted({edge for trace in traces for edge in walk_invocation_edges(trace)})
    for _ in range(int(rng.integers(4, 40))):
        usage = dict(
            component=str(rng.choice(COMPONENTS + ["E"])),
            time_ms=float(rng.uniform(0.0, 6_500.0)),
            cpu_millicores=float(rng.random() * 2.0 ** rng.integers(-8, 12)),
            memory_mb=float(rng.random() * 2.0 ** rng.integers(-8, 12)),
            ingress_bytes=float(rng.random() * 2.0 ** rng.integers(0, 24)),
            egress_bytes=float(rng.random() * 2.0 ** rng.integers(0, 24)),
            requests=float(rng.integers(0, 50)),
        )
        census.metrics.record(**usage)
        walking.metrics.record(**usage)
    for _ in range(int(rng.integers(4, 40)) if edges else 0):
        source, destination = edges[int(rng.integers(0, len(edges)))]
        record = (
            source,
            destination,
            float(rng.uniform(0.0, 6_500.0)),
            float(rng.random() * 2.0 ** rng.integers(0, 24)),
            float(rng.random() * 2.0 ** rng.integers(0, 24)),
        )
        census.mesh.record(*record)
        walking.mesh.record(*record)
    return census, walking


def toy_application():
    """Deployment metadata for the component alphabet (plus ``E``, never traced)."""
    db = ResourceProfile(storage_gb=12.5)
    components = [Component(name) for name in COMPONENTS[:-1]] + [
        Component(COMPONENTS[-1], stateful=True, resources=db),
        Component("E"),
    ]
    root = CallNode("A", "/a")
    root.call(CallNode("B", "get").call(CallNode("D", "put")), ExecutionMode.PARALLEL)
    root.call(CallNode("C", "get"), ExecutionMode.PARALLEL)
    other = CallNode("C", "/b").call(CallNode("D", "get"))
    return Application("toy", components, [ApiEndpoint("/a", root), ApiEndpoint("/b", other)])


_seeds = st.integers(min_value=0, max_value=10**9)
_times = st.one_of(st.none(), st.sampled_from([-250.0, 0.0, 250.0, 1_000.0, 2_600.0, 5_750.0, 9e9]))
_queries = st.lists(
    st.tuples(
        st.sampled_from(APIS + [None, "/ghost"]),
        _times,
        _times,
        st.sampled_from([None, -1, 0, 1, 3, 1_000]),
        st.sampled_from([250.0, 1_000.0, 3_333.3]),
    ),
    min_size=1,
    max_size=6,
)


# -- (a) the shape behind a trace's accessors -------------------------------------------------
class TestShape:
    @given(_seeds)
    def test_shape_backed_accessors_match_the_span_walkers(self, seed):
        rng = np.random.default_rng(seed)
        traces = random_forest(rng, int(rng.integers(1, 12)))
        traces += [random_trace(rng, f"r{k}") for k in range(3)]
        for trace in traces:
            assert trace.components() == walk_components(trace)
            assert trace.invocation_edges() == walk_invocation_edges(trace)
            shape = trace.shape()
            assert (shape.root_index, shape.parent_index, shape.children_index) == (
                walk_structure(trace)
            )
            assert list(trace.shape().workflow_keys) == walk_workflow_keys(trace)
            counted = {}
            for edge in walk_invocation_edges(trace):
                counted[edge] = counted.get(edge, 0) + 1
            assert list(trace.shape().edge_counts) == list(counted.items())
        # Interning: one object per distinct (parent positions, labels), whatever the API.
        by_key = {}
        for trace in traces:
            key = (
                walk_structure(trace)[1],
                tuple((s.component, s.operation) for s in trace.spans),
            )
            assert by_key.setdefault(key, trace.shape()) is trace.shape()
        assert len({id(shape) for shape in by_key.values()}) == len(by_key)

    def test_accessors_hand_out_fresh_lists(self):
        trace = random_trace(np.random.default_rng(2), "t")
        trace.components().append("intruder")
        trace.invocation_edges().clear()
        assert trace.components() == walk_components(trace)
        assert trace.invocation_edges() == walk_invocation_edges(trace)

    def test_equal_timing_different_labels_are_different_shapes(self):
        def one(operation):
            return Trace(
                "t",
                "/a",
                [Span("t", "s0", None, "A", "/a", 0.0, 5.0), Span("t", "s1", "s0", "B", operation, 1.0, 1.0)],
            )

        assert one("get").shape() is one("get").shape()
        assert one("get").shape() is not one("put").shape()


# -- (b) every census answer ------------------------------------------------------------------
def assert_same_answers(store, oracle, queries):
    assert store.apis == oracle.apis and len(store) == len(oracle)
    for api, start_ms, end_ms, limit, window_ms in queries:
        assert outcome(lambda: store.traces(api, start_ms, end_ms, limit)) == outcome(
            lambda: oracle.traces(api, start_ms, end_ms, limit)
        )
        since = 0.0 if start_ms is None else start_ms
        assert outcome(lambda: store.request_counts(window_ms, since, end_ms)) == outcome(
            lambda: oracle.request_counts(window_ms, since, end_ms)
        )
        if api is None:
            continue
        assert outcome(lambda: store.latencies(api, start_ms, end_ms)) == outcome(
            lambda: oracle.latencies(api, start_ms, end_ms)
        )
        assert outcome(lambda: store.invocation_counts(api, window_ms, since, end_ms)) == outcome(
            lambda: oracle.invocation_counts(api, window_ms, since, end_ms)
        )


class TestCensus:
    @given(_seeds, _queries)
    def test_every_query_matches_the_walking_store(self, seed, queries):
        rng = np.random.default_rng(seed)
        traces = random_forest(rng, int(rng.integers(1, 40)))
        store, oracle = TraceStore(), WalkingTraceStore()
        late = traces[: int(rng.integers(0, 4))]
        for trace in traces[len(late) :]:
            store.add(trace)
            oracle.add(trace)
        defaults = [(api, None, None, None, WINDOW_MS) for api in APIS + [None]]
        assert_same_answers(store, oracle, queries + defaults)
        assert_same_answers(store, oracle, queries[::-1])  # kept slots, other keys between
        # Ingestion after the census was built: nothing counted before may survive.
        for trace in late:
            store.add(trace)
            oracle.add(trace)
            assert_same_answers(store, oracle, queries + defaults)

    @given(_seeds)
    def test_shape_groups_partition_the_traces_in_time_order(self, seed):
        rng = np.random.default_rng(seed)
        store = TraceStore()
        store.extend(random_forest(rng, int(rng.integers(1, 40))))
        for api in store.apis:
            traces = store.traces(api)
            groups = store.shape_groups(api)
            first, last, count = {}, {}, {}
            for position, trace in enumerate(traces):
                shape = trace.shape()
                first.setdefault(shape, position)
                last[shape] = position
                count[shape] = count.get(shape, 0) + 1
            assert [group.shape for group in groups] == sorted(first, key=first.get)
            for group in groups:
                assert group.count == count[group.shape]
                assert group.last_position == last[group.shape]
                assert group.last is traces[group.last_position]
        assert store.shape_groups("/ghost") == []

    def test_answers_are_the_callers_own(self):
        store, oracle = TraceStore(), WalkingTraceStore()
        for trace in random_forest(np.random.default_rng(11), 20):
            store.add(trace)
            oracle.add(trace)
        api = store.apis[0]
        before = outcome(lambda: store.invocation_counts(api, WINDOW_MS))
        rates = store.request_counts(WINDOW_MS)
        rates[api].clear()
        rates.clear()
        store.traces(api).clear()
        store.traces().clear()
        store.latencies(api).clear()
        store.shape_groups(api).clear()
        for buckets in store.invocation_counts(api, WINDOW_MS).values():
            buckets.clear()
        assert outcome(lambda: store.invocation_counts(api, WINDOW_MS)) == before
        assert_same_answers(store, oracle, [(api, None, None, None, WINDOW_MS)])

    def test_non_positive_window_is_rejected_before_and_after_counting(self):
        store = TraceStore()
        store.extend(random_forest(np.random.default_rng(12), 5))
        for _ in range(2):
            with pytest.raises(ValueError):
                store.request_counts(0.0)
            with pytest.raises(ValueError):
                store.invocation_counts(store.apis[0], -1.0)
            store.request_counts(WINDOW_MS)


# -- (c) API profiles: counted per shape, classified on the last trace of each ------------------
def _two_children(trace_id, start_ms, first, second):
    """Root ``A`` with two ``B.get`` children (one key, written twice per trace)."""
    return Trace(
        trace_id,
        "/a",
        [
            Span(trace_id, "s0", None, "A", "/a", start_ms, 20.0),
            Span(trace_id, "s1", "s0", "B", "get", start_ms + first[0], first[1]),
            Span(trace_id, "s2", "s0", "B", "get", start_ms + second[0], second[1]),
        ],
    )


class TestProfiles:
    @given(_seeds, st.integers(min_value=1, max_value=12))
    def test_profile_matches_replaying_every_trace(self, seed, traces_per_api):
        rng = np.random.default_rng(seed)
        telemetry = TelemetryServer(window_ms=WINDOW_MS)
        for trace in random_forest(rng, int(rng.integers(1, 40))):
            telemetry.ingest_trace(trace)
        profiler = ApiProfiler(
            telemetry, stateful_components=["D", "nobody"], traces_per_api=traces_per_api
        )
        oracle = WalkingTraceStore()
        for trace in telemetry.traces.traces():
            oracle.add(trace)
        profiles = profiler.profile_all()
        assert list(profiles) == oracle.apis
        for api, profile in profiles.items():
            assert profile.api == api
            assert seen_profile(profile) == seen(walk_profile(profiler, oracle.traces(api)))

    def test_last_trace_wins_and_first_trace_fixes_key_order(self):
        overlapping, apart = ((1.0, 5.0), (2.0, 5.0)), ((1.0, 2.0), (6.0, 2.0))
        chain = Trace(  # a second shape: A -> C.put -> B.get, then A -> B.get
            "chain",
            "/a",
            [
                Span("chain", "s0", None, "A", "/a", 50.0, 20.0),
                Span("chain", "s1", "s0", "C", "put", 51.0, 30.0),  # outlives the root
                Span("chain", "s2", "s1", "B", "get", 52.0, 1.0),
                Span("chain", "s3", "s0", "B", "get", 60.0, 1.0),
            ],
        )
        telemetry = TelemetryServer()
        # Time order: siblings overlap, the chain, siblings apart (the last word on A->B.get).
        for trace in (_two_children("late", 90.0, *apart), chain, _two_children("early", 10.0, *overlapping)):
            telemetry.ingest_trace(trace)
        profiler = ApiProfiler(telemetry)
        profile = profiler.profile("/a")
        assert seen_profile(profile) == seen(walk_profile(profiler, telemetry.get_traces("/a")))
        assert list(profile.workflow_modes.items()) == [
            (("A", "B", "get"), ExecutionMode.SEQUENTIAL),  # first written by "early"
            (("A", "C", "put"), ExecutionMode.BACKGROUND),
            (("C", "B", "get"), ExecutionMode.SEQUENTIAL),
        ]
        # One more overlapping request, later than everything: the same key flips back.
        telemetry.ingest_trace(_two_children("latest", 120.0, *overlapping))
        assert ApiProfiler(telemetry).profile("/a").workflow_modes[("A", "B", "get")] is (
            ExecutionMode.PARALLEL
        )

    def test_a_key_repeated_inside_one_trace_keeps_its_last_write(self):
        # Second B.get outlives the root (background); the first does not.
        telemetry = TelemetryServer()
        telemetry.ingest_trace(_two_children("t", 0.0, (1.0, 2.0), (5.0, 40.0)))
        profiler = ApiProfiler(telemetry)
        profile = profiler.profile("/a")
        assert profile.workflow_modes == {("A", "B", "get"): ExecutionMode.BACKGROUND}
        assert profile.invocations_per_request == {("A", "B"): 2.0}
        assert seen_profile(profile) == seen(walk_profile(profiler, telemetry.get_traces("/a")))


# -- (d) the three learners behind the stores ---------------------------------------------------
class TestLearners:
    @given(_seeds)
    def test_stores_answer_like_the_flat_ones(self, seed):
        rng = np.random.default_rng(seed)
        census, walking = random_telemetry(rng, random_forest(rng, int(rng.integers(1, 30))))
        assert census.common_windows() == walking.common_windows()
        assert census.summary() == walking.summary()
        assert census.observed_pairs() == walking.observed_pairs()
        assert seen(census.traffic_matrix()) == seen(walking.traffic_matrix())
        assert census.metrics.components == walking.metrics.components
        assert census.metrics.samples() == walking.metrics.samples()
        windows = census.common_windows() + [99]
        for component in COMPONENTS + ["E", "nobody"]:
            for metric in METRIC_NAMES:
                for picked in (None, windows, []):
                    assert seen(census.metrics.series(component, metric, picked)) == seen(
                        walking.metrics.series(component, metric, picked)
                    )
                assert seen(census.metrics.total(component, metric)) == seen(
                    walking.metrics.total(component, metric)
                )
                assert seen(census.metrics.aggregate(metric)) == seen(walking.metrics.aggregate(metric))
        for source, destination in census.observed_pairs() + [("A", "nobody")]:
            for picked in (None, windows):
                assert seen(census.mesh.request_series(source, destination, picked)) == seen(
                    walking.mesh.request_series(source, destination, picked)
                )
                assert seen(census.mesh.response_series(source, destination, picked)) == seen(
                    walking.mesh.response_series(source, destination, picked)
                )
            assert seen(census.mesh.total_bytes(source, destination)) == seen(
                walking.mesh.total_bytes(source, destination)
            )
        assert seen(census.mesh.traffic_between(["A", "B"], ["C", "D"])) == seen(
            walking.mesh.traffic_between(["A", "B"], ["C", "D"])
        )

    def test_unknown_metric_is_a_key_error_hit_or_miss(self):
        telemetry = TelemetryServer()
        telemetry.metrics.record("A", 0.0, cpu_millicores=1.0)
        for component, window in (("A", 0), ("A", 7), ("nobody", 0)):
            with pytest.raises(KeyError):
                telemetry.metrics.value(component, window, "bogus")
        with pytest.raises(KeyError):
            telemetry.metrics.series("nobody", "bogus", [0])

    @given(_seeds)
    def test_footprint_estimator_and_component_profiles_match(self, seed):
        rng = np.random.default_rng(seed)
        census, walking = random_telemetry(rng, random_forest(rng, int(rng.integers(1, 40))))
        application = toy_application()

        def footprint(telemetry):
            learned = FootprintLearner(telemetry, min_windows=1).learn()
            return learned._by_api, learned.content_digest()

        def estimator(telemetry):
            fitted = ResourceEstimator(application, telemetry).fit()
            burst = fitted.predict_scaled(3.0, steps=4)
            return (
                fitted._apis,
                fitted._models,
                fitted.content_digest(),
                telemetry.api_request_rates(),
                telemetry.api_request_rates(window_ms=250.0),
                burst.usage,
                burst.api_rates,
            )

        def components(telemetry):
            return ComponentProfiler(telemetry, application).profile_all()

        for learn in (footprint, estimator, components):
            assert outcome(lambda: learn(census)) == outcome(lambda: learn(walking))

    def test_learning_twice_and_after_ingestion(self):
        """The census serves the second learn; ``add`` between learns is seen by the third."""
        rng = np.random.default_rng(21)
        forest = random_forest(rng, 30)
        census, walking = random_telemetry(rng, forest[:25])

        def learned(telemetry):
            footprint = FootprintLearner(telemetry, min_windows=1).learn()
            return footprint._by_api, {
                api: telemetry.invocation_counts(api) for api in telemetry.apis()
            }

        first = outcome(lambda: learned(census))
        assert first == outcome(lambda: learned(census)) == outcome(lambda: learned(walking))
        for trace in forest[25:]:
            census.ingest_trace(trace)
            walking.traces.add(trace)
        assert outcome(lambda: learned(census)) == outcome(lambda: learned(walking)) != first
