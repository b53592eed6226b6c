"""Unit tests for the telemetry substrate: tracing, metrics, mesh, server."""

import pytest

from repro.telemetry import (
    ComponentMetricsStore,
    MetricSample,
    PairwiseNetworkMetrics,
    Span,
    TelemetryServer,
    Trace,
    TraceStore,
    new_trace_id,
)


def make_trace(trace_id="t1", api="/read", start=0.0):
    root = Span(trace_id, "s1", None, "Frontend", api, start, 10.0)
    child = Span(trace_id, "s2", "s1", "ServiceA", "Read", start + 1.0, 6.0)
    leaf = Span(trace_id, "s3", "s2", "Database", "Find", start + 2.0, 3.0)
    return Trace(trace_id, api, [root, child, leaf])


class TestSpan:
    def test_end_and_root(self):
        span = Span("t", "s", None, "C", "op", 5.0, 2.0)
        assert span.end_ms == 7.0
        assert span.is_root

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Span("t", "s", None, "C", "op", 0.0, -1.0)

    def test_shifted_preserves_identity(self):
        span = Span("t", "s", "p", "C", "op", 5.0, 2.0)
        shifted = span.shifted(10.0)
        assert shifted.start_ms == 10.0
        assert shifted.duration_ms == 2.0
        assert shifted.span_id == "s"
        assert shifted.parent_id == "p"

    def test_new_trace_ids_are_unique(self):
        assert new_trace_id() != new_trace_id()


class TestTrace:
    def test_requires_single_root(self):
        spans = [
            Span("t", "a", None, "C", "op", 0.0, 1.0),
            Span("t", "b", None, "C", "op", 0.0, 1.0),
        ]
        with pytest.raises(ValueError):
            Trace("t", "/x", spans)

    def test_requires_known_parent(self):
        spans = [
            Span("t", "a", None, "C", "op", 0.0, 1.0),
            Span("t", "b", "ghost", "C", "op", 0.0, 1.0),
        ]
        with pytest.raises(ValueError):
            Trace("t", "/x", spans)

    def test_rejects_duplicate_span_ids(self):
        spans = [
            Span("t", "a", None, "C", "op", 0.0, 1.0),
            Span("t", "a", "a", "C", "op", 0.0, 1.0),
        ]
        with pytest.raises(ValueError):
            Trace("t", "/x", spans)

    def test_latency_is_root_duration(self):
        trace = make_trace()
        assert trace.latency_ms == 10.0
        assert trace.start_ms == 0.0

    def test_children_ordering(self):
        trace = make_trace()
        assert [s.span_id for s in trace.children("s1")] == ["s2"]
        assert trace.children("s3") == []

    def test_parent_lookup(self):
        trace = make_trace()
        assert trace.parent("s2").span_id == "s1"
        assert trace.parent("s1") is None

    def test_components_in_first_seen_order(self):
        trace = make_trace()
        assert trace.components() == ["Frontend", "ServiceA", "Database"]

    def test_invocation_edges(self):
        trace = make_trace()
        assert trace.invocation_edges() == [
            ("Frontend", "ServiceA"),
            ("ServiceA", "Database"),
        ]

    def test_with_spans_keeps_identity(self):
        trace = make_trace()
        shifted = trace.with_spans([s.shifted(s.start_ms + 5.0) for s in trace.spans])
        assert shifted.trace_id == trace.trace_id
        assert shifted.api == trace.api
        assert shifted.start_ms == 5.0


class TestTraceStore:
    def test_query_by_api_and_time(self):
        store = TraceStore()
        store.add(make_trace("a", "/read", 0.0))
        store.add(make_trace("b", "/read", 100.0))
        store.add(make_trace("c", "/write", 50.0))
        assert len(store) == 3
        assert store.apis == ["/read", "/write"]
        assert len(store.traces("/read")) == 2
        assert len(store.traces("/read", start_ms=50.0)) == 1
        assert len(store.traces(end_ms=60.0)) == 2
        assert len(store.traces("/read", limit=1)) == 1

    def test_limit_keeps_the_most_recent_and_zero_means_none(self):
        store = TraceStore()
        store.add(make_trace("b", "/read", 100.0))
        store.add(make_trace("a", "/read", 0.0))
        store.add(make_trace("c", "/write", 50.0))
        assert [t.trace_id for t in store.traces("/read", limit=1)] == ["b"]
        assert [t.trace_id for t in store.traces(limit=2)] == ["c", "b"]
        # ``selected[-0:]`` used to hand back every trace.
        assert store.traces("/read", limit=0) == []
        assert store.traces(limit=0) == []
        assert len(store.traces("/read", limit=-1)) == 2  # negative: no limit, as before

    def test_latencies(self):
        store = TraceStore()
        store.extend([make_trace("a"), make_trace("b", start=5.0)])
        assert store.latencies("/read") == [10.0, 10.0]

    def test_request_counts_bucketing(self):
        store = TraceStore()
        store.add(make_trace("a", "/read", 0.0))
        store.add(make_trace("b", "/read", 1_500.0))
        counts = store.request_counts(window_ms=1_000.0)
        assert counts["/read"] == {0: 1, 1: 1}

    def test_invocation_counts(self):
        store = TraceStore()
        store.add(make_trace("a", "/read", 0.0))
        store.add(make_trace("b", "/read", 100.0))
        counts = store.invocation_counts("/read", window_ms=1_000.0)
        assert counts[("Frontend", "ServiceA")][0] == 2


class TestComponentMetrics:
    def test_accumulates_within_window(self):
        store = ComponentMetricsStore(window_ms=1_000.0)
        store.record("A", 100.0, cpu_millicores=10.0, requests=1.0)
        store.record("A", 900.0, cpu_millicores=5.0, requests=1.0)
        assert store.value("A", 0, "cpu_millicores") == 15.0
        assert store.value("A", 0, "requests") == 2.0

    def test_memory_is_high_water_mark(self):
        store = ComponentMetricsStore(window_ms=1_000.0)
        store.record("A", 100.0, memory_mb=50.0)
        store.record("A", 200.0, memory_mb=30.0)
        assert store.value("A", 0, "memory_mb") == 50.0

    def test_series_and_totals(self):
        store = ComponentMetricsStore(window_ms=1_000.0)
        store.record("A", 0.0, cpu_millicores=1.0)
        store.record("A", 2_500.0, cpu_millicores=3.0)
        assert store.windows() == [0, 2]
        assert store.series("A", "cpu_millicores") == [1.0, 3.0]
        assert store.series("A", "cpu_millicores", windows=[0, 1, 2]) == [1.0, 0.0, 3.0]
        assert store.total("A", "cpu_millicores") == 4.0

    def test_aggregate_and_peak(self):
        store = ComponentMetricsStore(window_ms=1_000.0)
        store.record("A", 0.0, cpu_millicores=1.0)
        store.record("B", 0.0, cpu_millicores=2.0)
        store.record("A", 1_000.0, cpu_millicores=5.0)
        assert store.aggregate("cpu_millicores") == [3.0, 5.0]
        assert store.peak("cpu_millicores") == 5.0
        assert store.peak("cpu_millicores", components=["B"]) == 2.0

    def test_unknown_metric_rejected(self):
        store = ComponentMetricsStore()
        with pytest.raises(KeyError):
            store.value("A", 0, "gpu")

    def test_record_sample(self):
        store = ComponentMetricsStore()
        store.record_sample(MetricSample(component="A", window=2, cpu_millicores=7.0))
        assert store.value("A", 2, "cpu_millicores") == 7.0
        assert store.samples()[0].component == "A"

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            MetricSample(component="A", window=0, cpu_millicores=-1.0)


class TestMeshMetrics:
    def test_record_and_read(self):
        mesh = PairwiseNetworkMetrics(window_ms=1_000.0)
        mesh.record("A", "B", 100.0, 500.0, 200.0)
        mesh.record("A", "B", 600.0, 300.0, 100.0)
        assert mesh.request_bytes("A", "B", 0) == 800.0
        assert mesh.response_bytes("A", "B", 0) == 300.0
        assert mesh.pairs() == [("A", "B")]

    def test_directionality(self):
        mesh = PairwiseNetworkMetrics()
        mesh.record("A", "B", 0.0, 100.0, 0.0)
        assert mesh.request_bytes("B", "A", 0) == 0.0

    def test_series_and_totals(self):
        mesh = PairwiseNetworkMetrics(window_ms=1_000.0)
        mesh.record("A", "B", 0.0, 100.0, 50.0)
        mesh.record("A", "B", 1_500.0, 200.0, 70.0)
        assert mesh.request_series("A", "B") == [100.0, 200.0]
        assert mesh.total_bytes("A", "B") == 420.0
        assert mesh.total_traffic_matrix()[("A", "B")] == 420.0

    def test_traffic_between_groups(self):
        mesh = PairwiseNetworkMetrics()
        mesh.record("A", "B", 0.0, 100.0, 50.0)
        mesh.record("C", "D", 0.0, 10.0, 5.0)
        assert mesh.traffic_between(["A"], ["B"]) == 150.0
        assert mesh.traffic_between(["A", "B"], ["C", "D"]) == 0.0

    def test_negative_bytes_rejected(self):
        mesh = PairwiseNetworkMetrics()
        with pytest.raises(ValueError):
            mesh.record("A", "B", 0.0, -1.0, 0.0)


class TestTelemetryServer:
    def test_ingest_and_query(self):
        server = TelemetryServer(window_ms=1_000.0)
        server.ingest_trace(make_trace("a", "/read", 0.0))
        server.ingest_trace(make_trace("b", "/write", 100.0))
        server.mesh.record("Frontend", "ServiceA", 10.0, 100.0, 50.0)
        server.metrics.record("Frontend", 10.0, cpu_millicores=5.0)
        assert server.apis() == ["/read", "/write"]
        assert len(server.get_traces("/read")) == 1
        assert server.api_latencies("/read") == [10.0]
        assert server.observed_pairs() == [("Frontend", "ServiceA")]
        assert server.component_total("Frontend", "cpu_millicores") == 5.0
        assert server.common_windows() == [0]
        assert server.observation_span_ms() == 1_000.0

    def test_api_request_rates_aligned(self):
        server = TelemetryServer(window_ms=1_000.0)
        server.ingest_trace(make_trace("a", "/read", 0.0))
        server.ingest_trace(make_trace("b", "/read", 2_200.0))
        server.mesh.record("Frontend", "ServiceA", 2_200.0, 1.0, 1.0)
        rates = server.api_request_rates()
        assert rates["/read"] == [1.0, 0.0, 1.0]

    def test_summary(self):
        server = TelemetryServer()
        server.ingest_trace(make_trace())
        summary = server.summary()
        assert summary["traces"] == 1.0
        assert summary["apis"] == 1.0
