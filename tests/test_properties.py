"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CLOUD,
    ON_PREM,
    AutoscalerConfig,
    ClusterAutoscaler,
    MigrationPlan,
    NodeSpec,
    StorageAutoscaler,
    default_network_model,
)
from repro.monitoring import kl_divergence
from repro.optimizer import (
    crowding_distance,
    dominates,
    non_dominated_sort,
    pareto_front,
    survival_selection,
)
from repro.quality import DelayInjector
from repro.telemetry import Span, Trace

objective_vectors = st.lists(
    st.tuples(
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 100, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


class TestParetoProperties:
    @given(objective_vectors)
    @settings(max_examples=50)
    def test_front_members_are_mutually_non_dominated(self, points):
        front = pareto_front(points, key=lambda p: p)
        for a in front:
            for b in front:
                if a is not b:
                    assert not dominates(a, b)

    @given(objective_vectors)
    @settings(max_examples=50)
    def test_every_point_dominated_by_or_in_front(self, points):
        front = pareto_front(points, key=lambda p: p)
        for point in points:
            assert point in front or any(
                dominates(member, point) or tuple(member) == tuple(point) for member in front
            )

    @given(objective_vectors)
    @settings(max_examples=50)
    def test_non_dominated_sort_partitions_population(self, points):
        fronts = non_dominated_sort(points)
        indices = [i for front in fronts for i in front]
        assert sorted(indices) == list(range(len(points)))
        # Front 0 must be non-dominated by anything.
        for i in fronts[0]:
            assert not any(dominates(points[j], points[i]) for j in range(len(points)) if j != i)

    @given(objective_vectors)
    @settings(max_examples=50)
    def test_crowding_distance_non_negative(self, points):
        distances = crowding_distance(points)
        assert len(distances) == len(points)
        assert all(d >= 0 for d in distances)

    @given(objective_vectors, st.integers(min_value=1, max_value=10))
    @settings(max_examples=50)
    def test_survival_selection_size_and_validity(self, points, capacity):
        survivors = survival_selection(points, capacity)
        assert len(survivors) == min(capacity, len(points))
        assert len(set(survivors)) == len(survivors)
        assert all(0 <= i < len(points) for i in survivors)


class TestPlanProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_vector_round_trip(self, vector):
        components = [f"c{i}" for i in range(len(vector))]
        plan = MigrationPlan.from_vector(components, vector)
        assert plan.to_vector() == vector
        assert MigrationPlan.from_json(plan.to_json(), order=components) == plan
        assert plan.offload_count() == sum(vector)
        assert set(plan.offloaded()) | set(plan.on_prem()) == set(components)


class TestNetworkProperties:
    @given(
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_extra_delay_non_negative_and_monotone_in_payload(self, small, extra):
        network = default_network_model()
        before = (ON_PREM, ON_PREM)
        after = (ON_PREM, CLOUD)
        d_small = network.extra_delay_ms(before, after, small, small)
        d_large = network.extra_delay_ms(before, after, small + extra, small + extra)
        assert d_small >= 0.0
        assert d_large >= d_small - 1e-9


class TestAutoscalerProperties:
    @given(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_nodes_cover_demand_with_headroom(self, cpu, memory):
        spec = NodeSpec("n", 2_000.0, 8_192.0)
        scaler = ClusterAutoscaler(spec, AutoscalerConfig(0.2, 0.2))
        nodes = scaler.nodes_for(cpu, memory)
        assert nodes >= 0
        if cpu > 0 or memory > 0:
            assert nodes * spec.cpu_millicores >= cpu
            assert nodes * spec.memory_mb >= memory

    @given(st.lists(st.floats(min_value=0.0, max_value=500.0, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_storage_capacity_never_decreases(self, usage):
        scaler = StorageAutoscaler(AutoscalerConfig(storage_headroom=0.2))
        series = scaler.capacity_series(usage, migrated_data_gb=50.0)
        assert all(b >= a for a, b in zip(series, series[1:]))
        assert all(c >= 0 for c in series)


def _chain_trace(durations):
    """A purely sequential chain Frontend -> S1 -> S2 ... used for injection properties."""
    spans = []
    start = 0.0
    total = sum(durations) + len(durations)
    spans.append(Span("t", "s0", None, "C0", "op", 0.0, total))
    cursor = 1.0
    for i, duration in enumerate(durations, start=1):
        spans.append(Span("t", f"s{i}", f"s{i-1}", f"C{i}", "op", cursor, duration))
        cursor += 1.0 + duration
    return Trace("t", "/chain", spans)


class TestDelayInjectionProperties:
    @given(
        st.lists(st.floats(min_value=0.5, max_value=20.0, allow_nan=False), min_size=1, max_size=6),
        st.lists(st.floats(min_value=0.0, max_value=60.0, allow_nan=False), min_size=1, max_size=6),
    )
    @settings(max_examples=60)
    def test_injected_latency_never_decreases_and_bounded_by_total_delay(self, durations, delays):
        trace = _chain_trace(durations)
        edge_delays = {
            (f"C{i}", f"C{i+1}"): delay
            for i, delay in enumerate(delays[: len(durations)])
        }
        injector = DelayInjector(trace)
        injected = injector.injected_latency_ms(edge_delays)
        assert injected >= trace.latency_ms - 1e-6
        assert injected <= trace.latency_ms + sum(edge_delays.values()) + 1e-6

    @given(st.lists(st.floats(min_value=0.5, max_value=20.0, allow_nan=False), min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_zero_delays_are_identity(self, durations):
        trace = _chain_trace(durations)
        injected = DelayInjector(trace).inject({})
        assert injected.latency_ms == pytest.approx(trace.latency_ms, rel=1e-9)


class TestKLProperties:
    @given(
        st.lists(st.floats(min_value=1.0, max_value=1_000.0, allow_nan=False), min_size=5, max_size=100),
        st.lists(st.floats(min_value=1.0, max_value=1_000.0, allow_nan=False), min_size=5, max_size=100),
    )
    @settings(max_examples=60)
    def test_kl_non_negative_and_zero_on_self(self, a, b):
        # A range a few floats wide cannot hold twenty bins: the documented ValueError
        # (``tests/test_daemon_state.py::TestHistogramFreeKL``), not this property.
        for window in (a, a + b):
            assume(max(window) == min(window) or max(window) - min(window) > 1e-9)
        assert kl_divergence(a, b) >= 0.0
        assert kl_divergence(a, a) < 0.05
