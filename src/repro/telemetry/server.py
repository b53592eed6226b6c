"""Telemetry server facade.

Atlas is observability-driven: everything it learns comes from a telemetry server that
exposes distributed traces, component-focused resource metrics and pairwise network
metrics (Figure 4).  :class:`TelemetryServer` bundles the three stores behind one query
interface so the application-learning stage, the resource estimator, the monitoring
stage and the benchmarks all consume telemetry the same way the real system would.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .mesh import PairwiseNetworkMetrics
from .metrics import ComponentMetricsStore
from .tracing import Trace, TraceStore

__all__ = ["TelemetryServer"]


class TelemetryServer:
    """Unified access point for traces, component metrics and mesh metrics."""

    def __init__(self, window_ms: float = 5_000.0) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.window_ms = window_ms
        self.traces = TraceStore()
        self.metrics = ComponentMetricsStore(window_ms=window_ms)
        self.mesh = PairwiseNetworkMetrics(window_ms=window_ms)

    # -- ingestion ------------------------------------------------------------------
    def ingest_trace(self, trace: Trace) -> None:
        self.traces.add(trace)

    # -- trace queries ----------------------------------------------------------------
    def apis(self) -> List[str]:
        """APIs observed so far."""
        return self.traces.apis

    def get_traces(
        self,
        api: Optional[str] = None,
        start_ms: Optional[float] = None,
        end_ms: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[Trace]:
        return self.traces.traces(api=api, start_ms=start_ms, end_ms=end_ms, limit=limit)

    def api_latencies(
        self,
        api: str,
        start_ms: Optional[float] = None,
        end_ms: Optional[float] = None,
    ) -> List[float]:
        return self.traces.latencies(api, start_ms=start_ms, end_ms=end_ms)

    def api_request_rates(self, window_ms: Optional[float] = None) -> Dict[str, List[float]]:
        """Requests per window for every API, over the observed window range.

        The counts come from the trace census, so asking again between ingests (every
        ``ResourceEstimator.predict_scaled``) does not bucket the traces again.
        """
        window_ms = window_ms or self.window_ms
        counts = self.traces.request_counts(window_ms)
        if not counts:
            return {}
        max_bucket = max(max(buckets) for buckets in counts.values() if buckets)
        return {
            api: [float(buckets.get(i, 0)) for i in range(max_bucket + 1)]
            for api, buckets in counts.items()
        }

    def invocation_counts(
        self, api: str
    ) -> Dict[Tuple[str, str], Dict[int, int]]:
        """Per-window invocation counts of one API for every component pair."""
        return self.traces.invocation_counts(api, self.window_ms)

    # -- mesh queries -------------------------------------------------------------------
    def observed_pairs(self) -> List[Tuple[str, str]]:
        return self.mesh.pairs()

    def traffic_matrix(self) -> Dict[Tuple[str, str], float]:
        return self.mesh.total_traffic_matrix()

    # -- component metric queries ----------------------------------------------------------
    def component_series(self, component: str, metric: str) -> List[float]:
        return self.metrics.series(component, metric, self.common_windows())

    def component_total(self, component: str, metric: str) -> float:
        return self.metrics.total(component, metric)

    # -- window bookkeeping -------------------------------------------------------------------
    def common_windows(self) -> List[int]:
        """Union of the window indices observed by any telemetry source."""
        windows = set(self.metrics.windows()) | set(self.mesh.windows())
        return sorted(windows)

    def observation_span_ms(self) -> float:
        windows = self.common_windows()
        if not windows:
            return 0.0
        return (max(windows) + 1) * self.window_ms

    def summary(self) -> Dict[str, float]:
        """Small summary for logging and examples."""
        return {
            "traces": float(len(self.traces)),
            "apis": float(len(self.apis())),
            "components": float(len(self.metrics.components)),
            "pairs": float(len(self.mesh.pairs())),
            "windows": float(len(self.common_windows())),
        }
