"""Observability substrate: tracing, component metrics, mesh metrics, telemetry server."""

from .mesh import PairwiseNetworkMetrics
from .metrics import ComponentMetricsStore, MetricSample
from .server import TelemetryServer
from .tracing import (
    ShapeGroup,
    Span,
    Trace,
    TraceShape,
    TraceStore,
    new_trace_id,
)

__all__ = [
    "Span",
    "Trace",
    "TraceShape",
    "ShapeGroup",
    "TraceStore",
    "new_trace_id",
    "ComponentMetricsStore",
    "MetricSample",
    "PairwiseNetworkMetrics",
    "TelemetryServer",
]
