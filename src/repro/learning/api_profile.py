"""API profiling: learn each user-facing API's characteristics from traces.

Atlas's application-learning stage builds, for every API, a profile containing

* the components the API touches and the stateful subset ``SC(A)`` (Eq. 3),
* per-request invocation counts for every (caller, callee) component pair,
* the observed end-to-end latency distribution,
* the execution-workflow relationships between sibling spans (parallel / sequential)
  and between child and parent (background), recovered purely from span timestamps as
  described in Section 4.1.1.

Everything here is derived from telemetry only — no knowledge of the application's call
graphs is used, in line with the paper's unsupervised-learning design principle.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..apps.model import ExecutionMode
from ..telemetry.tracing import Span, Trace
from ..telemetry.server import TelemetryServer

__all__ = [
    "classify_sibling",
    "classify_background",
    "ApiProfile",
    "ApiProfiler",
]

#: Fraction of the shorter span's duration that must overlap for two siblings to be
#: considered parallel (robust to sub-millisecond scheduling jitter).
_PARALLEL_OVERLAP_FRACTION = 0.25


def classify_sibling(earlier: Span, later: Span) -> ExecutionMode:
    """Classify two sibling spans as parallel or sequential from their timestamps."""
    overlap = min(earlier.end_ms, later.end_ms) - max(earlier.start_ms, later.start_ms)
    shorter = max(min(earlier.duration_ms, later.duration_ms), 1e-9)
    if overlap > _PARALLEL_OVERLAP_FRACTION * shorter:
        return ExecutionMode.PARALLEL
    return ExecutionMode.SEQUENTIAL


def classify_background(child: Span, parent: Span, tolerance_ms: float = 0.05) -> bool:
    """A child whose end time exceeds its parent's end time runs in the background."""
    return child.end_ms > parent.end_ms + tolerance_ms


@dataclass
class ApiProfile:
    """Everything Atlas knows about one user-facing API after application learning."""

    api: str
    request_count: int
    components: List[str]
    stateful_components: List[str]
    latencies_ms: List[float]
    invocations_per_request: Dict[Tuple[str, str], float]
    workflow_modes: Dict[Tuple[str, str, str], ExecutionMode]
    sample_traces: List[Trace] = field(default_factory=list)

    @property
    def mean_latency_ms(self) -> float:
        return float(statistics.fmean(self.latencies_ms)) if self.latencies_ms else 0.0

    @property
    def p95_latency_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(self.latencies_ms, 95))

    def latency_histogram(self, bins: int = 20) -> Tuple[List[float], List[float]]:
        """(bin_edges, counts) of the observed latency distribution."""
        if not self.latencies_ms:
            return [], []
        counts, edges = np.histogram(self.latencies_ms, bins=bins)
        return list(edges), list(counts.astype(float))

    def uses_component(self, component: str) -> bool:
        return component in self.components

    def background_components(self) -> Set[str]:
        """Components only ever invoked with a background workflow in this API."""
        modes_by_component: Dict[str, Set[ExecutionMode]] = {}
        for (_parent, component, _op), mode in self.workflow_modes.items():
            modes_by_component.setdefault(component, set()).add(mode)
        return {
            comp
            for comp, modes in modes_by_component.items()
            if modes == {ExecutionMode.BACKGROUND}
        }


class ApiProfiler:
    """Builds :class:`ApiProfile` objects from the telemetry server."""

    def __init__(
        self,
        telemetry: TelemetryServer,
        stateful_components: Optional[Sequence[str]] = None,
        traces_per_api: int = 100,
    ) -> None:
        if traces_per_api <= 0:
            raise ValueError("traces_per_api must be positive")
        self.telemetry = telemetry
        self.stateful_components = set(stateful_components or [])
        self.traces_per_api = traces_per_api

    # -- profiling ---------------------------------------------------------------------
    def profile(self, api: str) -> ApiProfile:
        """Profile one API from its recorded traces.

        The traces of an API fall into a few shapes, and everything but the timing
        classification is a function of the shape: components, edges and workflow
        keys are taken once per shape group, weighted by the group's size.  The
        classification is "last observation wins", and the last trace to write a
        key is the last trace of *some* shape, so replaying each group's last trace
        in trace order leaves exactly what replaying every trace would.
        """
        traces = self.telemetry.get_traces(api=api)
        if not traces:
            raise ValueError(f"no traces recorded for API {api!r}")
        groups = self.telemetry.traces.shape_groups(api)
        latencies = self.telemetry.api_latencies(api)
        components: List[str] = []
        edge_counts: Dict[Tuple[str, str], int] = {}
        for group in groups:
            for comp in group.shape.components:
                if comp not in components:
                    components.append(comp)
            for edge, per_trace in group.shape.edge_counts:
                edge_counts[edge] = edge_counts.get(edge, 0) + per_trace * group.count
        modes: Dict[Tuple[str, str, str], ExecutionMode] = {}
        for group in sorted(groups, key=lambda g: g.last_position):
            self._classify_trace(group.last, modes)
        # Key order is first-write order: the shapes by first trace, keys as visited.
        workflow = {key: modes[key] for group in groups for key in group.shape.workflow_keys}
        n = len(traces)
        invocations = {edge: count / n for edge, count in edge_counts.items()}
        stateful = [c for c in components if c in self.stateful_components]
        samples = traces[-self.traces_per_api:]
        return ApiProfile(
            api=api,
            request_count=n,
            components=components,
            stateful_components=stateful,
            latencies_ms=latencies,
            invocations_per_request=invocations,
            workflow_modes=workflow,
            sample_traces=samples,
        )

    def profile_all(self) -> Dict[str, ApiProfile]:
        """Profile every API observed by the telemetry server."""
        return {api: self.profile(api) for api in self.telemetry.apis()}

    # -- workflow classification ----------------------------------------------------------
    def _classify_trace(
        self, trace: Trace, workflow: Dict[Tuple[str, str, str], ExecutionMode]
    ) -> None:
        """Record the workflow mode of every invocation edge of one trace.

        Background takes precedence over the sibling classification; among siblings, a
        span is parallel if it significantly overlaps any sibling.  The last observation
        wins across traces (they are consistent for a deterministic application).
        """
        for span in trace.spans:
            children = trace.children(span.span_id)
            for i, child in enumerate(children):
                key = (span.component, child.component, child.operation)
                if classify_background(child, span):
                    workflow[key] = ExecutionMode.BACKGROUND
                    continue
                mode = ExecutionMode.SEQUENTIAL
                for j, sibling in enumerate(children):
                    if i == j:
                        continue
                    if classify_sibling(sibling, child) is ExecutionMode.PARALLEL:
                        mode = ExecutionMode.PARALLEL
                        break
                workflow[key] = mode
