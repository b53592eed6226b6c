"""Distributed tracing substrate (Jaeger-like).

A :class:`Span` mirrors the attributes shown in Figure 4 of the paper: trace id, span
id, parent id, component, operation, start timestamp and duration.  A :class:`Trace`
groups the spans of one API request, and a :class:`TraceStore` is the queryable archive
Atlas pulls traces from during application learning and drift detection.

Spans intentionally do *not* carry payload sizes: per the paper's observability model,
byte counts are only available as pairwise aggregates from the service mesh
(:mod:`repro.telemetry.mesh`), which is exactly why the network-footprint learning
problem (Eq. 1) exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..digest import part_stream

__all__ = ["Span", "Trace", "TraceStructure", "TraceStore", "new_trace_id"]

_trace_counter = itertools.count(1)


def new_trace_id() -> str:
    """Generate a process-unique trace id."""
    return f"trace-{next(_trace_counter):08d}"


#: Shared empty child list returned for leaf spans (callers treat children as read-only).
_NO_CHILDREN: List["Span"] = []


@dataclass(frozen=True, slots=True)
class Span:
    """One operation executed while serving an API request."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    component: str
    operation: str
    start_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        if self.duration_ms < 0:
            raise ValueError("span duration must be non-negative")

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    def shifted(self, start_ms: float, duration_ms: Optional[float] = None) -> "Span":
        """A copy of this span with updated timing (used by delay injection)."""
        return Span(
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            component=self.component,
            operation=self.operation,
            start_ms=start_ms,
            duration_ms=self.duration_ms if duration_ms is None else duration_ms,
        )


class TraceStructure(NamedTuple):
    """Flat, index-based view of one trace (the export consumed by compiled replay).

    ``spans`` is the canonical span order of the trace; ``parent_index[i]`` is the
    position of span ``i``'s parent in ``spans`` (``-1`` for the root);
    ``children_index[i]`` lists the positions of span ``i``'s direct children in the
    same order :meth:`Trace.children` yields them (start time, then span id).
    """

    spans: Tuple[Span, ...]
    root_index: int
    parent_index: Tuple[int, ...]
    children_index: Tuple[Tuple[int, ...], ...]


class Trace:
    """All spans created while serving one API request."""

    #: Memo of :meth:`content_stream`; set on first use, never pickled.
    _content_stream: Optional[bytes] = None

    def __init__(self, trace_id: str, api: str, spans: Sequence[Span]) -> None:
        if not spans:
            raise ValueError("a trace must contain at least one span")
        self.trace_id = trace_id
        self._api = api
        self._spans: List[Span] = sorted(spans, key=lambda s: (s.start_ms, s.span_id))
        self._by_id: Dict[str, Span] = {s.span_id: s for s in self._spans}
        if len(self._by_id) != len(self._spans):
            raise ValueError("span ids within a trace must be unique")
        roots = [s for s in self._spans if s.parent_id is None]
        if len(roots) != 1:
            raise ValueError(f"a trace must have exactly one root span, found {len(roots)}")
        self._root = roots[0]
        self._children: Dict[str, List[Span]] = {}
        for span in self._spans:
            if span.parent_id is not None:
                if span.parent_id not in self._by_id:
                    raise ValueError(
                        f"span {span.span_id} references unknown parent {span.parent_id}"
                    )
                self._children.setdefault(span.parent_id, []).append(span)
        for children in self._children.values():
            children.sort(key=lambda s: (s.start_ms, s.span_id))
        self._structure: Optional[TraceStructure] = None

    def __getstate__(self) -> Dict[str, object]:
        """Pickled traces carry content only: the digest memo is process-local."""
        state = dict(self.__dict__)
        state.pop("_content_stream", None)
        return state

    # -- accessors -----------------------------------------------------------------
    @property
    def api(self) -> str:
        """The API this trace served; read-only, it is part of the trace's content."""
        return self._api

    @property
    def root(self) -> Span:
        return self._root

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def span(self, span_id: str) -> Span:
        try:
            return self._by_id[span_id]
        except KeyError:
            raise KeyError(f"unknown span {span_id!r} in trace {self.trace_id!r}") from None

    def children(self, span_id: str) -> List[Span]:
        """Direct child spans of ``span_id``, ordered by start time.

        Returns the prebuilt child index (no copy, no rescan): treat it as read-only.
        Leaves get a fresh empty list so no shared sentinel can be mutated.
        """
        return self._children.get(span_id) or []

    def parent(self, span_id: str) -> Optional[Span]:
        parent_id = self.span(span_id).parent_id
        return None if parent_id is None else self._by_id[parent_id]

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    # -- derived values ---------------------------------------------------------------
    @property
    def start_ms(self) -> float:
        return self._root.start_ms

    @property
    def latency_ms(self) -> float:
        """End-to-end latency of the API request (duration of the root span)."""
        return self._root.duration_ms

    def components(self) -> List[str]:
        """Distinct components touched by the request."""
        seen: List[str] = []
        for span in self._spans:
            if span.component not in seen:
                seen.append(span.component)
        return seen

    def invocation_edges(self) -> List[Tuple[str, str]]:
        """(caller component, callee component) for every parent/child span pair."""
        edges: List[Tuple[str, str]] = []
        for span in self._spans:
            if span.parent_id is None:
                continue
            parent = self._by_id[span.parent_id]
            edges.append((parent.component, span.component))
        return edges

    def structure(self) -> TraceStructure:
        """Index-based topology export (computed once, cached) for compiled replay.

        Compiling a trace into flat arrays needs positions, not span ids: this returns
        every span's parent position and ordered child positions in the canonical span
        order, so downstream consumers never re-walk the id maps.
        """
        if self._structure is None:
            position = {span.span_id: i for i, span in enumerate(self._spans)}
            parent_index = tuple(
                -1 if span.parent_id is None else position[span.parent_id]
                for span in self._spans
            )
            children_index = tuple(
                tuple(
                    position[child.span_id]
                    for child in self._children.get(span.span_id, _NO_CHILDREN)
                )
                for span in self._spans
            )
            self._structure = TraceStructure(
                spans=tuple(self._spans),
                root_index=position[self._root.span_id],
                parent_index=parent_index,
                children_index=children_index,
            )
        return self._structure

    def content_stream(self) -> bytes:
        """The bytes this trace contributes to a trace-set fingerprint (computed once).

        The fingerprint wire encoding (:mod:`repro.digest`) of the API name and the
        :meth:`structure` export — root position, parent positions, then per span the
        component, operation and ``repr``-exact start/duration.  Kept next to the
        export it is derived from, under the same soundness argument: ``Span`` is
        frozen, ``_spans`` never changes after construction and ``api`` is read-only.
        """
        if self._content_stream is None:
            structure = self.structure()
            parts = [
                self.api,
                str(structure.root_index),
                ",".join(str(i) for i in structure.parent_index),
            ]
            for span in structure.spans:
                parts.append(
                    f"{span.component}|{span.operation}|{span.start_ms!r}|{span.duration_ms!r}"
                )
            self._content_stream = part_stream(parts)
        return self._content_stream

    def with_spans(self, spans: Sequence[Span]) -> "Trace":
        """A new trace with the same identity but replaced spans (delay injection output)."""
        return Trace(self.trace_id, self.api, spans)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Trace(api={self.api!r}, spans={len(self._spans)}, "
            f"latency={self.latency_ms:.2f}ms)"
        )


class TraceStore:
    """Queryable archive of traces, indexed by API and time."""

    def __init__(self) -> None:
        self._traces: List[Trace] = []
        self._by_api: Dict[str, List[Trace]] = {}

    def add(self, trace: Trace) -> None:
        self._traces.append(trace)
        self._by_api.setdefault(trace.api, []).append(trace)

    def extend(self, traces: Iterable[Trace]) -> None:
        for trace in traces:
            self.add(trace)

    def __len__(self) -> int:
        return len(self._traces)

    @property
    def apis(self) -> List[str]:
        return sorted(self._by_api)

    def traces(
        self,
        api: Optional[str] = None,
        start_ms: Optional[float] = None,
        end_ms: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[Trace]:
        """Traces filtered by API and root start time, most-recent last."""
        pool = self._by_api.get(api, []) if api is not None else self._traces
        selected = [
            t
            for t in pool
            if (start_ms is None or t.start_ms >= start_ms)
            and (end_ms is None or t.start_ms < end_ms)
        ]
        selected.sort(key=lambda t: t.start_ms)
        if limit is not None and limit >= 0:
            selected = selected[-limit:]
        return selected

    def latencies(
        self,
        api: str,
        start_ms: Optional[float] = None,
        end_ms: Optional[float] = None,
    ) -> List[float]:
        """End-to-end latencies of an API's requests within a time range."""
        return [t.latency_ms for t in self.traces(api, start_ms, end_ms)]

    def request_counts(
        self, window_ms: float, start_ms: float = 0.0, end_ms: Optional[float] = None
    ) -> Dict[str, Dict[int, int]]:
        """Per-API request counts bucketed into windows of ``window_ms``."""
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        counts: Dict[str, Dict[int, int]] = {}
        for trace in self._traces:
            if trace.start_ms < start_ms:
                continue
            if end_ms is not None and trace.start_ms >= end_ms:
                continue
            bucket = int((trace.start_ms - start_ms) // window_ms)
            counts.setdefault(trace.api, {}).setdefault(bucket, 0)
            counts[trace.api][bucket] += 1
        return counts

    def invocation_counts(
        self,
        api: str,
        window_ms: float,
        start_ms: float = 0.0,
        end_ms: Optional[float] = None,
    ) -> Dict[Tuple[str, str], Dict[int, int]]:
        """Per-(caller, callee) invocation counts of one API, bucketed by window.

        This is the quantity ``I^A_{ci->cj}[t]`` used by footprint learning (Eq. 1).
        """
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        counts: Dict[Tuple[str, str], Dict[int, int]] = {}
        for trace in self.traces(api, start_ms, end_ms):
            bucket = int((trace.start_ms - start_ms) // window_ms)
            for edge in trace.invocation_edges():
                counts.setdefault(edge, {}).setdefault(bucket, 0)
                counts[edge][bucket] += 1
        return counts
