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
import weakref
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..digest import Memoized, part_stream

__all__ = [
    "Span",
    "Trace",
    "TraceShape",
    "ShapeGroup",
    "TraceStore",
    "new_trace_id",
]

_trace_counter = itertools.count(1)


def new_trace_id() -> str:
    """Generate a process-unique trace id."""
    return f"trace-{next(_trace_counter):08d}"


_SPAN_FIELDS = (
    "trace_id", "span_id", "parent_id", "component", "operation", "start_ms", "duration_ms"
)


@dataclass(frozen=True)
class Span:
    """One operation executed while serving an API request."""

    # Spelled out rather than ``slots=True``: that option installs a pickle protocol
    # which walks ``fields()`` once per span (and, on Python 3.10, replaces this one).
    __slots__ = _SPAN_FIELDS

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

    def __getstate__(self) -> tuple:
        """The seven values in field order: a daemon sample pickles hundreds of spans."""
        return _SPAN_VALUES(self)

    def __setstate__(self, state: tuple) -> None:
        # What was pickled was a constructed span: nothing to validate again.
        for set_slot, value in zip(_SPAN_SETTERS, state):
            set_slot(self, value)

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


_SPAN_VALUES = attrgetter(*_SPAN_FIELDS)
#: The slots' own setters: ``frozen`` forbids ``setattr``, and unpickling is construction.
_SPAN_SETTERS = tuple(Span.__dict__[name].__set__ for name in _SPAN_FIELDS)


class TraceShape:
    """What every trace of one request shape has in common (interned, read-only).

    A shape is the part of a trace that does not carry time: each span's parent
    position and ``(component, operation)`` label, in the trace's canonical span order.
    The requests of an API fall into a handful of shapes, so everything derivable
    from the shape alone is derived here, once per *shape*, and shared by every trace
    that has it: the root, parent and child positions compiled replay reads, the
    component and invocation-edge lists, and the workflow keys in the order
    :class:`~repro.learning.api_profile.ApiProfiler` visits them.
    """

    __slots__ = (
        "parent_index",
        "labels",
        "root_index",
        "children_index",
        "components",
        "invocation_edges",
        "edge_counts",
        "workflow_keys",
        "__weakref__",
    )

    def __init__(
        self, parent_index: Tuple[int, ...], labels: Tuple[Tuple[str, str], ...]
    ) -> None:
        self.parent_index = parent_index
        self.labels = labels
        self.root_index = parent_index.index(-1)
        # Spans and child lists are both ordered by (start, span id), so a span's
        # children in child-list order are its child positions in ascending order.
        children: List[List[int]] = [[] for _ in parent_index]
        for position, parent in enumerate(parent_index):
            if parent >= 0:
                children[parent].append(position)
        self.children_index = tuple(tuple(c) for c in children)
        #: Distinct components, first-seen order (:meth:`Trace.components`).
        self.components = tuple(dict.fromkeys(component for component, _op in labels))
        #: ``(caller, callee)`` per non-root span (:meth:`Trace.invocation_edges`).
        self.invocation_edges = tuple(
            (labels[parent][0], labels[position][0])
            for position, parent in enumerate(parent_index)
            if parent >= 0
        )
        #: Distinct edges, first-seen order, with their multiplicity in one trace.
        self.edge_counts = tuple(Counter(self.invocation_edges).items())
        #: ``(parent component, component, operation)`` of every parent/child pair,
        #: parents in span order and children in child-list order; repeats kept.
        self.workflow_keys = tuple(
            (labels[parent][0],) + labels[child]
            for parent, child_positions in enumerate(self.children_index)
            for child in child_positions
        )


#: Intern table of :class:`TraceShape`: equal shapes are one object for as long as a
#: trace holds it.  Process-wide like any intern table, and safe to be: entries are
#: immutable and keyed by their whole content.  Grouping by shape identity stays exact
#: even if a race interned two equal shapes, since every consumer works group by group.
_SHAPES: "weakref.WeakValueDictionary[tuple, TraceShape]" = weakref.WeakValueDictionary()


class Trace(Memoized):
    """All spans created while serving one API request."""

    _MEMOS = {"_content_stream": None, "_shape": None}
    #: Memo of :meth:`content_stream`; set on first use.
    _content_stream: Optional[bytes] = None
    #: Memo of :meth:`shape`; set on first use.
    _shape: Optional[TraceShape] = None

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

    def shape(self) -> TraceShape:
        """The interned :class:`TraceShape` of this trace (looked up once, cached).

        Sound because spans are frozen and ``_spans`` never changes after
        construction.
        """
        shape = self._shape
        if shape is None:
            spans = self._spans
            position = dict(zip(self._by_id, range(len(spans))))  # _by_id is in span order
            key = (
                tuple([position.get(span.parent_id, -1) for span in spans]),
                tuple([(span.component, span.operation) for span in spans]),
            )
            shape = _SHAPES.get(key)
            if shape is None:
                shape = _SHAPES.setdefault(key, TraceShape(*key))
            self._shape = shape
        return shape

    def components(self) -> List[str]:
        """Distinct components touched by the request."""
        return list(self.shape().components)

    def invocation_edges(self) -> List[Tuple[str, str]]:
        """(caller component, callee component) for every parent/child span pair."""
        return list(self.shape().invocation_edges)

    def content_stream(self) -> bytes:
        """The bytes this trace contributes to a trace-set fingerprint (computed once).

        The fingerprint wire encoding (:mod:`repro.digest`) of the API name, the
        :meth:`shape`'s root and parent positions, then per span the component,
        operation and ``repr``-exact start/duration.  Memoised under the same soundness
        argument as the shape: ``Span`` is frozen, ``_spans`` never changes after
        construction and ``api`` is read-only.
        """
        if self._content_stream is None:
            shape = self.shape()
            parts = [
                self.api,
                str(shape.root_index),
                ",".join(str(i) for i in shape.parent_index),
            ]
            for span in self._spans:
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


class ShapeGroup(NamedTuple):
    """The traces of one API that share one :class:`TraceShape`."""

    shape: TraceShape
    count: int
    #: The group's last trace in time order, and its position among the API's traces.
    last: Trace
    last_position: int


class _TimeView:
    """One API's traces (or every trace) in time order, with what is counted per shape."""

    __slots__ = ("traces", "starts", "latencies", "_groups", "_windowed")

    def __init__(self, pool: Sequence[Trace]) -> None:
        # Stable, like the per-query sort it replaces: ties keep ingestion order.
        self.traces: List[Trace] = sorted(pool, key=attrgetter("start_ms"))
        self.starts: List[float] = [trace.start_ms for trace in self.traces]
        self.latencies: List[float] = [trace.latency_ms for trace in self.traces]
        self._groups: Optional[List[ShapeGroup]] = None
        self._windowed: Tuple[Optional[tuple], Dict[TraceShape, Dict[int, int]]] = (None, {})

    def bounds(self, start_ms: Optional[float], end_ms: Optional[float]) -> Tuple[int, int]:
        """``[lo, hi)`` of the traces with ``start_ms <= start < end_ms``."""
        lo = 0 if start_ms is None else bisect_left(self.starts, start_ms)
        hi = len(self.starts) if end_ms is None else bisect_left(self.starts, end_ms)
        return lo, hi

    def groups(self) -> List[ShapeGroup]:
        """The distinct shapes, ordered by their first trace."""
        if self._groups is None:
            tally: Dict[TraceShape, List[int]] = {}  # shape -> [count, last position]
            for position, trace in enumerate(self.traces):
                shape = trace.shape()
                entry = tally.get(shape)
                if entry is None:
                    tally[shape] = [1, position]
                else:
                    entry[0] += 1
                    entry[1] = position
            self._groups = [
                ShapeGroup(shape, count, self.traces[last], last)
                for shape, (count, last) in tally.items()
            ]
        return self._groups

    def shape_windows(
        self, window_ms: float, start_ms: float, end_ms: Optional[float]
    ) -> Dict[TraceShape, Dict[int, int]]:
        """Traces per shape and window; shapes by first trace in range, windows rising.

        Only the latest ``(window_ms, start_ms, end_ms)`` is kept: learning asks for
        one windowing, and a second slot would be a cache to bound.
        """
        key = (window_ms, start_ms, end_ms)
        if self._windowed[0] != key:
            lo, hi = self.bounds(start_ms, end_ms)
            counts: Dict[TraceShape, Dict[int, int]] = {}
            for start, trace in zip(self.starts[lo:hi], self.traces[lo:hi]):
                bucket = int((start - start_ms) // window_ms)
                shape = trace.shape()
                buckets = counts.get(shape)
                if buckets is None:
                    buckets = counts[shape] = {}
                buckets[bucket] = buckets.get(bucket, 0) + 1
            self._windowed = (key, counts)
        return self._windowed[1]


class _Census:
    """What a :class:`TraceStore` has counted since its last ``add``."""

    __slots__ = ("views", "requests")

    def __init__(self) -> None:
        #: Time views by API (``None``: every trace), each built on first use.
        self.views: Dict[Optional[str], _TimeView] = {}
        #: The latest ``request_counts`` bucketing and its key (one slot, like a
        #: view's windowing).
        self.requests: Tuple[Optional[tuple], Dict[str, Dict[int, int]]] = (None, {})


class TraceStore(Memoized):
    """Queryable archive of traces, indexed by API and time.

    Queries are answered from a lazily built *census* — per API the time-sorted
    traces, their shape groups and per-shape window counts — which :meth:`add` drops,
    so an answer is always what walking the traces one by one would give.
    """

    _MEMOS = {"_census": None}

    def __init__(self) -> None:
        self._traces: List[Trace] = []
        self._by_api: Dict[str, List[Trace]] = {}
        self._census: Optional[_Census] = None

    def add(self, trace: Trace) -> None:
        self._traces.append(trace)
        self._by_api.setdefault(trace.api, []).append(trace)
        self._census = None

    def extend(self, traces: Iterable[Trace]) -> None:
        for trace in traces:
            self.add(trace)

    def __len__(self) -> int:
        return len(self._traces)

    @property
    def apis(self) -> List[str]:
        return sorted(self._by_api)

    def _ensure_census(self) -> "_Census":
        if self._census is None:
            self._census = _Census()
        return self._census

    def _view(self, api: Optional[str]) -> _TimeView:
        views = self._ensure_census().views
        view = views.get(api)
        if view is None:
            if api is None:
                view = _TimeView(self._traces)
            elif api in self._by_api:
                view = _TimeView(self._by_api[api])
            else:
                return _TimeView(())  # unknown API: nothing worth keeping
            views[api] = view
        return view

    def traces(
        self,
        api: Optional[str] = None,
        start_ms: Optional[float] = None,
        end_ms: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[Trace]:
        """Traces filtered by API and root start time, most-recent last."""
        view = self._view(api)
        lo, hi = view.bounds(start_ms, end_ms)
        if limit is not None and limit >= 0:
            lo = max(lo, hi - limit)
        return view.traces[lo:hi]

    def latencies(
        self,
        api: str,
        start_ms: Optional[float] = None,
        end_ms: Optional[float] = None,
    ) -> List[float]:
        """End-to-end latencies of an API's requests within a time range."""
        view = self._view(api)
        lo, hi = view.bounds(start_ms, end_ms)
        return view.latencies[lo:hi]

    def shape_groups(self, api: str) -> List[ShapeGroup]:
        """One :class:`ShapeGroup` per distinct shape of an API's traces.

        Ordered by each shape's first trace in time order.  Anything that is a
        function of the shape alone can be computed once per group and weighted by
        ``count``; anything where the last observation wins needs ``last`` only.
        """
        return list(self._view(api).groups())

    def request_counts(
        self, window_ms: float, start_ms: float = 0.0, end_ms: Optional[float] = None
    ) -> Dict[str, Dict[int, int]]:
        """Per-API request counts bucketed into windows of ``window_ms``."""
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        census = self._ensure_census()
        key = (window_ms, start_ms, end_ms)
        if census.requests[0] != key:
            # Ingestion order, not time order: it fixes the key order of both levels.
            counts: Dict[str, Dict[int, int]] = {}
            for trace in self._traces:
                if trace.start_ms < start_ms:
                    continue
                if end_ms is not None and trace.start_ms >= end_ms:
                    continue
                bucket = int((trace.start_ms - start_ms) // window_ms)
                counts.setdefault(trace.api, {}).setdefault(bucket, 0)
                counts[trace.api][bucket] += 1
            census.requests = (key, counts)
        return {api: dict(buckets) for api, buckets in census.requests[1].items()}

    def invocation_counts(
        self,
        api: str,
        window_ms: float,
        start_ms: float = 0.0,
        end_ms: Optional[float] = None,
    ) -> Dict[Tuple[str, str], Dict[int, int]]:
        """Per-(caller, callee) invocation counts of one API, bucketed by window.

        This is the quantity ``I^A_{ci->cj}[t]`` used by footprint learning (Eq. 1):
        per shape, the traces per window times the edge's multiplicity in the shape.
        """
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        counts: Dict[Tuple[str, str], Dict[int, int]] = {}
        windowed = self._view(api).shape_windows(window_ms, start_ms, end_ms)
        for shape, buckets in windowed.items():
            for edge, per_trace in shape.edge_counts:
                per_edge = counts.setdefault(edge, {})
                for bucket, traces in buckets.items():
                    per_edge[bucket] = per_edge.get(bucket, 0) + per_trace * traces
        # A trace-by-trace walk meets windows in rising order; merging shapes does not.
        return {edge: dict(sorted(per_edge.items())) for edge, per_edge in counts.items()}
