"""Spans recorded by the harness around calls into each layer of ``repro``.

The program under test has no tracing of its own yet, so the traced run installs
wrappers on a fixed table of public callables (see ``layers.SPAN_TARGETS``),
records one span per call in memory, and restores every attribute afterwards.
A span carries its name, start, end, the span that caused it and the identifier
of the benchmark operation it belongs to; a layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    operation: int
    end: float = 0.0
    #: Counts recorded at the same boundary (rows requested, rows scored, ...).
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_record(self) -> Dict[str, object]:
        record = {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "operation": self.operation,
        }
        if self.counts:
            record["counts"] = self.counts
        return record


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.operation = 0

    @property
    def in_operation(self) -> bool:
        return bool(self._stack)

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent, self.operation)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()
        span.end = self.clock()

    def begin_operation(self, name: str = "op") -> Span:
        """Open the root span of the next benchmark operation."""
        if self._stack:
            raise RuntimeError("an operation is already open")
        self.operation += 1
        return self.begin(name)


# -- wrappers ----------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One public callable to record spans around.

    ``path`` is ``"package.module:Class.method"``.  ``before(span, instance,
    args, kwargs)`` and ``after(span, instance, result)`` record counts on the
    span at the boundary where the work happens.
    """

    name: str
    path: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def resolve(path: str) -> Tuple[type, str, Callable]:
    """``(owner class, attribute, function)`` a target path names; loud when missing."""
    module_name, _, qualified = path.partition(":")
    owner_name, _, attribute = qualified.partition(".")
    if not (module_name and owner_name and attribute):
        raise LookupError(f"malformed span target {path!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise LookupError(f"span target {path!r}: {error}") from error
    owner = getattr(module, owner_name, None)
    if not inspect.isclass(owner) or attribute not in vars(owner):
        raise LookupError(f"span target {path!r} does not exist")
    function = vars(owner)[attribute]
    if not inspect.isfunction(function):
        raise LookupError(f"span target {path!r} is not a plain method")
    return owner, attribute, function


def _traced(tracer: Tracer, target: Target, original: Callable) -> Callable:
    before, after, name = target.before, target.after, target.name

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        if not tracer.in_operation:
            # Set-up between operations (a fresh advisor, a bootstrap cycle) is not traced.
            return original(self, *args, **kwargs)
        span = tracer.begin(name)
        try:
            if before is not None:
                before(span, self, args, kwargs)
            result = original(self, *args, **kwargs)
            if after is not None:
                after(span, self, result)
            return result
        finally:
            tracer.end(span)

    return wrapper


class Instrumentation:
    """Installs span wrappers on a table of targets and restores them exactly."""

    def __init__(self, tracer: Tracer, targets: Sequence[Target]) -> None:
        self.tracer = tracer
        # Resolved up front: an unknown name fails before anything is patched.
        self._resolved = [(target, *resolve(target.path)) for target in targets]
        self._installed = False

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("instrumentation is already installed")
        for target, owner, attribute, original in self._resolved:
            setattr(owner, attribute, _traced(self.tracer, target, original))
        self._installed = True

    def restore(self) -> None:
        if not self._installed:
            return
        for _, owner, attribute, original in self._resolved:
            setattr(owner, attribute, original)
        self._installed = False

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# -- analysis ----------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the interval its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


@dataclass
class OperationProfile:
    """Where one benchmark operation spent its wall clock."""

    operation: int
    #: Name of the root span: which of the workload's operations this was.
    name: str
    wall: float
    #: Seconds inside spans of each name, nested spans of the same name counted once.
    busy: Dict[str, float]
    #: Seconds inside spans of each name and in none of their children.
    self_time: Dict[str, float]
    calls: Dict[str, int]
    counts: Dict[str, float]
    #: Seconds of the operation no top-level stage span covers.
    uncovered: float

    @property
    def coverage(self) -> float:
        return 1.0 - self.uncovered / self.wall if self.wall > 0 else 0.0


def profile_operations(spans: Sequence[Span]) -> List[OperationProfile]:
    """One profile per root span (a span with no parent), in recording order."""
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    profiles: Dict[int, OperationProfile] = {}
    for span in spans:
        if span.parent is None:
            profiles[span.operation] = OperationProfile(
                operation=span.operation,
                name=span.name,
                wall=span.duration,
                busy={},
                self_time={},
                calls={},
                counts={},
                uncovered=own[span.id],
            )
    for span in spans:
        if span.parent is None:
            continue
        profile = profiles[span.operation]
        name = span.name
        profile.calls[name] = profile.calls.get(name, 0) + 1
        profile.self_time[name] = profile.self_time.get(name, 0.0) + own[span.id]
        for key, value in span.counts.items():
            full = f"{name}.{key}"
            profile.counts[full] = profile.counts.get(full, 0.0) + value
        ancestor = by_id[span.parent]
        nested = False
        while ancestor.parent is not None:
            if ancestor.name == name:
                nested = True
                break
            ancestor = by_id[ancestor.parent]
        if not nested:
            profile.busy[name] = profile.busy.get(name, 0.0) + span.duration
    return list(profiles.values())
