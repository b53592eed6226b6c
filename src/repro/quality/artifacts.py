"""Fingerprint-keyed LRU cache of compiled replay artifacts (the warm path).

Every :class:`~repro.recommend.advisor.Atlas` recommendation today compiles the
same artifacts from scratch: per-API :class:`~repro.quality.compiled.CompiledTraceSet`
programs and per-API Δ lookup tables.  The replay kernels made *evaluation*
fast, so for repeated / multi-tenant serving the compile step now dominates
recommend latency.  :class:`ArtifactCache` amortizes it: artifacts are keyed by
**content fingerprints** of exactly the inputs their construction consumes —
trace shapes and timings, edge orders, footprint bytes, baseline placements,
network links — so N tenants working off the same testbed share one physical
compile, and a changed input can never serve a stale artifact (the key changes
with the content).

Soundness: every cached artifact is a deterministic pure function of its key's
content (compilation is replay-order preserving, IEEE-754 op order fixed), so a
cache hit is bitwise-identical to a fresh build.  The cache is strictly opt-in —
models built without one compile exactly as before, keeping the default cold
path fingerprint-locked.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serving.store import ArtifactStore
    from ..telemetry.tracing import Trace

__all__ = [
    "ArtifactCache",
    "fingerprint_traces",
]


def fingerprint_traces(traces: Sequence["Trace"]) -> str:
    """Content fingerprint of an ordered trace set — the compiled-replay identity.

    Hashes exactly what :class:`~repro.quality.compiled.CompiledTraceSet` consumes:
    each trace's spans in canonical span order (component, operation, ``repr``-exact
    start/duration floats) and its :meth:`~repro.telemetry.tracing.Trace.shape`'s
    parent positions and root position.  Equal fingerprints therefore imply bitwise-equal
    compiled arrays; ids (trace/span ids) are excluded beyond their effect on the
    canonical order, so re-profiled-but-identical traces still hit.

    Only composes: every trace keeps its own bytes
    (:meth:`~repro.telemetry.tracing.Trace.content_stream`), while the sequence
    itself — a plain, mutable list on every caller's side — is walked on each call.
    """
    return hashlib.sha256(b"".join([trace.content_stream() for trace in traces])).hexdigest()


class _Flight:
    """One in-progress compile: racing threads park on ``done`` instead of rebuilding."""

    __slots__ = ("done", "value", "failed")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: object = None
        self.failed = False


class ArtifactCache:
    """Bounded LRU of compiled artifacts keyed by content fingerprints.

    One cache instance is meant to outlive individual :class:`Atlas` /
    :class:`~repro.quality.evaluator.QualityEvaluator` objects (the
    :class:`~repro.recommend.advisor.AdvisorService` holds one for its whole
    lifetime): ``get_or_build`` returns the cached artifact when the key was seen
    before — across evaluator instances and tenants — and builds + remembers it
    otherwise.  Keys must be content-complete (see the module docstring); values
    are treated as immutable by every consumer, so sharing one physical artifact
    between models is safe.

    The cache is thread-safe with **single-flight** builds: one short-critical-
    section mutex guards the LRU map and the counters, while compiles run with
    no lock held.  N threads racing on one fingerprint trigger
    exactly one ``build()``; the racers park on the flight and are served its
    result as hits.  A failed build releases the flight so a parked racer
    becomes the next builder (an exception is never cached).

    ``store`` (opt-in) is the durable second tier — an
    :class:`~repro.serving.store.ArtifactStore` consulted on every miss before
    compiling, and written through on every build, so a fresh process pointed at
    a populated store recovers its artifacts instead of recompiling.  A
    defective stored object degrades to a recompile.  ``store=None`` (the
    default) keeps the in-memory-only behaviour byte-identical.

    ``hits`` / ``misses`` / ``evictions`` counters make warm-path behaviour
    observable in benchmarks and tests (``store_hits`` counts misses answered
    from disk); ``max_entries`` bounds residency with least-recently-used
    eviction.
    """

    def __init__(
        self, max_entries: int = 256, store: Optional["ArtifactStore"] = None
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.store = store
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._flights: Dict[Tuple, _Flight] = {}
        self._mu = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store_hits = 0

    def __len__(self) -> int:
        with self._mu:
            return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        with self._mu:
            return key in self._entries

    def get_or_build(self, key: Tuple, build: Callable[[], object]) -> object:
        """The artifact for ``key`` — cached if seen before, else ``build()`` + remember."""
        while True:
            with self._mu:
                try:
                    value = self._entries[key]
                except KeyError:
                    flight = self._flights.get(key)
                    if flight is None:
                        flight = _Flight()
                        self._flights[key] = flight
                        self.misses += 1
                        building = True
                    else:
                        building = False
                else:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return value
            if building:
                return self._run_flight(key, flight, build)
            flight.done.wait()
            if not flight.failed:
                with self._mu:
                    self.hits += 1
                return flight.value
            # The builder raised: race again — one parked thread rebuilds.

    def _run_flight(self, key: Tuple, flight: _Flight, build: Callable[[], object]) -> object:
        """Build (or restore from the durable tier) with no lock held, then publish."""
        try:
            value = self._restore(key)
            if value is None:
                value = build()
                self._persist(key, value)
        except BaseException:
            flight.failed = True
            with self._mu:
                self._flights.pop(key, None)
            flight.done.set()
            raise
        with self._mu:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._flights.pop(key, None)
        flight.value = value
        flight.done.set()
        return value

    def _restore(self, key: Tuple) -> Optional[object]:
        if self.store is None:
            return None
        value = self.store.load(key)
        if value is not None:
            with self._mu:
                self.store_hits += 1
        return value

    def _persist(self, key: Tuple, value: object) -> None:
        if self.store is not None:
            self.store.save(key, value)

    def stats(self) -> Dict[str, int]:
        """Consistent counter snapshot (taken under the cache mutex)."""
        with self._mu:
            stats = {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
            if self.store is not None:
                stats["store_hits"] = self.store_hits
            return stats

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating — they describe the lifetime)."""
        with self._mu:
            self._entries.clear()
