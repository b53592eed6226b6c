"""API performance modeling via delay injection (Section 4.1.1, Figure 6).

Given a migration plan, Atlas previews each API's end-to-end latency without executing
the plan: it takes traces recorded under the current placement and *injects* the extra
network delay every invocation edge would experience if its caller and callee ended up
in different datacenters.  The injected delay Δ (Eq. 2) combines the change in link
latency and the change in serialization time of the edge's learned network footprint.

The cascade rules follow the paper:

* a delayed child shifts its own start; its execution duration is preserved;
* siblings running in parallel with it are unaffected; the next sequential operation
  starts after the (possibly delayed) completion of all foreground predecessors, keeping
  its original trigger gap;
* background operations inherit the shift of their trigger point but never extend the
  root span, so delaying them does not change the API latency.

**Compiled-replay architecture.**  Plan evaluation is the system's wall-clock cost (the
GA previews up to 10,000 plans per recommendation), so this module is organized around
three invariants:

* **Compile once, replay many** — each API's sample traces are compiled once into flat
  numpy arrays (:mod:`repro.quality.compiled`); injecting one plan's delays becomes a
  few vectorized array passes over all of the API's traces simultaneously, and a batch
  of plans replays as one ``(plans, edges)`` matrix.  The recursive
  :class:`DelayInjector` is kept as the reference oracle (``engine="reference"``) and
  the compiled engine is bitwise-identical to it, so either engine yields the same
  fixed-seed search trajectory.
* **Batched evaluation** — :meth:`ApiPerformanceModel.impact_matrix` +
  :meth:`~ApiPerformanceModel.qperf_stack` score a whole generation as one plan
  matrix.  Every API reads one memo: its mean latency per *projection code*, the
  sites of the components its live edges touch read as one mixed-radix number over
  the network's sites.  One matrix product codes every API's plans, and each API's
  codes are read with one sorted search.  The codes a memo misses replay in one
  vectorized batch per API per call, however many scenario views the call scores
  (:meth:`ApiPerformanceModel.impact_matrices`).  On its first miss, an API whose
  touched components admit at most ``_TABLE_LIMIT`` projections under the problem's
  pins and whitelists (the *admissible box*) pre-fills its memo with all of them
  (by content, through the artifact cache when there is one).  Each scenario view
  reads memos of its own footprint and network, and a splice restarts only the
  spliced APIs' memos.
  :class:`~repro.quality.evaluator.QualityEvaluator` drives it from
  ``evaluate_vectors`` / ``evaluate_batch``.
* **Live reach** — a background call never delays the response, so an edge under
  one moves no latency: QPerf's Δ tables, Δ rows and projection codes cover only the
  *live* edges (those of spans the root's end depends on, as the compiled set
  classifies them) and the components they touch.  The per-plan Δ map
  (:meth:`ApiPerformanceModel.edge_delays`) still prices every edge, so a site pair
  with no link refuses a plan whichever edge crosses it.
* **A stateless per-plan path** — :meth:`~ApiPerformanceModel.estimate`,
  :meth:`~ApiPerformanceModel.qperf` and the other per-plan methods compute the plan's
  Δ map and replay it every call; they keep nothing on the model, so the scalar oracle
  (``QualityEvaluator.evaluate_reference``) shares no cache with the batched engine it
  checks.
"""

from __future__ import annotations

import copy
import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.network import NetworkModel
from ..cluster.placement import MigrationPlan
from ..learning.api_profile import classify_background, classify_sibling
from ..learning.estimator import ordered_masked_sum
from ..learning.footprint import NetworkFootprint
from ..apps.model import ExecutionMode
from ..telemetry.tracing import Span, Trace
from .artifacts import ArtifactCache, fingerprint_traces
from .compiled import CompiledTraceSet

__all__ = ["DelayInjector", "ApiPerformanceModel", "PerformanceEstimate"]

_ENGINES = ("compiled", "reference")

Edge = Tuple[str, str]
DeltaTable = Tuple[int, np.ndarray, np.ndarray, np.ndarray]
#: Per matrix column, the location ids the problem admits for that component.
Box = Tuple[Tuple[int, ...], ...]

#: On its first miss, an API whose admissible projections number at most this many
#: pre-fills its memo with all of them (4 096 float64 means are 32 KB).  The unpinned
#: social network's ``/register`` (3^8 = 6 561 projections) costs more to pre-fill
#: than a cold search spends replaying its misses, so it fills lazily until pins
#: shrink its box (docs/architecture.md, decision record №11).
_TABLE_LIMIT = 4096


class DelayInjector:
    """Applies per-edge delays to one trace and recomputes all span timings.

    This is the recursive reference implementation of the cascade rules; the compiled
    engine (:mod:`repro.quality.compiled`) must match it bitwise and is validated
    against it by the property-based equivalence tests.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace

    def inject(self, edge_delays: Mapping[Tuple[str, str], float]) -> Trace:
        """Return a new trace with ``edge_delays`` (caller, callee) -> Δ ms applied."""
        root = self.trace.root
        new_spans: List[Span] = []
        self._adjust(root, root.start_ms, edge_delays, new_spans)
        return self.trace.with_spans(new_spans)

    def injected_latency_ms(self, edge_delays: Mapping[Tuple[str, str], float]) -> float:
        """End-to-end latency after injection (root span duration of the new trace)."""
        return self.inject(edge_delays).latency_ms

    # -- internals -----------------------------------------------------------------------
    def _adjust(
        self,
        span: Span,
        new_start: float,
        edge_delays: Mapping[Tuple[str, str], float],
        out: List[Span],
    ) -> float:
        """Recompute ``span`` starting at ``new_start``; returns its new end time."""
        children = self.trace.children(span.span_id)
        if not children:
            out.append(span.shifted(new_start))
            return new_start + span.duration_ms

        # Foreground children processed so far: (orig_end, new_end, span).
        foreground: List[Tuple[float, float, Span]] = []
        last_fg_orig_end = span.start_ms
        last_fg_new_end = new_start

        for child in children:
            background = classify_background(child, span)
            # Reference point: the latest original end among previously processed
            # foreground children that do NOT run in parallel with this child, or the
            # parent start when there is none.
            ref_orig = span.start_ms
            ref_new = new_start
            for orig_end, new_end, prev in foreground:
                if classify_sibling(prev, child) is ExecutionMode.PARALLEL:
                    continue
                if orig_end > ref_orig:
                    ref_orig, ref_new = orig_end, new_end
            gap = child.start_ms - ref_orig
            delta = edge_delays.get((span.component, child.component), 0.0)
            child_new_start = ref_new + gap + max(delta, 0.0)
            child_new_end = self._adjust(child, child_new_start, edge_delays, out)
            if not background:
                foreground.append((child.end_ms, child_new_end, child))
                if child.end_ms > last_fg_orig_end:
                    last_fg_orig_end = child.end_ms
                    last_fg_new_end = child_new_end

        if foreground:
            # Latest foreground completion, original and new, defines the tail reference.
            tail_ref_orig = max(orig_end for orig_end, _new, _s in foreground)
            tail_ref_new = max(new_end for _orig, new_end, _s in foreground)
        else:
            tail_ref_orig, tail_ref_new = span.start_ms, new_start
        tail_gap = span.end_ms - tail_ref_orig
        new_end = tail_ref_new + max(tail_gap, 0.0)
        out.append(span.shifted(new_start, duration_ms=new_end - new_start))
        return new_end


@dataclass
class PerformanceEstimate:
    """Latency preview of one API under one plan."""

    api: str
    baseline_mean_ms: float
    estimated_mean_ms: float
    estimated_latencies_ms: List[float]

    @property
    def impact_factor(self) -> float:
        """``Lat(A; p) / Lat(A)`` — how many times slower the API becomes."""
        if self.baseline_mean_ms <= 0:
            return 1.0
        return self.estimated_mean_ms / self.baseline_mean_ms


class _Memo:
    """One API's mean injected latency per projection code, under one footprint and
    network.

    ``entries`` is ``(codes, means)``, the codes sorted and closed by a sentinel above
    every code, so a search always lands on an entry.  A fill replaces the pair whole
    from one snapshot: a reader never sees one array without the other, and a fill
    racing another thread's loses that fill's entries or holds a code twice (equal
    means), never a wrong mean.  ``boxes`` maps each box it was offered to whether it
    pre-filled it.
    """

    __slots__ = ("entries", "boxes")

    def __init__(self, dtype: np.dtype) -> None:
        # The largest int64 is above every one-word code; all-ones bytes are above
        # every byte string of non-negative little-endian words (bytes compare
        # unsigned, and each word ends in a byte below 0x80).
        if dtype.kind == "V":
            self.entries = (np.full(dtype.itemsize // 8, -1, dtype=np.int64).view(dtype), _NO_MEAN)
        else:
            self.entries = (_TOP, _NO_MEAN)
        self.boxes: Dict[Box, bool] = {}

    def read(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(means, missed)`` of ``codes``; a missed code's mean is meaningless."""
        known, means = self.entries
        at = known.searchsorted(codes)
        return means[at], known[at] != codes

    def fill(self, codes: np.ndarray, means: np.ndarray) -> None:
        """Hold ``means`` under ``codes`` (sorted)."""
        entries = self.entries
        at = entries[0].searchsorted(codes) + np.arange(len(codes))
        kept = np.ones(len(entries[0]) + len(codes), dtype=bool)
        kept[at] = False
        merged = (np.empty(len(kept), dtype=entries[0].dtype), np.empty(len(kept)))
        for target, old, new in zip(merged, entries, (codes, means)):
            target[at] = new
            target[kept] = old
        self.entries = merged


_TOP = np.full(1, np.iinfo(np.int64).max)
_NO_MEAN = np.full(1, np.nan)


class _Coder:
    """Every API's projection codes over one (component order, radix).

    An API's code reads its projection — the sites of its reach components, matrix
    columns ``reach[i]`` in reach order — as a mixed-radix number of base ``radix``,
    last component fastest: one int64 word while ``radix ** len(reach)`` stays below
    2^63, past that several words compared as one byte string.  ``places[w, c]`` is
    column ``c``'s place value in word ``w``, so one integer product computes every
    word of every API; API ``i`` owns the words ``words[i][0]:words[i][1]`` (one empty
    word, code 0, when it reaches nothing).
    """

    def __init__(self, key: Tuple, reaches: Sequence[Sequence[int]]) -> None:
        self.key = key
        components, self.radix = key
        per_word = 1
        while per_word < 62 and self.radix ** (per_word + 1) < 1 << 63:
            per_word += 1
        self.reach = [np.asarray(reach, dtype=np.intp) for reach in reaches]
        places: List[np.ndarray] = []
        self.words: List[Tuple[int, int]] = []
        for reach in reaches:
            first = len(places)
            for start in range(0, max(len(reach), 1), per_word):
                chunk = reach[start : start + per_word]
                places.append(np.zeros(len(components), dtype=np.int64))
                places[-1][chunk] = self.radix ** np.arange(len(chunk) - 1, -1, -1)
            self.words.append((first, len(places)))
        self.places = np.stack(places)

    def codes(self, matrix: np.ndarray) -> List[np.ndarray]:
        """Every API's codes of the plans of a matrix, from one product."""
        words = self.places @ matrix.T
        return [
            words[first] if last - first == 1 else _as_codes(words[first:last].T)
            for first, last in self.words
        ]

    def encode(self, index: int, projections: np.ndarray) -> np.ndarray:
        """Codes of API ``index``'s projections, one per row in reach order."""
        first, last = self.words[index]
        return _as_codes(projections @ self.places[first:last, self.reach[index]].T)


def _as_codes(words: np.ndarray) -> np.ndarray:
    """One code per row of ``(rows, words)``: the word itself, or the row's bytes."""
    if words.shape[1] == 1:
        return words[:, 0]
    return np.ascontiguousarray(words).view(np.dtype((np.void, 8 * words.shape[1])))[:, 0]


class ApiPerformanceModel:
    """Estimates per-API latency and the QPerf objective for any migration plan.

    ``engine`` selects how Δ maps are replayed:

    * ``"compiled"`` (default) — vectorized per-API compiled trace sets, the one
      production engine;
    * ``"reference"`` — the recursive :class:`DelayInjector` oracle, trace by trace,
      which the tests and the end-to-end benchmark re-score against.

    Both engines are bitwise identical.
    """

    def __init__(
        self,
        traces_by_api: Mapping[str, Sequence[Trace]],
        footprint: NetworkFootprint,
        network: NetworkModel,
        baseline_plan: MigrationPlan,
        traces_per_api: int = 50,
        engine: str = "compiled",
        artifact_cache: Optional["ArtifactCache"] = None,
    ) -> None:
        if traces_per_api <= 0:
            raise ValueError("traces_per_api must be positive")
        if engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}")
        self.footprint = footprint
        self.network = network
        self.baseline_plan = baseline_plan
        self.engine = engine
        # Warm-path artifact cache (opt-in): compiled sets and Δ tables are
        # fetched/stored by content fingerprint so repeated builds over
        # the same testbed share one physical compile.  ``None`` keeps the default
        # cold path byte-identical to a cache-free build.
        self._artifact_cache = artifact_cache
        # Per-API trace-content fingerprints (lazy; shared by reference with views).
        self._trace_fps: Dict[str, str] = {}
        self._traces_per_api = int(traces_per_api)
        self._traces: Dict[str, List[Trace]] = {
            api: list(traces)[-traces_per_api:]
            for api, traces in traces_by_api.items()
            if traces
        }
        if not self._traces:
            raise ValueError("performance model needs at least one trace")
        self._baseline_mean: Dict[str, float] = {}
        # Invocation edges per API (unioned over sample traces).
        self._edges: Dict[str, List[Edge]] = {}
        # Components each API's edges touch.
        self._touched: Dict[str, List[str]] = {}
        for api in self._traces:
            self._derive(api)
        self._apis = sorted(self._traces)
        placed = [int(site) for site in baseline_plan.to_vector()] or [0]
        #: The lowest and highest site id of the baseline placement.
        self._baseline_span = (min(placed), max(placed))
        # Compiled trace sets, built lazily on first replay of each API.
        self._compiled: Dict[str, CompiledTraceSet] = {}
        # Per API, the edges that can move its latency and the components they touch
        # (lazy, see _reach): the projection axis of the plan matrix.
        self._reaches: Dict[str, Tuple[List[Edge], List[str]]] = {}
        # Projection coders, per (component order, radix).
        self._coders: Dict[Tuple[Tuple[str, ...], int], _Coder] = {}
        # Per-API Δ lookup tables over (edge, caller location, callee location), each
        # with the edge list it was built for: built lazily, regrown when a matrix
        # mentions a higher location id, rebuilt when a splice gave the API a new list.
        self._delta_tables: Dict[str, Tuple[List[Edge], DeltaTable]] = {}
        # Per API, its memos by (footprint, network) (see _memos_for): shared by
        # every view.
        self._memo_store: Dict[str, Dict[Tuple, _Memo]] = {}
        # Per coder key, this model's memo of every API, with the coder it was
        # found for.
        self._memos: Dict[Tuple, Tuple[_Coder, List[_Memo]]] = {}
        # Whether a first miss pre-fills the admissible box: on the compiled base
        # model only (the oracle replays trace by trace, and a view's one-plan probe
        # over a degraded network should not pay for a box).
        self._prefills = engine == "compiled"
        # Set on scenario views: APIs whose footprint bytes differ from the base
        # model's (None = unknown/all).  The base model changes nothing.
        self._changed_apis: Optional[frozenset] = frozenset()

    def _derive(self, api: str) -> None:
        """Baseline mean, edge vocabulary and touched set of ``self._traces[api]``."""
        traces = self._traces[api]
        self._baseline_mean[api] = float(statistics.fmean(t.latency_ms for t in traces))
        edges = set()
        for trace in traces:
            edges.update(trace.invocation_edges())
        self._edges[api] = sorted(edges)
        members = set()
        for caller, callee in self._edges[api]:
            members.add(caller)
            members.add(callee)
        self._touched[api] = sorted(members)

    # -- scenario views --------------------------------------------------------------------
    def scenario_view(
        self,
        footprint: NetworkFootprint,
        changed_apis: Optional[Sequence[str]] = None,
        network: Optional[NetworkModel] = None,
    ) -> "ApiPerformanceModel":
        """A lightweight view of this model under a different footprint and/or network.

        The view shares everything that does not depend on footprint bytes or link
        characteristics: the sample traces, baseline means, per-API edge/touched
        sets and reaches, the compiled trace sets, the projection coders and the
        store of memos.  It owns its Δ lookup tables, each checked at read time
        against the API's current edge list, and its memos (under its footprint and
        network in the shared store), found for one coder (a splice replaces every
        coder), so a splice on any member of the family reaches it without the
        splice knowing the view.  A view pre-fills nothing: it fills on misses only,
        so a one-plan probe over a degraded network never pays for a whole box.
        Scenarios that scale no payloads and keep the base network get back
        ``self``, sharing everything.

        ``changed_apis`` names the APIs whose footprint bytes actually differ from
        this model's (``None`` means "assume all changed"): robust evaluation then
        copies the *unchanged* APIs' impact rows straight from the base impact
        matrix instead of re-gathering their Δ rows per scenario.  ``network``
        overrides the link model (the :class:`~repro.quality.faults.LinkDegradation`
        / :class:`~repro.quality.faults.LocationOutage` hook); a network change
        potentially shifts every API's Δ tables, so callers must leave
        ``changed_apis`` at ``None`` when they pass one.
        """
        if footprint is self.footprint and network is None:
            return self
        # Shallow-copy so every attribute (current and future) is shared by
        # reference, then give the view its own copies of exactly the
        # footprint/network-dependent state.
        view = copy.copy(self)
        view.footprint = footprint
        if network is not None:
            view.network = network
        view._delta_tables = {}
        view._memos = {}
        view._prefills = False
        view._changed_apis = (
            frozenset(changed_apis) if changed_apis is not None else None
        )
        return view

    def splice(self, new_traces_by_api: Mapping[str, Sequence[Trace]]) -> None:
        """Install refreshed sample traces for the named APIs — the O(K) drift path.

        K APIs recompile, the rest keep everything: the named APIs' traces, baseline
        means, edge vocabularies and touched sets are recomputed by the
        constructor's own :meth:`_derive` and their compiled sets and memos are
        dropped from the dicts every scenario view shares, so :meth:`_compiled_set`
        compiles them again (through the artifact cache, keyed by the new traces'
        fingerprint) on their next replay, :meth:`_reach` reads their live edges
        again and their memos restart.  A view's own Δ table of a named API was
        built for the old reach and is rebuilt on its next read, and every memo slot
        is found again, since the splice drops every coder.
        Every other API's compiled arrays and memos survive untouched, and
        the model scores bitwise like a fresh one over the updated traces.  Every
        target is validated before anything changes: an unknown API raises
        ``KeyError``, an empty window ``ValueError``, and either leaves the model as
        it was.
        """
        targets = sorted(new_traces_by_api)
        unknown = [api for api in targets if api not in self._traces]
        if unknown:
            raise KeyError(f"cannot splice unknown APIs: {unknown}")
        windows = {
            api: list(new_traces_by_api[api])[-self._traces_per_api :] for api in targets
        }
        empty = [api for api in targets if not windows[api]]
        if empty:
            raise ValueError(f"cannot splice APIs {empty} to an empty trace set")
        for api in targets:
            self._traces[api] = windows[api]
            self._derive(api)
            self._trace_fps.pop(api, None)
            # Shared by reference with every view, so one pop reaches the family.
            self._compiled.pop(api, None)
            self._reaches.pop(api, None)
            self._memo_store.pop(api, None)
        # Reaches may have changed, so the coders (shared by reference with every
        # view) are stale.
        self._coders.clear()

    # -- public API ------------------------------------------------------------------------
    @property
    def apis(self) -> List[str]:
        return list(self._apis)

    def invocation_edges(self) -> List[Edge]:
        """Union of (caller, callee) invocation edges over all profiled APIs (live or
        not: the search's affinity seeding reads the whole call graph)."""
        edges = set()
        for api_edges in self._edges.values():
            edges.update(api_edges)
        return sorted(edges)

    def api_components(self) -> Dict[str, List[str]]:
        """Components appearing in each API's traces (callers and callees)."""
        return {api: list(members) for api, members in self._touched.items()}

    # -- per-plan path -----------------------------------------------------------------------
    def edge_delays(self, api: str, plan: MigrationPlan) -> Dict[Edge, float]:
        """Δ per invocation edge of one API under ``plan`` (Eq. 2)."""
        if api not in self._traces:
            raise KeyError(f"no traces available for API {api!r}")
        return self._compute_edge_delays(api, plan)

    def _compute_edge_delays(self, api: str, plan: Mapping[str, int]) -> Dict[Edge, float]:
        """Δ per edge given any component -> location mapping covering the API."""
        delays: Dict[Edge, float] = {}
        for caller, callee in self._edges.get(api, []):
            before = (self.baseline_plan[caller], self.baseline_plan[callee])
            after = (plan[caller], plan[callee])
            if before == after:
                continue
            req = self.footprint.request_bytes(api, caller, callee)
            resp = self.footprint.response_bytes(api, caller, callee)
            delta = self.network.extra_delay_ms(before, after, req, resp)
            if delta > 0.0:
                delays[(caller, callee)] = delta
        return delays

    def _trace_fingerprint(self, api: str) -> str:
        """Content fingerprint of one API's sample trace set (lazy, family-shared)."""
        fingerprint = self._trace_fps.get(api)
        if fingerprint is None:
            fingerprint = fingerprint_traces(self._traces[api])
            self._trace_fps[api] = fingerprint
        return fingerprint

    def _compiled_set(self, api: str) -> CompiledTraceSet:
        compiled = self._compiled.get(api)
        if compiled is None:
            if self._artifact_cache is not None:
                # A compiled set is a pure function of (trace contents, edge order):
                # equal key ⇒ bitwise-equal arrays, so sharing the physical object
                # across models/tenants is sound.
                key = ("compiled", self._trace_fingerprint(api), tuple(self._edges[api]))
                compiled = self._artifact_cache.get_or_build(
                    key, lambda: CompiledTraceSet(self._traces[api], self._edges[api])
                )
            else:
                compiled = CompiledTraceSet(self._traces[api], self._edges[api])
            self._compiled[api] = compiled
        return compiled

    def _reach(self, api: str) -> Tuple[List[Edge], List[str]]:
        """The edges QPerf reads of one API and the components they touch (sorted).

        On the compiled engine these are the live edges, the compiled set's
        ``edge_index``: the ones that can move the API's latency.  The reference
        engine keeps every edge — the oracle replays whatever Δ map it is given, so
        the batched path checks against it that the edges left out move nothing.
        Lazy and shared by every view; a splice drops the named APIs' entries.
        """
        reach = self._reaches.get(api)
        if reach is None:
            if self.engine == "reference":
                reach = (self._edges[api], self._touched[api])
            else:
                edges = list(self._compiled_set(api).edge_index)
                reach = (edges, sorted({c for edge in edges for c in edge}))
            self._reaches[api] = reach
        return reach

    def _replay_reference(self, api: str, delays: Mapping[Edge, float]) -> List[float]:
        return [
            DelayInjector(trace).injected_latency_ms(delays) for trace in self._traces[api]
        ]

    def _resolve(self, api: str, plan: MigrationPlan) -> Tuple[List[float], float]:
        """(latencies, mean) of one API under one plan: its Δ map, replayed."""
        delays = self._compute_edge_delays(api, plan)
        if self.engine != "reference":
            latencies = self._compiled_set(api).latencies(delays)
        else:
            latencies = self._replay_reference(api, delays)
        return latencies, float(statistics.fmean(latencies))

    # -- plan-matrix pipeline ---------------------------------------------------------------
    def _radix(self) -> int:
        """The base of this view's projection codes: one past the highest site its
        network links or the baseline uses.  A matrix :meth:`_refuse_linkless`
        passes holds nothing else in a reach column: a component off its baseline
        site moves an edge, so the site is a linked one."""
        return max(max(self.network.locations(), default=-1), self._baseline_span[1]) + 1

    def _coder(self, components: Sequence[str], radix: int) -> _Coder:
        """The projection coder of one matrix component order (family-shared)."""
        key = (tuple(components), radix)
        coder = self._coders.get(key)
        if coder is None:
            column_of = {c: i for i, c in enumerate(components)}
            coder = self._coders[key] = _Coder(
                key, [[column_of[c] for c in self._reach(api)[1]] for api in self._apis]
            )
        return coder

    def _delta_key(self, api: str) -> Tuple:
        """Content of one API's Δ table save its location count: the reach's edge
        list, its components' baseline placements, the per-edge footprint bytes and
        the network links (the byte tuples and the network digest are memoised where
        they are born)."""
        reach, members = self._reach(api)
        edges = tuple(reach)
        return (
            api,
            edges,
            tuple(self.baseline_plan[c] for c in members),
            self.footprint.edge_bytes(api, edges),
            self.network.content_digest(),
        )

    def _delta_table(self, api: str, n_locations: int) -> DeltaTable:
        """Δ of every (reach edge, caller location, callee location) triple of one API.

        Returns ``(size, table, src_pos, dst_pos)``: ``table[e, a, b]`` is the scalar
        :meth:`_compute_edge_delays` value for edge ``e`` relocated to ``(a, b)``
        (zero where the pair does not move, the Δ is non-positive or the network has
        no link — :meth:`_refuse_linkless` refuses such a plan before any lookup),
        and ``src_pos``/``dst_pos`` map each edge endpoint into the API's
        reach-component axis.
        Built once per reach of the API — a splice drops the reach, so a table built
        for the old one is rebuilt on its next read — and regrown when a higher
        location id appears.
        """
        reach = self._reach(api)[0]
        built_for, cached = self._delta_tables.get(api, (None, None))
        if built_for is not reach or cached[0] < n_locations:
            if self._artifact_cache is not None:
                # Content-complete key: a table is a function of its _delta_key and
                # the location count.  Consumers only ever read the arrays, so
                # cross-model sharing is safe.  A shared table spans every location
                # the network links, so one table per content serves models
                # whatever plans they saw first.
                n_locations = max(n_locations, max(self.network.locations(), default=-1) + 1)
                cached = self._artifact_cache.get_or_build(
                    ("delta", *self._delta_key(api), n_locations),
                    lambda: self._build_delta_table(api, n_locations),
                )
            else:
                cached = self._build_delta_table(api, n_locations)
            self._delta_tables[api] = (reach, cached)
        return cached

    def _build_delta_table(self, api: str, n_locations: int) -> DeltaTable:
        edges, members = self._reach(api)
        table = np.zeros((len(edges), n_locations, n_locations), dtype=np.float64)
        for index, (caller, callee) in enumerate(edges):
            before = (self.baseline_plan[caller], self.baseline_plan[callee])
            request = self.footprint.request_bytes(api, caller, callee)
            response = self.footprint.response_bytes(api, caller, callee)
            for caller_loc in range(n_locations):
                for callee_loc in range(n_locations):
                    after = (caller_loc, callee_loc)
                    if after == before:
                        continue
                    try:
                        delta = self.network.extra_delay_ms(before, after, request, response)
                    except KeyError:
                        continue
                    if delta > 0.0:
                        table[index, caller_loc, callee_loc] = delta
        position = {c: i for i, c in enumerate(members)}
        src_pos = np.asarray([position[c] for c, _ in edges], dtype=np.intp)
        dst_pos = np.asarray([position[c] for _, c in edges], dtype=np.intp)
        return (n_locations, table, src_pos, dst_pos)

    def _projected_deltas(self, api: str, sub: np.ndarray) -> np.ndarray:
        """Δ rows of one API's projections ``sub`` (one per row, in the API's
        reach-component order): the Δ map the scalar path replays, as a row."""
        edges = self._reach(api)[0]
        if not edges:
            return np.zeros((sub.shape[0], 0), dtype=np.float64)
        _size, table, src_pos, dst_pos = self._delta_table(api, int(sub.max()) + 1)
        return table[np.arange(len(edges))[None, :], sub[:, src_pos], sub[:, dst_pos]]

    def _replay_means(self, api: str, deltas: np.ndarray) -> np.ndarray:
        """Mean injected latency of one API under each Δ row, in one vectorized batch."""
        if self.engine != "reference":
            replayed = self._compiled_set(api).replay_batch(deltas).tolist()
        else:
            edges = self._reach(api)[0]
            replayed = [
                self._replay_reference(
                    api, {edges[i]: float(row[i]) for i in np.nonzero(row)[0]}
                )
                for row in deltas
            ]
        # fmean is fsum-based, so its mean of the replayed floats is bit-identical to
        # _resolve's — mixed scalar/batched use of one evaluator yields the same
        # means.  (Lists: fmean iterates Python floats ≈ 2.5x faster than numpy
        # scalars.)
        return np.asarray(
            [statistics.fmean(latencies) for latencies in replayed], dtype=np.float64
        )

    def _memos_for(self, coder: _Coder, codes: Sequence[np.ndarray]) -> List[_Memo]:
        """This view's memo of every API, for ``coder``'s ``codes``.

        The store every view shares holds an API's memos under the footprint and
        network whose Δs they replayed (with the family's traces and baseline, that
        is their content), so a splice restarts the spliced APIs' memos in every
        view.  Kept per view with the coder they were found for: a splice replaces
        every coder, so they are found again after one."""
        found_for, memos = self._memos.get(coder.key, (None, None))
        if found_for is not coder:
            content = (self.footprint, self.network)
            memos = []
            for api, api_codes in zip(self._apis, codes):
                store = self._memo_store.setdefault(api, {})
                if content not in store:
                    store[content] = _Memo(api_codes.dtype)
                memos.append(store[content])
            self._memos[coder.key] = (coder, memos)
        return memos

    def _prefill(self, api: str, memo: _Memo, coder: _Coder, index: int, box: Box) -> bool:
        """On this model's first miss of ``memo`` under ``box`` (per matrix column,
        the sites the problem allows), fill it with every projection of the API's
        admissible lists when they span at most ``_TABLE_LIMIT``; returns whether it
        filled.  The codes and means are one replay, or with an artifact cache one
        entry per content and lists."""
        if not self._prefills or box in memo.boxes:
            return False
        admissible = tuple(
            tuple(site for site in box[column] if 0 <= site < coder.radix)
            for column in coder.reach[index]
        )
        memo.boxes[box] = 0 < math.prod(len(sites) for sites in admissible) <= _TABLE_LIMIT
        if not memo.boxes[box]:
            return False
        if self._artifact_cache is not None:
            codes, means = self._artifact_cache.get_or_build(
                ("impact", *self._delta_key(api), self._trace_fingerprint(api), coder.radix, admissible),
                lambda: self._box_means(api, coder, index, admissible),
            )
        else:
            codes, means = self._box_means(api, coder, index, admissible)
        _held, missed = memo.read(codes)
        memo.fill(codes[missed], means[missed])
        return True

    def _box_means(
        self, api: str, coder: _Coder, index: int, admissible: Box
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Codes and means of every projection of one API's admissible lists."""
        axes = [np.asarray(sites, dtype=np.int64) for sites in admissible]
        projections = (
            np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
            if axes
            else np.zeros((1, 0), dtype=np.int64)
        )
        codes = coder.encode(index, projections)
        order = codes.argsort()
        return codes[order], self._replay_means(api, self._projected_deltas(api, projections[order]))

    def impact_matrix(
        self,
        plan_matrix: np.ndarray,
        components: Sequence[str],
        admissible: Optional[Box] = None,
    ) -> np.ndarray:
        """Per-API impact factors of a whole plan matrix: ``(apis, plans)``.

        Row ``i`` is API ``apis[i]``'s ``Lat(A;p)/Lat(A)`` for every plan.  The
        factors depend only on the placements (through this model's footprint), not
        on trace weights, so robust evaluation computes them once per performance
        view and reuses them for every scenario's weighting.

        ``admissible`` is the problem's box — per column of ``components``, the
        sites its pins and whitelists allow (default: every site the network
        links); it sizes the pre-fill of :meth:`impact_matrices`.

        The one-view case of :meth:`impact_matrices`.
        """
        return self.impact_matrices(plan_matrix, components, [(self, admissible)])[0]

    def impact_matrices(
        self,
        plan_matrix: np.ndarray,
        components: Sequence[str],
        views: Sequence[Tuple["ApiPerformanceModel", Optional[Box]]],
    ) -> List[np.ndarray]:
        """:meth:`impact_matrix` of several views of this model over one plan matrix,
        one ``(apis, plans)`` array per ``(view, admissible box)`` of ``views``.

        The views are this model or its scenario views, each at most once.  Every
        API reads one memo per view (:meth:`_memo`) through its projection codes:
        one digit pass per call codes every API, and each API's codes are read at
        once.  On a compiled base model an API's first miss pre-fills its admissible
        box when the box holds at most ``_TABLE_LIMIT`` projections
        (:meth:`_prefill`).  The codes still missed, of every view, replay in one
        batch per API (:meth:`_fill_misses`), so a scoring call replays each API's
        compiled set once, however many scenario views it scores.  When this model
        is among ``views``, a view that knows which APIs its footprint changes
        (``scenario_view(..., changed_apis=...)``) copies the others' rows from this
        model's matrix.
        A plan whose Δ map crosses a site pair with no link raises the scalar path's
        ``KeyError`` (:meth:`_refuse_linkless`).
        """
        matrix = np.asarray(plan_matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(components):
            raise ValueError("plan matrix must be (plans, len(components))")
        results = [np.ones((len(self._apis), matrix.shape[0])) for _ in views]
        if matrix.shape[0] == 0:
            return results
        span = (int(matrix.min()), int(matrix.max()))
        source: Optional[np.ndarray] = None
        for (view, _box), impacts in zip(views, results):
            view._refuse_linkless(matrix, components, span)
            if view is self:
                source = impacts
        # Per API index, the reads that missed: (view, memo, means row, codes, missed).
        misses: Dict[int, List[Tuple]] = {}
        copies: List[Tuple[np.ndarray, int]] = []
        codes_of: Dict[int, List[np.ndarray]] = {}
        for (view, box), impacts in zip(views, results):
            reusable = (
                view._changed_apis
                if source is not None and source is not impacts
                else None
            )
            radix = view._radix()
            coder = self._coder(components, radix)
            if radix not in codes_of:
                codes_of[radix] = coder.codes(matrix)
            codes = codes_of[radix]
            if box is None:
                box = (tuple(view.network.locations()),) * len(components)
            memos = view._memos_for(coder, codes)
            for index, api in enumerate(self._apis):
                if reusable is not None and api not in reusable:
                    copies.append((impacts, index))
                    continue
                if self._baseline_mean[api] <= 0:
                    continue  # the row stays 1.0
                memo = memos[index]
                means, missed = memo.read(codes[index])
                count = np.count_nonzero(missed)
                if count and view._prefill(api, memo, coder, index, box):
                    means, missed = memo.read(codes[index])
                    count = np.count_nonzero(missed)
                impacts[index] = means
                if count:
                    misses.setdefault(index, []).append(
                        (view, memo, impacts[index], codes[index], missed)
                    )
        for index, reads in misses.items():  # every coder has the same reach columns
            self._fill_misses(index, matrix, coder.reach[index], reads)
        # A row that holds no means holds 1.0 and is divided by 1.0.
        divisors = [self._baseline_mean[api] for api in self._apis]
        divisors = np.asarray([1.0 if d <= 0 else d for d in divisors])[:, None]
        for impacts in results:
            impacts /= divisors
        for impacts, index in copies:
            impacts[index] = source[index]
        return results

    def _fill_misses(
        self, index: int, matrix: np.ndarray, columns: np.ndarray, reads: Sequence[Tuple]
    ) -> None:
        """Replay the codes the reads of API ``index`` missed, in one batch (each
        read's distinct codes once, through its view's Δ table), fill each read's
        memo and write the missed means into its row."""
        api = self._apis[index]
        missed = [np.flatnonzero(read[4]) for read in reads]
        distinct = [
            np.unique(codes[plans], return_index=True, return_inverse=True)
            for (_v, _m, _r, codes, _missed), plans in zip(reads, missed)
        ]
        deltas = [
            view._projected_deltas(api, matrix.take(plans[first], axis=0).take(columns, axis=1))
            for (view, *_rest), plans, (_codes, first, _inverse) in zip(reads, missed, distinct)
        ]
        means = self._replay_means(api, np.concatenate(deltas))
        start = 0
        for (_view, memo, row, _codes, _missed), plans, (codes, _first, inverse) in zip(
            reads, missed, distinct
        ):
            values = means[start : start + len(codes)]
            start += len(codes)
            memo.fill(codes, values)
            row[plans] = values[inverse]

    def _refuse_linkless(
        self, matrix: np.ndarray, components: Sequence[str], span: Tuple[int, int]
    ) -> None:
        """Raise the scalar path's ``KeyError`` for the first API and plan whose Δ
        map crosses a site pair this view's network has no link for.

        Every edge counts, also one no replay reads: a background call moves no
        latency, but :meth:`edge_delays` still prices its edge, so the batched path
        refuses exactly the plans the scalar one does.  ``span`` is the matrix's
        lowest and highest site id; a network that links every pair of ids up to
        the highest one in play (every built-in network does) returns at once.
        """
        low = min(span[0], self._baseline_span[0])
        high = max(span[1], self._baseline_span[1])
        if low >= 0 and high < self.network.linked_prefix():
            return
        column_of = {c: i for i, c in enumerate(components)}
        linked = self.network.has_link
        for api in self._apis:
            edges = self._edges[api]
            if not edges:
                continue
            before = np.asarray(
                [(self.baseline_plan[a], self.baseline_plan[b]) for a, b in edges],
                dtype=np.int64,
            )
            after = np.stack(
                [
                    matrix[:, [column_of[a] for a, _b in edges]],
                    matrix[:, [column_of[b] for _a, b in edges]],
                ],
                axis=-1,
            )
            moved = (after != before[None, :, :]).any(axis=-1)
            broken = np.asarray([not linked(a, b) for a, b in before.tolist()])
            pairs = {tuple(pair) for pair in after[moved].tolist()}
            gaps = {pair for pair in pairs if not linked(*pair)}
            if not (gaps or broken[moved.any(axis=0)].any()):
                continue
            for row in range(matrix.shape[0]):
                if any(
                    moved[row, e] and (broken[e] or tuple(after[row, e].tolist()) in gaps)
                    for e in range(len(edges))
                ):
                    self._compute_edge_delays(
                        api, dict(zip(components, matrix[row].tolist()))
                    )

    def weight_vector(self, api_weights: Optional[Mapping[str, float]]) -> np.ndarray:
        """τ_A per API in :attr:`apis` order (1.0 for an API the mapping omits)."""
        return np.asarray(
            [api_weights.get(api, 1.0) if api_weights else 1.0 for api in self._apis],
            dtype=np.float64,
        )

    def qperf_stack(
        self, impacts: Sequence[np.ndarray], weights: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Collapse :meth:`impact_matrix` results into QPerf under several weight vectors.

        ``impacts[s]`` (the impact matrix of scenario ``s``'s view — one object for
        every scenario sharing the view) is weighted by ``weights[s]``, a
        :meth:`weight_vector`; returns ``(len(weights), plans)``.  One ordered sum
        over the API axis adds every row's weighted impacts; that axis stays
        outermost, so each element accumulates in the scalar iteration order and row
        ``s`` is bitwise per-plan :meth:`qperf` under the mapping ``weights[s]``
        came from."""
        columns = (
            weights[0][:, None, None]
            if len(weights) == 1
            else np.stack(weights, axis=1)[:, None, :]
        )
        first = impacts[0]
        stacked = (
            first[:, :, None]
            if all(matrix is first for matrix in impacts)
            else np.stack(impacts, axis=2)
        )
        terms = columns * stacked
        totals = ordered_masked_sum(terms, np.ones(terms.shape[:2], dtype=bool))
        return totals.T / len(self._apis)

    # -- estimates ------------------------------------------------------------------------
    def estimate_latencies(self, api: str, plan: MigrationPlan) -> List[float]:
        """Injected latency of every sample trace of one API under ``plan``."""
        if api not in self._traces:
            raise KeyError(f"no traces available for API {api!r}")
        latencies, _mean = self._resolve(api, plan)
        return latencies

    def estimate(self, api: str, plan: MigrationPlan) -> PerformanceEstimate:
        if api not in self._traces:
            raise KeyError(f"no traces available for API {api!r}")
        latencies, mean = self._resolve(api, plan)
        return PerformanceEstimate(
            api=api,
            baseline_mean_ms=self._baseline_mean[api],
            estimated_mean_ms=mean,
            estimated_latencies_ms=latencies,
        )

    def estimate_all(self, plan: MigrationPlan) -> Dict[str, PerformanceEstimate]:
        return {api: self.estimate(api, plan) for api in self.apis}

    def _impact_factor(self, api: str, plan: MigrationPlan) -> float:
        baseline = self._baseline_mean[api]
        if baseline <= 0:
            return 1.0
        _latencies, mean = self._resolve(api, plan)
        return mean / baseline

    def qperf(
        self, plan: MigrationPlan, api_weights: Optional[Mapping[str, float]] = None
    ) -> float:
        """QPerf(p) = (1/|A|) Σ_A τ_A Lat(A;p)/Lat(A) — lower is better (≥ ~1)."""
        apis = self._apis
        total = 0.0
        for api in apis:
            weight = api_weights.get(api, 1.0) if api_weights else 1.0
            total += weight * self._impact_factor(api, plan)
        return total / len(apis)

    def impact_factors(self, plan: MigrationPlan) -> Dict[str, float]:
        """Per-API slowdown factors (used by Figures 11, 12 and 16)."""
        return {api: self._impact_factor(api, plan) for api in self.apis}
