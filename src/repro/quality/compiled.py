"""Compiled trace replay: delay injection as vectorized array passes.

:class:`~repro.quality.performance.DelayInjector` recomputes one trace's span timings
with a recursive Python tree walk — correct, but far too slow when the GA previews
thousands of candidate plans against dozens of sample traces per API.  This module
compiles each API's sample traces **once** into flat numpy arrays and then replays any
number of delay vectors over *all* of the API's traces simultaneously.  A drift
refresh that installs new traces compiles the API again.

Compilation exploits the key invariant of the cascade rules (Section 4.1.1): which
predecessor a span's new start is anchored to — its parent's start or a foreground
sibling's end — together with the trigger gap, the background masks and the
parallel-sibling classification, depends only on the *original* timestamps, never on
the injected delays.  So the whole control structure of the recursion can be resolved
at compile time into a static dataflow DAG:

* ``start(i) = anchor(i) + gap(i) + delta(edge(i))`` where the anchor is the parent's
  new start or the reference foreground sibling's new end;
* ``end(i) = start(i) + duration(i)`` for spans without foreground children;
* ``end(i) = max(end(c) for c in foreground(i)) + tail_gap(i)`` otherwise.

Only *live* spans compile: the root, and every foreground child of a live span.  A
background child enters neither its parent's ``foreground`` anchors nor its tail, so
nothing in its subtree can move the root's end; its edges get no Δ column, and a Δ on
them changes no latency.

Replay schedules these assignments by dependency level (longest dependency chain) and
executes each level as one vectorized numpy operation over a ``(spans, plans)`` state
matrix — so a batch of plans replays every trace of an API in a handful of array
passes.  Arithmetic preserves the exact IEEE-754 operation order of the recursive
reference, so compiled latencies are bitwise identical to ``DelayInjector``'s, which
keeps fixed-seed GA trajectories unchanged when switching engines.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..apps.model import ExecutionMode
from ..learning.api_profile import classify_background, classify_sibling
from ..telemetry.tracing import Trace

__all__ = ["CompiledTraceSet"]


Edge = Tuple[str, str]


class _LevelOps:
    """Vectorized instruction bundle for one dependency level."""

    __slots__ = (
        "sp_idx",
        "sp_dep",
        "sp_gap",
        "sp_edge",
        "ss_idx",
        "ss_dep",
        "ss_gap",
        "ss_edge",
        "el_idx",
        "el_dur",
        "ea_idx",
        "ea_children",
        "ea_offsets",
        "ea_tail",
    )

    def __init__(self) -> None:
        # start-from-parent ops: start[idx] = start[dep] + gap + delta[edge]
        self.sp_idx: List[int] = []
        self.sp_dep: List[int] = []
        self.sp_gap: List[float] = []
        self.sp_edge: List[int] = []
        # start-from-sibling ops: start[idx] = end[dep] + gap + delta[edge]
        self.ss_idx: List[int] = []
        self.ss_dep: List[int] = []
        self.ss_gap: List[float] = []
        self.ss_edge: List[int] = []
        # end ops without foreground children: end[idx] = start[idx] + duration
        self.el_idx: List[int] = []
        self.el_dur: List[float] = []
        # end ops aggregating foreground children: end[idx] = segmax(children) + tail
        self.ea_idx: List[int] = []
        self.ea_children: List[int] = []
        self.ea_offsets: List[int] = []
        self.ea_tail: List[float] = []

    def freeze(self, edge_ids: np.ndarray) -> None:
        """Convert the accumulated python lists into contiguous numpy arrays, the
        compile-order edge numbers renumbered through ``edge_ids``."""
        self.sp_idx = np.asarray(self.sp_idx, dtype=np.intp)
        self.sp_dep = np.asarray(self.sp_dep, dtype=np.intp)
        self.sp_gap = np.asarray(self.sp_gap, dtype=np.float64)
        self.sp_edge = edge_ids[np.asarray(self.sp_edge, dtype=np.intp)]
        self.ss_idx = np.asarray(self.ss_idx, dtype=np.intp)
        self.ss_dep = np.asarray(self.ss_dep, dtype=np.intp)
        self.ss_gap = np.asarray(self.ss_gap, dtype=np.float64)
        self.ss_edge = edge_ids[np.asarray(self.ss_edge, dtype=np.intp)]
        self.el_idx = np.asarray(self.el_idx, dtype=np.intp)
        self.el_dur = np.asarray(self.el_dur, dtype=np.float64)
        self.ea_idx = np.asarray(self.ea_idx, dtype=np.intp)
        self.ea_children = np.asarray(self.ea_children, dtype=np.intp)
        self.ea_offsets = np.asarray(self.ea_offsets, dtype=np.intp)
        self.ea_tail = np.asarray(self.ea_tail, dtype=np.float64)


#: dtype of every index-like `_LevelOps` slot (the rest are float64 values).
_INTP_SLOTS = frozenset(
    {"sp_idx", "sp_dep", "sp_edge", "ss_idx", "ss_dep", "ss_edge",
     "el_idx", "ea_idx", "ea_children", "ea_offsets"}
)
#: `_LevelOps.__slots__` with, per slot, whether a packed set keeps it in the intp blob.
_PACKED_SLOTS = tuple((name, name in _INTP_SLOTS) for name in _LevelOps.__slots__)


def _pack_ops(bundles: Sequence[_LevelOps]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frozen op bundles as one intp blob, one float64 blob and a length table.

    The blobs are the bundles' arrays back to back in bundle order, slot order; row
    ``b`` of the ``(bundles, slots)`` table holds the lengths of bundle ``b``'s slots.
    """
    ints: List[np.ndarray] = []
    floats: List[np.ndarray] = []
    lengths = np.empty((len(bundles), len(_PACKED_SLOTS)), dtype=np.intp)
    for row, ops in enumerate(bundles):
        for col, (name, is_intp) in enumerate(_PACKED_SLOTS):
            block = getattr(ops, name)
            lengths[row, col] = len(block)
            (ints if is_intp else floats).append(block)
    return np.concatenate(ints), np.concatenate(floats), lengths


def _unpack_ops(
    ints: np.ndarray, floats: np.ndarray, lengths: np.ndarray
) -> List[_LevelOps]:
    """Inverse of :func:`_pack_ops`: the bundles again, their arrays views of the blobs."""
    bundles: List[_LevelOps] = []
    int_at = float_at = 0
    for row in lengths.tolist():
        ops = object.__new__(_LevelOps)
        for (name, is_intp), length in zip(_PACKED_SLOTS, row):
            if is_intp:
                setattr(ops, name, ints[int_at : int_at + length])
                int_at += length
            else:
                setattr(ops, name, floats[float_at : float_at + length])
                float_at += length
        bundles.append(ops)
    return bundles


class CompiledTraceSet:
    """All sample traces of one API, compiled for batched delay injection.

    Live spans of every trace are concatenated into one global index space; per span
    the compiler resolves its anchor (parent start or reference foreground sibling
    end), trigger gap, invocation-edge id and foreground-children segment, then buckets
    every assignment by dependency level.  :meth:`replay_batch` evaluates a whole
    matrix of per-plan delay vectors in one pass; :meth:`latencies` is the single-plan
    view.

    ``edge_index`` numbers the *live* edges — those of live spans — in ``edge_order``'s
    order: the Δ columns a replay reads.  Every other edge of the traces hangs under a
    background call, which never delays the response, and :meth:`delta_row` drops it.

    A set is immutable and compiled in one pass over its traces: a drift refresh
    retimes every trace of a window, so a refreshed API compiles a new set and nothing
    is reused trace by trace.
    """

    def __init__(self, traces: Sequence[Trace], edge_order: Sequence[Edge]) -> None:
        if not traces:
            raise ValueError("cannot compile an empty trace set")
        self.n_traces = len(traces)
        root_idx: List[int] = []
        root_start: List[float] = []
        levels: Dict[int, _LevelOps] = {}
        # Live edges in the order the compiler meets them -> their compile-order id.
        met: Dict[Edge, int] = {}
        offset = 0
        for trace in traces:
            offset = self._compile_one(trace, offset, root_idx, root_start, levels, met)
        self.n_spans = offset
        self.edge_index: Dict[Edge, int] = {}
        for edge in edge_order:
            if edge in met and edge not in self.edge_index:
                self.edge_index[edge] = len(self.edge_index)
        self.n_edges = len(self.edge_index)
        edge_ids = np.asarray([self.edge_index[edge] for edge in met], dtype=np.intp)
        self._root_idx = np.asarray(root_idx, dtype=np.intp)
        self._root_start = np.asarray(root_start, dtype=np.float64)
        self._levels = [levels[level] for level in sorted(levels)]
        for ops in self._levels:
            ops.freeze(edge_ids)

    def __getstate__(self) -> Dict[str, object]:
        """The durable form: ``_packed_levels`` (the blobs and length table of
        :func:`_pack_ops`) in place of ``_levels``.

        A set holds ~140 tiny arrays (14 slots per level), and pickling them one by
        one is what a restart used to spend its time on.  A loaded set keeps the
        blobs it read — its arrays are views of them — and hands them on unchanged.
        There is no reader for any other layout: the store's frame version keeps such
        payloads away.
        """
        state = dict(self.__dict__)
        levels = state.pop("_levels")
        # Popped and re-inserted: a set pickles to the same bytes loaded or built.
        state["_packed_levels"] = state.pop("_packed_levels", None) or _pack_ops(levels)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._levels = _unpack_ops(*state["_packed_levels"])

    # -- compilation -----------------------------------------------------------------------
    def _compile_one(
        self,
        trace: Trace,
        offset: int,
        root_idx: List[int],
        root_start: List[float],
        levels: Dict[int, _LevelOps],
        met: Dict[Edge, int],
    ) -> int:
        shape = trace.shape()
        spans = trace.spans
        n = len(spans)
        parent_index = shape.parent_index
        children_index = shape.children_index
        root_pos = shape.root_index

        # Resolve per-span anchors statically, mirroring DelayInjector._adjust: process
        # each live parent's children in order, tracking the processed foreground
        # siblings.  A background child anchors nothing and reaches no end, so it and
        # its subtree are never visited: liveness is decided here, where the
        # background classification is.
        anchor_sibling = [-1] * n  # local index of the reference FG sibling, or -1
        gap = [0.0] * n
        edge_id = [0] * n
        fg_children: List[List[int]] = [[] for _ in range(n)]
        tail_gap = [0.0] * n
        live = [root_pos]

        for parent_pos in live:  # grows while it is walked: parents before children
            parent = spans[parent_pos]
            # Processed foreground children: (orig_end, local position).
            foreground: List[Tuple[float, int]] = []
            for child_pos in children_index[parent_pos]:
                child = spans[child_pos]
                if classify_background(child, parent):
                    continue
                ref_orig = parent.start_ms
                ref_pos = -1
                for orig_end, prev_pos in foreground:
                    if classify_sibling(spans[prev_pos], child) is ExecutionMode.PARALLEL:
                        continue
                    if orig_end > ref_orig:
                        ref_orig, ref_pos = orig_end, prev_pos
                anchor_sibling[child_pos] = ref_pos
                gap[child_pos] = child.start_ms - ref_orig
                edge_id[child_pos] = met.setdefault(
                    (parent.component, child.component), len(met)
                )
                foreground.append((child.end_ms, child_pos))
                fg_children[parent_pos].append(child_pos)
                live.append(child_pos)
            if fg_children[parent_pos]:
                tail_ref_orig = max(
                    spans[pos].end_ms for pos in fg_children[parent_pos]
                )
                tail_gap[parent_pos] = max(parent.end_ms - tail_ref_orig, 0.0)
        live.sort()
        index_of = {pos: offset + rank for rank, pos in enumerate(live)}

        # Dependency levels: start of the root is known up front (level 0); every other
        # value is 1 + the level of its single gather dependency (starts) or 1 + the
        # max level of its foreground children's ends (aggregating ends).
        start_level = [0] * n
        end_level = [0] * n
        # Spans are stored in (start_ms, span_id) order, but a child always starts at or
        # after its anchor, so position order is a valid evaluation order for levels...
        # except for ties; compute levels with an explicit worklist to stay safe.
        for kind, pos in _topological_value_order(fg_children, root_pos):
            if kind == 0:  # start
                if pos == root_pos:
                    start_level[pos] = 0
                    continue
                sibling = anchor_sibling[pos]
                dep_level = (
                    end_level[sibling]
                    if sibling >= 0
                    else start_level[parent_index[pos]]
                )
                start_level[pos] = dep_level + 1
            else:  # end
                if fg_children[pos]:
                    end_level[pos] = 1 + max(end_level[c] for c in fg_children[pos])
                else:
                    end_level[pos] = start_level[pos] + 1

        def ops_at(level: int) -> _LevelOps:
            if level not in levels:
                levels[level] = _LevelOps()
            return levels[level]

        root_idx.append(index_of[root_pos])
        # A leaf root keeps its original duration verbatim in the reference path, so
        # the replayed latency must be exactly duration_ms, not (start + dur) - start
        # (the two can differ in the last ulp).  Its start anchors nothing, so pinning
        # it to zero makes end - start come out exact.
        if children_index[root_pos]:
            root_start.append(spans[root_pos].start_ms)
        else:
            root_start.append(0.0)
        for pos in live:
            if pos != root_pos:
                ops = ops_at(start_level[pos])
                sibling = anchor_sibling[pos]
                if sibling >= 0:
                    ops.ss_idx.append(index_of[pos])
                    ops.ss_dep.append(index_of[sibling])
                    ops.ss_gap.append(gap[pos])
                    ops.ss_edge.append(edge_id[pos])
                else:
                    ops.sp_idx.append(index_of[pos])
                    ops.sp_dep.append(index_of[parent_index[pos]])
                    ops.sp_gap.append(gap[pos])
                    ops.sp_edge.append(edge_id[pos])
            ops = ops_at(end_level[pos])
            if fg_children[pos]:
                ops.ea_idx.append(index_of[pos])
                ops.ea_offsets.append(len(ops.ea_children))
                ops.ea_children.extend(index_of[c] for c in fg_children[pos])
                ops.ea_tail.append(tail_gap[pos])
            else:
                ops.el_idx.append(index_of[pos])
                # The reference path extends a childless span by duration_ms, but a span
                # whose children are all background by end_ms - start_ms; the two can
                # differ in the last ulp, and bitwise equality is a contract here.
                span = spans[pos]
                if children_index[pos]:
                    ops.el_dur.append(max(span.end_ms - span.start_ms, 0.0))
                else:
                    ops.el_dur.append(span.duration_ms)
        return offset + len(live)

    # -- replay ----------------------------------------------------------------------------
    def delta_row(self, edge_delays: Mapping[Edge, float]) -> np.ndarray:
        """One plan's per-edge Δ vector in the compiled edge order (clipped at zero);
        an edge that is not live moves no latency and is dropped."""
        row = np.zeros(self.n_edges, dtype=np.float64)
        for edge, delta in edge_delays.items():
            index = self.edge_index.get(edge)
            if index is not None and delta > 0.0:
                row[index] = delta
        return row

    def replay_batch(self, delta_rows: np.ndarray) -> np.ndarray:
        """Latency matrix ``(plans, traces)`` for a batch of per-edge delay vectors.

        The state is laid out ``(spans, plans)``: every level's gathers and scatters
        take whole rows, one per span, whatever the batch size.
        """
        deltas = np.atleast_2d(np.asarray(delta_rows, dtype=np.float64))
        if deltas.shape[1] != self.n_edges:
            raise ValueError(
                f"delta rows have {deltas.shape[1]} edges, compiled set has {self.n_edges}"
            )
        by_edge = np.ascontiguousarray(deltas.T)
        start = np.zeros((self.n_spans, deltas.shape[0]), dtype=np.float64)
        end = np.zeros(start.shape, dtype=np.float64)
        start[self._root_idx] = self._root_start[:, None]
        for ops in self._levels:
            if len(ops.sp_idx):
                start[ops.sp_idx] = (
                    start[ops.sp_dep] + ops.sp_gap[:, None] + by_edge[ops.sp_edge]
                )
            if len(ops.ss_idx):
                start[ops.ss_idx] = (
                    end[ops.ss_dep] + ops.ss_gap[:, None] + by_edge[ops.ss_edge]
                )
            if len(ops.el_idx):
                end[ops.el_idx] = start[ops.el_idx] + ops.el_dur[:, None]
            if len(ops.ea_idx):
                segment_max = np.maximum.reduceat(
                    end[ops.ea_children], ops.ea_offsets, axis=0
                )
                end[ops.ea_idx] = segment_max + ops.ea_tail[:, None]
        return (end[self._root_idx] - start[self._root_idx]).T

    def latencies(self, edge_delays: Mapping[Edge, float]) -> List[float]:
        """Injected latency of every compiled trace under one plan's edge delays."""
        return [float(v) for v in self.replay_batch(self.delta_row(edge_delays))[0]]


def _topological_value_order(
    children_index: Sequence[Sequence[int]], root_pos: int
) -> List[Tuple[int, int]]:
    """DFS value order of one trace's live spans: (0=start, 1=end) events in
    dependency order.

    Mirrors the recursion of ``DelayInjector._adjust`` over ``children_index`` (the
    foreground children of each live span): a span's start is emitted on entry, its
    children are processed in child-list order, and its end is emitted on exit —
    which guarantees every anchor sibling's end and every foreground child's end
    precede the values that read them.
    """
    order: List[Tuple[int, int]] = []
    stack: List[Tuple[int, bool]] = [(root_pos, False)]
    while stack:
        pos, expanded = stack.pop()
        if expanded:
            order.append((1, pos))
            continue
        order.append((0, pos))
        stack.append((pos, True))
        for child in reversed(children_index[pos]):
            stack.append((child, False))
    return order
