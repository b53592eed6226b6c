"""Per-API network footprint learning (Section 4.1.1, Eq. 1).

The service mesh only reports *aggregate* bytes between a component pair per time
window; the traces tell how many times each API invoked that pair in the same window.
Atlas recovers the average request/response size of each API's invocation of the pair by
solving, per pair and per direction, the least-squares problem

    argmin_{d_A >= 0}  sum_t ( U[t] - sum_A I_A[t] * d_A )^2

The learned footprint is used (i) to size the injected delay in the latency estimator
(Eq. 2), (ii) to attribute egress traffic to plans in the cost model, and (iii) as the
expected-traffic model of the data-breach detector (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import nnls

from ..digest import sha_parts
from ..telemetry.server import TelemetryServer

__all__ = ["EdgeFootprint", "NetworkFootprint", "FootprintLearner"]

Pair = Tuple[str, str]


@dataclass(frozen=True)
class EdgeFootprint:
    """Learned request/response size of one API's invocation of one component pair."""

    api: str
    source: str
    destination: str
    request_bytes: float
    response_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.request_bytes + self.response_bytes


class NetworkFootprint:
    """The learned footprints of all APIs: ``footprint[api][(src, dst)] -> EdgeFootprint``.

    Immutable after construction (frozen edges, no mutator, ``edges_of`` hands out
    copies), which is what lets it own its content digest.
    """

    #: Memo of :meth:`content_digest`; set on first use, never pickled.
    _digest: Optional[str] = None
    #: Memo of :meth:`edge_bytes` per ``(api, edges)``; never pickled.
    _edge_bytes: Optional[Dict[Tuple[str, Tuple[Pair, ...]], Tuple]] = None

    def __init__(self, edges: Sequence[EdgeFootprint]) -> None:
        self._by_api: Dict[str, Dict[Pair, EdgeFootprint]] = {}
        for edge in edges:
            self._by_api.setdefault(edge.api, {})[(edge.source, edge.destination)] = edge

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_digest", None)
        state.pop("_edge_bytes", None)
        return state

    def content_digest(self) -> str:
        """Content fingerprint of every learned edge size (computed once)."""
        if self._digest is None:
            parts = []
            for api in self.apis:
                for (source, destination), edge in sorted(self._by_api[api].items()):
                    parts.append(
                        f"{api}|{source}|{destination}|"
                        f"{edge.request_bytes!r}|{edge.response_bytes!r}"
                    )
            self._digest = sha_parts(parts)
        return self._digest

    @property
    def apis(self) -> List[str]:
        return sorted(self._by_api)

    def edges_of(self, api: str) -> Dict[Pair, EdgeFootprint]:
        return dict(self._by_api.get(api, {}))

    def edge(self, api: str, source: str, destination: str) -> Optional[EdgeFootprint]:
        return self._by_api.get(api, {}).get((source, destination))

    def request_bytes(self, api: str, source: str, destination: str) -> float:
        edge = self.edge(api, source, destination)
        return edge.request_bytes if edge else 0.0

    def response_bytes(self, api: str, source: str, destination: str) -> float:
        edge = self.edge(api, source, destination)
        return edge.response_bytes if edge else 0.0

    def edge_bytes(
        self, api: str, edges: Tuple[Pair, ...]
    ) -> Tuple[Tuple[float, float], ...]:
        """``(request, response)`` bytes of one API's ``edges``, in order (computed once)."""
        if self._edge_bytes is None:
            self._edge_bytes = {}
        key = (api, edges)
        sizes = self._edge_bytes.get(key)
        if sizes is None:
            sizes = self._edge_bytes[key] = tuple(
                (self.request_bytes(api, *edge), self.response_bytes(api, *edge))
                for edge in edges
            )
        return sizes

    def round_trip_bytes(self, api: str, source: str, destination: str) -> float:
        """``d_req + d_resp`` — the payload term of Eq. 2."""
        edge = self.edge(api, source, destination)
        return edge.total_bytes if edge else 0.0

    def pairs(self) -> List[Pair]:
        pairs = set()
        for edges in self._by_api.values():
            pairs.update(edges)
        return sorted(pairs)

    # -- expected traffic reconstruction (Section 6) ----------------------------------------
    def expected_pair_traffic(
        self, api_request_counts: Mapping[str, float]
    ) -> Dict[Pair, float]:
        """Expected total bytes per pair given how many requests of each API were served."""
        traffic: Dict[Pair, float] = {}
        for api, count in api_request_counts.items():
            for pair, edge in self._by_api.get(api, {}).items():
                traffic[pair] = traffic.get(pair, 0.0) + count * edge.total_bytes
        return traffic

    def edge_arrays(
        self,
        api_request_counts: Mapping[str, float],
        component_index: Mapping[str, int],
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Flattened per-(API, edge) arrays for batched traffic aggregation.

        Returns ``(src_cols, dst_cols, total_bytes)`` where the bytes are already
        scaled by the API's request count.  Entries appear in the exact iteration
        order of the scalar accounting (APIs in ``api_request_counts`` order, edges in
        learned order; APIs with non-positive counts and edges touching unknown
        components are skipped), which is what lets the batched cost/traffic
        pipelines accumulate bitwise-identically to the per-plan loops.
        """
        src_cols: List[int] = []
        dst_cols: List[int] = []
        total_bytes: List[float] = []
        for api, count in api_request_counts.items():
            if count <= 0:
                continue
            for (src, dst), edge in self._by_api.get(api, {}).items():
                src_col = component_index.get(src)
                dst_col = component_index.get(dst)
                if src_col is None or dst_col is None:
                    continue
                src_cols.append(src_col)
                dst_cols.append(dst_col)
                total_bytes.append(count * edge.total_bytes)
        return (
            np.asarray(src_cols, dtype=np.intp),
            np.asarray(dst_cols, dtype=np.intp),
            np.asarray(total_bytes, dtype=np.float64),
        )

    # -- evaluation helpers -------------------------------------------------------------------
    def accuracy_against(
        self, reference: Mapping[str, Mapping[Pair, Tuple[float, float]]]
    ) -> Dict[str, float]:
        """Percentage accuracy per API against ground-truth (request, response) sizes.

        Accuracy of one value is ``1 - |est - real| / real`` (clamped at 0); the per-API
        figure is the mean over all edges and both directions, matching Figure 20.
        """
        accuracies: Dict[str, float] = {}
        for api, edges in reference.items():
            scores: List[float] = []
            for pair, (real_req, real_resp) in edges.items():
                est_req = self.request_bytes(api, *pair)
                est_resp = self.response_bytes(api, *pair)
                for est, real in ((est_req, real_req), (est_resp, real_resp)):
                    if real <= 0:
                        continue
                    scores.append(max(0.0, 1.0 - abs(est - real) / real))
            if scores:
                accuracies[api] = 100.0 * float(np.mean(scores))
        return accuracies


class FootprintLearner:
    """Learns :class:`NetworkFootprint` from mesh counters + trace invocation counts."""

    def __init__(self, telemetry: TelemetryServer, min_windows: int = 3) -> None:
        if min_windows < 1:
            raise ValueError("min_windows must be at least 1")
        self.telemetry = telemetry
        self.min_windows = min_windows

    def learn(self, apis: Optional[Sequence[str]] = None) -> NetworkFootprint:
        """Solve Eq. 1 for every observed component pair and both directions."""
        apis = list(apis) if apis is not None else self.telemetry.apis()
        windows = self.telemetry.common_windows()
        if len(windows) < self.min_windows:
            raise ValueError(
                f"need at least {self.min_windows} telemetry windows, have {len(windows)}"
            )
        # Invocation counts per API: (src, dst) -> {window -> count}
        invocations: Dict[str, Dict[Pair, Dict[int, int]]] = {
            api: self.telemetry.invocation_counts(api) for api in apis
        }
        edges: List[EdgeFootprint] = []
        for pair in self.telemetry.observed_pairs():
            involved = [api for api in apis if pair in invocations[api]]
            if not involved:
                continue
            design = np.zeros((len(windows), len(involved)))
            for col, api in enumerate(involved):
                counts = invocations[api][pair]
                for row, window in enumerate(windows):
                    design[row, col] = counts.get(window, 0)
            req_target = np.array(
                [self.telemetry.mesh.request_bytes(pair[0], pair[1], w) for w in windows]
            )
            resp_target = np.array(
                [self.telemetry.mesh.response_bytes(pair[0], pair[1], w) for w in windows]
            )
            req_sizes = self._solve(design, req_target)
            resp_sizes = self._solve(design, resp_target)
            for api, req_size, resp_size in zip(involved, req_sizes, resp_sizes):
                edges.append(
                    EdgeFootprint(
                        api=api,
                        source=pair[0],
                        destination=pair[1],
                        request_bytes=float(req_size),
                        response_bytes=float(resp_size),
                    )
                )
        return NetworkFootprint(edges)

    @staticmethod
    def _solve(design: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Non-negative least squares, falling back to clipped least squares when
        ``nnls`` hits its iteration cap (``RuntimeError``).  Any other error —
        ``ValueError`` for non-finite mesh bytes — propagates: least squares would
        turn such input into a NaN footprint."""
        if not design.any():
            return np.zeros(design.shape[1])
        try:
            solution, _residual = nnls(design, target)
        except RuntimeError:
            solution, *_ = np.linalg.lstsq(design, target, rcond=None)
            solution = np.clip(solution, 0.0, None)
        return solution
