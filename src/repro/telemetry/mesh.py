"""Pairwise network metrics (Istio-like service-mesh telemetry).

The mesh records, per time window, the total number of bytes transferred from one
component to another during requests and during responses — aggregated over *all* APIs.
That aggregation is precisely the limitation the paper calls out: the mesh alone cannot
tell how many bytes a single API's invocation moves, which is why Atlas learns per-API
network footprints (Eq. 1) by combining these counters with trace-derived invocation
counts.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["PairwiseNetworkMetrics"]


class PairwiseNetworkMetrics:
    """Windowed request/response byte counters per (source, destination) pair."""

    def __init__(self, window_ms: float = 5_000.0) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.window_ms = window_ms
        # (src, dst, window) -> [request_bytes, response_bytes], in creation order (the
        # order the cross-pair totals add in); the pairs and windows seen, kept beside.
        self._data: Dict[Tuple[str, str, int], List[float]] = {}
        self._pairs: Set[Tuple[str, str]] = set()
        self._windows: Set[int] = set()

    # -- writes ----------------------------------------------------------------
    def window_of(self, time_ms: float) -> int:
        return int(time_ms // self.window_ms)

    def record(
        self,
        source: str,
        destination: str,
        time_ms: float,
        request_bytes: float,
        response_bytes: float,
    ) -> None:
        """Accumulate one invocation's request/response bytes into its window."""
        if request_bytes < 0 or response_bytes < 0:
            raise ValueError("byte counts must be non-negative")
        window = self.window_of(time_ms)
        cell = self._data.get((source, destination, window))
        if cell is None:
            cell = self._data[(source, destination, window)] = [0.0, 0.0]
            self._pairs.add((source, destination))
            self._windows.add(window)
        cell[0] += request_bytes
        cell[1] += response_bytes

    # -- reads ------------------------------------------------------------------
    def pairs(self) -> List[Tuple[str, str]]:
        """All (source, destination) pairs with recorded traffic."""
        return sorted(self._pairs)

    def windows(self) -> List[int]:
        return sorted(self._windows)

    def request_bytes(self, source: str, destination: str, window: int) -> float:
        """Total request-direction bytes for one pair in one window (``U^req`` in Eq. 1)."""
        cell = self._data.get((source, destination, window))
        return 0.0 if cell is None else cell[0]

    def response_bytes(self, source: str, destination: str, window: int) -> float:
        cell = self._data.get((source, destination, window))
        return 0.0 if cell is None else cell[1]

    def request_series(
        self, source: str, destination: str, windows: Optional[Sequence[int]] = None
    ) -> List[float]:
        windows = list(windows) if windows is not None else self.windows()
        return [self.request_bytes(source, destination, w) for w in windows]

    def response_series(
        self, source: str, destination: str, windows: Optional[Sequence[int]] = None
    ) -> List[float]:
        windows = list(windows) if windows is not None else self.windows()
        return [self.response_bytes(source, destination, w) for w in windows]

    def total_bytes(self, source: str, destination: str) -> float:
        """All bytes (request + response) ever recorded for one directed pair."""
        return sum(
            cell[0] + cell[1]
            for (s, d, _w), cell in self._data.items()
            if s == source and d == destination
        )

    def total_traffic_matrix(self) -> Dict[Tuple[str, str], float]:
        """Directed pair -> total bytes.  This is what affinity-based baselines consume."""
        matrix: Dict[Tuple[str, str], float] = defaultdict(float)
        for (s, d, _w), cell in self._data.items():
            matrix[(s, d)] += cell[0] + cell[1]
        return dict(matrix)

    def traffic_between(self, group_a: Sequence[str], group_b: Sequence[str]) -> float:
        """Total bytes crossing between two disjoint component groups (either direction)."""
        set_a, set_b = set(group_a), set(group_b)
        total = 0.0
        for (s, d, _w), cell in self._data.items():
            if (s in set_a and d in set_b) or (s in set_b and d in set_a):
                total += cell[0] + cell[1]
        return total
