"""Component-focused resource metrics (cAdvisor-like).

Per-component, per-window time series of CPU, memory, ingress/egress traffic and served
request counts.  The windows are aligned with the pairwise network metrics so the
resource estimator and the cost model can join them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

__all__ = ["MetricSample", "ComponentMetricsStore"]

#: Metric names recorded for every component.
METRIC_NAMES = ("cpu_millicores", "memory_mb", "ingress_bytes", "egress_bytes", "requests")

#: What a component nobody recorded has (read-only).
_NO_CELLS: Mapping[int, Dict[str, float]] = {}


@dataclass(frozen=True)
class MetricSample:
    """Resource usage of one component during one time window."""

    component: str
    window: int
    cpu_millicores: float = 0.0
    memory_mb: float = 0.0
    ingress_bytes: float = 0.0
    egress_bytes: float = 0.0
    requests: float = 0.0

    def __post_init__(self) -> None:
        for name in METRIC_NAMES:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class ComponentMetricsStore:
    """Accumulating store of per-component, per-window resource metrics."""

    def __init__(self, window_ms: float = 5_000.0) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.window_ms = window_ms
        # component -> {window -> {metric: value}}; components in first-recorded order,
        # a component's windows in the order its cells were created.
        self._data: Dict[str, Dict[int, Dict[str, float]]] = {}
        self._windows: Set[int] = set()

    def _cell(self, component: str, window: int) -> Dict[str, float]:
        cells = self._data.get(component)
        if cells is None:
            cells = self._data[component] = {}
        cell = cells.get(window)
        if cell is None:
            cell = cells[window] = dict.fromkeys(METRIC_NAMES, 0.0)
            self._windows.add(window)
        return cell

    # -- writes ------------------------------------------------------------------
    def record(
        self,
        component: str,
        time_ms: float,
        cpu_millicores: float = 0.0,
        memory_mb: float = 0.0,
        ingress_bytes: float = 0.0,
        egress_bytes: float = 0.0,
        requests: float = 0.0,
    ) -> None:
        """Add usage observed at ``time_ms`` to the enclosing window (values accumulate,
        except memory which is tracked as a high-water mark within the window)."""
        cell = self._cell(component, self.window_of(time_ms))
        cell["cpu_millicores"] += cpu_millicores
        cell["memory_mb"] = max(cell["memory_mb"], memory_mb)
        cell["ingress_bytes"] += ingress_bytes
        cell["egress_bytes"] += egress_bytes
        cell["requests"] += requests

    def record_sample(self, sample: MetricSample) -> None:
        cell = self._cell(sample.component, sample.window)
        cell["cpu_millicores"] += sample.cpu_millicores
        cell["memory_mb"] = max(cell["memory_mb"], sample.memory_mb)
        cell["ingress_bytes"] += sample.ingress_bytes
        cell["egress_bytes"] += sample.egress_bytes
        cell["requests"] += sample.requests

    # -- reads --------------------------------------------------------------------
    def window_of(self, time_ms: float) -> int:
        return int(time_ms // self.window_ms)

    @property
    def components(self) -> List[str]:
        return list(self._data)

    def windows(self) -> List[int]:
        """All windows with at least one sample, sorted."""
        return sorted(self._windows)

    def value(self, component: str, window: int, metric: str) -> float:
        if metric not in METRIC_NAMES:
            raise KeyError(f"unknown metric {metric!r}")
        cell = self._data.get(component, _NO_CELLS).get(window)
        return 0.0 if cell is None else cell[metric]

    def series(
        self,
        component: str,
        metric: str,
        windows: Optional[Sequence[int]] = None,
    ) -> List[float]:
        """Time series of one metric for one component over the given (or all) windows."""
        if metric not in METRIC_NAMES:
            raise KeyError(f"unknown metric {metric!r}")
        cells = self._data.get(component, _NO_CELLS)
        return [
            cells[w][metric] if w in cells else 0.0
            for w in (windows if windows is not None else self.windows())
        ]

    def total(self, component: str, metric: str) -> float:
        return sum(cell[metric] for cell in self._data.get(component, _NO_CELLS).values())

    def aggregate(
        self,
        metric: str,
        components: Optional[Iterable[str]] = None,
        windows: Optional[Sequence[int]] = None,
    ) -> List[float]:
        """Sum of one metric over a set of components, as a series over windows."""
        # A set built from a list: the floats below add in the set's iteration order,
        # which a set built straight from the dict would not share.
        selected = set(components) if components is not None else set(self.components)
        windows = list(windows) if windows is not None else self.windows()
        return [
            sum(self.value(c, w, metric) for c in selected)
            for w in windows
        ]

    def peak(self, metric: str, components: Optional[Iterable[str]] = None) -> float:
        """Maximum over windows of the aggregate of one metric (used for capacity checks)."""
        series = self.aggregate(metric, components)
        return max(series) if series else 0.0

    def samples(self) -> List[MetricSample]:
        """All accumulated samples (mainly for persistence and tests)."""
        return [
            MetricSample(component=comp, window=window, **cells[window])
            for comp, cells in sorted(self._data.items())
            for window in sorted(cells)
        ]
