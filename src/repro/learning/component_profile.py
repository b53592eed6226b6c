"""Component profiling: per-component resource characteristics from telemetry.

The component profile is what the greedy baselines (offload busiest / smallest) rank on
and what the resource estimator and the cost model consume: observed CPU, memory and
traffic statistics plus the stateful flag and persistent data size provided as
deployment metadata by the application owner.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..apps.model import Application
from ..telemetry.server import TelemetryServer

__all__ = ["ComponentProfile", "ComponentProfiler"]


@dataclass(frozen=True)
class ComponentProfile:
    """Observed resource behaviour of one component."""

    component: str
    stateful: bool
    storage_gb: float
    mean_cpu_millicores: float
    peak_cpu_millicores: float
    mean_memory_mb: float
    peak_memory_mb: float
    total_ingress_bytes: float
    total_egress_bytes: float
    mean_request_rate: float
    apis: List[str]

    @property
    def busyness(self) -> float:
        """Scalar ranking key used by the greedy baselines (CPU-bound workloads)."""
        return self.mean_cpu_millicores

    @property
    def total_traffic_bytes(self) -> float:
        return self.total_ingress_bytes + self.total_egress_bytes


class ComponentProfiler:
    """Builds :class:`ComponentProfile` objects from telemetry + deployment metadata."""

    def __init__(self, telemetry: TelemetryServer, application: Application) -> None:
        self.telemetry = telemetry
        self.application = application

    def profile(self, component: str) -> ComponentProfile:
        return self._profile(component, self.application.apis_using_component(component))

    def _profile(self, component: str, apis: List[str]) -> ComponentProfile:
        comp = self.application.component(component)
        windows = self.telemetry.common_windows()
        cpu_series = self.telemetry.metrics.series(component, "cpu_millicores", windows)
        mem_series = self.telemetry.metrics.series(component, "memory_mb", windows)
        req_series = self.telemetry.metrics.series(component, "requests", windows)
        window_s = self.telemetry.window_ms / 1_000.0
        mean = lambda xs: float(statistics.fmean(xs)) if xs else 0.0  # noqa: E731
        peak = lambda xs: float(max(xs)) if xs else 0.0  # noqa: E731
        return ComponentProfile(
            component=component,
            stateful=comp.stateful,
            storage_gb=comp.resources.storage_gb,
            mean_cpu_millicores=mean(cpu_series),
            peak_cpu_millicores=peak(cpu_series),
            mean_memory_mb=mean(mem_series),
            peak_memory_mb=peak(mem_series),
            total_ingress_bytes=self.telemetry.component_total(component, "ingress_bytes"),
            total_egress_bytes=self.telemetry.component_total(component, "egress_bytes"),
            mean_request_rate=mean(req_series) / window_s,
            apis=apis,
        )

    def profile_all(self) -> Dict[str, ComponentProfile]:
        # One walk of each API's call tree, not one per component and API: the
        # component -> APIs relation inverted here, lists in the APIs' own order
        # (what ``apis_using_component`` returns per component).
        users: Dict[str, List[str]] = {name: [] for name in self.application.component_names}
        for api in self.application.apis:
            for component in api.components():
                users[component].append(api.name)
        return {name: self._profile(name, apis) for name, apis in users.items()}

    # -- rankings used by baselines -----------------------------------------------------
    def ranked_by_busyness(self, descending: bool = True) -> List[ComponentProfile]:
        profiles = list(self.profile_all().values())
        return sorted(profiles, key=lambda p: p.busyness, reverse=descending)

    def ranked_by_traffic(self, descending: bool = True) -> List[ComponentProfile]:
        profiles = list(self.profile_all().values())
        return sorted(profiles, key=lambda p: p.total_traffic_bytes, reverse=descending)
