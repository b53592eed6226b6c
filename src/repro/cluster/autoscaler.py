"""Cluster and storage autoscaler simulation (Appendix A, Eq. 6 and Eq. 8).

An elastic datacenter charges only for allocated nodes and provisioned storage.  These
two small simulators convert a time series of expected resource demand into a time
series of allocated capacity, which the cost model (:mod:`repro.quality.cost`) then
prices.  Each elastic datacenter runs its *own* autoscaler sized to that site's node
spec — the cost model instantiates one :class:`ClusterAutoscaler` per elastic location,
so N-location clusters scale every region independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from .topology import NodeSpec

__all__ = ["ClusterAutoscaler", "StorageAutoscaler", "AutoscalerConfig"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Headroom fractions (δ in Eq. 6/8) that trigger scale-up."""

    cpu_headroom: float = 0.20
    memory_headroom: float = 0.20
    storage_headroom: float = 0.20

    def __post_init__(self) -> None:
        for name in ("cpu_headroom", "memory_headroom", "storage_headroom"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")


class ClusterAutoscaler:
    """Computes the number of nodes one elastic datacenter allocates over time (Eq. 6).

    ``n_t = max_r ceil((1 + δ_r) * demand_r[t] / Ω_r)`` for r ∈ {CPU, memory}.
    """

    def __init__(self, node_spec: NodeSpec, config: AutoscalerConfig | None = None) -> None:
        self.node_spec = node_spec
        self.config = config or AutoscalerConfig()

    def nodes_for(self, cpu_millicores: float, memory_mb: float) -> int:
        """Nodes needed to host the given instantaneous demand."""
        if cpu_millicores < 0 or memory_mb < 0:
            raise ValueError("resource demand must be non-negative")
        if cpu_millicores == 0 and memory_mb == 0:
            return 0
        by_cpu = math.ceil(
            (1.0 + self.config.cpu_headroom) * cpu_millicores / self.node_spec.cpu_millicores
        )
        by_mem = math.ceil(
            (1.0 + self.config.memory_headroom) * memory_mb / self.node_spec.memory_mb
        )
        # Any non-zero demand needs at least one node: the quotient of a subnormal
        # demand can underflow to 0.0, which would otherwise ceil to zero nodes.
        return max(by_cpu, by_mem, 1)

    def node_series(
        self,
        cpu_series: Sequence[float],
        memory_series: Sequence[float],
    ) -> List[int]:
        """Node counts for aligned CPU/memory demand time series."""
        if len(cpu_series) != len(memory_series):
            raise ValueError("cpu and memory series must have the same length")
        return [self.nodes_for(c, m) for c, m in zip(cpu_series, memory_series)]

    @property
    def constants(self) -> Tuple[float, float, float, float]:
        """``(1 + δ_cpu, Ω_cpu, 1 + δ_mem, Ω_mem)``: what :meth:`node_counts` reads."""
        return (
            1.0 + self.config.cpu_headroom,
            self.node_spec.cpu_millicores,
            1.0 + self.config.memory_headroom,
            self.node_spec.memory_mb,
        )

    @staticmethod
    def node_counts(
        cpu: np.ndarray,
        memory: np.ndarray,
        cpu_factor,
        cpu_capacity,
        memory_factor,
        memory_capacity,
    ) -> np.ndarray:
        """Eq. 6 elementwise over non-negative demand arrays of one shape, each
        constant a scalar or an array that broadcasts against them (one row per
        autoscaler): the formula every batched walk runs, each element bitwise
        :meth:`nodes_for` of its demand pair under its row's autoscaler."""
        by_cpu = np.ceil(cpu_factor * cpu / cpu_capacity)
        by_mem = np.ceil(memory_factor * memory / memory_capacity)
        nodes = np.maximum(np.maximum(by_cpu, by_mem), 1.0)
        return np.where((cpu == 0.0) & (memory == 0.0), 0.0, nodes).astype(np.int64)


class StorageAutoscaler:
    """Computes the provisioned cloud storage capacity over time (Eq. 8).

    The initial capacity is twice the data size transferred during migration, and the
    capacity grows by the headroom factor whenever free space falls below the headroom
    fraction.  Capacity never shrinks (cloud volumes cannot be shrunk online).
    """

    def __init__(self, config: AutoscalerConfig | None = None) -> None:
        self.config = config or AutoscalerConfig()

    def initial_capacity_gb(self, migrated_data_gb: float) -> float:
        if migrated_data_gb < 0:
            raise ValueError("migrated data size must be non-negative")
        return 2.0 * migrated_data_gb

    def capacity_series(
        self, usage_series_gb: Sequence[float], migrated_data_gb: float
    ) -> List[float]:
        """Provisioned capacity at each time step for the given usage series."""
        delta = self.config.storage_headroom
        capacity = self.initial_capacity_gb(migrated_data_gb)
        series: List[float] = []
        for usage in usage_series_gb:
            if usage < 0:
                raise ValueError("storage usage must be non-negative")
            if capacity > 0 and (1.0 - usage / capacity) <= delta:
                capacity = float(math.ceil((1.0 + delta) * capacity))
            elif capacity == 0 and usage > 0:
                capacity = float(math.ceil((1.0 + delta) * usage))
            series.append(capacity)
        return series

    def capacity_matrix(
        self, usage_matrix: np.ndarray, migrated_gb: np.ndarray
    ) -> np.ndarray:
        """Provisioned capacity for a batch of usage series at once (vectorized Eq. 8).

        ``usage_matrix`` is ``(plans, steps)`` and ``migrated_gb`` the per-plan
        migrated data size; row ``p`` of the result equals
        ``capacity_series(usage_matrix[p], migrated_gb[p])`` element for element (the
        stateful capacity walk runs over the step axis with all plans advanced in
        lock-step, using the exact scalar float arithmetic).
        """
        usage = np.asarray(usage_matrix, dtype=np.float64)
        migrated = np.asarray(migrated_gb, dtype=np.float64)
        if usage.ndim != 2 or migrated.shape != (usage.shape[0],):
            raise ValueError("need a (plans, steps) usage matrix and one migrated size per plan")
        if usage.size and usage.min() < 0:
            raise ValueError("storage usage must be non-negative")
        if migrated.size and migrated.min() < 0:
            raise ValueError("migrated data size must be non-negative")
        delta = self.config.storage_headroom
        capacity = 2.0 * migrated
        out = np.empty_like(usage)
        for step in range(usage.shape[1]):
            used = usage[:, step]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                grow = (capacity > 0) & ((1.0 - used / capacity) <= delta)
            seed = (capacity == 0) & (used > 0)
            capacity = np.where(
                grow,
                np.ceil((1.0 + delta) * capacity),
                np.where(seed, np.ceil((1.0 + delta) * used), capacity),
            )
            out[:, step] = capacity
        return out
