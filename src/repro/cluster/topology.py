"""Multi-location topology: datacenters, node types and the cluster as a whole.

The paper's evaluation uses a two-datacenter hybrid cloud: a ten-node on-premises
cluster (CloudLab Wisconsin) and a public-cloud datacenter (Massachusetts) whose nodes
are allocated on demand through a cluster autoscaler.  This module captures that setup
— which locations exist, what hardware a node provides, how many nodes each site owns
— without prescribing where components run (that is a
:class:`repro.cluster.placement.MigrationPlan`).

The cluster is *not* limited to two sites: a :class:`HybridCluster` holds an arbitrary
list of :class:`Datacenter` objects with per-site node specs and elasticity, which is
how the N-location topologies (on-prem + several cloud regions, edge sites, ...) of the
sky-computing extension are expressed.  :func:`default_hybrid_cluster` builds the
paper's two-site testbed; :func:`default_multi_location_cluster` adds a second,
cheaper-but-farther cloud region as the built-in three-location testbed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

__all__ = [
    "ON_PREM",
    "CLOUD",
    "NodeSpec",
    "Datacenter",
    "HybridCluster",
    "default_hybrid_cluster",
    "default_multi_location_cluster",
    "require_finite",
]

#: Canonical location indices used throughout the code base (paper Sec. 4.1).  Location
#: 0 is always the on-premises site; every id >= 1 is a remote location (the paper's
#: single public cloud is id 1; additional regions/edge sites take ids 2, 3, ...).
ON_PREM = 0
CLOUD = 1


def require_finite(knobs: Mapping[str, object]) -> None:
    """Reject a NaN or infinite number among ``knobs`` (label -> value; values that
    are not numbers are skipped): every comparison with NaN is false, so a range
    check alone lets one through, and one NaN price, capacity or scenario value
    poisons every plan's aggregate."""
    for label, value in knobs.items():
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{label} must be finite, got {value!r}")


@dataclass(frozen=True)
class NodeSpec:
    """Hardware specification of one node type.

    ``cpu_millicores`` uses the Kubernetes convention (1 core = 1000 millicores).
    """

    name: str
    cpu_millicores: float
    memory_mb: float
    storage_gb: float = 480.0
    hourly_price_usd: float = 0.096

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if self.cpu_millicores <= 0 or self.memory_mb <= 0:
            raise ValueError("node CPU and memory must be positive")
        if self.hourly_price_usd < 0:
            raise ValueError("node price must be non-negative")

    @property
    def cpu_cores(self) -> float:
        return self.cpu_millicores / 1000.0

    def scaled(
        self,
        capacity_factor: float = 1.0,
        price_factor: float = 1.0,
    ) -> "NodeSpec":
        """A sibling spec with scaled capacity and/or price (the fault hook).

        ``capacity_factor`` shrinks/grows the node's CPU and memory together — a
        partial node-pool loss (:class:`~repro.quality.faults.CapacityCut`) models
        "each node effectively packs fewer pods", so the autoscaler allocates more
        nodes for the same demand.  ``price_factor`` scales the hourly rate
        (:class:`~repro.quality.faults.PriceShock`).
        """
        if capacity_factor <= 0:
            raise ValueError("capacity_factor must be positive")
        if price_factor < 0:
            raise ValueError("price_factor must be non-negative")
        return NodeSpec(
            name=self.name,
            cpu_millicores=self.cpu_millicores * capacity_factor,
            memory_mb=self.memory_mb * capacity_factor,
            storage_gb=self.storage_gb,
            hourly_price_usd=self.hourly_price_usd * price_factor,
        )


@dataclass
class Datacenter:
    """One datacenter (location) of the cluster.

    ``elastic`` datacenters allocate nodes on demand through a cluster autoscaler and
    are billed per allocated node; inelastic ones own a fixed ``node_count``.  Any
    number of either kind can coexist in one :class:`HybridCluster`.
    """

    name: str
    location_id: int
    node_spec: NodeSpec
    node_count: Optional[int] = None
    elastic: bool = False
    region: str = ""

    def __post_init__(self) -> None:
        if self.node_count is None and not self.elastic:
            raise ValueError(
                f"datacenter {self.name!r} must either be elastic or have a node_count"
            )
        if self.node_count is not None and self.node_count <= 0:
            raise ValueError("node_count must be positive when provided")

    # -- capacity ---------------------------------------------------------------
    def cpu_capacity_millicores(self) -> float:
        """Total CPU capacity; infinite for elastic (cloud) datacenters."""
        if self.elastic:
            return float("inf")
        return self.node_spec.cpu_millicores * (self.node_count or 0)

    def memory_capacity_mb(self) -> float:
        if self.elastic:
            return float("inf")
        return self.node_spec.memory_mb * (self.node_count or 0)

    def storage_capacity_gb(self) -> float:
        if self.elastic:
            return float("inf")
        return self.node_spec.storage_gb * (self.node_count or 0)

    def capacity(self, resource: str) -> float:
        """Capacity for a named resource: ``cpu`` / ``memory`` / ``storage``."""
        if resource == "cpu":
            return self.cpu_capacity_millicores()
        if resource == "memory":
            return self.memory_capacity_mb()
        if resource == "storage":
            return self.storage_capacity_gb()
        raise KeyError(f"unknown resource {resource!r}")


class HybridCluster:
    """A collection of datacenters forming the (multi-location) cluster.

    The default (and the paper's) configuration has exactly two: an inelastic on-prem
    datacenter and an elastic public cloud.  Arbitrary datacenter lists are supported —
    the placement search, quality models and simulator all operate on location ids, so
    the multi-cloud/sky-computing extension of Section 6 is just a longer list here
    plus a denser :class:`~repro.cluster.network.NetworkModel` link matrix.
    """

    def __init__(self, datacenters: List[Datacenter]) -> None:
        if not datacenters:
            raise ValueError("a hybrid cluster needs at least one datacenter")
        ids = [dc.location_id for dc in datacenters]
        if len(set(ids)) != len(ids):
            raise ValueError("datacenter location ids must be unique")
        self._by_id: Dict[int, Datacenter] = {dc.location_id: dc for dc in datacenters}

    # -- accessors --------------------------------------------------------------
    @property
    def datacenters(self) -> List[Datacenter]:
        return [self._by_id[i] for i in sorted(self._by_id)]

    @property
    def location_ids(self) -> List[int]:
        return sorted(self._by_id)

    def datacenter(self, location_id: int) -> Datacenter:
        try:
            return self._by_id[location_id]
        except KeyError:
            raise KeyError(f"unknown location id {location_id}") from None

    @property
    def on_prem(self) -> Datacenter:
        """The on-premises datacenter (location 0)."""
        return self.datacenter(ON_PREM)

    @property
    def cloud(self) -> Datacenter:
        """The first public-cloud datacenter (location 1).

        With more than two locations this is only *one* of the remote sites — use
        :meth:`elastic_datacenters` / :meth:`remote_datacenters` to enumerate all of
        them instead of assuming "not on-prem" means "the cloud".
        """
        return self.datacenter(CLOUD)

    def elastic_datacenters(self) -> List[Datacenter]:
        """Every autoscaled (pay-per-node) datacenter, in location-id order."""
        return [dc for dc in self.datacenters if dc.elastic]

    def remote_datacenters(self) -> List[Datacenter]:
        """Every datacenter other than the on-prem site, in location-id order."""
        return [dc for dc in self.datacenters if dc.location_id != ON_PREM]

    @property
    def n_locations(self) -> int:
        return len(self._by_id)

    def on_prem_capacity(self, resource: str) -> float:
        return self.on_prem.capacity(resource)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        parts = ", ".join(
            f"{dc.name}(id={dc.location_id}, elastic={dc.elastic})" for dc in self.datacenters
        )
        return f"HybridCluster({parts})"


def default_hybrid_cluster(
    on_prem_nodes: int = 10,
    on_prem_cpu_cores: float = 20.0,
    on_prem_memory_gb: float = 160.0,
    cloud_cpu_cores: float = 4.0,
    cloud_memory_gb: float = 16.0,
    cloud_hourly_price_usd: float = 0.096 * 2,
) -> HybridCluster:
    """The paper's evaluation setup.

    On-prem: ten CloudLab c220g2 nodes, each with 2x10 cores and 160 GB memory.
    Cloud: elastic m5.xlarge-class nodes allocated by the cluster autoscaler.
    """
    on_prem_spec = NodeSpec(
        name="c220g2",
        cpu_millicores=on_prem_cpu_cores * 1000.0,
        memory_mb=on_prem_memory_gb * 1024.0,
        storage_gb=480.0,
        hourly_price_usd=0.0,
    )
    cloud_spec = NodeSpec(
        name="cloud-node",
        cpu_millicores=cloud_cpu_cores * 1000.0,
        memory_mb=cloud_memory_gb * 1024.0,
        storage_gb=900.0,
        hourly_price_usd=cloud_hourly_price_usd,
    )
    return HybridCluster(
        [
            Datacenter(
                name="on-prem",
                location_id=ON_PREM,
                node_spec=on_prem_spec,
                node_count=on_prem_nodes,
                elastic=False,
                region="wisconsin",
            ),
            Datacenter(
                name="cloud",
                location_id=CLOUD,
                node_spec=cloud_spec,
                node_count=None,
                elastic=True,
                region="massachusetts",
            ),
        ]
    )


def default_multi_location_cluster(
    on_prem_nodes: int = 10,
    on_prem_cpu_cores: float = 20.0,
    on_prem_memory_gb: float = 160.0,
    extra_regions: Optional[List[Dict]] = None,
) -> HybridCluster:
    """The built-in three-location testbed: on-prem + two elastic cloud regions.

    Location 1 ("cloud-east") is the paper's Massachusetts datacenter; location 2
    ("cloud-west") is a farther but cheaper region.  ``extra_regions`` appends more
    elastic sites (each a dict of :class:`Datacenter` overrides with at least a
    ``name``), taking location ids 3, 4, ... in order.
    """
    base = default_hybrid_cluster(
        on_prem_nodes=on_prem_nodes,
        on_prem_cpu_cores=on_prem_cpu_cores,
        on_prem_memory_gb=on_prem_memory_gb,
    )
    datacenters = list(base.datacenters)
    datacenters[CLOUD].name = "cloud-east"
    west_spec = NodeSpec(
        name="cloud-node-west",
        cpu_millicores=4_000.0,
        memory_mb=16.0 * 1024.0,
        storage_gb=900.0,
        hourly_price_usd=0.096 * 1.6,
    )
    datacenters.append(
        Datacenter(
            name="cloud-west",
            location_id=2,
            node_spec=west_spec,
            node_count=None,
            elastic=True,
            region="oregon",
        )
    )
    for offset, overrides in enumerate(extra_regions or []):
        overrides = dict(overrides)
        name = overrides.pop("name")
        datacenters.append(
            Datacenter(
                name=name,
                location_id=3 + offset,
                node_spec=overrides.pop("node_spec", west_spec),
                node_count=overrides.pop("node_count", None),
                elastic=overrides.pop("elastic", True),
                region=overrides.pop("region", ""),
            )
        )
        if overrides:
            raise ValueError(
                f"unknown extra-region keys for {name!r}: {sorted(overrides)}"
            )
    return HybridCluster(datacenters)
