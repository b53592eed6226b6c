"""Cloud hosting cost modeling (Section 4.1.3 and Appendix A).

The cost of a migration plan has three parts:

* **Compute** (Eq. 6-7): each elastic datacenter's cluster autoscaler allocates enough
  nodes to host the expected CPU/memory demand of the components placed *at that site*
  with a headroom δ; each allocated node is charged at that site's hourly rate.
* **Storage** (Eq. 8-9): volumes at an elastic site start at twice the migrated data
  size and grow by the headroom factor whenever they fill up; provisioned GB are
  charged per month at that site's rate.
* **Network traffic** (Eq. 10): traffic between components placed in different
  datacenters is charged at the egress price of the link's endpoints; the expected
  volume is reconstructed from the learned per-API network footprints and the expected
  API traffic.

Prices default to the generalized catalog of Appendix A (m5.large-class node at
$0.096/h, $0.08/GB-month storage, $0.09/GB egress) and can be overridden to match any
provider's billing catalog.  In the paper's two-location setup a single catalog prices
the single cloud; for N-location topologies pass ``catalogs`` — a mapping from elastic
location id to that region's :class:`PricingCatalog` — and every region is autoscaled
and billed independently.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.autoscaler import AutoscalerConfig, ClusterAutoscaler, StorageAutoscaler
from ..cluster.placement import MigrationPlan
from ..cluster.topology import CLOUD, NodeSpec, ON_PREM, require_finite
from ..learning.estimator import PLAN_BLOCK, ResourceEstimate, SitePass, ordered_masked_sum
from ..learning.footprint import NetworkFootprint

__all__ = ["PricingCatalog", "CostEstimate", "CloudCostModel"]

_MS_PER_HOUR = 3_600_000.0
_MS_PER_MONTH = 30.0 * 24.0 * _MS_PER_HOUR
_BYTES_PER_GB = 1e9


def _left_sum(values: Iterable[float]) -> float:
    """``values`` added first to last from ``+0.0``.

    Not the builtin: ``sum()`` over floats is Neumaier-compensated from CPython 3.12
    on, and the batched kernels reproduce this plain left fold on every version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _grouped(items: Sequence, key: Callable = id) -> List[Tuple[object, List[int]]]:
    """``(first item, indices)`` per distinct ``key(item)``, in first-seen order."""
    if len(items) == 1:  # the classic pass: a stack of one
        return [(items[0], [0])]
    groups: Dict[object, Tuple[object, List[int]]] = {}
    for index, item in enumerate(items):
        group = groups.setdefault(key(item), (item, []))
        group[1].append(index)
    return list(groups.values())


def _distinct(items: Sequence) -> Tuple[List, List[int]]:
    """The distinct objects of ``items`` in first-seen order, and each item's index
    among them: a stacked pass computes once per object, never per value."""
    if len(items) == 1:
        return list(items), [0]
    groups = _grouped(items)
    index_of = [0] * len(items)
    for position, (_item, indices) in enumerate(groups):
        for index in indices:
            index_of[index] = position
    return [item for item, _indices in groups], index_of


@dataclass(frozen=True)
class PricingCatalog:
    """Cloud pricing knobs (Appendix A defaults)."""

    node_spec: NodeSpec = field(
        default_factory=lambda: NodeSpec(
            name="m5.large", cpu_millicores=2_000.0, memory_mb=8_192.0, hourly_price_usd=0.096
        )
    )
    storage_usd_per_gb_month: float = 0.08
    egress_usd_per_gb: float = 0.09
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if self.storage_usd_per_gb_month < 0 or self.egress_usd_per_gb < 0:
            raise ValueError("prices must be non-negative")


@dataclass
class CostEstimate:
    """Cost breakdown of one plan over the period of interest."""

    compute_usd: float
    storage_usd: float
    traffic_usd: float
    period_ms: float
    node_series: List[int] = field(default_factory=list)

    @property
    def total_usd(self) -> float:
        return self.compute_usd + self.storage_usd + self.traffic_usd

    def per_day_usd(self) -> float:
        """Total cost normalized to a 24-hour day (how Figures 11-14 report cost)."""
        if self.period_ms <= 0:
            return 0.0
        return self.total_usd * (24.0 * _MS_PER_HOUR / self.period_ms)

    def breakdown_per_day(self) -> Dict[str, float]:
        if self.period_ms <= 0:
            return {"compute": 0.0, "storage": 0.0, "traffic": 0.0}
        scale = 24.0 * _MS_PER_HOUR / self.period_ms
        return {
            "compute": self.compute_usd * scale,
            "storage": self.storage_usd * scale,
            "traffic": self.traffic_usd * scale,
        }


@dataclass
class _CostLowering:
    """One component order lowered onto arrays for the plan-matrix pipeline.

    The storage term reads only the stateful columns (``storage_gb > 0``), so those
    are lowered on their own: ``stateful_gb`` is the ``(S, 1)`` term column of the
    migrated-size sum.  ``src_cols`` / ``dst_cols`` / ``total_bytes`` describe the
    ``(API, edge)`` entries in scalar iteration order, each billed at its link's rate.
    """

    stateful_columns: np.ndarray
    stateful_names: Tuple[str, ...]
    stateful_baseline: np.ndarray
    stateful_gb: np.ndarray
    src_cols: np.ndarray
    dst_cols: np.ndarray
    total_bytes: np.ndarray


class CloudCostModel:
    """Computes QCost for any plan from a resource estimate and learned footprints."""

    def __init__(
        self,
        catalog: PricingCatalog,
        estimate: ResourceEstimate,
        footprint: NetworkFootprint,
        storage_by_component: Mapping[str, float],
        baseline_plan: MigrationPlan,
        time_compression: float = 1.0,
        catalogs: Optional[Mapping[int, PricingCatalog]] = None,
    ) -> None:
        """``time_compression`` maps simulated time to real time (the workload generator
        compresses one day into five minutes, i.e. a factor of 288): prices are charged
        on real (uncompressed) time so a compressed day costs a full day's bill.

        ``catalogs`` maps each billable (elastic) location id to its pricing catalog;
        when omitted, ``catalog`` prices the single cloud at location ``CLOUD`` — the
        paper's two-location setup."""
        require_finite({"time_compression": time_compression})
        if time_compression <= 0:
            raise ValueError("time_compression must be positive")
        self.catalog = catalog
        self.estimate = estimate
        self.footprint = footprint
        self.storage_by_component = dict(storage_by_component)
        self.baseline_plan = baseline_plan
        self.time_compression = time_compression
        #: Billable locations and their catalogs; every other location is free.
        self.catalogs: Dict[int, PricingCatalog] = (
            dict(catalogs) if catalogs is not None else {CLOUD: catalog}
        )
        self._cluster_autoscalers: Dict[int, ClusterAutoscaler] = {
            loc: ClusterAutoscaler(cat.node_spec, cat.autoscaler)
            for loc, cat in self.catalogs.items()
        }
        self._storage_autoscalers: Dict[int, StorageAutoscaler] = {
            loc: StorageAutoscaler(cat.autoscaler) for loc, cat in self.catalogs.items()
        }
        # Lowered views of the estimate/footprint for the plan-matrix pipeline,
        # keyed by the component order of the matrices.
        self._lowerings: Dict[Tuple[str, ...], "_CostLowering"] = {}
        self._rate_table_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # The storage term's memo, per component order: the raw bytes of a row's
        # *stateful* columns (all Eq. 9 reads) -> USD.  Rows that differ only in where
        # stateless components run share one capacity walk, and the keys are bounded
        # by the stateful placements, not by the plans scored.
        self._storage_cost_cache: Dict[Tuple[str, ...], Dict[bytes, float]] = {}
        # Lowered stacks of sibling models this model heads (see _CostStack.of).
        self._stacks: Dict[Tuple, "_CostStack"] = {}

    def __getstate__(self) -> Dict[str, object]:
        # Every memo is process-local and rebuilt on first use (and weak references
        # do not pickle): the keys stay, their values go.
        return {
            **self.__dict__,
            "_lowerings": {},
            "_rate_table_cache": {},
            "_storage_cost_cache": {},
            "_stacks": {},
        }

    def derive(
        self,
        estimate: Optional[ResourceEstimate] = None,
        footprint: Optional[NetworkFootprint] = None,
        catalogs: Optional[Mapping[int, PricingCatalog]] = None,
    ) -> "CloudCostModel":
        """A sibling cost model over a different period of interest / footprint.

        Used by the scenario axis: each compiled scenario bills its own resource
        estimate (autoscaler node series, storage usage, request-rate buckets) and
        payload-scaled footprint while sharing the catalogs, storage metadata and
        baseline plan.  ``catalogs`` overrides the per-location pricing — the fault
        hook :class:`~repro.quality.faults.PriceShock` / :class:`~repro.quality.faults.CapacityCut`
        compile through (shocked prices, shrunk node specs).  The storage memo is
        per-model, so scenarios never cross-contaminate; what only the catalogs
        determine — a site's autoscalers, the egress-rate tables — is shared with
        this model wherever the sibling keeps the same catalog objects, which is how
        :meth:`qcost_stack` walks one autoscaler for every scenario that bills it.
        """
        model = CloudCostModel(
            catalog=self.catalog,
            estimate=estimate if estimate is not None else self.estimate,
            footprint=footprint if footprint is not None else self.footprint,
            storage_by_component=self.storage_by_component,
            baseline_plan=self.baseline_plan,
            time_compression=self.time_compression,
            catalogs=catalogs if catalogs is not None else self.catalogs,
        )
        for location, catalog in model.catalogs.items():
            if self.catalogs.get(location) is catalog:
                model._cluster_autoscalers[location] = self._cluster_autoscalers[location]
                model._storage_autoscalers[location] = self._storage_autoscalers[location]
        if model.catalogs.keys() == self.catalogs.keys() and all(
            catalog is self.catalogs[location]
            for location, catalog in model.catalogs.items()
        ):
            model._rate_table_cache = self._rate_table_cache
        return model

    # -- individual terms -----------------------------------------------------------------
    @property
    def real_step_ms(self) -> float:
        return self.estimate.step_ms * self.time_compression

    def compute_cost(self, plan: MigrationPlan) -> Tuple[float, List[int]]:
        """Eq. 7: per-step node counts at every billable site, priced at its hourly rate.

        The returned series is the elementwise total across billable locations (use
        :meth:`node_series_by_location` for the per-site breakdown).
        """
        step_hours = self.real_step_ms / _MS_PER_HOUR
        cost = 0.0
        total_nodes: List[int] = []
        for location in sorted(self._cluster_autoscalers):
            members = plan.components_at(location)
            if not members:
                # An empty site allocates zero nodes at every step — skip the two
                # aggregation passes and the autoscaler walk on the GA hot path.
                continue
            cpu_series = self.estimate.aggregate_series("cpu_millicores", members)
            mem_series = self.estimate.aggregate_series("memory_mb", members)
            nodes = self._cluster_autoscalers[location].node_series(cpu_series, mem_series)
            cost += (
                sum(nodes) * self.catalogs[location].node_spec.hourly_price_usd * step_hours
            )
            if not total_nodes:
                total_nodes = list(nodes)
            else:
                total_nodes = [a + b for a, b in zip(total_nodes, nodes)]
        if not total_nodes:
            total_nodes = [0] * self.estimate.steps
        return cost, total_nodes

    def node_series_by_location(self, plan: MigrationPlan) -> Dict[int, List[int]]:
        """Per-step allocated node counts at each billable location."""
        series: Dict[int, List[int]] = {}
        for location, autoscaler in self._cluster_autoscalers.items():
            members = plan.components_at(location)
            cpu = self.estimate.aggregate_series("cpu_millicores", members)
            mem = self.estimate.aggregate_series("memory_mb", members)
            series[location] = autoscaler.node_series(cpu, mem)
        return series

    def storage_cost(self, plan: MigrationPlan) -> float:
        """Eq. 9: provisioned capacity series per billable site, priced per GB-month."""
        step_months = self.real_step_ms / _MS_PER_MONTH
        total = 0.0
        for location in sorted(self._storage_autoscalers):
            members = plan.components_at(location)
            moved_stateful = [
                c
                for c in members
                if self.storage_by_component.get(c, 0.0) > 0.0
                and plan[c] != self.baseline_plan[c]
            ]
            site_stateful = [
                c for c in members if self.storage_by_component.get(c, 0.0) > 0.0
            ]
            if not site_stateful:
                continue
            migrated_gb = _left_sum(self.storage_by_component[c] for c in moved_stateful)
            usage_series = self.estimate.aggregate_series("storage_gb", site_stateful)
            if not usage_series:
                usage_series = [_left_sum(self.storage_by_component[c] for c in site_stateful)]
            capacity = self._storage_autoscalers[location].capacity_series(
                usage_series, migrated_gb
            )
            total += (
                _left_sum(capacity)
                * self.catalogs[location].storage_usd_per_gb_month
                * step_months
            )
        return total

    def _egress_rate(self, loc_a: int, loc_b: int) -> float:
        """Egress price of one inter-location link: the priciest billable endpoint.

        A link with no billable endpoint (e.g. on-prem <-> an inelastic edge site)
        falls back to the primary catalog's flat inter-DC rate.
        """
        rates = [
            self.catalogs[loc].egress_usd_per_gb
            for loc in (loc_a, loc_b)
            if loc in self.catalogs
        ]
        return max(rates) if rates else self.catalog.egress_usd_per_gb

    def traffic_cost(self, plan: MigrationPlan) -> float:
        """Eq. 10: cross-datacenter traffic priced at the link's egress rate."""
        api_rates = self.estimate.api_rates
        if not api_rates:
            return 0.0
        total_requests = {api: sum(series) for api, series in api_rates.items()}
        # Bytes are accumulated per egress rate so regions with different prices bill
        # independently; in the single-catalog setup there is exactly one bucket and
        # the arithmetic is identical to the flat-rate accounting.
        bytes_by_rate: Dict[float, float] = {}
        for api, count in total_requests.items():
            if count <= 0:
                continue
            for (src, dst), edge in self.footprint.edges_of(api).items():
                src_loc, dst_loc = plan[src], plan[dst]
                if src_loc == dst_loc:
                    continue
                rate = self._egress_rate(src_loc, dst_loc)
                bytes_by_rate[rate] = (
                    bytes_by_rate.get(rate, 0.0) + count * edge.total_bytes
                )
        return _left_sum(
            total_bytes / _BYTES_PER_GB * rate
            for rate, total_bytes in bytes_by_rate.items()
        )

    # -- batched evaluation (plan-matrix pipeline) -----------------------------------------
    def _lowering(self, components: Sequence[str]) -> _CostLowering:
        key = tuple(components)
        lowering = self._lowerings.get(key)
        if lowering is None:
            columns = {c: i for i, c in enumerate(key)}
            stateful = [
                i for i, c in enumerate(key) if self.storage_by_component.get(c, 0.0) > 0.0
            ]
            total_requests = {
                api: sum(series) for api, series in self.estimate.api_rates.items()
            }
            src_cols, dst_cols, total_bytes = self.footprint.edge_arrays(
                total_requests, columns
            )
            lowering = _CostLowering(
                stateful_columns=np.asarray(stateful, dtype=np.intp),
                stateful_names=tuple(key[i] for i in stateful),
                stateful_baseline=np.asarray(
                    [self.baseline_plan[key[i]] for i in stateful], dtype=np.int64
                ),
                stateful_gb=np.asarray(
                    [self.storage_by_component[key[i]] for i in stateful],
                    dtype=np.float64,
                ).reshape(-1, 1),
                src_cols=src_cols,
                dst_cols=dst_cols,
                total_bytes=total_bytes,
            )
            self._lowerings[key] = lowering
        return lowering

    def _rate_tables_for(self, max_location: int) -> Tuple[np.ndarray, np.ndarray]:
        """Egress-rate lookup tables over location ids ``0..max_location``.

        Returns ``(pair_bucket, rates)``: the bucket index of every (src, dst) link
        rate, and the distinct rate values each bucket maps to.
        """
        cached = self._rate_table_cache.get(max_location)
        if cached is None:
            n = max_location + 1
            pair_rate = [[self._egress_rate(a, b) for b in range(n)] for a in range(n)]
            rates = sorted({rate for row in pair_rate for rate in row})
            index_of = {rate: i for i, rate in enumerate(rates)}
            pair_bucket = np.asarray(
                [[index_of[rate] for rate in row] for row in pair_rate], dtype=np.int64
            )
            cached = (pair_bucket, np.asarray(rates, dtype=np.float64))
            self._rate_table_cache[max_location] = cached
        return cached

    @staticmethod
    def qcost_stack(
        models: Sequence["CloudCostModel"],
        plan_matrix: np.ndarray,
        components: Sequence[str],
    ) -> np.ndarray:
        """Eq. 11 of a ``(plans, len(components))`` location matrix under several
        models: ``(len(models), plans)``, row ``s`` bitwise ``models[s].qcost`` of
        every plan (per-site accumulation order, autoscaler arithmetic and traffic
        bucketing replicate the scalar oracle); a classic call is the stack of one.

        The robust evaluator's scenario cost models are such a stack: what no
        scenario changes — the membership masks, the stateful placements, the bucket
        masks and their contribution order, an autoscaler walk over the estimates
        that share it — is done once, and what a scenario does change (its
        estimate's series, its billed bytes, its prices) rides along as extra columns
        of the same ordered reductions.  Models are grouped by identity, never by
        value (``derive`` shares what a sibling leaves unchanged), so a faulted
        scenario's own catalogs put it in its own groups by construction.
        """
        matrix = np.asarray(plan_matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(components):
            raise ValueError("plan matrix must be (plans, len(components))")
        key = tuple(components)
        stack = _CostStack.of(models, key)
        return stack.qcost(models, matrix, stack.sites.aggregate(matrix))

    # -- combined --------------------------------------------------------------------------
    def qcost(self, plan: MigrationPlan) -> float:
        """Total cost in USD over the period of interest (Eq. 11)."""
        return self.estimate_cost(plan).total_usd

    def estimate_cost(self, plan: MigrationPlan) -> CostEstimate:
        compute, nodes = self.compute_cost(plan)
        period_ms = self.estimate.steps * self.real_step_ms
        return CostEstimate(
            compute_usd=compute,
            storage_usd=self.storage_cost(plan),
            traffic_usd=self.traffic_cost(plan),
            period_ms=period_ms,
            node_series=nodes,
        )


# ---------------------------------------------------------------------------
# Stacked kernels: one plan matrix under several sibling cost models
# ---------------------------------------------------------------------------

#: Storage walk = ``(autoscaler, the reads of the pass it walks, bills)``; a bill is
#: ``(model row, position among the walked reads, price, step in months)``.
_StorageWalk = Tuple[object, List[int], List[Tuple[int, int, float, float]]]


def _storage_sites(
    models: Sequence[CloudCostModel], columns: Sequence[str]
) -> Tuple[SitePass, List[List[_StorageWalk]]]:
    """The storage term's site pass over the stateful ``columns`` — every
    storage-billable site of ``models``, sorted, reading each distinct estimate's
    ``storage_gb`` — and per site one capacity walk per distinct storage autoscaler."""
    estimates, estimate_of = _distinct([model.estimate for model in models])
    locations = sorted({loc for model in models for loc in model._storage_autoscalers})
    site_walks: List[List[_StorageWalk]] = []
    for location in locations:
        billing = [
            row for row, model in enumerate(models) if location in model._storage_autoscalers
        ]
        walks: List[_StorageWalk] = []
        for autoscaler, indices in _grouped(
            [models[row]._storage_autoscalers[location] for row in billing]
        ):
            reads = sorted({estimate_of[billing[index]] for index in indices})
            bills = []
            for index in indices:
                model = models[billing[index]]
                bills.append(
                    (
                        billing[index],
                        reads.index(estimate_of[billing[index]]),
                        model.catalogs[location].storage_usd_per_gb_month,
                        model.real_step_ms / _MS_PER_MONTH,
                    )
                )
            walks.append((autoscaler, reads, bills))
        site_walks.append(walks)
    reads = [(estimate, "storage_gb") for estimate in estimates]
    return SitePass(reads, locations, columns), site_walks


def _storage_groups(
    models: Sequence[CloudCostModel], lowerings: Sequence[_CostLowering]
) -> List[Tuple[List[int], _CostLowering, Tuple[SitePass, List[List[_StorageWalk]]]]]:
    """Models whose lowerings hold the same stateful columns, baselines and GB, and
    whose estimates the same step count, with their storage sites."""
    groups = []
    for (lowering, _model), rows in _grouped(
        list(zip(lowerings, models)),
        lambda pair: (
            pair[0].stateful_columns.tobytes(),
            pair[0].stateful_baseline.tobytes(),
            pair[0].stateful_gb.tobytes(),
            pair[1].estimate.steps,
        ),
    ):
        if lowering.stateful_columns.size:
            sites = _storage_sites([models[row] for row in rows], lowering.stateful_names)
            groups.append((rows, lowering, sites))
    return groups


def _traffic_groups(
    models: Sequence[CloudCostModel], lowerings: Sequence[_CostLowering]
) -> List[Tuple[List[int], _CostLowering, np.ndarray]]:
    """Models that bill the same entries (equal edge columns) at the same rate tables
    (one shared cache), with their billed bytes side by side: ``(entries, 1, models)``."""
    groups = []
    for (lowering, _model), rows in _grouped(
        list(zip(lowerings, models)),
        lambda pair: (
            pair[0].src_cols.tobytes(),
            pair[0].dst_cols.tobytes(),
            id(pair[1]._rate_table_cache),
        ),
    ):
        if lowering.total_bytes.size:
            entry_bytes = np.column_stack([lowerings[row].total_bytes for row in rows])
            groups.append((rows, lowering, entry_bytes[:, None, :]))
    return groups


class _CostStack:
    """One tuple of sibling cost models lowered onto one component order.

    What :meth:`CloudCostModel.qcost_stack` reads that no plan matrix changes, built
    once per tuple and cached on its first model, holding the models and estimates
    only weakly (``refs`` tell a live entry from a stale one):

    * ``sites`` — the one site pass (:class:`~repro.learning.estimator.SitePass`):
      every billable site, plus the on-prem site when ``onprem_reads`` — the
      ``(estimate, resource)`` pairs the call's on-prem peak constraint reads —
      ask for it, so QCost and the peaks aggregate every site once per call;
    * ``blocks`` — Eq. 7's walks, one per (billable site, distinct cluster
      autoscaler there, distinct estimate it bills), in blocks whose cpu and memory
      reads each sit in one group of the pass (one block on a learned estimate):
      a block's demand is one take per resource and its node counts one formula
      over its autoscalers' broadcast
      :attr:`~repro.cluster.autoscaler.ClusterAutoscaler.constants`;
    * ``bills`` — ``(model row, walk, price, step hours)`` in site order, then walk
      order: each model's scalar site order;
    * the storage and traffic groups.

    A step-less estimate walks no steps: its compute and traffic bill ``+0.0`` and
    its storage bills the static stateful GB for one step (:func:`_capacity_rows`).
    """

    #: Entries kept per first model; a robust search reuses one tuple call after call.
    CACHED = 8

    def __init__(
        self,
        models: Sequence[CloudCostModel],
        key: Tuple[str, ...],
        onprem_reads: Sequence[Tuple[ResourceEstimate, str]] = (),
    ) -> None:
        self.refs = tuple(
            weakref.ref(item) for item in (*models, *(e for e, _r in onprem_reads))
        )
        self.key = key
        distinct, _model_of = _distinct(models)
        reads: List[Tuple[ResourceEstimate, str]] = []
        index_of: Dict[Tuple[int, str], int] = {}

        def read(estimate: ResourceEstimate, resource: str) -> int:
            name = (id(estimate), resource)
            if name not in index_of:
                index_of[name] = len(reads)
                reads.append((estimate, resource))
            return index_of[name]

        billable = sorted({loc for model in distinct for loc in model._cluster_autoscalers})
        walks: List[Tuple[int, int, int, Tuple[float, ...]]] = []
        self.bills: List[Tuple[int, int, float, float]] = []
        for site, location in enumerate(billable):
            billing = [
                (row, model)
                for row, model in enumerate(distinct)
                if location in model._cluster_autoscalers
            ]
            for autoscaler, indices in _grouped(
                [model._cluster_autoscalers[location] for _row, model in billing]
            ):
                walk_of: Dict[int, int] = {}
                for index in indices:
                    row, model = billing[index]
                    estimate = model.estimate
                    if id(estimate) not in walk_of:
                        walk_of[id(estimate)] = len(walks)
                        walks.append(
                            (
                                site,
                                read(estimate, "cpu_millicores"),
                                read(estimate, "memory_mb"),
                                autoscaler.constants,
                            )
                        )
                    self.bills.append(
                        (
                            row,
                            walk_of[id(estimate)],
                            model.catalogs[location].node_spec.hourly_price_usd,
                            model.real_step_ms / _MS_PER_HOUR,
                        )
                    )
        self.onprem = {(id(e), r): read(e, r) for e, r in onprem_reads}
        sites = billable + ([ON_PREM] if onprem_reads and ON_PREM not in billable else [])
        self.onprem_site = sites.index(ON_PREM) if ON_PREM in sites else None
        self.sites = SitePass(reads, sites, key)
        self.n_walks = len(walks)
        blocks: Dict[Tuple[int, int], List[int]] = {}
        for walk, (_site, cpu, memory, _constants) in enumerate(walks):
            groups = (self.sites.slots[cpu][0], self.sites.slots[memory][0])
            blocks.setdefault(groups, []).append(walk)
        self.blocks = [
            (
                groups,
                np.asarray(members, dtype=np.intp),
                np.asarray([walks[walk][0] for walk in members], dtype=np.intp),
                [
                    np.asarray(
                        [self.sites.slots[walks[walk][k]][1] for walk in members],
                        dtype=np.intp,
                    )
                    for k in (1, 2)
                ],
                [
                    np.asarray(
                        [walks[walk][3][k] for walk in members], dtype=np.float64
                    ).reshape(-1, 1, 1)
                    for k in range(4)
                ],
            )
            for groups, members in blocks.items()
        ]
        lowerings = [model._lowering(key) for model in distinct]
        self.storage = _storage_groups(distinct, lowerings)
        self.traffic = _traffic_groups(distinct, lowerings)

    @classmethod
    def of(
        cls,
        models: Sequence[CloudCostModel],
        key: Tuple[str, ...],
        onprem_reads: Sequence[Tuple[ResourceEstimate, str]] = (),
    ) -> "_CostStack":
        stacks = models[0]._stacks
        name = (tuple(map(id, models)), key, tuple((id(e), r) for e, r in onprem_reads))
        stack = stacks.get(name)
        if stack is None or any(
            ref() is not item
            for ref, item in zip(stack.refs, (*models, *(e for e, _r in onprem_reads)))
        ):
            if len(stacks) >= cls.CACHED:
                stacks.clear()
            stack = stacks[name] = cls(models, key, onprem_reads)
        return stack

    def nodes(self, sums: Sequence[np.ndarray], n_plans: int) -> np.ndarray:
        """Per-step node totals of every walk over the pass ``sums``: ``(walks, plans)``."""
        nodes = np.empty((self.n_walks, n_plans), dtype=np.int64)
        for (cpu_group, memory_group), walks, sites, reads, constants in self.blocks:
            cpu = sums[cpu_group][sites, :, reads[0]]
            memory = sums[memory_group][sites, :, reads[1]]
            if cpu.size and (cpu.min() < 0 or memory.min() < 0):
                raise ValueError("resource demand must be non-negative")
            counts = ClusterAutoscaler.node_counts(cpu, memory, *constants)
            nodes[walks] = counts.sum(axis=2)
        return nodes

    def qcost(
        self,
        models: Sequence[CloudCostModel],
        matrix: np.ndarray,
        sums: Sequence[np.ndarray],
    ) -> np.ndarray:
        """Eq. 11 of every row of ``matrix`` under ``models`` (the tuple the stack was
        built for), from the stack's site pass ``sums``: ``(len(models), rows)``."""
        n_plans = matrix.shape[0]
        distinct, model_of = _distinct(models)
        if n_plans == 0:
            return np.zeros((len(models), 0), dtype=np.float64)
        totals = (
            _compute_rows(self.nodes(sums, n_plans), self.bills, len(distinct))
            + _storage_rows(distinct, matrix, self.key, self.storage)
            + _traffic_rows(distinct, matrix, self.traffic)
        )
        return totals if len(distinct) == len(models) else totals[model_of]

    def peaks(
        self, sums: Sequence[np.ndarray], estimate: ResourceEstimate, resource: str
    ) -> np.ndarray:
        """Per-plan on-prem peak of one of the stack's on-prem reads."""
        read = self.onprem[(id(estimate), resource)]
        return self.sites.peaks(sums, self.onprem_site, read)


def _compute_rows(
    nodes: np.ndarray, bills: Sequence[Tuple[int, int, float, float]], n_models: int
) -> np.ndarray:
    """Eq. 7 under ``n_models`` models from the walks' node totals: ``(n_models, plans)``.

    Each model prices its own node counts at its site rate and step length, site by
    site in its own (sorted) order.
    """
    totals = np.zeros((n_models, nodes.shape[1]), dtype=np.float64)
    for row, walk, price, step_hours in bills:
        totals[row] += nodes[walk] * price * step_hours
    return totals


def _storage_rows(
    models: Sequence[CloudCostModel],
    matrix: np.ndarray,
    key: Tuple[str, ...],
    groups: Sequence[Tuple[List[int], _CostLowering, Tuple[SitePass, List]]],
) -> np.ndarray:
    """Eq. 9 under several models, memoized on each row's stateful placements.

    A group's models share one placement gather, one set of memo keys (a row's raw
    placement bytes, cut once) and one capacity pass (:func:`_capacity_rows`) over
    the distinct placements some memo lacks, which every memo then holds.  The
    pass scores rows independently, so a memoized value carries the same bits no
    matter which batch, or which stack of models, first computed it.
    """
    totals = np.zeros((len(models), matrix.shape[0]), dtype=np.float64)
    for rows, lowering, sites in groups:
        caches = [models[row]._storage_cost_cache.setdefault(key, {}) for row in rows]
        placements = matrix[:, lowering.stateful_columns]
        row_size = placements.shape[1] * placements.itemsize
        buffer = placements.tobytes()
        keys = [
            buffer[start : start + row_size] for start in range(0, len(buffer), row_size)
        ]
        unknown: Dict[bytes, int] = {}
        for cache in caches:
            for row, placement in enumerate(keys):
                if placement not in cache and placement not in unknown:
                    unknown[placement] = row
        if unknown:
            scores = _capacity_rows(
                placements[list(unknown.values())], lowering, sites, len(rows)
            )
            for cache, values in zip(caches, scores.tolist()):
                cache.update(zip(unknown, values))
        totals[rows] = [[cache[placement] for placement in keys] for cache in caches]
    return totals


def _capacity_rows(
    placements: np.ndarray,
    lowering: _CostLowering,
    sites: Tuple[SitePass, List[List[_StorageWalk]]],
    n_models: int,
) -> np.ndarray:
    """Eq. 9 for ``(rows, stateful components)`` placements: ``(n_models, rows)``.

    One site pass over the stateful columns, then per site one capacity walk per
    distinct storage autoscaler, over the usage of every estimate it bills at once.
    The migrated size sums the moved components' GB in column order, the
    provisioned total sums the capacity series in step order — the scalar path's
    two :func:`_left_sum` folds.  A step-less estimate's usage is the site's stateful
    GB summed in column order, the scalar path's one-step fallback.
    """
    site_pass, site_walks = sites
    n_rows = placements.shape[0]
    totals = np.zeros((n_models, n_rows), dtype=np.float64)
    moved = placements != lowering.stateful_baseline
    sums = site_pass.aggregate(placements)
    for site, (location, walks) in enumerate(zip(site_pass.sites.tolist(), site_walks)):
        at_site = placements == location
        if not at_site.any():
            continue
        migrated = ordered_masked_sum(lowering.stateful_gb, (at_site & moved).T)
        for autoscaler, reads, bills in walks:
            used = site_pass.take(sums, site, reads)
            width = used.shape[1]
            if used.shape[2]:
                usage = used.reshape(n_rows * width, used.shape[2])
            else:
                static = ordered_masked_sum(lowering.stateful_gb, at_site.T)
                usage = np.repeat(static, width)[:, None]
            capacity = autoscaler.capacity_matrix(usage, np.repeat(migrated, width))
            provisioned = ordered_masked_sum(
                capacity.T, np.ones(capacity.T.shape, dtype=bool)
            ).reshape(n_rows, width)
            for row, column, price, step_months in bills:
                totals[row] += provisioned[:, column] * price * step_months
    return totals


def _traffic_rows(
    models: Sequence[CloudCostModel],
    matrix: np.ndarray,
    groups: Sequence[Tuple[List[int], _CostLowering, np.ndarray]],
) -> np.ndarray:
    """Eq. 10 under several models, ``PLAN_BLOCK`` rows at a time.

    A group's models bill the same entries at the same rate tables: they share the
    bucket masks and the first-contribution order, and their billed bytes are the
    extra columns of the two ordered sums of :func:`_traffic_block`.  Rows are
    billed independently, so blocking the plan axis changes no bit; it keeps the
    ``(entries, buckets, plans)`` temporaries at a fixed size whatever the batch.
    """
    n_plans = matrix.shape[0]
    totals = np.zeros((len(models), n_plans), dtype=np.float64)
    if n_plans == 0:
        return totals
    max_location = int(matrix.max())
    for rows, lowering, entry_bytes in groups:
        tables = models[rows[0]]._rate_tables_for(max_location)
        for start in range(0, n_plans, PLAN_BLOCK):
            stop = start + PLAN_BLOCK
            totals[rows, start:stop] = _traffic_block(
                matrix[start:stop], lowering, entry_bytes, tables
            ).T
    return totals


def _traffic_block(
    matrix: np.ndarray,
    lowering: _CostLowering,
    entry_bytes: np.ndarray,
    tables: Tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Eq. 10 for one block of plans with per-rate bucket accounting: ``(plans, G)``.

    ``entry_bytes`` is ``(entries, 1, G)``: the billed bytes of ``G`` models that
    share ``lowering``'s entries.  Every bucket sums its contributions in the scalar
    entry order, and each plan's final sum walks its buckets in first-contribution
    order (the scalar dict's insertion order), so multi-rate topologies keep the
    exact float summation sequence.
    """
    pair_bucket, rates = tables
    n_plans = matrix.shape[0]
    n_entries = entry_bytes.shape[0]
    src_locs = matrix[:, lowering.src_cols]
    dst_locs = matrix[:, lowering.dst_cols]
    billed = src_locs != dst_locs
    buckets = pair_bucket[src_locs, dst_locs]
    # (entries, buckets, plans): which bucket each billed contribution lands in.
    into = (buckets.T[:, None, :] == np.arange(rates.size)[:, None]) & billed.T[:, None, :]
    usd = (
        ordered_masked_sum(entry_bytes, into.reshape(n_entries, -1)).reshape(
            rates.size, n_plans, -1
        )
        / _BYTES_PER_GB
        * rates[:, None, None]
    )
    if rates.size <= 2:
        # Two doubles add commutatively (and an untouched bucket holds +0.0), so
        # every bucket order is the scalar dict's insertion order.
        return usd.sum(axis=0)
    touched = into.any(axis=0)
    first_seen = np.where(touched, into.argmax(axis=0), n_entries)
    # Each plan's buckets in first-contribution order: (buckets, plans) gathers.
    order = (np.argsort(first_seen, axis=0, kind="stable"), np.arange(n_plans))
    return ordered_masked_sum(usd[order], touched[order])
