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

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.autoscaler import AutoscalerConfig, ClusterAutoscaler, StorageAutoscaler
from ..cluster.placement import MigrationPlan
from ..cluster.topology import CLOUD, NodeSpec, ON_PREM
from ..learning.estimator import PLAN_BLOCK, ResourceEstimate, ordered_masked_sum
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
    ``(API, edge)`` entries in scalar iteration order; the ``entry_*`` arrays are the
    billed contributions of the model's billing arm in the same order — the entries
    themselves, or under ``charge_cloud_egress_only`` the request (caller's site)
    and response (callee's site) halves interleaved, ``entry_site`` naming the
    column whose location is billed (``None``: the link's own rate).
    """

    stateful_columns: np.ndarray
    stateful_names: Tuple[str, ...]
    stateful_baseline: np.ndarray
    stateful_gb: np.ndarray
    src_cols: np.ndarray
    dst_cols: np.ndarray
    total_bytes: np.ndarray
    entry_src: np.ndarray
    entry_dst: np.ndarray
    entry_site: Optional[np.ndarray]
    entry_bytes: np.ndarray


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
        charge_cloud_egress_only: bool = False,
        catalogs: Optional[Mapping[int, PricingCatalog]] = None,
    ) -> None:
        """``time_compression`` maps simulated time to real time (the workload generator
        compresses one day into five minutes, i.e. a factor of 288): prices are charged
        on real (uncompressed) time so a compressed day costs a full day's bill.

        ``catalogs`` maps each billable (elastic) location id to its pricing catalog;
        when omitted, ``catalog`` prices the single cloud at location ``CLOUD`` — the
        paper's two-location setup."""
        if time_compression <= 0:
            raise ValueError("time_compression must be positive")
        self.catalog = catalog
        self.estimate = estimate
        self.footprint = footprint
        self.storage_by_component = dict(storage_by_component)
        self.baseline_plan = baseline_plan
        self.time_compression = time_compression
        self.charge_cloud_egress_only = charge_cloud_egress_only
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
        # qcost is memoized by plan for the scalar (reference-oracle) path; the
        # batched pipeline scores each distinct plan exactly once and bypasses it.
        self._qcost_cache: Dict[MigrationPlan, float] = {}
        # Lowered views of the estimate/footprint for the plan-matrix pipeline,
        # keyed by the component order of the matrices.
        self._lowerings: Dict[Tuple[str, ...], "_CostLowering"] = {}
        self._rate_table_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        # Batched-path memo: per component order, raw plan-row bytes -> total USD.
        # Rows are scored independently, so cached values are bitwise stable no
        # matter which batch first computed them; this keeps feasibility masks and
        # objective scoring (and NSGA-II survivors across generations) from paying
        # the cost passes twice for the same plan.
        self._batch_cost_cache: Dict[Tuple[str, ...], Dict[bytes, float]] = {}
        # Same memo for the storage term alone, keyed by the bytes of a row's
        # *stateful* columns — all Eq. 9 reads — so rows that differ only in where
        # stateless components run share one capacity walk.
        self._storage_cost_cache: Dict[Tuple[str, ...], Dict[bytes, float]] = {}

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
        compile through (shocked prices, shrunk node specs).  Caches are per-model,
        so scenarios never cross-contaminate.
        """
        return CloudCostModel(
            catalog=self.catalog,
            estimate=estimate if estimate is not None else self.estimate,
            footprint=footprint if footprint is not None else self.footprint,
            storage_by_component=self.storage_by_component,
            baseline_plan=self.baseline_plan,
            time_compression=self.time_compression,
            charge_cloud_egress_only=self.charge_cloud_egress_only,
            catalogs=catalogs if catalogs is not None else self.catalogs,
        )

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
                if self.charge_cloud_egress_only:
                    # Request bytes are billed only when the caller sits at a billable
                    # site (they leave it), response bytes only when the callee does —
                    # each at its own site's rate.
                    if src_loc in self.catalogs:
                        rate = self.catalogs[src_loc].egress_usd_per_gb
                        bytes_by_rate[rate] = (
                            bytes_by_rate.get(rate, 0.0) + count * edge.request_bytes
                        )
                    if dst_loc in self.catalogs:
                        rate = self.catalogs[dst_loc].egress_usd_per_gb
                        bytes_by_rate[rate] = (
                            bytes_by_rate.get(rate, 0.0) + count * edge.response_bytes
                        )
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
            src_cols, dst_cols, total_bytes, request_bytes, response_bytes = (
                self.footprint.edge_arrays(total_requests, columns)
            )
            if self.charge_cloud_egress_only:
                entry_src, entry_dst = np.repeat(src_cols, 2), np.repeat(dst_cols, 2)
                entry_site = np.column_stack((src_cols, dst_cols)).ravel()
                entry_bytes = np.column_stack((request_bytes, response_bytes))
            else:
                entry_src, entry_dst, entry_site = src_cols, dst_cols, None
                entry_bytes = total_bytes
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
                entry_src=entry_src,
                entry_dst=entry_dst,
                entry_site=entry_site,
                entry_bytes=entry_bytes.reshape(-1, 1),
            )
            self._lowerings[key] = lowering
        return lowering

    def _rate_tables_for(
        self, max_location: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Egress-rate lookup tables over location ids ``0..max_location``.

        Returns ``(pair_bucket, site_bucket, billable, rates)``: the bucket index of
        every (src, dst) link rate and of every billable site's own rate, plus the
        distinct rate values each bucket maps to.
        """
        cached = self._rate_table_cache.get(max_location)
        if cached is None:
            n = max_location + 1
            pair_rate = [[self._egress_rate(a, b) for b in range(n)] for a in range(n)]
            site_rate = [
                self.catalogs[loc].egress_usd_per_gb if loc in self.catalogs else 0.0
                for loc in range(n)
            ]
            billable = np.asarray([loc in self.catalogs for loc in range(n)])
            rates = sorted(
                {rate for row in pair_rate for rate in row}
                | {rate for rate, is_billable in zip(site_rate, billable) if is_billable}
            )
            index_of = {rate: i for i, rate in enumerate(rates)}
            pair_bucket = np.asarray(
                [[index_of[rate] for rate in row] for row in pair_rate], dtype=np.int64
            )
            site_bucket = np.asarray(
                [index_of.get(rate, 0) for rate in site_rate], dtype=np.int64
            )
            cached = (
                pair_bucket, site_bucket, billable, np.asarray(rates, dtype=np.float64)
            )
            self._rate_table_cache[max_location] = cached
        return cached

    @staticmethod
    def _memoized_rows(
        cache: Dict[bytes, float],
        matrix: np.ndarray,
        score: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Per-row scores of ``matrix`` through a memo keyed by the rows' raw bytes.

        ``score`` sees each distinct unknown row once, as one sub-matrix.  Every
        kernel scores rows independently, so a memoized value carries the same bits
        no matter which batch first computed it.
        """
        row_size = matrix.shape[1] * matrix.itemsize
        buffer = matrix.tobytes()
        keys = [
            buffer[start : start + row_size]
            for start in range(0, matrix.shape[0] * row_size, row_size)
        ]
        unknown: Dict[bytes, int] = {}
        for row, key in enumerate(keys):
            if key not in cache and key not in unknown:
                unknown[key] = row
        if unknown:
            scores = score(matrix[list(unknown.values())])
            cache.update(zip(unknown, scores.tolist()))
        return np.asarray([cache[key] for key in keys], dtype=np.float64)

    def _compute_batch(
        self, matrix: np.ndarray, components: Sequence[str]
    ) -> np.ndarray:
        """Eq. 7 over a plan matrix: one vectorized autoscaler pass per billable site."""
        step_hours = self.real_step_ms / _MS_PER_HOUR
        totals = np.zeros(matrix.shape[0], dtype=np.float64)
        for location in sorted(self._cluster_autoscalers):
            members = matrix == location
            if not members.any():
                continue
            cpu = self.estimate.aggregate_matrix("cpu_millicores", members, components)
            memory = self.estimate.aggregate_matrix("memory_mb", members, components)
            nodes = self._cluster_autoscalers[location].nodes_for_series(cpu, memory)
            totals += (
                nodes.sum(axis=1)
                * self.catalogs[location].node_spec.hourly_price_usd
                * step_hours
            )
        return totals

    def _storage_batch(
        self, matrix: np.ndarray, components: Sequence[str], lowering: _CostLowering
    ) -> np.ndarray:
        """Eq. 9 over a plan matrix, memoized on each row's stateful placements."""
        if lowering.stateful_columns.size == 0:
            return np.zeros(matrix.shape[0], dtype=np.float64)
        return self._memoized_rows(
            self._storage_cost_cache.setdefault(tuple(components), {}),
            matrix[:, lowering.stateful_columns],
            lambda placements: self._storage_rows(placements, lowering),
        )

    def _storage_rows(
        self, placements: np.ndarray, lowering: _CostLowering
    ) -> np.ndarray:
        """Eq. 9 for ``(rows, stateful components)`` placements: one capacity walk per site.

        The migrated size sums the moved components' GB in column order, the
        provisioned total sums the capacity series in step order — the scalar path's
        two :func:`_left_sum` folds.
        """
        step_months = self.real_step_ms / _MS_PER_MONTH
        n_rows = placements.shape[0]
        totals = np.zeros(n_rows, dtype=np.float64)
        moved = placements != lowering.stateful_baseline
        for location in sorted(self._storage_autoscalers):
            at_site = placements == location
            if not at_site.any():
                continue
            migrated = ordered_masked_sum(lowering.stateful_gb, (at_site & moved).T)
            usage = self.estimate.aggregate_matrix(
                "storage_gb", at_site, lowering.stateful_names
            )
            capacity = self._storage_autoscalers[location].capacity_matrix(usage, migrated)
            provisioned = ordered_masked_sum(
                capacity.T, np.ones((capacity.shape[1], n_rows), dtype=bool)
            )
            totals += (
                provisioned
                * self.catalogs[location].storage_usd_per_gb_month
                * step_months
            )
        return totals

    def _traffic_batch(
        self, matrix: np.ndarray, lowering: _CostLowering
    ) -> np.ndarray:
        """Eq. 10 over a plan matrix, ``PLAN_BLOCK`` rows at a time.

        Rows are billed independently, so blocking the plan axis changes no bit; it
        keeps the ``(entries, buckets, plans)`` temporaries of :meth:`_traffic_rows`
        at a fixed size whatever the batch.
        """
        n_plans = matrix.shape[0]
        if lowering.entry_bytes.shape[0] == 0 or n_plans == 0:
            return np.zeros(n_plans, dtype=np.float64)
        tables = self._rate_tables_for(int(matrix.max()))
        totals = np.empty(n_plans, dtype=np.float64)
        for start in range(0, n_plans, PLAN_BLOCK):
            stop = start + PLAN_BLOCK
            totals[start:stop] = self._traffic_rows(matrix[start:stop], lowering, tables)
        return totals

    @staticmethod
    def _traffic_rows(
        matrix: np.ndarray,
        lowering: _CostLowering,
        tables: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> np.ndarray:
        """Eq. 10 for one block of plans with per-rate bucket accounting.

        Every bucket sums its contributions in the scalar entry order, and each
        plan's final sum walks its buckets in first-contribution order (the scalar
        dict's insertion order), so multi-rate topologies keep the exact float
        summation sequence.
        """
        pair_bucket, site_bucket, billable, rates = tables
        n_plans = matrix.shape[0]
        n_entries = lowering.entry_bytes.shape[0]
        src_locs = matrix[:, lowering.entry_src]
        dst_locs = matrix[:, lowering.entry_dst]
        billed = src_locs != dst_locs
        if lowering.entry_site is None:
            buckets = pair_bucket[src_locs, dst_locs]
        else:
            site_locs = matrix[:, lowering.entry_site]
            billed &= billable[site_locs]
            buckets = site_bucket[site_locs]
        # (entries, buckets, plans): which bucket each billed contribution lands in.
        into = (buckets.T[:, None, :] == np.arange(rates.size)[:, None]) & billed.T[
            :, None, :
        ]
        usd = (
            ordered_masked_sum(
                lowering.entry_bytes, into.reshape(n_entries, -1)
            ).reshape(rates.size, n_plans)
            / _BYTES_PER_GB
            * rates[:, None]
        )
        touched = into.any(axis=0)
        first_seen = np.where(touched, into.argmax(axis=0), n_entries)
        order = np.argsort(first_seen, axis=0, kind="stable")
        return ordered_masked_sum(
            np.take_along_axis(usd, order, axis=0),
            np.take_along_axis(touched, order, axis=0),
        )

    def qcost_batch(
        self, plan_matrix: np.ndarray, components: Sequence[str]
    ) -> np.ndarray:
        """Eq. 11 for a whole plan matrix at once — bitwise equal to per-plan ``qcost``.

        ``plan_matrix`` is ``(plans, len(components))`` integer location ids with
        ``components`` naming the columns.  Per-site accumulation order, autoscaler
        arithmetic and traffic bucketing replicate the scalar path exactly, so the
        result matches :meth:`qcost` bit for bit (the per-plan path stays the
        reference oracle).  Rows seen before (in any batch with the same component
        order) come from the batched memo; the per-plan memo cache of :meth:`qcost`
        is neither consulted nor filled.
        """
        matrix = np.asarray(plan_matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(components):
            raise ValueError("plan matrix must be (plans, len(components))")
        if matrix.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        if self.estimate.steps == 0:
            # Degenerate estimate: the scalar storage path has a one-step fallback
            # that is not worth vectorizing; score these plans through the oracle.
            return np.asarray(
                [
                    self.estimate_cost(
                        MigrationPlan.from_vector(components, row)
                    ).total_usd
                    for row in matrix.tolist()
                ]
            )
        lowering = self._lowering(components)
        return self._memoized_rows(
            self._batch_cost_cache.setdefault(tuple(components), {}),
            matrix,
            lambda rows: self._compute_batch(rows, components)
            + self._storage_batch(rows, components, lowering)
            + self._traffic_batch(rows, lowering),
        )

    # -- combined --------------------------------------------------------------------------
    def qcost(self, plan: MigrationPlan) -> float:
        """Total cost in USD over the period of interest (Eq. 11)."""
        cached = self._qcost_cache.get(plan)
        if cached is None:
            cached = self.estimate_cost(plan).total_usd
            self._qcost_cache[plan] = cached
        return cached

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
