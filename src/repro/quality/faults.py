"""Composable infrastructure faults riding the scenario axis.

The scenario axis (``quality/scenarios.py``) describes *workload* futures — rate
bursts, mix shifts, payload growth.  This module adds the *infrastructure* futures a
robustness certificate has to price: a region going down, a link degrading, a
provider repricing, a node pool shrinking.  Each :class:`FaultSpec` is a small frozen
description that compiles into the existing scenario-view machinery, so a faulted
:class:`~repro.quality.scenarios.ScenarioSpec` evaluates through exactly the same
S×P batched pipeline, aggregators and optimizers as a workload-only one:

* :class:`LocationOutage` — a location's capacity goes to zero: components are
  forcibly evacuated (placements there become constraint violations, expressed
  through derived preferences), links into the site degrade to time-out-like
  characteristics (QPerf prices stranded cross-site edges against them), and the
  availability model charges migrations into the failed site a heavy
  failure-domain weight (QAvai degradation).
* :class:`LinkDegradation` — scale or sever specific
  :class:`~repro.cluster.network.NetworkModel` links (latency × factor + flat add,
  bandwidth × factor); the faulted network feeds a performance scenario view whose
  per-API Δ tables reprice every relocated edge.
* :class:`PriceShock` — per-region :class:`~repro.quality.cost.PricingCatalog`
  multipliers on compute/storage/egress prices.
* :class:`CapacityCut` — partial node-pool loss: an elastic site's node spec
  shrinks (the autoscaler packs fewer pods per node, allocating more of them), the
  on-prem site's resource limits shrink (plans leaning on on-prem capacity become
  infeasible).

Compilation happens in :func:`~repro.quality.scenarios.compile_scenario`: the faults
of a spec are applied in order to a :class:`FaultedStack` holding the scenario's
network/availability/catalog/preference artifacts, and the resulting derived models
are baked into the compiled scenario exactly like payload-scaled footprints are.
Fault-free specs never construct a stack, keeping the fault-free path byte-identical
to the pre-fault evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..cluster.network import NetworkModel
from ..cluster.topology import ON_PREM, require_finite
from .availability import ApiAvailabilityModel
from .cost import PricingCatalog
from .preferences import MigrationPreferences

__all__ = [
    "FaultSpec",
    "FaultedStack",
    "LocationOutage",
    "LinkDegradation",
    "PriceShock",
    "CapacityCut",
]

#: The on-prem resource axes the peak constraint can limit (mirrors
#: ``repro.quality.problem.ONPREM_RESOURCES``; kept literal to avoid an import
#: cycle through the problem module).
_ONPREM_RESOURCES = ("cpu_millicores", "memory_mb", "storage_gb")


@dataclass
class FaultedStack:
    """Mutable bundle of scenario artifacts the faults of one spec transform in order.

    Built by :func:`~repro.quality.scenarios.compile_scenario` from the base stack,
    mutated by each :meth:`FaultSpec.apply` in declaration order, then read back into
    the compiled scenario.  Identity comparisons against the base objects tell which
    artifacts actually changed (e.g. an unchanged network keeps the performance
    view's ``changed_apis`` optimization available).
    """

    network: NetworkModel
    availability: ApiAvailabilityModel
    catalogs: Dict[int, PricingCatalog]
    preferences: MigrationPreferences
    locations: Tuple[int, ...]
    catalogs_changed: bool = False


@dataclass(frozen=True)
class FaultSpec:
    """One composable infrastructure fault; subclasses define the transformation.

    Subclasses must be frozen, hold only hashable scalar/tuple parameters, provide
    a stable :meth:`key` (it enters the owning spec's ``compile_key``) and declare
    the bounds of their searchable parameters through class-level documentation —
    the adversary (``quality/adversary.py``) mutates them only within the ranges
    its :class:`~repro.quality.adversary.AdversaryBounds` declare.
    """

    def key(self) -> Tuple:
        """Stable hashable identity of this fault's compiled effect."""
        raise NotImplementedError

    def apply(self, stack: FaultedStack) -> None:
        """Transform the scenario artifact stack in place."""
        raise NotImplementedError


@dataclass(frozen=True)
class LocationOutage(FaultSpec):
    """A location fails: capacity → 0, components evacuated, links degraded.

    ``availability_penalty`` (≥ 1) multiplies the failed site's failure-domain
    weight in QAvai — migrating state *into* a failing site is charged that much
    more heavily.  ``latency_factor`` / ``bandwidth_factor`` degrade every link
    touching the site (time-out-like characteristics rather than severed links, so
    the delay injector stays total).  With ``evacuate`` (default), placements at
    the failed remote site become whitelist violations — except for components the
    owner *pinned* there, which cannot move by definition and instead pay the
    availability/performance penalties.  An on-prem outage is expressed through
    zeroed on-prem resource limits instead (the whitelist always admits on-prem).
    """

    location: int
    availability_penalty: float = 4.0
    latency_factor: float = 50.0
    bandwidth_factor: float = 0.05
    evacuate: bool = True

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if self.location < 0:
            raise ValueError("location must be a non-negative id")
        if self.availability_penalty < 1.0:
            raise ValueError(
                "availability_penalty must be >= 1 (an outage never makes a "
                "destination safer)"
            )
        if self.latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1 for an outage")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")

    def key(self) -> Tuple:
        return (
            "location-outage",
            int(self.location),
            float(self.availability_penalty),
            float(self.latency_factor),
            float(self.bandwidth_factor),
            bool(self.evacuate),
        )

    def apply(self, stack: FaultedStack) -> None:
        site = int(self.location)
        # Links touching the failed site degrade to time-out-like characteristics.
        pairs = [(site, other) for other in stack.network.locations()]
        stack.network = stack.network.degraded(
            pairs=pairs,
            latency_factor=self.latency_factor,
            bandwidth_factor=self.bandwidth_factor,
        )
        # Migrations into the failed site carry a heavy failure-domain weight.
        weights = dict(stack.availability.location_weights)
        weights[site] = max(weights.get(site, 1.0), 1.0) * self.availability_penalty
        stack.availability = stack.availability.derive(location_weights=weights)
        if not self.evacuate:
            return
        if site == ON_PREM:
            # On-prem capacity goes to zero: every resource axis the peak
            # constraint understands is limited to nothing.
            limits = dict(stack.preferences.onprem_limits)
            for resource in _ONPREM_RESOURCES:
                limits[resource] = 0.0
            stack.preferences = replace(stack.preferences, onprem_limits=limits)
            return
        survivors = tuple(loc for loc in stack.locations if loc != site)
        allowed: Dict[str, Tuple[int, ...]] = {}
        for component in stack.availability.baseline_plan.components:
            if stack.preferences.pinned_placement.get(component) == site:
                # A pin into the failed site cannot be evacuated; keep the site
                # admissible so the preference object stays constructible — the
                # availability/performance penalties price the outage instead.
                continue
            existing = stack.preferences.allowed_locations.get(component)
            allowed[component] = (
                survivors
                if existing is None
                else tuple(loc for loc in existing if loc != site)
            )
        stack.preferences = replace(stack.preferences, allowed_locations=allowed)


@dataclass(frozen=True)
class LinkDegradation(FaultSpec):
    """Scale or penalize specific network links (all inter-site links by default).

    ``latency_factor`` multiplies and ``extra_latency_ms`` adds to each selected
    link's round-trip latency; ``bandwidth_factor`` multiplies its bandwidth.  A
    "severed" link is modeled as an extreme degradation (huge latency factor, tiny
    bandwidth factor) so the delay injector stays total over the plan space.
    """

    pairs: Optional[Tuple[Tuple[int, int], ...]] = None
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    extra_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if self.latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1 (degradation, not upgrade)")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        if self.extra_latency_ms < 0:
            raise ValueError("extra_latency_ms must be non-negative")
        if self.pairs is not None:
            normalized = tuple(
                (int(a), int(b)) if a <= b else (int(b), int(a))
                for a, b in self.pairs
            )
            object.__setattr__(self, "pairs", normalized)

    def key(self) -> Tuple:
        return (
            "link-degradation",
            self.pairs,
            float(self.latency_factor),
            float(self.bandwidth_factor),
            float(self.extra_latency_ms),
        )

    def apply(self, stack: FaultedStack) -> None:
        stack.network = stack.network.degraded(
            pairs=self.pairs,
            latency_factor=self.latency_factor,
            bandwidth_factor=self.bandwidth_factor,
            extra_latency_ms=self.extra_latency_ms,
        )


@dataclass(frozen=True)
class PriceShock(FaultSpec):
    """Per-region pricing-catalog multipliers (compute / storage / egress).

    ``locations`` selects which billable regions reprice (default: all of them).
    """

    locations: Optional[Tuple[int, ...]] = None
    compute_factor: float = 1.0
    storage_factor: float = 1.0
    egress_factor: float = 1.0

    def __post_init__(self) -> None:
        require_finite(vars(self))
        for label, factor in (
            ("compute_factor", self.compute_factor),
            ("storage_factor", self.storage_factor),
            ("egress_factor", self.egress_factor),
        ):
            if factor < 0:
                raise ValueError(f"{label} must be non-negative")
        if self.locations is not None:
            object.__setattr__(
                self, "locations", tuple(int(loc) for loc in self.locations)
            )

    def key(self) -> Tuple:
        return (
            "price-shock",
            self.locations,
            float(self.compute_factor),
            float(self.storage_factor),
            float(self.egress_factor),
        )

    def apply(self, stack: FaultedStack) -> None:
        targets = (
            self.locations if self.locations is not None else tuple(stack.catalogs)
        )
        for location in targets:
            catalog = stack.catalogs.get(location)
            if catalog is None:
                continue
            stack.catalogs[location] = PricingCatalog(
                node_spec=catalog.node_spec.scaled(price_factor=self.compute_factor),
                storage_usd_per_gb_month=catalog.storage_usd_per_gb_month
                * self.storage_factor,
                egress_usd_per_gb=catalog.egress_usd_per_gb * self.egress_factor,
                autoscaler=catalog.autoscaler,
            )
            stack.catalogs_changed = True


@dataclass(frozen=True)
class CapacityCut(FaultSpec):
    """Partial node-pool loss at one location.

    ``remaining_fraction`` of the site's capacity survives.  At an elastic site the
    node spec shrinks (same price, fewer pods per node → more nodes for the same
    demand → higher compute bill); at the on-prem site the owner's resource limits
    shrink (plans leaning on on-prem capacity turn infeasible).
    """

    location: int
    remaining_fraction: float = 0.5

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if self.location < 0:
            raise ValueError("location must be a non-negative id")
        if not 0.0 < self.remaining_fraction <= 1.0:
            raise ValueError("remaining_fraction must be in (0, 1]")

    def key(self) -> Tuple:
        return ("capacity-cut", int(self.location), float(self.remaining_fraction))

    def apply(self, stack: FaultedStack) -> None:
        site = int(self.location)
        if site == ON_PREM:
            limits = {
                resource: limit * self.remaining_fraction
                for resource, limit in stack.preferences.onprem_limits.items()
            }
            stack.preferences = replace(stack.preferences, onprem_limits=limits)
            return
        catalog = stack.catalogs.get(site)
        if catalog is None:
            raise ValueError(
                f"location {site} has no pricing catalog — a capacity cut needs "
                "either the on-prem site or a billable elastic site"
            )
        stack.catalogs[site] = PricingCatalog(
            node_spec=catalog.node_spec.scaled(
                capacity_factor=self.remaining_fraction
            ),
            storage_usd_per_gb_month=catalog.storage_usd_per_gb_month,
            egress_usd_per_gb=catalog.egress_usd_per_gb,
            autoscaler=catalog.autoscaler,
        )
        stack.catalogs_changed = True
