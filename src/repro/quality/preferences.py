"""Migration preferences supplied by the application owner (Section 3 and Eq. 4).

Preferences personalize recommendations: which APIs are business-critical (weighted 2x
by default), which components are pinned to a location (regulatory compliance), which
remote locations a component may be placed at (``allowed_locations`` — e.g. "user data
may go to region 2 but not 3"), the maximum resource usage allowed to remain on-prem,
and the cloud budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from ..cluster.placement import MigrationPlan
from ..cluster.topology import ON_PREM, require_finite

__all__ = ["MigrationPreferences"]

#: Default multiplier applied to APIs the owner marks as critical (Section 4.1.1).
DEFAULT_CRITICAL_WEIGHT = 2.0


@dataclass
class MigrationPreferences:
    """Owner-provided knobs constraining and weighting the recommendation."""

    critical_apis: List[str] = field(default_factory=list)
    critical_weight: float = DEFAULT_CRITICAL_WEIGHT
    pinned_placement: Dict[str, int] = field(default_factory=dict)
    onprem_limits: Dict[str, float] = field(default_factory=dict)
    budget_usd: float = float("inf")
    #: Per-component location whitelists: a listed component may only be placed at
    #: these locations.  The on-prem site (0) is always implicitly allowed (the
    #: component runs there today); unlisted components may go anywhere.
    allowed_locations: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A NaN passes every range check below: a NaN budget or limit would silently
        # disable its constraint (``cost > nan`` is never true) and a NaN weight
        # poison every QPerf / QAvai.  +inf stays the "no budget" / "no limit" value.
        bounds = {"budget_usd": self.budget_usd}
        bounds.update(
            (f"on-prem limit for {resource!r}", limit)
            for resource, limit in self.onprem_limits.items()
        )
        require_finite(
            {
                "critical_weight": self.critical_weight,
                **{label: value for label, value in bounds.items() if value != math.inf},
            }
        )
        if self.critical_weight <= 0:
            raise ValueError("critical_weight must be positive")
        if self.budget_usd < 0:
            raise ValueError("budget must be non-negative")
        for resource, limit in self.onprem_limits.items():
            if limit < 0:
                raise ValueError(f"on-prem limit for {resource!r} must be non-negative")
        normalized: Dict[str, Tuple[int, ...]] = {}
        for component, locations in self.allowed_locations.items():
            ids = {int(loc) for loc in locations}
            if any(loc < 0 for loc in ids):
                raise ValueError(
                    f"allowed locations for {component!r} must be non-negative ids"
                )
            normalized[component] = tuple(sorted(ids | {ON_PREM}))
        self.allowed_locations = normalized
        for component, location in self.pinned_placement.items():
            if not self.allowed_at(component, location):
                raise ValueError(
                    f"component {component!r} is pinned to location {location}, which "
                    f"its allowed-locations whitelist {self.allowed_locations[component]} "
                    "excludes"
                )

    # -- API weighting ------------------------------------------------------------------
    def api_weight(self, api: str) -> float:
        """τ_A: the weight of one API in QPerf and QAvai."""
        return self.critical_weight if api in self.critical_apis else 1.0

    def api_weights(self, apis: Sequence[str]) -> Dict[str, float]:
        return {api: self.api_weight(api) for api in apis}

    # -- constraints ------------------------------------------------------------------------
    def pins_respected(self, plan: MigrationPlan) -> bool:
        """First constraint of Eq. 4: pinned components stay where the owner put them."""
        return all(plan[c] == loc for c, loc in self.pinned_placement.items())

    def pin_violations(self, plan: MigrationPlan) -> List[str]:
        return [c for c, loc in self.pinned_placement.items() if plan[c] != loc]

    def onprem_limit(self, resource: str) -> Optional[float]:
        return self.onprem_limits.get(resource)

    # -- allowed-locations whitelist ------------------------------------------------------
    def allowed_at(self, component: str, location: int) -> bool:
        """Whether the whitelist permits placing the component at the location.

        On-prem is always permitted; components without a whitelist may go anywhere.
        """
        if location == ON_PREM:
            return True
        allowed = self.allowed_locations.get(component)
        return allowed is None or location in allowed

    def allowed_remote_sites(
        self, component: str, locations: Collection[int]
    ) -> Tuple[int, ...]:
        """The remote sites (in the given order) the component may be placed at."""
        return tuple(
            loc
            for loc in locations
            if loc != ON_PREM and self.allowed_at(component, loc)
        )

    def admissible_box(
        self, components: Sequence[str], locations: Collection[int]
    ) -> Tuple[Tuple[int, ...], ...]:
        """Per component, the sites a feasible plan may place it at: its pin, else
        the ``locations`` its whitelist allows (all of them without a whitelist)."""
        sites = tuple(locations)
        box = []
        for component in components:
            pin = self.pinned_placement.get(component)
            if pin is not None:
                box.append((pin,))
            elif component in self.allowed_locations:
                box.append(tuple(loc for loc in sites if self.allowed_at(component, loc)))
            else:
                box.append(sites)
        return tuple(box)

    def location_violations(self, plan: MigrationPlan) -> List[str]:
        """Whitelisted components placed somewhere their whitelist excludes."""
        return [
            component
            for component in self.allowed_locations
            if component in plan and not self.allowed_at(component, plan[component])
        ]

    def with_critical_apis(self, apis: Sequence[str]) -> "MigrationPreferences":
        """A copy with a different critical-API set (used by the Figure 16 experiment)."""
        return MigrationPreferences(
            critical_apis=list(apis),
            critical_weight=self.critical_weight,
            pinned_placement=dict(self.pinned_placement),
            onprem_limits=dict(self.onprem_limits),
            budget_usd=self.budget_usd,
            allowed_locations=dict(self.allowed_locations),
        )

    def with_budget(self, budget_usd: float) -> "MigrationPreferences":
        return MigrationPreferences(
            critical_apis=list(self.critical_apis),
            critical_weight=self.critical_weight,
            pinned_placement=dict(self.pinned_placement),
            onprem_limits=dict(self.onprem_limits),
            budget_usd=budget_usd,
            allowed_locations=dict(self.allowed_locations),
        )

    @classmethod
    def pin_on_prem(cls, components: Sequence[str], **kwargs) -> "MigrationPreferences":
        """Convenience constructor pinning the given components to the on-prem site."""
        return cls(pinned_placement={c: ON_PREM for c in components}, **kwargs)
