"""Migration plans: where each application component runs.

A :class:`MigrationPlan` is the unit of search in Atlas — a mapping from component name
to a location id.  Location 0 is always the on-prem site; ids >= 1 are remote sites
(exactly one of them — the public cloud — in the paper's two-location setup, several
cloud regions/edge sites in the N-location topologies).  The class offers the
location-vector view used by the genetic algorithm and the DRL crossover agent,
set-style accessors used by the quality models, and (de)serialization helpers used by
the examples.

A historical trap this class deliberately avoids: with more than one remote location
"not on-prem" no longer means "the cloud".  :meth:`offloaded` therefore documents
itself as *any remote location*, and callers that bill or count a specific site must
use :meth:`components_at` with that site's location id (see
:class:`repro.quality.cost.CloudCostModel`, which bills each elastic datacenter
separately).
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .topology import CLOUD, ON_PREM

__all__ = ["MigrationPlan"]


@lru_cache(maxsize=256)
def _shared_order(components: Tuple[str, ...]) -> Tuple[Tuple[str, ...], Dict[str, int]]:
    """The one ``(components tuple, component -> position)`` pair of a component order.

    A search builds thousands of plans over a handful of orders; plans are immutable
    and never write to the index, so all plans of one order share both objects.
    """
    return components, {c: i for i, c in enumerate(components)}


def _sites(components: Sequence[str], given: Tuple) -> Tuple[int, ...]:
    """``given`` as location ids, refusing a value no int equals (1.9 names no site)."""
    locations = tuple(map(int, given))
    if locations != given:
        bad = next(i for i, (site, value) in enumerate(zip(locations, given)) if site != value)
        raise ValueError(f"non-integral location {given[bad]!r} for component {components[bad]!r}")
    return locations


class MigrationPlan(Mapping[str, int]):
    """An immutable assignment of every component to a location.

    The component order is fixed at construction time so that :meth:`to_vector` /
    :meth:`from_vector` round-trip deterministically — the genetic algorithm and the DRL
    agent operate on the vector representation.
    """

    __slots__ = ("_components", "_locations", "_index")

    def __init__(self, assignment: Mapping[str, int], order: Optional[Sequence[str]] = None):
        if order is None:
            order = list(assignment)
        else:
            order = list(order)
            missing = set(order) ^ set(assignment)
            if missing:
                raise ValueError(f"order and assignment disagree on components: {sorted(missing)}")
        self._fill(tuple(order), _sites(order, tuple(assignment[c] for c in order)))

    def _fill(self, components: Tuple[str, ...], locations: Tuple[int, ...]) -> None:
        """Slot assignment and validation — where every construction route ends."""
        self._components, self._index = _shared_order(components)
        if len(self._index) != len(locations):
            # A repeated name is one component: its last location wins everywhere.
            locations = tuple(locations[self._index[c]] for c in components)
        if locations and min(locations) < 0:
            comp = next(c for c, loc in zip(components, locations) if loc < 0)
            raise ValueError(f"negative location for component {comp!r}")
        self._locations = locations

    # -- Mapping interface --------------------------------------------------------
    def __getitem__(self, component: str) -> int:
        try:
            return self._locations[self._index[component]]
        except KeyError:
            raise KeyError(f"component {component!r} not in plan") from None

    def __iter__(self):
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)

    def __hash__(self) -> int:
        return hash((self._components, self._locations))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MigrationPlan):
            return NotImplemented
        return self._components == other._components and self._locations == other._locations

    # -- constructors --------------------------------------------------------------
    @classmethod
    def all_on_prem(cls, components: Sequence[str]) -> "MigrationPlan":
        """The status-quo plan with every component on-premises."""
        return cls({c: ON_PREM for c in components}, order=components)

    @classmethod
    def all_cloud(cls, components: Sequence[str]) -> "MigrationPlan":
        return cls({c: CLOUD for c in components}, order=components)

    @classmethod
    def from_offloaded(
        cls, components: Sequence[str], offloaded: Iterable[str], location: int = CLOUD
    ) -> "MigrationPlan":
        """Plan that offloads exactly the given components to one remote location.

        ``location`` defaults to the paper's single cloud (id 1); pass another id to
        target a different region of a multi-location topology.
        """
        if int(location) == ON_PREM:
            raise ValueError("offload location must be a remote site, not on-prem (0)")
        offloaded = set(offloaded)
        unknown = offloaded - set(components)
        if unknown:
            raise ValueError(f"offloaded components not in application: {sorted(unknown)}")
        return cls(
            {c: (int(location) if c in offloaded else ON_PREM) for c in components},
            order=components,
        )

    @classmethod
    def from_vector(
        cls, components: Sequence[str], vector: Sequence[int]
    ) -> "MigrationPlan":
        if len(components) != len(vector):
            raise ValueError(
                f"vector length {len(vector)} does not match component count {len(components)}"
            )
        # Straight to the slots: no assignment dict, no order/assignment cross-check.
        plan = cls.__new__(cls)
        plan._fill(tuple(components), _sites(components, tuple(vector)))
        return plan

    # -- views -----------------------------------------------------------------------
    @property
    def components(self) -> List[str]:
        return list(self._components)

    def to_vector(self) -> List[int]:
        """Location vector in the plan's canonical component order."""
        return list(self._locations)

    def offloaded(self) -> List[str]:
        """Components placed at *any* remote location (not necessarily location 1).

        With a single remote site this is exactly "the components in the cloud"; with
        several it is their union — use :meth:`components_at` to bill or count one
        specific site.
        """
        return [c for c, loc in zip(self._components, self._locations) if loc != ON_PREM]

    def on_prem(self) -> List[str]:
        """Components placed at the on-prem site (location 0)."""
        return [c for c, loc in zip(self._components, self._locations) if loc == ON_PREM]

    def components_at(self, location: int) -> List[str]:
        """Components placed at exactly the given location id."""
        return [c for c, loc in zip(self._components, self._locations) if loc == location]

    def locations_used(self) -> List[int]:
        """Sorted distinct location ids this plan places at least one component on."""
        return sorted(set(self._locations))

    def offload_count(self) -> int:
        return len(self.offloaded())

    def is_cross_location(self, comp_a: str, comp_b: str) -> bool:
        """Whether the two components live in different datacenters under this plan."""
        return self[comp_a] != self[comp_b]

    def moved_components(self, baseline: "MigrationPlan") -> List[str]:
        """Components whose location differs from ``baseline`` (usually all-on-prem)."""
        if set(baseline.components) != set(self._components):
            raise ValueError("plans describe different component sets")
        return [c for c in self._components if self[c] != baseline[c]]

    # -- derivation --------------------------------------------------------------------
    def with_location(self, component: str, location: int) -> "MigrationPlan":
        """A copy of this plan with one component reassigned."""
        if component not in self._index:
            raise KeyError(f"component {component!r} not in plan")
        assignment = dict(zip(self._components, self._locations))
        assignment[component] = int(location)
        return MigrationPlan(assignment, order=self._components)

    def with_pinned(self, pins: Mapping[str, int]) -> "MigrationPlan":
        """A copy of this plan with the given components forced to fixed locations."""
        assignment = dict(zip(self._components, self._locations))
        for comp, loc in pins.items():
            if comp not in assignment:
                raise KeyError(f"component {comp!r} not in plan")
            assignment[comp] = int(loc)
        return MigrationPlan(assignment, order=self._components)

    # -- serialization -------------------------------------------------------------------
    def to_dict(self) -> Dict[str, int]:
        return dict(zip(self._components, self._locations))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str, order: Optional[Sequence[str]] = None) -> "MigrationPlan":
        data = json.loads(payload)
        if not isinstance(data, dict):
            raise ValueError("plan JSON must be an object mapping component -> location")
        return cls({str(k): int(v) for k, v in data.items()}, order=order)

    def __repr__(self) -> str:
        """Every component at its location, in plan order: request keys describe
        plans (a churn baseline on a problem) by this text."""
        return f"MigrationPlan({self.to_dict()!r})"
