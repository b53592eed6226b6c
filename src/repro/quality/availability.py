"""API availability modeling (Section 4.1.2, Eq. 3).

Offloading a stateless component is near-disruption-free (rolling update), but a
stateful component must transfer its data to the new location, taking the APIs that
depend on it offline for the duration of the transfer (and losing warm caches).  The
availability quality of a plan is therefore the (weighted) number of APIs that use at
least one stateful component whose location changes.

Note on Eq. 3: the equation's quantifier reads "∀c ∈ SC(A)", but the surrounding text
and the evaluation ("the number of APIs that will be unavailable during the migration
process") make clear that an API is disrupted as soon as *any* of its stateful
components moves; we implement that interpretation.

**Per-location failure domains.**  With more than one remote site, not every
destination is equally disruptive: migrating state to a nearby region transfers faster
than to a far one, and sites differ in reliability.  ``location_weights`` assigns a
disruption weight to each *destination* location; a disrupted API is charged the
heaviest weight among the destinations its stateful components move to.  The default
(no weights) charges every disruption 1.0 — exactly the paper's two-location QAvai.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..cluster.placement import MigrationPlan
from ..cluster.topology import require_finite
from ..learning.estimator import ordered_masked_sum

__all__ = ["ApiAvailabilityModel", "AvailabilityEstimate"]


@dataclass(frozen=True)
class AvailabilityEstimate:
    """Disruption preview of one plan."""

    disrupted_apis: List[str]
    weighted_disruption: float

    @property
    def disrupted_count(self) -> int:
        return len(self.disrupted_apis)


class ApiAvailabilityModel:
    """Computes QAvai from per-API stateful component sets learned from traces."""

    def __init__(
        self,
        stateful_components_by_api: Mapping[str, Sequence[str]],
        baseline_plan: MigrationPlan,
        location_weights: Optional[Mapping[int, float]] = None,
    ) -> None:
        self._stateful: Dict[str, Set[str]] = {
            api: set(components) for api, components in stateful_components_by_api.items()
        }
        self.baseline_plan = baseline_plan
        self.location_weights: Dict[int, float] = dict(location_weights or {})
        for location, weight in self.location_weights.items():
            require_finite({f"disruption weight for location {location}": weight})
            if weight < 0:
                raise ValueError(f"disruption weight for location {location} must be >= 0")
        self._apis = sorted(self._stateful)
        # Projection axis per API: disruption depends only on the placements of the
        # API's stateful components, the columns a plan matrix is lowered onto.
        self._projection_axis: Dict[str, List[str]] = {
            api: sorted(components) for api, components in self._stateful.items()
        }
        # Plan-matrix lowering: per component order, the per-API axis columns and
        # baseline placements (see _lowering).
        self._lowerings: Dict[
            Tuple[str, ...], Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    def __getstate__(self) -> Dict[str, object]:
        return {**self.__dict__, "_lowerings": {}}  # process-local, rebuilt on first use

    @property
    def apis(self) -> List[str]:
        return list(self._apis)

    def derive(
        self, location_weights: Optional[Mapping[int, float]] = None
    ) -> "ApiAvailabilityModel":
        """A sibling model with different failure-domain weights (the fault hook).

        Shares the learned stateful-component sets and the baseline plan; the
        lowerings are per-model, and the weights live on the sibling alone, so a
        faulted scenario's heavier destination weights (e.g. a
        :class:`~repro.quality.faults.LocationOutage` penalizing its failed site)
        never reach the fault-free model.
        """
        return ApiAvailabilityModel(
            stateful_components_by_api=self._stateful,
            baseline_plan=self.baseline_plan,
            location_weights=(
                location_weights if location_weights is not None else self.location_weights
            ),
        )

    def _resolve(self, api: str, plan: MigrationPlan) -> Tuple[bool, float]:
        """(disrupted, failure-domain factor) of one API under one plan."""
        axis = self._projection_axis.get(api) or ()
        moved_to = [plan[c] for c in axis if plan[c] != self.baseline_plan[c]]
        if not moved_to:
            return (False, 0.0)
        return (
            True,
            max(self.location_weights.get(location, 1.0) for location in moved_to),
        )

    def api_disrupted(self, api: str, plan: MigrationPlan) -> bool:
        """Whether migrating to ``plan`` disrupts the API (any stateful dependency moves)."""
        return self._resolve(api, plan)[0]

    def disruption_factor(self, api: str, plan: MigrationPlan) -> float:
        """Failure-domain weight of the API's disruption: the heaviest destination site."""
        return self._resolve(api, plan)[1]

    def disrupted_apis(self, plan: MigrationPlan) -> List[str]:
        return [api for api in self.apis if self.api_disrupted(api, plan)]

    def qavai(
        self, plan: MigrationPlan, api_weights: Optional[Mapping[str, float]] = None
    ) -> float:
        """QAvai(p) = Σ_A τ_A · w_dc(A; p) · [A disrupted] — lower is better.

        ``w_dc`` is the per-location failure-domain factor (1.0 when no
        ``location_weights`` were configured, reproducing Eq. 3 verbatim).
        """
        total = 0.0
        for api in self.apis:
            disrupted, factor = self._resolve(api, plan)
            if disrupted:
                weight = api_weights.get(api, 1.0) if api_weights else 1.0
                if self.location_weights:
                    weight *= factor
                total += weight
        return total

    # -- batched evaluation (plan-matrix pipeline) -----------------------------------------
    def _lowering(
        self, components: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(apis, columns, baseline, starts)`` for one component order: the indices of
        the APIs with stateful components, their axes' columns and baseline
        placements back to back, and where each API's segment starts."""
        key = tuple(components)
        lowering = self._lowerings.get(key)
        if lowering is None:
            column_of = {c: i for i, c in enumerate(key)}
            apis: List[int] = []
            columns: List[int] = []
            starts: List[int] = []
            for index, api in enumerate(self._apis):
                axis = self._projection_axis.get(api) or []
                if axis:
                    apis.append(index)
                    starts.append(len(columns))
                    columns.extend(column_of[c] for c in axis)
            lowering = (
                np.asarray(apis, dtype=np.intp),
                np.asarray(columns, dtype=np.intp),
                np.asarray(
                    [self.baseline_plan[key[column]] for column in columns],
                    dtype=np.int64,
                ),
                np.asarray(starts, dtype=np.intp),
            )
            self._lowerings[key] = lowering
        return lowering

    def disruption_matrix(
        self, plan_matrix: np.ndarray, components: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The weight-free half of QAvai over a plan matrix: ``(apis, disrupted, factor)``.

        ``disrupted`` is the ``(len(apis), plans)`` mask of APIs (indices into
        :attr:`apis`, those with stateful components) some stateful dependency of
        which moves, ``factor`` the heaviest destination's failure-domain weight per
        API and plan (``None`` without ``location_weights``).  One pass over all
        stateful columns; trace weights never enter it, so it serves every scenario
        that shares this model (:meth:`qavai_stack`).
        """
        matrix = np.asarray(plan_matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(components):
            raise ValueError("plan matrix must be (plans, len(components))")
        apis, columns, baseline, starts = self._lowering(components)
        if apis.size == 0 or matrix.shape[0] == 0:
            return apis, np.zeros((apis.size, matrix.shape[0]), dtype=bool), None
        placements = matrix[:, columns]
        moved = placements != baseline
        disrupted = np.logical_or.reduceat(moved, starts, axis=1).T
        factor = None
        if self.location_weights:
            weight_lut = np.asarray(
                [
                    self.location_weights.get(loc, 1.0)
                    for loc in range(int(matrix.max()) + 1)
                ]
            )
            # Weights are non-negative, so 0.0 for an unmoved column never wins a
            # disrupted API's max — and an undisrupted one (masked out) stays finite.
            factor = np.maximum.reduceat(
                np.where(moved, weight_lut[placements], 0.0), starts, axis=1
            ).T
        return apis, disrupted, factor

    def weight_vector(
        self, api_weights: Optional[Mapping[str, float]], apis: np.ndarray
    ) -> np.ndarray:
        """τ_A of the APIs ``apis`` indexes in :attr:`apis` (1.0 where omitted)."""
        return np.asarray(
            [
                api_weights.get(self._apis[api], 1.0) if api_weights else 1.0
                for api in apis.tolist()
            ],
            dtype=np.float64,
        )

    def qavai_stack(
        self,
        disruption: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
        weights: Sequence[np.ndarray],
    ) -> np.ndarray:
        """QAvai of one :meth:`disruption_matrix` under several τ_A weight vectors.

        ``weights[s]`` is a :meth:`weight_vector` over the disruption's APIs; returns
        ``(len(weights), plans)``, row ``s`` bitwise per-plan :meth:`qavai` under
        the mapping it came from.  One ordered masked sum over the APIs adds each
        disrupted API's weight (times its factor) to every row at once; the API axis
        stays outermost, so every element sees its additions in the scalar order.
        """
        _apis, disrupted, factor = disruption
        columns = (
            weights[0][:, None, None]
            if len(weights) == 1
            else np.stack(weights, axis=1)[:, None, :]
        )
        terms = columns if factor is None else columns * factor[:, :, None]
        return ordered_masked_sum(terms, disrupted).T

    def estimate(
        self, plan: MigrationPlan, api_weights: Optional[Mapping[str, float]] = None
    ) -> AvailabilityEstimate:
        return AvailabilityEstimate(
            disrupted_apis=self.disrupted_apis(plan),
            weighted_disruption=self.qavai(plan, api_weights),
        )
