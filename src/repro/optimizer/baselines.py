"""Baseline migration strategies the paper compares Atlas against (Section 5.2).

Single-plan approaches:

* :class:`GreedyBusiestBaseline` / :class:`GreedySmallestBaseline` — offload the most /
  least resource-consuming components until the on-prem cluster can host the rest
  (Seagull-style cloud bursting [45]).
* :class:`IntMABaseline` — offload components so that the total traffic size between
  datacenters is minimized (interaction-aware placement [57]).
* :class:`REMaPBaseline` — like IntMA but the affinity combines traffic size and the
  number of message exchanges [68].

Multi-plan approaches:

* :class:`AffinityNSGA2Baseline` — NSGA-II with two objectives: cross-datacenter
  traffic (a proxy for performance) and cloud hosting cost (same cost model as Atlas);
  representative of [29, 39, 44, 47, 53].
* :class:`RandomSearchBaseline` — uniformly random feasible plans, keeping the Pareto
  set under Atlas's own quality model.

All baselines honour the owner's pinned placements (and per-component
allowed-locations whitelists) and use the same resource estimate for feasibility, so
the comparison isolates the placement *policy*.

On N-location topologies (``BaselineContext.locations``) the single-plan heuristics
are region-aware: each offloaded component goes to its cheapest/closest *permitted*
remote site — the greedy baselines rank candidate sites by the actual cost model, the
affinity heuristics by the cross-datacenter affinity of the resulting plan, with ties
broken by the static catalog-price/proximity preference.  The affinity GA and random
search sample every site through the sampler they share with the Atlas GA.  The
two-location topology is the N = 2 case of all of them and reproduces the paper's
baselines bit-for-bit: a single remote site makes every ranking trivial, and the
sampler's site draw consumes nothing.

The multi-plan baselines are matrix-native: populations are location vectors scored
through the evaluator's plan-matrix pipeline (``feasible_mask``, ``qcost_vectors``,
``evaluate_vectors``); :class:`MigrationPlan` objects are built only for the returned
fronts.

**K objectives.**  Random search keeps the Pareto set under Atlas's own quality
model, so its fronts follow the evaluator's
:class:`~repro.quality.problem.PlacementProblem` dimensionality (K-dim dominance via
``PlanQuality.objectives()``).  The affinity NSGA-II keeps its *own* two-objective
space (cross-DC traffic, cloud cost) by design — it models prior work that has no
notion of API workflows — but its feasibility and cost doors
(``feasible_mask``/``qcost_vectors``) run against whatever problem, scenario set
included, the shared evaluator was built with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.network import NetworkModel
from ..cluster.placement import MigrationPlan
from ..cluster.topology import CLOUD, ON_PREM
from ..quality.evaluator import PlanQuality, QualityEvaluator
from .nsga2 import (
    bitflip_mutation,
    random_location_vector,
    rank_population,
    survival_selection,
    tournament_pairs,
    uniform_crossover,
)
from .pareto import pareto_front

__all__ = [
    "BaselineContext",
    "GreedyBusiestBaseline",
    "GreedySmallestBaseline",
    "IntMABaseline",
    "REMaPBaseline",
    "AffinityNSGA2Baseline",
    "RandomSearchBaseline",
]

Pair = Tuple[str, str]


@dataclass
class BaselineContext:
    """Shared inputs of all baselines.

    ``traffic_matrix`` and ``message_matrix`` come from the mesh telemetry (total bytes
    and invocation counts per directed component pair); ``busyness`` is the mean CPU of
    each component from the component profiles; ``evaluator`` provides feasibility
    checking (on-prem limits, pins) against the same resource estimate Atlas uses.
    ``locations`` is the topology's location-id set — the greedy/affinity heuristics
    offload to the *primary* remote site (they are inherently two-sided policies), while
    the GA and random-search baselines sample every site.
    """

    components: List[str]
    evaluator: QualityEvaluator
    traffic_matrix: Dict[Pair, float]
    message_matrix: Dict[Pair, float] = field(default_factory=dict)
    busyness: Dict[str, float] = field(default_factory=dict)
    locations: Tuple[int, ...] = (ON_PREM, CLOUD)
    #: Topology network model; lets the single-plan heuristics break price ties by
    #: proximity to the on-prem site.  Optional — without it ties fall back to ids.
    network: Optional[NetworkModel] = None

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("baseline context needs at least one component")
        self.locations = tuple(int(loc) for loc in self.locations)
        if ON_PREM not in self.locations or len(self.locations) < 2:
            raise ValueError("locations must include on-prem and at least one remote site")
        self._site_preference: Optional[List[int]] = None

    # -- helpers -------------------------------------------------------------------------
    @property
    def movable_components(self) -> List[str]:
        pinned = self.evaluator.preferences.pinned_placement
        return [c for c in self.components if c not in pinned]

    @property
    def remote_locations(self) -> Tuple[int, ...]:
        return tuple(loc for loc in self.locations if loc != ON_PREM)

    @property
    def primary_remote(self) -> int:
        """The remote site the single-plan heuristics offload to (the paper's cloud)."""
        return self.remote_locations[0]

    def all_on_prem(self) -> MigrationPlan:
        plan = MigrationPlan.all_on_prem(self.components)
        pins = self.evaluator.preferences.pinned_placement
        return plan.with_pinned(pins) if pins else plan

    def feasible(self, plan: MigrationPlan) -> bool:
        return self.evaluator.is_feasible(plan)

    # -- region awareness -----------------------------------------------------------------
    def site_preference(self) -> List[int]:
        """Remote sites cheapest-first (node, storage, egress price), ties by proximity.

        The static ranking the single-plan heuristics use to break ties between
        otherwise equivalent sites; an unbillable site (no catalog) ranks last.
        Computed once — catalogs and network are immutable for a context's lifetime —
        because the affinity heuristics consult it in their innermost loops.
        """
        if self._site_preference is not None:
            return list(self._site_preference)
        cost_model = self.evaluator.cost

        def rank(location: int) -> Tuple:
            catalog = cost_model.catalogs.get(location)
            prices = (
                (
                    catalog.node_spec.hourly_price_usd,
                    catalog.storage_usd_per_gb_month,
                    catalog.egress_usd_per_gb,
                )
                if catalog is not None
                else (float("inf"),) * 3
            )
            if self.network is not None and self.network.has_link(ON_PREM, location):
                proximity = self.network.latency_ms(ON_PREM, location)
            else:
                proximity = float("inf")
            return (*prices, proximity, location)

        self._site_preference = sorted(self.remote_locations, key=rank)
        return list(self._site_preference)

    def permitted_remote_sites(self, component: str) -> Tuple[int, ...]:
        """Remote sites the owner's allowed-locations whitelist permits, pref-ordered."""
        return self.evaluator.preferences.allowed_remote_sites(
            component, self.site_preference()
        )

    def best_site_for(self, component: str, plan: MigrationPlan) -> Optional[int]:
        """Cheapest permitted remote site for offloading one component of this plan.

        Candidate sites are ranked by the actual cost model (QCost of the resulting
        plan) with ties broken by the static :meth:`site_preference`; returns ``None``
        when the whitelist leaves no remote site.  With a single remote site this is
        the paper's two-location offload target.
        """
        sites = self.permitted_remote_sites(component)
        if not sites:
            return None
        if len(sites) == 1:
            return sites[0]
        return min(
            enumerate(sites),
            key=lambda ranked: (
                self.evaluator.cost.qcost(plan.with_location(component, ranked[1])),
                ranked[0],
            ),
        )[1]

    def cross_dc_affinity(
        self, plan: MigrationPlan, message_weight: float = 0.0
    ) -> float:
        """Affinity (bytes + optional message count) crossing the datacenter boundary."""
        total = 0.0
        for (src, dst), traffic in self.traffic_matrix.items():
            if src not in plan or dst not in plan:
                continue
            if plan[src] != plan[dst]:
                total += traffic
                if message_weight > 0.0:
                    total += message_weight * self.message_matrix.get((src, dst), 0.0)
        return total

    def cross_dc_affinity_batch(
        self, plan_matrix: np.ndarray, message_weight: float = 0.0
    ) -> np.ndarray:
        """Batched :meth:`cross_dc_affinity` over a plan matrix (bitwise identical).

        Accumulates entry by entry in the scalar iteration order so each total keeps
        the exact float summation sequence.
        """
        matrix = np.asarray(plan_matrix, dtype=np.int64)
        column_of = {c: i for i, c in enumerate(self.components)}
        totals = np.zeros(matrix.shape[0], dtype=np.float64)
        for (src, dst), traffic in self.traffic_matrix.items():
            src_col = column_of.get(src)
            dst_col = column_of.get(dst)
            if src_col is None or dst_col is None:
                continue
            crossing = matrix[:, src_col] != matrix[:, dst_col]
            if not crossing.any():
                continue
            totals[crossing] += traffic
            if message_weight > 0.0:
                totals[crossing] += message_weight * self.message_matrix.get(
                    (src, dst), 0.0
                )
        return totals


class _GreedyBaseline:
    """Offload components in a fixed busyness order until the plan becomes feasible."""

    #: True = offload the busiest first, False = the least busy first.
    descending = True
    name = "greedy"

    def __init__(self, context: BaselineContext) -> None:
        self.context = context

    def recommend(self) -> MigrationPlan:
        plan = self.context.all_on_prem()
        if self.context.feasible(plan):
            return plan
        order = sorted(
            self.context.movable_components,
            key=lambda c: self.context.busyness.get(c, 0.0),
            reverse=self.descending,
        )
        for component in order:
            # Region-aware offload: each component goes to its cheapest permitted
            # remote site (the paper's single cloud when there is only one).
            target = self.context.best_site_for(component, plan)
            if target is None:
                continue
            plan = plan.with_location(component, target)
            if self.context.feasible(plan):
                return plan
        return plan  # Best effort: everything movable is offloaded.


class GreedyBusiestBaseline(_GreedyBaseline):
    """Offload the largest (most CPU-consuming) components first [45]."""

    descending = True
    name = "greedy-largest"


class GreedySmallestBaseline(_GreedyBaseline):
    """Offload the smallest (least CPU-consuming) components first."""

    descending = False
    name = "greedy-smallest"


class _AffinityHeuristicBaseline:
    """Greedy affinity minimization with a local-improvement pass (REMaP / IntMA)."""

    message_weight = 0.0
    name = "affinity"

    def __init__(self, context: BaselineContext, improvement_passes: int = 2) -> None:
        self.context = context
        self.improvement_passes = improvement_passes

    def _best_affinity_site(
        self, plan: MigrationPlan, component: str
    ) -> Optional[Tuple[int, float]]:
        """Permitted remote site minimizing the move's affinity, with that affinity.

        Ties break by the static site preference (the order
        ``permitted_remote_sites`` already returns).
        """
        best: Optional[Tuple[int, float]] = None
        for site in self.context.permitted_remote_sites(component):
            affinity = self.context.cross_dc_affinity(
                plan.with_location(component, site), self.message_weight
            )
            if best is None or affinity < best[1]:
                best = (site, affinity)
        return best

    def recommend(self) -> MigrationPlan:
        plan = self.context.all_on_prem()
        movable = set(self.context.movable_components)
        # Phase 1: offload until feasible, each step picking the (component, permitted
        # site) whose move yields the smallest cross-datacenter affinity.
        guard = len(self.context.components) + 1
        while not self.context.feasible(plan) and guard > 0:
            guard -= 1
            candidates = [c for c in movable if plan[c] == ON_PREM]
            if not candidates:
                break
            moves = [
                (c, choice)
                for c, choice in (
                    (c, self._best_affinity_site(plan, c)) for c in candidates
                )
                if choice is not None
            ]
            if not moves:
                break
            best_component, (best_site, _affinity) = min(
                moves, key=lambda move: move[1][1]
            )
            plan = plan.with_location(best_component, best_site)
        # Phase 2: hill climbing on single moves (to on-prem or any permitted remote
        # site) that reduce affinity while staying feasible.
        for _ in range(self.improvement_passes):
            improved = False
            current_affinity = self.context.cross_dc_affinity(plan, self.message_weight)
            for component in sorted(movable):
                targets = [ON_PREM] if plan[component] != ON_PREM else []
                targets += [
                    site
                    for site in self.context.permitted_remote_sites(component)
                    if site != plan[component]
                ]
                for target in targets:
                    flipped = plan.with_location(component, target)
                    if not self.context.feasible(flipped):
                        continue
                    affinity = self.context.cross_dc_affinity(
                        flipped, self.message_weight
                    )
                    if affinity < current_affinity:
                        plan, current_affinity = flipped, affinity
                        improved = True
            if not improved:
                break
        return plan


class IntMABaseline(_AffinityHeuristicBaseline):
    """Interaction-aware placement minimizing cross-datacenter traffic size [57]."""

    message_weight = 0.0
    name = "intma"


class REMaPBaseline(_AffinityHeuristicBaseline):
    """Runtime placement adaptation minimizing traffic size and message exchanges [68]."""

    #: Bytes-equivalent weight of one message exchange (REMaP counts both signals).
    message_weight = 256.0
    name = "remap"


@dataclass
class AffinityNSGA2Result:
    """Plans found by the affinity-based GA, with its internal objective values."""

    plans: List[MigrationPlan]
    objectives: List[Tuple[float, float]]
    evaluations: int


class AffinityNSGA2Baseline:
    """NSGA-II over (cross-DC traffic, cloud cost) with random crossover.

    The cost objective reuses Atlas's cost model (as the paper does for fairness); the
    performance proxy is the total traffic between datacenters, i.e. the baseline has no
    notion of API workflows.
    """

    name = "affinity-ga"

    def __init__(
        self,
        context: BaselineContext,
        population_size: int = 100,
        evaluation_budget: int = 10_000,
        mutation_rate: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.context = context
        self.population_size = population_size
        self.evaluation_budget = evaluation_budget
        self.mutation_rate = mutation_rate
        self._rng = np.random.default_rng(seed)
        self._evaluations = 0

    # -- objectives -----------------------------------------------------------------------
    def _apply_pins(self, vector: List[int]) -> List[int]:
        for component, location in self.context.evaluator.preferences.pinned_placement.items():
            vector[self.context.components.index(component)] = location
        return vector

    def _objectives_batch(
        self, vectors: Sequence[Sequence[int]]
    ) -> List[Tuple[float, float]]:
        """(cross-DC traffic, cloud cost) of a whole population in three array passes.

        Affinity, cost and feasibility each come from the batched pipeline; values
        (including the infeasibility penalty) are bitwise identical to the historical
        per-plan scoring, and the evaluation counter advances once per vector.  Cost
        and feasibility go through the evaluator's scenario-aware doors
        (``qcost_vectors`` / ``feasible_mask``), so an evaluator built for a
        problem with scenarios makes this baseline scenario-robust too.
        """
        self._evaluations += len(vectors)
        matrix = np.asarray(vectors, dtype=np.int64)
        components = self.context.components
        traffic = self.context.cross_dc_affinity_batch(matrix)
        cost = self.context.evaluator.qcost_vectors(matrix, components)
        feasible = self.context.evaluator.feasible_mask(matrix, components)
        objectives: List[Tuple[float, float]] = []
        for plan_traffic, plan_cost, ok in zip(
            traffic.tolist(), cost.tolist(), feasible.tolist()
        ):
            if not ok:
                penalty = 1e12
                objectives.append((plan_traffic + penalty, plan_cost + penalty))
            else:
                objectives.append((plan_traffic, plan_cost))
        return objectives

    def _random_vector(self) -> List[int]:
        offload_prob = self._rng.uniform(0.15, 0.7)
        offloaded = self._rng.random(len(self.context.components)) < offload_prob
        return self._apply_pins(
            random_location_vector(self._rng, offloaded, self.context.locations)
        )

    def recommend(self) -> AffinityNSGA2Result:
        components = self.context.components
        population = [self._random_vector() for _ in range(self.population_size)]
        objectives = self._objectives_batch(population)
        offspring_count = max(self.population_size // 2, 2)
        while self._evaluations < self.evaluation_budget:
            ranked = rank_population(objectives)
            pairs = tournament_pairs(ranked, offspring_count, self._rng)
            offspring: List[List[int]] = []
            for idx_a, idx_b in pairs:
                child = uniform_crossover(population[idx_a], population[idx_b], self._rng)
                child = bitflip_mutation(
                    child, self._rng, self.mutation_rate, locations=self.context.locations
                )
                offspring.append(self._apply_pins(child))
            offspring_objectives = self._objectives_batch(offspring)
            combined = population + offspring
            combined_objectives = objectives + offspring_objectives
            survivors = survival_selection(combined_objectives, self.population_size)
            population = [combined[i] for i in survivors]
            objectives = [combined_objectives[i] for i in survivors]
        keep = self.context.evaluator.feasible_mask(population, components)
        feasible = [
            (vector, objective)
            for vector, objective, ok in zip(population, objectives, keep)
            if ok
        ]
        front = pareto_front(feasible, key=lambda item: item[1])
        return AffinityNSGA2Result(
            plans=[
                MigrationPlan.from_vector(components, vector) for vector, _obj in front
            ],
            objectives=[obj for _vector, obj in front],
            evaluations=self._evaluations,
        )


class RandomSearchBaseline:
    """Uniformly random plans; the Pareto set under Atlas's quality model is returned."""

    name = "random-search"

    def __init__(
        self,
        context: BaselineContext,
        evaluation_budget: int = 10_000,
        seed: int = 0,
    ) -> None:
        self.context = context
        self.evaluation_budget = evaluation_budget
        self._rng = np.random.default_rng(seed)

    def recommend(self) -> List[PlanQuality]:
        components = self.context.components
        pins = self.context.evaluator.preferences.pinned_placement
        pin_columns = [
            (components.index(component), location)
            for component, location in pins.items()
        ]
        n = len(components)
        vectors: List[List[int]] = []
        for _ in range(self.evaluation_budget):
            offloaded = self._rng.random(n) < self._rng.uniform(0.1, 0.9)
            vector = random_location_vector(self._rng, offloaded, self.context.locations)
            for column, location in pin_columns:
                vector[column] = location
            vectors.append(vector)
        # One batched feasibility mask over the whole sample, then one batched
        # evaluation of the feasible vectors: dedup + projection caching + vectorized
        # replay/cost/constraint passes instead of per-plan tree walks.
        keep = self.context.evaluator.feasible_mask(vectors, components)
        feasible_vectors = [vector for vector, ok in zip(vectors, keep) if ok]
        feasible = self.context.evaluator.evaluate_vectors(feasible_vectors, components)
        return pareto_front(feasible, key=lambda q: q.objectives())
