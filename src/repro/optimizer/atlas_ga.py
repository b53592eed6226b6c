"""Atlas's DRL-based genetic algorithm (Section 4.2.1, Figure 5 steps 1-5).

The search loop is a multi-objective GA built on NSGA-II machinery (non-dominated
sorting, crowding distance, binary tournament, elitist survival), but offspring are
produced by the trained :class:`~repro.optimizer.drl.agent.CrossoverAgent` instead of a
random crossover operator.  The agent is trained with the reward of Eq. 5 on a dataset
of parent pairs drawn from randomly sampled plans; at convergence it reliably produces
feasible children that beat their parents in several quality aspects, which accelerates
the evolution under a fixed budget of visited plans (10,000 in the paper, 0.0019% of the
social network's search space).

**N-location encoding.**  Chromosomes are integer *location vectors* — gene ``i`` holds
the location id of component ``i`` — not 0/1 bit vectors.  Pass ``locations`` (e.g.
``(0, 1, 2)`` for on-prem + two cloud regions) to search a multi-location topology:
random initialization spreads components over all remote sites, mutation flips genes to
any other location, and the memetic neighbourhood relocates components/pairs/API paths
to every site.  The default ``(ON_PREM, CLOUD)`` is the paper's two-location search as
the N = 2 case of those same operators: with one remote site the shared sampler's site
draw consumes nothing, so fixed-seed trajectories are the original bit-vector GA's.
Only the crossover agent's model class still differs at N = 2 (a sigmoid head).

**K objectives.**  The loop is objective-count agnostic: NSGA-II ranking, the Deb
penalty, the elite local search (one sweep per objective of the evaluator's
:class:`~repro.quality.problem.PlacementProblem`) and the Eq. 5 reward (which counts
improved aspects over *all* K objectives) follow the problem's dimensionality, so a
K=4 problem widens the Pareto search with zero changes here.  The default
three-objective problem reproduces the paper's search bit-for-bit.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.topology import CLOUD, ON_PREM
from ..quality.evaluator import PlanQuality, QualityEvaluator
from .drl.agent import CrossoverAgent, TrainingHistory
from .nsga2 import (
    allowed_repair_targets,
    apply_allowed_repair,
    bitflip_mutation,
    random_location_vector,
    rank_population,
    survival_selection,
    tournament_pairs,
    uniform_crossover,
)
from .pareto import distance_to_ideal, knee_index, pareto_front

__all__ = [
    "GAConfig",
    "SearchResult",
    "AtlasGA",
    "penalized_objectives",
    "affinity_seed_vectors",
]

#: Penalty added per violated constraint so infeasible plans rank behind feasible ones.
_INFEASIBILITY_PENALTY = 1e6


def affinity_seed_vectors(
    components: Sequence[str],
    pinned: Dict[str, int],
    pair_traffic: Dict[Tuple[str, str], float],
    is_feasible,
    rng: np.random.Generator,
    count: int = 4,
    noise: float = 0.15,
    locations: Sequence[int] = (ON_PREM, CLOUD),
    allowed_locations: Optional[Mapping[str, Sequence[int]]] = None,
) -> List[List[int]]:
    """Population seeds derived from the learned traffic matrix.

    Each seed starts from the all-on-prem placement and greedily offloads the movable
    component whose move yields the smallest cross-datacenter traffic (with a little
    noise so the seeds differ) until the plan satisfies the constraints.  Seeding the
    initial population this way puts the genetic search directly into the traffic-
    efficient basin; the API-centric objectives then refine within and beyond it.  The
    seeds are ordinary visited plans and count against the evaluation budget like any
    other candidate.

    ``is_feasible`` receives the candidate *location vector* (ordered like
    ``components``) — seeding stays in vector space like the rest of the search, and
    callers typically pass a thin wrapper over
    :meth:`~repro.quality.evaluator.QualityEvaluator.feasible_mask`.

    With N locations the greedy offload targets the *primary* remote site (the first
    non-on-prem id in ``locations``): the cut-traffic objective cannot distinguish
    remote sites from one another, so the seeds stay two-sided and the GA's own
    operators spread load across the remaining regions.  Components whose
    ``allowed_locations`` whitelist excludes the primary remote are never offloaded by
    the seeding (the GA's own operators may still place them at their permitted
    sites).

    ``is_feasible`` is asked once per distinct vector: the greedy prefixes of the
    seeds and the flip-and-revert passes repeat vectors, and a feasibility verdict
    depends on the vector alone.
    """
    verdicts: Dict[Tuple[int, ...], bool] = {}

    def feasible(vector: List[int]) -> bool:
        key = tuple(vector)
        if key not in verdicts:
            verdicts[key] = bool(is_feasible(vector))
        return verdicts[key]

    remote = [loc for loc in locations if loc != ON_PREM]
    if not remote:
        raise ValueError("locations must include at least one remote site")
    primary_remote = remote[0]
    allowed_locations = allowed_locations or {}

    def may_use_primary(component: str) -> bool:
        allowed = allowed_locations.get(component)
        return allowed is None or primary_remote in allowed

    movable = [
        c for c in components if c not in pinned and may_use_primary(c)
    ]
    member = set(components)
    # Per-component incident traffic (both directions, self-edges excluded): flipping c
    # changes the cut by the incident weight toward same-side neighbours minus the
    # incident weight toward cross-side ones, so candidate scoring is O(deg(c)) instead
    # of a full O(E) recomputation per candidate flip.
    incident: Dict[str, List[Tuple[str, float]]] = {c: [] for c in components}
    for (src, dst), bytes_ in pair_traffic.items():
        if src == dst or src not in member or dst not in member:
            continue
        incident[src].append((dst, bytes_))
        incident[dst].append((src, bytes_))
    seeds: List[List[int]] = []
    for _ in range(count):
        assignment = {c: pinned.get(c, ON_PREM) for c in components}

        def cut_traffic() -> float:
            return sum(
                bytes_
                for (src, dst), bytes_ in pair_traffic.items()
                if src in assignment and dst in assignment
                and assignment[src] != assignment[dst]
            )

        def flip_delta(c: str) -> float:
            # Cut change of toggling c between on-prem and the primary remote.  A
            # neighbour pinned to a *third* site stays cross-location on both sides of
            # the toggle, so it must contribute zero — comparing against the actual
            # target location (not "any other side") handles that.
            side = assignment[c]
            target = primary_remote if side == ON_PREM else ON_PREM
            delta = 0.0
            for neighbour, bytes_ in incident[c]:
                neighbour_side = assignment[neighbour]
                crosses_now = neighbour_side != side
                crosses_after = neighbour_side != target
                if crosses_after and not crosses_now:
                    delta += bytes_
                elif crosses_now and not crosses_after:
                    delta -= bytes_
            return delta

        def vector() -> List[int]:
            return [assignment[c] for c in components]

        current_cut = cut_traffic()
        guard = len(components) + 1
        while not feasible(vector()) and guard > 0:
            guard -= 1
            candidates = [c for c in movable if assignment[c] == ON_PREM]
            if not candidates:
                break
            scored = [
                ((current_cut + flip_delta(c)) * (1.0 + noise * rng.random()), c)
                for c in candidates
            ]
            _score, chosen = min(scored)
            current_cut += flip_delta(chosen)
            assignment[chosen] = primary_remote
        # Keep flipping single components while it reduces the cut and stays feasible, so
        # the seed sits at a local optimum of the traffic objective (the basin affinity
        # methods search); the GA then refines it under the API-centric objectives.
        for _ in range(2):
            improved = False
            for c in movable:
                delta = flip_delta(c)
                if delta >= 0.0:
                    continue
                flipped = primary_remote if assignment[c] == ON_PREM else ON_PREM
                original = assignment[c]
                assignment[c] = flipped
                if feasible(vector()):
                    current_cut += delta
                    improved = True
                else:
                    assignment[c] = original
            if not improved:
                break
        seeds.append(vector())
    return seeds


def penalized_objectives(quality: PlanQuality) -> Tuple[float, ...]:
    """K-objective vector with constraint-violation penalties (Deb-style feasibility rule)."""
    if quality.feasible:
        return tuple(quality.objectives())
    penalty = _INFEASIBILITY_PENALTY * len(quality.violations)
    return tuple(value + penalty for value in quality.objectives())


@dataclass
class GAConfig:
    """Hyperparameters of the genetic search.

    ``immigrants_per_generation`` injects a few random plans every generation to
    preserve diversity, and ``local_search_period`` runs a single-flip improvement sweep
    on the per-objective elites every N generations (a memetic refinement; all plans it
    visits count against the evaluation budget).  Both are engineering additions on top
    of the paper's description that markedly improve convergence within the small
    evaluation budgets used in the benchmarks; they apply identically to the DRL and the
    uniform-crossover variants, so the Figure 21 ablation stays a like-for-like
    comparison of the crossover operator.
    """

    population_size: int = 100
    offspring_per_generation: int = 50
    evaluation_budget: int = 10_000
    max_generations: int = 400
    mutation_rate: float = 0.08
    immigrants_per_generation: int = 10
    local_search_period: int = 5
    train_iterations: int = 300
    train_batch_size: int = 4
    train_pairs: int = 64
    crossover: str = "drl"  # "drl" or "uniform" (the NSGA-II ablation of Figure 21)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.crossover not in ("drl", "uniform"):
            raise ValueError("crossover must be 'drl' or 'uniform'")
        if self.evaluation_budget <= self.population_size:
            raise ValueError("evaluation_budget must exceed the population size")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.offspring_per_generation < 0 or self.immigrants_per_generation < 0:
            raise ValueError(
                "offspring_per_generation and immigrants_per_generation must not be negative"
            )
        if self.offspring_per_generation + self.immigrants_per_generation < 1:
            # A generation would visit no new plan: max_generations spin, budget unspent.
            raise ValueError(
                "a generation must breed or immigrate at least one plan "
                "(offspring_per_generation + immigrants_per_generation >= 1)"
            )
        if self.crossover == "drl":
            if self.train_iterations < 1:
                raise ValueError(
                    "train_iterations must be at least 1; a search without a trained "
                    "agent is crossover='uniform'"
                )
            if self.train_batch_size < 1:
                raise ValueError("train_batch_size must be at least 1")
            if self.train_pairs < 1:
                raise ValueError("train_pairs must be at least 1")


#: The fields of a :class:`SearchResult` that pickle as one inner blob — the archive:
#: thousands of results no reader of the front ever looks at.
_ARCHIVE_FIELDS = ("all_evaluated",)


@dataclass
class SearchResult:
    """Outcome of one recommendation run.

    ``all_evaluated`` holds every *distinct* plan the evaluator scored during the run
    (including agent-training probes and local-search candidates — the full "plans
    visited" accounting of the paper).  ``objective_names`` labels the K columns of
    every objective vector (the problem's column order).

    Pickled, that list travels as one inner pickle (``_archive``) beside the front,
    and an unpickled result keeps the bytes until somebody reads it:
    reviving a journaled answer decodes the handful of plans it serves, not the
    thousands the search visited.
    """

    pareto: List[PlanQuality]
    generations: int
    evaluations: int
    training_history: Optional[TrainingHistory]
    wall_clock_s: float
    all_evaluated: List[PlanQuality] = field(default_factory=list)
    objective_names: Tuple[str, ...] = ("qperf", "qavai", "qcost")
    #: The crossover agent the DRL search bred with, stripped for inference
    #: (:meth:`CrossoverAgent.for_inference`), and its content digest.  Trained by
    #: this search when ``training_history`` is set, handed in otherwise; ``None``
    #: for the uniform-crossover ablation.
    #: A journaled result keeps the digest only — the agent is its own store object.
    agent: Optional[CrossoverAgent] = field(default=None, repr=False)
    agent_digest: Optional[str] = None

    # -- durable form ----------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        if "_archive" in state:
            # Loaded and never read: the bytes go out as they came in.
            for name in _ARCHIVE_FIELDS:
                state.pop(name, None)
        else:
            state["_archive"] = pickle.dumps(
                tuple(state.pop(name) for name in _ARCHIVE_FIELDS),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Results pickled before store frame version 5 held the archive as fields;
        # there is no reader for that.
        if "_archive" not in state:
            raise TypeError("SearchResult pickled without its packed archive")
        self.__dict__.update(state)

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails, i.e. for the archive of a loaded result.
        if name in _ARCHIVE_FIELDS:
            state = self.__dict__
            archive = state.get("_archive")
            if archive is not None:
                # Publish before dropping the bytes: a racing reader finds one.
                for field_name, value in zip(_ARCHIVE_FIELDS, pickle.loads(archive)):
                    state.setdefault(field_name, value)
                state.pop("_archive", None)
            if name in state:
                return state[name]
        raise AttributeError(f"{type(self).__name__} object has no attribute {name!r}")

    # -- plan selection shortcuts (Figures 12-14) ------------------------------------------
    def _best(self, index: int) -> PlanQuality:
        if not self.pareto:
            raise ValueError("no feasible plan was found")
        return min(self.pareto, key=lambda q: q.objectives()[index])

    def best_for(self, objective: str) -> PlanQuality:
        """The front's best plan along one named objective (any of ``objective_names``)."""
        try:
            index = self.objective_names.index(objective)
        except ValueError:
            raise KeyError(
                f"no objective named {objective!r} in {self.objective_names}"
            ) from None
        return self._best(index)

    def performance_optimized(self) -> PlanQuality:
        return self._best(0)

    def availability_optimized(self) -> PlanQuality:
        return self._best(1)

    def cost_optimized(self) -> PlanQuality:
        return self._best(2)

    def front_points(self) -> List[Tuple[float, ...]]:
        """The K-dimensional objective vectors of the Pareto front."""
        return [tuple(q.objectives()) for q in self.pareto]

    def knee_point(self) -> PlanQuality:
        """The front's balanced compromise: minimum distance-to-ideal on the
        normalized front (see :func:`~repro.optimizer.pareto.knee_index`)."""
        if not self.pareto:
            raise ValueError("no feasible plan was found")
        return self.pareto[knee_index(self.front_points())]

    def knee_ordered(self) -> List[PlanQuality]:
        """The front ordered by distance-to-ideal (knee first, stable on ties)."""
        if not self.pareto:
            return []
        distances = distance_to_ideal(self.front_points())
        order = np.argsort(distances, kind="stable")
        return [self.pareto[int(i)] for i in order]


class AtlasGA:
    """DRL-based genetic algorithm over migration plans.

    ``locations`` is the set of location ids the search may place components at; the
    default is the paper's two-location topology.  Multi-location searches use the same
    loop — only the sampling/mutation/neighbourhood operators widen to the extra sites.
    """

    def __init__(
        self,
        evaluator: QualityEvaluator,
        components: Sequence[str],
        config: Optional[GAConfig] = None,
        seed_vectors: Optional[Sequence[Sequence[int]]] = None,
        locations: Optional[Sequence[int]] = None,
        agent: Optional[CrossoverAgent] = None,
    ) -> None:
        """``agent`` is a crossover agent an earlier search of this application
        trained: when it fits this search (same component count, locations, pins
        and whitelists) the DRL search breeds with it instead of training its own,
        and the whole evaluation budget goes to generations.  One that does not
        fit is ignored — the search then trains exactly as without it."""
        self.evaluator = evaluator
        self.components = list(components)
        self.config = config or GAConfig()
        self.locations: Tuple[int, ...] = (
            tuple(int(loc) for loc in locations)
            if locations is not None
            else (ON_PREM, CLOUD)
        )
        if len(set(self.locations)) != len(self.locations) or len(self.locations) < 2:
            raise ValueError("locations must be at least two distinct ids")
        if ON_PREM not in self.locations:
            raise ValueError("locations must include the on-prem site (0)")
        self._rng = np.random.default_rng(self.config.seed)
        pins = evaluator.preferences.pinned_placement
        self._pinned_indices: Dict[int, int] = {
            self.components.index(c): loc for c, loc in pins.items() if c in self.components
        }
        invalid = sorted(
            c for c, loc in pins.items() if c in self.components and loc not in self.locations
        )
        if invalid:
            raise ValueError(
                f"components {invalid} are pinned to locations outside the search "
                f"space {self.locations}"
            )
        # Per-gene allowed-location sets (the owner's whitelists restricted to the
        # search space) plus the shared deterministic repair map.
        self._allowed_indices: Dict[int, Tuple[int, ...]] = {}
        for component, allowed in evaluator.preferences.allowed_locations.items():
            if component not in self.components:
                continue
            index = self.components.index(component)
            if index in self._pinned_indices:
                continue
            self._allowed_indices[index] = tuple(
                loc for loc in self.locations if loc in allowed
            )
        self._allowed_repair = allowed_repair_targets(
            self._allowed_indices, self.locations, on_prem=ON_PREM
        )
        self.seed_vectors = [self._apply_constraints(list(v)) for v in (seed_vectors or [])]
        self.agent: Optional[CrossoverAgent] = None
        fits = agent is not None and (
            agent.n_components == len(self.components)
            and agent.locations == self.locations
            and agent.pinned == self._pinned_indices
            and agent.allowed == self._allowed_indices
        )
        self._learned_agent = agent.for_inference() if fits else None

    # -- plan helpers ---------------------------------------------------------------------
    def _apply_constraints(self, vector: List[int]) -> List[int]:
        """Force pinned genes to their location and repair whitelist violations.

        The repair is deterministic (no RNG): a gene drawn at a disallowed site moves
        to the component's first permitted remote site, keeping the offload intent,
        or back on-prem when no remote site is permitted.  With no whitelists this
        reduces to the historical pin application, so fixed-seed trajectories are
        unchanged.
        """
        for index, location in self._pinned_indices.items():
            vector[index] = location
        apply_allowed_repair(vector, self._allowed_repair, on_prem=ON_PREM)
        return vector

    def _gene_permits(self, index: int, target: int) -> bool:
        """Whether the component's whitelist allows the target location.

        Keeps the elite local search from spending evaluation budget on moves that
        the location-violation mask is guaranteed to reject.
        """
        if target == ON_PREM:
            return True
        permitted = self._allowed_indices.get(index)
        return permitted is None or target in permitted

    def _random_vector(self) -> List[int]:
        # Spread the initial population across offload ratios: when the on-prem cluster
        # is far over capacity only high-offload plans are feasible, while low-offload
        # plans matter when it is not.  Offloaded genes pick a remote site uniformly.
        offload_prob = self._rng.uniform(0.1, 0.95)
        offloaded = self._rng.random(len(self.components)) < offload_prob
        return self._apply_constraints(
            random_location_vector(self._rng, offloaded, self.locations)
        )

    # -- reward (Eq. 5) ----------------------------------------------------------------------
    def reward(
        self,
        children: Sequence[Sequence[int]],
        parents_a: Sequence[Sequence[int]],
        parents_b: Sequence[Sequence[int]],
    ) -> List[float]:
        """Eq. 5 reward of every ``(child, parent_a, parent_b)`` row of a block.

        The whole block is scored by one ``evaluate_vectors`` call over the rows
        ``child_0, a_0, b_0, child_1, ...``: first-occurrence dedup visits the plans
        in the order row-by-row scoring would, so ``evaluations`` and the
        ``evaluated_qualities()`` order do not depend on the block size.
        """
        rows = [
            vector
            for triple in zip(children, parents_a, parents_b)
            for vector in triple
        ]
        qualities = self.evaluator.evaluate_vectors(rows, self.components)
        rewards: List[float] = []
        for child, qa, qb in zip(qualities[0::3], qualities[1::3], qualities[2::3]):
            improved = 0
            for child_value, a_value, b_value in zip(
                child.objectives(), qa.objectives(), qb.objectives()
            ):
                if min(a_value, b_value) > child_value:
                    improved += 1
            rewards.append(
                float(improved) if child.feasible else -float(max(improved, 1))
            )
        return rewards

    # -- agent training ------------------------------------------------------------------------
    def train_agent(self) -> TrainingHistory:
        """Train the crossover agent on random parent pairs (application-learning phase)."""
        agent = CrossoverAgent(
            n_components=len(self.components),
            pinned=self._pinned_indices,
            seed=self.config.seed,
            locations=self.locations,
            allowed=self._allowed_indices,
        )
        pairs = [
            (self._random_vector(), self._random_vector())
            for _ in range(self.config.train_pairs)
        ]
        history = agent.train(
            pairs,
            self.reward,
            iterations=self.config.train_iterations,
            batch_size=self.config.train_batch_size,
        )
        self.agent = agent
        return history

    # -- memetic refinement -----------------------------------------------------------------------
    def _move_candidates(self, vector: Sequence[int]) -> List[List[int]]:
        """Neighbourhood of one plan: single moves plus joint moves of communicating pairs.

        The pair moves are workflow-aware: relocating a caller together with its callee
        keeps their interaction local, which single moves cannot express (e.g. moving a
        cache back on-prem together with the service that reads it synchronously).
        Every move targets each of the search's locations in turn, so on a 3-site
        topology a single gene yields two candidates (the two other sites) and a pair
        or API path can be consolidated onto any one site.
        """
        moves: List[List[int]] = []
        n = len(vector)
        for gene in range(n):
            if gene in self._pinned_indices:
                continue
            for target in self.locations:
                if vector[gene] == target or not self._gene_permits(gene, target):
                    continue
                candidate = list(vector)
                candidate[gene] = target
                moves.append(candidate)
        index = {name: i for i, name in enumerate(self.components)}
        for caller, callee in self.evaluator.performance.invocation_edges():
            i, j = index.get(caller), index.get(callee)
            if i is None or j is None:
                continue
            if i in self._pinned_indices or j in self._pinned_indices:
                continue
            for target in self.locations:
                if vector[i] == target and vector[j] == target:
                    continue
                if not (self._gene_permits(i, target) and self._gene_permits(j, target)):
                    continue
                candidate = list(vector)
                candidate[i] = target
                candidate[j] = target
                moves.append(candidate)
        # API-path moves: relocate every (movable) component one API touches to the same
        # site.  This is the API-centric counterpart of the pair moves above — e.g. keep
        # the whole media path on-prem so /getMedia never crosses datacenters.
        for members in self.evaluator.performance.api_components().values():
            indices = [
                index[name]
                for name in members
                if name in index and index[name] not in self._pinned_indices
            ]
            if not indices:
                continue
            for target in self.locations:
                if all(vector[i] == target for i in indices):
                    continue
                if not all(self._gene_permits(i, target) for i in indices):
                    continue
                candidate = list(vector)
                for i in indices:
                    candidate[i] = target
                moves.append(candidate)
        return moves

    def _elite_local_search(
        self, population: Sequence[Sequence[int]], qualities: Sequence[PlanQuality]
    ) -> List[List[int]]:
        """One improvement sweep on the best feasible plan per objective.

        Every candidate move goes through the (cached, budget-counted) evaluator, so the
        refinement respects the "plans visited" accounting of the paper's comparison.
        """
        improved: List[List[int]] = []
        feasible = [
            (vector, quality)
            for vector, quality in zip(population, qualities)
            if quality.feasible
        ]
        if not feasible:
            return improved
        for objective_index in range(self.evaluator.problem.K):
            vector, quality = min(feasible, key=lambda vq: vq[1].objectives()[objective_index])
            best_vector = list(vector)
            best_value = quality.objectives()[objective_index]
            # Batch-evaluate the neighbourhood in chunks bounded by the remaining
            # budget: each uncached plan costs exactly one evaluation, so a chunk of
            # `remaining` candidates can never overshoot, and cache hits let the next
            # chunk pick up the leftovers — the same candidates are visited as the
            # sequential check-then-evaluate loop.
            moves = self._move_candidates(vector)
            position = 0
            while position < len(moves):
                remaining = self.config.evaluation_budget - self.evaluator.evaluations
                if remaining <= 0:
                    break
                chunk = moves[position : position + remaining]
                position += len(chunk)
                qualities_chunk = self.evaluator.evaluate_vectors(chunk, self.components)
                for candidate, candidate_quality in zip(chunk, qualities_chunk):
                    if (
                        candidate_quality.feasible
                        and candidate_quality.objectives()[objective_index] < best_value
                    ):
                        best_vector = candidate
                        best_value = candidate_quality.objectives()[objective_index]
            if best_vector != list(vector):
                improved.append(best_vector)
        return improved

    # -- main loop -------------------------------------------------------------------------------
    def run(self) -> SearchResult:
        """Run the seeded search to its evaluation budget (or ``max_generations``)."""
        start = time.perf_counter()
        # Plans cached on the evaluator before this run started (e.g. by a previous
        # run() on a shared evaluator) are not part of this run's "plans visited".
        preexisting = self.evaluator.cache_size()
        history: Optional[TrainingHistory] = None
        if self.config.crossover == "drl":
            if self._learned_agent is not None:
                self.agent = self._learned_agent
            else:
                history = self.train_agent()

        population: List[List[int]] = [list(v) for v in self.seed_vectors]
        population += [
            self._random_vector()
            for _ in range(max(self.config.population_size - len(population), 0))
        ]
        qualities: List[PlanQuality] = self.evaluator.evaluate_vectors(
            population, self.components
        )
        breeding = self.config.crossover == "drl" and self.agent is not None
        generations = 0
        while (
            self.evaluator.evaluations < self.config.evaluation_budget
            and generations < self.config.max_generations
        ):
            generations += 1
            objectives = [penalized_objectives(q) for q in qualities]
            ranked = rank_population(objectives)
            pairs = tournament_pairs(ranked, self.config.offspring_per_generation, self._rng)
            offspring: List[List[int]] = []
            # The agent's forward draws no RNG: the generation's pairs run as one
            # stacked actor pass, and each child draws from its row in pair order.
            if breeding and pairs:
                probabilities = self.agent.pair_probabilities(
                    [population[idx_a] for idx_a, _ in pairs],
                    [population[idx_b] for _, idx_b in pairs],
                )
            for row, (idx_a, idx_b) in enumerate(pairs):
                if breeding:
                    child = self.agent.sample_child(probabilities[row], self._rng)
                else:
                    child = uniform_crossover(
                        population[idx_a], population[idx_b], self._rng
                    )
                child = bitflip_mutation(
                    child, self._rng, self.config.mutation_rate, locations=self.locations
                )
                offspring.append(self._apply_constraints(child))
            for _ in range(self.config.immigrants_per_generation):
                offspring.append(self._random_vector())
            if (
                self.config.local_search_period > 0
                and generations % self.config.local_search_period == 0
            ):
                offspring.extend(self._elite_local_search(population, qualities))
            offspring_quality = self.evaluator.evaluate_vectors(
                offspring, self.components
            )

            combined = population + offspring
            combined_quality = qualities + offspring_quality
            combined_objectives = [penalized_objectives(q) for q in combined_quality]
            survivors = survival_selection(combined_objectives, self.config.population_size)
            population = [combined[i] for i in survivors]
            qualities = [combined_quality[i] for i in survivors]

        feasible = [q for q in qualities if q.feasible]
        front = pareto_front(feasible, key=lambda q: q.objectives())
        front.sort(key=lambda q: q.objectives())
        used = self.agent.for_inference() if self.config.crossover == "drl" else None
        return SearchResult(
            pareto=front,
            generations=generations,
            evaluations=self.evaluator.evaluations,
            training_history=history,
            wall_clock_s=time.perf_counter() - start,
            all_evaluated=self.evaluator.evaluated_qualities()[preexisting:],
            objective_names=self.evaluator.problem.objective_names,
            agent=used,
            agent_digest=used.content_digest() if used is not None else None,
        )
