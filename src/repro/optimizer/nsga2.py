"""NSGA-II selection machinery shared by the Atlas GA and the baseline GAs.

Atlas reuses NSGA-II's non-dominated sorting, crowding distance and binary tournament
to pick *which* parent plans to cross; the difference (Section 4.2.1) is *how* the
crossover is performed — the classic GA combines parents uniformly at random, Atlas asks
a trained DRL agent.  This module provides the shared machinery plus the classic
random-crossover operators so both variants can be built from the same parts.  The
operators work on location vectors over any number of sites; the paper's two-site
search is their N = 2 case, with no path of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .pareto import crowding_distance, non_dominated_sort

__all__ = [
    "RankedIndividual",
    "rank_population",
    "binary_tournament",
    "tournament_pairs",
    "survival_selection",
    "uniform_crossover",
    "bitflip_mutation",
    "random_location_vector",
    "allowed_repair_targets",
    "apply_allowed_repair",
]

Vector = Tuple[int, ...]


@dataclass(frozen=True)
class RankedIndividual:
    """One population member with its NSGA-II rank and crowding distance."""

    index: int
    objectives: Tuple[float, ...]
    rank: int
    crowding: float

    def beats(self, other: "RankedIndividual") -> bool:
        """Crowded-comparison operator: lower rank wins, ties broken by larger crowding."""
        if self.rank != other.rank:
            return self.rank < other.rank
        return self.crowding > other.crowding


def rank_population(objectives: Sequence[Sequence[float]]) -> List[RankedIndividual]:
    """Assign NSGA-II rank and crowding distance to every objective vector."""
    fronts = non_dominated_sort(objectives)
    ranked: List[Optional[RankedIndividual]] = [None] * len(objectives)
    for rank, front in enumerate(fronts):
        front_objectives = [objectives[i] for i in front]
        distances = crowding_distance(front_objectives)
        for i, dist in zip(front, distances):
            ranked[i] = RankedIndividual(
                index=i,
                objectives=tuple(float(v) for v in objectives[i]),
                rank=rank,
                crowding=dist,
            )
    return [ind for ind in ranked if ind is not None]


def binary_tournament(
    ranked: Sequence[RankedIndividual], rng: np.random.Generator
) -> RankedIndividual:
    """Pick two members at random and return the better one under crowded comparison."""
    if not ranked:
        raise ValueError("cannot run a tournament on an empty population")
    a, b = rng.integers(0, len(ranked), size=2)
    first, second = ranked[int(a)], ranked[int(b)]
    return first if first.beats(second) else second


def tournament_pairs(
    ranked: Sequence[RankedIndividual], pairs: int, rng: np.random.Generator
) -> List[Tuple[int, int]]:
    """Select parent index pairs via binary tournaments, preferring diverse parents."""
    selected: List[Tuple[int, int]] = []
    for _ in range(pairs):
        p1 = binary_tournament(ranked, rng)
        p2 = binary_tournament(ranked, rng)
        attempts = 0
        while p2.index == p1.index and attempts < 5:
            p2 = binary_tournament(ranked, rng)
            attempts += 1
        selected.append((p1.index, p2.index))
    return selected


def survival_selection(
    objectives: Sequence[Sequence[float]], capacity: int
) -> List[int]:
    """Indices of the ``capacity`` members kept for the next generation (NSGA-II elitism)."""
    if capacity <= 0:
        return []
    fronts = non_dominated_sort(objectives)
    survivors: List[int] = []
    for front in fronts:
        if len(survivors) + len(front) <= capacity:
            survivors.extend(front)
            continue
        remaining = capacity - len(survivors)
        if remaining <= 0:
            break
        distances = crowding_distance([objectives[i] for i in front])
        order = sorted(range(len(front)), key=lambda k: distances[k], reverse=True)
        survivors.extend(front[k] for k in order[:remaining])
        break
    return survivors


def random_location_vector(
    rng: np.random.Generator,
    offloaded: Sequence[bool],
    locations: Sequence[int],
    on_prem: int = 0,
) -> List[int]:
    """Random location vector over a caller-drawn offload mask: each offloaded gene
    picks one of the remote sites uniformly, every other gene stays on-prem.

    Shared by the Atlas GA and the baseline samplers so all search the same plan
    distribution; each caller draws its mask and offload probability in its own
    order.  With one remote site (the paper's two-site topology)
    ``rng.integers(0, 1, size=n)`` returns zeros and draws nothing, so the vector is
    the mask and the stream is the bit-vector sampler's, draw for draw.
    """
    remote = [loc for loc in locations if loc != on_prem]
    if not remote:
        raise ValueError("locations must include at least one remote site")
    sites = rng.integers(0, len(remote), size=len(offloaded))
    return [
        remote[int(site)] if moved else on_prem
        for moved, site in zip(offloaded, sites)
    ]


def allowed_repair_targets(
    allowed: Mapping[int, Sequence[int]],
    locations: Sequence[int],
    on_prem: int = 0,
) -> Dict[int, Tuple[Tuple[int, ...], int]]:
    """Per-gene (permitted locations, deterministic repair target) for whitelists.

    The repair target of a restricted gene is the first permitted *remote* site in
    ``locations`` order (keeping the offload intent of a disallowed draw), or
    on-prem when the whitelist leaves no remote site.  Shared by the Atlas GA and
    the DRL crossover agent so both repair identically.
    """
    targets: Dict[int, Tuple[Tuple[int, ...], int]] = {}
    for index, permitted in allowed.items():
        permitted_ids = tuple(int(loc) for loc in permitted)
        remotes = [loc for loc in locations if loc != on_prem and loc in permitted_ids]
        targets[int(index)] = (permitted_ids, remotes[0] if remotes else on_prem)
    return targets


def apply_allowed_repair(
    vector,
    targets: Mapping[int, Tuple[Tuple[int, ...], int]],
    on_prem: int = 0,
) -> None:
    """Repair whitelist-violating genes in place (no RNG consumed).

    Works on lists and numpy vectors alike; genes at the on-prem site are always
    legal (whitelists restrict remote placements only).
    """
    for index, (permitted, target) in targets.items():
        if vector[index] != on_prem and vector[index] not in permitted:
            vector[index] = target


def uniform_crossover(
    parent_a: Sequence[int], parent_b: Sequence[int], rng: np.random.Generator
) -> List[int]:
    """Classic uniform crossover: each gene comes from either parent with equal chance.

    Genes are location ids, so the operator is location-count agnostic: it never
    invents a location neither parent uses.
    """
    if len(parent_a) != len(parent_b):
        raise ValueError("parents must have the same length")
    mask = rng.random(len(parent_a)) < 0.5
    return [int(a if m else b) for a, b, m in zip(parent_a, parent_b, mask)]


def bitflip_mutation(
    vector: Sequence[int],
    rng: np.random.Generator,
    rate: float = 0.05,
    locations: Sequence[int] = (0, 1),
) -> List[int]:
    """Move each gene to a random *other* location with probability ``rate``.

    Pass the topology's ``locations`` to mutate over all N sites; the default keeps the
    paper's two-location flip.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must be in [0, 1]")
    result = list(int(v) for v in vector)
    for i in range(len(result)):
        if rng.random() < rate:
            choices = [loc for loc in locations if loc != result[i]]
            if choices:
                # The draw ``rng.choice(choices)`` makes, without its array round trip.
                result[i] = int(choices[int(rng.integers(0, len(choices)))])
    return result
