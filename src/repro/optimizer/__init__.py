"""Plan search: Pareto tools, NSGA-II machinery, DRL crossover, Atlas GA and baselines."""

from .atlas_ga import AtlasGA, GAConfig, SearchResult, penalized_objectives
from .baselines import (
    AffinityNSGA2Baseline,
    BaselineContext,
    GreedyBusiestBaseline,
    GreedySmallestBaseline,
    IntMABaseline,
    REMaPBaseline,
    RandomSearchBaseline,
)
from .drl import AdamOptimizer, CrossoverAgent, MLP, TrainingHistory
from .nsga2 import (
    RankedIndividual,
    binary_tournament,
    bitflip_mutation,
    rank_population,
    survival_selection,
    tournament_pairs,
    uniform_crossover,
)
from .pareto import (
    crowding_distance,
    distance_to_ideal,
    dominates,
    hypervolume_2d,
    knee_index,
    non_dominated_sort,
    pareto_front,
)

__all__ = [
    "dominates",
    "pareto_front",
    "non_dominated_sort",
    "crowding_distance",
    "hypervolume_2d",
    "distance_to_ideal",
    "knee_index",
    "RankedIndividual",
    "rank_population",
    "binary_tournament",
    "tournament_pairs",
    "survival_selection",
    "uniform_crossover",
    "bitflip_mutation",
    "MLP",
    "AdamOptimizer",
    "CrossoverAgent",
    "TrainingHistory",
    "GAConfig",
    "SearchResult",
    "AtlasGA",
    "penalized_objectives",
    "BaselineContext",
    "GreedyBusiestBaseline",
    "GreedySmallestBaseline",
    "IntMABaseline",
    "REMaPBaseline",
    "AffinityNSGA2Baseline",
    "RandomSearchBaseline",
]
