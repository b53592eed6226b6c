"""Advisor facade and plan-selection helpers."""

from .advisor import (
    AdvisorService,
    ApplicationKnowledge,
    Atlas,
    AtlasConfig,
    Recommendation,
    ReplanPrior,
)
from .hierarchy import PlanCluster, PlanHierarchy

__all__ = [
    "Atlas",
    "AtlasConfig",
    "AdvisorService",
    "ApplicationKnowledge",
    "Recommendation",
    "ReplanPrior",
    "PlanCluster",
    "PlanHierarchy",
]
