"""Migration quality modeling: performance (delay injection), availability, cost.

The objective/constraint surface is a plugin API (:mod:`repro.quality.problem`):
``PlacementProblem`` declares K objectives + constraints (+ an optional scenario
axis) and ``QualityEvaluator`` executes it over plan matrices; the paper's QPerf /
QAvai / QCost triple and the Eq. 4 constraints are the built-in plugins, and
``PlacementProblem.default()`` reproduces them byte-for-byte.

The scenario axis (:mod:`repro.quality.scenarios`) threads workload scenarios —
bursts, mix shifts, payload growth — through the whole stack: ``ScenarioSet`` names
the S axis, ``RobustAggregator`` collapses the S×P objective tensor, and a
``PlacementProblem`` declaring ``scenarios`` makes every ``QualityEvaluator`` door
score plans robustly against the whole family.  ``QualityEvaluator.evaluate_under``
scores one plan under one undeclared workload shape (the adversary's probe), uncached.
"""

from .adversary import AdversaryBounds, RobustnessCertificate, ScenarioAdversary
from .artifacts import ArtifactCache, fingerprint_traces
from .availability import ApiAvailabilityModel, AvailabilityEstimate
from .compiled import CompiledTraceSet
from .cost import CloudCostModel, CostEstimate, PricingCatalog
from .evaluator import PlanQuality, QualityEvaluator
from .faults import (
    CapacityCut,
    FaultedStack,
    FaultSpec,
    LinkDegradation,
    LocationOutage,
    PriceShock,
)
from .performance import ApiPerformanceModel, DelayInjector, PerformanceEstimate
from .preferences import MigrationPreferences
from .problem import (
    AllowedLocationsConstraint,
    BudgetConstraint,
    Constraint,
    ConstraintCheck,
    EgressTrafficObjective,
    EvalContext,
    MigrationChurnObjective,
    Objective,
    OnPremPeakConstraint,
    PinnedPlacementConstraint,
    PlacementProblem,
    QAvaiObjective,
    QCostObjective,
    QPerfObjective,
)
from .scenario_factory import ScenarioFactory
from .scenarios import (
    CVaR,
    RobustAggregator,
    ScenarioQuality,
    ScenarioSet,
    ScenarioSpec,
    WeightedMean,
    WorstCase,
    scaled_footprint,
)

__all__ = [
    "ArtifactCache",
    "fingerprint_traces",
    "CompiledTraceSet",
    "DelayInjector",
    "ApiPerformanceModel",
    "PerformanceEstimate",
    "ApiAvailabilityModel",
    "AvailabilityEstimate",
    "PricingCatalog",
    "CostEstimate",
    "CloudCostModel",
    "MigrationPreferences",
    "PlanQuality",
    "QualityEvaluator",
    "PlacementProblem",
    "Objective",
    "Constraint",
    "ConstraintCheck",
    "EvalContext",
    "QPerfObjective",
    "QAvaiObjective",
    "QCostObjective",
    "EgressTrafficObjective",
    "MigrationChurnObjective",
    "PinnedPlacementConstraint",
    "AllowedLocationsConstraint",
    "OnPremPeakConstraint",
    "BudgetConstraint",
    "ScenarioSpec",
    "ScenarioSet",
    "ScenarioQuality",
    "RobustAggregator",
    "WorstCase",
    "WeightedMean",
    "CVaR",
    "scaled_footprint",
    "FaultSpec",
    "FaultedStack",
    "LocationOutage",
    "LinkDegradation",
    "PriceShock",
    "CapacityCut",
    "ScenarioFactory",
    "AdversaryBounds",
    "RobustnessCertificate",
    "ScenarioAdversary",
]
