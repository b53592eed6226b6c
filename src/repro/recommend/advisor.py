"""The Atlas advisor facade: application learning → recommendation → monitoring.

:class:`Atlas` wires the whole pipeline of Figure 5 together behind a small API:

>>> atlas = Atlas(application, preferences)
>>> knowledge = atlas.learn(telemetry)                   # stage 1: application learning
>>> recommendation = atlas.recommend(expected_scale=5.0) # stage 2: plan recommendation
>>> plan = recommendation.performance_optimized().plan
>>> detector = atlas.drift_detector(recommendation, plan, measured_latencies)
>>> detector.drifted_apis(recent_latencies)              # stage 3: monitoring

``recommend(problem=...)`` is the declarative front door: a
:class:`~repro.quality.problem.PlacementProblem` declares the K objectives, the
constraints and an optional scenario axis, and the search follows it — e.g. the
paper's triple plus an egress objective yields a 4-D Pareto front, knee point first.

Everything Atlas consumes comes from the :class:`~repro.telemetry.server.TelemetryServer`
(traces, component metrics, mesh counters) plus the owner's
:class:`~repro.quality.preferences.MigrationPreferences`.
"""

from __future__ import annotations

import dataclasses
import operator
import threading
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

import numpy as np

from ..apps.model import Application
from ..cluster.network import NetworkModel, default_network_model
from ..cluster.placement import MigrationPlan
from ..cluster.topology import CLOUD, ON_PREM, HybridCluster
from ..digest import sha_parts
from ..learning.api_profile import ApiProfile, ApiProfiler
from ..learning.component_profile import ComponentProfile, ComponentProfiler
from ..learning.estimator import ResourceEstimate, ResourceEstimator
from ..learning.footprint import FootprintLearner, NetworkFootprint
from ..monitoring.drift import DriftDetector
from ..monitoring.security import BreachDetector
from ..optimizer.atlas_ga import AtlasGA, GAConfig, SearchResult, affinity_seed_vectors
from ..optimizer.baselines import BaselineContext
from ..optimizer.drl.agent import CrossoverAgent
from ..quality.adversary import (
    AdversaryBounds,
    RobustnessCertificate,
    ScenarioAdversary,
)
from ..quality.artifacts import ArtifactCache, fingerprint_traces
from ..quality.availability import ApiAvailabilityModel
from ..quality.cost import CloudCostModel, PricingCatalog
from ..quality.evaluator import PlanQuality, QualityEvaluator
from ..quality.performance import ApiPerformanceModel, PerformanceEstimate
from ..quality.preferences import MigrationPreferences
from ..quality.problem import PlacementProblem
from ..quality.scenario_factory import ScenarioFactory
from ..quality.scenarios import ScenarioSet, ScenarioSpec
from ..telemetry.server import TelemetryServer
from .hierarchy import PlanHierarchy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serving.store import ArtifactStore
    from ..telemetry.tracing import Trace

__all__ = [
    "AtlasConfig",
    "ApplicationKnowledge",
    "Recommendation",
    "ReplanPrior",
    "Atlas",
    "AdvisorService",
]

#: Scenario-evaluation budget of ``Atlas.recommend(certify=True)`` and the default of
#: ``certify_plan`` / ``recertify`` — a cap above every shipped topology's stress
#: families plus its ``|remote sites| + 1`` all-severe corners (9 probes at three sites).
DEFAULT_CERTIFY_BUDGET = 48

#: The budget of a re-plan that starts from the front the tenant was serving
#: (``docs/architecture.md`` decision record №8): ``(largest spliced-API fraction,
#: share of the configured evaluation budget)`` rows, ascending.  A drift that
#: spliced a larger fraction than the last row searches the whole budget.  The
#: rows are what ``benchmarks/bench_replan_law.py`` selects; it fails when they
#: are not.
REPLAN_RULE: Tuple[Tuple[float, float], ...] = ((0.6, 0.12),)


def replan_budget(config: GAConfig, spliced_fraction: float) -> int:
    """The evaluation budget :data:`REPLAN_RULE` gives a warm-started re-plan.

    Never below ``population_size + 1``, so the derived configuration always runs at
    least one generation (``GAConfig`` rejects any smaller budget).
    """
    share = next((share for bound, share in REPLAN_RULE if spliced_fraction <= bound), 1.0)
    return max(config.population_size + 1, round(config.evaluation_budget * share))


@dataclass(frozen=True)
class ReplanPrior:
    """The plans a tenant was serving when it drifted, and what the drift re-timed.

    Installed next to the crossover agent by the daemon's splice stage:
    :meth:`Atlas.recommend` then seeds the search with these plans, ahead of the
    affinity seeds, and spends the budget :func:`replan_budget` gives the fraction
    of APIs in ``spliced``.
    """

    #: Component order of every vector (the served plans' own).
    components: Tuple[str, ...]
    #: Location vectors of the served front, knee first.
    vectors: Tuple[Tuple[int, ...], ...]
    #: The APIs whose trace windows the drift replaced.
    spliced: Tuple[str, ...]

    def content_digest(self) -> str:
        return sha_parts([repr(self.components), repr(self.vectors), repr(self.spliced)])

    def seed_vectors(self, components: Sequence[str]) -> List[List[int]]:
        """The served plans, or none when they were planned over other components."""
        if self.components != tuple(components):
            return []
        return [list(vector) for vector in self.vectors]


@dataclass
class AtlasConfig:
    """Tunables of the advisor (paper defaults unless noted)."""

    traces_per_api: int = 30
    pricing: PricingCatalog = field(default_factory=PricingCatalog)
    #: Per-location pricing for N-location topologies: elastic location id -> that
    #: region's catalog.  ``None`` bills the single cloud (location 1) with ``pricing``.
    pricing_by_location: Optional[Dict[int, PricingCatalog]] = None
    #: Per-location availability failure-domain weights (destination location id ->
    #: disruption multiplier); ``None`` charges every disruption 1.0 (Eq. 3 verbatim).
    availability_location_weights: Optional[Dict[int, float]] = None
    #: Simulated-time to real-time factor: the workload generator compresses one day
    #: into five minutes (factor 288), so costs are billed on uncompressed time.
    time_compression: float = 288.0
    ga: GAConfig = field(default_factory=GAConfig)
    drift_threshold_factor: float = 5.0
    breach_ratio_threshold: float = 2.0


@dataclass
class ApplicationKnowledge:
    """Everything learned during the application-learning stage."""

    api_profiles: Dict[str, ApiProfile]
    component_profiles: Dict[str, ComponentProfile]
    footprint: NetworkFootprint
    estimator: ResourceEstimator
    #: The crossover agent a search of this application trained, once someone (the
    #: daemon's drift cycle) installs it: :meth:`Atlas.recommend` then breeds with
    #: it instead of training one.  Like everything here, dropped by ``learn``.
    crossover_agent: Optional[CrossoverAgent] = None
    #: The front the tenant was serving when it drifted (installed by the daemon's
    #: splice stage): :meth:`Atlas.recommend` re-plans from it.  Dropped by ``learn``.
    replan_prior: Optional[ReplanPrior] = None

    @property
    def apis(self) -> List[str]:
        return sorted(self.api_profiles)

    def stateful_components_by_api(self) -> Dict[str, List[str]]:
        return {api: list(p.stateful_components) for api, p in self.api_profiles.items()}


@dataclass
class Recommendation:
    """Output of one recommendation round.

    It owns the search ``result``, the ``evaluator`` that scored it and the knee
    point's ``certificate``; everything else — :attr:`estimate`, :attr:`problem`,
    :attr:`scenario_set` — is read from the evaluator, so a recommendation handed a
    different evaluator (the daemon's ``dataclasses.replace``) describes that one.

    ``plans`` returns the K-dimensional Pareto front ordered by distance-to-ideal on
    the normalized front — the knee point (the balanced compromise) first.  ``problem``
    is the :class:`~repro.quality.problem.PlacementProblem` the search optimized (the
    default paper triple unless ``Atlas.recommend(problem=...)`` declared otherwise).

    Scenario-robust rounds (a problem with scenarios) have a ``scenario_set``; every
    recommended plan's :attr:`~repro.quality.evaluator.PlanQuality.scenarios` holds
    its per-scenario objective breakdown, and :meth:`scenario_regret` /
    :meth:`scenario_report` quantify how far each plan sits from the per-scenario
    optimum.
    """

    result: SearchResult
    evaluator: QualityEvaluator
    #: Worst-case certificate of the knee-point plan (``Atlas.recommend(certify=...)``
    #: or a later ``Atlas.certify_plan`` / ``Atlas.recertify`` round).
    certificate: Optional[RobustnessCertificate] = None

    @property
    def estimate(self) -> ResourceEstimate:
        return self.evaluator.estimate

    @property
    def problem(self) -> PlacementProblem:
        return self.evaluator.problem

    @property
    def scenario_set(self) -> Optional[ScenarioSet]:
        return self.evaluator.problem.scenarios

    @property
    def plans(self) -> List[PlanQuality]:
        """The Pareto front, knee point first (distance-to-ideal ordering)."""
        return self.result.knee_ordered()

    def performance_optimized(self) -> PlanQuality:
        return self.result.performance_optimized()

    def availability_optimized(self) -> PlanQuality:
        return self.result.availability_optimized()

    def cost_optimized(self) -> PlanQuality:
        return self.result.cost_optimized()

    def knee_point(self) -> PlanQuality:
        """The front's balanced compromise (closest to ideal on the normalized front)."""
        return self.result.knee_point()

    def best_for(self, objective: str) -> PlanQuality:
        """The front's best plan along one named objective (e.g. ``"egress_gb"``)."""
        return self.result.best_for(objective)

    def hierarchy(self) -> PlanHierarchy:
        """Dendrogram view of the recommended plans (Figure 8)."""
        return PlanHierarchy(self.plans)

    def latency_preview(self, plan: MigrationPlan) -> Dict[str, PerformanceEstimate]:
        """Per-API latency preview for one plan (what the owner inspects before executing)."""
        return self.evaluator.performance.estimate_all(plan)

    # -- scenario axis ---------------------------------------------------------------------
    def scenario_optima(self) -> Dict[str, Tuple[float, ...]]:
        """Per-scenario best K-vector over every plan the search visited.

        Entry ``k`` is the best (minimum) value of objective ``k`` — the paper's
        (perf, avail, cost) triple under the default problem.  The per-scenario
        optimum is taken over all evaluated plans that are feasible *in that
        scenario* (falling back to all evaluated plans when none is) — the reference
        point the regret of a robust recommendation is measured against.  The plans
        are the result's own archive (``result.all_evaluated``), so the report reads
        the search it reports on, whatever the evaluator scored or dropped since.
        """
        if self.scenario_set is None:
            raise ValueError("this recommendation was not scenario-robust")
        evaluated = self.result.all_evaluated
        optima: Dict[str, Tuple[float, ...]] = {}
        for spec in self.scenario_set:
            entries = [
                scenario
                for quality in evaluated
                for scenario in quality.scenarios
                if scenario.scenario == spec.name
            ]
            pool = [entry for entry in entries if entry.feasible] or entries
            if not pool:
                raise ValueError("no plans were evaluated under the scenario axis")
            vectors = [entry.objectives() for entry in pool]
            optima[spec.name] = tuple(
                min(vector[k] for vector in vectors)
                for k in range(len(vectors[0]))
            )
        return optima

    @staticmethod
    def _regret_against(
        quality: PlanQuality, optima: Dict[str, Tuple[float, ...]]
    ) -> Dict[str, Tuple[float, ...]]:
        regret: Dict[str, Tuple[float, ...]] = {}
        for scenario in quality.scenarios:
            best = optima[scenario.scenario]
            regret[scenario.scenario] = tuple(
                value - best_value
                for value, best_value in zip(scenario.objectives(), best)
            )
        return regret

    def scenario_regret(self, quality: PlanQuality) -> Dict[str, Tuple[float, ...]]:
        """Per-scenario K-vector regret of one recommended plan.

        Regret is the plan's scenario objective minus the best value any visited
        plan achieves under that scenario — zero means the plan is per-scenario
        optimal along that objective, a large value is the price of robustness.
        Entries follow the problem's objective order ((perf, avail, cost) by
        default).
        """
        return self._regret_against(quality, self.scenario_optima())

    def scenario_report(self) -> List[Dict[str, object]]:
        """Per-(recommended plan, scenario) breakdown rows: objectives + regret.

        The legacy ``perf``/``avail``/``cost`` (and ``regret_*``) columns stay for
        the paper triple; every objective additionally reports under its own name
        (``<name>`` / ``regret_<name>``), so K > 3 problems get one column pair per
        extra objective.
        """
        rows: List[Dict[str, object]] = []
        optima = self.scenario_optima()
        legacy = {"qperf": "perf", "qavai": "avail", "qcost": "cost"}
        for index, quality in enumerate(self.plans):
            regret = self._regret_against(quality, optima)
            for scenario in quality.scenarios:
                row: Dict[str, object] = {
                    "plan": index,
                    "scenario": scenario.scenario,
                    "perf": scenario.perf,
                    "avail": scenario.avail,
                    "cost": scenario.cost,
                    "feasible": scenario.feasible,
                }
                names = scenario.names or ("qperf", "qavai", "qcost")
                for name, value, regret_value in zip(
                    names, scenario.objectives(), regret[scenario.scenario]
                ):
                    label = legacy.get(name, name)
                    if label not in row:
                        row[label] = value
                    row[f"regret_{label}"] = regret_value
                rows.append(row)
        return rows


class Atlas:
    """Hybrid cloud migration advisor for interactive microservices."""

    def __init__(
        self,
        application: Application,
        preferences: Optional[MigrationPreferences] = None,
        network: Optional[NetworkModel] = None,
        config: Optional[AtlasConfig] = None,
        current_plan: Optional[MigrationPlan] = None,
        cluster: Optional[HybridCluster] = None,
    ) -> None:
        """``cluster`` declares the topology the search runs over; omitting it keeps
        the paper's two-location setup (locations 0 and 1).  With a cluster the search
        space, per-region billing and the baselines all follow its datacenter list."""
        self.application = application
        self.preferences = preferences or MigrationPreferences()
        self.network = network or default_network_model()
        self.config = config or AtlasConfig()
        self.cluster = cluster
        self.current_plan = current_plan or MigrationPlan.all_on_prem(
            application.component_names
        )
        self.telemetry: Optional[TelemetryServer] = None
        self.knowledge: Optional[ApplicationKnowledge] = None
        #: ``_memoised``'s process-local memos: never pickled or copied.
        self._part_memos: Dict[object, Tuple[tuple, Optional[str]]] = {}

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_part_memos", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._part_memos = {}

    # -- topology ---------------------------------------------------------------------------
    @property
    def locations(self) -> List[int]:
        """Location ids of the search space (``[0, 1]`` without an explicit cluster)."""
        if self.cluster is not None:
            return self.cluster.location_ids
        return [ON_PREM, CLOUD]

    def _pricing_catalogs(self) -> Dict[int, PricingCatalog]:
        """Billable locations and their catalogs, derived from config + cluster."""
        if self.config.pricing_by_location is not None:
            return dict(self.config.pricing_by_location)
        if self.cluster is not None:
            return {
                dc.location_id: self.config.pricing
                for dc in self.cluster.elastic_datacenters()
            }
        return {CLOUD: self.config.pricing}

    # -- stage 1: application learning ------------------------------------------------------
    def learn(self, telemetry: TelemetryServer) -> ApplicationKnowledge:
        """Learn API profiles, component profiles, footprints and the resource model."""
        self.telemetry = telemetry
        profiler = ApiProfiler(
            telemetry,
            stateful_components=self.application.stateful_components(),
            traces_per_api=self.config.traces_per_api,
        )
        api_profiles = profiler.profile_all()
        component_profiles = ComponentProfiler(telemetry, self.application).profile_all()
        footprint = FootprintLearner(telemetry).learn()
        estimator = ResourceEstimator(self.application, telemetry).fit()
        self.knowledge = ApplicationKnowledge(
            api_profiles=api_profiles,
            component_profiles=component_profiles,
            footprint=footprint,
            estimator=estimator,
        )
        return self.knowledge

    # -- quality model assembly -----------------------------------------------------------------
    def build_evaluator(
        self,
        expected_scale: float = 1.0,
        api_rates: Optional[Mapping[str, Sequence[float]]] = None,
        preferences: Optional[MigrationPreferences] = None,
        performance_engine: str = "compiled",
        problem: Optional[PlacementProblem] = None,
        artifact_cache: Optional[ArtifactCache] = None,
    ) -> QualityEvaluator:
        """Build the quality evaluator for a period of interest.

        ``artifact_cache`` (opt-in) is the warm path: a
        :class:`~repro.quality.artifacts.ArtifactCache` shared across evaluator
        builds — typically owned by an :class:`AdvisorService` — lets repeated
        builds over the same testbed reuse compiled trace sets, Δ tables and
        compiled scenarios by content fingerprint instead of recompiling.  ``None``
        (the default) compiles from scratch, byte-identical to previous releases.

        ``expected_scale`` scales the observed traffic (the paper's 5x burst); passing
        explicit ``api_rates`` overrides it with any expected traffic forecast.
        ``performance_engine`` selects the delay-injection engine: the vectorized
        ``"compiled"`` replay (default, the production engine) or the recursive
        ``"reference"`` oracle (both produce identical numbers; the tests and
        benchmarks re-score through the oracle).

        ``problem`` declares the objective/constraint stack the evaluator executes
        (default: :meth:`PlacementProblem.default()
        <repro.quality.problem.PlacementProblem.default>`, the paper's three
        objectives under the Eq. 4 constraints).  A problem with its own
        preferences overrides ``preferences``; a problem with a scenario set returns
        the evaluator pre-bound to it.
        """
        knowledge = self._require_knowledge()
        if problem is not None and problem.preferences is not None:
            preferences = problem.preferences
        else:
            preferences = preferences or self.preferences
        estimator = knowledge.estimator
        estimate = (
            estimator.predict(api_rates)
            if api_rates is not None
            else estimator.predict_scaled(expected_scale)
        )
        traces_by_api = {
            api: profile.sample_traces for api, profile in knowledge.api_profiles.items()
        }
        performance = ApiPerformanceModel(
            traces_by_api=traces_by_api,
            footprint=knowledge.footprint,
            network=self.network,
            baseline_plan=self.current_plan,
            traces_per_api=self.config.traces_per_api,
            engine=performance_engine,
            artifact_cache=artifact_cache,
        )
        availability = ApiAvailabilityModel(
            stateful_components_by_api=knowledge.stateful_components_by_api(),
            baseline_plan=self.current_plan,
            location_weights=self.config.availability_location_weights,
        )
        storage_by_component = {
            comp.name: comp.resources.storage_gb for comp in self.application.components
        }
        cost = CloudCostModel(
            catalog=self.config.pricing,
            estimate=estimate,
            footprint=knowledge.footprint,
            storage_by_component=storage_by_component,
            baseline_plan=self.current_plan,
            time_compression=self.config.time_compression,
            catalogs=self._pricing_catalogs(),
        )
        digest = None
        if artifact_cache is not None:
            # What a scenario compiles from, and no trace: evaluators over equal
            # content (a splice moves traces only) share every compiled scenario.
            parts = _content_parts(self, traces=False)
            described = _describe(preferences)
            if parts is not None and described is not None:
                digest = sha_parts(
                    parts
                    + [
                        described,
                        repr(performance.apis),
                        repr(sorted(estimate.api_rates.items())),
                        repr(estimate.step_ms),
                    ]
                )
        return QualityEvaluator(
            performance=performance,
            availability=availability,
            cost=cost,
            preferences=preferences,
            estimate=estimate,
            component_order=self.application.component_names,
            estimator=estimator,
            problem=problem,
            artifact_cache=artifact_cache,
            content_digest=digest,
        )

    # -- stage 2: recommendation --------------------------------------------------------------
    def recommend(
        self,
        expected_scale: float = 1.0,
        api_rates: Optional[Mapping[str, Sequence[float]]] = None,
        preferences: Optional[MigrationPreferences] = None,
        ga_config: Optional[GAConfig] = None,
        problem: Optional[PlacementProblem] = None,
        certify: Union[None, bool, int] = None,
        artifact_cache: Optional[ArtifactCache] = None,
    ) -> Recommendation:
        """Run the DRL-based genetic search and return the Pareto-optimal plans.

        ``problem`` is the declarative front door: a
        :class:`~repro.quality.problem.PlacementProblem` bundling the K objectives,
        the constraints, an optional scenario set + robust aggregator and
        (optionally) the owner preferences — the search widens to K dimensions with
        zero further arguments.  ``expected_scale`` / ``api_rates`` stay first-class:
        they describe the period of interest the quality models are compiled for,
        not the problem.

        Robust recommendations (a problem with scenarios) carry per-scenario
        objective breakdowns and report regret against the per-scenario optima.

        ``certify`` attaches an adversarial worst-case certificate for the knee
        point: after the search, a :class:`~repro.quality.adversary.ScenarioAdversary`
        finds, in the bounded scenario/fault space, the spec maximizing the knee
        plan's regret and records the result on
        :attr:`Recommendation.certificate`.  ``certify=True`` uses the default
        evaluation budget; an integer sets the budget explicitly.

        With a :class:`ReplanPrior` installed on the knowledge (a drift re-plan),
        the served plans seed the search ahead of the affinity seeds and the
        evaluation budget is :func:`replan_budget`'s for the drift's spliced-API
        fraction.
        """
        problem, preferences = self._resolve_problem(preferences, problem)
        evaluator = self.build_evaluator(
            expected_scale=expected_scale,
            api_rates=api_rates,
            preferences=preferences,
            problem=problem,
            artifact_cache=artifact_cache,
        )
        knowledge = self._require_knowledge()
        components = self.application.component_names
        config = ga_config or self.config.ga
        seeds = self._seed_vectors(evaluator, config)
        prior = knowledge.replan_prior
        served = prior.seed_vectors(components) if prior is not None else []
        if served:
            # A drift re-plan: the served plans (re-scored under the spliced knowledge
            # like any seed) go first, and the drift's extent sets the budget.
            seeds = served + seeds
            spliced = len(set(prior.spliced) & set(knowledge.api_profiles))
            config = dataclasses.replace(
                config,
                evaluation_budget=replan_budget(config, spliced / len(knowledge.api_profiles)),
            )
        ga = AtlasGA(
            evaluator,
            components,
            config=config,
            seed_vectors=seeds,
            locations=self.locations,
            agent=knowledge.crossover_agent,
        )
        result = ga.run()
        recommendation = Recommendation(result=result, evaluator=evaluator)
        if certify:
            budget = DEFAULT_CERTIFY_BUDGET if certify is True else int(certify)
            recommendation.certificate = self.certify_plan(
                evaluator, recommendation.knee_point().plan, budget=budget
            )
        return recommendation

    def _resolve_problem(
        self,
        preferences: Optional[MigrationPreferences] = None,
        problem: Optional[PlacementProblem] = None,
    ) -> Tuple[PlacementProblem, MigrationPreferences]:
        """Validate the problem/preferences arguments of one recommend request.

        The single definition of what :meth:`recommend` optimizes for a given set
        of request arguments — shared with the :class:`AdvisorService` durable
        journal, whose revive path must rebuild the *same* evaluator a journaled
        search ran under.
        """
        if problem is None:
            problem = PlacementProblem.default()
        elif preferences is not None and problem.preferences is not None:
            raise ValueError("preferences were given both directly and on the problem")
        preferences = (
            problem.preferences
            if problem.preferences is not None
            else (preferences or self.preferences)
        )
        return problem, preferences

    def certify_plan(
        self,
        evaluator: QualityEvaluator,
        plan: MigrationPlan,
        budget: int = DEFAULT_CERTIFY_BUDGET,
        bounds: Optional[AdversaryBounds] = None,
        extra_specs: Sequence[ScenarioSpec] = (),
    ) -> RobustnessCertificate:
        """Adversarially certify one plan's worst case over the bounded scenario space.

        Builds a :class:`~repro.quality.scenario_factory.ScenarioFactory` from the
        evaluator's learned artifacts (its stress families are always scored) and runs
        the :class:`~repro.quality.adversary.ScenarioAdversary` against ``plan``.
        ``extra_specs`` are scored with the families — e.g. a drift-refreshed scenario.

        A certificate is a pure function of its inputs, so an evaluator built through
        an artifact cache keeps it there under ``("certificate", sha)`` of everything
        the adversary reads (:func:`_certificate_parts`): a drift cycle whose re-plan
        keeps the executed plan as its knee certifies it once.  Without a cache, or
        without a content description, the adversary runs every time.
        """

        def run() -> RobustnessCertificate:
            adversary = ScenarioAdversary(
                evaluator,
                factory=ScenarioFactory.from_evaluator(evaluator, locations=self.locations),
                bounds=bounds,
                budget=budget,
                extra_specs=extra_specs,
            )
            return adversary.certify(plan)

        cache = evaluator._artifact_cache
        parts = (
            None
            if cache is None
            else _certificate_parts(self, evaluator, plan, budget, bounds, extra_specs)
        )
        if parts is None:
            return run()
        return cache.get_or_build(("certificate", sha_parts(parts)), run)

    def recertify(
        self,
        recommendation: Recommendation,
        executed_plan: MigrationPlan,
        refreshed_traces: Optional[Mapping[str, Sequence[Trace]]] = None,
        budget: int = DEFAULT_CERTIFY_BUDGET,
        bounds: Optional[AdversaryBounds] = None,
    ) -> RobustnessCertificate:
        """Drift-triggered re-certification of an executed plan.

        Called after a drift verdict (:meth:`DriftDetector.check_all
        <repro.monitoring.drift.DriftDetector.check_all>`): the drifted APIs' fresh
        trace windows ``refreshed_traces`` are spliced into the recommendation's
        evaluator — those APIs recompile, the rest keep everything — and the
        adversary re-runs against the refreshed models.  Without windows (an
        evaluator already built over the refreshed knowledge, as the daemon's is) the
        models stay as they are.  A drift-refreshed scenario reaches the adversary
        through :meth:`certify_plan`'s ``extra_specs`` instead.  The fresh
        certificate replaces ``recommendation.certificate``.
        """
        evaluator = recommendation.evaluator
        if refreshed_traces:
            evaluator.splice(refreshed_traces)
        certificate = self.certify_plan(
            evaluator, executed_plan, budget=budget, bounds=bounds
        )
        recommendation.certificate = certificate
        return certificate

    def _seed_vectors(self, evaluator: QualityEvaluator, config: GAConfig):
        """Affinity-guided population seeds derived from Atlas's own learned footprints."""
        knowledge = self._require_knowledge()
        total_requests = {
            api: sum(series) for api, series in evaluator.estimate.api_rates.items()
        }
        pair_traffic = knowledge.footprint.expected_pair_traffic(total_requests)
        components = self.application.component_names
        return affinity_seed_vectors(
            components=components,
            pinned=evaluator.preferences.pinned_placement,
            pair_traffic=pair_traffic,
            # Seeding probes single vectors, many of them repeats (flip-and-revert
            # passes): each probe is feasible_mask over one row, and a budget check
            # prices every probe, repeats included.
            is_feasible=lambda vector: evaluator.is_feasible(
                MigrationPlan.from_vector(components, list(vector))
            ),
            rng=np.random.default_rng(config.seed + 101),
            count=4,
            locations=self.locations,
            allowed_locations=evaluator.preferences.allowed_locations,
        )

    # -- baselines support ------------------------------------------------------------------------
    def baseline_context(self, evaluator: QualityEvaluator) -> BaselineContext:
        """Context object feeding the comparison baselines with the same learned data."""
        knowledge = self._require_knowledge()
        telemetry = self._require_telemetry()
        message_matrix: Dict[tuple, float] = {}
        for api, profile in knowledge.api_profiles.items():
            for pair, per_request in profile.invocations_per_request.items():
                message_matrix[pair] = message_matrix.get(pair, 0.0) + per_request * profile.request_count
        busyness = {
            name: profile.mean_cpu_millicores
            for name, profile in knowledge.component_profiles.items()
        }
        return BaselineContext(
            components=self.application.component_names,
            evaluator=evaluator,
            traffic_matrix=telemetry.traffic_matrix(),
            message_matrix=message_matrix,
            busyness=busyness,
            locations=tuple(self.locations),
            network=self.network,
        )

    # -- stage 3: monitoring ------------------------------------------------------------------------
    def drift_detector(
        self,
        recommendation: Recommendation,
        executed_plan: MigrationPlan,
        measured_latencies: Mapping[str, Sequence[float]],
    ) -> DriftDetector:
        """Build the drift detector for one executed plan.

        ``measured_latencies`` are the per-API latencies observed right after executing
        the plan (the previous round's ground truth, ``b_real`` in the paper).
        """
        approx = {
            api: estimate.estimated_latencies_ms
            for api, estimate in recommendation.latency_preview(executed_plan).items()
            if api in measured_latencies
        }
        real = {api: list(measured_latencies[api]) for api in approx}
        return DriftDetector(
            approx_latencies=approx,
            real_latencies=real,
            threshold_factor=self.config.drift_threshold_factor,
        )

    def breach_detector(self) -> BreachDetector:
        """Footprint-based data-breach detector (Section 6)."""
        knowledge = self._require_knowledge()
        return BreachDetector(
            knowledge.footprint, ratio_threshold=self.config.breach_ratio_threshold
        )

    # -- internals --------------------------------------------------------------------------------------
    def _require_knowledge(self) -> ApplicationKnowledge:
        if self.knowledge is None:
            raise RuntimeError("Atlas.learn() must be called before this operation")
        return self.knowledge

    def _require_telemetry(self) -> TelemetryServer:
        if self.telemetry is None:
            raise RuntimeError("Atlas.learn() must be called before this operation")
        return self.telemetry


def _describe(value: object) -> Optional[str]:
    """Content-stable description of one request argument, or ``None`` if there is none.

    Dataclass/value-object reprs describe content; a repr that carries an address
    (``" at 0x"``: a default ``object.__repr__``, a function, a lambda, a
    ``functools.partial`` — at any depth of a container) describes only identity, so
    a key built from it would collide across distinct contents once ids are reused,
    and a journal entry under it could never be hit by another process.  A repr that
    elides content (``"..."``: numpy's summary of an array over 1 000 elements, a
    self-referencing container) describes only part of it, so two values differing
    in the elided part would share a key.  Returning ``None`` marks the request
    unmemoizable — a miss is sound, a collision is not.
    """
    text = repr(value)
    if " at 0x" in text or "..." in text:
        return None
    return text


def _certificate_parts(
    atlas: Atlas,
    evaluator: QualityEvaluator,
    plan: MigrationPlan,
    budget: int,
    bounds: Optional[AdversaryBounds],
    extra_specs: Sequence[ScenarioSpec],
) -> Optional[List[str]]:
    """Everything one certificate is computed from, or ``None`` if it has no description.

    The evaluator's content digest (every input a scenario compiles from), each API's
    *current* trace-set fingerprint (the digest survives a splice, a certificate must
    not), the problem, the plan as component order and location vector, the
    adversary's budget and bounds, the extra specs with their names (they label
    ``family_regrets``), the locations the factory searches and the replay engine.
    """
    problem, bounds_text = _describe(evaluator.problem), _describe(bounds or AdversaryBounds())
    if evaluator.content_digest is None or problem is None or bounds_text is None:
        return None
    performance = evaluator.performance
    parts = [evaluator.content_digest]
    for api in performance.apis:
        parts += [api, performance._trace_fingerprint(api)]
    return parts + [
        problem,
        repr(tuple(plan.components)),
        repr(tuple(plan.to_vector())),
        repr(int(budget)),
        bounds_text,
        repr([spec.key() for spec in extra_specs]),
        repr(list(atlas.locations)),
        performance.engine,
    ]


def _memoised(
    atlas: Atlas, slot: object, inputs: tuple, build: Callable[[tuple], Optional[str]]
) -> Optional[str]:
    """``build(inputs)``, kept on ``atlas`` while this request's walk yields the same objects.

    Sound only for inputs immutable all the way down (``tests/test_digests.py`` holds
    each memoised type to that), where identity implies content.  The inputs are
    compared one by one with ``is``, never ``==``: equal values can ``repr`` apart
    (``-0.0`` and ``0.0``).  The containers holding them are still walked per request.
    """
    memo = atlas._part_memos.get(slot)
    if (
        memo is not None
        and len(memo[0]) == len(inputs)
        and all(map(operator.is_, memo[0], inputs))
    ):
        return memo[1]
    text = build(inputs)
    atlas._part_memos[slot] = (inputs, text)
    return text


def _plan_text(inputs: tuple) -> str:
    (plan,) = inputs
    return repr(sorted(plan.items()))


def _storage_text(components: tuple) -> str:
    return repr([(comp.name, comp.resources.storage_gb) for comp in components])


def _catalogs_text(flat: tuple) -> Optional[str]:
    return _describe(list(zip(flat[::2], flat[1::2])))


def _content_parts(atlas: Atlas, traces: bool) -> Optional[List[str]]:
    """The fingerprint parts of a learned tenant, or ``None`` if one has no description.

    Per API its name, its sample traces' fingerprint when ``traces`` and its
    stateful components; then the footprint, the fitted estimator, the network, the
    baseline plan, the locations, the components with their storage, and the
    preferences, config and pricing catalogs.  A request key reads the traces; an
    evaluator's compiled-scenario digest must not, so a splice keeps it.  The parts
    built only from immutable objects (trace sets, plan, components, catalogs) are
    ``_memoised``; the mutable preferences and config are described every time.
    """
    knowledge = atlas.knowledge
    parts: List[str] = []
    for api in knowledge.apis:
        profile = knowledge.api_profiles[api]
        parts.append(api)
        if traces:
            parts.append(
                _memoised(
                    atlas, ("traces", api), tuple(profile.sample_traces), fingerprint_traces
                )
            )
        parts.append(",".join(sorted(profile.stateful_components)))
    parts.append(knowledge.footprint.content_digest())
    parts.append(knowledge.estimator.content_digest())
    parts.append(atlas.network.content_digest())
    parts.append(_memoised(atlas, "plan", (atlas.current_plan,), _plan_text))
    parts.append(repr(list(atlas.locations)))
    parts.append(repr(atlas.application.component_names))
    parts.append(
        _memoised(atlas, "storage", tuple(atlas.application.components), _storage_text)
    )
    catalogs = sorted(atlas._pricing_catalogs().items())
    for text in (
        _describe(atlas.preferences),
        _describe(atlas.config),
        _memoised(atlas, "catalogs", tuple(chain.from_iterable(catalogs)), _catalogs_text),
    ):
        if text is None:
            return None
        parts.append(text)
    return parts


class AdvisorService:
    """Long-lived warm-path front door for repeated / multi-tenant recommendations.

    One service instance owns a single :class:`~repro.quality.artifacts.ArtifactCache`
    and threads it through every :meth:`recommend` call, so N tenants advising over
    the same testbed share one physical compile of every trace set and Δ table —
    and a second request with an identical content fingerprint is
    answered from the request memo without re-running the search at all (sound
    because the seeded search is deterministic: identical inputs ⇒ identical
    recommendation).

    >>> service = AdvisorService()
    >>> service.register("team-a", atlas_a)
    >>> rec = service.recommend("team-a", expected_scale=5.0)   # cold: compiles + searches
    >>> rec = service.recommend("team-a", expected_scale=5.0)   # warm: memo hit

    The memo returns the cached :class:`Recommendation` object itself; requests
    whose arguments cannot be described by content (an object with a default
    ``repr``) skip the memo but still warm the artifact cache.

    ``store`` (opt-in) makes the warmth durable: an
    :class:`~repro.serving.store.ArtifactStore` becomes the second tier of the
    artifact cache *and* the journal of the request memo.  A journaled request
    served by a fresh process revives the recommendation from the durable search
    result — the evaluator is rebuilt against the warm artifact tier, no search
    runs — which is sound for exactly the reason the memo is: the seeded search
    is deterministic, so the journaled result *is* what a re-run would produce.
    The service is thread-safe: the caches single-flight racing requests, so N
    tenants racing on one fingerprint trigger exactly one compile/search.
    """

    #: Atlas.recommend arguments the journal revive path knows how to honor; a
    #: journaled request carrying anything else falls back to a cold recommend.
    _REVIVABLE_KWARGS = frozenset(
        {
            "expected_scale",
            "api_rates",
            "preferences",
            "ga_config",
            "problem",
            "certify",
        }
    )

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        max_recommendations: int = 32,
        store: Optional["ArtifactStore"] = None,
    ) -> None:
        #: Durable second tier (artifacts + request journal); None = in-memory only.
        self.store = store
        #: Compiled-artifact cache shared by every evaluator this service builds.
        self.cache = cache if cache is not None else ArtifactCache(store=store)
        #: Request-level memo: full recommendation fingerprint -> Recommendation.
        self.recommendations = ArtifactCache(max_entries=max_recommendations)
        self._tenants: Dict[str, Atlas] = {}
        self._mu = threading.Lock()
        self.journal_hits = 0
        self.journal_misses = 0

    # -- tenants ----------------------------------------------------------------------------
    def register(self, name: str, atlas: Atlas) -> Atlas:
        """Register a tenant's advisor under ``name`` (returned for chaining)."""
        with self._mu:
            self._tenants[name] = atlas
        return atlas

    def tenant(self, name: str) -> Atlas:
        with self._mu:
            if name not in self._tenants:
                raise KeyError(f"no tenant registered under {name!r}")
            return self._tenants[name]

    @property
    def tenants(self) -> List[str]:
        with self._mu:
            return sorted(self._tenants)

    # -- serving ----------------------------------------------------------------------------
    def recommend(self, atlas: Union[str, Atlas], **kwargs) -> Recommendation:
        """Serve one recommendation against the warm cache.

        ``atlas`` is a registered tenant name or an :class:`Atlas` instance;
        ``kwargs`` are forwarded to :meth:`Atlas.recommend` verbatim (plus the
        service's shared artifact cache).  When the request's content fingerprint —
        learned traces, footprint, network, estimator state, current plan, config
        and every argument — matches a previous call, the memoized recommendation
        is returned without recompiling or re-searching; with a ``store``, a
        fingerprint journaled by an earlier *process* revives without re-searching
        either.
        """
        if isinstance(atlas, str):
            atlas = self.tenant(atlas)
        key = self._request_key(atlas, kwargs)
        if key is None:
            return atlas.recommend(artifact_cache=self.cache, **kwargs)
        return self.recommendations.get_or_build(
            key, lambda: self._serve(atlas, key, kwargs)
        )

    def _serve(self, atlas: Atlas, key: Tuple, kwargs: Mapping[str, object]) -> Recommendation:
        """Memo-miss path: revive from the durable journal, else search and journal."""
        revived = self._revive(atlas, key, kwargs)
        if revived is not None:
            with self._mu:
                self.journal_hits += 1
            return revived
        if self.store is not None:
            with self._mu:
                self.journal_misses += 1
        recommendation = atlas.recommend(artifact_cache=self.cache, **kwargs)
        if self.store is not None:
            result = recommendation.result
            if result.agent is not None:
                # One object per distinct agent; the entry names it by digest only,
                # so a revive nobody asks the agent of never reads it.  Written unless a
                # frame this version can read is there: one left by older code (or a
                # damaged one) would otherwise stay, and every resumed cycle retrain.
                agent_key = ("agent", result.agent_digest)
                if agent_key not in self.store:
                    self.store.save(agent_key, result.agent)
                result = dataclasses.replace(result, agent=None)
            self.store.save(
                ("journal",) + key,
                {
                    "version": 1,
                    "result": result,
                    "certificate": recommendation.certificate,
                },
            )
        return recommendation

    def _revive(
        self, atlas: Atlas, key: Tuple, kwargs: Mapping[str, object]
    ) -> Optional[Recommendation]:
        """Rebuild a journaled recommendation without running the search.

        The journal persists the deterministic search *output* (the
        :class:`~repro.optimizer.atlas_ga.SearchResult`, plain data); the live
        parts of a :class:`Recommendation` — the evaluator over the learned
        models — are rebuilt through the warm artifact tier, scoring nothing: a
        robust answer's regret report reads the result's own archive.  Any defect —
        missing entry, version skew, unexpected argument — degrades to a cold
        recommend, never a crash.
        """
        if self.store is None or not set(kwargs) <= self._REVIVABLE_KWARGS:
            return None
        entry = self.store.load(("journal",) + key)
        if not isinstance(entry, dict) or entry.get("version") != 1:
            return None
        try:
            result: SearchResult = entry["result"]
            certificate = entry.get("certificate")
            if kwargs.get("certify") and certificate is None:
                return None
            return Recommendation(
                result=result,
                evaluator=self.build_evaluator(atlas, kwargs),
                certificate=certificate,
            )
        except Exception:
            return None

    def build_evaluator(self, atlas: Atlas, kwargs: Mapping[str, object]) -> QualityEvaluator:
        """An evaluator over ``atlas``'s current knowledge for one request's arguments,
        built through the service cache — the one a journaled answer revives on, and a
        drift re-certificate runs on instead of a served answer's shared evaluator."""
        problem, preferences = atlas._resolve_problem(
            kwargs.get("preferences"), kwargs.get("problem")
        )
        return atlas.build_evaluator(
            expected_scale=kwargs.get("expected_scale", 1.0),
            api_rates=kwargs.get("api_rates"),
            preferences=preferences,
            problem=problem,
            artifact_cache=self.cache,
        )

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Warm-path observability: artifact-cache and request-memo counters."""
        stats = {
            "artifacts": self.cache.stats(),
            "recommendations": self.recommendations.stats(),
        }
        if self.store is not None:
            with self._mu:
                stats["journal"] = {
                    "hits": self.journal_hits,
                    "misses": self.journal_misses,
                }
        return stats

    # -- request fingerprinting -------------------------------------------------------------
    def _request_key(self, atlas: Atlas, kwargs: Mapping[str, object]) -> Optional[Tuple]:
        """Content fingerprint of one recommend request, or ``None`` when unmemoizable.

        Covers everything the (deterministic, seeded) search consumes: the learned
        knowledge (per-API trace sets, stateful components, footprint, fitted
        estimator state, an installed crossover agent and re-plan prior), the network, the baseline
        plan, the topology, the config and the call's own arguments — and, once the
        telemetry took traces after ``fit()``, the rates ``predict_scaled`` reads.
        Equal keys therefore imply an identical recommendation; any argument without a
        content-stable description makes the whole request unmemoizable (a miss,
        never a wrong hit).
        """
        knowledge = atlas.knowledge
        if knowledge is None:
            return None  # recommend() will raise its own RuntimeError
        parts = _content_parts(atlas, traces=True)
        if parts is None:
            return None
        for name in sorted(kwargs):
            value = kwargs[name]
            if name == "api_rates" and isinstance(value, Mapping):
                value = sorted((api, list(series)) for api, series in value.items())
            text = _describe(value)
            if text is None:
                return None
            parts.append(f"{name}={text}")
        if knowledge.crossover_agent is not None:
            # Only when one is installed: every agent-less key keeps its hex.
            parts.append(f"agent={knowledge.crossover_agent.content_digest()}")
        if knowledge.replan_prior is not None:
            # Likewise: every prior-less key keeps its hex.
            parts.append(f"prior={knowledge.replan_prior.content_digest()}")
        estimator = knowledge.estimator
        if kwargs.get("api_rates") is None and estimator.telemetry_grown():
            # ``predict_scaled`` reads the live rates, which the fitted digest does not
            # cover once traces arrive after ``fit()``; likewise only then.
            rates = estimator.telemetry.api_request_rates()
            parts.append(f"observed={sha_parts([repr(list(rates.items()))])}")
        return ("recommend", sha_parts(parts))
