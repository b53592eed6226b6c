"""Evaluation testbed: the shared setup behind every experiment and benchmark.

The paper's evaluation deploys the applications on a two-datacenter hybrid cloud,
collects two days of telemetry for application learning, and then asks each method to
recommend a migration for a period in which the API traffic is 5x larger than observed
and exceeds the on-prem capacity.  :func:`build_testbed` reproduces that setup on the
simulator:

1. build the application and a compressed-day workload;
2. simulate it with every component on-prem to collect learning telemetry;
3. fit Atlas's knowledge (profiles, footprints, resource estimator);
4. derive the on-prem CPU limit from the expected burst so that the scaled traffic
   overshoots it (default limit fraction 0.8, i.e. ≈125% peak utilization; the paper
   reports 264%), making offloading mandatory;
5. pin the user-data stores on-prem, mirroring the paper's regulatory constraint.

Ground truth ("actual migration") is obtained by re-running the simulator with the
candidate plan applied and the scaled workload.

``build_testbed(n_locations=3)`` swaps the topology for the built-in three-location
testbed — on-prem plus two cloud regions with distinct pricing, network distances and
failure-domain weights — while keeping the same applications, workloads and learning
pipeline; ``n_locations=2`` (the default) reproduces the paper's setup bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..apps.model import Application
from ..apps.hotel_reservation import build_hotel_reservation
from ..apps.social_network import build_social_network
from ..cluster.network import NetworkModel, default_multi_location_network
from ..cluster.placement import MigrationPlan
from ..cluster.topology import (
    CLOUD,
    HybridCluster,
    NodeSpec,
    default_hybrid_cluster,
    default_multi_location_cluster,
)
from ..optimizer.atlas_ga import GAConfig
from ..optimizer.baselines import BaselineContext
from ..quality.cost import PricingCatalog
from ..quality.evaluator import QualityEvaluator
from ..quality.preferences import MigrationPreferences
from ..quality.scenarios import ScenarioSet
from ..recommend.advisor import Atlas, AtlasConfig
from ..simulator.run import SimulationResult, simulate_workload
from ..telemetry.server import TelemetryServer
from ..workload.generator import ApiRequest, WorkloadGenerator, default_scenario
from ..workload.profiles import BehaviorChange, WorkloadScenario

__all__ = [
    "Testbed",
    "build_testbed",
    "get_testbed",
    "PINNED_COMPONENTS",
    "multi_location_pricing",
]

#: Stateful components that must not leave the on-prem site (Section 5.1).
PINNED_COMPONENTS: Dict[str, List[str]] = {
    "social-network": ["UserMongoDB", "PostStorageMongoDB", "MediaMongoDB"],
    "hotel-reservation": ["UserMongoDB", "ReserveMongoDB"],
}


def multi_location_pricing(n_locations: int) -> Dict[int, PricingCatalog]:
    """Per-region pricing of the built-in N-location testbed.

    Location 1 ("cloud-east") uses the paper's Appendix A catalog; location 2+
    ("cloud-west", ...) are cheaper per node/GB but farther away — the classic
    price/latency trade-off the multi-region placement search has to navigate.
    """
    if n_locations < 2:
        raise ValueError("a testbed needs at least two locations")
    catalogs: Dict[int, PricingCatalog] = {CLOUD: PricingCatalog()}
    west = PricingCatalog(
        node_spec=NodeSpec(
            name="m5.large-west",
            cpu_millicores=2_000.0,
            memory_mb=8_192.0,
            hourly_price_usd=0.082,
        ),
        storage_usd_per_gb_month=0.068,
        egress_usd_per_gb=0.08,
    )
    for location in range(2, n_locations):
        catalogs[location] = west
    return catalogs


@dataclass
class Testbed:
    """Everything an experiment needs: app, workload, telemetry, learned Atlas, limits."""

    application: Application
    scenario: WorkloadScenario
    requests: List[ApiRequest]
    learning_result: SimulationResult
    atlas: Atlas
    preferences: MigrationPreferences
    cluster: HybridCluster
    network: NetworkModel
    expected_scale: float
    seed: int
    onprem_cpu_limit: float
    _scaled_requests: Dict[float, List[ApiRequest]] = field(default_factory=dict)
    _no_stress_latencies: Optional[Dict[str, float]] = None

    # -- derived accessors -----------------------------------------------------------------
    @property
    def telemetry(self) -> TelemetryServer:
        return self.learning_result.telemetry

    @property
    def locations(self) -> List[int]:
        """Location ids of the testbed topology (``[0, 1]`` for the paper's 2-DC setup)."""
        return self.cluster.location_ids

    @property
    def baseline_plan(self) -> MigrationPlan:
        return MigrationPlan.all_on_prem(self.application.component_names)

    def evaluator(
        self, preferences: Optional[MigrationPreferences] = None, scale: Optional[float] = None
    ) -> QualityEvaluator:
        """A fresh quality evaluator for the testbed's period of interest."""
        return self.atlas.build_evaluator(
            expected_scale=scale if scale is not None else self.expected_scale,
            preferences=preferences or self.preferences,
        )

    def baseline_context(self, evaluator: QualityEvaluator) -> BaselineContext:
        return self.atlas.baseline_context(evaluator)

    def scenario_set(
        self,
        scales: Optional[Sequence[float]] = None,
        include_baseline: bool = True,
    ) -> ScenarioSet:
        """The testbed's workload family as a scenario axis.

        Defaults to the paper's evaluation setting expressed as scenarios: the
        observed workload plus one burst scenario at ``expected_scale``.  Use it with
        an evaluator built at scale 1 (``testbed.evaluator(scale=1.0)``) or
        ``atlas.recommend(expected_scale=1.0,
        problem=PlacementProblem.default(scenarios=...))`` so the burst rides the
        scenario axis instead of being baked into the period of interest.
        """
        scales = tuple(scales) if scales is not None else (self.expected_scale,)
        return ScenarioSet.with_bursts(scales, include_baseline=include_baseline)

    # -- workloads ------------------------------------------------------------------------------
    def scaled_requests(self, scale: Optional[float] = None) -> List[ApiRequest]:
        """The expected (burst) request stream: the learning workload scaled up."""
        scale = scale if scale is not None else self.expected_scale
        if scale not in self._scaled_requests:
            scenario = default_scenario(
                self.application,
                base_rps=self.scenario.profile.base_rps * scale,
                peak_rps=self.scenario.profile.peak_rps * scale,
                duration_ms=self.scenario.profile.duration_ms,
                name=f"{self.scenario.name}-x{scale:g}",
            )
            generator = WorkloadGenerator(self.application, scenario, seed=self.seed + 1000)
            self._scaled_requests[scale] = generator.generate(
                scenario.profile.duration_ms
            )
        return self._scaled_requests[scale]

    # -- ground truth measurement ------------------------------------------------------------------
    def measure_plan(
        self,
        plan: MigrationPlan,
        scale: Optional[float] = None,
        requests: Optional[Sequence[ApiRequest]] = None,
        seed_offset: int = 0,
    ) -> SimulationResult:
        """Actually 'migrate' (re-simulate) and measure the plan under the burst traffic."""
        requests = list(requests) if requests is not None else self.scaled_requests(scale)
        return simulate_workload(
            self.application,
            requests,
            plan=plan,
            cluster=self.cluster,
            network=self.network,
            seed=self.seed + 77 + seed_offset,
        )

    def no_stress_latencies(self) -> Dict[str, float]:
        """Per-API mean latency with everything on-prem and no resource stress.

        This is the reference of the paper's "API performance impact factor": a factor
        of K means the API is K times slower than this measurement.
        """
        if self._no_stress_latencies is None:
            self._no_stress_latencies = self.learning_result.mean_latencies()
        return dict(self._no_stress_latencies)

    def measured_impact_factor(
        self, result: SimulationResult, apis: Optional[Sequence[str]] = None
    ) -> float:
        """Mean measured slowdown of the APIs relative to the no-stress baseline."""
        reference = self.no_stress_latencies()
        apis = list(apis) if apis is not None else sorted(reference)
        factors = []
        measured = result.mean_latencies()
        for api in apis:
            if api in measured and reference.get(api, 0.0) > 0:
                factors.append(measured[api] / reference[api])
        return sum(factors) / len(factors) if factors else 0.0


def _build_cluster(
    n_locations: int,
    on_prem_nodes: int = 10,
    on_prem_cpu_cores: float = 20.0,
    on_prem_memory_gb: float = 160.0,
) -> HybridCluster:
    """The testbed topology: the paper's 2-DC hybrid, or on-prem + N-1 cloud regions."""
    if n_locations == 2:
        return default_hybrid_cluster(
            on_prem_nodes=on_prem_nodes,
            on_prem_cpu_cores=on_prem_cpu_cores,
            on_prem_memory_gb=on_prem_memory_gb,
        )
    extra = [
        {"name": f"cloud-region-{i}", "region": f"region-{i}"}
        for i in range(3, n_locations)
    ]
    return default_multi_location_cluster(
        on_prem_nodes=on_prem_nodes,
        on_prem_cpu_cores=on_prem_cpu_cores,
        on_prem_memory_gb=on_prem_memory_gb,
        extra_regions=extra,
    )


def build_testbed(
    application: str = "social-network",
    seed: int = 7,
    duration_ms: float = 120_000.0,
    base_rps: float = 15.0,
    peak_rps: float = 30.0,
    expected_scale: float = 5.0,
    onprem_limit_fraction: float = 0.8,
    critical_apis: Sequence[str] = (),
    traces_per_api: int = 15,
    evaluation_budget: int = 1_500,
    population_size: int = 60,
    train_iterations: int = 150,
    ga_seed: int = 1,
    n_locations: int = 2,
) -> Testbed:
    """Build the standard evaluation testbed (defaults sized for quick benchmark runs).

    ``onprem_limit_fraction`` sets the on-prem CPU limit as a fraction of the expected
    peak demand at ``expected_scale``: 0.8 keeps the burst above capacity (peak
    utilization ≈ 125%; the paper reports 264%) while leaving a rich trade-off space
    between latency- and traffic-optimal placements.  This sentence is the whole
    sensitivity discussion on file; the paper-claims ledger of ROADMAP item 5 is
    where a measured one goes.

    ``n_locations`` selects the topology: 2 (default) is the paper's two-datacenter
    hybrid cloud, reproduced bit-for-bit; 3 adds a cheaper-but-farther "cloud-west"
    region (with its own pricing catalog, autoscaler and availability failure domain),
    and larger values append further regions.  Both built-in applications (social
    network and hotel reservation) run on every topology.
    """
    if n_locations < 2:
        raise ValueError("the testbed needs at least two locations")
    if application in ("social", "social-network"):
        app = build_social_network()
        app_key = "social-network"
    elif application in ("hotel", "hotel-reservation"):
        app = build_hotel_reservation()
        app_key = "hotel-reservation"
    else:
        raise ValueError(f"unknown application {application!r}")

    scenario = default_scenario(
        app, base_rps=base_rps, peak_rps=peak_rps, duration_ms=duration_ms
    )
    generator = WorkloadGenerator(app, scenario, seed=seed)
    requests = generator.generate(duration_ms)
    cluster = _build_cluster(n_locations)
    network = default_multi_location_network(locations=cluster.location_ids)
    learning_result = simulate_workload(
        app, requests, cluster=cluster, network=network, seed=seed
    )

    ga = GAConfig(
        population_size=population_size,
        offspring_per_generation=max(population_size // 2, 4),
        evaluation_budget=evaluation_budget,
        train_iterations=train_iterations,
        train_batch_size=2,
        train_pairs=48,
        seed=ga_seed,
    )
    if n_locations == 2:
        # The paper's setup: a single cloud priced by the default catalog.  The Atlas
        # advisor is deliberately built without an explicit cluster here so the code
        # path (and every fixed-seed RNG draw) is byte-identical to the pre-N-location
        # implementation.
        config = AtlasConfig(traces_per_api=traces_per_api, ga=ga)
        atlas = Atlas(app, MigrationPreferences(), network=network, config=config)
    else:
        config = AtlasConfig(
            traces_per_api=traces_per_api,
            ga=ga,
            pricing_by_location=multi_location_pricing(n_locations),
            # Farther regions are heavier failure domains: migrating state there takes
            # the dependent APIs offline for longer.
            availability_location_weights={
                loc: 1.0 + 0.25 * (loc - 1) for loc in cluster.location_ids if loc != 0
            },
        )
        atlas = Atlas(
            app, MigrationPreferences(), network=network, config=config, cluster=cluster
        )
    atlas.learn(learning_result.telemetry)

    estimate = atlas.knowledge.estimator.predict_scaled(expected_scale)
    peak_cpu = estimate.peak("cpu_millicores", app.component_names)
    onprem_cpu_limit = max(onprem_limit_fraction * peak_cpu, 1.0)
    preferences = MigrationPreferences.pin_on_prem(
        PINNED_COMPONENTS[app_key],
        critical_apis=list(critical_apis),
        onprem_limits={"cpu_millicores": onprem_cpu_limit},
    )
    atlas.preferences = preferences
    # Size the physical on-prem capacity to the owner's limit so that ground-truth
    # measurements (Figures 2/3/11/12) experience real contention when a plan keeps more
    # CPU demand on-prem than the site can serve during the burst.
    cluster = _build_cluster(
        n_locations,
        on_prem_nodes=1,
        on_prem_cpu_cores=max(onprem_cpu_limit / 1000.0, 0.5),
        on_prem_memory_gb=256.0,
    )
    if atlas.cluster is not None:
        atlas.cluster = cluster

    return Testbed(
        application=app,
        scenario=scenario,
        requests=requests,
        learning_result=learning_result,
        atlas=atlas,
        preferences=preferences,
        cluster=cluster,
        network=network,
        expected_scale=expected_scale,
        seed=seed,
        onprem_cpu_limit=onprem_cpu_limit,
    )


_TESTBED_CACHE: Dict[Tuple, Testbed] = {}


def get_testbed(**kwargs) -> Testbed:
    """Cached :func:`build_testbed` so several benchmarks can share one setup."""
    key = tuple(sorted(kwargs.items()))
    if key not in _TESTBED_CACHE:
        _TESTBED_CACHE[key] = build_testbed(**kwargs)
    return _TESTBED_CACHE[key]
