"""Experiment pipelines reproducing every figure of the paper's evaluation.

Each ``figure*`` function runs one experiment on a :class:`~repro.analysis.testbed.Testbed`
and returns plain dictionaries / row lists, which the corresponding benchmark under
``benchmarks/`` prints (and asserts the headline shape of).  The mapping between
functions and paper artifacts is listed in DESIGN.md's per-experiment index.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.placement import MigrationPlan
from ..cluster.topology import CLOUD, ON_PREM
from ..monitoring.drift import DriftReport
from ..optimizer.atlas_ga import AtlasGA, GAConfig, SearchResult
from ..optimizer.baselines import (
    AffinityNSGA2Baseline,
    GreedyBusiestBaseline,
    GreedySmallestBaseline,
    IntMABaseline,
    RandomSearchBaseline,
    REMaPBaseline,
)
from ..optimizer.drl.agent import CrossoverAgent
from ..optimizer.pareto import pareto_front
from ..quality.evaluator import PlanQuality, QualityEvaluator
from ..quality.problem import PlacementProblem
from ..quality.scenarios import ScenarioSet, ScenarioSpec
from ..recommend.advisor import Recommendation
from ..simulator.run import simulate_workload
from ..workload.generator import ApiRequest, WorkloadGenerator, default_scenario
from ..workload.profiles import BehaviorChange
from .testbed import Testbed

__all__ = [
    "MethodResult",
    "run_methods",
    "figure2_burst_motivation",
    "figure3_poor_choice",
    "figure7_latency_distribution",
    "figure11_single_plan",
    "figure12_14_optimized_plans",
    "figure15_pareto_front",
    "figure16_personalization",
    "figure17_drift_detection",
    "figure18_latency_estimation",
    "figure19_footprint_register",
    "figure20_footprint_accuracy",
    "figure21_drl_vs_nsga2",
    "figure22_breach_detection",
    "scalability_report",
    "measure_real_footprint",
]

SINGLE_PLAN_METHODS = ("greedy-largest", "greedy-smallest", "remap", "intma")
MULTI_PLAN_METHODS = ("atlas", "affinity-ga", "random-search")


# ---------------------------------------------------------------------------
# Method execution
# ---------------------------------------------------------------------------

@dataclass
class MethodResult:
    """Plans recommended by one method, all re-evaluated under a shared evaluator.

    ``internal_objectives`` holds the method's *own* objective values per plan (e.g. the
    affinity GA's cross-datacenter traffic and cost).  When present, they drive the
    selection of that method's "X-optimized" plan, mirroring how an owner using that
    method would pick a plan — without access to Atlas's quality model.
    """

    name: str
    plans: List[PlanQuality]
    recommendation: Optional[Recommendation] = None
    wall_clock_s: float = 0.0
    internal_objectives: Optional[List[Tuple[float, ...]]] = None

    def best_by(self, objective_index: int) -> PlanQuality:
        feasible = [q for q in self.plans if q.feasible] or self.plans
        if not feasible:
            raise ValueError(f"method {self.name} produced no plans")
        if (
            self.internal_objectives is not None
            and len(self.internal_objectives) == len(self.plans)
            and objective_index in (0, 2)
        ):
            # 0 -> the method's performance proxy, 2 -> the method's cost objective.
            internal_index = 0 if objective_index == 0 else 1
            paired = [
                (quality, internal)
                for quality, internal in zip(self.plans, self.internal_objectives)
                if quality.feasible
            ] or list(zip(self.plans, self.internal_objectives))
            return min(paired, key=lambda qi: qi[1][internal_index])[0]
        return min(feasible, key=lambda q: q.objectives()[objective_index])

    def performance_optimized(self) -> PlanQuality:
        return self.best_by(0)

    def availability_optimized(self) -> PlanQuality:
        return self.best_by(1)

    def cost_optimized(self) -> PlanQuality:
        return self.best_by(2)


def run_methods(
    testbed: Testbed,
    methods: Sequence[str] = SINGLE_PLAN_METHODS + MULTI_PLAN_METHODS,
    search_budget: Optional[int] = None,
    reference_evaluator: Optional[QualityEvaluator] = None,
) -> Dict[str, MethodResult]:
    """Run Atlas and the requested baselines; return plans under one shared evaluator."""
    reference = reference_evaluator or testbed.evaluator()
    budget = search_budget or testbed.atlas.config.ga.evaluation_budget
    results: Dict[str, MethodResult] = {}

    for name in methods:
        start = time.perf_counter()
        recommendation: Optional[Recommendation] = None
        internal_objectives: Optional[List[Tuple[float, ...]]] = None
        if name == "atlas":
            recommendation = testbed.atlas.recommend(
                expected_scale=testbed.expected_scale,
                ga_config=_scaled_ga_config(testbed, budget),
            )
            plans = [q.plan for q in recommendation.plans]
        elif name in ("affinity-ga", "random-search", *SINGLE_PLAN_METHODS):
            search_eval = testbed.evaluator()
            context = testbed.baseline_context(search_eval)
            if name == "greedy-largest":
                plans = [GreedyBusiestBaseline(context).recommend()]
            elif name == "greedy-smallest":
                plans = [GreedySmallestBaseline(context).recommend()]
            elif name == "remap":
                plans = [REMaPBaseline(context).recommend()]
            elif name == "intma":
                plans = [IntMABaseline(context).recommend()]
            elif name == "affinity-ga":
                affinity_result = AffinityNSGA2Baseline(
                    context, evaluation_budget=budget, seed=testbed.seed
                ).recommend()
                plans = affinity_result.plans
                internal_objectives = [tuple(obj) for obj in affinity_result.objectives]
            else:  # random-search
                qualities = RandomSearchBaseline(
                    context, evaluation_budget=budget, seed=testbed.seed
                ).recommend()
                plans = [q.plan for q in qualities]
        else:
            raise ValueError(f"unknown method {name!r}")
        # One batched pass through the shared reference evaluator (identical to
        # per-plan evaluate calls, including cache/counter behaviour).
        evaluated = reference.evaluate_batch(plans)
        results[name] = MethodResult(
            name=name,
            plans=evaluated,
            recommendation=recommendation,
            wall_clock_s=time.perf_counter() - start,
            internal_objectives=internal_objectives,
        )
    return results


# ---------------------------------------------------------------------------
# Figure 2 / Figure 3 — motivation
# ---------------------------------------------------------------------------

def figure2_burst_motivation(testbed: Testbed) -> Dict[str, object]:
    """Latency spikes and failures when the burst hits an all-on-prem deployment.

    The burst is expressed as a *scenario*: the advisor's own quality stack scores
    the all-on-prem placement over the (observed, burst) scenario axis in one
    ``evaluate_vectors`` call — the burst scenario's violated on-prem capacity
    constraint is the formal statement of the figure's motivation — and the measured
    rows re-simulate the burst as ground truth, as before.
    """
    evaluator = testbed.atlas.build_evaluator(
        expected_scale=1.0,
        preferences=testbed.preferences,
        problem=PlacementProblem.default(scenarios=testbed.scenario_set()),
    )
    robust = evaluator.evaluate_vectors([testbed.baseline_plan.to_vector()])[0]
    scenario_rows: List[Dict[str, object]] = [
        {
            "scenario": scenario.scenario,
            "perf": scenario.perf,
            "avail": scenario.avail,
            "cost": scenario.cost,
            "feasible": scenario.feasible,
            "violations": "; ".join(scenario.violations),
        }
        for scenario in robust.scenarios
    ]

    burst = testbed.measure_plan(testbed.baseline_plan)
    reference = testbed.no_stress_latencies()
    rows: List[Dict[str, object]] = []
    for api in sorted(reference):
        rows.append(
            {
                "api": api,
                "latency_1x_ms": reference[api],
                "latency_burst_ms": burst.mean_latency(api),
                "slowdown": burst.mean_latency(api) / reference[api],
                "failure_rate_burst": burst.failure_rate(api),
            }
        )
    return {
        "rows": rows,
        "scenario_rows": scenario_rows,
        "onprem_feasible_under_burst": robust.feasible,
    }


def figure3_poor_choice(
    testbed: Testbed, methods: Optional[Dict[str, MethodResult]] = None
) -> List[Dict[str, object]]:
    """A poor offloading choice degrades APIs far more than Atlas's recommendation."""
    methods = methods or run_methods(testbed, methods=("atlas", "greedy-largest"))
    atlas_plan = methods["atlas"].performance_optimized().plan
    poor_plan = methods["greedy-largest"].plans[0].plan
    atlas_measown = testbed.measure_plan(atlas_plan)
    poor_meas = testbed.measure_plan(poor_plan)
    reference = testbed.no_stress_latencies()
    rows = []
    for api in sorted(reference):
        rows.append(
            {
                "api": api,
                "poor_choice_slowdown": poor_meas.mean_latency(api) / reference[api],
                "atlas_slowdown": atlas_measown.mean_latency(api) / reference[api],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 7 / Figure 18 — latency estimation accuracy
# ---------------------------------------------------------------------------

def figure7_latency_distribution(
    testbed: Testbed,
    recommendation: Recommendation,
    api: str = "/homeTimeline",
) -> Dict[str, object]:
    """Estimated post-migration latency distribution vs. the measured one."""
    plan = recommendation.performance_optimized().plan
    estimated = recommendation.latency_preview(plan)[api].estimated_latencies_ms
    measured = [
        outcome.latency_ms
        for outcome in testbed.measure_plan(plan, scale=1.0).outcomes
        if outcome.request.api == api
    ]
    return {
        "api": api,
        "estimated_latencies_ms": estimated,
        "measured_latencies_ms": measured,
        "estimated_mean_ms": float(np.mean(estimated)) if estimated else 0.0,
        "measured_mean_ms": float(np.mean(measured)) if measured else 0.0,
    }


def figure18_latency_estimation(
    testbed: Testbed, methods: Dict[str, MethodResult]
) -> List[Dict[str, object]]:
    """Per-API estimated vs. measured latency for the perf- and cost-optimized plans."""
    atlas = methods["atlas"]
    rows: List[Dict[str, object]] = []
    for label, quality in (
        ("performance-optimized", atlas.performance_optimized()),
        ("cost-optimized", atlas.cost_optimized()),
    ):
        preview = atlas.recommendation.latency_preview(quality.plan)
        measured = testbed.measure_plan(quality.plan, scale=1.0).mean_latencies()
        for api in sorted(preview):
            if api not in measured:
                continue
            estimate = preview[api].estimated_mean_ms
            rows.append(
                {
                    "plan": label,
                    "api": api,
                    "estimated_ms": estimate,
                    "measured_ms": measured[api],
                    "error_ms": abs(estimate - measured[api]),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 11-14 — comparison with single- and multi-plan approaches
# ---------------------------------------------------------------------------

def figure11_single_plan(
    testbed: Testbed, methods: Dict[str, MethodResult]
) -> Dict[str, object]:
    """Measured per-API latency and daily cost: Atlas vs the four single-plan methods."""
    reference = testbed.no_stress_latencies()
    evaluator = testbed.evaluator()
    selected = {"atlas": methods["atlas"].performance_optimized().plan}
    for name in SINGLE_PLAN_METHODS:
        if name in methods:
            selected[name] = methods[name].plans[0].plan
    latency_rows: List[Dict[str, object]] = []
    cost_rows: List[Dict[str, object]] = []
    measured: Dict[str, Dict[str, float]] = {}
    for name, plan in selected.items():
        result = testbed.measure_plan(plan)
        measured[name] = result.mean_latencies()
        cost_rows.append(
            {
                "method": name,
                "cost_per_day_usd": evaluator.cost.estimate_cost(plan).per_day_usd(),
                "offloaded_components": len(plan.offloaded()),
            }
        )
    for api in sorted(reference):
        row: Dict[str, object] = {"api": api, "baseline_ms": reference[api]}
        for name in selected:
            row[f"{name}_ms"] = measured[name].get(api, float("nan"))
        latency_rows.append(row)
    return {"latency_rows": latency_rows, "cost_rows": cost_rows}


def figure12_14_optimized_plans(
    testbed: Testbed,
    methods: Dict[str, MethodResult],
    objective: str = "performance",
    measure: bool = True,
) -> List[Dict[str, object]]:
    """Figures 12 (performance-), 13 (availability-) and 14 (cost-) optimized plans.

    For every method we pick its best plan for the requested objective and report all
    three quality aspects: the API performance impact factor (estimated and, optionally,
    measured on the simulator), the number of disrupted APIs and the daily cost.
    """
    index = {"performance": 0, "availability": 1, "cost": 2}[objective]
    evaluator = testbed.evaluator()
    rows: List[Dict[str, object]] = []
    for name, result in methods.items():
        quality = result.best_by(index)
        plan = quality.plan
        row: Dict[str, object] = {
            "method": name,
            "estimated_impact_factor": statistics.fmean(
                evaluator.performance.impact_factors(plan).values()
            ),
            "disrupted_apis": len(evaluator.availability.disrupted_apis(plan)),
            "cost_per_day_usd": evaluator.cost.estimate_cost(plan).per_day_usd(),
            "offloaded_components": len(plan.offloaded()),
        }
        if measure:
            measured = testbed.measure_plan(plan)
            row["measured_impact_factor"] = testbed.measured_impact_factor(measured)
        rows.append(row)
    return rows


def figure15_pareto_front(
    testbed: Testbed, methods: Dict[str, MethodResult]
) -> Dict[str, List[Tuple[float, float]]]:
    """Cost-vs-performance Pareto fronts of the multi-plan approaches."""
    fronts: Dict[str, List[Tuple[float, float]]] = {}
    for name in MULTI_PLAN_METHODS:
        if name not in methods:
            continue
        points = [
            (q.perf, q.cost) for q in methods[name].plans if q.feasible
        ]
        front = pareto_front(points, key=lambda p: p)
        fronts[name] = sorted(front)
    return fronts


# ---------------------------------------------------------------------------
# Figure 16 — personalized recommendations
# ---------------------------------------------------------------------------

def figure16_personalization(
    testbed: Testbed,
    scenarios: Mapping[str, Sequence[str]],
    search_budget: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Estimated per-API latency of the performance-optimized plan per critical-API set."""
    reference = testbed.no_stress_latencies()
    rows: List[Dict[str, object]] = []
    previews: Dict[str, Dict[str, float]] = {}
    critical_sets: Dict[str, Sequence[str]] = {}
    for label, critical in scenarios.items():
        prefs = testbed.preferences.with_critical_apis(list(critical))
        recommendation = testbed.atlas.recommend(
            expected_scale=testbed.expected_scale,
            preferences=prefs,
            ga_config=_scaled_ga_config(testbed, search_budget),
        )
        plan = recommendation.performance_optimized().plan
        preview = recommendation.latency_preview(plan)
        previews[label] = {api: est.estimated_mean_ms for api, est in preview.items()}
        critical_sets[label] = critical
    for api in sorted(reference):
        row: Dict[str, object] = {"api": api, "no_stress_ms": reference[api]}
        for label in scenarios:
            row[f"{label}_ms"] = previews[label].get(api, float("nan"))
            row[f"{label}_critical"] = api in critical_sets[label]
        rows.append(row)
    return rows


def _scaled_ga_config(testbed: Testbed, budget: Optional[int]) -> GAConfig:
    base = testbed.atlas.config.ga
    if budget is None:
        return base
    return replace(base, evaluation_budget=budget)


# ---------------------------------------------------------------------------
# Figure 17 — post-migration monitoring
# ---------------------------------------------------------------------------

def figure17_drift_detection(
    testbed: Testbed,
    recommendation: Optional[Recommendation] = None,
    drift_api: str = "/composePost",
    payload_scale: float = 3.0,
) -> Dict[str, object]:
    """User behaviour changes mid-day; Atlas detects the drift and re-optimizes."""
    if recommendation is None:
        recommendation = testbed.atlas.recommend(expected_scale=testbed.expected_scale)
    executed = recommendation.performance_optimized().plan

    # Right after the migration: measure the plan under unchanged behaviour (b_real).
    post_migration = testbed.measure_plan(executed, scale=1.0)
    measured_latencies = post_migration.api_latencies()
    detector = testbed.atlas.drift_detector(recommendation, executed, measured_latencies)

    # Later, users become mention-happy: /composePost payloads grow mid-day.
    duration = testbed.scenario.profile.duration_ms
    change = BehaviorChange(
        start_ms=duration / 2.0, apis=[drift_api], payload_scale=payload_scale
    )
    drift_scenario = default_scenario(
        testbed.application,
        base_rps=testbed.scenario.profile.base_rps,
        peak_rps=testbed.scenario.profile.peak_rps,
        duration_ms=duration,
        name="behaviour-drift",
    )
    drift_scenario.changes.append(change)
    drift_requests = WorkloadGenerator(
        testbed.application, drift_scenario, seed=testbed.seed + 5
    ).generate(duration)
    drifted = testbed.measure_plan(executed, requests=drift_requests)

    before = [
        o.latency_ms
        for o in drifted.outcomes
        if o.request.api == drift_api and o.request.time_ms < change.start_ms
    ]
    after = [
        o.latency_ms
        for o in drifted.outcomes
        if o.request.api == drift_api and o.request.time_ms >= change.start_ms
    ]
    report_before = detector.check(drift_api, before) if before else None
    report_after = detector.check(drift_api, after) if after else None

    # Drift → scenario bridge: the detector compiles the drifted behaviour into a
    # refreshed WorkloadScenario.  It carries no trace window, so the evaluator's
    # models (and every result cached from them) still hold.
    recent = {drift_api: after} if after else {}
    reports = detector.check_all(recent)
    drifted_apis = [api for api, report in reports.items() if report.drift_detected]
    refreshed_scenario = detector.refreshed_scenario(testbed.scenario, recent, reports)
    scenarios = None
    if refreshed_scenario is not None:
        scenarios = ScenarioSet(
            (
                ScenarioSpec(name="observed"),
                ScenarioSpec.from_workload(
                    refreshed_scenario, testbed.scenario, name="drift"
                ),
            )
        )
    problem = PlacementProblem.default(scenarios=scenarios)
    rescored_executed = None
    if drifted_apis and scenarios is not None:
        # Re-score the executed plan over the (observed, drifted) scenario axis —
        # the cheap first response before the full re-learning round below.
        rescored_executed = testbed.atlas.build_evaluator(
            expected_scale=testbed.expected_scale, problem=problem
        ).evaluate(executed)

    # New round: learn from the drifted telemetry and re-optimize from the executed
    # plan — scenario-robustly when the detector emitted a refreshed scenario, so the
    # new plan stays good for both the observed mix and the drifted one.
    new_atlas = testbed.atlas.__class__(
        testbed.application,
        testbed.preferences,
        network=testbed.network,
        config=testbed.atlas.config,
        current_plan=executed,
    )
    new_atlas.learn(drifted.telemetry)
    new_recommendation = new_atlas.recommend(
        expected_scale=1.0, problem=problem
    )
    new_plan = new_recommendation.performance_optimized().plan
    reoptimized = testbed.measure_plan(new_plan, requests=drift_requests, seed_offset=3)
    reoptimized_after = [
        o.latency_ms
        for o in reoptimized.outcomes
        if o.request.api == drift_api and o.request.time_ms >= change.start_ms
    ]

    return {
        "api": drift_api,
        "post_migration_mean_ms": float(np.mean(measured_latencies[drift_api])),
        "before_change_mean_ms": float(np.mean(before)) if before else float("nan"),
        "after_change_mean_ms": float(np.mean(after)) if after else float("nan"),
        "report_before": report_before,
        "report_after": report_after,
        "reoptimized_mean_ms": (
            float(np.mean(reoptimized_after)) if reoptimized_after else float("nan")
        ),
        "executed_plan": executed,
        "new_plan": new_plan,
        "drifted_apis": drifted_apis,
        "refreshed_scenario": refreshed_scenario,
        "rescored_executed": rescored_executed,
        "scenario_robust_reoptimization": scenarios is not None,
    }


# ---------------------------------------------------------------------------
# Figure 19 / 20 — network footprint accuracy
# ---------------------------------------------------------------------------

def measure_real_footprint(
    testbed: Testbed, api: str, requests: int = 200
) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """Ground-truth per-invocation request/response sizes via a single-API custom workload."""
    stream = [
        ApiRequest(time_ms=50.0 * i, api=api, payload_scale=1.0) for i in range(requests)
    ]
    result = simulate_workload(
        testbed.application,
        stream,
        cluster=testbed.cluster,
        network=testbed.network,
        contention=False,
        seed=testbed.seed + 11,
    )
    telemetry = result.telemetry
    invocations = telemetry.invocation_counts(api)
    real: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for pair, counts in invocations.items():
        total_invocations = sum(counts.values())
        if total_invocations == 0:
            continue
        req = sum(telemetry.mesh.request_series(*pair))
        resp = sum(telemetry.mesh.response_series(*pair))
        real[pair] = (req / total_invocations, resp / total_invocations)
    return real


def figure19_footprint_register(
    testbed: Testbed, api: str = "/register"
) -> List[Dict[str, object]]:
    """Learned vs real request/response sizes for every edge of one API."""
    footprint = testbed.atlas.knowledge.footprint
    real = measure_real_footprint(testbed, api)
    rows: List[Dict[str, object]] = []
    for (src, dst), (real_req, real_resp) in sorted(real.items()):
        rows.append(
            {
                "edge": f"{src}->{dst}",
                "estimated_request_bytes": footprint.request_bytes(api, src, dst),
                "real_request_bytes": real_req,
                "estimated_response_bytes": footprint.response_bytes(api, src, dst),
                "real_response_bytes": real_resp,
            }
        )
    return rows


def figure20_footprint_accuracy(testbed: Testbed) -> List[Dict[str, object]]:
    """Footprint accuracy per API (percentage, as in Figure 20)."""
    footprint = testbed.atlas.knowledge.footprint
    reference = {
        api: measure_real_footprint(testbed, api, requests=150)
        for api in testbed.application.api_names
    }
    accuracy = footprint.accuracy_against(reference)
    return [
        {"api": api, "accuracy_pct": accuracy.get(api, 0.0)}
        for api in sorted(accuracy)
    ]


# ---------------------------------------------------------------------------
# Figure 21 — effectiveness of the DRL-based GA
# ---------------------------------------------------------------------------

def figure21_drl_vs_nsga2(
    testbed: Testbed, evaluation_budget: Optional[int] = None
) -> Dict[str, object]:
    """Pareto fronts of Atlas's DRL-GA vs. plain NSGA-II, plus the reward curve."""
    budget = evaluation_budget or testbed.atlas.config.ga.evaluation_budget
    base = testbed.atlas.config.ga

    def make_config(crossover: str) -> GAConfig:
        return replace(base, evaluation_budget=budget, crossover=crossover)

    drl_eval = testbed.evaluator()
    drl_result = AtlasGA(
        drl_eval,
        testbed.application.component_names,
        make_config("drl"),
        locations=testbed.locations,
    ).run()
    nsga_eval = testbed.evaluator()
    nsga_result = AtlasGA(
        nsga_eval,
        testbed.application.component_names,
        make_config("uniform"),
        locations=testbed.locations,
    ).run()
    return {
        "drl_front": sorted((q.perf, q.cost) for q in drl_result.pareto),
        "nsga2_front": sorted((q.perf, q.cost) for q in nsga_result.pareto),
        "drl_front_3d": [q.objectives() for q in drl_result.pareto],
        "nsga2_front_3d": [q.objectives() for q in nsga_result.pareto],
        "reward_curve": (
            drl_result.training_history.smoothed_rewards()
            if drl_result.training_history
            else []
        ),
        "drl_result": drl_result,
        "nsga2_result": nsga_result,
    }


# ---------------------------------------------------------------------------
# Figure 22 — data-breach detection
# ---------------------------------------------------------------------------

def figure22_breach_detection(
    testbed: Testbed,
    victim: str = "PostStorageMongoDB",
    accomplice: str = "PostStorageService",
    days: int = 3,
    breach_day: int = 2,
    exfiltrated_bytes: float = 5e7,
) -> Dict[str, object]:
    """Inject an exfiltration on one day and detect it from footprint expectations."""
    duration = testbed.scenario.profile.duration_ms
    generator = WorkloadGenerator(
        testbed.application, testbed.scenario, seed=testbed.seed + 21
    )
    requests = generator.generate(duration * days)
    result = simulate_workload(
        testbed.application,
        requests,
        cluster=testbed.cluster,
        network=testbed.network,
        seed=testbed.seed + 22,
    )
    telemetry = result.telemetry
    # The attacker copies data out of the victim store during the breach day, spread
    # over that day's windows.
    breach_start = breach_day * duration
    breach_windows = 10
    for i in range(breach_windows):
        telemetry.mesh.record(
            victim,
            accomplice,
            breach_start + i * (duration / breach_windows),
            request_bytes=0.0,
            response_bytes=exfiltrated_bytes / breach_windows,
        )

    detector = testbed.atlas.breach_detector()
    window_ms = telemetry.window_ms
    windows = telemetry.common_windows()
    counts_by_window: Dict[int, Dict[str, float]] = {w: {} for w in windows}
    request_counts = telemetry.traces.request_counts(window_ms)
    for api, buckets in request_counts.items():
        for bucket, count in buckets.items():
            counts_by_window.setdefault(bucket, {})[api] = float(count)
    pair = (victim, accomplice)
    reverse_pair = (accomplice, victim)
    observed_by_window: Dict[int, Dict[Tuple[str, str], float]] = {}
    for w in windows:
        observed_by_window[w] = {
            reverse_pair: (
                telemetry.mesh.request_bytes(*reverse_pair, w)
                + telemetry.mesh.response_bytes(*reverse_pair, w)
            ),
            pair: (
                telemetry.mesh.request_bytes(*pair, w)
                + telemetry.mesh.response_bytes(*pair, w)
            ),
        }
    anomalies = detector.scan(counts_by_window, observed_by_window)
    flagged_days = sorted({int(a.window * window_ms // duration) for a in anomalies})
    daily_observed: List[float] = []
    daily_expected: List[float] = []
    for day in range(days):
        day_windows = [w for w in windows if day * duration <= w * window_ms < (day + 1) * duration]
        observed = sum(sum(observed_by_window[w].values()) for w in day_windows)
        expected = 0.0
        for w in day_windows:
            exp = detector.expected_traffic(counts_by_window.get(w, {}))
            expected += exp.get(pair, 0.0) + exp.get(reverse_pair, 0.0)
        daily_observed.append(observed)
        daily_expected.append(expected)
    return {
        "anomalies": anomalies,
        "flagged_days": flagged_days,
        "breach_day": breach_day,
        "daily_observed_bytes": daily_observed,
        "daily_expected_bytes": daily_expected,
    }


# ---------------------------------------------------------------------------
# Scalability numbers (Section 5.6 / 6)
# ---------------------------------------------------------------------------

def scalability_report(testbed: Testbed, crossover_samples: int = 200) -> Dict[str, float]:
    """Training time, per-offspring inference time and end-to-end recommendation time."""
    evaluator = testbed.evaluator()
    ga = AtlasGA(
        evaluator,
        testbed.application.component_names,
        testbed.atlas.config.ga,
        locations=testbed.locations,
    )
    start = time.perf_counter()
    ga.train_agent()
    training_s = time.perf_counter() - start

    rng = np.random.default_rng(0)
    parents = [(ga._random_vector(), ga._random_vector()) for _ in range(crossover_samples)]
    start = time.perf_counter()
    for parent_a, parent_b in parents:
        ga.agent.crossover(parent_a, parent_b, rng)
    inference_ms = (time.perf_counter() - start) / crossover_samples * 1e3

    start = time.perf_counter()
    result = AtlasGA(
        testbed.evaluator(),
        testbed.application.component_names,
        testbed.atlas.config.ga,
        locations=testbed.locations,
    ).run()
    recommendation_s = time.perf_counter() - start
    return {
        "crossover_training_s": training_s,
        "crossover_inference_ms": inference_ms,
        "recommendation_s": recommendation_s,
        "plans_visited": float(result.evaluations),
        "pareto_plans": float(len(result.pareto)),
    }
