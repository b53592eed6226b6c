"""Golden fixed-seed fingerprint registry shared by the whole test suite.

Every refactor PR in this repo has been held to the same contract: fixed-seed
search trajectories are sha256-fingerprinted and compared *in-session* between two
independently built stacks (never against hardcoded hashes), so any byte-level
behaviour change — a reordered float sum, an extra RNG draw, a cache leak — fails
loudly.  The helpers and golden runs here used to be copy-pasted across
``test_problem.py``, ``test_scenarios.py``, ``test_multi_location.py`` and
``test_faults.py``; they now live in one place, and ``test_fingerprints.py`` is the
single parametrized suite that pins them.

Helpers fingerprint *values*, not object identities: plan vectors, ``repr`` of the
objective tuples (full float precision), feasibility and violation strings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from repro.cluster import MigrationPlan, default_network_model
from repro.learning import ApiProfiler, FootprintLearner, ResourceEstimator
from repro.optimizer import AtlasGA, GAConfig
from repro.optimizer.baselines import (
    AffinityNSGA2Baseline,
    BaselineContext,
    RandomSearchBaseline,
)
from repro.quality import (
    AdversaryBounds,
    ApiAvailabilityModel,
    ApiPerformanceModel,
    CapacityCut,
    CloudCostModel,
    LinkDegradation,
    LocationOutage,
    MigrationPreferences,
    PriceShock,
    PricingCatalog,
    QualityEvaluator,
    ScenarioSpec,
)

__all__ = [
    "fingerprint_payload",
    "fingerprint_qualities",
    "fingerprint_front",
    "fingerprint_search_result",
    "fingerprint_scenario_entries",
    "fingerprint_certificate",
    "build_tiny_evaluator",
    "severity_spec",
    "SEVERITY_LEVELS",
    "make_baseline_context",
    "GOLDEN_GA",
    "GOLDEN_RUNS",
]


# -- fingerprint helpers ---------------------------------------------------------------------
def fingerprint_payload(payload) -> str:
    """sha256 of the JSON encoding of an already-serializable payload."""
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def fingerprint_qualities(qualities) -> str:
    """Canonical fingerprint of a sequence of ``PlanQuality`` results.

    Captures the plan vector, the exact objective floats (via ``repr``), the
    feasibility bit and the violation strings of every entry, in order.
    """
    payload = [
        (
            tuple(q.plan.to_vector()),
            repr(tuple(q.objectives())),
            q.feasible,
            list(q.violations),
        )
        for q in qualities
    ]
    return fingerprint_payload(payload)


def fingerprint_front(result) -> str:
    """Fingerprint of an ``AffinityNSGA2Result`` (plans + internal objectives)."""
    payload = [
        (tuple(p.to_vector()), repr(tuple(o)))
        for p, o in zip(result.plans, result.objectives)
    ]
    return fingerprint_payload(payload)


def fingerprint_search_result(result) -> str:
    """Full-trajectory fingerprint of a ``SearchResult``.

    Covers the Pareto front, every plan the run evaluated (``all_evaluated`` — the
    strongest trajectory witness) and the evaluation/generation counters.
    """
    payload = {
        "pareto": fingerprint_qualities(result.pareto),
        "all_evaluated": fingerprint_qualities(result.all_evaluated),
        "evaluations": result.evaluations,
        "generations": result.generations,
    }
    return fingerprint_payload(payload)


def fingerprint_scenario_entries(quality, names) -> str:
    """Fingerprint of the named per-scenario breakdown entries of one result."""
    by_name = {entry.scenario: entry for entry in quality.scenarios}
    payload = [
        (
            name,
            repr(tuple(by_name[name].objectives())),
            by_name[name].feasible,
            list(by_name[name].violations),
        )
        for name in names
    ]
    return fingerprint_payload(payload)


def fingerprint_certificate(certificate) -> str:
    """Fingerprint of a ``RobustnessCertificate`` (worst spec, regrets, budget)."""
    payload = {
        "worst_spec": repr(certificate.worst_spec.compile_key()),
        "worst_regret": repr(certificate.worst_regret),
        "worst_values": repr(tuple(certificate.worst_values)),
        "budget_spent": certificate.budget_spent,
    }
    return fingerprint_payload(payload)


# -- tiny golden stack -----------------------------------------------------------------------
def build_tiny_evaluator(app, telemetry, problem=None, preferences=None):
    """A fresh evaluator of the tiny app, identical to the historical test stacks.

    Rebuilt from scratch on every call (models, caches, RNG-free), so two
    invocations give two independent stacks whose fixed-seed runs must fingerprint
    identically.
    """
    baseline = MigrationPlan.all_on_prem(app.component_names)
    profiles = ApiProfiler(
        telemetry, stateful_components=app.stateful_components(), traces_per_api=20
    ).profile_all()
    footprint = FootprintLearner(telemetry).learn()
    estimator = ResourceEstimator(app, telemetry).fit()
    estimate = estimator.predict_scaled(3.0)
    limit = estimate.peak("cpu_millicores", app.component_names) * 0.8
    performance = ApiPerformanceModel(
        traces_by_api={api: p.sample_traces for api, p in profiles.items()},
        footprint=footprint,
        network=default_network_model(),
        baseline_plan=baseline,
        traces_per_api=20,
    )
    availability = ApiAvailabilityModel(
        {api: p.stateful_components for api, p in profiles.items()}, baseline
    )
    cost = CloudCostModel(
        PricingCatalog(),
        estimate,
        footprint,
        {c.name: c.resources.storage_gb for c in app.components},
        baseline,
        time_compression=288.0,
    )
    if preferences is None:
        preferences = MigrationPreferences.pin_on_prem(
            ["Database"], onprem_limits={"cpu_millicores": limit}
        )
    return QualityEvaluator(
        performance=performance,
        availability=availability,
        cost=cost,
        preferences=preferences,
        estimate=estimate,
        component_order=app.component_names,
        estimator=estimator,
        problem=problem,
    )


def make_baseline_context(app, telemetry, evaluator) -> BaselineContext:
    return BaselineContext(
        components=app.component_names,
        evaluator=evaluator,
        traffic_matrix=telemetry.traffic_matrix(),
        message_matrix={},
        busyness={},
    )


#: The golden GA hyperparameters every suite shares (the historical TINY_GA).
GOLDEN_GA = GAConfig(
    population_size=16,
    offspring_per_generation=8,
    evaluation_budget=220,
    train_iterations=20,
    train_batch_size=2,
    train_pairs=8,
    seed=11,
)


# -- golden runs -----------------------------------------------------------------------------
def _run_atlas_ga(app, telemetry, **overrides) -> str:
    config = replace(GOLDEN_GA, **overrides) if overrides else GOLDEN_GA
    evaluator = build_tiny_evaluator(app, telemetry)
    result = AtlasGA(evaluator, app.component_names, config=config).run()
    return fingerprint_search_result(result)


def _run_atlas_ga_uniform(app, telemetry) -> str:
    return _run_atlas_ga(app, telemetry, crossover="uniform")


def _run_nsga2(app, telemetry) -> str:
    evaluator = build_tiny_evaluator(app, telemetry)
    result = AffinityNSGA2Baseline(
        make_baseline_context(app, telemetry, evaluator),
        population_size=16,
        evaluation_budget=160,
        seed=5,
    ).recommend()
    return fingerprint_front(result)


def _run_random_search(app, telemetry) -> str:
    evaluator = build_tiny_evaluator(app, telemetry)
    front = RandomSearchBaseline(
        make_baseline_context(app, telemetry, evaluator),
        evaluation_budget=150,
        seed=9,
    ).recommend()
    return fingerprint_qualities(front)


#: name -> runner(app, telemetry) -> fingerprint.  Each runner builds its stack
#: from scratch, so calling it twice compares two fully independent builds.
GOLDEN_RUNS = {
    "atlas-ga": _run_atlas_ga,
    "atlas-ga-uniform": _run_atlas_ga_uniform,
    "nsga2-affinity": _run_nsga2,
    "random-search": _run_random_search,
}


# -- the adversary's severity grid -----------------------------------------------------------
_BOUNDS = AdversaryBounds()
#: The adversary's default bounds as (neutral, mid, severe) per severity knob: rate,
#: payload, link latency, link bandwidth, egress price, compute (and storage) price,
#: capacity.
SEVERITY_LEVELS = tuple(
    (neutral, (neutral + severe) / 2.0, severe)
    for neutral, severe in (
        (1.0, _BOUNDS.max_rate_scale),
        (1.0, _BOUNDS.max_payload_scale),
        (1.0, _BOUNDS.max_latency_factor),
        (1.0, _BOUNDS.min_bandwidth_factor),
        (1.0, _BOUNDS.max_price_factor),
        (1.0, _BOUNDS.max_price_factor),
        (1.0, _BOUNDS.min_capacity_fraction),
    )
)


def severity_spec(levels, outage, sites):
    """The grid point ``levels`` (one index into ``SEVERITY_LEVELS`` per knob) with
    ``outage``'s site down (``None``: no outage), faults in the adversary's order.
    The storage price moves with the compute price, and the capacity knob cuts every
    site of ``sites`` (the stack's billable sites), as the adversary's do."""
    rate, payload, latency, bandwidth, egress, compute, capacity = (
        values[level] for values, level in zip(SEVERITY_LEVELS, levels)
    )
    faults = [] if outage is None else [LocationOutage(outage)]
    if latency != 1.0 or bandwidth != 1.0:
        faults.append(LinkDegradation(latency_factor=latency, bandwidth_factor=bandwidth))
    if egress != 1.0 or compute != 1.0:
        faults.append(
            PriceShock(compute_factor=compute, storage_factor=compute, egress_factor=egress)
        )
    if capacity != 1.0:
        faults.extend(CapacityCut(site, remaining_fraction=capacity) for site in sites)
    return ScenarioSpec(
        name="grid", rate_scale=rate, payload_scale=payload, faults=tuple(faults)
    )
