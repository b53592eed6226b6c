"""Multi-location placement search — the built-in 3-datacenter testbed.

The paper's evaluation fixes a two-datacenter hybrid cloud; this benchmark runs the
same recommendation pipeline on the built-in three-location topology (on-prem +
cloud-east + a cheaper-but-farther cloud-west) for both applications.  It reports the
Pareto fronts with their per-site placement splits and asserts the N-location
acceptance bar: the GA and the baselines search all three sites, and the compiled
replay engine stays bitwise-identical to the recursive oracle on 3-location plans.
"""

import numpy as np

from _shared import run_once

from repro.analysis import format_table, get_testbed, run_methods
from repro.cluster import MigrationPlan

#: Search budget for the 3-location runs (the space is 3^n instead of 2^n, but the
#: benchmark bar is exploration + correctness, not exhaustiveness).
SEARCH_BUDGET = 1_200

_TESTBED_KWARGS = dict(
    duration_ms=60_000.0,
    base_rps=10.0,
    peak_rps=18.0,
    evaluation_budget=SEARCH_BUDGET,
    population_size=40,
    train_iterations=60,
    traces_per_api=10,
    n_locations=3,
)


def _three_dc_testbed(application: str):
    return get_testbed(application=application, **_TESTBED_KWARGS)


def _placement_split(plan: MigrationPlan, locations):
    return "/".join(str(len(plan.components_at(loc))) for loc in locations)


def _random_three_location_plans(testbed, count: int, seed: int = 321):
    rng = np.random.default_rng(seed)
    components = testbed.application.component_names
    pins = testbed.preferences.pinned_placement
    plans = []
    for _ in range(count):
        vector = rng.integers(0, len(testbed.locations), size=len(components))
        plan = MigrationPlan.from_vector(components, [int(v) for v in vector])
        plans.append(plan.with_pinned(pins) if pins else plan)
    return plans


def _run_application(application: str):
    testbed = _three_dc_testbed(application)
    methods = run_methods(
        testbed,
        methods=("atlas", "affinity-ga", "random-search"),
        search_budget=SEARCH_BUDGET,
    )
    # Engine equivalence on this topology: batched compiled replay vs recursive oracle.
    plans = _random_three_location_plans(testbed, 120)
    compiled = testbed.atlas.build_evaluator(
        expected_scale=testbed.expected_scale,
        preferences=testbed.preferences,
        performance_engine="compiled",
    )
    reference = testbed.atlas.build_evaluator(
        expected_scale=testbed.expected_scale,
        preferences=testbed.preferences,
        performance_engine="reference",
    )
    compiled_q = compiled.evaluate_batch(plans)
    reference_q = [reference.evaluate_reference(plan) for plan in plans]
    mismatches = sum(
        1 for a, b in zip(compiled_q, reference_q) if a.objectives() != b.objectives()
    )
    return testbed, methods, mismatches


def _report(testbed, methods):
    rows = []
    for name, result in methods.items():
        for quality in result.plans:
            rows.append(
                {
                    "method": name,
                    "qperf": round(quality.perf, 3),
                    "qavai": round(quality.avail, 2),
                    "qcost": round(quality.cost, 4),
                    "onprem/east/west": _placement_split(
                        quality.plan, testbed.locations
                    ),
                }
            )
    return rows


def _assert_bar(testbed, methods, mismatches):
    assert mismatches == 0, "compiled engine must match the oracle on 3-location plans"
    atlas = methods["atlas"]
    assert atlas.plans, "Atlas must find feasible plans on the 3-location testbed"
    # The search must actually explore every site, not silently collapse to two.
    visited = set()
    for quality in atlas.recommendation.result.all_evaluated:
        visited.update(quality.plan.locations_used())
    assert visited == set(testbed.locations), f"search only visited {sorted(visited)}"


def test_multi_location_social(benchmark):
    testbed, methods, mismatches = run_once(
        benchmark, lambda: _run_application("social-network")
    )
    print()
    print(
        format_table(
            _report(testbed, methods),
            title="3-location placement search — social network "
            "(components on-prem/east/west per plan)",
        )
    )
    _assert_bar(testbed, methods, mismatches)


def test_multi_location_hotel(benchmark):
    testbed, methods, mismatches = run_once(
        benchmark, lambda: _run_application("hotel-reservation")
    )
    print()
    print(
        format_table(
            _report(testbed, methods),
            title="3-location placement search — hotel reservation "
            "(components on-prem/east/west per plan)",
        )
    )
    _assert_bar(testbed, methods, mismatches)
