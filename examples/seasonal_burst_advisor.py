"""Seasonal burst scenario: scenario-robust Atlas vs a busiest-first bursting policy.

This mirrors the paper's motivating example (Figure 2/3): a Thanksgiving-style burst
drives CPU demand past the on-prem capacity, and the owner has to offload a subset of
components.  The burst is expressed through the *scenario axis*: Atlas recommends one
plan that must stay feasible for both the observed workload **and** the 5x burst
scenario (worst-case aggregation), instead of optimizing for the burst alone.  The
recommendation reports each plan's per-scenario objectives and its regret against the
per-scenario optimum; the simulator then measures (as ground truth) how the chosen
subset behaves under the burst vs the classic "offload the busiest components" policy.

Run with ``python examples/seasonal_burst_advisor.py``.
"""

from repro.analysis import build_testbed, format_table, run_methods
from repro.quality import PlacementProblem


def main() -> None:
    testbed = build_testbed(
        duration_ms=90_000.0,
        base_rps=12.0,
        peak_rps=22.0,
        evaluation_budget=2_000,
        population_size=60,
        train_iterations=120,
        traces_per_api=10,
    )
    app = testbed.application
    print(f"On-prem CPU limit during the burst: {testbed.onprem_cpu_limit:.0f} millicores")

    # The burst rides the scenario axis: recommend against the observed workload plus
    # a 5x burst scenario, worst-case aggregated (the default).
    scenario_set = testbed.scenario_set()
    recommendation = testbed.atlas.recommend(
        expected_scale=1.0,
        preferences=testbed.preferences,
        problem=PlacementProblem.default(scenarios=scenario_set),
    )
    atlas_quality = recommendation.performance_optimized()
    atlas_plan = atlas_quality.plan

    print()
    print(
        format_table(
            recommendation.scenario_report(),
            title="Recommended plans: per-scenario objectives and regret",
        )
    )

    methods = run_methods(testbed, methods=("greedy-largest",), search_budget=2_000)
    greedy_plan = methods["greedy-largest"].plans[0].plan

    reference = testbed.no_stress_latencies()
    atlas_measured = testbed.measure_plan(atlas_plan).mean_latencies()
    greedy_measured = testbed.measure_plan(greedy_plan).mean_latencies()

    rows = []
    for api in sorted(reference):
        rows.append(
            {
                "api": api,
                "no_stress_ms": reference[api],
                "greedy_ms": greedy_measured.get(api, float("nan")),
                "atlas_ms": atlas_measured.get(api, float("nan")),
                "greedy_slowdown": greedy_measured.get(api, 0.0) / reference[api],
                "atlas_slowdown": atlas_measured.get(api, 0.0) / reference[api],
            }
        )
    print()
    print(format_table(rows, title="Measured API latency under the 5x burst"))
    print()
    print(f"Atlas offloads      : {sorted(atlas_plan.offloaded())}")
    print(f"Greedy-busiest picks: {sorted(greedy_plan.offloaded())}")
    burst_name = scenario_set.names[-1]
    regret = recommendation.scenario_regret(atlas_quality)[burst_name]
    print(
        f"Burst-scenario regret of the robust pick (perf/avail/cost): "
        f"{regret[0]:.3f} / {regret[1]:.3f} / {regret[2]:.2f}"
    )


if __name__ == "__main__":
    main()
