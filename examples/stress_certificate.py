"""Worst-case certification of a recommended plan on a 3-site topology.

The advisor recommends a plan for on-prem + two cloud regions, then plays its own
adversary over bounded workload knobs (rate bursts, payload growth) and
infrastructure faults (regional outages, link degradation, price shocks, capacity
cuts), looking for the scenario that maximizes the recommended plan's regret against
its fault-free baseline.  It scores the named stress families of
``ScenarioFactory`` — flash crowd, one outage per remote site, egress price shock,
payload inflation, API-mix inversion — so the certified worst case is never weaker
than any of them, then the all-severe corners: every knob at its bound, once per
outage choice.

The printed ``RobustnessCertificate`` answers the question an owner asks before
executing a migration: *which bounded future hurts this plan the most, how much,
and does the plan stay feasible there?*

Run with ``python examples/stress_certificate.py``.
"""

from repro.analysis import build_testbed, format_table
from repro.quality import ScenarioFactory


def main() -> None:
    testbed = build_testbed(
        n_locations=3,
        duration_ms=90_000.0,
        base_rps=12.0,
        peak_rps=22.0,
        evaluation_budget=2_000,
        population_size=60,
        train_iterations=120,
        traces_per_api=10,
    )

    # Recommend and certify in one call: the adversary runs against the knee plan.
    recommendation = testbed.atlas.recommend(
        expected_scale=testbed.expected_scale,
        preferences=testbed.preferences,
        certify=32,
    )
    knee = recommendation.knee_point()
    certificate = recommendation.certificate

    print(f"Knee plan: {sorted(knee.plan.offloaded())}")
    print()
    rows = [
        {"stress family": name, "scalarized regret": round(regret, 4)}
        for name, regret in sorted(certificate.family_regrets.items())
    ]
    rows.append(
        {
            "stress family": f"{certificate.worst_spec.name} (certified worst case)",
            "scalarized regret": round(certificate.worst_regret, 4),
        }
    )
    print(format_table(rows, title="Stress families vs the certified worst case"))
    print()
    print(certificate.summary())

    # The factory's seasonal decomposition: forecast-weighted rate bands of the
    # observed workload, the natural input for WeightedMean / CVaR aggregation.
    factory = ScenarioFactory.from_evaluator(recommendation.evaluator)
    seasonal = factory.seasonal(bands=3)
    print()
    print(
        format_table(
            [
                {
                    "band": spec.name,
                    "rate_scale": round(spec.rate_scale, 3),
                    "occupancy": round(spec.weight, 3),
                }
                for spec in seasonal
            ],
            title="Seasonal decomposition of the observed rate series",
        )
    )


if __name__ == "__main__":
    main()
