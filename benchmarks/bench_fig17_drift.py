"""Figure 17 — post-migration monitoring: drift detection and re-optimization."""

from _shared import run_once, social_methods, social_testbed

from repro.analysis import figure17_drift_detection, format_mapping


def test_fig17_drift_detection(benchmark):
    testbed = social_testbed()
    atlas = social_methods()["atlas"]
    result = run_once(
        benchmark,
        lambda: figure17_drift_detection(testbed, atlas.recommendation),
    )
    report_before = result["report_before"]
    report_after = result["report_after"]
    print()
    refreshed = result["refreshed_scenario"]
    print(
        format_mapping(
            {
                "api": result["api"],
                "post_migration_mean_ms": result["post_migration_mean_ms"],
                "before_change_mean_ms": result["before_change_mean_ms"],
                "after_change_mean_ms": result["after_change_mean_ms"],
                "reoptimized_mean_ms": result["reoptimized_mean_ms"],
                "info_loss_before_change": report_before.information_loss_factor,
                "info_loss_after_change": report_after.information_loss_factor,
                "drift_detected_after_change": report_after.drift_detected,
                "drifted_apis": ", ".join(result["drifted_apis"]) or "-",
                "refreshed_scenario": refreshed.name if refreshed else "-",
                "scenario_robust_reoptimization": result[
                    "scenario_robust_reoptimization"
                ],
            },
            title="Figure 17: /composePost drift detection and re-optimization",
        )
    )
    # The behaviour change makes /composePost slower and the statistical discrepancy
    # grows substantially relative to the pre-change check.
    assert result["after_change_mean_ms"] > result["before_change_mean_ms"]
    assert report_after.information_loss_factor > report_before.information_loss_factor
    # Drift → scenario bridge: when the check flags the API, the detector emits a
    # refreshed WorkloadScenario and the re-optimization runs scenario-robustly.
    if report_after.drift_detected:
        assert result["api"] in result["drifted_apis"]
        assert refreshed is not None and refreshed.changes
        assert result["scenario_robust_reoptimization"]
        # The executed plan was re-scored over the (observed, drift) scenario
        # axis before the full re-learning round.
        rescored = result["rescored_executed"]
        assert rescored is not None and len(rescored.scenarios) == 2
