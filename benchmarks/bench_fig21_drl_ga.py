"""Figure 21 — effectiveness of the DRL-based GA vs plain NSGA-II, and the reward curve."""

from _shared import SEARCH_BUDGET, run_once, social_testbed

from repro.analysis import figure21_drl_vs_nsga2, format_series
from repro.optimizer import hypervolume_2d


def test_fig21_drl_vs_nsga2(benchmark):
    testbed = social_testbed()
    result = run_once(
        benchmark, lambda: figure21_drl_vs_nsga2(testbed, evaluation_budget=SEARCH_BUDGET)
    )
    print()
    print(
        format_series(
            {
                "drl_front_perf": [p for p, _c in result["drl_front"]],
                "drl_front_cost": [c for _p, c in result["drl_front"]],
                "nsga2_front_perf": [p for p, _c in result["nsga2_front"]],
                "nsga2_front_cost": [c for _p, c in result["nsga2_front"]],
                "reward_curve": result["reward_curve"],
            },
            title="Figure 21: DRL-GA vs NSGA-II fronts and reward progression",
        )
    )
    assert result["drl_front"], "the DRL-based GA must produce a feasible front"

    # (a) Front quality: compare dominated hypervolume against a common reference point.
    reference = (
        1.05 * max(p for p, _c in result["drl_front"] + result["nsga2_front"]),
        1.05 * max(c for _p, c in result["drl_front"] + result["nsga2_front"]),
    )
    drl_hv = hypervolume_2d(result["drl_front"], reference)
    nsga_hv = hypervolume_2d(result["nsga2_front"], reference)
    print(f"hypervolume: drl={drl_hv:.4f} nsga2={nsga_hv:.4f}")
    # Front-quality note: the paper reports the DRL front dominating the NSGA-II front.
    # With the shared memetic refinements and the much smaller training/search budget
    # used here, the two variants trade places between runs, so the hypervolume is
    # printed above rather than asserted (nothing records it yet: ROADMAP item 5's
    # paper-claims ledger will).  What must hold is that the DRL variant produces a
    # usable front at all.
    assert drl_hv > 0.0

    # (b) Reward progression: the late-training reward exceeds the early one and the
    # agent ends up producing mostly feasible (positive-reward) children.
    curve = result["reward_curve"]
    assert len(curve) > 20
    early = sum(curve[:10]) / 10
    late = sum(curve[-10:]) / 10
    assert late > early
    assert late > 0
