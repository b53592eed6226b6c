"""The re-plan law: how much search a drift re-plan that starts from its served front needs.

``docs/architecture.md`` decision record №8 states the rule this script selects;
``repro.recommend.advisor.REPLAN_RULE`` is that rule, and the script fails when it
is not.  The law was fixed, seeds included, before anything was measured:

* **Cells.**  Application × extent: the social network (9 APIs) and hotel
  reservation (5 APIs) on the 3-site testbed of the end-to-end benchmark
  (``e2ebench.inputs.TESTBED_PARAMS``: budget 2 500, population 60), and a drift
  that splices 1, 2 or half (rounded up) of the application's APIs.
* **Drifts.**  Seed ``s`` of :data:`SEEDS` builds each application's testbed
  (telemetry and GA seed from ``s``) and serves one cold answer, which trains the
  crossover agent.  Per extent it then draws which APIs drift
  (``default_rng([s, 26, count])``) and splices, for the ``k``-th of them, its
  learned traces retimed by ``inputs.drift_factor(s, k)`` — the splice of the e2e
  ``daemon_drift`` round, on more APIs.
* **Re-plans.**  Each drift is re-planned five times with the served agent
  installed: from the affinity seeds at the configured budget (2 500: what every
  drift re-plan did before the prior), and from the served front (a
  :class:`~repro.recommend.ReplanPrior`) at ``B`` ∈ :data:`BUDGETS` — the rule
  replaced by that one budget, so each is the search ``Atlas.recommend`` runs.
* **Quality.**  Hypervolume in the harness's unit box: the spliced knowledge's
  evaluator scores ``inputs.reference_vectors(testbed, s)``,
  ``stats.objective_box`` of those rows is the box, and
  ``stats.normalized_hypervolume`` scores each front in it.  ``Δhv`` is a warm
  re-plan's hv minus the affinity re-plan's.
* **Pass.**  A budget passes a cell when the mean ``Δhv`` over the cell's drifts is
  at least :data:`TOLERANCE` (−0.05).  Win / loss / tie counts and the quartiles of
  ``Δhv`` are printed beside it.
* **Rule.**  Per extent, the smallest budget that passes in every application
  (never smaller than a narrower extent's); its row is ``(the largest spliced
  fraction of that extent over the applications, B / 2 500)``, and rows with the
  same share are one row.  A drift wider than every row searches the whole budget.

``--quick`` runs one seed per cell, :data:`QUICK_SEED`, and checks that the rule's
budget passes every cell there.  One draw cannot carry a mean, so this is a
regression guard and not evidence: the seed was picked *after* the law run, as the
first of :data:`SEEDS` at which the selected budget passes every cell (at 2601 one
social-network cell reads −0.43 at every budget, warm 2 500 included; at 2602 one
reads −0.25 below 2 500 — the affinity search found a front the warm start did
not).  Usage::

    PYTHONPATH=src python benchmarks/bench_replan_law.py           # the law, 30 seeds per cell (≈ 5 min)
    PYTHONPATH=src python benchmarks/bench_replan_law.py --quick   # one seed per cell (≈ 12 s)
    PYTHONPATH=src python -m pytest benchmarks/bench_replan_law.py -q  # --quick, as a test
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import numpy as np  # noqa: E402
from e2ebench import inputs, stats  # noqa: E402

from repro.analysis.testbed import build_testbed  # noqa: E402
from repro.recommend import ReplanPrior  # noqa: E402
from repro.recommend import advisor  # noqa: E402

APPLICATIONS = ("social-network", "hotel-reservation")
#: Spliced-API counts, by name: ``half`` is half the application's APIs, rounded up.
EXTENTS = ("1", "2", "half")
#: Warm-start budgets, largest first; the affinity re-plan runs at the first.
BUDGETS = (2_500, 1_250, 625, 300)
#: Thirty seeded drifts per cell.
SEEDS = tuple(range(2601, 2631))
#: The one seed per cell of ``--quick`` (see the module docstring).
QUICK_SEED = 2603
TOLERANCE = -0.05


def spliced_count(extent: str, n_apis: int) -> int:
    return math.ceil(n_apis / 2) if extent == "half" else int(extent)


def _hypervolume(answer, ideal, nadir) -> float:
    return stats.normalized_hypervolume(
        [quality.objectives() for quality in answer.plans], ideal, nadir
    )


def _replan(atlas, scale, budget_share=None):
    """``atlas.recommend`` with the rule replaced by one budget share (``None``: as is)."""
    if budget_share is None:
        return atlas.recommend(expected_scale=scale)
    with mock.patch.object(advisor, "REPLAN_RULE", ((1.0, budget_share),)):
        return atlas.recommend(expected_scale=scale)


def drifts_of_seed(application: str, seed: int) -> List[Dict[str, object]]:
    """Every extent's drift of one seed, each re-planned five times."""
    testbed = build_testbed(
        seed=seed, ga_seed=seed, **dict(inputs.TESTBED_PARAMS, application=application)
    )
    scale = testbed.expected_scale
    budget = testbed.atlas.config.ga.evaluation_budget
    assert budget == BUDGETS[0], "the law's budgets are the e2e testbed's"
    served = testbed.atlas.recommend(expected_scale=scale)
    components = testbed.application.component_names
    served_vectors = tuple(tuple(q.plan.to_vector()) for q in served.plans)
    rows = []
    for extent in EXTENTS:
        atlas = inputs.fresh_atlas(testbed)
        knowledge = atlas.knowledge
        apis = knowledge.apis
        count = spliced_count(extent, len(apis))
        rng = np.random.default_rng([seed, 26, count])
        drifted = sorted(str(api) for api in rng.choice(apis, size=count, replace=False))
        for k, api in enumerate(drifted):
            profile = knowledge.api_profiles[api]
            window = [
                inputs.perturb_trace(trace, inputs.drift_factor(seed, k))
                for trace in profile.sample_traces
            ]
            knowledge.api_profiles[api] = dataclasses.replace(profile, sample_traces=window)
        knowledge.crossover_agent = served.result.agent
        sample = atlas.build_evaluator(expected_scale=scale).evaluate_vectors(
            inputs.reference_vectors(testbed, seed), components
        )
        ideal, nadir = stats.objective_box([quality.objectives() for quality in sample])

        started = time.perf_counter()
        cold = _replan(atlas, scale)
        row = {
            "application": application,
            "extent": extent,
            "seed": seed,
            "spliced": drifted,
            "fraction": count / len(apis),
            "rule_budget": advisor.replan_budget(testbed.atlas.config.ga, count / len(apis)),
            "affinity": {
                "hv": _hypervolume(cold, ideal, nadir),
                "evaluations": cold.result.evaluations,
                "generations": cold.result.generations,
                "replan_s": time.perf_counter() - started,
            },
            "warm": {},
        }
        knowledge.replan_prior = ReplanPrior(
            components=tuple(components), vectors=served_vectors, spliced=tuple(drifted)
        )
        for b in BUDGETS:
            started = time.perf_counter()
            warm = _replan(atlas, scale, budget_share=b / budget)
            row["warm"][b] = {
                "hv": _hypervolume(warm, ideal, nadir),
                "evaluations": warm.result.evaluations,
                "generations": warm.result.generations,
                "replan_s": time.perf_counter() - started,
            }
        rows.append(row)
    return rows


def summarize(rows: Sequence[Dict[str, object]]) -> Dict[Tuple[str, str, int], Dict[str, float]]:
    """Per (application, extent, budget): the law's statistics of ``Δhv``."""
    table = {}
    for application in APPLICATIONS:
        for extent in EXTENTS:
            cell = [r for r in rows if (r["application"], r["extent"]) == (application, extent)]
            if not cell:
                continue
            for b in BUDGETS:
                deltas = [r["warm"][b]["hv"] - r["affinity"]["hv"] for r in cell]
                q1, q3 = stats.quartiles(deltas)
                table[application, extent, b] = {
                    "n": len(deltas),
                    "fraction": cell[0]["fraction"],
                    "mean": statistics.fmean(deltas),
                    "q1": q1,
                    "median": stats.median(deltas),
                    "q3": q3,
                    "wins": sum(d > 0 for d in deltas),
                    "losses": sum(d < 0 for d in deltas),
                    "ties": sum(d == 0 for d in deltas),
                    "passes": statistics.fmean(deltas) >= TOLERANCE,
                    "evaluations": statistics.fmean(r["warm"][b]["evaluations"] for r in cell),
                    "generations": statistics.fmean(r["warm"][b]["generations"] for r in cell),
                    "replan_s": statistics.fmean(r["warm"][b]["replan_s"] for r in cell),
                    "affinity_hv": statistics.fmean(r["affinity"]["hv"] for r in cell),
                    "affinity_s": statistics.fmean(r["affinity"]["replan_s"] for r in cell),
                }
    return table


def select_rule(table) -> Tuple[Tuple[float, float], ...]:
    """Per extent, the smallest budget passing in every application, as rule rows."""
    rule: List[Tuple[float, float]] = []
    for extent in EXTENTS:
        passing = [
            b
            for b in BUDGETS
            if all(table[application, extent, b]["passes"] for application in APPLICATIONS)
        ]
        share = min(passing, default=BUDGETS[0]) / BUDGETS[0]
        bound = max(table[application, extent, BUDGETS[0]]["fraction"] for application in APPLICATIONS)
        if rule and share <= rule[-1][1]:
            # Never less than a narrower drift gets; an equal share widens that row.
            share = rule.pop()[1]
        rule.append((bound, share))
    return tuple(rule)


def rule_verdicts(rows, table) -> List[Tuple[str, str, int, bool]]:
    """Whether the budget ``REPLAN_RULE`` gives each cell passes there."""
    verdicts = {}
    for row in rows:
        cell, b = (row["application"], row["extent"]), row["rule_budget"]
        verdicts[cell] = (*cell, b, b in BUDGETS and table[cell + (b,)]["passes"])
    return list(verdicts.values())


def format_table(table) -> str:
    lines = [
        "| application | extent (fraction) | B | mean Δhv | Q1 | median | Q3 | wins / losses / ties | pass | evaluations | generations | re-plan s | affinity hv / s |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for (application, extent, b), row in table.items():
        lines.append(
            f"| {application} | {extent} ({row['fraction']:.3f}) | {b} | {row['mean']:+.4f} "
            f"| {row['q1']:+.4f} | {row['median']:+.4f} | {row['q3']:+.4f} "
            f"| {row['wins']} / {row['losses']} / {row['ties']} | {'yes' if row['passes'] else 'no'} "
            f"| {row['evaluations']:.0f} | {row['generations']:.1f} | {row['replan_s']:.3f} "
            f"| {row['affinity_hv']:.4f} / {row['affinity_s']:.3f} |"
        )
    return "\n".join(lines)


def run(seeds: Sequence[int]) -> Dict[str, object]:
    rows = []
    for application in APPLICATIONS:
        for seed in seeds:
            rows.extend(drifts_of_seed(application, seed))
    table = summarize(rows)
    print(format_table(table))
    verdicts = rule_verdicts(rows, table)
    selected = select_rule(table)
    print(f"REPLAN_RULE in src: {advisor.REPLAN_RULE}")
    print(f"rule the table selects ({len(seeds)} seed(s) per cell): {selected}")
    for application, extent, b, passes in verdicts:
        print(f"  rule's budget for {application} / {extent}: {b} -> {'passes' if passes else 'FAILS'}")
    return {"rows": rows, "table": table, "verdicts": verdicts, "selected": selected}


def check(outcome, law: bool) -> None:
    failing = [v for v in outcome["verdicts"] if not v[3]]
    assert not failing, f"the rule's budget does not pass: {failing}"
    if law:
        assert outcome["selected"] == advisor.REPLAN_RULE, (
            f"REPLAN_RULE {advisor.REPLAN_RULE} is not the rule the law selects "
            f"{outcome['selected']}"
        )


def test_the_rule_passes_at_one_seed_per_cell():
    check(run((QUICK_SEED,)), law=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help=f"one seed per cell ({QUICK_SEED})")
    parser.add_argument("--json", help="also write every drift's numbers to this file")
    args = parser.parse_args(argv)
    outcome = run((QUICK_SEED,) if args.quick else SEEDS)
    if args.json:
        Path(args.json).write_text(json.dumps(outcome["rows"], indent=1))
    check(outcome, law=not args.quick)
    print("re-plan law: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
