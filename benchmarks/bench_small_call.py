"""Fixed cost of one small scoring call, per plugin.

The DRL crossover agent trains on Eq. 5 rewards, and each reward block scores a
median of two new plans: what such a call costs is its fixed cost, not its rows.
This bench times the parts of ``QualityEvaluator._score_matrix`` on the seed-7
end-to-end testbed, for calls of 1, 2, 4 and 64 distinct rows that no cache holds
(the result cache is cleared and QPerf's memos that were not pre-filled are restarted
before every timed call; the pre-filled memos and the storage memo, keyed by stateful
placements, stay warm as in a search)::

    PYTHONPATH=src python benchmarks/bench_small_call.py [--quick]

It prints one table, median microseconds per part:

* ``qperf`` — the whole objective; ``qperf.miss`` is its impact matrix alone (every
  API reads its memo, and the codes the restarted memos miss — ``/composePost``'s —
  replay), ``qperf.hit`` the same read once the memos hold every row;
* ``qavai``;
* ``qcost`` — the whole objective, split into ``qcost.sites`` (the call's one site
  pass, which the on-prem peak constraint shares), ``qcost.compute``,
  ``qcost.storage`` and ``qcost.traffic``;
* every constraint of the problem, each asked after the objectives as a call asks
  it (``onprem-peaks`` reads the site pass QCost ran);
* ``assembly`` — the whole ``evaluate_vectors`` call less everything above.

``--quick`` uses the quick testbed and fewer repetitions.  The pytest function
runs the quick mode and checks every timed row against ``evaluate_reference``
bitwise; it asserts nothing about time.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from e2ebench import inputs  # noqa: E402

from repro.quality import cost as cost_module  # noqa: E402
from repro.quality.problem import (  # noqa: E402
    QAvaiObjective,
    QCostObjective,
    QPerfObjective,
    _admissible_box,
    _site_pass,
)

ROWS = (1, 2, 4, 64)


def _median_us(function: Callable[[int], object], repeats: int) -> float:
    laps = []
    for index in range(repeats):
        started = time.perf_counter()
        function(index)
        laps.append(time.perf_counter() - started)
    return statistics.median(laps) * 1e6


class SmallCallBench:
    """One evaluator on the seed-7 testbed and a pool of distinct rows."""

    def __init__(self, quick: bool) -> None:
        self.testbed = inputs.build(7, quick=quick)
        self.components = self.testbed.application.component_names
        self.evaluator = self.testbed.atlas.build_evaluator(
            expected_scale=self.testbed.expected_scale
        )
        self.pool = np.asarray(inputs.reference_vectors(self.testbed, 8, 400))
        self.evaluator.evaluate_vectors(self.pool[:3], self.components)  # compile

    def rows(self, count: int, index: int) -> np.ndarray:
        start = 3 + (index * count) % (len(self.pool) - 3 - count)
        return self.pool[start : start + count]

    def _fresh(self) -> None:
        self.evaluator._cache.clear()
        for memos in self.evaluator.performance._memo_store.values():
            for memo in memos.values():
                if not any(memo.boxes.values()):  # filled by misses: restart it
                    memo.entries = type(memo)(memo.entries[0].dtype).entries

    def _context(self, matrix: np.ndarray):
        self._fresh()
        return self.evaluator._contexts(matrix, self.evaluator._canonical, None)[0]

    def table(self, count: int, repeats: int) -> Dict[str, float]:
        evaluator = self.evaluator
        performance = evaluator.performance
        timed: Dict[str, float] = {}

        def part(name: str, run: Callable, prepare: Callable = lambda ctx: (ctx,)) -> None:
            """Median of ``run(*prepare(ctx))`` over fresh contexts, ``prepare`` untimed."""
            laps: List[float] = []
            for index in range(repeats):
                arguments = prepare(self._context(self.rows(count, index)))
                started = time.perf_counter()
                run(*arguments)
                laps.append(time.perf_counter() - started)
            timed[name] = statistics.median(laps) * 1e6

        def whole(index: int) -> None:
            self._fresh()
            evaluator.evaluate_vectors(self.rows(count, index), self.components)

        def scored(ctx):
            for objective in evaluator.problem.objectives:
                objective.score_matrix(ctx)
            return (ctx,)

        def impacts(ctx):
            return performance.impact_matrix(
                ctx.matrix, ctx.components, ctx.once("qperf-box", _admissible_box)
            )

        def held(ctx):
            impacts(ctx)  # the memos now hold every row
            return (ctx,)

        total = _median_us(whole, repeats)
        part("qperf", QPerfObjective().score_matrix)
        part("qperf.miss", impacts)
        part("qperf.hit", impacts, held)
        part("qavai", QAvaiObjective().score_matrix)
        part("qcost", QCostObjective().score_matrix)
        part("qcost.sites", _site_pass)
        with_pass = lambda ctx: (ctx, *_site_pass(ctx))  # noqa: E731
        part(
            "qcost.compute",
            lambda ctx, stack, sums: cost_module._compute_rows(
                stack.nodes(sums, ctx.n_plans), stack.bills, 1
            ),
            with_pass,
        )
        part(
            "qcost.storage",
            lambda ctx, stack, sums: cost_module._storage_rows(
                [ctx.cost], ctx.matrix, stack.key, stack.storage
            ),
            with_pass,
        )
        part(
            "qcost.traffic",
            lambda ctx, stack, sums: cost_module._traffic_rows(
                [ctx.cost], ctx.matrix, stack.traffic
            ),
            with_pass,
        )
        plugins = ["qperf", "qavai", "qcost"]
        for constraint in evaluator.problem.constraints:
            part(constraint.name, constraint.check, scored)
            plugins.append(constraint.name)
        timed["assembly"] = total - sum(timed[name] for name in plugins)
        timed["total"] = total
        return timed


def render(tables: Dict[int, Dict[str, float]]) -> str:
    names = list(next(iter(tables.values())))
    lines = ["part".ljust(22) + "".join(f"{count:>10} rows" for count in tables)]
    for name in names:
        lines.append(
            name.ljust(22) + "".join(f"{tables[count][name]:>15.0f}" for count in tables)
        )
    return "\n".join(lines)


def run(quick: bool) -> Dict[int, Dict[str, float]]:
    bench = SmallCallBench(quick)
    repeats = 20 if quick else 200
    return {count: bench.table(count, repeats) for count in ROWS}


def test_small_call_rows_match_the_reference():
    """The quick table's timed rows score bitwise like ``evaluate_reference``."""
    bench = SmallCallBench(quick=True)
    print()
    print(render({count: bench.table(count, 3) for count in ROWS}))
    evaluator = bench.evaluator
    for count in ROWS:
        for matrix in (bench.rows(count, index) for index in range(3)):
            evaluator._cache.clear()
            batched = evaluator.evaluate_vectors(matrix, bench.components)
            for quality in batched:
                reference = evaluator.evaluate_reference(quality.plan)
                assert [value.hex() for value in quality.values] == [
                    value.hex() for value in reference.values
                ]
                assert quality.feasible == reference.feasible
                assert quality.violations == reference.violations


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="quick testbed, 20 repetitions")
    arguments = parser.parse_args()
    print(render(run(arguments.quick)))


if __name__ == "__main__":
    main()
