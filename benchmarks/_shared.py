"""Shared setup for the benchmark harness.

Every benchmark reproduces one table/figure of the paper on the same evaluation testbed
(the social network under a 5x burst).  Building the testbed and running the seven
placement methods is expensive, so both are memoized at module level and shared by all
benchmark files collected in the same pytest process.

Benchmarks are executed once per session (``benchmark.pedantic(..., rounds=1)``): the
interesting output is the printed table/series, and the recorded time is the wall-clock
cost of regenerating that artifact.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis import MethodResult, Testbed, get_testbed, run_methods

#: Search budget (plans visited) shared by Atlas, the affinity GA and random search.
SEARCH_BUDGET = 2_500

_TESTBED_KWARGS = dict(
    application="social-network",
    duration_ms=90_000.0,
    base_rps=12.0,
    peak_rps=22.0,
    evaluation_budget=SEARCH_BUDGET,
    population_size=60,
    train_iterations=150,
    traces_per_api=10,
)

_HOTEL_KWARGS = dict(
    application="hotel-reservation",
    duration_ms=90_000.0,
    base_rps=12.0,
    peak_rps=22.0,
    evaluation_budget=1_500,
    population_size=40,
    train_iterations=80,
    traces_per_api=10,
)

_methods_cache: Dict[str, Dict[str, MethodResult]] = {}


def social_testbed() -> Testbed:
    """The social-network evaluation testbed shared by most benchmarks."""
    return get_testbed(**_TESTBED_KWARGS)


def hotel_testbed() -> Testbed:
    """The hotel-reservation testbed (used by the Figure 15 benchmark)."""
    return get_testbed(**_HOTEL_KWARGS)


def social_methods() -> Dict[str, MethodResult]:
    """All seven placement methods on the social-network testbed (memoized)."""
    if "social" not in _methods_cache:
        _methods_cache["social"] = run_methods(social_testbed(), search_budget=SEARCH_BUDGET)
    return _methods_cache["social"]


def hotel_methods() -> Dict[str, MethodResult]:
    if "hotel" not in _methods_cache:
        _methods_cache["hotel"] = run_methods(
            hotel_testbed(),
            methods=("atlas", "affinity-ga", "random-search"),
            search_budget=1_500,
        )
    return _methods_cache["hotel"]


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
