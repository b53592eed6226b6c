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

import datetime
import json
import subprocess
from pathlib import Path
from typing import Dict, Optional

from repro.analysis import MethodResult, Testbed, get_testbed, run_methods

#: Append-run metrics ledger of the scenario-stress / certification benchmarks.
BENCH_METRICS_PATH = Path(__file__).resolve().parent.parent / "BENCH_scenario_stress.json"

#: Append-run metrics ledger of the evaluation/scenario throughput benchmarks
#: (wall-clock, plans/sec, engine, workers; rendered by ``benchmarks/report.py``).
BENCH_EVAL_THROUGHPUT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_eval_throughput.json"
)

#: Append-run metrics ledger of the warm-path serving benchmarks (cold vs warm
#: recommend latency, splice vs full-rebuild time; rendered by ``benchmarks/report.py``).
BENCH_WARM_PATH_PATH = Path(__file__).resolve().parent.parent / "BENCH_warm_path.json"

#: Append-run metrics ledger of the durable serving benchmarks (cold recommend vs
#: warm process restart over the artifact store; rendered by ``benchmarks/report.py``).
BENCH_SERVING_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

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


def fused_testbed() -> Testbed:
    """The 3-site social-network testbed of the warm-path and serving benchmarks.

    (The name is historical: it was introduced for the since-deleted fused replay
    engines; ``benchmarks/e2e`` restates its parameters under this name.)
    """
    return get_testbed(**_TESTBED_KWARGS, n_locations=3)


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


def _git_sha() -> Optional[str]:
    """The repository's current commit, or None outside a usable git checkout."""
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.SubprocessError):
        return None


def persist_run_metrics(bench: str, metrics: Dict, path: Optional[Path] = None) -> Dict:
    """Append one benchmark run's metrics to the ``BENCH_scenario_stress.json`` ledger.

    The ledger is append-only across runs — ``{"schema": 1, "runs": [...]}``, each
    run stamped with a UTC timestamp and the git commit it measured — so stress /
    certification regressions are diffable across commits.  An unreadable ledger is
    reset rather than crashing the benchmark.  Returns the appended record.
    """
    target = Path(path) if path is not None else BENCH_METRICS_PATH
    record = {
        "bench": bench,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_sha": _git_sha(),
        "metrics": metrics,
    }
    ledger = {"schema": 1, "runs": []}
    if target.exists():
        try:
            loaded = json.loads(target.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                ledger = loaded
        except (OSError, json.JSONDecodeError):
            pass
    ledger["runs"].append(record)
    target.write_text(json.dumps(ledger, indent=2) + "\n")
    return record
