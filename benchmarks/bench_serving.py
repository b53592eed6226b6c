"""Durable fleet serving: warm process restarts over the on-disk artifact store.

The warm-path benchmark showed a memo hit beats a cold compile + search by
orders of magnitude — but the memo died with the process.  This benchmark
measures the durable tier on the 3-site social-network testbed:

* **cold recommend** — a store-backed :class:`~repro.recommend.advisor.AdvisorService`
  compiles, searches, and journals the result + every compiled artifact to disk.
* **warm restart** — a *simulated fresh process*: a new service, a new
  :class:`~repro.quality.artifacts.ArtifactCache`, and a freshly learned Atlas
  (same telemetry, different objects) over the same store directory.  The
  recommend must revive from the durable journal without searching.
  Bar: at least ``WARM_RESTART_SPEEDUP_BAR``x faster than cold, fronts identical.
* **first preview after restart** — forcing the revived evaluator's first
  latency preview streams the compiled trace sets from the store instead of
  recompiling them (``store_hits > 0``).
* **a restart reads what it serves** — recommend + first preview unpickle the
  front's results and nothing else: no archive, no fragment, no trace (the spies
  of ``tests/test_durable_forms.py``; counted in a second, untimed restart).

Appends to the ``BENCH_serving.json`` ledger (headline:
``warm_restart_speedup``) rendered and gated by ``benchmarks/report.py``.
The companion ``serving_daemon_smoke.py`` certifies the daemon's
kill-and-restart contract with real processes.
"""

import shutil
import sys
import tempfile
import time
from pathlib import Path

from _shared import (
    BENCH_SERVING_PATH,
    fused_testbed,
    persist_run_metrics,
    run_once,
)
from bench_warm_path import _front_payload

from repro.analysis import format_table
from repro.recommend import AdvisorService, Atlas
from repro.serving import ArtifactStore

# The decode spies live with the tests that define the property they count.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from durable_spies import decode_spies  # noqa: E402

#: Required speedup of a journal-revived recommend in a fresh process over the
#: cold compile + search that populated the store.
WARM_RESTART_SPEEDUP_BAR = 5.0


def test_durable_serving(benchmark):
    testbed = fused_testbed()
    atlas = testbed.atlas
    kwargs = dict(expected_scale=testbed.expected_scale)

    def relearned():
        # A simulated process restart: nothing in memory survives — a fresh
        # service, fresh artifact cache, and a fresh Atlas learned from the
        # same telemetry.  Only the store directory is shared.
        restarted = Atlas(
            atlas.application,
            atlas.preferences,
            network=atlas.network,
            config=atlas.config,
            current_plan=atlas.current_plan,
            cluster=atlas.cluster,
        )
        restarted.learn(testbed.telemetry)
        return restarted

    def measure():
        root = tempfile.mkdtemp(prefix="atlas-store-bench-")
        try:
            cold_service = AdvisorService(store=ArtifactStore(root))
            start = time.perf_counter()
            cold = cold_service.recommend(atlas, **kwargs)
            cold_s = time.perf_counter() - start

            restarted = relearned()
            warm_service = AdvisorService(store=ArtifactStore(root))
            start = time.perf_counter()
            warm = warm_service.recommend(restarted, **kwargs)
            warm_s = time.perf_counter() - start

            # The revived recommendation is live: its first preview must stream
            # the compiled trace sets from the store, not recompile them.
            knee = warm.knee_point().plan
            start = time.perf_counter()
            warm.latency_preview(knee)
            preview_s = time.perf_counter() - start

            # Once more under the spies (untimed): what did serving that decode?
            again = relearned()
            with decode_spies() as decoded:
                answer = AdvisorService(store=ArtifactStore(root)).recommend(again, **kwargs)
                answer.latency_preview(answer.knee_point().plan)

            return {
                "decoded": dict(decoded),
                "front_size": len(cold.result.pareto),
                "archive_size": len(cold.result.all_evaluated),
                "cold_s": cold_s,
                "warm_s": warm_s,
                "preview_s": preview_s,
                "engine": cold.evaluator.performance.engine,
                "cold_front": _front_payload(cold),
                "warm_front": _front_payload(warm),
                "journal": warm_service.stats()["journal"],
                "store_hits": warm_service.cache.stats()["store_hits"],
                "objects": len(ArtifactStore(root)),
            }
        finally:
            shutil.rmtree(root, ignore_errors=True)

    result = run_once(benchmark, measure)
    restart_speedup = result["cold_s"] / result["warm_s"]
    rows = [
        {
            "path": "cold recommend (compile + search + journal)",
            "seconds": round(result["cold_s"], 4),
            "speedup": "1.00x",
        },
        {
            "path": "warm restart recommend (journal revive)",
            "seconds": round(result["warm_s"], 4),
            "speedup": f"{restart_speedup:.0f}x",
        },
        {
            "path": "first preview after restart (store-fed compile)",
            "seconds": round(result["preview_s"], 4),
            "speedup": "-",
        },
    ]
    print()
    print(format_table(rows, title="Durable serving (3-site social network, on-disk store)"))
    print(
        f"store objects: {result['objects']}, journal: {result['journal']}, "
        f"store hits after preview: {result['store_hits']}"
    )
    print(
        f"restart decoded: {result['decoded']} "
        f"(front {result['front_size']}, archive {result['archive_size']})"
    )
    persist_run_metrics(
        "serving",
        {
            "engine": result["engine"],
            "store_objects": result["objects"],
            "cold_recommend_s": round(result["cold_s"], 4),
            "warm_restart_recommend_s": round(result["warm_s"], 6),
            "restart_first_preview_s": round(result["preview_s"], 6),
            "warm_restart_speedup": round(restart_speedup, 1),
            "restart_store_hits": result["store_hits"],
        },
        path=BENCH_SERVING_PATH,
    )
    # The revived answer is the cold answer — served without a search.
    assert result["warm_front"] == result["cold_front"]
    assert result["journal"] == {"hits": 1, "misses": 0}
    assert result["store_hits"] > 0, "restart preview recompiled instead of loading"
    # ...and read what it served: the front's results, no archive, no splice state.
    assert result["archive_size"] > result["front_size"]
    assert result["decoded"] == {"results": result["front_size"]}, result["decoded"]
    assert restart_speedup >= WARM_RESTART_SPEEDUP_BAR, (
        f"warm restart speedup {restart_speedup:.1f}x is below the "
        f"{WARM_RESTART_SPEEDUP_BAR}x bar"
    )
