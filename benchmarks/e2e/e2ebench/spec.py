"""The benchmark's declared surface: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root is :func:`benchmark_json` written
out; the harness self-test fails when the two differ.  Every metric named here
is reported by every workload: end-to-end metrics by the untraced run
(``--trace 0``), per-layer metrics by the traced run (``--trace 1``).
"""

from __future__ import annotations

from typing import Dict, List

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: Seconds one run measures.  A run takes 26-35 s of wall clock with set-up and
#: verification, so the driver's 4 + 22 x 4 runs take about 2 700 s of the 3 420 s
#: it allows on the 2-vCPU host; a longer run would not fit.
RUN_SECONDS = 20

#: name -> why the workload exists (which layer does the work, which does none).
#: Each workload times two operations, interleaved: ``op`` and ``op2``.
WORKLOADS: Dict[str, str] = {
    "cold_recommend": (
        "op: Atlas.recommend(scale 5), fresh evaluator, no cache - optimizer rank/select "
        "and DRL training dominate, quality a minority, serving idle; op2: learn from telemetry"
    ),
    "robust_recommend": (
        "op: the same search over S=4 scenarios with certify=24 - quality (SxP scoring, "
        "qcost, adversary) dominates, rank/select a minority; op2: learn from telemetry"
    ),
    "warm_serving": (
        "op: request to a populated AdvisorService (90% tenant memo hit, 10% fingerprint hit); "
        "op2: restart over the same store to first preview - serving reads only, no search"
    ),
    "daemon_drift": (
        "op: daemon cycle poll-drift-splice-recertify-recommend for a drifting tenant; "
        "op2: cycle in which nobody drifts - serving writes and monitoring around a search"
    ),
}

#: What ``op`` and ``op2`` are on each workload (printed with every result).
OPERATIONS: Dict[str, Dict[str, str]] = {
    "cold_recommend": {"op": "Atlas.recommend", "op2": "Atlas() + learn"},
    "robust_recommend": {"op": "Atlas.recommend, S=4, certify", "op2": "Atlas() + learn"},
    "warm_serving": {"op": "warm request", "op2": "restart to first preview"},
    "daemon_drift": {"op": "drift-to-plan cycle", "op2": "quiet cycle"},
}

#: End-to-end metrics.  ``bound`` is the share of the parent's median by which
#: the metric may worsen.  Times are processor time on the quiet host
#: (``hostspeed``); their ten-seed spreads measure 5-9% on this host (README,
#: "Repeatability"), a third of the widest bound the contract allows, so they
#: take that bound.
END_TO_END: List[Dict[str, object]] = [
    {"name": "op_latency_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op2_latency_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

_PCT = ("%", "lower")
_COUNT = ("count", "lower")

#: Per-layer metrics: name -> (unit, better).  Span shares are percentages of the
#: traced ``op``'s wall clock (``op2.*`` of the traced ``op2``'s); ``*_ms`` probes
#: are direct timed calls.
PER_LAYER: Dict[str, tuple] = {
    # learning -> setup_s (every workload), op2_latency_ms (recommend workloads)
    "learning.learn_ms": ("ms", "lower"),
    # quality -> op_latency_ms on robust_recommend (majority), cold_recommend (minority)
    "quality.evaluate_busy_pct": _PCT,
    "quality.evaluate_self_pct": _PCT,
    "quality.qperf_busy_pct": _PCT,
    "quality.qcost_busy_pct": _PCT,
    "quality.qavai_busy_pct": _PCT,
    "quality.constraints_busy_pct": _PCT,
    "quality.certify_busy_pct": _PCT,
    "quality.splice_busy_pct": _PCT,
    "quality.evaluate_calls": _COUNT,
    "quality.plans_requested": _COUNT,
    "quality.plans_scored": _COUNT,
    "quality.dedup_ratio": ("ratio", "higher"),
    "quality.certify_probes": _COUNT,
    "quality.score_batch_plans_per_s": ("1/s", "higher"),
    "quality.score_small_call_ms": ("ms", "lower"),
    "quality.compile_ms": ("ms", "lower"),
    "quality.splice_ms": ("ms", "lower"),
    "quality.certify_ms": ("ms", "lower"),
    # optimizer -> op_latency_ms on cold_recommend first, daemon_drift second
    "optimizer.search_busy_pct": _PCT,
    "optimizer.train_agent_busy_pct": _PCT,
    "optimizer.search_self_pct": _PCT,
    "optimizer.reward_calls": _COUNT,
    "optimizer.generations": _COUNT,
    "optimizer.evaluations": _COUNT,
    "optimizer.rank_ms": ("ms", "lower"),
    "optimizer.survival_ms": ("ms", "lower"),
    # recommend -> op_latency_ms on both recommend workloads; front_hv is the
    # quality a speed-up must not spend (exact per seed, so compared seed by seed)
    "recommend.front_hv": ("ratio", "higher"),
    "recommend.front_size": ("count", "higher"),
    "recommend.self_pct": _PCT,
    "recommend.build_evaluator_busy_pct": _PCT,
    # serving -> op_latency_ms and op2_latency_ms on warm_serving and daemon_drift
    "serving.request_busy_pct": _PCT,
    "serving.request_self_pct": _PCT,
    "serving.store_save_busy_pct": _PCT,
    "serving.checkpoint_busy_pct": _PCT,
    "serving.daemon_self_pct": _PCT,
    "serving.store_saves": _COUNT,
    "serving.checkpoints": _COUNT,
    "serving.memo_hits": ("count", "higher"),
    "serving.memo_misses": _COUNT,
    "serving.memo_hit_ratio": ("ratio", "higher"),
    "serving.journal_hits": ("count", "higher"),
    "serving.journal_misses": _COUNT,
    "serving.artifact_hits": ("count", "higher"),
    "serving.artifact_misses": _COUNT,
    "serving.store_hits": ("count", "higher"),
    "serving.store_objects": _COUNT,
    "serving.store_mb": ("MB", "lower"),
    "serving.store_save_ms": ("ms", "lower"),
    "serving.store_load_ms": ("ms", "lower"),
    "serving.checkpoint_ms": ("ms", "lower"),
    # monitoring -> op_latency_ms and op2_latency_ms on daemon_drift
    "monitoring.drift_check_busy_pct": _PCT,
    "monitoring.poll_busy_pct": _PCT,
    "monitoring.drift_check_ms": ("ms", "lower"),
    # where op2 spends its time (shares of the traced op2's wall clock)
    "op2.learn_busy_pct": _PCT,
    "op2.request_self_pct": _PCT,
    "op2.store_load_busy_pct": _PCT,
    "op2.store_loads": _COUNT,
    "op2.preview_busy_pct": _PCT,
    "op2.daemon_self_pct": _PCT,
    "op2.checkpoint_busy_pct": _PCT,
    "op2.drift_check_busy_pct": _PCT,
    "op2.poll_busy_pct": _PCT,
    "op2.coverage_pct": ("%", "higher"),
    # the operations themselves over the whole run (not the quietest block)
    "op.median_ms": ("ms", "lower"),
    "op.tail_ms": ("ms", "lower"),
    "op.tail_pct": ("%", "higher"),
    "op.samples": ("count", "higher"),
    "op.wait_ms": ("ms", "lower"),
    "op2.median_ms": ("ms", "lower"),
    "op2.tail_ms": ("ms", "lower"),
    "op2.tail_pct": ("%", "higher"),
    "op2.samples": ("count", "higher"),
    "op2.wait_ms": ("ms", "lower"),
    "op.rss_growth_mb": ("MB", "lower"),
    # the instrument
    "host.slowdown": ("ratio", "lower"),
    "trace.op_latency_ms": ("ms", "lower"),
    "trace.overhead_pct": _PCT,
    "trace.coverage_pct": ("%", "higher"),
    "trace.spans_per_op": _COUNT,
}


def benchmark_json() -> Dict[str, object]:
    """The builder-contract document (exactly the keys the driver reads)."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [dict(metric) for metric in END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
