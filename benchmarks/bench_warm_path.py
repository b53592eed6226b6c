"""Warm-path serving: fingerprint-keyed artifact reuse + incremental splice.

The replay kernels made plan *evaluation* cheap, so for repeated / multi-tenant
serving the per-request compile step (trace compilation, Δ tables)
and the search itself dominate recommend latency.  This benchmark measures the two
warm-path mechanisms on the 3-site social-network testbed:

* **cold vs warm recommend** — an :class:`~repro.recommend.advisor.AdvisorService`
  serves the same request twice: the first call compiles + searches, the second is
  answered from the request memo (sound because the seeded search is
  deterministic).  A third call from a *different* Atlas instance learned from the
  same telemetry must also hit (content fingerprints, not object identity).
  Bar: warm recommend at least ``WARM_SPEEDUP_BAR``x faster than cold, with the
  recommendation fronts identical.

* **splice vs full rebuild** — after 1 of N APIs drifts, ``ApiPerformanceModel.splice``
  recompiles only that API's fragments, versus building a fresh model and
  compiling everything from scratch.  Bar: splice at least ``SPLICE_SPEEDUP_BAR``x
  faster, with every compiled array bitwise identical to the from-scratch build.

Both bars append to the ``BENCH_warm_path.json`` ledger (headline:
``splice_speedup``) rendered and gated by ``benchmarks/report.py``.
"""

import dataclasses
import gc
import time

import numpy as np

from _shared import (
    BENCH_WARM_PATH_PATH,
    fused_testbed,
    persist_run_metrics,
    run_once,
)

from repro.analysis import format_table
from repro.quality.performance import ApiPerformanceModel
from repro.recommend import AdvisorService, Atlas

#: Required speedup of a memo-hit recommend over the cold compile + search.
WARM_SPEEDUP_BAR = 5.0
#: Required speedup of splicing 1 of N APIs over a from-scratch model rebuild.
SPLICE_SPEEDUP_BAR = 3.0
#: Interleaved timing trials for the splice bar; each arm scored by its best trial.
SPLICE_TRIALS = 5


def _perturb(trace, scale):
    """The same trace with all timings scaled — genuinely new content, same shape."""
    spans = [
        dataclasses.replace(
            span, start_ms=span.start_ms * scale, duration_ms=span.duration_ms * scale
        )
        for span in trace.spans
    ]
    return trace.with_spans(spans)


def _fresh_model(testbed, traces_by_api):
    """A cold performance model over the given traces (no artifact cache)."""
    knowledge = testbed.atlas.knowledge
    return ApiPerformanceModel(
        traces_by_api=traces_by_api,
        footprint=knowledge.footprint,
        network=testbed.atlas.network,
        baseline_plan=testbed.atlas.current_plan,
        traces_per_api=testbed.atlas.config.traces_per_api,
    )


def _compile_all(model):
    """Force every lazily-compiled per-API trace set."""
    for api in model.apis:
        model._compiled_set(api)


def _front_payload(recommendation):
    """Plan vectors + repr-exact objective vectors of the recommended front."""
    return [
        (quality.plan.to_vector(), [repr(v) for v in quality.objectives()])
        for quality in recommendation.plans
    ]


def _program_arrays(program):
    """Every float/index array of a compiled trace set, in deterministic order."""
    arrays = [program._root_idx, program._root_start]
    for level in program._levels:
        for slot in level.__slots__:
            value = getattr(level, slot)
            if isinstance(value, np.ndarray):
                arrays.append(value)
    return arrays


def test_warm_path(benchmark):
    testbed = fused_testbed()
    atlas = testbed.atlas
    kwargs = dict(expected_scale=testbed.expected_scale)

    def measure():
        service = AdvisorService()
        start = time.perf_counter()
        cold_rec = service.recommend(atlas, **kwargs)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        warm_rec = service.recommend(atlas, **kwargs)
        warm_s = time.perf_counter() - start

        # A second tenant: a fresh Atlas learned from the same telemetry must hit
        # the same memo entry — the keys are content fingerprints, not object ids.
        tenant = Atlas(
            atlas.application,
            atlas.preferences,
            network=atlas.network,
            config=atlas.config,
            current_plan=atlas.current_plan,
            cluster=atlas.cluster,
        )
        tenant.learn(testbed.telemetry)
        start = time.perf_counter()
        tenant_rec = service.recommend(tenant, **kwargs)
        tenant_s = time.perf_counter() - start

        # Splice bar: 1 of N APIs gets a re-profiled trace window.  Each trial
        # perturbs by a different factor so the spliced content is genuinely new,
        # and both arms end on identical traces for the bitwise comparison.
        base_traces = {
            api: list(profile.sample_traces)
            for api, profile in atlas.knowledge.api_profiles.items()
        }
        # The drifted API: the median-sized one (by span count), deterministically —
        # "1 of N APIs" means a typical API, not the largest or smallest outlier.
        by_size = sorted(
            base_traces, key=lambda a: (sum(len(t.spans) for t in base_traces[a]), a)
        )
        target = by_size[len(by_size) // 2]
        splice_s = float("inf")
        rebuild_s = float("inf")
        spliced_model = None
        rebuilt_model = None
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for trial in range(SPLICE_TRIALS):
                scale = 1.01 + 0.01 * trial
                fresh = [_perturb(t, scale) for t in base_traces[target]]
                new_traces = dict(base_traces)
                new_traces[target] = fresh

                warm_model = _fresh_model(testbed, base_traces)
                _compile_all(warm_model)
                start = time.perf_counter()
                warm_model.splice({target: fresh})
                _compile_all(warm_model)
                splice_s = min(splice_s, time.perf_counter() - start)

                start = time.perf_counter()
                cold_model = _fresh_model(testbed, new_traces)
                _compile_all(cold_model)
                rebuild_s = min(rebuild_s, time.perf_counter() - start)
                spliced_model, rebuilt_model = warm_model, cold_model
        finally:
            if gc_was_enabled:
                gc.enable()

        # Bitwise contract: the spliced model's compiled arrays equal the
        # from-scratch build of the same final traces, byte for byte.
        bitwise = True
        for api in spliced_model.apis:
            a, b = spliced_model._compiled_set(api), rebuilt_model._compiled_set(api)
            for left, right in zip(_program_arrays(a), _program_arrays(b)):
                if left.tobytes() != right.tobytes():
                    bitwise = False

        return {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "tenant_s": tenant_s,
            "splice_s": splice_s,
            "rebuild_s": rebuild_s,
            "bitwise": bitwise,
            "engine": cold_rec.evaluator.performance.engine,
            "apis": len(base_traces),
            "target": target,
            "cold_front": _front_payload(cold_rec),
            "warm_front": _front_payload(warm_rec),
            "tenant_front": _front_payload(tenant_rec),
            "stats": service.stats(),
        }

    result = run_once(benchmark, measure)
    warm_speedup = result["cold_s"] / result["warm_s"]
    tenant_speedup = result["cold_s"] / result["tenant_s"]
    splice_speedup = result["rebuild_s"] / result["splice_s"]
    rows = [
        {
            "path": "cold recommend (compile + search)",
            "seconds": round(result["cold_s"], 4),
            "speedup": "1.00x",
        },
        {
            "path": "warm recommend (memo hit)",
            "seconds": round(result["warm_s"], 4),
            "speedup": f"{warm_speedup:.0f}x",
        },
        {
            "path": "warm recommend (second tenant)",
            "seconds": round(result["tenant_s"], 4),
            "speedup": f"{tenant_speedup:.0f}x",
        },
        {
            "path": f"full rebuild ({result['apis']} APIs)",
            "seconds": round(result["rebuild_s"], 4),
            "speedup": "1.00x",
        },
        {
            "path": f"splice (1 API: {result['target']})",
            "seconds": round(result["splice_s"], 4),
            "speedup": f"{splice_speedup:.1f}x",
        },
    ]
    print()
    print(format_table(rows, title="Warm-path serving (3-site social network)"))
    print(
        f"artifact cache: {result['stats']['artifacts']}, "
        f"request memo: {result['stats']['recommendations']}"
    )
    persist_run_metrics(
        "warm_path",
        {
            "engine": result["engine"],
            # Earlier ledger rows spliced/rebuilt a model that also carried the
            # since-removed cross-API program; the mode tag keeps the trends apart
            # (see report.py: bench[mode] grouping).
            "mode": "per-api",
            "apis": result["apis"],
            "spliced_apis": 1,
            "spliced_api": result["target"],
            "cold_recommend_s": round(result["cold_s"], 4),
            "warm_recommend_s": round(result["warm_s"], 6),
            "tenant_recommend_s": round(result["tenant_s"], 6),
            "warm_speedup": round(warm_speedup, 1),
            "full_rebuild_s": round(result["rebuild_s"], 4),
            "splice_s": round(result["splice_s"], 4),
            "splice_speedup": round(splice_speedup, 2),
        },
        path=BENCH_WARM_PATH_PATH,
    )
    # Warm answers are the cold answer: identical fronts, for both memo hits.
    assert result["warm_front"] == result["cold_front"]
    assert result["tenant_front"] == result["cold_front"]
    assert result["stats"]["recommendations"]["hits"] >= 2
    # Splice is a rebuild, not an approximation.
    assert result["bitwise"], "spliced arrays differ from the from-scratch build"
    assert warm_speedup >= WARM_SPEEDUP_BAR, (
        f"warm recommend speedup {warm_speedup:.1f}x is below the "
        f"{WARM_SPEEDUP_BAR}x bar"
    )
    assert splice_speedup >= SPLICE_SPEEDUP_BAR, (
        f"splice speedup {splice_speedup:.2f}x is below the {SPLICE_SPEEDUP_BAR}x bar"
    )
