"""Layer boundaries of ``repro`` the traced run records, and the metrics they yield.

A layer is a ``src/repro`` package.  The span name's prefix is the layer the
callable belongs to.  The objective and constraint plugins are wrapped instead
of ``qperf_batch``/``qcost_batch``/``qavai_batch`` because the scenario-robust
path scores QPerf without going through ``qperf_batch``; the plugin boundary
covers both paths.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .tracing import OperationProfile, Span, Target

_ADVISOR = "repro.recommend.advisor:"
_GA = "repro.optimizer.atlas_ga:AtlasGA."
_EVALUATOR = "repro.quality.evaluator:QualityEvaluator."
_PROBLEM = "repro.quality.problem:"
_STORE = "repro.serving.store:ArtifactStore."


def _evaluate_before(span: Span, evaluator, args, kwargs) -> None:
    span.counts["requested"] = len(args[0]) if args else len(kwargs.get("vectors", ()))
    span.counts["scored"] = -evaluator.evaluations


def _evaluate_after(span: Span, evaluator, result) -> None:
    span.counts["scored"] += evaluator.evaluations


def _search_after(span: Span, ga, result) -> None:
    span.counts["generations"] = result.generations
    span.counts["evaluations"] = result.evaluations


def _certify_after(span: Span, atlas, certificate) -> None:
    if certificate is not None:
        span.counts["probes"] = certificate.budget_spent


SPAN_TARGETS: List[Target] = [
    Target("learning.learn", _ADVISOR + "Atlas.learn"),
    Target("recommend.build_evaluator", _ADVISOR + "Atlas.build_evaluator"),
    Target("recommend.recommend", _ADVISOR + "Atlas.recommend"),
    Target("quality.certify", _ADVISOR + "Atlas.certify_plan", after=_certify_after),
    Target("quality.recertify", _ADVISOR + "Atlas.recertify"),
    Target("serving.request", _ADVISOR + "AdvisorService.recommend"),
    Target("optimizer.search", _GA + "run", after=_search_after),
    Target("optimizer.train_agent", _GA + "train_agent"),
    Target("optimizer.reward", _GA + "reward"),
    Target("quality.evaluate", _EVALUATOR + "evaluate_vectors", _evaluate_before, _evaluate_after),
    Target("quality.evaluate", _EVALUATOR + "evaluate_batch", _evaluate_before, _evaluate_after),
    Target("quality.qperf", _PROBLEM + "QPerfObjective.score_matrix"),
    Target("quality.qavai", _PROBLEM + "QAvaiObjective.score_matrix"),
    Target("quality.qcost", _PROBLEM + "QCostObjective.score_matrix"),
    Target("quality.constraints", _PROBLEM + "PinnedPlacementConstraint.check"),
    Target("quality.constraints", _PROBLEM + "AllowedLocationsConstraint.check"),
    Target("quality.constraints", _PROBLEM + "OnPremPeakConstraint.check"),
    Target("quality.constraints", _PROBLEM + "BudgetConstraint.check"),
    Target("quality.splice", "repro.quality.performance:ApiPerformanceModel.splice"),
    Target("quality.preview", _ADVISOR + "Recommendation.latency_preview"),
    Target("serving.store_save", _STORE + "save"),
    Target("serving.store_load", _STORE + "load"),
    Target("serving.checkpoint", _STORE + "save_state"),
    Target("serving.daemon_cycle", "repro.serving.daemon:AdvisorDaemon.run_cycle"),
    Target("monitoring.drift_check", "repro.monitoring.drift:DriftDetector.check_all"),
    # The monitoring plane is the harness's own; its poll is a stage of the cycle.
    Target("monitoring.poll", "e2ebench.workloads:PreparedMonitor.poll"),
]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class _Shares:
    """Means over the traced operations of one leg of one run.

    Shares are percentages of the operation's wall clock; counts are per operation.
    """

    def __init__(self, profiles: Sequence[OperationProfile]) -> None:
        self.profiles = profiles

    def busy(self, name: str) -> float:
        return _mean([100.0 * p.busy.get(name, 0.0) / p.wall for p in self.profiles])

    def own(self, name: str) -> float:
        return _mean([100.0 * p.self_time.get(name, 0.0) / p.wall for p in self.profiles])

    def calls(self, name: str) -> float:
        return _mean([p.calls.get(name, 0) for p in self.profiles])

    def count(self, name: str) -> float:
        return _mean([p.counts.get(name, 0.0) for p in self.profiles])

    def coverage(self) -> float:
        return _mean([100.0 * p.coverage for p in self.profiles])


def span_metrics(profiles: Sequence[OperationProfile]) -> Dict[str, float]:
    """Per-layer span metrics of a workload's ``op``."""
    op = _Shares(profiles)
    requested = op.count("quality.evaluate.requested")
    scored = op.count("quality.evaluate.scored")
    return {
        "quality.evaluate_busy_pct": op.busy("quality.evaluate"),
        "quality.evaluate_self_pct": op.own("quality.evaluate"),
        "quality.qperf_busy_pct": op.busy("quality.qperf"),
        "quality.qcost_busy_pct": op.busy("quality.qcost"),
        "quality.qavai_busy_pct": op.busy("quality.qavai"),
        "quality.constraints_busy_pct": op.busy("quality.constraints"),
        # Includes the certify_plan a recertify runs inside itself.
        "quality.certify_busy_pct": op.busy("quality.certify"),
        "quality.splice_busy_pct": op.busy("quality.splice"),
        "quality.evaluate_calls": op.calls("quality.evaluate"),
        "quality.plans_requested": requested,
        "quality.plans_scored": scored,
        "quality.dedup_ratio": scored / requested if requested else 0.0,
        "quality.certify_probes": op.count("quality.certify.probes"),
        "optimizer.search_busy_pct": op.busy("optimizer.search"),
        "optimizer.train_agent_busy_pct": op.busy("optimizer.train_agent"),
        # run minus train_agent and evaluate children: rank + select + variation.
        "optimizer.search_self_pct": op.own("optimizer.search"),
        "optimizer.reward_calls": op.calls("optimizer.reward"),
        "optimizer.generations": op.count("optimizer.search.generations"),
        "optimizer.evaluations": op.count("optimizer.search.evaluations"),
        "recommend.self_pct": op.own("recommend.recommend"),
        "recommend.build_evaluator_busy_pct": op.busy("recommend.build_evaluator"),
        "serving.request_busy_pct": op.busy("serving.request"),
        "serving.request_self_pct": op.own("serving.request"),
        "serving.store_save_busy_pct": op.busy("serving.store_save"),
        "serving.checkpoint_busy_pct": op.busy("serving.checkpoint"),
        "serving.daemon_self_pct": op.own("serving.daemon_cycle"),
        "serving.store_saves": op.calls("serving.store_save"),
        "serving.checkpoints": op.calls("serving.checkpoint"),
        "monitoring.drift_check_busy_pct": op.busy("monitoring.drift_check"),
        "monitoring.poll_busy_pct": op.busy("monitoring.poll"),
        "trace.coverage_pct": op.coverage(),
        "trace.spans_per_op": _mean([sum(p.calls.values()) for p in profiles]),
    }


def op2_metrics(profiles: Sequence[OperationProfile]) -> Dict[str, float]:
    """Where a workload's ``op2`` (learn, restart, quiet cycle) spends its time."""
    op2 = _Shares(profiles)
    return {
        "op2.learn_busy_pct": op2.busy("learning.learn"),
        # A restart's request is a journal revive: no search beneath it.
        "op2.request_self_pct": op2.own("serving.request"),
        "op2.store_load_busy_pct": op2.busy("serving.store_load"),
        "op2.store_loads": op2.calls("serving.store_load"),
        "op2.preview_busy_pct": op2.busy("quality.preview"),
        "op2.daemon_self_pct": op2.own("serving.daemon_cycle"),
        "op2.checkpoint_busy_pct": op2.busy("serving.checkpoint"),
        "op2.drift_check_busy_pct": op2.busy("monitoring.drift_check"),
        "op2.poll_busy_pct": op2.busy("monitoring.poll"),
        "op2.coverage_pct": op2.coverage(),
    }
