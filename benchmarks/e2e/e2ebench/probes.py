"""Probe metrics: direct timed calls into one layer on seeded inputs.

A span share says how much of an operation a layer took; a probe says how fast
the layer's unit of work is on its own.  Every workload's traced run takes the
same probes on its own learned testbed, so each probe has a value on every
workload.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict

from repro.analysis.testbed import Testbed
from repro.monitoring.drift import DriftDetector
from repro.optimizer import penalized_objectives
from repro.optimizer.nsga2 import rank_population, survival_selection
from repro.quality.problem import PlacementProblem
from repro.serving import ArtifactStore

from . import inputs
from .hostspeed import HostSpeed
from .stats import median

#: Rows of the batched scoring probe (distinct, uncached) and its scenario count.
BATCH_PLANS = 1_200
#: Calls of the small-call probe, three uncached rows each: what ``reward`` pays.
SMALL_CALLS = 300


def run_probes(testbed: Testbed, seed: int, workdir: Path, speed: HostSpeed) -> Dict[str, float]:
    def _timed_ms(function: Callable[[int], object], repeats: int = 1) -> float:
        """Median wall-clock of ``function(0..repeats-1)``, in milliseconds.

        Without the sampler's slices, but as the host ran: a probe is too short
        to have a slowdown of its own.
        """
        calls = [speed.timed(function, index) for index in range(repeats)]
        return median([call.seconds + call.waited for call in calls]) * 1e3

    atlas = testbed.atlas
    components = testbed.application.component_names
    scale = testbed.expected_scale
    vectors = inputs.reference_vectors(testbed, seed + 1, BATCH_PLANS + 1)
    metrics: Dict[str, float] = {}

    metrics["learning.learn_ms"] = _timed_ms(
        lambda _: inputs.fresh_atlas(testbed), repeats=3
    )

    # quality: compile on first score, then per-call and per-row costs.
    metrics["quality.compile_ms"] = _timed_ms(
        lambda _: atlas.build_evaluator(expected_scale=scale).evaluate_vectors(
            vectors[:1], components
        ),
        repeats=3,
    )
    evaluator = atlas.build_evaluator(expected_scale=scale)
    evaluator.evaluate_vectors(vectors[:3], components)
    metrics["quality.score_small_call_ms"] = _timed_ms(
        lambda i: evaluator.evaluate_vectors(vectors[3 + 3 * i : 6 + 3 * i], components),
        repeats=SMALL_CALLS,
    )
    robust = atlas.build_evaluator(
        expected_scale=1.0,
        problem=PlacementProblem.default(
            testbed.preferences, scenarios=inputs.scenario_set()
        ),
    )
    robust.evaluate_vectors(vectors[:1], components)
    batch_ms = _timed_ms(lambda _: robust.evaluate_vectors(vectors[1:], components))
    metrics["quality.score_batch_plans_per_s"] = BATCH_PLANS / (batch_ms / 1e3)

    api = sorted(atlas.knowledge.api_profiles)[0]
    traces = atlas.knowledge.api_profiles[api].sample_traces
    windows = [[inputs.perturb_trace(t, 1.1 + 0.1 * i) for t in traces] for i in range(3)]
    metrics["quality.splice_ms"] = _timed_ms(
        lambda i: evaluator.splice({api: windows[i]}), repeats=3
    )
    # Splicing mutated this evaluator; certify a fresh one so the probe is the
    # adversary's cost on the learned model.
    evaluator = atlas.build_evaluator(expected_scale=scale)
    scored = evaluator.evaluate_vectors(vectors[: inputs.REFERENCE_PLANS], components)
    feasible = [quality for quality in scored if quality.feasible]
    plan = (feasible or scored)[0].plan
    metrics["quality.certify_ms"] = _timed_ms(
        lambda _: atlas.certify_plan(evaluator, plan, budget=24)
    )

    # optimizer: one ranking of a population, one survival selection of parents + offspring.
    rows = [penalized_objectives(quality) for quality in scored]
    metrics["optimizer.rank_ms"] = _timed_ms(lambda _: rank_population(rows[:60]), repeats=5)
    metrics["optimizer.survival_ms"] = _timed_ms(
        lambda _: survival_selection(rows[:90], 60), repeats=5
    )

    # monitoring: one drift check of every API against on-model samples.
    preview = {
        name: [float(x) for x in estimate.estimated_latencies_ms]
        for name, estimate in evaluator.performance.estimate_all(plan).items()
    }
    detector = DriftDetector(approx_latencies=preview, real_latencies=preview)
    metrics["monitoring.drift_check_ms"] = _timed_ms(
        lambda _: detector.check_all(preview), repeats=10
    )

    # serving: publish and read back one artifact, publish one checkpoint.
    store = ArtifactStore(workdir / "probe-store")
    metrics["serving.store_save_ms"] = _timed_ms(
        lambda i: store.save(("probe", i), scored), repeats=10
    )
    metrics["serving.store_load_ms"] = _timed_ms(
        lambda i: store.load(("probe", i)), repeats=10
    )
    checkpoint = {"version": 1, "tenants": {"probe": {"detector": detector.state()}}}
    metrics["serving.checkpoint_ms"] = _timed_ms(
        lambda _: store.save_state("probe", checkpoint), repeats=10
    )
    return metrics
