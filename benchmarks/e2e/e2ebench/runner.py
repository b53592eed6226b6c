"""One workload, one process: set up, measure for a fixed time, verify, report.

``run_workload`` is what ``run.py --workload`` executes.  With tracing off it
yields the end-to-end metrics; with tracing on it alternates untraced and traced
rounds of operations (so both see the same machine state), and yields the
per-layer metrics: span shares, counters, probes and the tracing overhead.

Every reported time is processor time divided by the factor the host was slowed
down by while it was taken (``hostspeed``); the wall-clock distribution as it ran
is reported beside it as ``op.median_ms``, ``op.tail_ms`` and ``op.wait_ms``.
"""

from __future__ import annotations

import gc
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.serving import ArtifactStore

from . import inputs, layers, probes, stats, workloads
from .hostspeed import HostSpeed, Window
from .tracing import Instrumentation, OperationProfile, Tracer, profile_operations

#: Testbeds built per run; ``setup_s`` takes the median build.
SETUP_REPEATS = 3


@dataclass
class Block:
    """Operations timed back to back between two ``gc.collect()``."""

    #: Processor seconds per operation, the sampler's slices inside it taken out.
    samples: List[float]
    #: Seconds each operation spent off the processor.
    waits: List[float]
    #: What the sampler saw while those operations ran.
    window: Window


#: Samples of one leg of a run.
Blocks = List[Block]


def wall_seconds(blocks: Blocks) -> List[float]:
    """Wall-clock seconds of every operation as it ran (without the sampler's slices)."""
    return [used + waited for b in blocks for used, waited in zip(b.samples, b.waits)]


def wait_seconds(blocks: Blocks) -> List[float]:
    return [waited for block in blocks for waited in block.waits]


def host_slowdown(blocks: Blocks) -> float:
    """Factor by which the host slowed the leg's operations down, over the whole run."""
    return sum((block.window for block in blocks), Window()).slowdown or 1.0


def latency(blocks: Blocks) -> float:
    """Processor seconds per operation on the quiet host: median over blocks of mean / slowdown.

    The mean within a block, because the slowdown is a mean over the block too;
    the median across blocks, because a run holds one block per distinct input
    when an operation takes seconds.  A block too short to hold enough slices
    takes the slowdown of the whole leg.
    """
    whole = host_slowdown(blocks)
    return stats.median(
        [
            sum(block.samples) / len(block.samples) / (block.window.slowdown or whole)
            for block in blocks
        ]
    )


@dataclass
class Measurement:
    """Everything one run observed; ``run.py`` turns it into the result line."""

    setup: Dict[str, float]
    #: leg key ("op", "op2") -> untraced and traced samples.
    plain: Dict[str, Blocks]
    traced_blocks: Dict[str, Blocks]
    failures: List[Tuple[str, int, List[str]]]
    attempted: int
    #: Peak resident set after the first round (one block of each leg, verified):
    #: a fixed amount of work however fast the host runs.
    peak_rss_mb: float
    front_sha: Optional[str]
    front_size: int
    front_hv: float
    per_layer: Dict[str, float] = field(default_factory=dict)
    profiles: Dict[str, List[OperationProfile]] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return sum(self.setup.values())

    def end_to_end(self) -> Dict[str, float]:
        return {
            "op_latency_ms": latency(self.plain["op"]) * 1e3,
            "op2_latency_ms": latency(self.plain["op2"]) * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": self.setup_s,
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(
    workload, seconds: float, speed: HostSpeed, instrumentation: Optional[Instrumentation]
):
    """Closed loop, one client: rounds of one block per leg until ``seconds`` have passed.

    ``gc.collect()`` runs between blocks, outside the timed region; the collector
    stays enabled inside it.  In a traced run odd rounds are traced, and at
    least one round of each kind runs however long an operation takes.
    """
    clock = time.perf_counter
    tracer = instrumentation.tracer if instrumentation else None
    legs = workload.legs()
    plain: Dict[str, Blocks] = {leg.key: [] for leg in legs}
    traced: Dict[str, Blocks] = {leg.key: [] for leg in legs}
    done = {leg.key: 0 for leg in legs}
    failures: List[Tuple[str, int, List[str]]] = []
    first_round_rss = 0.0
    rounds = 0
    started = clock()
    while clock() - started < seconds or (tracer is not None and rounds < 2):
        tracing = tracer is not None and rounds % 2 == 1
        for leg in legs:
            block = Block([], [], Window())
            gc.collect()
            if tracing:
                instrumentation.install()
            try:
                for _ in range(leg.block):
                    index = done[leg.key]
                    leg.prepare(index)
                    root = tracer.begin_operation(leg.key) if tracing else None
                    call = speed.timed(leg.operation, index)
                    if root is not None:
                        tracer.end(root)
                    block.samples.append(call.seconds)
                    block.waits.append(call.waited)
                    block.window += call.window
                    defects = leg.check(index, call.result)
                    if defects:
                        failures.append((leg.key, index, defects))
                    done[leg.key] = index + 1
            finally:
                if tracing:
                    instrumentation.restore()
            (traced if tracing else plain)[leg.key].append(block)
        if rounds == 0:
            first_round_rss = _peak_rss_mb()
        rounds += 1
    return plain, traced, failures, sum(done.values()), first_round_rss


def _service_counters(workload) -> Dict[str, float]:
    """Tier hits of the services the workload used, and the store's footprint."""
    names = (
        "memo_hits", "memo_misses", "memo_hit_ratio", "journal_hits", "journal_misses",
        "artifact_hits", "artifact_misses", "store_hits", "store_objects", "store_mb",
    )
    counters = {f"serving.{name}": 0.0 for name in names}
    for served in workload.service_stats():
        memo, artifacts = served["recommendations"], served["artifacts"]
        journal = served.get("journal", {"hits": 0, "misses": 0})
        counters["serving.memo_hits"] += memo["hits"]
        counters["serving.memo_misses"] += memo["misses"]
        counters["serving.journal_hits"] += journal["hits"]
        counters["serving.journal_misses"] += journal["misses"]
        counters["serving.artifact_hits"] += artifacts["hits"]
        counters["serving.artifact_misses"] += artifacts["misses"]
        counters["serving.store_hits"] += artifacts.get("store_hits", 0)
    requests = counters["serving.memo_hits"] + counters["serving.memo_misses"]
    if requests:
        counters["serving.memo_hit_ratio"] = counters["serving.memo_hits"] / requests
    root = workload.store_root()
    if root.is_dir():
        files = [path for path in root.rglob("*") if path.is_file()]
        counters["serving.store_objects"] = len(ArtifactStore(root))
        counters["serving.store_mb"] = sum(path.stat().st_size for path in files) / 1e6
    return counters


def _front_quality(workload, testbed, seed: int) -> Tuple[Optional[str], int, float]:
    """Digest, size and normalised hypervolume of the first timed answer's front.

    The unit box is the ideal/nadir of a seeded plan sample scored on the
    originally learned advisor under what the answer was scored under.
    """
    answer = workload.first_answer
    if answer is None:
        return None, 0, 0.0
    evaluator = testbed.atlas.build_evaluator(**workload.first_kwargs)
    sample = evaluator.evaluate_vectors(
        inputs.reference_vectors(testbed, seed), testbed.application.component_names
    )
    ideal, nadir = stats.objective_box([quality.objectives() for quality in sample])
    rows = [quality.objectives() for quality in answer.plans]
    return workloads.front_sha(answer), len(rows), stats.normalized_hypervolume(rows, ideal, nadir)


def _as_it_ran(prefix: str, blocks: Blocks) -> Dict[str, float]:
    """The leg's wall clock over the whole run, as the host ran it."""
    samples = wall_seconds(blocks)
    tail_pct, tail = stats.tail_percentile(samples)
    return {
        f"{prefix}.median_ms": stats.median(samples) * 1e3,
        f"{prefix}.tail_ms": tail * 1e3,
        f"{prefix}.tail_pct": tail_pct,
        f"{prefix}.samples": len(samples),
        f"{prefix}.wait_ms": stats.median(wait_seconds(blocks)) * 1e3,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    workdir: Path,
    speed: HostSpeed,
    import_s: float,
    quick: bool = False,
) -> Measurement:
    """Set up ``name`` for ``seed``, measure it for ``seconds`` and verify every output.

    ``speed`` is the running host-speed sampler.  ``import_s`` is what importing
    this package (numpy and ``repro`` with it) took; the caller measures it
    because it happens before this module exists.
    """
    setup: Dict[str, float] = {"import_s": import_s}

    def set_up(function: Callable[..., object], *args) -> Tuple[object, float]:
        call = speed.timed(function, *args)
        return call.result, call.seconds / (call.window.slowdown or 1.0)

    builds: List[float] = []
    for _ in range(SETUP_REPEATS):
        testbed, build_s = set_up(inputs.build, seed, quick)
        builds.append(build_s)
    setup["build_s"] = stats.median(builds)

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](testbed, seed, workdir, vary_searches=not traced)
        _, setup["populate_s"] = set_up(workload.populate)
        _, setup["warm_up_s"] = set_up(workload.warm_up)

        tracer = Tracer()
        instrumentation = Instrumentation(tracer, layers.SPAN_TARGETS) if traced else None
        plain, traced_blocks, failures, attempted, first_round_rss = _measure(
            workload, seconds, speed, instrumentation
        )
        end_rss = _peak_rss_mb()

        sha, size, hypervolume = _front_quality(workload, testbed, seed)
        measurement = Measurement(
            setup=setup,
            plain=plain,
            traced_blocks=traced_blocks,
            failures=failures,
            attempted=attempted,
            peak_rss_mb=first_round_rss,
            front_sha=sha,
            front_size=size,
            front_hv=hypervolume,
        )
        if traced:
            by_leg: Dict[str, List[OperationProfile]] = {"op": [], "op2": []}
            for profile in profile_operations(tracer.spans):
                by_leg[profile.name].append(profile)
            measurement.profiles = by_leg
            measurement.spans = [span.as_record() for span in tracer.spans]
            plain_ms = latency(plain["op"]) * 1e3
            traced_ms = latency(traced_blocks["op"]) * 1e3
            measurement.per_layer = {
                **layers.span_metrics(by_leg["op"]),
                **layers.op2_metrics(by_leg["op2"]),
                **_service_counters(workload),
                **probes.run_probes(testbed, seed, workdir, speed),
                **_as_it_ran("op", plain["op"]),
                **_as_it_ran("op2", plain["op2"]),
                "op.rss_growth_mb": end_rss - first_round_rss,
                "recommend.front_hv": hypervolume,
                "recommend.front_size": size,
                "host.slowdown": host_slowdown(plain["op"] + plain["op2"]),
                "trace.op_latency_ms": traced_ms,
                "trace.overhead_pct": 100.0 * (traced_ms / plain_ms - 1.0),
            }
        return measurement
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
