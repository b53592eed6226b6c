"""Kill-and-restart smoke for the :class:`~repro.serving.daemon.AdvisorDaemon` (CI gate).

The daemon's durability contract: killed right after *any* document it publishes
— or between a poll and the first document of its cycle, where nothing is on disk
yet — a fresh process constructed over the same artifact store lands on the
**bitwise-identical** recommendation front an uninterrupted run produces.  This
script proves it with real processes:

* **child mode** (``--child --store DIR [--kill-after POINT]``) builds a fully
  deterministic three-cycle daemon world (tiny 6-component app, seeded telemetry,
  seeded search, scripted monitor: on model, one API drifting, on model again)
  over ``DIR`` and runs cycles to completion; with ``--kill-after`` it dies via
  ``os._exit`` in cycle 2 — right after that stage's checkpoint, or, for ``poll``
  (which publishes nothing), right after the monitor answered — no cleanup, no
  flushing, a real crash.
* **check mode** (``--check``, the default) runs the uninterrupted child on store
  A next to a chain of three children on store B: killed between the poll and the
  first publish of cycle 2, restarted (it must poll cycle 2 again) and killed
  after the splice checkpoint, restarted and run to the end.  It asserts the
  resumed front sha equals the uninterrupted one, that the resumed cycle 2
  *reused* the crossover agent the uninterrupted run recorded (same content
  digest — loaded from the store, not trained again) and re-planned from the
  front cycle 1 served (read back from its store object), that the resumed compile
  streamed artifacts from the store, that — from a spy on the store's publish —
  the on-model cycle 3 published one document and no sample, and that what a
  daemon leaves behind is one state document per tenant and no monitor sample of
  a finished cycle.

Usage::

    PYTHONPATH=src python benchmarks/serving_daemon_smoke.py --check
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional

#: Exit code the killed child dies with (distinguishes the scripted crash from bugs).
KILL_EXIT = 17
#: Where the children on store B die in cycle 2, in turn: between the poll and the
#: first publish (no document names the cycle: it is polled again), then after the
#: splice checkpoint (drift detected, traces spliced, the re-recommend still
#: pending — the most state-laden crash point).
KILL_POINTS = ("poll", "splice")
#: Tenant name used by every child.
TENANT = "web"


def _tiny_app():
    """A 6-component, 2-API application (mirrors the test suite's tiny app)."""
    from repro.apps import (
        ApiEndpoint,
        Application,
        CallNode,
        Component,
        ExecutionMode,
        PayloadSpec,
        ResourceProfile,
    )

    service = ResourceProfile(
        cpu_millicores_idle=10.0,
        cpu_millicores_per_rps=5.0,
        memory_mb_idle=32.0,
        memory_mb_per_rps=0.2,
    )
    db = ResourceProfile(
        cpu_millicores_idle=20.0,
        cpu_millicores_per_rps=8.0,
        memory_mb_idle=128.0,
        memory_mb_per_rps=0.4,
        storage_gb=10.0,
    )
    components = [
        Component("Frontend", resources=service),
        Component("ServiceA", resources=service),
        Component("ServiceB", resources=service),
        Component("Cache", resources=service),
        Component("Database", stateful=True, resources=db),
        Component("Notifier", resources=service),
    ]
    cache = CallNode("Cache", "Get", work_ms=0.4, payload=PayloadSpec(100.0, 900.0))
    database = CallNode("Database", "Find", work_ms=1.5, payload=PayloadSpec(150.0, 1_200.0))
    notifier = CallNode("Notifier", "LogAccess", work_ms=25.0, payload=PayloadSpec(80.0, 10.0))
    service_a = CallNode("ServiceA", "Read", work_ms=1.0, payload=PayloadSpec(200.0, 1_500.0))
    service_a.call(cache, ExecutionMode.PARALLEL, gap_ms=0.1)
    service_a.call(database, ExecutionMode.PARALLEL, gap_ms=0.1)
    service_a.call(notifier, ExecutionMode.BACKGROUND, gap_ms=0.1)
    read_root = CallNode("Frontend", "/read", work_ms=0.8, payload=PayloadSpec(300.0, 2_000.0))
    read_root.call(service_a, ExecutionMode.SEQUENTIAL, gap_ms=0.2)

    database_w = CallNode("Database", "Insert", work_ms=2.0, payload=PayloadSpec(800.0, 60.0))
    cache_w = CallNode("Cache", "Invalidate", work_ms=8.0, payload=PayloadSpec(120.0, 10.0))
    service_b = CallNode("ServiceB", "Write", work_ms=1.2, payload=PayloadSpec(900.0, 100.0))
    service_b.call(database_w, ExecutionMode.SEQUENTIAL, gap_ms=0.2)
    service_b.call(cache_w, ExecutionMode.BACKGROUND, gap_ms=0.1)
    write_root = CallNode("Frontend", "/write", work_ms=0.7, payload=PayloadSpec(1_000.0, 150.0))
    write_root.call(service_b, ExecutionMode.SEQUENTIAL, gap_ms=0.2)

    apis = [
        ApiEndpoint("/read", read_root, weight=0.7),
        ApiEndpoint("/write", write_root, weight=0.3),
    ]
    return Application("tiny-app", components, apis)


def _perturb(trace, scale):
    spans = [
        dataclasses.replace(
            span, start_ms=span.start_ms * scale, duration_ms=span.duration_ms * scale
        )
        for span in trace.spans
    ]
    return trace.with_spans(spans)


def _build_daemon(store_dir: str):
    """The deterministic daemon world every child process constructs identically.

    Telemetry, learning and the search are all seeded; the monitor script is
    derived from the advisor's own latency preview (cycle 1 on-model, cycle 2
    one API drifting 6x with a re-profiled trace window, cycle 3 on model again)
    — so any process over any store observes the same samples and computes the
    same answers.
    """
    from repro.optimizer import GAConfig
    from repro.quality import MigrationPreferences
    from repro.recommend import AdvisorService, Atlas, AtlasConfig
    from repro.serving import AdvisorDaemon, ArtifactStore, MonitorSample, ScriptedMonitor
    from repro.simulator import simulate_workload
    from repro.workload import WorkloadGenerator, default_scenario

    app = _tiny_app()
    scenario = default_scenario(app, base_rps=20.0, peak_rps=30.0, duration_ms=60_000.0)
    requests = WorkloadGenerator(app, scenario, seed=3).generate(60_000.0)
    telemetry = simulate_workload(app, requests, seed=3).telemetry
    atlas = Atlas(
        app,
        MigrationPreferences.pin_on_prem(["Database"]),
        config=AtlasConfig(
            traces_per_api=15,
            ga=GAConfig(
                population_size=12,
                offspring_per_generation=6,
                evaluation_budget=120,
                train_iterations=8,
                train_batch_size=2,
                train_pairs=6,
                seed=7,
            ),
        ),
    )
    atlas.learn(telemetry)
    service = AdvisorService(store=ArtifactStore(store_dir))

    # The scripted samples: cycle 1 reports exactly the advisor's preview of its
    # own knee plan (zero-divergence baselines), cycle 2 inflates one API 6x.
    # This recommend shares the daemon tenant's memo key, so it costs nothing
    # extra at bootstrap and revives from the journal in resumed processes.
    recommendation = service.recommend(atlas, expected_scale=2.0)
    knee = recommendation.knee_point().plan
    preview = {
        api: [float(x) for x in estimate.estimated_latencies_ms]
        for api, estimate in recommendation.latency_preview(knee).items()
    }
    target = sorted(preview)[0]
    drifted = {
        api: ([v * 6.0 + 25.0 for v in values] if api == target else list(values))
        for api, values in preview.items()
    }
    window = [
        _perturb(trace, 1.7)
        for trace in atlas.knowledge.api_profiles[target].sample_traces
    ]
    monitor = ScriptedMonitor(
        {
            TENANT: [
                MonitorSample(recent_latencies=preview),
                MonitorSample(recent_latencies=drifted, traces_by_api={target: window}),
                MonitorSample(recent_latencies=drifted),  # what cycle 2 re-armed on
            ]
        }
    )
    daemon = AdvisorDaemon(service, monitor, name="smoke")
    daemon.register(TENANT, atlas, expected_scale=2.0)
    return daemon


def run_child(store_dir: str, kill_after: Optional[str] = None) -> Dict:
    """Run daemon cycles over ``store_dir``; optionally die mid-cycle-2 for real."""
    from repro.serving import ArtifactStore

    daemon = _build_daemon(store_dir)

    if kill_after == "poll":
        poll = daemon.monitor.poll

        def polled_then_dead(tenant: str, cycle: int):
            sample = poll(tenant, cycle)
            if cycle >= 2:
                os._exit(KILL_EXIT)  # polled, nothing published yet
            return sample

        daemon.monitor.poll = polled_then_dead
    elif kill_after is not None:

        def die(tenant: str, stage: str) -> None:
            if stage == kill_after and int(daemon.record(TENANT)["cycle"]) >= 2:
                os._exit(KILL_EXIT)  # a real crash: no unwinding, no cleanup

        daemon._after_stage = die

    drift_cycle_agent = drift_cycle_prior = None
    for _ in range(4):
        (report,) = daemon.run_cycle()
        if report.cycle == 2 and report.recommended:
            drift_cycle_agent, drift_cycle_prior = report.agent, report.prior
        record = daemon.record(TENANT)
        if int(record["cycle"]) >= 2 and record["stage"] == "done" and record["front_sha"]:
            break

    # Cycle 3 is on model: what does a cycle in which nobody drifts write?
    published = []
    real_publish = ArtifactStore._publish
    ArtifactStore._publish = staticmethod(
        lambda path, blob: published.append(path.suffix) or real_publish(path, blob)
    )
    try:
        (quiet,) = daemon.run_cycle()
    finally:
        ArtifactStore._publish = staticmethod(real_publish)

    record = daemon.record(TENANT)
    store = daemon.store
    return {
        "front_sha": record["front_sha"],
        "cycle": record["cycle"],
        "store_hits": daemon.service.cache.stats().get("store_hits", 0),
        "agent": drift_cycle_agent,
        "agent_digest": record["agent"],
        "prior": drift_cycle_prior,
        "quiet_cycle": {
            "cycle": quiet.cycle,
            "stages": quiet.stages,
            "documents": published.count(".json"),
            "objects": published.count(".art"),
        },
        "documents": len(store.state_names(daemon._state_name())),
        "finished_samples": [
            cycle
            for cycle in range(1, int(record["cycle"]) + 1)
            if ("daemon-sample", daemon.name, TENANT, cycle) in store
        ],
    }


def _spawn(script: Path, store: Path, kill_after: Optional[str]) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(script.parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    argv = [sys.executable, str(script), "--child", "--store", str(store)]
    if kill_after:
        argv += ["--kill-after", kill_after]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(child: subprocess.Popen, timeout_s: float) -> subprocess.CompletedProcess:
    try:
        stdout, stderr = child.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise
    return subprocess.CompletedProcess(child.args, child.returncode, stdout, stderr)


def run_check(timeout_s: float = 600.0) -> Dict:
    """The kill-and-restart certification over real processes; raises on any violation."""
    script = Path(__file__).resolve()
    with tempfile.TemporaryDirectory(prefix="atlas-daemon-smoke-") as tmp:
        store_a, store_b = Path(tmp) / "a", Path(tmp) / "b"

        # The uninterrupted run works on its own store while the chain runs on B.
        clean_child = _spawn(script, store_a, None)
        try:
            for point in KILL_POINTS:
                killed = _finish(_spawn(script, store_b, point), timeout_s)
                assert killed.returncode == KILL_EXIT, (
                    f"expected the child to die with exit {KILL_EXIT} at the "
                    f"'{point}' kill point, got {killed.returncode}:\n{killed.stderr}"
                )
            resumed_proc = _finish(_spawn(script, store_b, None), timeout_s)
        finally:
            clean = _finish(clean_child, timeout_s)
        assert clean.returncode == 0, f"uninterrupted run failed:\n{clean.stderr}"
        uninterrupted = json.loads(clean.stdout.strip().splitlines()[-1])
        assert resumed_proc.returncode == 0, f"resumed run failed:\n{resumed_proc.stderr}"
        resumed = json.loads(resumed_proc.stdout.strip().splitlines()[-1])

    assert uninterrupted["front_sha"], "uninterrupted run produced no front"
    assert resumed["front_sha"] == uninterrupted["front_sha"], (
        "resumed front diverged from the uninterrupted run: "
        f"{resumed['front_sha']} != {uninterrupted['front_sha']}"
    )
    assert resumed["store_hits"] > 0, "resumed process recompiled instead of reusing the store"
    assert uninterrupted["agent"] == "reused" and uninterrupted["agent_digest"], (
        f"the uninterrupted drift cycle did not reuse its agent: {uninterrupted}"
    )
    assert (resumed["agent"], resumed["agent_digest"]) == (
        "reused",
        uninterrupted["agent_digest"],
    ), (
        "the resumed drift cycle did not reuse the agent the uninterrupted run "
        f"recorded: {resumed['agent']} {resumed['agent_digest']} != "
        f"reused {uninterrupted['agent_digest']}"
    )
    for run in (uninterrupted, resumed):
        assert run["prior"] == "served front", (
            f"the drift cycle did not re-plan from the front cycle 1 served: {run}"
        )
        assert run["documents"] == 1, f"expected one state document per tenant: {run}"
        assert run["finished_samples"] == [], (
            f"a finished cycle's monitor sample is still in the store: {run}"
        )
        assert run["quiet_cycle"] == {
            "cycle": 3, "stages": ["poll", "drift"], "documents": 1, "objects": 0,
        }, f"the on-model cycle must publish its one document and no sample: {run}"
    verdict = {
        "kill_points": list(KILL_POINTS),
        "front_sha": uninterrupted["front_sha"],
        "resumed_store_hits": resumed["store_hits"],
        "agent_digest": resumed["agent_digest"],
    }
    print(
        "daemon kill-and-restart smoke: PASS "
        f"(killed at {' then '.join(repr(p) for p in KILL_POINTS)}, "
        f"resumed front {verdict['front_sha'][:12]}..., "
        f"agent {verdict['agent_digest'][:12]}... reused, re-planned from the served front, "
        f"{verdict['resumed_store_hits']} artifacts streamed from the store, "
        "on-model cycle: 1 document, no sample)"
    )
    return verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help="run one daemon world")
    parser.add_argument("--store", help="artifact store directory (child mode)")
    parser.add_argument(
        "--kill-after", help="os._exit in cycle 2: after this stage's checkpoint, or after the 'poll'"
    )
    parser.add_argument("--check", action="store_true", help="run the 4-process smoke (default)")
    args = parser.parse_args(argv)
    if args.child:
        if not args.store:
            parser.error("--child requires --store")
        print(json.dumps(run_child(args.store, args.kill_after)))
        return 0
    run_check()
    return 0


if __name__ == "__main__":
    sys.exit(main())
