"""Self-test of the end-to-end benchmark harness (no testbed is built here)."""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import agree  # noqa: E402
import run  # noqa: E402
from e2ebench import hostspeed, inputs, layers, runner, spec, stats, tracing  # noqa: E402


# -- order statistics ---------------------------------------------------------------


def test_percentile_interpolates_and_rejects_bad_input():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([1, 2, 3, 4, 5], 0) == 1.0
    assert stats.percentile([1, 2, 3, 4, 5], 100) == 5.0
    assert stats.percentile([10, 20], 25) == 12.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 101)


def test_quartiles_match_the_driver_and_one_sample_has_no_spread():
    import statistics

    samples = [3.1, 2.9, 3.4, 3.0, 2.7, 3.3, 3.2, 2.8, 3.6, 3.0]
    first, _, third = statistics.quantiles(samples, n=4)
    assert stats.quartiles(samples) == (first, third)
    assert stats.iqr(samples) == third - first
    assert stats.relative_spread(samples) == (third - first) / statistics.median(samples)
    assert stats.quartiles([5.0]) == (5.0, 5.0)
    assert stats.relative_spread([5.0]) == 0.0


@pytest.mark.parametrize(
    "count, expected",
    [(3, 50.0), (19, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    pct, value = stats.tail_percentile(list(range(count)))
    assert pct == expected
    assert value == stats.percentile(list(range(count)), expected)


# -- hypervolume --------------------------------------------------------------------


def test_hypervolume_of_hand_computed_fronts():
    assert stats.hypervolume_3d([(0.0, 0.0, 0.0)]) == 1.0
    assert stats.hypervolume_3d([(0.5, 0.5, 0.5)]) == 0.125
    # Two boxes 0.125 and 0.75 * 0.25 * 0.25, overlapping in 0.5 * 0.25 * 0.25.
    two = stats.hypervolume_3d([(0.5, 0.5, 0.5), (0.25, 0.75, 0.75)])
    assert two == pytest.approx(0.125 + 0.046875 - 0.03125)
    # Three slabs of 0.25, pairwise overlaps 0.125, triple overlap 0.125.
    three = stats.hypervolume_3d([(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)])
    assert three == pytest.approx(0.5)
    # A dominated point adds nothing; a point at the reference dominates nothing.
    assert stats.hypervolume_3d([(0.5, 0.5, 0.5), (0.6, 0.6, 0.6)]) == 0.125
    assert stats.hypervolume_3d([(1.0, 0.0, 0.0)]) == 0.0
    assert stats.hypervolume_3d([]) == 0.0


def test_normalized_hypervolume_uses_the_sample_box():
    ideal, nadir = stats.objective_box([(10.0, 0.0, 100.0), (20.0, 4.0, 300.0)])
    assert (ideal, nadir) == ((10.0, 0.0, 100.0), (20.0, 4.0, 300.0))
    assert stats.normalized_hypervolume([(15.0, 2.0, 200.0)], ideal, nadir) == 0.125
    # Better than the sample's ideal on one axis: volume beyond the unit box.
    assert stats.normalized_hypervolume([(5.0, 0.0, 100.0)], ideal, nadir) == 1.5


# -- spans --------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_and_overlapping_spans():
    spans = [
        tracing.Span(0, "op", 0.0, None, 1, end=10.0),
        tracing.Span(1, "a", 1.0, 0, 1, end=6.0),
        tracing.Span(2, "b", 4.0, 0, 1, end=8.0),  # overlaps a by 2
        tracing.Span(3, "c", 2.0, 1, 1, end=3.0),
        tracing.Span(4, "late", 9.0, 0, 1, end=12.0),  # runs past its parent
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (7.0 + 1.0))  # [1, 8] and [9, 10]
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(4.0)
    assert own[3] == pytest.approx(1.0)
    assert tracing.covered([(1, 6), (4, 8), (9, 12)], 0, 10) == pytest.approx(8.0)


def test_operation_profiles_count_nested_same_name_spans_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    root = tracer.begin_operation()
    outer = tracer.begin("quality.evaluate")
    clock.now = 1.0
    inner = tracer.begin("quality.evaluate")
    inner.counts["requested"] = 3
    clock.now = 3.0
    tracer.end(inner)
    clock.now = 4.0
    tracer.end(outer)
    clock.now = 5.0
    tracer.end(root)
    (profile,) = tracing.profile_operations(tracer.spans)
    assert profile.name == "op" and profile.wall == 5.0
    assert profile.busy == {"quality.evaluate": 4.0}
    assert profile.self_time == {"quality.evaluate": 4.0}
    assert profile.calls == {"quality.evaluate": 2}
    assert profile.counts == {"quality.evaluate.requested": 3}
    assert profile.uncovered == 1.0 and profile.coverage == 0.8
    metrics = layers.span_metrics([profile])
    assert metrics["quality.evaluate_busy_pct"] == 80.0
    assert metrics["trace.coverage_pct"] == 80.0
    with pytest.raises(RuntimeError):
        tracer.end(root)  # already closed: spans must close in order


def test_wrappers_restore_every_attribute_and_record_only_inside_operations():
    before = [
        (owner, attribute, vars(owner)[attribute])
        for owner, attribute, _ in map(lambda t: tracing.resolve(t.path), layers.SPAN_TARGETS)
    ]
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer, layers.SPAN_TARGETS):
        assert all(vars(o)[a] is not original for o, a, original in before)
        from e2ebench.workloads import PreparedMonitor

        monitor = PreparedMonitor()
        assert monitor.poll("nobody", 1) is None  # outside an operation: not recorded
        assert tracer.spans == []
        root = tracer.begin_operation()
        monitor.poll("nobody", 1)
        tracer.end(root)
        assert [span.name for span in tracer.spans] == ["op", "monitoring.poll"]
        assert tracer.spans[1].parent == root.id
    assert all(vars(o)[a] is original for o, a, original in before)


def test_unknown_span_target_fails_before_anything_is_patched():
    from repro.serving.store import ArtifactStore

    original = vars(ArtifactStore)["save"]
    targets = [
        tracing.Target("serving.store_save", "repro.serving.store:ArtifactStore.save"),
        tracing.Target("serving.gone", "repro.serving.store:ArtifactStore.no_such_method"),
    ]
    with pytest.raises(LookupError):
        tracing.Instrumentation(tracing.Tracer(), targets)
    assert vars(ArtifactStore)["save"] is original
    for bad in ("repro.no_such_module:X.y", "repro.serving.store:Nope.save", "malformed"):
        with pytest.raises(LookupError):
            tracing.resolve(bad)


# -- host speed ---------------------------------------------------------------------


def _window(slices, factors=(1.0, 1.0, 1.0, 1.0), busy=0.0):
    parts = tuple(slices * f * ref / 1e3 for f, ref in zip(factors, hostspeed.REFERENCE_MS))
    return hostspeed.Window(busy, slices, parts)


def test_slowdown_is_the_mean_ratio_to_the_quiet_host_and_needs_enough_slices():
    assert _window(10).slowdown == pytest.approx(1.0)
    assert _window(10, (1.5, 2.0, 1.0, 1.5)).slowdown == pytest.approx(1.5)
    assert _window(hostspeed.MIN_SLICES - 1, (2.0, 2.0, 2.0, 2.0)).slowdown is None
    assert hostspeed.Window().slowdown is None
    both = _window(10, (2.0, 2.0, 2.0, 2.0), busy=0.5) + _window(30, busy=0.25)
    assert (both.slices, both.busy) == (40, 0.75)
    assert both.slowdown == pytest.approx(1.25)
    assert (both - _window(30, busy=0.25)).slowdown == pytest.approx(2.0)


def test_latency_divides_every_block_by_the_slowdown_it_ran_under():
    blocks = [
        runner.Block([2.0, 4.0], [0.5, 0.0], _window(20, (3.0, 3.0, 3.0, 3.0))),  # mean 3 at x3
        runner.Block([1.5], [9.0], _window(20, (1.5, 1.5, 1.5, 1.5))),  # waiting is not in it
        runner.Block([2.4], [0.0], _window(2, (9.0, 9.0, 9.0, 9.0))),  # too short: the leg's
        runner.Block([50.0], [0.0], _window(20)),  # one outlier moves no median
        runner.Block([1.0], [0.0], _window(20)),
    ]
    assert runner.host_slowdown(blocks[:2]) == pytest.approx(2.25)
    assert runner.host_slowdown([]) == 1.0
    whole = runner.host_slowdown(blocks)
    assert runner.latency(blocks) == pytest.approx(stats.median([1.0, 1.0, 2.4 / whole, 50.0, 1.0]))
    assert runner.wall_seconds(blocks[:2]) == [2.5, 4.0, 10.5]
    assert runner.wait_seconds(blocks[:2]) == [0.5, 0.0, 9.0]


def test_timed_takes_the_slices_out_of_what_it_times():
    clock, cpu = FakeClock(), FakeClock()
    tick = 1e-4  # every reading of the clock is 0.1 ms after the one before

    def read():
        clock.now += tick
        return clock.now

    def work():
        speed._on_timer(signal.SIGALRM, None)
        cpu.now += 5.5 * tick  # 4 in the slice, 1.5 of its own; the rest it waited
        return "done"

    speed = hostspeed.HostSpeed(clock=read, cpu_clock=cpu)
    call = speed.timed(work)
    # begun at 1; the slice reads the clock at 2, 3, 4, 5, 6; the call ends at 7.
    assert call.result == "done"
    assert (call.seconds, call.waited) == pytest.approx((1.5 * tick, 0.5 * tick))
    assert call.window.slices == 1 and call.window.busy == pytest.approx(4 * tick)
    assert call.window.parts == pytest.approx((tick,) * 4)
    idle = speed.timed(lambda: None)
    assert (idle.seconds, idle.waited) == pytest.approx((0.0, tick))
    assert idle.window.slices == 0


def test_a_stall_inside_a_slice_counts_for_a_bounded_slowdown():
    clock = FakeClock()

    def stalled():
        clock.now += 0.050  # every part takes 50 ms: a stall, not a slow host
        return clock.now

    speed = hostspeed.HostSpeed(clock=stalled, cpu_clock=FakeClock())
    for _ in range(hostspeed.MIN_SLICES):
        speed._on_timer(signal.SIGALRM, None)
    total = speed._total
    assert total.busy == pytest.approx(hostspeed.MIN_SLICES * 0.2)
    assert total.slowdown == pytest.approx(hostspeed.PART_LIMIT)


def test_the_sampler_runs_while_the_program_does_and_leaves_no_timer_behind():
    previous = signal.getsignal(signal.SIGALRM)

    def spin():
        until = time.perf_counter() + 0.25
        while time.perf_counter() < until:
            pass

    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        with pytest.raises(RuntimeError):
            speed.start()
        call = speed.timed(spin)
    finally:
        speed.stop()
    assert call.window.slices >= hostspeed.MIN_SLICES and call.window.slowdown > 0.5
    assert 0.0 < call.seconds < 0.25 + 0.05 and call.window.busy > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    speed.stop()  # stopping twice is harmless


# -- seeded inputs ------------------------------------------------------------------


def _stub_testbed():
    components = [f"c{i}" for i in range(12)]
    return SimpleNamespace(
        application=SimpleNamespace(component_names=components),
        locations=[0, 1, 2],
        preferences=SimpleNamespace(pinned_placement={"c0": 0, "c5": 0}),
    )


def test_seed_determines_the_generated_inputs_and_nothing_else_does():
    testbed = _stub_testbed()
    vectors = inputs.reference_vectors(testbed, seed=3, count=64)
    assert vectors == inputs.reference_vectors(testbed, seed=3, count=64)
    assert vectors != inputs.reference_vectors(testbed, seed=4, count=64)
    assert len({tuple(v) for v in vectors}) == 64
    assert all(v[0] == 0 and v[5] == 0 and set(v) <= {0, 1, 2} for v in vectors)

    schedule = inputs.request_schedule(3)
    assert schedule == inputs.request_schedule(3) != inputs.request_schedule(4)
    share = sum(by_fingerprint for _, by_fingerprint in schedule) / len(schedule)
    assert 0.07 < share < 0.13
    assert {tenant for tenant, _ in schedule} == set(range(len(inputs.TENANT_SCALES)))

    factors = [inputs.drift_factor(3, r) for r in range(6)]
    assert factors == [inputs.drift_factor(3, r) for r in range(6)]
    assert factors != [inputs.drift_factor(4, r) for r in range(6)]
    assert len(set(factors)) == 6 and all(f > 1.2 for f in factors)

    from repro.optimizer import GAConfig

    base = GAConfig(population_size=60, seed=3)
    seeds = [inputs.ga_config(base, 3, index).seed for index in range(6)]
    assert seeds == [inputs.ga_config(base, 3, index).seed for index in range(6)]
    assert len(set(seeds)) == 6 and seeds != [inputs.ga_config(base, 4, i).seed for i in range(6)]
    assert inputs.ga_config(base, 3, 0).population_size == 60
    # The testbed itself is the same for every seed; only seed= and ga_seed= vary.
    assert "seed" not in inputs.TESTBED_PARAMS and "ga_seed" not in inputs.TESTBED_PARAMS


# -- the declared surface -----------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_spec_and_meets_the_contract():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60
    names = (
        [w["name"] for w in document["workloads"]]
        + [m["name"] for m in document["end_to_end"]]
        + [m["name"] for m in document["per_layer"]]
    )
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert max(m["bound"] for m in document["end_to_end"]) == setup[0]["bound"]
    # The run budget: 4 + 22 x workloads runs, each with ~10 s of set-up and
    # verification around what it measures, must fit the driver's 3420 s.
    runs = 4 + 22 * len(document["workloads"])
    assert runs * (document["run_seconds"] + 10) < 0.85 * 3420


def test_span_metrics_and_workload_classes_match_the_spec():
    from e2ebench.workloads import WORKLOADS

    assert list(WORKLOADS) == list(spec.WORKLOADS) == list(spec.OPERATIONS)
    assert all(list(legs) == ["op", "op2"] for legs in spec.OPERATIONS.values())
    assert set(layers.span_metrics([])) | set(layers.op2_metrics([])) <= set(spec.PER_LAYER)


# -- agreement ----------------------------------------------------------------------


def test_a_noisy_metric_is_unresolved_never_unchanged():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert agree.verdict(steady, [104.0, 103.0, 105.0, 104.5], "lower", 0.10) == "agree"
    assert agree.verdict(steady, [120.0, 121.0, 119.0, 120.0], "lower", 0.10) == "DISAGREE"
    assert agree.verdict([80.0, 100.0, 120.0, 140.0], steady, "lower", 0.10) == "unresolved"
    assert agree.verdict([1.0, 1.0], [0.8, 0.8], "higher", 0.10) == "DISAGREE"


def test_quick_mode_never_writes_the_benchmark_of_record():
    with pytest.raises(SystemExit):
        run.main(["--write-spec", "--quick"])
    with pytest.raises(SystemExit):
        run.main(["--all", "--workload", "cold_recommend"])


@pytest.mark.slow
def test_quick_run_of_every_workload_end_to_end(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--quick", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "QUICK MODE" in done.stdout
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary) == 2 * len(spec.WORKLOADS)
    for tag, record in summary.items():
        result = record["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = spec.PER_LAYER if tag.endswith("trace1") else {
            entry["name"] for entry in spec.END_TO_END
        }
        assert set(result["metrics"]) == set(declared)
        if tag.endswith("trace1"):
            assert result["metrics"]["trace.coverage_pct"]["value"] >= 95.0
            assert (tmp_path / f"trace_{record['workload']}.jsonl").stat().st_size > 0
