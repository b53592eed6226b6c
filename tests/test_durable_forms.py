"""Durable forms decode what their reader reads.

Two stored classes keep their pickles small through their own protocols:

* ``CompiledTraceSet`` pickles its replay state as two blobs and a length table
  and carries no trace.
* ``SearchResult`` pickles ``all_evaluated`` as one inner blob that materialises
  on first attribute access — the one lazy part.

Both must be invisible: every reader gets what an eager load gave, an untouched
object re-pickles to the bytes it came from, and the store still verifies the
whole frame before a single byte of either part is interpreted.
"""

import copy
import dataclasses
import hashlib
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_serving as serving_suite
from durable_spies import decode_spies
from test_artifacts import _assert_bitwise, _perturb
from test_compiled import _assert_same_set, _edges_of, random_delays, random_trace
from test_serving import daemon_script, tiny_learned_atlas  # noqa: F401  (fixtures)

from repro.cluster import MigrationPlan
from repro.optimizer.atlas_ga import AtlasGA, SearchResult
from repro.quality import (
    ArtifactCache,
    CompiledTraceSet,
    PlanQuality,
    fingerprint_traces,
)
from repro.quality.compiled import _pack_ops
from repro.quality.problem import PlacementProblem
from repro.quality.scenarios import ScenarioSet, ScenarioSpec
from repro.recommend import AdvisorService
from repro.serving import ArtifactStore
from repro.serving import store as store_module
from repro.serving.daemon import front_digest

_clone = serving_suite._clone
_model_over = serving_suite._model_over
_poison_search = serving_suite._poison_search
_make_daemon = serving_suite._make_daemon

CURRENT_FRAME = f"atlas-store/{store_module._VERSION} ".encode("ascii")


def _dumps(value) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _frame(payload: bytes, version: int) -> bytes:
    header = f"atlas-store/{version} {hashlib.sha256(payload).hexdigest()} {len(payload)}\n"
    return header.encode("ascii") + payload


def _relabel(path, version: int) -> None:
    """Rewrite one stored frame's header as another store version's (payload kept)."""
    header, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(_frame(payload, version))


# -- (a) compiled sets ------------------------------------------------------------------------
class TestLoadedCompiledSet:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40)
    def test_replay_never_opens_the_splice_state(self, seed):
        """A loaded set replays bitwise, builds no ``Trace`` and holds nothing per
        trace (the name is older than the removal of the per-trace splice state)."""
        rng = np.random.default_rng(seed)
        traces = [random_trace(rng, f"t{k}") for k in range(int(rng.integers(1, 6)))]
        edges = _edges_of(traces)
        original = CompiledTraceSet(traces, edges)
        blob = _dumps(original)
        rows = np.vstack([original.delta_row(random_delays(rng, edges)) for _ in range(4)])
        expected = original.replay_batch(rows).tobytes()
        with decode_spies() as built:
            loaded = pickle.loads(blob)
            assert loaded.replay_batch(rows).tobytes() == expected
            assert loaded.latencies({edge: 2.5 for edge in edges}) == original.latencies(
                {edge: 2.5 for edge in edges}
            )
        assert built["traces"] == 0
        # The replay state is all a loaded set holds: nothing per trace.
        assert set(vars(loaded)) == set(vars(original)) | {"_packed_levels"}
        assert b"repro.telemetry" not in blob  # no trace is carried
        # The loaded set re-pickles to the bytes it came from, and is the same set.
        assert _dumps(loaded) == blob
        assert _dumps(copy.deepcopy(loaded)) == blob
        _assert_same_set(original, loaded)

    def test_signed_zero_is_content(self):
        """``repr`` keeps what ``==`` on floats loses: -0.0 and 0.0 are two contents,
        so two windows that differ only there get two compiled-set keys and two
        models sharing one artifact cache never share one set."""
        trace = random_trace(np.random.default_rng(3), "t0")
        spans = trace.spans
        plus = trace.with_spans([dataclasses.replace(spans[0], start_ms=0.0)] + spans[1:])
        minus = trace.with_spans([dataclasses.replace(spans[0], start_ms=-0.0)] + spans[1:])
        assert plus.content_stream() != minus.content_stream()
        assert fingerprint_traces([plus]) != fingerprint_traces([minus])
        cache = ArtifactCache()
        sets = [
            _model_over({trace.api: [window]}, cache)._compiled_set(trace.api)
            for window in (plus, minus)
        ]
        assert sets[0] is not sets[1] and cache.stats()["misses"] == 2
        _assert_same_set(sets[1], CompiledTraceSet([minus], _edges_of([minus])))


# -- (b) search results -----------------------------------------------------------------------
COMPONENTS = [f"C{i}" for i in range(6)]
NAMES = ("qperf", "qavai", "qcost")


def _distinct(qualities) -> int:
    """Objects, not entries: one pickle writes a result once however often it is listed."""
    return len({id(quality) for quality in qualities})


def _random_result(rng) -> SearchResult:
    def quality():
        return PlanQuality(
            plan=MigrationPlan.from_vector(COMPONENTS, [int(v) for v in rng.integers(0, 3, 6)]),
            values=tuple(float(v) for v in rng.uniform(0, 100, 3)),
            names=NAMES,
            feasible=bool(rng.random() < 0.8),
            violations=() if rng.random() < 0.8 else ("budget: over",),
        )

    archive = [quality() for _ in range(int(rng.integers(0, 40)))]
    population = [archive[int(i)] for i in rng.integers(0, len(archive), 8)] if archive else []
    return SearchResult(
        pareto=population[: int(rng.integers(0, 5))],
        generations=int(rng.integers(1, 30)),
        evaluations=len(archive),
        training_history=None,
        wall_clock_s=float(rng.uniform(0, 2)),
        all_evaluated=archive,
        objective_names=NAMES,
        agent_digest="d" * 64 if rng.random() < 0.5 else None,
    )


class TestLoadedSearchResult:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60)
    def test_the_front_is_served_without_decoding_the_archive(self, seed):
        original = _random_result(np.random.default_rng(seed))
        blob = _dumps(original)
        with decode_spies() as built:
            loaded = pickle.loads(blob)
            assert loaded.pareto == original.pareto
            assert loaded.front_points() == original.front_points()
            assert (loaded.generations, loaded.evaluations) == (
                original.generations,
                original.evaluations,
            )
            assert loaded.agent_digest == original.agent_digest
        assert built["results"] == _distinct(original.pareto)
        assert "all_evaluated" not in vars(loaded)
        # Untouched, the inner bytes pass through — by a re-pickle and by a deep copy.
        packed = vars(loaded)["_archive"]
        assert loaded.__getstate__()["_archive"] is packed
        assert _dumps(loaded) == blob
        twin = copy.deepcopy(loaded)
        assert vars(twin)["_archive"] == packed and "all_evaluated" not in vars(twin)

        with decode_spies() as built:
            assert loaded.all_evaluated == original.all_evaluated
        assert built["results"] == _distinct(original.all_evaluated)
        assert "_archive" not in vars(loaded)
        assert [q.plan.to_vector() for q in loaded.all_evaluated] == [
            q.plan.to_vector() for q in original.all_evaluated
        ]
        # From here on it is an eager result: mutable lists, pickled afresh.
        loaded.all_evaluated.append(loaded.all_evaluated[0]) if loaded.all_evaluated else None
        again = pickle.loads(_dumps(loaded))
        assert again.all_evaluated == loaded.all_evaluated

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40)
    def test_value_protocols_behave_as_on_an_eager_result(self, seed):
        original = _random_result(np.random.default_rng(seed))
        blob = _dumps(original)
        assert pickle.loads(blob) == original and original == pickle.loads(blob)
        assert copy.deepcopy(pickle.loads(blob)) == original
        assert repr(pickle.loads(blob)) == repr(original)
        replaced = dataclasses.replace(pickle.loads(blob), agent_digest=None)
        assert replaced == dataclasses.replace(original, agent_digest=None)
        assert "_archive" not in vars(replaced)  # built by __init__: a live result
        assert dataclasses.asdict(pickle.loads(blob)) == dataclasses.asdict(original)
        other = dataclasses.replace(original, all_evaluated=original.all_evaluated[1:] + [None])
        assert pickle.loads(blob) != other

    def test_a_result_without_its_archive_has_no_reader(self):
        result = _random_result(np.random.default_rng(5))
        with pytest.raises(TypeError):
            SearchResult.__new__(SearchResult).__setstate__(dict(vars(result)))
        with pytest.raises(AttributeError):
            pickle.loads(_dumps(result)).no_such_field


class TestRacingReaders:
    """A memoised answer is shared by every thread of a service: the first readers of
    its packed archive may race, and must all get one list."""

    def test_threads_racing_on_the_first_read_get_one_archive_and_one_fragment_list(self):
        """(A compiled set has no lazy part left; the name is older than that.)"""
        rng = np.random.default_rng(41)
        result = _random_result(rng)
        result_blob = _dumps(result)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                loaded_result = pickle.loads(result_blob)
                barrier = threading.Barrier(8)
                seen = []

                def read():
                    barrier.wait(timeout=30)
                    seen.append(loaded_result.all_evaluated)

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads) and len(seen) == 8
                for archive_list in seen:
                    assert archive_list is loaded_result.all_evaluated
                assert loaded_result == result
        finally:
            sys.setswitchinterval(interval)


# -- (c) revives ------------------------------------------------------------------------------
ROBUST = PlacementProblem.default().with_scenarios(
    ScenarioSet((ScenarioSpec(name="observed"), ScenarioSpec(name="burst", rate_scale=2.0)))
)


class TestRevive:
    def test_classic_revive_decodes_the_front_and_nothing_else(
        self, tmp_path, tiny_learned_atlas, monkeypatch
    ):
        store_dir = tmp_path / "store"
        cold = AdvisorService(store=ArtifactStore(store_dir)).recommend(
            _clone(tiny_learned_atlas), expected_scale=2.0
        )
        cold.latency_preview(cold.knee_point().plan)
        assert len(cold.result.all_evaluated) > len(cold.result.pareto)

        _poison_search(monkeypatch)
        atlas = _clone(tiny_learned_atlas)
        service = AdvisorService(store=ArtifactStore(store_dir))
        with decode_spies() as built:
            warm = service.recommend(atlas, expected_scale=2.0)
            preview = warm.latency_preview(warm.knee_point().plan)
        assert service.stats()["journal"] == {"hits": 1, "misses": 0}
        assert service.cache.stats()["store_hits"] > 0
        assert built["results"] == _distinct(cold.result.pareto)
        assert built["traces"] == 0
        assert "_archive" in vars(warm.result)
        assert front_digest(warm) == front_digest(cold)
        for api, estimate in cold.latency_preview(cold.knee_point().plan).items():
            assert list(preview[api].estimated_latencies_ms) == list(
                estimate.estimated_latencies_ms
            )
        # Whoever does ask gets the archive the search journaled.
        assert warm.result.all_evaluated == cold.result.all_evaluated

    def test_robust_revive_scores_nothing(
        self, tmp_path, tiny_learned_atlas, monkeypatch
    ):
        store_dir = tmp_path / "store"
        cold = AdvisorService(store=ArtifactStore(store_dir)).recommend(
            _clone(tiny_learned_atlas), problem=ROBUST
        )
        assert cold.scenario_set is not None and cold.result.pareto[0].scenarios

        _poison_search(monkeypatch)
        service = AdvisorService(store=ArtifactStore(store_dir))
        with decode_spies() as built:
            warm = service.recommend(_clone(tiny_learned_atlas), problem=ROBUST)
        assert service.stats()["journal"] == {"hits": 1, "misses": 0}
        assert front_digest(warm) == front_digest(cold)
        # Only the front was decoded and nothing was scored: the regret report
        # reads the result's own archive, decoded when it is asked for.
        result = cold.result
        assert built["results"] == _distinct(result.pareto)
        assert "_archive" in vars(warm.result)
        assert warm.evaluator.cache_size() == 0
        assert warm.scenario_report() == cold.scenario_report()
        assert warm.result.all_evaluated == result.all_evaluated

    def test_loaded_sets_of_a_revived_answer_splice_like_a_cold_evaluator(
        self, tmp_path, tiny_learned_atlas, monkeypatch
    ):
        store_dir = tmp_path / "store"
        cold = AdvisorService(store=ArtifactStore(store_dir)).recommend(
            _clone(tiny_learned_atlas), expected_scale=2.0
        )
        knee = cold.knee_point().plan
        cold.latency_preview(knee)

        _poison_search(monkeypatch)
        atlas = _clone(tiny_learned_atlas)
        warm = AdvisorService(store=ArtifactStore(store_dir)).recommend(
            atlas, expected_scale=2.0
        )
        warm.latency_preview(knee)  # streams every compiled set from the store
        target = sorted(atlas.knowledge.api_profiles)[0]
        window = [
            _perturb(trace, 1.3) for trace in atlas.knowledge.api_profiles[target].sample_traces
        ]
        loaded_set = warm.evaluator.performance._compiled[target]
        for answer in (warm, cold):  # what a drift re-certification does
            answer.evaluator.splice({target: window})
        spliced, fresh = warm.evaluator.performance, cold.evaluator.performance
        assert spliced._compiled_set(target) is not loaded_set
        _assert_bitwise(spliced._compiled_set(target), fresh._compiled_set(target))
        _assert_bitwise(spliced._compiled_set(target), CompiledTraceSet(window, spliced._edges[target]))
        plans = [q.plan for q in cold.result.all_evaluated]
        assert [[v.hex() for v in q.values] for q in warm.evaluator.evaluate_batch(plans)] == [
            [v.hex() for v in q.values] for q in cold.evaluator.evaluate_batch(plans)
        ]


# -- (d) frames written by the parent commit (store version 4) are a miss ----------------------
class TestVersion4FramesMiss:
    """Version 5 changes two stored layouts: a ``SearchResult`` packs its archive and
    a ``CompiledTraceSet`` packs levels and fragments apart and names its traces.  A
    version-4 frame holds the former layouts and must be rejected on its header;
    relabelled as current, neither layout has a reader.  Version 7 drops the
    compiled set's fragments and content streams: a version-6 frame misses too."""

    KWARGS = {"expected_scale": 2.0}

    @staticmethod
    def _parent_compiled_frame(compiled, traces, monkeypatch, version=4):
        """A version-4 compiled set: one ``_packed`` blob and the traces themselves
        (its per-trace fragment bundles, which no longer exist, left out)."""

        def old_getstate(self):
            state = dict(self.__dict__)
            levels = state.pop("_levels")
            state["_traces"] = list(traces)
            state["_packed"] = _pack_ops(levels) + (len(levels), [])
            return state

        with monkeypatch.context() as patch:
            patch.setattr(CompiledTraceSet, "__getstate__", old_getstate)
            return _frame(_dumps(compiled), version)

    @staticmethod
    def _parent_entry_frame(entry, monkeypatch, version=4):
        with monkeypatch.context() as patch:
            patch.setattr(SearchResult, "__getstate__", lambda self: dict(vars(self)))
            payload = _dumps(entry)
        assert b"_archive" not in payload and b"all_evaluated" in payload
        return _frame(payload, version)

    def test_compiled_frame_misses_on_the_header_and_has_no_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(13)
        traces = [random_trace(rng, f"t{k}") for k in range(3)]
        compiled = CompiledTraceSet(traces, _edges_of(traces))
        store = ArtifactStore(tmp_path / "store")
        key = ("compiled", "sha", ())
        assert store.save(key, compiled)  # creates the fan-out directory
        path = store.path_for(key)
        path.write_bytes(self._parent_compiled_frame(compiled, traces, monkeypatch))

        unpacked = []
        real_setstate = CompiledTraceSet.__setstate__

        def spying_setstate(self, state):
            unpacked.append(sorted(state))
            real_setstate(self, state)

        monkeypatch.setattr(CompiledTraceSet, "__setstate__", spying_setstate)
        assert store.load(key) is None and key not in store
        assert unpacked == []  # rejected on the header, before any payload byte is read

        path.write_bytes(
            self._parent_compiled_frame(compiled, traces, monkeypatch, store_module._VERSION)
        )
        assert store.load(key) is None  # no reader for ``_packed`` + ``_traces``
        assert unpacked and "_packed" in unpacked[0] and "_packed_levels" not in unpacked[0]
        assert key in store  # a sound frame; what it holds is the unpickler's business

    def test_a_version_6_compiled_frame_with_fragments_misses(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(29)
        traces = [random_trace(rng, f"t{k}") for k in range(3)]
        compiled = CompiledTraceSet(traces, _edges_of(traces))

        def version_6_getstate(self):
            """Version 6's layout: two parts packed apart, the replay levels and the
            per-trace splice state, and each trace's content stream."""
            state = dict(self.__dict__)
            levels = state.pop("_levels")
            for part, packed in (("levels", _pack_ops(levels)), ("fragments", _pack_ops(levels) + ([],))):
                state[f"_packed_{part}"] = packed
            state["_contents"] = [trace.content_stream() for trace in traces]
            return state

        store = ArtifactStore(tmp_path / "store")
        key = ("compiled", "sha", ())
        with monkeypatch.context() as patch:
            patch.setattr(CompiledTraceSet, "__getstate__", version_6_getstate)
            assert store.save(key, compiled)
        path = store.path_for(key)
        assert b"fragments" in path.read_bytes() and b"_contents" in path.read_bytes()
        _relabel(path, 6)

        unpacked = []
        monkeypatch.setattr(
            CompiledTraceSet, "__setstate__", lambda self, state: unpacked.append(state)
        )
        assert store.load(key) is None and key not in store
        assert unpacked == []  # rejected on the header, before any payload byte is read
        rebuilt = ArtifactCache(store=store).get_or_build(key, lambda: compiled)
        assert rebuilt is compiled
        assert path.read_bytes().startswith(CURRENT_FRAME)  # written back, current layout
        assert b"fragments" not in path.read_bytes()

    def test_journal_entry_misses_is_searched_once_and_written_back(
        self, tmp_path, tiny_learned_atlas, monkeypatch
    ):
        store = ArtifactStore(tmp_path / "store")
        writer = AdvisorService(store=store)
        cold = writer.recommend(_clone(tiny_learned_atlas), **self.KWARGS)
        key = ("journal",) + writer._request_key(tiny_learned_atlas, self.KWARGS)
        entry = store.load(key)
        entry["result"].all_evaluated  # an eager result, as the parent's were
        store.path_for(key).write_bytes(self._parent_entry_frame(entry, monkeypatch))

        revived = []
        real_setstate = SearchResult.__setstate__

        def spying_setstate(self, state):
            revived.append(sorted(state))
            real_setstate(self, state)

        monkeypatch.setattr(SearchResult, "__setstate__", spying_setstate)
        assert store.load(key) is None
        assert revived == []  # rejected on the header, before any payload byte is read

        store.path_for(key).write_bytes(
            self._parent_entry_frame(entry, monkeypatch, store_module._VERSION)
        )
        assert store.load(key) is None  # relabelled, the eager layout still has no reader
        assert revived and "all_evaluated" in revived[0] and "_archive" not in revived[0]

        store.path_for(key).write_bytes(self._parent_entry_frame(entry, monkeypatch))
        upgraded = AdvisorService(store=store)
        again = upgraded.recommend(_clone(tiny_learned_atlas), **self.KWARGS)
        assert upgraded.stats()["journal"] == {"hits": 0, "misses": 1}  # one more search
        assert front_digest(again) == front_digest(cold)
        assert store.path_for(key).read_bytes().startswith(CURRENT_FRAME)  # written back

        _poison_search(monkeypatch)
        restarted = AdvisorService(store=store)
        warm = restarted.recommend(_clone(tiny_learned_atlas), **self.KWARGS)
        assert restarted.stats()["journal"] == {"hits": 1, "misses": 0}
        assert front_digest(warm) == front_digest(cold)
        assert "_archive" in revived[-1]

    def test_an_agent_frame_older_code_wrote_is_replaced_by_the_next_search(
        self, tmp_path, tiny_learned_atlas, daemon_script, monkeypatch
    ):
        """``("agent", digest)`` is written once per digest; "once" must mean a frame
        this version reads.  A daemon died after cycle 2's splice checkpoint, then the
        store version moved under its agent frame (and under the answer that trained
        it): ``load`` returns ``None`` for that frame for good unless the next search
        that breeds the same agent publishes it again."""
        _target, samples = daemon_script
        store_dir = tmp_path / "store"
        serving_suite.TestAdvisorDaemon._killed_in_cycle_two(
            store_dir, tiny_learned_atlas, samples, "splice"
        )
        store = ArtifactStore(store_dir)
        probe = _make_daemon(store_dir, _clone(tiny_learned_atlas), samples)
        agent_key = ("agent", probe.record("web")["agent"])
        journal_key = ("journal",) + probe.service._request_key(
            tiny_learned_atlas, {"expected_scale": 2.0}
        )
        assert agent_key in store and journal_key in store
        for key in (agent_key, journal_key):
            _relabel(store.path_for(key), store_module._VERSION - 1)
        assert store.path_for(agent_key).exists()
        assert agent_key not in store and store.load(agent_key) is None

        # One search of the request that trained the agent (the journal entry is a miss).
        upgraded = AdvisorService(store=ArtifactStore(store_dir))
        answer = upgraded.recommend(_clone(tiny_learned_atlas), expected_scale=2.0)
        assert upgraded.stats()["journal"] == {"hits": 0, "misses": 1}
        assert ("agent", answer.result.agent_digest) == agent_key
        assert store.path_for(agent_key).read_bytes().startswith(CURRENT_FRAME)
        assert agent_key in store and store.load(agent_key) is not None

        def no_training(self):
            raise AssertionError("the rewritten agent frame must be the one reused")

        monkeypatch.setattr(AtlasGA, "train_agent", no_training)
        resumed = _make_daemon(store_dir, _clone(tiny_learned_atlas), samples)
        report = resumed.run_cycle()[0]
        assert report.error is None and report.cycle == 2 and report.recommended
        assert (report.agent, report.agent_reason) == ("reused", None)

    def test_a_damaged_agent_frame_is_replaced_too(self, tmp_path, tiny_learned_atlas):
        store = ArtifactStore(tmp_path / "store")
        service = AdvisorService(store=store)
        answer = service.recommend(_clone(tiny_learned_atlas), expected_scale=2.0)
        agent_key = ("agent", answer.result.agent_digest)
        path = store.path_for(agent_key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert agent_key not in store
        # Same agent, other request content (another scale): a search, and a publish.
        service.recommend(_clone(tiny_learned_atlas), expected_scale=2.0, certify=0)
        assert agent_key in store


# -- (e) kill after the splice checkpoint, resume over current frames --------------------------
class TestDaemonResume:
    def test_resumed_cycle_lands_on_the_uninterrupted_front(
        self, tmp_path, tiny_learned_atlas, daemon_script, monkeypatch
    ):
        _target, samples = daemon_script
        reference = _make_daemon(tmp_path / "ref", _clone(tiny_learned_atlas), samples)
        _bootstrap, drift = [reference.run_cycle()[0] for _ in range(2)]
        store_dir = tmp_path / "store"
        serving_suite.TestAdvisorDaemon._killed_in_cycle_two(
            store_dir, tiny_learned_atlas, samples, "splice"
        )
        frames = list(store_dir.rglob("*.art"))
        assert frames and all(f.read_bytes().startswith(CURRENT_FRAME) for f in frames)

        def no_training(self):
            raise AssertionError("a resumed drift cycle must reuse the stored agent")

        monkeypatch.setattr(AtlasGA, "train_agent", no_training)
        resumed = _make_daemon(store_dir, _clone(tiny_learned_atlas), samples)
        with decode_spies() as built:
            report = resumed.run_cycle()[0]
        assert report.cycle == 2 and report.recommended and report.error is None
        assert report.front_sha == drift.front_sha
        assert (report.agent, report.agent_reason) == ("reused", None)
        assert resumed.service.cache.stats()["store_hits"] > 0
        # The sample's traces were read back; no stored set carried any of its own.
        assert built["traces"] == sum(len(w) for w in samples[1].traces_by_api.values())
