"""Durable fleet serving: the on-disk artifact store, concurrent cache, and daemon.

Three contracts from the serving tier:

* **Store round-trip is bitwise** — ``load(save(artifact))`` reproduces compiled
  trace sets and Δ tables bit for bit on random topologies, and
  any damaged frame (truncation, corruption, version skew) degrades to ``None``
  — a clean recompile, never an exception.
* **Single-flight concurrency** — N threads racing on one fingerprint run
  exactly one compile; the LRU bound and the hit/miss/eviction counters stay
  coherent under contention.
* **Restartability** — a fresh process over a populated store serves
  recommendations from the durable journal without searching, and a daemon
  killed after any stage checkpoint resumes to the bitwise-identical front an
  uninterrupted run produces.
"""

import copy
import dataclasses
import hashlib
import pickle
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerprints import build_tiny_evaluator
from test_artifacts import TINY_GA, _assert_bitwise, _perturb
from test_compiled import random_delays, random_trace
from test_shared_scenarios import certified

from repro.cluster import MigrationPlan, default_network_model
from repro.learning import NetworkFootprint
from repro.monitoring import DriftDetector
from repro.optimizer.atlas_ga import AtlasGA, SearchResult
from repro.quality import (
    ApiPerformanceModel,
    CompiledTraceSet,
    MigrationPreferences,
    PlanQuality,
)
from repro.quality.artifacts import ArtifactCache
from repro.quality.scenarios import ObjectiveVector
from repro.recommend import AdvisorService, Atlas, AtlasConfig
from repro.serving import store as store_module
from repro.serving import (
    AdvisorDaemon,
    ArtifactStore,
    MonitorSample,
    ScriptedMonitor,
)
from repro.serving.daemon import front_digest
from repro.workload import default_scenario


CURRENT_FRAME = f"atlas-store/{store_module._VERSION} ".encode("ascii")


def _random_compiled(rng):
    traces = [random_trace(rng, f"t{k}") for k in range(int(rng.integers(1, 5)))]
    edges = sorted({edge for trace in traces for edge in trace.invocation_edges()})
    return CompiledTraceSet(traces, edges)


def _model_over(traces_by_api, cache):
    """A compiled-engine performance model over arbitrary traces (all on-prem, no
    footprint bytes) that compiles through ``cache``."""
    components = sorted(
        {span.component for traces in traces_by_api.values() for t in traces for span in t.spans}
    )
    return ApiPerformanceModel(
        traces_by_api,
        NetworkFootprint([]),
        default_network_model(),
        MigrationPlan.all_on_prem(components),
        artifact_cache=cache,
    )


# -- the store itself -------------------------------------------------------------------------
class TestArtifactStore:
    def test_save_load_discard(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = ("compiled", "sha", 3)
        assert store.load(key) is None
        assert store.save(key, {"x": [1, 2, 3]})
        assert store.load(key) == {"x": [1, 2, 3]}
        store.discard(key)
        assert store.load(key) is None
        store.discard(key)  # idempotent

    def test_unpicklable_value_degrades_to_false(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.save(("bad",), lambda: None) is False
        assert store.load(("bad",)) is None

    def test_state_tier_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.load_state("daemon-x") is None
        assert store.save_state("daemon-x", {"version": 1, "tenants": {}})
        assert store.load_state("daemon-x") == {"version": 1, "tenants": {}}
        # Unserializable state degrades to False, never an exception.
        assert store.save_state("daemon-x", {"bad": object()}) is False

    def test_publication_is_atomic_no_temp_litter(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for i in range(8):
            store.save(("k", i), list(range(i)))
        litter = [
            p
            for p in (tmp_path / "store").rglob("*")
            if p.is_file() and p.suffix not in (".art", ".json")
        ]
        assert litter == []


# -- bitwise round-trip over random topologies ------------------------------------------------
class TestStoreRoundTripBitwise:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=20)
    def test_compiled_set_round_trips_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        compiled = _random_compiled(rng)
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            assert store.save(("c",), compiled)
            loaded = store.load(("c",))
        assert isinstance(loaded, CompiledTraceSet)
        _assert_bitwise(compiled, loaded)
        delays = random_delays(rng, list(compiled.edge_index))
        assert loaded.latencies(delays) == compiled.latencies(delays)

    def test_delta_table_round_trips_bitwise(self, tiny_telemetry, tmp_path):
        app, result = tiny_telemetry
        evaluator = build_tiny_evaluator(app, result.telemetry)
        model = evaluator.performance
        api = model.apis[0]
        table = model._delta_table(api, 2)
        store = ArtifactStore(tmp_path / "store")
        assert store.save(("delta", api), table)
        loaded = store.load(("delta", api))
        assert loaded[0] == table[0]
        for left, right in zip(table[1:], loaded[1:]):
            assert left.dtype == right.dtype
            assert left.tobytes() == right.tobytes()

    def test_shared_memory_artifact_reloads_as_private_and_reshareable(self):
        """A loaded artifact is a private copy: bitwise the set a fresh compile
        produces, sharing no array with the one that was saved."""
        rng = np.random.default_rng(11)
        compiled = _random_compiled(rng)
        pristine = _random_compiled(np.random.default_rng(11))
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            assert store.save(("c",), compiled)
            loaded_compiled = store.load(("c",))
        _assert_bitwise(pristine, loaded_compiled)
        assert not np.shares_memory(loaded_compiled._root_start, compiled._root_start)


# -- damaged frames degrade, never crash ------------------------------------------------------
class TestStoreDegradation:
    def _saved(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        compiled = _random_compiled(np.random.default_rng(5))
        assert store.save(("c",), compiled)
        return store, store.path_for(("c",))

    def test_truncation_at_any_point_degrades_to_none(self, tmp_path):
        store, path = self._saved(tmp_path)
        blob = path.read_bytes()
        for cut in (0, 1, 10, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            assert store.load(("c",)) is None
        path.write_bytes(blob)
        assert store.load(("c",)) is not None  # sanity: the frame itself was fine

    def test_flipped_payload_byte_degrades_to_none(self, tmp_path):
        store, path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.load(("c",)) is None

    def test_version_skew_and_bad_magic_degrade_to_none(self, tmp_path):
        store, path = self._saved(tmp_path)
        blob = path.read_bytes()
        header, _, payload = blob.partition(b"\n")
        fields = header.split(b" ")
        skewed = b"atlas-store/999 " + b" ".join(fields[1:]) + b"\n" + payload
        path.write_bytes(skewed)
        assert store.load(("c",)) is None
        path.write_bytes(b"not-a-store/1 " + b" ".join(fields[1:]) + b"\n" + payload)
        assert store.load(("c",)) is None

    def test_cache_over_corrupted_store_recompiles(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        warm = ArtifactCache(store=store)
        warm.get_or_build(("k",), lambda: [1, 2, 3])
        store.path_for(("k",)).write_bytes(b"garbage")
        builds = []
        cold = ArtifactCache(store=store)
        value = cold.get_or_build(("k",), lambda: builds.append(1) or [1, 2, 3])
        assert value == [1, 2, 3]
        assert builds == [1]  # store miss -> clean recompile, not a crash
        assert cold.stats()["store_hits"] == 0

    def test_fresh_cache_over_populated_store_never_builds(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        warm = ArtifactCache(store=store)
        compiled = _random_compiled(np.random.default_rng(9))
        warm.get_or_build(("c",), lambda: compiled)
        cold = ArtifactCache(store=store)
        loaded = cold.get_or_build(
            ("c",), lambda: pytest.fail("warm restart must not rebuild")
        )
        _assert_bitwise(compiled, loaded)
        assert cold.stats()["store_hits"] == 1


# -- frames written before the packed layout are a miss, not a stale object --------------------
class TestOldLayoutFramesMiss:
    """Store version 2 packs a compiled set's op arrays into two blobs; a version-1
    frame holds the former layout (``_levels`` / ``_fragments`` pickled array by
    array) and must never reach ``CompiledTraceSet.__setstate__``."""

    @staticmethod
    def _parent_frame(compiled, monkeypatch):
        """The bytes the parent commit's store wrote for ``compiled`` (built here)."""

        def old_getstate(self):
            state = dict(self.__dict__)
            state["_shm_backed"] = False
            return state

        with monkeypatch.context() as patch:
            patch.setattr(CompiledTraceSet, "__getstate__", old_getstate)
            payload = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
        header = f"atlas-store/1 {hashlib.sha256(payload).hexdigest()} {len(payload)}\n"
        return header.encode("ascii") + payload, payload

    def test_parent_version_frame_misses_and_the_cache_recompiles(self, tmp_path, monkeypatch):
        compiled = _random_compiled(np.random.default_rng(13))
        frame, payload = self._parent_frame(compiled, monkeypatch)
        store = ArtifactStore(tmp_path / "store")
        key = ("compiled", "sha", ())
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(frame)

        unpacked = []
        real_setstate = CompiledTraceSet.__setstate__

        def spying_setstate(self, state):
            unpacked.append(sorted(state))
            real_setstate(self, state)

        monkeypatch.setattr(CompiledTraceSet, "__setstate__", spying_setstate)
        assert store.load(key) is None
        assert unpacked == []  # rejected on the header, before any payload byte is read

        builds = []
        cache = ArtifactCache(store=store)
        rebuilt = cache.get_or_build(key, lambda: builds.append(1) or compiled)
        assert rebuilt is compiled and builds == [1]
        assert cache.stats()["store_hits"] == 0
        # The rebuild was written through in the current layout: the next process loads.
        current = path.read_bytes().split(b" ", 1)[0]
        assert current.startswith(b"atlas-store/") and current != b"atlas-store/1"
        loaded = ArtifactCache(store=store).get_or_build(
            key, lambda: pytest.fail("a current-version frame must load")
        )
        _assert_bitwise(compiled, loaded)
        assert len(unpacked) == 1 and "_packed_levels" in unpacked[0] and "_levels" not in unpacked[0]

        # The old layout has no reader at all: even relabelled as current it degrades.
        path.write_bytes(frame.replace(b"atlas-store/1", current, 1))
        assert store.load(key) is None
        with pytest.raises(KeyError):
            pickle.loads(payload)

    def test_loaded_set_is_private_reshareable_and_splices_like_a_rebuild(self):
        """A model whose set came from the store splices to a fresh compile of the new
        window, and leaves the loaded set as it was, fit to be stored again."""
        rng = np.random.default_rng(17)
        traces = [random_trace(rng, f"t{k}") for k in range(4)]
        edges = sorted({edge for trace in traces for edge in trace.invocation_edges()})
        compiled = CompiledTraceSet(traces, edges)
        new_traces = [_perturb(traces[0], 1.02)] + traces[1:]
        with tempfile.TemporaryDirectory() as root:
            _model_over({"/api": traces}, ArtifactCache(store=ArtifactStore(root)))._compiled_set("/api")
            restarted = ArtifactCache(store=ArtifactStore(root))
            model = _model_over({"/api": traces}, restarted)
            loaded = model._compiled_set("/api")
            assert restarted.stats()["store_hits"] == 1
            model.splice({"/api": new_traces})
            _assert_bitwise(model._compiled_set("/api"), CompiledTraceSet(new_traces, edges))
        _assert_bitwise(loaded, compiled)
        # ...and the loaded set survives a second trip through the store.
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            assert store.save(("c",), loaded)
            _assert_bitwise(store.load(("c",)), compiled)


# -- single-flight concurrency ----------------------------------------------------------------
class TestConcurrentCache:
    def test_single_flight_exactly_one_build_per_fingerprint(self):
        cache = ArtifactCache()
        n_threads = 16
        barrier = threading.Barrier(n_threads)
        builds, results = [], []

        def build():
            builds.append(1)  # list.append is atomic; >1 entries means >1 builds
            threading.Event().wait(0.05)  # hold the flight open while racers pile up
            return object()

        def worker():
            barrier.wait()
            results.append(cache.get_or_build(("hot",), build))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert len(set(id(r) for r in results)) == 1
        stats = cache.stats()
        assert stats["misses"] == 1  # the claimer
        assert stats["hits"] == n_threads - 1  # every parked racer
        assert stats["entries"] == 1

    def test_failed_build_releases_the_flight(self):
        cache = ArtifactCache()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient compile failure")
            return "ok"

        with pytest.raises(RuntimeError):
            cache.get_or_build(("k",), flaky)
        assert cache.get_or_build(("k",), flaky) == "ok"  # flight was not wedged
        assert len(attempts) == 2

    def test_counters_and_lru_bound_under_contention(self):
        max_entries, n_threads, ops = 8, 8, 200
        cache = ArtifactCache(max_entries=max_entries)
        builds = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(ops):
                key = ("k", int(rng.integers(0, 32)))
                value = cache.get_or_build(key, lambda k=key: builds.append(1) or k)
                assert value == key  # never served another key's artifact

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        assert len(cache) <= max_entries
        assert stats["hits"] + stats["misses"] == n_threads * ops
        assert stats["misses"] == len(builds)  # every miss ran exactly one build
        assert stats["evictions"] == stats["misses"] - stats["entries"]

    def test_store_none_stats_shape_is_unchanged(self):
        cache = ArtifactCache()
        cache.get_or_build(("k",), lambda: 1)
        assert set(cache.stats()) == {"entries", "hits", "misses", "evictions"}


# -- the durable journal ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_learned_atlas(tiny_telemetry):
    """One learned Atlas over the tiny app; tests deep-copy it for isolation."""
    app, result = tiny_telemetry
    atlas = Atlas(
        app,
        MigrationPreferences.pin_on_prem(["Database"]),
        config=AtlasConfig(traces_per_api=15, ga=TINY_GA),
    )
    atlas.learn(result.telemetry)
    return atlas


def _clone(atlas):
    return copy.deepcopy(atlas)


def _poison_search(monkeypatch):
    def poisoned(self, *args, **kwargs):
        raise AssertionError("the warm path must not run a search")

    monkeypatch.setattr(AtlasGA, "run", poisoned)


# -- journal entries written before results became values + names are a miss ------------------
class TestOldResultLayoutFramesMiss:
    """Store version 3: ``PlanQuality`` / ``ScenarioQuality`` hold ``values`` +
    ``names`` and derive ``perf`` / ``avail`` / ``cost``.  A version-2 journal entry
    pickled the triple as fields and, on the default problem, ``values=None``; it
    must be a clean miss that never reaches the new classes."""

    KWARGS = {"expected_scale": 2.0}

    @staticmethod
    def _parent_frame(entry, monkeypatch, version=2):
        """The bytes the parent commit's store wrote for journal ``entry`` (built here)."""

        def old_getstate(self):
            state = dict(self.__dict__)
            state.update(perf=self.perf, avail=self.avail, cost=self.cost)
            state.update(values=None, names=None)  # the paper-triple layout left both unset
            return state

        with monkeypatch.context() as patch:
            patch.setattr(ObjectiveVector, "__getstate__", old_getstate, raising=False)
            payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        header = (
            f"atlas-store/{version} {hashlib.sha256(payload).hexdigest()} {len(payload)}\n"
        )
        return header.encode("ascii") + payload

    def _store_with_parent_journal(self, tmp_path, atlas, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        writer = AdvisorService(store=store)
        cold = writer.recommend(_clone(atlas), **self.KWARGS)
        key = ("journal",) + writer._request_key(atlas, self.KWARGS)
        entry = store.load(key)
        assert isinstance(entry["result"].pareto[0], PlanQuality)
        store.path_for(key).write_bytes(self._parent_frame(entry, monkeypatch))
        return store, key, entry, cold

    def test_parent_version_entry_misses_before_any_result_is_rebuilt(
        self, tmp_path, tiny_learned_atlas, monkeypatch
    ):
        store, key, entry, _cold = self._store_with_parent_journal(
            tmp_path, tiny_learned_atlas, monkeypatch
        )
        revived = []
        real_setstate = ObjectiveVector.__setstate__

        def spying_setstate(self, state):
            revived.append(sorted(state))
            real_setstate(self, state)

        monkeypatch.setattr(ObjectiveVector, "__setstate__", spying_setstate)
        assert store.load(key) is None
        assert revived == []  # rejected on the header, before any payload byte is read

        # Relabelled as current, the old layout still has no reader: it degrades to a
        # miss instead of coming back as a result whose ``values`` is ``None``.
        store.path_for(key).write_bytes(
            self._parent_frame(entry, monkeypatch, version=store_module._VERSION)
        )
        assert store.load(key) is None
        assert revived and {"perf", "avail", "cost", "values"} <= set(revived[0])

    def test_service_over_a_parent_store_searches_once_then_serves_from_the_journal(
        self, tmp_path, tiny_learned_atlas, monkeypatch
    ):
        store, key, _entry, cold = self._store_with_parent_journal(
            tmp_path, tiny_learned_atlas, monkeypatch
        )
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
        assert all(q.values is not None and q.names for q in warm.result.pareto)


class TestAgentlessResultFramesMiss:
    """Store version 4: a ``SearchResult`` names the crossover agent it bred with
    (``agent`` + ``agent_digest``; the journal keeps the digest, the agent is its own
    object).  A version-3 entry has neither field and must be a clean miss."""

    KWARGS = {"expected_scale": 2.0}

    def test_version_3_entry_misses_and_is_searched_once_more(
        self, tmp_path, tiny_learned_atlas, monkeypatch
    ):
        store = ArtifactStore(tmp_path / "store")
        writer = AdvisorService(store=store)
        cold = writer.recommend(_clone(tiny_learned_atlas), **self.KWARGS)
        key = ("journal",) + writer._request_key(tiny_learned_atlas, self.KWARGS)
        entry = store.load(key)

        def old_getstate(self):
            state = dict(self.__dict__)
            del state["agent"], state["agent_digest"]
            return state

        with monkeypatch.context() as patch:
            patch.setattr(SearchResult, "__getstate__", old_getstate, raising=False)
            payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"agent_digest" not in payload
        header = f"atlas-store/3 {hashlib.sha256(payload).hexdigest()} {len(payload)}\n"
        store.path_for(key).write_bytes(header.encode("ascii") + payload)

        revived = []

        def spying_setstate(self, state):
            revived.append(sorted(state))
            self.__dict__.update(state)

        monkeypatch.setattr(SearchResult, "__setstate__", spying_setstate, raising=False)
        assert store.load(key) is None
        assert revived == []  # rejected on the header, before any payload byte is read

        upgraded = AdvisorService(store=store)
        again = upgraded.recommend(_clone(tiny_learned_atlas), **self.KWARGS)
        assert upgraded.stats()["journal"] == {"hits": 0, "misses": 1}  # one more search
        assert front_digest(again) == front_digest(cold)
        assert store.path_for(key).read_bytes().startswith(CURRENT_FRAME)  # written back

        _poison_search(monkeypatch)
        loaded = []
        real_load = ArtifactStore.load
        monkeypatch.setattr(
            ArtifactStore, "load", lambda self, k: loaded.append(k[0]) or real_load(self, k)
        )
        restarted = AdvisorService(store=store)
        warm = restarted.recommend(_clone(tiny_learned_atlas), **self.KWARGS)
        assert restarted.stats()["journal"] == {"hits": 1, "misses": 0}
        assert front_digest(warm) == front_digest(cold)
        assert revived and {"agent", "agent_digest"} <= set(revived[-1])
        # The revive read the digest, not the agent: that object is for who asks.
        assert ("agent", cold.result.agent_digest) in store
        assert "journal" in loaded and "agent" not in loaded
        assert warm.result.agent is None
        assert warm.result.agent_digest == cold.result.agent_digest is not None


class TestDurableJournal:
    def test_warm_restart_revives_without_search(
        self, tmp_path, tiny_learned_atlas, monkeypatch
    ):
        store_dir = tmp_path / "store"
        cold_service = AdvisorService(store=ArtifactStore(store_dir))
        cold = cold_service.recommend(_clone(tiny_learned_atlas), expected_scale=2.0)
        assert cold_service.stats()["journal"] == {"hits": 0, "misses": 1}

        # "New process": fresh service, fresh cache, fresh atlas — search poisoned.
        _poison_search(monkeypatch)
        warm_service = AdvisorService(store=ArtifactStore(store_dir))
        warm = warm_service.recommend(_clone(tiny_learned_atlas), expected_scale=2.0)
        assert front_digest(warm) == front_digest(cold)
        assert warm_service.stats()["journal"] == {"hits": 1, "misses": 0}

        # The revived recommendation is live: previews come from a real evaluator
        # whose compiled artifacts stream in from the store, not a recompile.
        knee = warm.knee_point().plan
        cold_preview = cold.latency_preview(knee)
        warm_preview = warm.latency_preview(knee)
        assert sorted(warm_preview) == sorted(cold_preview)
        for api, estimate in warm_preview.items():
            assert list(estimate.estimated_latencies_ms) == list(
                cold_preview[api].estimated_latencies_ms
            )
        assert warm_service.cache.stats()["store_hits"] > 0

    def test_store_written_under_warm_learn_memos_serves_a_memoless_restart(
        self, tmp_path, tiny_telemetry, monkeypatch
    ):
        """Shape memos and the trace census never reach a key or a frame: a store
        written by an advisor that learned with them warm is hit by one that learned
        from re-read telemetry (what a frame written before they existed holds), and
        the memos never asked for a frame version of their own (3 was the result
        shape's, 4 the agent's, 5 the packed archive's and splice state's, 6 that of
        a ``SearchResult`` one field shorter, 7 that of a ``CompiledTraceSet``
        without fragments:
        ``TestOldResultLayoutFramesMiss``, ``TestAgentlessResultFramesMiss``,
        ``test_durable_forms.TestVersion4FramesMiss``)."""
        app, result = tiny_telemetry

        def learned(telemetry):
            atlas = Atlas(
                app,
                MigrationPreferences.pin_on_prem(["Database"]),
                config=AtlasConfig(traces_per_api=15, ga=TINY_GA),
            )
            atlas.learn(telemetry)
            return atlas

        learned(result.telemetry)  # census and every shape memo warm from here on
        assert result.telemetry.traces._census is not None
        store_dir = tmp_path / "store"
        writer = AdvisorService(store=ArtifactStore(store_dir))
        cold = writer.recommend(learned(result.telemetry), expected_scale=2.0)
        assert writer.stats()["journal"] == {"hits": 0, "misses": 1}
        assert store_module._VERSION == 13
        frames = list(store_dir.rglob("*.art"))
        assert frames and all(f.read_bytes().startswith(CURRENT_FRAME) for f in frames)
        assert not any(b"_shape" in f.read_bytes() for f in frames)

        _poison_search(monkeypatch)
        reread = copy.deepcopy(result.telemetry)
        assert reread.traces._census is None
        reader = AdvisorService(store=ArtifactStore(store_dir))
        warm = reader.recommend(learned(reread), expected_scale=2.0)
        assert reader.stats()["journal"] == {"hits": 1, "misses": 0}
        assert front_digest(warm) == front_digest(cold)
        warm.latency_preview(warm.knee_point().plan)
        assert reader.cache.stats()["store_hits"] > 0  # compiled sets loaded, not rebuilt

    def test_corrupted_journal_falls_back_to_cold_search(
        self, tmp_path, tiny_learned_atlas
    ):
        store_dir = tmp_path / "store"
        service = AdvisorService(store=ArtifactStore(store_dir))
        cold = service.recommend(_clone(tiny_learned_atlas), expected_scale=2.0)
        for art in store_dir.rglob("*.art"):
            art.write_bytes(b"garbage")
        fallback_service = AdvisorService(store=ArtifactStore(store_dir))
        again = fallback_service.recommend(_clone(tiny_learned_atlas), expected_scale=2.0)
        assert fallback_service.stats()["journal"] == {"hits": 0, "misses": 1}
        assert front_digest(again) == front_digest(cold)  # determinism, not memory

    def test_storeless_service_has_no_journal_stats(self, tiny_learned_atlas):
        service = AdvisorService()
        assert "journal" not in service.stats()


# -- the continuous re-planning loop ----------------------------------------------------------
@pytest.fixture(scope="module")
def daemon_script(tiny_learned_atlas):
    """A deterministic 2-cycle monitor script: on-model, then one API drifts hard.

    Cycle 1 reports exactly the advisor's own latency preview (baselines become
    zero-divergence). Cycle 2 inflates one API's latencies 6x and supplies a
    re-profiled trace window for it — guaranteed drift on that API only, in any
    process that replays the script.
    """
    atlas = _clone(tiny_learned_atlas)
    rec = AdvisorService().recommend(atlas, expected_scale=2.0)
    knee = rec.knee_point().plan
    preview = {
        api: [float(x) for x in estimate.estimated_latencies_ms]
        for api, estimate in rec.latency_preview(knee).items()
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
    samples = [
        MonitorSample(recent_latencies=preview),
        MonitorSample(recent_latencies=drifted, traces_by_api={target: window}),
    ]
    return target, samples


def _make_daemon(store_dir, atlas, samples):
    service = AdvisorService(store=ArtifactStore(store_dir)) if store_dir else AdvisorService()
    daemon = AdvisorDaemon(service, ScriptedMonitor({"web": samples}), name="t")
    daemon.register("web", atlas, expected_scale=2.0)
    return daemon


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory, tiny_learned_atlas, daemon_script):
    """The uninterrupted 3-cycle run every kill-and-restart case must reproduce."""
    _, samples = daemon_script
    daemon = _make_daemon(
        tmp_path_factory.mktemp("ref-store"), _clone(tiny_learned_atlas), samples
    )
    reports = [daemon.run_cycle()[0] for _ in range(3)]
    return daemon, reports


class _Crash(RuntimeError):
    pass


def _kill_after_poll(daemon, victim=None):
    """Make ``daemon`` die between a poll and whatever it would publish next: its
    monitor answers (``victim``, or whoever asks) and the process is gone."""
    poll = daemon.monitor.poll

    def polled_then_killed(tenant, cycle):
        sample = poll(tenant, cycle)
        if victim is None or tenant == victim:
            raise _Crash("poll")
        return sample

    daemon.monitor.poll = polled_then_killed


class TestAdvisorDaemon:
    def test_continuous_replanning_flow(self, reference_run, daemon_script):
        daemon, (bootstrap, drift, idle) = reference_run
        target, _ = daemon_script
        # Cycle 1: no baselines yet -> poll feeds a first recommendation round.
        assert bootstrap.stages == ["poll", "recommend"]
        assert bootstrap.recommended and not bootstrap.drifted
        # Cycle 2: drift on exactly the scripted API -> splice -> re-recommend.
        assert drift.stages == ["poll", "drift", "splice", "recertify", "recommend"]
        assert drift.drifted == [target] and drift.spliced == [target]
        assert drift.recommended
        # The re-plan started from the front cycle 1 served; the bootstrap from nothing.
        assert (drift.prior, drift.prior_reason) == ("served front", None)
        assert bootstrap.prior is None and bootstrap.prior_reason is None
        assert drift.front_sha is not None
        # Cycle 3: the script is exhausted -> idle, loop state stays 'done'.
        assert idle.idle and not idle.stages[1:]
        record = daemon.record("web")
        assert record["front_sha"] == drift.front_sha
        assert record["stage"] == "done" and record["cycle"] == 3
        assert record["executed"] is not None and record["detector"] is not None

    def test_on_model_cycle_stops_at_drift(self, tmp_path, tiny_learned_atlas, daemon_script):
        _, samples = daemon_script
        on_model = [samples[0], MonitorSample(recent_latencies=samples[0].recent_latencies)]
        daemon = _make_daemon(tmp_path / "store", _clone(tiny_learned_atlas), on_model)
        bootstrap, steady = [daemon.run_cycle()[0] for _ in range(2)]
        assert bootstrap.recommended
        assert steady.stages == ["poll", "drift"]
        assert not steady.drifted and not steady.recommended
        assert daemon.record("web")["front_sha"] == bootstrap.front_sha

    def test_storeless_daemon_still_loops(self, tiny_learned_atlas, daemon_script):
        _, samples = daemon_script
        daemon = _make_daemon(None, _clone(tiny_learned_atlas), samples)
        bootstrap = daemon.run_cycle()[0]
        assert bootstrap.recommended

    @staticmethod
    def _killed_in_cycle_two(store_dir, atlas, samples, crash_stage):
        """A store left behind by a daemon that died in cycle 2 (cycle 1 bootstrapped
        cleanly): right after the document ``crash_stage`` published, or — ``"poll"``,
        which publishes none — right after the monitor answered."""
        daemon = _make_daemon(store_dir, _clone(atlas), samples)
        daemon.run_cycle()

        def bomb(tenant, stage):
            if stage == crash_stage:
                raise _Crash(stage)

        daemon._after_stage = bomb
        if crash_stage == "poll":
            _kill_after_poll(daemon)
        with pytest.raises(_Crash):
            daemon.run_cycle()

    @pytest.mark.parametrize("crash_stage", ["poll", "drift", "splice", "recommend"])
    def test_kill_after_any_checkpoint_resumes_bitwise(
        self,
        tmp_path,
        tiny_learned_atlas,
        daemon_script,
        reference_run,
        crash_stage,
        monkeypatch,
    ):
        target, samples = daemon_script
        uninterrupted, (bootstrap, reference, _) = reference_run
        assert (bootstrap.agent, reference.agent) == ("trained", "reused")
        store_dir = tmp_path / "store"
        self._killed_in_cycle_two(store_dir, tiny_learned_atlas, samples, crash_stage)

        # "Process restart": everything in memory is gone — new service, cache,
        # daemon and a freshly learned (cloned) atlas over the same store.  The
        # agent is part of what resumes: training one now would be a different run.
        def no_training(self):
            raise AssertionError("a resumed drift cycle must reuse the stored agent")

        monkeypatch.setattr(AtlasGA, "train_agent", no_training)
        resumed = _make_daemon(store_dir, _clone(tiny_learned_atlas), samples)
        report = resumed.run_cycle()[0]
        record = resumed.record("web")
        assert record["front_sha"] == reference.front_sha
        assert record["agent"] == uninterrupted.record("web")["agent"] is not None
        assert record["executed"] is not None
        if crash_stage == "recommend":
            # The cycle had completed; the resumed process just finds it done.
            assert report.idle and report.cycle == 3 and report.agent is None
        else:
            assert report.cycle == 2 and report.recommended
            assert report.front_sha == reference.front_sha
            assert (report.agent, report.agent_reason) == ("reused", None)
            # ...and started from the front cycle 1 served, read back from the store.
            assert (report.prior, report.prior_reason) == ("served front", None)
            # The resumed compile streamed the untouched APIs from the store.
            assert resumed.service.cache.stats()["store_hits"] > 0
            if crash_stage == "poll":
                # No document named cycle 2: it is polled again and runs whole,
                # and its report is the uninterrupted run's, field for field.
                assert report == reference

    def test_after_a_drift_cycle_the_tenant_request_is_a_memo_hit(self, reference_run):
        daemon, (bootstrap, drift, _) = reference_run
        assert (bootstrap.agent, bootstrap.agent_reason) == ("trained", None)
        assert (drift.agent, drift.agent_reason) == ("reused", None)
        service, atlas = daemon.service, daemon._tenants["web"].atlas
        record = daemon.record("web")
        before = service.stats()["recommendations"]
        answer = service.recommend(atlas, expected_scale=2.0)
        after = service.stats()["recommendations"]
        assert after["hits"] == before["hits"] + 1 and after["misses"] == before["misses"]
        assert front_digest(answer) == record["front_sha"]
        assert answer.result.agent_digest == record["agent"]
        assert answer.result.agent is atlas.knowledge.crossover_agent

        # One store object for the one agent; journal entries carry its digest only.
        agent_path = service.store.path_for(("agent", record["agent"]))
        others = [p for p in service.store.root.rglob("*.art") if p != agent_path]
        assert all(p.stat().st_size < agent_path.stat().st_size for p in others)
        entry = service.store.load(
            ("journal",) + service._request_key(atlas, {"expected_scale": 2.0})
        )
        assert entry["result"].agent is None
        assert entry["result"].agent_digest == record["agent"]

    def test_a_recertificate_leaves_a_content_equal_tenants_answer_alone(
        self, tiny_learned_atlas, daemon_script
    ):
        # Two tenants of equal content share the memo's answer; one drifts and is
        # re-certified, the other stays on model.
        target, (on_model, drifted) = daemon_script
        drifted = dataclasses.replace(
            drifted, scenario=default_scenario(tiny_learned_atlas.application)
        )
        kwargs = {"expected_scale": 2.0, "certify": 6}
        service = AdvisorService()
        monitor = ScriptedMonitor(
            {"drifter": [on_model, drifted], "bystander": [on_model, on_model]}
        )
        daemon = AdvisorDaemon(service, monitor, name="t", certify_budget=6)
        bystander = _clone(tiny_learned_atlas)
        daemon.register("drifter", _clone(tiny_learned_atlas), **kwargs)
        daemon.register("bystander", bystander, **kwargs)
        daemon.run_cycle()

        def seen(answer):
            certificate = answer.certificate
            previews = answer.latency_preview(answer.knee_point().plan)
            return (
                repr(certificate.worst_spec.compile_key()),
                [float(v).hex() for v in certificate.worst_values],
                float(certificate.worst_regret).hex(),
                sorted(
                    (api, [float(v).hex() for v in estimate.estimated_latencies_ms])
                    for api, estimate in previews.items()
                ),
            )

        served = service.recommend(bystander, **kwargs)
        certificate, before = served.certificate, seen(served)
        reports = {report.tenant: report for report in daemon.run_cycle()}
        drift = reports["drifter"]
        assert drift.spliced == [target] and drift.recertified
        assert drift.certificate is not None and drift.certificate is not certificate
        assert reports["bystander"].stages == ["poll", "drift"]
        again = service.recommend(bystander, **kwargs)
        assert again is served and again.certificate is certificate
        assert seen(again) == before
        # What the bystander's own knowledge answers, recommended afresh.
        assert seen(_clone(bystander).recommend(**kwargs)) == before

    @pytest.mark.parametrize("knee", ["kept", "moved"])
    def test_a_drift_cycle_certifies_each_plan_once(
        self, tiny_learned_atlas, daemon_script, adversary_runs, knee, monkeypatch
    ):
        """The ``recommend`` stage reads the certificate the ``recertify`` stage kept
        when the re-plan's knee is the executed plan; otherwise it certifies its own.
        The cycle decides drift once and splices no model: the re-certificate runs on
        an evaluator built over the knowledge the ``splice`` stage changed."""
        target, (on_model, drifted) = daemon_script
        scenario = default_scenario(tiny_learned_atlas.application)
        drifted = dataclasses.replace(drifted, scenario=scenario)
        kwargs = {"expected_scale": 2.0, "certify": 6}
        service = AdvisorService()
        daemon = AdvisorDaemon(
            service, ScriptedMonitor({"web": [on_model, drifted]}), name="t", certify_budget=6
        )
        atlas = _clone(tiny_learned_atlas)
        daemon.register("web", atlas, **kwargs)
        daemon.run_cycle()
        components = daemon.record("web")["components"]
        executed = MigrationPlan.from_vector(components, daemon.record("web")["executed"])
        if knee == "moved":
            # The tiny app keeps its knee through any drift: the owner running another
            # plan is what parts it from the re-plan's knee.
            executed = executed.with_location(components[-1], 1)
            daemon._records["web"]["executed"] = executed.to_vector()

        calls = []

        def counted(owner, name):
            real = getattr(owner, name)

            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)

        counted(DriftDetector, "check_all")
        counted(ApiPerformanceModel, "splice")
        del adversary_runs[:]
        (report,) = daemon.run_cycle()
        runs = list(adversary_runs)
        assert calls == ["check_all"]
        assert report.spliced == [target] and report.recertified
        served = service.recommend(atlas, **kwargs)
        replanned = served.knee_point().plan
        assert (dict(replanned) == dict(executed)) == (knee == "kept")
        assert runs == ([executed] if knee == "kept" else [executed, replanned])
        if knee == "kept":
            assert served.certificate is report.certificate

        # What a run with no cache certifies over the spliced knowledge.
        def cold(plan):
            return certified(
                atlas.certify_plan(atlas.build_evaluator(expected_scale=2.0), plan, budget=6)
            )

        assert certified(report.certificate) == cold(executed)
        assert certified(served.certificate) == cold(replanned)

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    def test_a_failing_recertificate_costs_the_stage_and_a_defect_propagates(
        self, tiny_learned_atlas, daemon_script, error, monkeypatch
    ):
        """A tenant failure (``TENANT_FAILURES``) inside ``recertify`` leaves no
        certificate, keeps the traceback in ``last_error`` and goes on to
        ``recommend``; any other exception is a defect of the loop and leaves
        ``run_cycle``."""
        _, (on_model, drifted) = daemon_script
        drifted = dataclasses.replace(
            drifted, scenario=default_scenario(tiny_learned_atlas.application)
        )
        daemon = AdvisorDaemon(
            AdvisorService(),
            ScriptedMonitor({"web": [on_model, drifted]}),
            name="t",
            certify_budget=6,
        )
        daemon.register("web", _clone(tiny_learned_atlas), expected_scale=2.0, certify=6)
        daemon.run_cycle()

        def failing(self, *args, **kwargs):
            raise error("recertify failed")

        monkeypatch.setattr(Atlas, "recertify", failing)
        if error is RuntimeError:
            with pytest.raises(RuntimeError, match="recertify failed"):
                daemon.run_cycle()
            return
        (report,) = daemon.run_cycle()
        assert report.certificate is None and report.error is None
        assert "ValueError: recertify failed" in daemon.last_error
        assert report.stages[-2:] == ["recertify", "recommend"] and report.recommended

    def test_lost_agent_object_degrades_to_training(
        self, tmp_path, tiny_learned_atlas, daemon_script
    ):
        _, samples = daemon_script
        store_dir = tmp_path / "store"
        self._killed_in_cycle_two(store_dir, tiny_learned_atlas, samples, "splice")
        resumed = _make_daemon(store_dir, _clone(tiny_learned_atlas), samples)
        agent_key = ("agent", resumed.record("web")["agent"])
        assert agent_key in resumed.store
        resumed.store.discard(agent_key)
        report = resumed.run_cycle()[0]
        assert report.error is None and report.recommended and report.cycle == 2
        assert (report.agent, report.agent_reason) == ("trained", "agent object lost")
        record = resumed.record("web")
        assert record["stage"] == "done" and record["front_sha"] == report.front_sha
        assert record["agent"] is not None and ("agent", record["agent"]) in resumed.store

    def test_checkpoint_written_before_records_named_an_agent_resumes(
        self, tmp_path, tiny_learned_atlas, daemon_script
    ):
        """A tenant document whose record has no ``"agent"`` takes the default and
        its next drift cycle trains, saying why."""
        _, samples = daemon_script
        store_dir = tmp_path / "store"
        daemon = _make_daemon(store_dir, _clone(tiny_learned_atlas), samples)
        daemon.run_cycle()
        (name,) = daemon.store.state_names("daemon-t")
        document = daemon.store.load_state(name)
        assert document["version"] == 2 and document["tenant"] == "web"
        assert document["record"].pop("agent")
        daemon.store.save_state(name, document)

        resumed = _make_daemon(store_dir, _clone(tiny_learned_atlas), samples)
        assert resumed.record("web")["agent"] is None
        assert resumed.record("web")["front_sha"] == daemon.record("web")["front_sha"]
        report = resumed.run_cycle()[0]
        assert report.stages[-1] == "recommend" and report.error is None
        assert (report.agent, report.agent_reason) == ("trained", "no previous answer")

    def test_lost_sample_abandons_cycle_without_crashing(
        self, tmp_path, tiny_learned_atlas, daemon_script
    ):
        _, samples = daemon_script
        store_dir = tmp_path / "store"
        daemon = _make_daemon(store_dir, _clone(tiny_learned_atlas), samples)
        daemon.run_cycle()

        def bomb(tenant, stage):
            if stage == "drift":  # the first document of a drift cycle: sample on disk
                raise _Crash(stage)

        daemon._after_stage = bomb
        with pytest.raises(_Crash):
            daemon.run_cycle()
        assert daemon.store.load(("daemon-sample", "t", "web", 2)) is not None
        for art in store_dir.rglob("*.art"):  # wipe every object, keep the state tier
            art.unlink()
        resumed = _make_daemon(store_dir, _clone(tiny_learned_atlas), samples)
        report = resumed.run_cycle()[0]
        assert report.error == "persisted sample lost; cycle abandoned"
        assert not report.recommended and report.stages == []
        assert resumed.record("web")["stage"] == "done"
