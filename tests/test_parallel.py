"""The parallel island-search test harness: equivalence, determinism, crash safety.

Four pillars, mirroring the determinism contract in ``optimizer/parallel.py``:

1. **Merge law** (property-based): :func:`merge_fronts` over any partition of items
   into per-island fronts equals one :func:`pareto_front` over the union — same
   dominance rule, same first-occurrence dedup, same order.  This is what makes the
   parent's K-dim merge of per-island fronts trustworthy.
2. **Cross-process determinism**: the same ``(seed, islands, migration_period)``
   reproduces the identical ``SearchResult`` fingerprint across two full runs of
   the Atlas GA (the W=4 variant is ``slow``-marked).
3. **Crash safety**: a worker that dies — clean exception, ``os._exit``, or a
   SIGKILL — surfaces promptly as :class:`ParallelSearchError`, never as a hang.
4. **Shared-memory arena**: round-trip fidelity, chunking and release of
   :class:`ShmArena`, and the budget/seed derivation laws of the island configs.
"""

import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest
from fingerprints import build_tiny_evaluator, fingerprint_search_result
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer import AtlasGA, GAConfig, merge_fronts, pareto_front
from repro.optimizer.parallel import (
    ParallelSearchError,
    ShmArena,
    derive_island_config,
    derive_seed,
    run_forked,
)

#: Uniform crossover skips DRL training, keeping the forked runs fast; the DRL
#: path's serial identity is already pinned by the golden-fingerprint suite.
PARALLEL_GA = GAConfig(
    population_size=16,
    offspring_per_generation=8,
    evaluation_budget=220,
    max_generations=9,
    crossover="uniform",
    migration_period=3,
    migration_elites=2,
    seed=13,
)


# -- 1. the merge law ------------------------------------------------------------------------
def _partition_strategy(values):
    """Strategy: (fronts, union) where fronts partition a list of K-dim tuples."""
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.lists(
            st.lists(st.tuples(*[values] * k), min_size=0, max_size=8),
            min_size=0,
            max_size=5,
        )
    )


class TestMergeLaw:
    @settings(max_examples=200, deadline=None)
    @given(fronts=_partition_strategy(st.integers(0, 3).map(float)))
    def test_merge_equals_pareto_front_over_union_tie_heavy(self, fronts):
        """Integer-valued objectives force duplicates, ties and dominance chains."""
        union = [item for front in fronts for item in front]
        assert merge_fronts(fronts, key=lambda t: t) == pareto_front(
            union, key=lambda t: t
        )

    @settings(max_examples=200, deadline=None)
    @given(
        fronts=_partition_strategy(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
        )
    )
    def test_merge_equals_pareto_front_over_union_floats(self, fronts):
        union = [item for front in fronts for item in front]
        assert merge_fronts(fronts, key=lambda t: t) == pareto_front(
            union, key=lambda t: t
        )

    def test_merge_preserves_item_identity_not_just_values(self):
        """Distinct items with identical objectives: first occurrence survives."""
        a, b = {"id": "a", "obj": (1.0, 2.0)}, {"id": "b", "obj": (1.0, 2.0)}
        merged = merge_fronts([[a], [b]], key=lambda item: item["obj"])
        assert merged == [a]

    def test_merge_evicts_dominated_survivors(self):
        fronts = [[(2.0, 2.0)], [(3.0, 0.0)], [(1.0, 1.0)]]
        assert merge_fronts(fronts, key=lambda t: t) == [(3.0, 0.0), (1.0, 1.0)]

    def test_merge_of_nothing(self):
        assert merge_fronts([], key=lambda t: t) == []
        assert merge_fronts([[], []], key=lambda t: t) == []


# -- 2. cross-process determinism ------------------------------------------------------------
@pytest.fixture(scope="module")
def stack(tiny_telemetry):
    app, result = tiny_telemetry
    return app, result.telemetry


def _run_parallel_ga(app, telemetry, islands):
    evaluator = build_tiny_evaluator(app, telemetry)
    return AtlasGA(
        evaluator, app.component_names, config=PARALLEL_GA, islands=islands
    ).run()


class TestCrossProcessDeterminism:
    def test_two_islands_reproduce_fingerprint(self, stack):
        app, telemetry = stack
        first = _run_parallel_ga(app, telemetry, islands=2)
        second = _run_parallel_ga(app, telemetry, islands=2)
        assert fingerprint_search_result(first) == fingerprint_search_result(second)
        # Parallel result-shape contract (see run_island_search's docstring).
        assert first.training_history is None
        assert first.pareto and first.evaluations > 0

    @pytest.mark.slow
    def test_four_islands_reproduce_fingerprint(self, stack):
        app, telemetry = stack
        first = _run_parallel_ga(app, telemetry, islands=4)
        second = _run_parallel_ga(app, telemetry, islands=4)
        assert fingerprint_search_result(first) == fingerprint_search_result(second)

    def test_pareto_front_is_mutually_nondominated(self, stack):
        app, telemetry = stack
        result = _run_parallel_ga(app, telemetry, islands=2)
        for a in result.pareto:
            for b in result.pareto:
                if a is not b:
                    assert not a.dominates(b)

    def test_unshardable_budget_is_rejected(self, stack):
        app, telemetry = stack
        # 18 clears GAConfig's own budget > population check, but the per-island
        # share (18 // 4 = 4) no longer exceeds the island population of 4.
        tiny_budget = replace(PARALLEL_GA, evaluation_budget=18)
        ga = AtlasGA(
            build_tiny_evaluator(app, telemetry),
            app.component_names,
            config=tiny_budget,
            islands=4,
        )
        with pytest.raises(ValueError, match="too small to shard"):
            ga.run()


# -- 3. crash safety -------------------------------------------------------------------------
def _sleep_forever():
    time.sleep(600)


def _exit_dirty():
    os._exit(3)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _raise_runtime_error():
    raise RuntimeError("worker blew up")


class TestCrashSafety:
    def test_clean_exit_zero_succeeds(self):
        run_forked([lambda: None, lambda: None])

    def test_nonzero_exit_surfaces_promptly(self):
        start = time.monotonic()
        with pytest.raises(ParallelSearchError, match="exit code 3"):
            run_forked([_sleep_forever, _exit_dirty], label="stub")
        assert time.monotonic() - start < 30.0

    def test_killed_worker_surfaces_promptly_not_hang(self):
        start = time.monotonic()
        with pytest.raises(ParallelSearchError):
            run_forked([_sleep_forever, _kill_self], label="stub")
        assert time.monotonic() - start < 30.0

    def test_unhandled_exception_surfaces(self):
        with pytest.raises(ParallelSearchError, match="exit code 1"):
            run_forked([_raise_runtime_error])

    def test_timeout_surfaces(self):
        start = time.monotonic()
        with pytest.raises(ParallelSearchError, match="timed out"):
            run_forked([_sleep_forever], timeout=0.5)
        assert time.monotonic() - start < 30.0

    def test_crashed_island_surfaces_through_search(self, stack, monkeypatch):
        """A worker dying mid-search raises ParallelSearchError in the parent."""
        app, telemetry = stack
        monkeypatch.setattr(
            AtlasGA, "_run_serial", lambda self: (_ for _ in ()).throw(RuntimeError)
        )
        ga = AtlasGA(
            build_tiny_evaluator(app, telemetry),
            app.component_names,
            config=PARALLEL_GA,
            islands=2,
        )
        start = time.monotonic()
        with pytest.raises(ParallelSearchError):
            ga.run()
        assert time.monotonic() - start < 60.0


# -- 4. shared-memory arena and config derivation --------------------------------------------
class TestShmArena:
    def test_share_roundtrip_preserves_everything(self):
        arena = ShmArena()
        try:
            for dtype in (np.float64, np.int64, np.intp, bool):
                original = (np.arange(24).reshape(4, 6) % 3).astype(dtype)
                view = arena.share(original)
                assert view.dtype == original.dtype
                assert view.shape == original.shape
                np.testing.assert_array_equal(view, original)
                assert view is not original
        finally:
            arena.release()

    def test_views_are_64_byte_aligned(self):
        arena = ShmArena()
        try:
            for _ in range(5):
                view = arena.empty((7,), np.float64)
                address = view.__array_interface__["data"][0]
                assert address % 64 == 0
        finally:
            arena.release()

    def test_chunking_bounds_segment_count(self):
        arena = ShmArena(chunk_bytes=1 << 16)
        try:
            for _ in range(100):
                arena.empty((16,), np.float64)
            # 100 x 128 aligned bytes fit in a single 64 KiB chunk.
            assert arena.n_segments == 1
            # An allocation bigger than the chunk gets its own segment.
            arena.empty((1 << 14,), np.float64)
            assert arena.n_segments == 2
        finally:
            arena.release()

    def test_release_is_idempotent(self):
        arena = ShmArena()
        arena.empty((8,), np.float64)
        arena.release()
        arena.release()
        assert arena.n_segments == 0

    def test_zero_size_allocation(self):
        arena = ShmArena()
        try:
            view = arena.empty((0,), np.float64)
            assert view.size == 0
        finally:
            arena.release()


class TestIslandDerivation:
    def test_derived_seeds_are_distinct(self):
        seeds = [derive_seed(13, worker) for worker in range(8)]
        assert len(set(seeds)) == 8
        assert all(seed != 13 for seed in seeds)

    def test_island_config_shards_population_and_budget(self):
        config = GAConfig(
            population_size=100,
            offspring_per_generation=50,
            evaluation_budget=10_000,
            immigrants_per_generation=10,
            seed=13,
        )
        derived = [derive_island_config(config, i, 4) for i in range(4)]
        assert all(d.islands == 1 for d in derived)
        assert all(d.population_size == 25 for d in derived)
        assert all(d.offspring_per_generation == 12 for d in derived)
        assert all(d.evaluation_budget == 2_500 for d in derived)
        assert len({d.seed for d in derived}) == 4

    def test_island_budget_is_offset_by_preexisting_evaluations(self):
        config = GAConfig(evaluation_budget=10_000, seed=13)
        derived = derive_island_config(config, 0, 4, base_evaluations=2_000)
        # The serial loop compares against the inherited absolute counter.
        assert derived.evaluation_budget == 2_000 + (10_000 - 2_000) // 4

    def test_single_island_rejected(self):
        with pytest.raises(ValueError):
            derive_island_config(GAConfig(), 0, 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GAConfig(islands=0)
        with pytest.raises(ValueError):
            GAConfig(migration_period=0)
        with pytest.raises(ValueError):
            GAConfig(migration_elites=0)
