"""Island-model parallel search with shared-memory migration and result channels.

The GA population is sharded into W independent subpopulations ("islands"), each
running the unmodified serial loop of :class:`~repro.optimizer.atlas_ga.AtlasGA` in a
forked worker process.  A worker inherits the parent's evaluator — models, compiled
trace sets, result cache — through ``fork`` (copy-on-write; whatever the parent had
not compiled yet each island compiles for itself) and scores candidate plans through
``QualityEvaluator.evaluate_vectors``: no plan, trace or model is ever pickled.

Cross-island communication goes through :class:`ShmArena`-backed plan matrices:

* **Migration** — every ``migration_period`` generations the islands meet at a
  barrier and exchange their top ``migration_elites`` plans on a fixed ring
  (island *i* receives from island *(i-1) mod W*).  The schedule is a fixed number
  of epochs computed up front (``max_generations // migration_period``); an island
  whose budget runs out keeps participating with its current elites until the last
  epoch, so the barriers can never deadlock on uneven progress.
* **Results** — each island writes its final Pareto-front plan matrix plus its
  evaluation/generation counters into a per-island result slot; the parent
  re-scores the union through its *own* evaluator (bitwise-identical models, and it
  fills the parent-side cache that scenario reporting reads) and merges the
  per-island fronts with the K-dim :func:`~repro.optimizer.pareto.merge_fronts`.

Determinism contract: a run is a pure function of ``(seed, islands,
migration_period, migration_elites)`` — island seeds and budget shares are derived
deterministically, migration happens at fixed generations with deterministically
selected elites, and the merge iterates islands in ring order.  ``islands=1``
never enters this module: :meth:`AtlasGA.run` dispatches straight to the serial
path, which the golden-fingerprint suite pins byte-for-byte.

Crash safety: workers exit non-zero on any exception (including barrier timeouts),
and the parent's poll loop terminates the remaining workers and raises
:class:`ParallelSearchError` instead of hanging.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import replace
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from .nsga2 import survival_selection
from .pareto import merge_fronts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .atlas_ga import AtlasGA, GAConfig, SearchResult

__all__ = [
    "ParallelSearchError",
    "ShmArena",
    "run_forked",
    "derive_island_config",
    "derive_seed",
    "run_island_search",
]

#: Deterministic per-worker seed stride (a prime, so derived streams never collide
#: with the common "seed, seed+1, ..." experiment sweeps).
SEED_STRIDE = 7919

#: How long one island waits at a migration barrier before declaring the fleet
#: dead (a sibling crashed or hung) and exiting non-zero.
BARRIER_TIMEOUT_S = 300.0

#: Parent-side poll interval while waiting for the workers.
_POLL_INTERVAL_S = 0.05


class ParallelSearchError(RuntimeError):
    """A parallel search could not start or a worker died mid-run."""


class ShmArena:
    """A bump allocator over ``multiprocessing.shared_memory`` segments.

    The parallel searches allocate the plan matrices of their migration and result
    channels here before forking, so parent and workers read and write the same
    pages.  Arrays are packed into large chunks (64-byte aligned) instead of one
    POSIX shm object each.  Fork children inherit the mappings; only the creating
    process should :meth:`release`.
    """

    def __init__(self, chunk_bytes: int = 1 << 24) -> None:
        self._chunk_bytes = int(chunk_bytes)
        self._segments: List[shared_memory.SharedMemory] = []
        self._offset = 0
        self.nbytes = 0

    def _alloc(self, nbytes: int) -> Tuple[shared_memory.SharedMemory, int]:
        offset = (self._offset + 63) & ~63
        if not self._segments or offset + nbytes > self._segments[-1].size:
            size = max(self._chunk_bytes, nbytes)
            self._segments.append(shared_memory.SharedMemory(create=True, size=size))
            offset = 0
        self._offset = offset + nbytes
        self.nbytes += nbytes
        return self._segments[-1], offset

    def empty(self, shape: Sequence[int], dtype) -> np.ndarray:
        """A new shared-memory ndarray (uninitialized)."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        segment, offset = self._alloc(max(nbytes, 1))
        return np.ndarray(tuple(shape), dtype=dtype, buffer=segment.buf, offset=offset)

    def share(self, array: np.ndarray) -> np.ndarray:
        """A shared-memory copy of ``array`` (same shape/dtype/contents)."""
        array = np.ascontiguousarray(array)
        view = self.empty(array.shape, array.dtype)
        view[...] = array
        return view

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    def release(self, unlink: bool = True) -> None:
        """Unlink and unmap every segment (best effort: live views keep their pages)."""
        for segment in self._segments:
            if unlink:
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass
            try:
                segment.close()
            except BufferError:
                # An ndarray view is still alive; the name is already unlinked,
                # the mapping dies with the last view.
                pass
        self._segments = []
        self._offset = 0

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.release()
        except Exception:
            pass


def _entry(task: Callable[[], None]) -> None:
    """Worker process entry point: run the task, exit 0/1, never return."""
    try:
        task()
    except BaseException:
        traceback.print_exc()
        os._exit(1)
    os._exit(0)


def require_fork() -> multiprocessing.context.BaseContext:
    """The fork start method (the only one that shares state without pickling)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ParallelSearchError(
            "parallel search needs the 'fork' start method (unavailable on this "
            "platform); run with islands=1"
        )
    return multiprocessing.get_context("fork")


def run_forked(
    tasks: Sequence[Callable[[], None]],
    timeout: Optional[float] = None,
    label: str = "worker",
) -> None:
    """Run the tasks in forked processes; raise :class:`ParallelSearchError` on failure.

    The parent polls the fleet: the first worker observed dead with a non-zero
    exit code (crash, unhandled exception, or a signal kill) terminates the
    remaining workers immediately — a killed worker surfaces as a clean error,
    never as a hang.  ``timeout`` bounds the whole run.
    """
    ctx = require_fork()
    processes = [ctx.Process(target=_entry, args=(task,), daemon=True) for task in tasks]
    for process in processes:
        process.start()
    deadline = None if timeout is None else time.monotonic() + timeout

    def fail(reason: str) -> None:
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)
        raise ParallelSearchError(reason)

    try:
        while True:
            alive = False
            for index, process in enumerate(processes):
                if process.is_alive():
                    alive = True
                    continue
                process.join()
                if process.exitcode != 0:
                    fail(
                        f"{label} {index} died with exit code {process.exitcode} "
                        f"(see its traceback on stderr)"
                    )
            if not alive:
                return
            if deadline is not None and time.monotonic() > deadline:
                fail(f"{label} pool timed out after {timeout:.0f}s")
            time.sleep(_POLL_INTERVAL_S)
    except BaseException:
        for process in processes:
            if process.is_alive():
                process.terminate()
        raise


def derive_seed(seed: int, worker: int) -> int:
    """The deterministic RNG seed of one worker/island."""
    return int(seed) + SEED_STRIDE * (int(worker) + 1)


def derive_island_config(
    config: "GAConfig", island: int, islands: int, base_evaluations: int = 0
) -> "GAConfig":
    """The per-island :class:`GAConfig`: sharded population/offspring/budget, derived seed.

    The evaluation budget is an *absolute* evaluator-counter bound (the serial loop
    compares ``evaluator.evaluations < budget``), so each island's share is added
    on top of the counter value inherited at fork time.
    """
    if islands < 2:
        raise ValueError("derive_island_config needs islands >= 2")
    population = max(config.population_size // islands, 4)
    offspring = max(config.offspring_per_generation // islands, 2)
    immigrants = (
        -(-config.immigrants_per_generation // islands)
        if config.immigrants_per_generation > 0
        else 0
    )
    share = (config.evaluation_budget - base_evaluations) // islands
    if share <= population:
        raise ValueError(
            f"evaluation budget {config.evaluation_budget} is too small to shard "
            f"across {islands} islands of {population} plans each"
        )
    return replace(
        config,
        islands=1,
        population_size=population,
        offspring_per_generation=offspring,
        immigrants_per_generation=immigrants,
        evaluation_budget=base_evaluations + share,
        seed=derive_seed(config.seed, island),
    )


class _MigrationClient:
    """One island's end of the shared-memory elite-migration ring.

    ``after_generation`` runs at fixed generation numbers; ``drain`` keeps a
    finished island answering the remaining barrier epochs (contributing its
    current elites, discarding what it receives) so slower islands still get
    migrants and nobody deadlocks.
    """

    def __init__(
        self,
        island: int,
        islands: int,
        period: int,
        elites: int,
        total_epochs: int,
        plan_buffer: np.ndarray,
        counts: np.ndarray,
        barrier_a,
        barrier_b,
        timeout: float = BARRIER_TIMEOUT_S,
    ) -> None:
        self.island = island
        self.islands = islands
        self.period = period
        self.elites = elites
        self.total_epochs = total_epochs
        self._plans = plan_buffer
        self._counts = counts
        self._barrier_a = barrier_a
        self._barrier_b = barrier_b
        self._timeout = timeout
        self._epoch = 0
        self._pending: List[List[int]] = []

    def take_migrants(self) -> List[List[int]]:
        pending, self._pending = self._pending, []
        return pending

    def _exchange(self, population, qualities, collect: bool) -> None:
        from .atlas_ga import penalized_objectives

        objectives = [penalized_objectives(q) for q in qualities]
        elite_indices = survival_selection(objectives, min(self.elites, len(population)))
        count = len(elite_indices)
        self._counts[self.island] = count
        for row, index in enumerate(elite_indices):
            self._plans[self.island, row] = np.asarray(population[index], dtype=np.int64)
        self._barrier_a.wait(timeout=self._timeout)
        if collect:
            neighbour = (self.island - 1) % self.islands
            received = int(self._counts[neighbour])
            self._pending = [
                [int(v) for v in row] for row in self._plans[neighbour, :received]
            ]
        self._barrier_b.wait(timeout=self._timeout)
        self._epoch += 1

    def after_generation(self, generation: int, population, qualities) -> None:
        if self._epoch >= self.total_epochs or generation % self.period != 0:
            return
        self._exchange(population, qualities, collect=True)

    def drain(self, population, qualities) -> None:
        while self._epoch < self.total_epochs:
            self._exchange(population, qualities, collect=False)


def run_island_search(ga: "AtlasGA") -> "SearchResult":
    """Run one :class:`AtlasGA` search as ``ga.islands`` forked islands.

    The returned :class:`SearchResult` differs from the serial one only where the
    execution model forces it: ``pareto`` is the K-dim non-dominated merge of the
    per-island fronts (re-scored by the parent evaluator, so every quality carries
    full scenario breakdowns), ``evaluations`` sums the islands' budget spend,
    ``generations`` is the maximum island generation count, ``final_population``
    concatenates the island fronts, ``all_evaluated`` holds the re-scored union
    (shipping every island's full visit log would serialize the search again), and
    ``training_history`` is ``None`` (each island trains its own agent).
    """
    from .atlas_ga import AtlasGA, SearchResult

    start = time.perf_counter()
    ctx = require_fork()
    config = ga.config
    islands = ga.islands
    evaluator = ga.evaluator
    components = ga.components
    base_evaluations = evaluator.evaluations
    preexisting = evaluator.cache_size()
    derived = [
        derive_island_config(config, island, islands, base_evaluations)
        for island in range(islands)
    ]
    seed_shards = [list(ga.seed_vectors[island::islands]) for island in range(islands)]

    n_genes = len(components)
    capacity = max(
        max(island_config.population_size for island_config in derived),
        max((len(shard) for shard in seed_shards), default=0),
        1,
    )
    elites = max(int(config.migration_elites), 1)
    period = max(int(config.migration_period), 1)
    total_epochs = config.max_generations // period

    channels = ShmArena(chunk_bytes=1 << 20)
    try:
        migration_plans = channels.empty((islands, elites, n_genes), np.int64)
        migration_counts = channels.empty((islands,), np.int64)
        migration_counts[:] = 0
        result_plans = channels.empty((islands, capacity, n_genes), np.int64)
        result_counts = channels.empty((islands,), np.int64)
        result_counts[:] = 0
        result_stats = channels.empty((islands, 3), np.int64)
        result_stats[:] = 0
        barrier_a = ctx.Barrier(islands)
        barrier_b = ctx.Barrier(islands)

        def make_task(island: int) -> Callable[[], None]:
            def task() -> None:
                island_ga = AtlasGA(
                    evaluator,
                    components,
                    derived[island],
                    seed_vectors=seed_shards[island],
                    locations=ga.locations,
                )
                island_ga._migration = _MigrationClient(
                    island=island,
                    islands=islands,
                    period=period,
                    elites=elites,
                    total_epochs=total_epochs,
                    plan_buffer=migration_plans,
                    counts=migration_counts,
                    barrier_a=barrier_a,
                    barrier_b=barrier_b,
                )
                result = island_ga._run_serial()
                count = min(len(result.pareto), capacity)
                for row, quality in enumerate(result.pareto[:count]):
                    result_plans[island, row] = np.asarray(
                        quality.plan.to_vector(), dtype=np.int64
                    )
                result_counts[island] = count
                result_stats[island, 0] = result.evaluations - base_evaluations
                result_stats[island, 1] = result.generations
                result_stats[island, 2] = int(result.early_stopped)

            return task

        run_forked(
            [make_task(island) for island in range(islands)],
            label="island",
        )

        island_fronts: List[List] = []
        for island in range(islands):
            count = int(result_counts[island])
            vectors = [
                [int(v) for v in row] for row in result_plans[island, :count]
            ]
            island_fronts.append(
                evaluator.evaluate_vectors(vectors, components) if vectors else []
            )
        evaluations = base_evaluations + int(result_stats[:, 0].sum())
        generations = int(result_stats[:, 1].max())
        early_stopped = bool(result_stats[:, 2].any())
    finally:
        # Drop the local views before unmapping the channel segments.
        migration_plans = migration_counts = None
        result_plans = result_counts = result_stats = None
        channels.release()

    merged = merge_fronts(island_fronts, key=lambda q: q.objectives())
    merged.sort(key=lambda q: q.objectives())
    return SearchResult(
        pareto=merged,
        generations=generations,
        evaluations=evaluations,
        training_history=None,
        wall_clock_s=time.perf_counter() - start,
        all_evaluated=evaluator.evaluated_qualities()[preexisting:],
        final_population=[quality for front in island_fronts for quality in front],
        objective_names=evaluator.problem.objective_names,
        early_stopped=early_stopped,
    )
