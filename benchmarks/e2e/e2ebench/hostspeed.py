"""How fast the host runs while an operation is timed.

The sandbox shares its cores with neighbours: identical work takes 1x to 1.7x
as long from one second to the next, in user time, with no steal reported
(README, "Repeatability").  A wall-clock median then says more about the
neighbours than about the program.  :class:`HostSpeed` runs a fixed slice of
work that has nothing to do with ``repro`` from an interval timer *while* the
operations run; the slice's mean duration over an interval, against its
duration on the quiet host, is the factor by which the host slowed that
interval down.  The harness subtracts the time the slices took and divides
what is left by that factor.

What is timed is the processor time an operation used, not the wall clock: the
two differ by the time the process waited, which here is waiting for ``fsync``,
and on this host that follows the neighbours' disk traffic (3 to 9 ms per
daemon cycle, for minutes at a time).  The wait is reported beside the time,
not in it.

The slice has four parts because no single kind of code slows down like the
advisor does (measured on 80 cold recommends: correlation of the operation's
time with one part 0.83-0.91, with the mean of three 0.96): a bytecode loop,
dispatch-bound calls on small arrays (what scoring three-row matrices is), a
walk through json, pickle, hashing, sorting and dict building (what request
keys, journals and checkpoints are), and a gather from memory the core's own
caches do not hold (what learning and S x P scoring are).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import signal
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

#: Seconds between two slices; a slice takes 0.6-1.0 ms, so 4-7% of the run.
INTERVAL_S = 0.015

#: Milliseconds each part of the slice takes on the quiet 2-vCPU host (5th
#: percentile of 2 900 slices).  Constants, not measured per run: a slow stretch
#: can outlast a run, and then nothing in the run shows the quiet speed.  They
#: set the scale of every reported time and cancel in any comparison of two
#: commits made with the same harness.
REFERENCE_MS = (0.2066, 0.1794, 0.2055, 0.1486)

#: A window with fewer slices than this has no slowdown of its own.
MIN_SLICES = 8

#: A part of a slice counts for at most this many times its quiet duration.  A
#: stall of tens of milliseconds that happens to land inside a 0.2 ms part would
#: otherwise outweigh every other slice of its block (seen: slowdowns of 2.3 and
#: 4.5 among neighbours of 1.2).
PART_LIMIT = 5.0

_ARRAYS = np.random.default_rng(1).random((40, 30))
_INDEX = np.random.default_rng(2).integers(0, 3, size=(40, 27))
_DOCUMENT = {"a": list(range(20)), "b": {"x": 1.5, "y": "abc" * 5, "z": [1.0, 2.0, 3.0]}}
#: 8 MB, gathered from in random order: larger than the core's own caches.
_MEMORY = np.random.default_rng(3).random(1_000_000)
_GATHER = np.random.default_rng(4).integers(0, _MEMORY.size, size=(8, 12_000))


def _loop() -> int:
    total = 0
    for number in range(3500):
        total += number * number % 7
    return total


def _arrays() -> float:
    total = 0.0
    for row in _ARRAYS[:28]:
        total += float((_ARRAYS <= row).all(axis=1).sum())
    return total


def _library() -> int:
    total = 0
    for k in range(2):
        text = json.dumps(_DOCUMENT)
        blob = pickle.dumps((json.loads(text), _INDEX[k]), protocol=4)
        digest = hashlib.sha256(blob).hexdigest()
        rows = [tuple(row) for row in _ARRAYS[k : k + 8, :3].tolist()]
        rows.sort(key=lambda row: (row[1], row[0]))
        table = {row: (position, digest) for position, row in enumerate(rows)}
        order = np.argsort(_ARRAYS[k], kind="stable")
        running = np.where(_INDEX[k] == 1, _ARRAYS[k, :27], 0.0).cumsum()
        total += len(pickle.loads(blob)) + len(table) + int(order[0]) + int(running[-1])
    return total


def _memory(turn: int) -> float:
    return float(_MEMORY[_GATHER[turn % len(_GATHER)]].sum())


@dataclass(frozen=True)
class Window:
    """What the sampler recorded over one or more intervals of the run."""

    #: Seconds the slices took: not the program's time.
    busy: float = 0.0
    slices: int = 0
    #: Seconds per part of the slice, summed over the slices.
    parts: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __add__(self, other: "Window") -> "Window":
        return Window(
            self.busy + other.busy,
            self.slices + other.slices,
            tuple(a + b for a, b in zip(self.parts, other.parts)),
        )

    def __sub__(self, other: "Window") -> "Window":
        return Window(
            self.busy - other.busy,
            self.slices - other.slices,
            tuple(a - b for a, b in zip(self.parts, other.parts)),
        )

    @property
    def slowdown(self) -> Optional[float]:
        """Mean over the parts of (mean duration / quiet duration); ``None`` when too few slices."""
        if self.slices < MIN_SLICES:
            return None
        ratios = [
            1e3 * part / self.slices / reference
            for part, reference in zip(self.parts, REFERENCE_MS)
        ]
        return sum(ratios) / len(ratios)


@dataclass(frozen=True)
class Timed:
    """One timed call."""

    result: object
    #: Processor seconds the call used, the sampler's slices inside it taken out.
    seconds: float
    #: Seconds the call spent off the processor (waiting for the disk).
    waited: float
    window: Window


class HostSpeed:
    """Interval-timer sampler of the host's speed for one single-threaded process.

    Works stopped too: ``timed`` then returns the time as it was and an empty window.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
    ) -> None:
        self.clock = clock
        self.cpu_clock = cpu_clock
        self._total = Window()
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        clock = self.clock
        begun = clock()
        _loop()
        first = clock()
        _arrays()
        second = clock()
        _library()
        third = clock()
        _memory(self._total.slices)
        ended = clock()
        parts = (first - begun, second - first, third - second, ended - third)
        capped = tuple(
            min(part, PART_LIMIT * reference / 1e3) for part, reference in zip(parts, REFERENCE_MS)
        )
        self._total += Window(ended - begun, 1, capped)

    def start(self) -> None:
        if self._previous is not None:
            raise RuntimeError("the host-speed sampler is already running")
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    def timed(self, function: Callable[..., object], *args) -> Timed:
        """Time ``function(*args)``."""
        clock, cpu_clock = self.clock, self.cpu_clock
        mark = self._total
        cpu_begun = cpu_clock()
        begun = clock()
        result = function(*args)
        elapsed = clock() - begun
        used = cpu_clock() - cpu_begun
        window = self._total - mark
        return Timed(result, used - window.busy, max(elapsed - used, 0.0), window)
