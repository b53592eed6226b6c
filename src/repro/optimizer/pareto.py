"""Pareto-optimality utilities: dominance, fronts, non-dominated sorting, crowding.

These are the building blocks shared by the Atlas DRL-based genetic algorithm, the
NSGA-II variant used in the ablation of Figure 21 and the affinity-based GA baseline.
All objectives are minimized.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, TypeVar

import numpy as np

__all__ = [
    "dominates",
    "pareto_front",
    "non_dominated_sort",
    "crowding_distance",
    "hypervolume_2d",
    "distance_to_ideal",
    "knee_index",
]

T = TypeVar("T")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether objective vector ``a`` Pareto-dominates ``b`` (all <=, at least one <)."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have the same length")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


#: Rows per block of :func:`pareto_front`'s comparison against the whole set: the
#: kernel's temporaries are (n, block) booleans, not (n, n).
_FRONT_BLOCK = 256


def _objective_matrix(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    """The ``(n, K)`` float matrix of ``n`` equally long objective vectors."""
    rows = [tuple(row) for row in objectives]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("objective vectors must have the same length")
    width = len(rows[0]) if rows else 0
    return np.asarray(rows, dtype=float).reshape(len(rows), width)


def _compare(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(all_le, any_lt)`` boolean ``(len(a), len(b))`` matrices of ``a[i]`` vs ``b[j]``.

    ``all_le & any_lt`` is ``dominates(a[i], b[j])`` and ``all_le & ~any_lt`` is
    equality of the two vectors.  Accumulated objective by objective, so the
    temporaries stay two-dimensional.  IEEE comparisons give the scalar helper's
    semantics for free: a NaN row neither dominates nor is dominated (nor equals
    anything), ``-0.0 == 0.0``, and ``inf`` orders normally.
    """
    all_le = np.ones((a.shape[0], b.shape[0]), dtype=bool)
    any_lt = np.zeros((a.shape[0], b.shape[0]), dtype=bool)
    for k in range(a.shape[1]):
        ours, theirs = a[:, k, None], b[None, :, k]
        all_le &= ours <= theirs
        any_lt |= ours < theirs
    return all_le, any_lt


def pareto_front(items: Sequence[T], key: Callable[[T], Sequence[float]]) -> List[T]:
    """The non-dominated subset of ``items`` under the objective extractor ``key``.

    Input order is kept; of several items with equal objective vectors only the
    first occurrence survives.
    """
    matrix = _objective_matrix([key(item) for item in items])
    n = matrix.shape[0]
    index = np.arange(n)
    keep = np.ones(n, dtype=bool)
    for start in range(0, n, _FRONT_BLOCK):
        block = slice(start, start + _FRONT_BLOCK)
        all_le, any_lt = _compare(matrix, matrix[block])
        earlier_equal = all_le & ~any_lt & (index[:, None] < index[None, block])
        keep[block] = ~((all_le & any_lt) | earlier_equal).any(axis=0)
    return [items[i] for i in np.flatnonzero(keep).tolist()]


def non_dominated_sort(objectives: Sequence[Sequence[float]]) -> List[List[int]]:
    """NSGA-II fast non-dominated sort: indices grouped into fronts (front 0 is best).

    Front 0 is in ascending index order.  A member of a later front is released by
    the last of its dominators in the previous front, so every later front is
    ordered by (position of that dominator in the previous front, then index).
    Survival selection and the stable crowding sorts consume fronts in this order,
    which makes it part of every fixed-seed trajectory.
    """
    matrix = _objective_matrix(objectives)
    all_le, any_lt = _compare(matrix, matrix)
    dominated = all_le & any_lt
    waiting_on = dominated.sum(axis=0)
    front = np.flatnonzero(waiting_on == 0)
    fronts: List[List[int]] = []
    while front.size:
        fronts.append(front.tolist())
        beaten = dominated[front]
        waiting_on -= beaten.sum(axis=0)
        released = np.flatnonzero((waiting_on == 0) & beaten.any(axis=0))
        last_dominator = front.size - 1 - np.argmax(beaten[::-1, released], axis=0)
        front = released[np.argsort(last_dominator, kind="stable")]
    return fronts


def crowding_distance(objectives: Sequence[Sequence[float]]) -> List[float]:
    """NSGA-II crowding distance of each solution within one front."""
    n = len(objectives)
    if n == 0:
        return []
    if n <= 2:
        return [float("inf")] * n
    arr = np.asarray(objectives, dtype=float)
    distance = np.zeros(n)
    for k in range(arr.shape[1]):
        column = arr[:, k]
        order = np.argsort(column, kind="stable")
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        span = column[order[-1]] - column[order[0]]
        if span <= 0:
            continue
        inner = order[1:-1]
        open_ = distance[inner] != np.inf
        gaps = (column[order[2:]] - column[order[:-2]]) / span
        distance[inner[open_]] += gaps[open_]
    return distance.tolist()


def distance_to_ideal(points: Sequence[Sequence[float]]) -> np.ndarray:
    """Euclidean distance of each point to the ideal corner of the normalized front.

    The front is normalized per objective to [0, 1] over its own span (degenerate
    objectives — identical on every point — contribute zero), and the ideal point is
    the per-objective minimum, i.e. the all-zeros corner.  Works for any number of
    objectives; all objectives minimized.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("distance_to_ideal needs a non-empty (points, K) matrix")
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    normalized = (arr - lo) / span
    return np.sqrt((normalized**2).sum(axis=1))


def knee_index(points: Sequence[Sequence[float]]) -> int:
    """Index of the front's knee point: the minimizer of :func:`distance_to_ideal`.

    The knee is the balanced compromise — the plan closest to being best at
    everything at once — and is how :class:`~repro.recommend.advisor.Recommendation`
    orders its plans (knee first).  Ties break toward the earliest point.
    """
    return int(np.argmin(distance_to_ideal(points)))


def hypervolume_2d(
    front: Sequence[Sequence[float]], reference: Sequence[float]
) -> float:
    """Hypervolume (area) dominated by a 2-objective front w.r.t. a reference point.

    Used by tests and ablations to compare the quality of Pareto fronts; both objectives
    are minimized and points beyond the reference contribute nothing.
    """
    if len(reference) != 2:
        raise ValueError("hypervolume_2d needs a 2-dimensional reference point")
    points = [
        (float(x), float(y))
        for x, y in front
        if x <= reference[0] and y <= reference[1]
    ]
    if not points:
        return 0.0
    points.sort()
    volume = 0.0
    # Sweep in increasing x; each point contributes a rectangle up to the reference.
    filtered: List[Tuple[float, float]] = []
    for x, y in points:
        if not filtered or y < filtered[-1][1]:
            filtered.append((x, y))
    for i, (x, y) in enumerate(filtered):
        next_x = filtered[i + 1][0] if i + 1 < len(filtered) else reference[0]
        volume += (next_x - x) * (reference[1] - y)
    return max(volume, 0.0)
