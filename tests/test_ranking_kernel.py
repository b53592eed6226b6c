"""Ranking kernel ≡ the scalar NSGA-II functions it replaced, exactly.

``pareto.non_dominated_sort`` / ``pareto_front`` / ``crowding_distance`` are numpy
dominance-matrix kernels; the pure-Python bodies they replaced live on below as the
oracles.  Their outputs are index lists (and IEEE sums added in one order), so the
law is ``==`` on the returned lists — fronts *and the order inside every front*,
because ``survival_selection`` extends survivors front by front and sorts the last
one stably, which makes that order part of every fixed-seed GA trajectory.

Run deeper with ``--hypothesis-profile=ci`` (see ``tests/conftest.py``).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optimizer import (
    crowding_distance,
    dominates,
    non_dominated_sort,
    pareto_front,
    rank_population,
    survival_selection,
)


# -- the oracles: the scalar bodies as they stood before the kernel ---------------------------
def oracle_pareto_front(items, key):
    objectives = [tuple(key(item)) for item in items]
    front = []
    for i, item in enumerate(items):
        dominated = False
        for j, other in enumerate(objectives):
            if i != j and dominates(other, objectives[i]):
                dominated = True
                break
            # Deduplicate identical objective vectors, keeping the first occurrence.
            if j < i and other == objectives[i]:
                dominated = True
                break
        if not dominated:
            front.append(item)
    return front


def oracle_non_dominated_sort(objectives):
    n = len(objectives)
    dominated_by = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(objectives[i], objectives[j]):
                dominated_by[i].append(j)
            elif dominates(objectives[j], objectives[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        next_front = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    return [front for front in fronts if front]


def oracle_crowding_distance(objectives):
    n = len(objectives)
    if n == 0:
        return []
    if n <= 2:
        return [float("inf")] * n
    m = len(objectives[0])
    distance = [0.0] * n
    arr = np.asarray(objectives, dtype=float)
    for k in range(m):
        order = np.argsort(arr[:, k], kind="stable")
        lo, hi = arr[order[0], k], arr[order[-1], k]
        distance[order[0]] = float("inf")
        distance[order[-1]] = float("inf")
        span = hi - lo
        if span <= 0:
            continue
        for idx in range(1, n - 1):
            i = order[idx]
            if distance[i] == float("inf"):
                continue
            distance[i] += (arr[order[idx + 1], k] - arr[order[idx - 1], k]) / span
    return distance


def oracle_survival_selection(objectives, fronts, capacity):
    """``nsga2.survival_selection`` over the oracle's ``fronts`` of ``objectives``."""
    if capacity <= 0:
        return []
    survivors = []
    for front in fronts:
        if len(survivors) + len(front) <= capacity:
            survivors.extend(front)
            continue
        remaining = capacity - len(survivors)
        distances = oracle_crowding_distance([objectives[i] for i in front])
        order = sorted(range(len(front)), key=lambda k: distances[k], reverse=True)
        survivors.extend(front[k] for k in order[:remaining])
        break
    return survivors


def same_floats(left, right):
    """``==`` on float lists that may hold NaN (NaN matches NaN, nothing else)."""
    return len(left) == len(right) and all(
        a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(left, right)
    )


# -- input families ---------------------------------------------------------------------------
def _fresh_nans(rows):
    """Every NaN cell its own object: the oracle's tuple ``==`` short-cuts on
    identity, which would make a repeated NaN row a duplicate; IEEE says it is not."""
    return [tuple(float("nan") if v != v else v for v in row) for row in rows]


def _populations(values):
    """Populations of n in 0..200 K-vectors, K in 1..5, up to a fifth of them repeats.

    The size is drawn first: left to itself ``st.lists`` rarely exceeds twenty rows.
    """

    def rows(shape):
        n, k = shape
        base = st.lists(st.tuples(*[values] * k), min_size=n, max_size=n)
        repeats = st.lists(st.integers(0, max(n - 1, 0)), max_size=n // 4)
        return st.tuples(base, repeats).map(
            lambda drawn: drawn[0] + [drawn[0][i] for i in drawn[1]]
        )

    shapes = st.tuples(st.integers(0, 160), st.integers(1, 5))
    return shapes.flatmap(rows).map(_fresh_nans)


UNIFORM = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
#: Values 0-2 force duplicates, ties in single objectives and long dominance chains.
GRID = st.integers(min_value=0, max_value=2)
#: IEEE corner values.
SPECIAL = st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf, math.nan])

FAMILIES = pytest.mark.parametrize(
    "family", [UNIFORM, GRID, SPECIAL], ids=["uniform", "grid", "special"]
)


@pytest.fixture(autouse=True)
def _quiet_ieee_warnings():
    # inf - inf in a crowding span is NaN on both sides of the comparison.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


# -- the laws ---------------------------------------------------------------------------------
class TestKernelEqualsOracle:
    @FAMILIES
    def test_sort_survival_and_ranks(self, family):
        """One population, every consumer of the front order."""

        @given(objectives=_populations(family), data=st.data())
        def law(objectives, data):
            fronts = oracle_non_dominated_sort(objectives)
            assert non_dominated_sort(objectives) == fronts

            capacity = data.draw(st.integers(0, len(objectives) + 1))
            assert survival_selection(objectives, capacity) == oracle_survival_selection(
                objectives, fronts, capacity
            )

            expected_rank = [0] * len(objectives)
            expected_crowding = [0.0] * len(objectives)
            for rank, front in enumerate(fronts):
                distances = oracle_crowding_distance([objectives[i] for i in front])
                for i, distance in zip(front, distances):
                    expected_rank[i] = rank
                    expected_crowding[i] = distance
            ranked = rank_population(objectives)
            assert [member.index for member in ranked] == list(range(len(objectives)))
            assert [member.rank for member in ranked] == expected_rank
            assert same_floats([member.crowding for member in ranked], expected_crowding)

        law()

    @FAMILIES
    def test_pareto_front(self, family):
        @given(objectives=_populations(family))
        def law(objectives):
            items = list(enumerate(objectives))
            key = lambda item: item[1]  # noqa: E731
            assert pareto_front(items, key) == oracle_pareto_front(items, key)

        law()

    @FAMILIES
    def test_crowding_distance(self, family):
        @given(objectives=_populations(family))
        def law(objectives):
            assert same_floats(
                crowding_distance(objectives), oracle_crowding_distance(objectives)
            )

        law()


class TestIntraFrontOrder:
    def test_shared_last_dominator_falls_to_the_index_tie_break(self):
        """Front 0 is [1, 3]; 0 and 2 are both released by 3, 4 by 1 alone."""
        objectives = [(5, 3), (0, 9), (3, 5), (3, 3), (1, 10)]
        assert non_dominated_sort(objectives) == [[1, 3], [4, 0, 2]]
        assert oracle_non_dominated_sort(objectives) == [[1, 3], [4, 0, 2]]

    def test_later_dominator_position_beats_a_smaller_index(self):
        """0 waits for 3 (position 2 of front 0), 4 only for 1 (position 0)."""
        objectives = [(5, 5), (0, 9), (9, 0), (3, 3), (1, 10)]
        assert non_dominated_sort(objectives) == [[1, 2, 3], [4, 0]]

    def test_a_chain_is_one_front_per_member(self):
        assert non_dominated_sort([(3,), (1,), (2,), (0,)]) == [[3], [1], [2], [0]]


class TestInputContract:
    def test_ragged_vectors_raise_the_scalar_error(self):
        ragged = [(1.0, 2.0), (1.0,), (0.0, 3.0)]
        for call in (
            lambda: non_dominated_sort(ragged),
            lambda: pareto_front(ragged, key=lambda row: row),
        ):
            with pytest.raises(ValueError, match="objective vectors must have the same length"):
                call()

    def test_empty_inputs(self):
        assert non_dominated_sort([]) == []
        assert pareto_front([], key=lambda row: row) == []
        assert crowding_distance([]) == []

    def test_nan_row_neither_dominates_nor_is_dominated(self):
        objectives = [(0.0, 0.0), (math.nan, -1.0), (1.0, 1.0)]
        assert non_dominated_sort(objectives) == [[0, 1], [2]]
        assert pareto_front(objectives, key=lambda row: row) == objectives[:2]

    def test_nan_rows_are_not_duplicates_of_each_other(self):
        nan = math.nan  # one object: tuple == would call these rows equal
        assert len(pareto_front([(nan, 1.0), (nan, 1.0)], key=lambda row: row)) == 2

    def test_signed_zeros_compare_equal(self):
        objectives = [(0.0, 1.0), (-0.0, 1.0), (-0.0, 2.0)]
        assert non_dominated_sort(objectives) == [[0, 1], [2]]
        assert pareto_front(objectives, key=lambda row: row) == [(0.0, 1.0)]

    def test_infinite_penalties_order_normally(self):
        objectives = [(math.inf, math.inf), (1.0, math.inf), (1.0, 2.0), (math.inf, 0.0)]
        assert non_dominated_sort(objectives) == [[2, 3], [1], [0]]
        assert pareto_front(objectives, key=lambda row: row) == [objectives[2], objectives[3]]

    def test_front_of_a_set_larger_than_one_block(self):
        """The row-blocked front agrees with the oracle across block boundaries."""
        rng = np.random.default_rng(3)
        points = [tuple(row) for row in rng.integers(0, 40, size=(700, 3)).tolist()]
        key = lambda row: row  # noqa: E731
        assert pareto_front(points, key) == oracle_pareto_front(points, key)
