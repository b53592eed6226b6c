"""Batched cost kernels ≡ the scalar cost loops, exactly.

``ResourceEstimate.aggregate_matrix`` and ``CloudCostModel._compute_batch`` /
``_storage_batch`` / ``_traffic_batch`` are ordered-reduction numpy kernels
(``ordered_masked_sum``); the scalar ``aggregate_series`` / ``compute_cost`` /
``storage_cost`` / ``traffic_cost`` are the oracles.  Both sides add IEEE doubles in
one fixed order, so the law is ``==`` on ``float.hex`` — over *full-mantissa* usage
and byte values, because the testbed's own numbers sum exactly in any order and
cannot see a reordered kernel.  The memo laws of the storage-projection memo and
``MigrationPlan.from_vector``'s direct construction ride along.

Run deeper with ``--hypothesis-profile=ci`` (see ``tests/conftest.py``).
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import CLOUD, ON_PREM, MigrationPlan, NodeSpec
from repro.learning.estimator import PLAN_BLOCK, ResourceEstimate, ordered_masked_sum
from repro.learning.footprint import EdgeFootprint, NetworkFootprint
from repro.quality import CloudCostModel, PricingCatalog
from repro.quality import cost as cost_module

RESOURCES = ("cpu_millicores", "memory_mb", "storage_gb")
PLAN_COUNTS = (1, 2, PLAN_BLOCK - 1, PLAN_BLOCK, PLAN_BLOCK + 1)

EAST = PricingCatalog()
WEST = PricingCatalog(
    node_spec=NodeSpec(
        name="west", cpu_millicores=1_500.0, memory_mb=6_000.0, hourly_price_usd=0.0517
    ),
    storage_usd_per_gb_month=0.0413,
    egress_usd_per_gb=0.0713,
)
SOUTH = PricingCatalog(storage_usd_per_gb_month=0.0629, egress_usd_per_gb=0.0531)
#: Billable sites per topology: the paper's single cloud, two priced regions, a
#: priced region next to an unbilled edge site (link rates fall back to ``catalog``)
#: and three regions — the fewest rate buckets whose summation order shows.
TOPOLOGIES = {
    "2loc": (2, None),
    "3loc": (3, {CLOUD: EAST, 2: WEST}),
    "3loc-edge": (3, {2: WEST}),
    "4loc": (4, {CLOUD: WEST, 2: SOUTH, 3: EAST}),
}


def hexes(values):
    return [float(v).hex() for v in values]


def jagged(rng, size, low=-12, high=24):
    """Non-negative doubles with all 53 mantissa bits in play, salted with the IEEE
    corner cases a masked sum has to absorb: ``+0.0``, ``-0.0`` and subnormals."""
    values = rng.random(size) * 2.0 ** rng.integers(low, high, size=size)
    kind = rng.random(size)
    values = np.where(kind < 0.06, 0.0, values)
    values = np.where((kind >= 0.06) & (kind < 0.12), -0.0, values)
    return np.where(
        (kind >= 0.12) & (kind < 0.16), 5e-324 * rng.integers(1, 9, size=size), values
    )


def random_estimate(rng, names, steps):
    """An estimate over ``names``, stored in its own (shuffled) order."""
    order = [names[i] for i in rng.permutation(len(names))]
    usage = {
        resource: {name: jagged(rng, steps).tolist() for name in order}
        for resource in RESOURCES
    }
    apis = [f"/api{i}" for i in range(int(rng.integers(1, 4)))]
    api_rates = {api: (jagged(rng, steps, 0, 12) + 1.0).tolist() for api in apis}
    if len(apis) > 1:
        api_rates[apis[-1]] = [0.0] * steps  # never requested: its edges bill nothing
    return ResourceEstimate(step_ms=60_000.0, usage=usage, api_rates=api_rates)


def random_world(rng, n_components, steps, topology, endpoint_billing):
    """A cost model over random jagged inputs plus its component order."""
    components = [f"c{i}" for i in range(n_components)]
    n_locations, catalogs = TOPOLOGIES[topology]
    # The estimate knows some components the plans lack, and lacks some they have.
    known = [c for c in components if rng.random() < 0.85] + ["ghost-a", "ghost-b"]
    estimate = random_estimate(rng, known, steps)
    storage = {
        c: float(jagged(rng, 1, 0, 10)[0]) for c in components if rng.random() < 0.3
    }
    edges = []
    for api in estimate.api_rates:
        for _ in range(int(rng.integers(0, 40))):
            src, dst = rng.integers(0, n_components, size=2)
            request, response = jagged(rng, 2, 0, 30)
            edges.append(
                EdgeFootprint(api, components[src], components[dst], request, response)
            )
    baseline = MigrationPlan.from_vector(
        components, rng.integers(0, n_locations, size=n_components).tolist()
    )
    model = CloudCostModel(
        EAST,
        estimate,
        NetworkFootprint(edges),
        storage,
        baseline,
        time_compression=288.0,
        charge_cloud_egress_only=endpoint_billing,
        catalogs=catalogs,
    )
    return model, components, n_locations


def random_matrix(rng, n_plans, n_components, n_locations):
    matrix = rng.integers(0, n_locations, size=(n_plans, n_components))
    matrix[0] = ON_PREM
    matrix[-1] = n_locations - 1 if n_plans == 1 else CLOUD
    return matrix


def three_bucket_model(endpoint_billing):
    """Component ``a`` calls ``b``, ``c``, ``d``; placed at sites 1, 2, 3 their links
    bill $1, $2^-53 and $2^-53 into three distinct rate buckets, in that order."""
    components = ["a", "b", "c", "d"]
    rates = {1: 0.5, 2: 0.25, 3: 0.125}
    catalogs = {loc: PricingCatalog(egress_usd_per_gb=rate) for loc, rate in rates.items()}
    usd = {1: 1.0, 2: 2.0**-53, 3: 2.0**-53}
    edges = [
        EdgeFootprint("/a", "a", components[loc], 0.0, usd[loc] / rates[loc] * 1e9)
        for loc in (1, 2, 3)
    ]
    estimate = ResourceEstimate(
        step_ms=1.0,
        usage={r: {c: [1.0] for c in components} for r in RESOURCES},
        api_rates={"/a": [1.0]},
    )
    model = CloudCostModel(
        EAST,
        estimate,
        NetworkFootprint(edges),
        {},
        MigrationPlan.all_on_prem(components),
        charge_cloud_egress_only=endpoint_billing,
        catalogs=catalogs,
    )
    return model, components


worlds = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 64),
    st.sampled_from((1, 2, 18)),
    st.sampled_from(PLAN_COUNTS),
)


class TestOrderedMaskedSum:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 40),
        st.sampled_from(PLAN_COUNTS),
        st.sampled_from(((), (1,), (3,))),
        st.booleans(),
    )
    def test_matches_the_scalar_loop(self, seed, n_terms, n_plans, inner, shared):
        rng = np.random.default_rng(seed)
        terms = jagged(rng, (n_terms, 1 if shared else n_plans) + inner)
        mask = rng.random((n_terms, n_plans)) < 0.6
        got = ordered_masked_sum(terms, mask)
        assert got.shape == (n_plans,) + inner
        for p in range(n_plans):
            total = np.zeros(inner)
            for k in range(n_terms):
                if mask[k, p]:
                    total = total + terms[k, 0 if shared else p]
            assert hexes(got[p].ravel()) == hexes(total.ravel())

    def test_all_masked_and_negative_zero_sum_to_positive_zero(self):
        terms = np.full((4, 1), -0.0)
        for mask in (np.zeros((4, 3), dtype=bool), np.ones((4, 3), dtype=bool)):
            assert hexes(ordered_masked_sum(terms, mask)) == [(0.0).hex()] * 3

    @pytest.mark.parametrize("n_plans", [1, 2])
    def test_a_pairwise_ordered_sum_fails_here(self, n_plans):
        # 1 + 2^-53 rounds back to 1 every time it is added in sequence, while any
        # tree-shaped order first adds two of the small terms to 2^-52, which sticks.
        values = [1.0] + [2.0**-53] * 15
        sequential = 0.0
        for value in values:
            sequential += value
        pairwise = float(np.add.reduce(np.asarray(values)))
        assert sequential == 1.0 and pairwise != 1.0
        mask = np.ones((16, n_plans), dtype=bool)
        got = ordered_masked_sum(np.asarray(values).reshape(16, 1), mask)
        assert got.tolist() == [1.0] * n_plans


class TestAggregateMatrix:
    @given(worlds)
    def test_matches_per_row_aggregate_series(self, world):
        seed, n_components, steps, n_plans = world
        rng = np.random.default_rng(seed)
        names = [f"c{i}" for i in range(n_components)]
        estimate = random_estimate(rng, names[: max(1, n_components - 2)] + ["ghost"], steps)
        columns = [names[i] for i in rng.permutation(n_components)]
        members = rng.random((n_plans, n_components)) < 0.5
        members[0] = False
        members[-1] = True
        for resource in RESOURCES:
            got = estimate.aggregate_matrix(resource, members, columns)
            peaks = estimate.peak_matrix(resource, members, columns)
            assert got.shape == (n_plans, steps)
            for p in range(n_plans):
                subset = [c for c, m in zip(columns, members[p]) if m]
                assert hexes(got[p]) == hexes(estimate.aggregate_series(resource, subset))
                assert peaks[p] == estimate.peak(resource, subset)

    def test_one_plan_one_step_keeps_the_scalar_order(self):
        names = [f"c{i}" for i in range(16)]
        usage = {name: [2.0**-53] for name in names}
        usage["c0"] = [1.0]
        estimate = ResourceEstimate(step_ms=1.0, usage={"cpu_millicores": usage})
        for n_plans in (1, 2):
            members = np.ones((n_plans, 16), dtype=bool)
            got = estimate.aggregate_matrix("cpu_millicores", members, names)
            assert got.tolist() == [[1.0]] * n_plans
            assert estimate.aggregate_series("cpu_millicores", names) == [1.0]

    def test_unknown_resource_and_empty_batch(self):
        estimate = ResourceEstimate(step_ms=1.0, usage={"cpu_millicores": {"a": [1.0, 2.0]}})
        members = np.ones((3, 1), dtype=bool)
        assert estimate.aggregate_matrix("memory_mb", members, ["a"]).tolist() == [[0.0, 0.0]] * 3
        assert estimate.aggregate_matrix("cpu_millicores", members[:0], ["a"]).shape == (0, 2)
        assert estimate.peak_matrix("cpu_millicores", members, ["b"]).tolist() == [0.0] * 3

    def test_cache_fields_stay_out_of_repr_and_compare(self):
        usage = {"cpu_millicores": {"a": [1.0], "b": [2.0]}}
        touched = ResourceEstimate(step_ms=1.0, usage=usage)
        fresh = ResourceEstimate(step_ms=1.0, usage=usage)
        before = repr(touched)
        touched.aggregate_matrix("cpu_millicores", np.ones((2, 2), dtype=bool), ["a", "b"])
        assert touched._matrices and touched._lowerings
        assert repr(touched) == before
        assert touched == fresh
        for name in ("_matrices", "_lowerings"):
            (cache_field,) = [f for f in dataclasses.fields(ResourceEstimate) if f.name == name]
            assert not cache_field.repr and not cache_field.compare
        clone = pickle.loads(pickle.dumps(touched))
        members = np.asarray([[True, False], [True, True]])
        assert (
            clone.aggregate_matrix("cpu_millicores", members, ["a", "b"]).tolist()
            == touched.aggregate_matrix("cpu_millicores", members, ["a", "b"]).tolist()
            == [[1.0], [3.0]]
        )


class TestCostTerms:
    @given(worlds, st.sampled_from(sorted(TOPOLOGIES)), st.booleans())
    def test_every_term_matches_the_scalar_model(self, world, topology, endpoint_billing):
        seed, n_components, steps, n_plans = world
        rng = np.random.default_rng(seed)
        model, components, n_locations = random_world(
            rng, n_components, steps, topology, endpoint_billing
        )
        matrix = random_matrix(rng, n_plans, n_components, n_locations)
        lowering = model._lowering(components)
        compute = model._compute_batch(matrix, components)
        storage = model._storage_batch(matrix, components, lowering)
        traffic = model._traffic_batch(matrix, lowering)
        total = model.qcost_batch(matrix, components)
        for p, row in enumerate(matrix.tolist()):
            plan = MigrationPlan.from_vector(components, row)
            assert compute[p].hex() == model.compute_cost(plan)[0].hex()
            assert storage[p].hex() == float(model.storage_cost(plan)).hex()
            assert traffic[p].hex() == float(model.traffic_cost(plan)).hex()
            assert total[p].hex() == float(model.qcost(plan)).hex()

    @pytest.mark.parametrize("endpoint_billing", [False, True])
    def test_traffic_kernel_keeps_the_entry_order(self, endpoint_billing):
        # Sixteen crossing edges of one API whose bytes only sum to the scalar
        # answer when added first to last (see TestOrderedMaskedSum).
        components = [f"c{i}" for i in range(17)]
        sizes = [2.0**30] + [2.0**-23] * 15
        edges = [
            EdgeFootprint("/a", "c0", components[i + 1], size, size)
            for i, size in enumerate(sizes)
        ]
        estimate = ResourceEstimate(
            step_ms=1.0,
            usage={r: {c: [1.0] for c in components} for r in RESOURCES},
            api_rates={"/a": [1.0]},
        )
        model = CloudCostModel(
            EAST,
            estimate,
            NetworkFootprint(edges),
            {},
            MigrationPlan.all_on_prem(components),
            charge_cloud_egress_only=endpoint_billing,
        )
        vector = [CLOUD] + [ON_PREM] * 16
        plan = MigrationPlan.from_vector(components, vector)
        for n_plans in (1, 2):
            got = model._traffic_batch(
                np.asarray([vector] * n_plans), model._lowering(components)
            )
            assert hexes(got) == [model.traffic_cost(plan).hex()] * n_plans

    @pytest.mark.parametrize("endpoint_billing", [False, True])
    def test_multi_bucket_plans_sum_buckets_in_first_contribution_order(
        self, endpoint_billing
    ):
        # Three rate buckets worth $1, $2^-53 and $2^-53, first touched in that
        # order: the scalar dict adds them as inserted and stays at exactly $1, while
        # adding them in rate (bucket index) order starts with the two small ones.
        model, components = three_bucket_model(endpoint_billing)
        matrix = np.asarray([[0, 1, 2, 3], [0, 0, 2, 3], [0, 1, 2, 3]])
        got = model._traffic_batch(matrix, model._lowering(components))
        assert got.tolist() == [1.0, 2.0**-52, 1.0]
        for row, value in zip(matrix.tolist(), got):
            assert value == model.traffic_cost(MigrationPlan.from_vector(components, row))

    @pytest.mark.parametrize("endpoint_billing", [False, True])
    def test_scalar_oracle_does_not_lean_on_builtin_sum(self, monkeypatch, endpoint_billing):
        # CPython 3.12 made ``sum()`` over floats compensated; a plain left fold is
        # what the kernels reproduce.  ``fsum`` stands in for 3.12 on any interpreter.
        monkeypatch.setattr(cost_module, "sum", math.fsum, raising=False)
        model, components = three_bucket_model(endpoint_billing)
        plan = MigrationPlan.from_vector(components, [0, 1, 2, 3])
        assert model.traffic_cost(plan) == 1.0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            model, components, n_locations = random_world(
                rng, 24, 18, "4loc", endpoint_billing
            )
            matrix = random_matrix(rng, 6, len(components), n_locations)
            lowering = model._lowering(components)
            storage = model._storage_batch(matrix, components, lowering)
            traffic = model._traffic_batch(matrix, lowering)
            for p, row in enumerate(matrix.tolist()):
                plan = MigrationPlan.from_vector(components, row)
                assert storage[p].hex() == float(model.storage_cost(plan)).hex()
                assert traffic[p].hex() == float(model.traffic_cost(plan)).hex()


class TestMemoLaws:
    def _world(self, seed=5, topology="3loc"):
        rng = np.random.default_rng(seed)
        return random_world(rng, 12, 18, topology, False) + (rng,)

    def test_storage_memo_keys_on_stateful_columns_only(self):
        model, components, n_locations, rng = self._world()
        lowering = model._lowering(components)
        stateful = lowering.stateful_columns
        assert 0 < stateful.size < len(components)
        stateless = [i for i in range(len(components)) if i not in set(stateful.tolist())]
        row = rng.integers(0, n_locations, size=len(components))
        twin = row.copy()
        twin[stateless] = (twin[stateless] + 1) % n_locations
        model.qcost_batch([row], components)
        memo = model._storage_cost_cache[tuple(components)]
        assert len(memo) == 1
        model.qcost_batch([twin], components)  # differs only in stateless columns: hit
        assert len(memo) == 1
        assert len(model._batch_cost_cache[tuple(components)]) == 2
        moved = row.copy()
        moved[stateful[0]] = (moved[stateful[0]] + 1) % n_locations
        model.qcost_batch([moved], components)  # a stateful column moved: miss
        assert len(memo) == 2

    def test_derived_siblings_and_permuted_orders_never_share_entries(self):
        model, components, n_locations, rng = self._world()
        matrix = random_matrix(rng, 20, len(components), n_locations)
        model.qcost_batch(matrix, components)
        shocked = model.derive(catalogs={CLOUD: WEST, 2: EAST})
        assert shocked._storage_cost_cache == {} and shocked._batch_cost_cache == {}
        permutation = rng.permutation(len(components))
        permuted = [components[i] for i in permutation]
        for other in (shocked, model):
            got = other.qcost_batch(matrix[:, permutation], permuted)
            for row, value in zip(matrix.tolist(), got):
                plan = MigrationPlan.from_vector(components, row)
                assert value.hex() == float(other.derive().qcost(plan)).hex()
        assert set(model._storage_cost_cache) == {tuple(components), tuple(permuted)}
        assert set(shocked._storage_cost_cache) == {tuple(permuted)}

    def test_mixed_scalar_and_batched_use_stays_bitwise(self):
        model, components, n_locations, rng = self._world(seed=9)
        matrix = random_matrix(rng, 30, len(components), n_locations)
        plans = [MigrationPlan.from_vector(components, row) for row in matrix.tolist()]
        scalar_first = [model.qcost(plan) for plan in plans[:10]]
        batched = model.qcost_batch(matrix, components)
        again = model.qcost_batch(matrix[::-1], components)[::-1]
        scalar_after = [model.qcost(plan) for plan in plans]
        assert hexes(batched) == hexes(again) == hexes(scalar_after)
        assert hexes(scalar_first) == hexes(batched[:10])


class TestFromVector:
    @given(
        st.lists(st.sampled_from("abcdefgh"), min_size=0, max_size=10),
        st.data(),
    )
    def test_equals_the_constructor(self, components, data):
        vector = data.draw(
            st.lists(st.integers(0, 5), min_size=len(components), max_size=len(components))
        )
        direct = MigrationPlan.from_vector(components, vector)
        # Repeated names are one component whose last location wins.
        built = MigrationPlan(dict(zip(components, vector)), order=components)
        assert direct == built and hash(direct) == hash(built)
        assert direct.to_vector() == built.to_vector()
        assert direct.components == built.components == list(components)
        assert dict(direct) == dict(built) and len(direct) == len(built)
        assert [direct[c] for c in components] == [built[c] for c in components]
        assert direct.offloaded() == built.offloaded()
        assert "nope" not in direct
        with pytest.raises(KeyError, match="not in plan"):
            direct["nope"]
        clone = pickle.loads(pickle.dumps(direct))
        assert clone == direct and hash(clone) == hash(direct)
        assert clone.to_dict() == direct.to_dict()
        # One index per component order, shared by identity.
        assert direct._index is built._index
        assert direct._components is built._components

    def test_accepts_numpy_rows_and_keeps_python_ints(self):
        plan = MigrationPlan.from_vector(["a", "b"], np.asarray([1, 0]))
        assert plan.to_vector() == [1, 0]
        assert all(type(v) is int for v in plan.to_vector())

    def test_both_errors_keep_their_messages(self):
        with pytest.raises(ValueError, match="vector length 1 does not match component count 2"):
            MigrationPlan.from_vector(["a", "b"], [1])
        with pytest.raises(ValueError, match="negative location for component 'b'"):
            MigrationPlan.from_vector(["a", "b", "c"], [1, -1, -2])
        with pytest.raises(ValueError, match="negative location for component 'b'"):
            MigrationPlan({"a": 1, "b": -1, "c": -2})
