"""Batched cost kernels ≡ the scalar cost loops, exactly.

``SitePass`` (sums and peaks) and the stacked cost terms
of ``CloudCostModel.qcost_stack`` (``_compute_rows`` / ``_storage_rows`` /
``_traffic_rows`` over a ``_CostStack``) are ordered-reduction numpy kernels
(``ordered_masked_sum``); the scalar ``aggregate_series`` / ``compute_cost`` /
``storage_cost`` / ``traffic_cost`` are the oracles, per estimate or model of a stack
of one or more.  Both sides add IEEE doubles in one fixed order, so the law is ``==``
on ``float.hex`` — over *full-mantissa* usage and byte values, because the testbed's
own numbers sum exactly in any order and cannot see a reordered kernel.  The memo laws of the storage-projection memo and
``MigrationPlan.from_vector``'s direct construction ride along.

Run deeper with ``--hypothesis-profile=ci`` (see ``tests/conftest.py``).
"""

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_shared_scenarios import SCALE, _atlas
from test_stacked_scenarios import ROBUST_S4

from repro.cluster import CLOUD, ON_PREM, MigrationPlan, NodeSpec
from repro.learning.estimator import PLAN_BLOCK, ResourceEstimate, SitePass, ordered_masked_sum
from repro.learning.footprint import EdgeFootprint, NetworkFootprint
from repro.quality import (
    ArtifactCache,
    CloudCostModel,
    PlacementProblem,
    PricingCatalog,
    ScenarioSpec,
)
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


def random_estimate(rng, names, steps, shuffle=True):
    """An estimate over ``names``, stored in its own (shuffled) order or in theirs."""
    order = [names[i] for i in rng.permutation(len(names))] if shuffle else list(names)
    usage = {
        resource: {name: jagged(rng, steps).tolist() for name in order}
        for resource in RESOURCES
    }
    apis = [f"/api{i}" for i in range(int(rng.integers(1, 4)))]
    api_rates = {api: (jagged(rng, steps, 0, 12) + 1.0).tolist() for api in apis}
    if len(apis) > 1:
        api_rates[apis[-1]] = [0.0] * steps  # never requested: its edges bill nothing
    return ResourceEstimate(step_ms=60_000.0, usage=usage, api_rates=api_rates)


def random_world(rng, n_components, steps, topology):
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
        catalogs=catalogs,
    )
    return model, components, n_locations


def cost_terms(models, matrix, components):
    """The Eq. 7 / 9 / 10 rows of ``qcost_stack``'s kernel: three ``(models, plans)``."""
    key = tuple(components)
    stack = cost_module._CostStack.of(models, key)
    nodes = stack.nodes(stack.sites.aggregate(matrix), len(matrix))
    return (
        cost_module._compute_rows(nodes, stack.bills, len(models)),
        cost_module._storage_rows(models, matrix, key, stack.storage),
        cost_module._traffic_rows(models, matrix, stack.traffic),
    )


def site_sums(estimates, resource, members, columns):
    """``(plans, estimates, steps)`` sums of ``resource`` over each plan's
    ``members``, through one site pass over the site they mark."""
    site_pass = SitePass([(one, resource) for one in estimates], [ON_PREM], columns)
    sums = site_pass.aggregate(np.where(members, ON_PREM, CLOUD))
    return site_pass.take(sums, 0, range(len(estimates)))


def site_peaks(estimates, resource, members, columns):
    """``(plans, estimates)`` peaks of ``resource`` over each plan's ``members``."""
    site_pass = SitePass([(one, resource) for one in estimates], [ON_PREM], columns)
    sums = site_pass.aggregate(np.where(members, ON_PREM, CLOUD))
    return np.stack(
        [site_pass.peaks(sums, 0, read) for read in range(len(estimates))], axis=1
    )


def price_shocked(model):
    """A ``derive`` sibling whose first billable site bills at shocked prices; every
    other site keeps the model's catalog object (and with it its autoscalers)."""
    first = min(model.catalogs)

    def shocked(catalog):
        return dataclasses.replace(
            catalog,
            node_spec=dataclasses.replace(
                catalog.node_spec,
                hourly_price_usd=catalog.node_spec.hourly_price_usd * 1.3711,
            ),
            storage_usd_per_gb_month=catalog.storage_usd_per_gb_month * 0.8123,
            egress_usd_per_gb=catalog.egress_usd_per_gb * 1.1913,
        )

    return model.derive(
        catalogs={
            location: shocked(catalog) if location == first else catalog
            for location, catalog in model.catalogs.items()
        }
    )


def random_matrix(rng, n_plans, n_components, n_locations):
    matrix = rng.integers(0, n_locations, size=(n_plans, n_components))
    matrix[0] = ON_PREM
    matrix[-1] = n_locations - 1 if n_plans == 1 else CLOUD
    return matrix


def three_bucket_model():
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
        # Two more estimates with their own values: one stored in the reverse of the
        # first's order (its own group of the pass), one in the same order (stacked
        # beside the first in one group).
        order = list(estimate.usage["cpu_millicores"])
        reverse = random_estimate(rng, order[::-1], steps, shuffle=False)
        twin = random_estimate(rng, order, steps, shuffle=False)
        for estimates in ([estimate], [estimate, reverse, twin]):
            for resource in RESOURCES:
                got = site_sums(estimates, resource, members, columns)
                peaks = site_peaks(estimates, resource, members, columns)
                assert got.shape == (n_plans, len(estimates), steps)
                assert peaks.shape == (n_plans, len(estimates))
                for p in range(n_plans):
                    subset = [c for c, m in zip(columns, members[p]) if m]
                    for e, one in enumerate(estimates):
                        assert hexes(got[p, e]) == hexes(one.aggregate_series(resource, subset))
                        assert peaks[p, e] == one.peak(resource, subset)

    def test_one_plan_one_step_keeps_the_scalar_order(self):
        names = [f"c{i}" for i in range(16)]
        usage = {name: [2.0**-53] for name in names}
        usage["c0"] = [1.0]
        estimate = ResourceEstimate(step_ms=1.0, usage={"cpu_millicores": usage})
        for n_plans in (1, 2):
            members = np.ones((n_plans, 16), dtype=bool)
            got = site_sums([estimate], "cpu_millicores", members, names)[:, 0]
            assert got.tolist() == [[1.0]] * n_plans
            assert estimate.aggregate_series("cpu_millicores", names) == [1.0]

    def test_unknown_resource_and_empty_batch(self):
        estimate = ResourceEstimate(step_ms=1.0, usage={"cpu_millicores": {"a": [1.0, 2.0]}})
        members = np.ones((3, 1), dtype=bool)
        unknown = site_sums([estimate], "memory_mb", members, ["a"])
        assert unknown[:, 0].tolist() == [[0.0, 0.0]] * 3
        assert site_sums([estimate], "cpu_millicores", members[:0], ["a"])[:, 0].shape == (0, 2)
        assert site_peaks([estimate], "cpu_millicores", members, ["b"]).tolist() == [[0.0]] * 3

    def test_cache_fields_stay_out_of_repr_and_compare(self):
        usage = {"cpu_millicores": {"a": [1.0], "b": [2.0]}}
        touched = ResourceEstimate(step_ms=1.0, usage=usage)
        fresh = ResourceEstimate(step_ms=1.0, usage=usage)
        before = repr(touched)
        site_sums([touched], "cpu_millicores", np.ones((2, 2), dtype=bool), ["a", "b"])
        assert touched._lowerings
        assert repr(touched) == before
        assert touched == fresh
        (cache_field,) = [
            f for f in dataclasses.fields(ResourceEstimate) if f.name == "_lowerings"
        ]
        assert not cache_field.repr and not cache_field.compare
        clone = pickle.loads(pickle.dumps(touched))
        members = np.asarray([[True, False], [True, True]])
        clone_sums, touched_sums = (
            site_sums([one], "cpu_millicores", members, ["a", "b"])
            for one in (clone, touched)
        )
        assert clone_sums.tolist() == touched_sums.tolist() == [[[1.0]], [[3.0]]]


class TestCostTerms:
    @given(worlds, st.sampled_from(sorted(TOPOLOGIES)))
    def test_every_term_matches_the_scalar_model(self, world, topology):
        seed, n_components, steps, n_plans = world
        rng = np.random.default_rng(seed)
        model, components, n_locations = random_world(rng, n_components, steps, topology)
        matrix = random_matrix(rng, n_plans, n_components, n_locations)
        # The stack of one, then the model beside a price-shocked sibling: each row
        # must be its own model's scalar answer.
        for models in ([model], [model, price_shocked(model)]):
            compute, storage, traffic = cost_terms(models, matrix, components)
            total = CloudCostModel.qcost_stack(models, matrix, components)
            for s, one in enumerate(models):
                for p, row in enumerate(matrix.tolist()):
                    plan = MigrationPlan.from_vector(components, row)
                    assert compute[s, p].hex() == one.compute_cost(plan)[0].hex()
                    assert storage[s, p].hex() == float(one.storage_cost(plan)).hex()
                    assert traffic[s, p].hex() == float(one.traffic_cost(plan)).hex()
                    assert total[s, p].hex() == float(one.qcost(plan)).hex()

    @pytest.mark.parametrize("stacked", [False, True])
    def test_traffic_kernel_keeps_the_entry_order(self, stacked):
        # Sixteen crossing edges of one API whose bytes only sum to the scalar
        # answer when added first to last (see TestOrderedMaskedSum); alone or
        # stacked beside a price-shocked sibling, every row keeps that order.
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
        )
        models = [model, price_shocked(model)] if stacked else [model]
        vector = [CLOUD] + [ON_PREM] * 16
        plan = MigrationPlan.from_vector(components, vector)
        for n_plans in (1, 2):
            got = cost_terms(models, np.asarray([vector] * n_plans), components)[2]
            for s, one in enumerate(models):
                assert hexes(got[s]) == [one.traffic_cost(plan).hex()] * n_plans

    def test_multi_bucket_plans_sum_buckets_in_first_contribution_order(self):
        # Three rate buckets worth $1, $2^-53 and $2^-53, first touched in that
        # order: the scalar dict adds them as inserted and stays at exactly $1, while
        # adding them in rate (bucket index) order starts with the two small ones.
        model, components = three_bucket_model()
        matrix = np.asarray([[0, 1, 2, 3], [0, 0, 2, 3], [0, 1, 2, 3]])
        got = cost_terms([model], matrix, components)[2][0]
        assert got.tolist() == [1.0, 2.0**-52, 1.0]
        for row, value in zip(matrix.tolist(), got):
            assert value == model.traffic_cost(MigrationPlan.from_vector(components, row))

    @pytest.mark.parametrize("topology", ["2loc", "3loc"])
    def test_a_step_less_estimate_bills_its_stateful_gb_for_one_step(self, topology):
        # Without steps the scalar storage term prices the site's static GB as a
        # one-step usage series; compute and traffic bill nothing.  Alone, and
        # stacked before or after a stepped sibling, every row is its model's qcost.
        n_locations, catalogs = TOPOLOGIES[topology]
        components = ["a", "b", "c", "d"]
        edges = [
            EdgeFootprint("/x", "a", "b", 1.5e6, 2.5e6),
            EdgeFootprint("/x", "b", "c", 3.1e5, 7.3e5),
        ]

        def estimate(series):
            return ResourceEstimate(
                step_ms=60_000.0,
                usage={r: {c: list(series) for c in components} for r in RESOURCES},
                api_rates={"/x": list(series)},
            )

        step_less = CloudCostModel(
            EAST,
            estimate([]),
            NetworkFootprint(edges),
            {"b": 1.0 + 2.0**-30, "c": 2.0**-53, "d": 2.0**-53 + 3.7},
            MigrationPlan.all_on_prem(components),
            time_compression=288.0,
            catalogs=catalogs,
        )
        stepped = step_less.derive(estimate=estimate([40.0, 55.5, 13.25]))
        matrix = np.asarray(list(itertools.product(range(n_locations), repeat=4)))
        plans = [MigrationPlan.from_vector(components, row) for row in matrix.tolist()]
        assert any(step_less.storage_cost(plan) > 0.0 for plan in plans)
        for models in ([step_less], [step_less, stepped], [stepped, step_less]):
            total = CloudCostModel.qcost_stack(models, matrix, components)
            for s, one in enumerate(models):
                assert hexes(total[s]) == [float(one.qcost(plan)).hex() for plan in plans]

    @pytest.mark.parametrize("stacked", [False, True])
    def test_scalar_oracle_does_not_lean_on_builtin_sum(self, monkeypatch, stacked):
        # CPython 3.12 made ``sum()`` over floats compensated; a plain left fold is
        # what the kernels reproduce.  ``fsum`` stands in for 3.12 on any interpreter.
        monkeypatch.setattr(cost_module, "sum", math.fsum, raising=False)
        model, components = three_bucket_model()
        plan = MigrationPlan.from_vector(components, [0, 1, 2, 3])
        assert model.traffic_cost(plan) == 1.0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            model, components, n_locations = random_world(rng, 24, 18, "4loc")
            models = [model, price_shocked(model)] if stacked else [model]
            matrix = random_matrix(rng, 6, len(components), n_locations)
            _compute, storage, traffic = cost_terms(models, matrix, components)
            for s, one in enumerate(models):
                for p, row in enumerate(matrix.tolist()):
                    plan = MigrationPlan.from_vector(components, row)
                    assert storage[s, p].hex() == float(one.storage_cost(plan)).hex()
                    assert traffic[s, p].hex() == float(one.traffic_cost(plan)).hex()


def node_spec_sibling(model):
    """A ``derive`` sibling whose first billable site runs another node spec (a
    capacity cut's shape): its own autoscaler there, the model's everywhere else."""
    first = min(model.catalogs)

    def cut(catalog):
        spec = catalog.node_spec
        return dataclasses.replace(
            catalog,
            node_spec=dataclasses.replace(
                spec, cpu_millicores=spec.cpu_millicores * 0.37, memory_mb=spec.memory_mb * 0.61
            ),
        )

    return model.derive(
        catalogs={
            location: cut(catalog) if location == first else catalog
            for location, catalog in model.catalogs.items()
        }
    )


class TestSitePass:
    """QCost's compute term and the on-prem peaks read one fused site pass: every
    billable site and the on-prem site, every (estimate, resource) read stacked."""

    @staticmethod
    def _scored(models, matrix, components, reads):
        stack = cost_module._CostStack.of(models, tuple(components), reads)
        sums = stack.sites.aggregate(matrix)
        nodes = stack.nodes(sums, len(matrix))
        compute = cost_module._compute_rows(nodes, stack.bills, len(models))
        return stack, sums, compute, stack.qcost(models, matrix, sums)

    @pytest.mark.parametrize("n_plans", [0, 1, 2, PLAN_BLOCK + 1])
    @pytest.mark.parametrize("topology", ["2loc", "3loc", "4loc"])
    def test_matches_the_scalar_compute_cost_and_peaks(self, topology, n_plans):
        rng = np.random.default_rng(31 * n_plans + len(topology))
        model, components, n_locations = random_world(rng, 14, 18, topology)
        matrix = rng.integers(0, n_locations, size=(n_plans, len(components)))
        # An estimate stored in the reverse order over fewer steps: its reads sit in
        # groups of their own, and its walks form a block of their own.
        order = list(model.estimate.usage["cpu_millicores"])
        other = random_estimate(rng, order[::-1], 7, shuffle=False)
        reads = [(one, resource) for one in (model.estimate, other) for resource in RESOURCES]
        # The stack of one, then the model beside a sibling with another node spec
        # at one site, then beside a sibling over the other estimate too: each row
        # is its own model's scalar answer.
        for models in (
            [model],
            [model, node_spec_sibling(model)],
            [model, node_spec_sibling(model), model.derive(estimate=other)],
        ):
            stack, sums, compute, total = self._scored(models, matrix, components, reads)
            assert compute.shape == total.shape == (len(models), n_plans)
            peaks = [(read, stack.peaks(sums, *read)) for read in reads]
            for p, row in enumerate(matrix.tolist()):
                plan = MigrationPlan.from_vector(components, row)
                on_prem = plan.components_at(ON_PREM)
                for (one, resource), peak in peaks:
                    assert peak[p] == one.peak(resource, on_prem)
                for s, one in enumerate(models):
                    assert compute[s, p].hex() == one.compute_cost(plan)[0].hex()
                    assert total[s, p].hex() == float(one.qcost(plan)).hex()

    def test_a_billable_site_no_row_uses(self):
        rng = np.random.default_rng(5)
        model, components, n_locations = random_world(rng, 14, 18, "4loc")
        spare = max(model.catalogs)
        matrix = rng.integers(0, spare, size=(9, len(components)))
        reads = [(model.estimate, "cpu_millicores")]
        for models in ([model], [model, node_spec_sibling(model)]):
            stack, sums, compute, total = self._scored(models, matrix, components, reads)
            assert spare in stack.sites.sites.tolist()
            for p, row in enumerate(matrix.tolist()):
                plan = MigrationPlan.from_vector(components, row)
                for s, one in enumerate(models):
                    assert compute[s, p].hex() == one.compute_cost(plan)[0].hex()
                    assert total[s, p].hex() == float(one.qcost(plan)).hex()

    def test_negative_demand_raises_the_scalar_error(self):
        components = ["a", "b"]
        usage = {r: {"a": [1.0, 2.0], "b": [3.0, -5.0]} for r in RESOURCES}
        estimate = ResourceEstimate(step_ms=1.0, usage=usage)
        model = CloudCostModel(
            EAST, estimate, NetworkFootprint([]), {}, MigrationPlan.all_on_prem(components)
        )
        plan = MigrationPlan.from_vector(components, [CLOUD, CLOUD])
        with pytest.raises(ValueError, match="resource demand must be non-negative") as scalar:
            model.compute_cost(plan)
        with pytest.raises(ValueError) as batched:
            CloudCostModel.qcost_stack([model], [[CLOUD, CLOUD], [ON_PREM, ON_PREM]], components)
        assert str(batched.value) == str(scalar.value)
        # On-prem alone bills nothing and aggregates no negative demand anywhere.
        (cost,) = CloudCostModel.qcost_stack([model], [[ON_PREM, ON_PREM]], components)
        assert cost.tolist() == [0.0]

    def test_one_aggregation_per_call_for_compute_and_peaks(self, tiny_telemetry, monkeypatch):
        app, result = tiny_telemetry
        atlas = _atlas(app, result.telemetry, sites=3)
        evaluator = atlas.build_evaluator(SCALE, problem=PlacementProblem.default(
            dataclasses.replace(atlas.preferences, budget_usd=1e6)
        ))
        calls = {"passes": 0, "sums": 0}
        aggregate = SitePass.aggregate

        def counting_aggregate(self, matrix):
            # The storage term's pass over the stateful columns bills no on-prem
            # site (and runs only for placements its memo lacks): not counted.
            if ON_PREM in self.sites.tolist():
                calls["passes"] += 1
                calls["sums"] += len(self.groups)  # one ordered_masked_sum per group
                assert self.sites.tolist() == [CLOUD, 2, ON_PREM]
            return aggregate(self, matrix)

        monkeypatch.setattr(SitePass, "aggregate", counting_aggregate)
        rng = np.random.default_rng(3)
        for door in ("evaluate_vectors", "feasible_mask", "qcost_vectors"):
            vectors = rng.integers(0, 3, size=(4, len(app.component_names)))
            vectors[:, 0] = CLOUD
            vectors[:, 1] = 2
            before = dict(calls)
            getattr(evaluator, door)(vectors)
            assert {key: calls[key] - before[key] for key in calls} == {"passes": 1, "sums": 1}, door


class TestMemoLaws:
    def _world(self, seed=5, topology="3loc"):
        rng = np.random.default_rng(seed)
        return random_world(rng, 12, 18, topology) + (rng,)

    def test_storage_memo_keys_on_stateful_columns_only(self):
        model, components, n_locations, rng = self._world()
        lowering = model._lowering(components)
        stateful = lowering.stateful_columns
        assert 0 < stateful.size < len(components)
        stateless = [i for i in range(len(components)) if i not in set(stateful.tolist())]
        row = rng.integers(0, n_locations, size=len(components))
        twin = row.copy()
        twin[stateless] = (twin[stateless] + 1) % n_locations
        CloudCostModel.qcost_stack([model], [row], components)
        memo = model._storage_cost_cache[tuple(components)]
        assert len(memo) == 1
        # Differs only in stateless columns: a hit.
        CloudCostModel.qcost_stack([model], [twin], components)
        assert len(memo) == 1
        moved = row.copy()
        moved[stateful[0]] = (moved[stateful[0]] + 1) % n_locations
        CloudCostModel.qcost_stack([model], [moved], components)  # a stateful move: miss
        assert len(memo) == 2

    def test_derived_siblings_and_permuted_orders_never_share_entries(self):
        model, components, n_locations, rng = self._world()
        matrix = random_matrix(rng, 20, len(components), n_locations)
        CloudCostModel.qcost_stack([model], matrix, components)
        shocked = model.derive(catalogs={CLOUD: WEST, 2: EAST})
        assert shocked._storage_cost_cache == {}
        permutation = rng.permutation(len(components))
        permuted = [components[i] for i in permutation]
        for other in (shocked, model):
            (got,) = CloudCostModel.qcost_stack([other], matrix[:, permutation], permuted)
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
        (batched,) = CloudCostModel.qcost_stack([model], matrix, components)
        (again,) = CloudCostModel.qcost_stack([model], matrix[::-1], components)
        again = again[::-1]
        scalar_after = [model.qcost(plan) for plan in plans]
        assert hexes(batched) == hexes(again) == hexes(scalar_after)
        assert hexes(scalar_first) == hexes(batched[:10])

    def test_a_shared_compiled_scenario_stops_growing_with_the_plans_it_scores(
        self, tiny_telemetry
    ):
        """A budgeted S = 4 evaluator whose compiled scenarios live in an
        ``ArtifactCache`` — where they outlive any one request — prices plans that
        share one stateful placement through every door.  Its cost models and their
        estimates hold as many entries after 40 plans as after 8: no memo is keyed
        by the plan, only the storage memo by the stateful placement."""
        app, result = tiny_telemetry
        atlas = _atlas(app, result.telemetry, sites=3)
        components = app.component_names
        # Forty distinct plans, every one with the stateful Database on-prem.
        stateless = [i for i, name in enumerate(components) if name != "Database"]
        grid = np.asarray(list(itertools.product(range(3), repeat=len(stateless))))
        vectors = np.full((40, len(components)), ON_PREM)
        vectors[:, stateless] = grid[np.random.default_rng(17).permutation(len(grid))[:40]]
        budget = float(np.median(atlas.build_evaluator(SCALE).qcost_vectors(vectors)))
        preferences = dataclasses.replace(atlas.preferences, budget_usd=budget)
        evaluator = atlas.build_evaluator(
            SCALE,
            problem=PlacementProblem.default(preferences, scenarios=ROBUST_S4),
            artifact_cache=ArtifactCache(),
        )
        probe = ScenarioSpec(name="probe", rate_scale=2.0, payload_scale=1.5)

        def score(block):
            evaluator.feasible_mask(block)
            evaluator.evaluate_vectors(block)
            evaluator.qcost_vectors(block)
            for row in block.tolist():
                evaluator.evaluate_under(MigrationPlan.from_vector(components, row), probe)

        def scenarios():
            return [evaluator._base] + [
                compiled for compiled, _view in evaluator._scenario_pairs.values()
            ]

        def census():
            models = [compiled.cost for compiled in scenarios()]
            held = [*models, *(model.estimate for model in models), *scenarios()]
            return {
                (index, name): _entries(value)
                for index, owner in enumerate(held)
                for name, value in vars(owner).items()
                if isinstance(value, dict)
            }

        score(vectors[:8])
        after_eight = census()
        score(vectors[8:])
        assert len(evaluator._scenario_pairs) == len(ROBUST_S4) + 1
        assert census() == after_eight
        # The plans did reach the kernel: every storage memo holds the one placement.
        for compiled, _view in evaluator._scenario_pairs.values():
            assert [len(memo) for memo in compiled.cost._storage_cost_cache.values()] == [1]
        # What a call builds once is keyed by compiled scenario and component order:
        # each scenario's lowering memo by the order, each cost stack by its models,
        # the order and the on-prem reads — never by a plan.
        order = tuple(components)
        for compiled in scenarios():
            assert set(compiled._lowerings) == {order}
            assert set(compiled._lowerings[order]) <= {
                "qperf-box", "qperf-weights", "qavai-weights", "onprem-limits", "pins"
            }
            for models, key, reads in compiled.cost._stacks:
                assert key == order
                assert {resource for _estimate, resource in reads} <= {"cpu_millicores"}


def _entries(value):
    """Entries of a dict, counting those of every dict nested in its values."""
    if not isinstance(value, dict):
        return 0
    return len(value) + sum(_entries(inner) for inner in value.values())


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

    def test_a_non_integral_location_is_refused(self):
        """1.9 names no site: both constructors refuse it instead of truncating it
        to 1; a float an int equals is that int."""
        with pytest.raises(ValueError, match="non-integral location 1.9 for component 'a'"):
            MigrationPlan({"a": 1.9})
        with pytest.raises(ValueError, match="non-integral location 1.5 for component 'b'"):
            MigrationPlan.from_vector(["a", "b"], [0, 1.5])
        with pytest.raises(ValueError, match="non-integral location"):
            MigrationPlan.from_vector(["a"], np.asarray([0.5]))
        plan = MigrationPlan.from_vector(["a", "b"], [1.0, np.float64(2.0)])
        assert plan.to_vector() == [1, 2] and all(type(v) is int for v in plan.to_vector())

    def test_both_errors_keep_their_messages(self):
        with pytest.raises(ValueError, match="vector length 1 does not match component count 2"):
            MigrationPlan.from_vector(["a", "b"], [1])
        with pytest.raises(ValueError, match="negative location for component 'b'"):
            MigrationPlan.from_vector(["a", "b", "c"], [1, -1, -2])
        with pytest.raises(ValueError, match="negative location for component 'b'"):
            MigrationPlan({"a": 1, "b": -1, "c": -2})
