"""Tests for the plan search: Pareto tools, NSGA-II machinery, DRL agent, Atlas GA, baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CLOUD, ON_PREM, MigrationPlan
from repro.optimizer import (
    AdamOptimizer,
    CrossoverAgent,
    GAConfig,
    MLP,
    bitflip_mutation,
    crowding_distance,
    dominates,
    hypervolume_2d,
    non_dominated_sort,
    pareto_front,
    rank_population,
    survival_selection,
    tournament_pairs,
    uniform_crossover,
)
from repro.optimizer.atlas_ga import affinity_seed_vectors, penalized_objectives
from repro.quality.evaluator import PlanQuality


class TestParetoTools:
    def test_dominates_basic(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 3), (2, 1))
        assert not dominates((1, 1), (1, 1))

    def test_dominates_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1,), (1, 2))

    def test_pareto_front_filters_dominated(self):
        points = [(1, 5), (2, 2), (5, 1), (3, 3), (6, 6)]
        front = pareto_front(points, key=lambda p: p)
        assert set(front) == {(1, 5), (2, 2), (5, 1)}

    def test_pareto_front_deduplicates(self):
        points = [(1, 1), (1, 1), (2, 2)]
        assert pareto_front(points, key=lambda p: p) == [(1, 1)]

    def test_non_dominated_sort_layers(self):
        objectives = [(1, 1), (2, 2), (3, 3), (1, 3), (3, 1)]
        fronts = non_dominated_sort(objectives)
        assert 0 in fronts[0]
        assert set(fronts[0]) == {0}
        assert all(i in fronts[1] for i in (1, 3, 4))

    def test_crowding_distance_boundaries_infinite(self):
        objectives = [(0.0, 3.0), (1.0, 2.0), (2.0, 1.0), (3.0, 0.0)]
        distances = crowding_distance(objectives)
        assert distances[0] == float("inf")
        assert distances[3] == float("inf")
        assert all(d > 0 for d in distances)

    def test_crowding_distance_small_fronts(self):
        assert crowding_distance([(1, 1)]) == [float("inf")]
        assert crowding_distance([]) == []

    def test_hypervolume_monotone_in_front_quality(self):
        reference = (10.0, 10.0)
        weak = [(8.0, 8.0)]
        strong = [(2.0, 8.0), (8.0, 2.0), (4.0, 4.0)]
        assert hypervolume_2d(strong, reference) > hypervolume_2d(weak, reference)
        assert hypervolume_2d([], reference) == 0.0


class TestNSGA2Machinery:
    def test_rank_population_assigns_ranks(self):
        objectives = [(1, 1), (2, 2), (1, 3), (3, 1)]
        ranked = rank_population(objectives)
        by_index = {r.index: r for r in ranked}
        assert by_index[0].rank == 0
        assert by_index[1].rank == 1

    def test_crowded_comparison(self):
        objectives = [(1, 1), (2, 2)]
        ranked = rank_population(objectives)
        better = next(r for r in ranked if r.index == 0)
        worse = next(r for r in ranked if r.index == 1)
        assert better.beats(worse)

    def test_tournament_pairs_prefer_distinct_parents(self):
        rng = np.random.default_rng(0)
        ranked = rank_population([(1, 1), (2, 2), (3, 3), (4, 4)])
        pairs = tournament_pairs(ranked, 10, rng)
        assert len(pairs) == 10
        assert any(a != b for a, b in pairs)

    def test_survival_selection_is_elitist(self):
        objectives = [(1, 1), (5, 5), (2, 2), (4, 4), (3, 3)]
        survivors = survival_selection(objectives, 2)
        assert 0 in survivors and len(survivors) == 2

    def test_survival_selection_uses_crowding_within_front(self):
        # One big front; selection should keep the extremes.
        objectives = [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
        survivors = survival_selection(objectives, 3)
        assert 0 in survivors and 4 in survivors

    def test_uniform_crossover_genes_come_from_parents(self):
        rng = np.random.default_rng(1)
        child = uniform_crossover([0] * 10, [1] * 10, rng)
        assert all(g in (0, 1) for g in child)
        assert len(child) == 10

    def test_uniform_crossover_length_mismatch(self):
        with pytest.raises(ValueError):
            uniform_crossover([0], [0, 1], np.random.default_rng(0))

    def test_bitflip_mutation_rate_extremes(self):
        rng = np.random.default_rng(2)
        assert bitflip_mutation([0, 1, 0], rng, rate=0.0) == [0, 1, 0]
        flipped = bitflip_mutation([0, 0, 0, 0], rng, rate=1.0)
        assert flipped == [1, 1, 1, 1]
        with pytest.raises(ValueError):
            bitflip_mutation([0], rng, rate=2.0)


def _choice_form_mutation(vector, rng, rate, locations):
    """``bitflip_mutation`` as it drew before: ``int(rng.choice(choices))``."""
    result = [int(v) for v in vector]
    for i in range(len(result)):
        if rng.random() < rate:
            choices = [loc for loc in locations if loc != result[i]]
            if choices:
                result[i] = int(rng.choice(choices))
    return result


class TestBitflipDraw:
    """``choices[rng.integers(0, len(choices))]`` is the draw ``rng.choice(choices)``
    makes: the same vector and the same generator state, call after call."""

    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    @pytest.mark.parametrize("rate", [0.05, 0.5, 1.0])
    def test_same_vector_and_state_as_the_choice_form(self, n_sites, rate):
        locations = list(range(n_sites))
        for seed in range(10):
            vector = np.random.default_rng(seed + 100).integers(0, n_sites, size=40).tolist()
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):  # interleaved calls continue one stream
                got = bitflip_mutation(vector, fast, rate, locations=locations)
                assert got == _choice_form_mutation(vector, slow, rate, locations)
                assert all(type(gene) is int for gene in got)
                assert fast.bit_generator.state == slow.bit_generator.state
                vector = got

    def test_a_one_element_choice_list_draws_nothing(self):
        # Two sites at rate 1.0: every gene has one other site to go to, so the
        # only draws are the per-gene rng.random() calls.
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        assert bitflip_mutation([0, 1, 1, 0], rng, 1.0, locations=(0, 1)) == [1, 0, 0, 1]
        reference.random(4)
        assert rng.bit_generator.state == reference.bit_generator.state


class TestMLPAndAdam:
    def test_forward_shapes(self):
        net = MLP(4, [8], 3, head="sigmoid", seed=0)
        out = net(np.zeros(4))
        assert out.shape == (1, 3)
        assert np.all((out >= 0) & (out <= 1))

    def test_linear_head_unbounded(self):
        net = MLP(2, [4], 1, head="linear", seed=0)
        out = net(np.array([10.0, -10.0]))
        assert out.shape == (1, 1)

    def test_invalid_head_rejected(self):
        with pytest.raises(ValueError):
            MLP(2, [4], 1, head="tanh")

    def test_training_reduces_regression_loss(self):
        rng = np.random.default_rng(0)
        net = MLP(3, [16, 16], 1, head="linear", seed=1)
        opt = AdamOptimizer(learning_rate=1e-2)
        inputs = rng.normal(size=(64, 3))
        targets = (inputs.sum(axis=1, keepdims=True)) * 0.5

        def loss():
            pred, _ = net.forward(inputs)
            return float(np.mean((pred - targets) ** 2))

        before = loss()
        for _ in range(200):
            pred, cache = net.forward(inputs, keep_cache=True)
            grad = 2.0 * (pred - targets) / len(inputs)
            grads = net.backward(cache, grad)
            net.apply_gradients(grads, opt)
        assert loss() < before * 0.2


class TestCrossoverAgent:
    def test_child_respects_pins(self):
        agent = CrossoverAgent(n_components=6, hidden_dims=(16,), pinned={0: ON_PREM, 5: CLOUD}, seed=0)
        rng = np.random.default_rng(0)
        child = agent.crossover([0] * 6, [1] * 6, rng)
        assert child[0] == ON_PREM and child[5] == CLOUD
        assert len(child) == 6

    def test_probabilities_shape_and_range(self):
        agent = CrossoverAgent(n_components=5, hidden_dims=(8,), seed=1)
        probs = agent.child_probabilities([0] * 5, [1] * 5)
        assert probs.shape == (5,)
        assert np.all((probs > 0) & (probs < 1))

    def test_parent_length_validation(self):
        agent = CrossoverAgent(n_components=4, hidden_dims=(8,), seed=1)
        with pytest.raises(ValueError):
            agent.state([0, 1], [0, 1, 0, 1])

    def test_training_learns_simple_reward(self):
        """Reward favours offloading everything: the agent should learn to emit ones."""
        agent = CrossoverAgent(n_components=6, hidden_dims=(16, 16), learning_rate=5e-3, seed=2)
        pairs = [([0] * 6, [1] * 6), ([1] * 6, [0] * 6)]

        def reward(children, _parents_a, _parents_b):
            return [float(sum(child)) - 3.0 for child in children]

        history = agent.train(pairs, reward, iterations=150, batch_size=4)
        assert len(history.mean_rewards) == 150
        early = np.mean(history.mean_rewards[:20])
        late = np.mean(history.mean_rewards[-20:])
        assert late > early
        probs = agent.child_probabilities([0] * 6, [1] * 6)
        assert probs.mean() > 0.6

    def test_smoothed_rewards_length(self):
        agent = CrossoverAgent(n_components=3, hidden_dims=(8,), seed=3)
        history = agent.train([([0, 0, 0], [1, 1, 1])], lambda children, a, b: [1.0] * len(children), iterations=10, batch_size=1)
        assert len(history.smoothed_rewards()) == 10


def _quality(vector, perf, avail, cost, feasible=True):
    plan = MigrationPlan.from_vector([f"c{i}" for i in range(len(vector))], vector)
    return PlanQuality(plan=plan, values=(perf, avail, cost),
                       names=("qperf", "qavai", "qcost"), feasible=feasible,
                       violations=() if feasible else ("v",))


class TestAtlasGAHelpers:
    def test_penalized_objectives(self):
        ok = _quality([0, 1], 1.0, 2.0, 3.0, feasible=True)
        bad = _quality([1, 0], 1.0, 2.0, 3.0, feasible=False)
        assert penalized_objectives(ok) == (1.0, 2.0, 3.0)
        assert all(v > 1e5 for v in penalized_objectives(bad))

    def test_affinity_seed_vectors_reach_feasibility(self):
        components = ["A", "B", "C", "D"]
        traffic = {("A", "B"): 1000.0, ("B", "C"): 10.0, ("C", "D"): 500.0}

        def feasible(vector):
            return sum(1 for location in vector if location != ON_PREM) >= 2

        seeds = affinity_seed_vectors(
            components, pinned={"A": ON_PREM}, pair_traffic=traffic,
            is_feasible=feasible, rng=np.random.default_rng(0), count=3,
        )
        assert len(seeds) == 3
        for seed in seeds:
            assert seed[0] == ON_PREM  # pin respected
            assert sum(seed) >= 2  # feasible

    def test_affinity_seeds_prefer_cutting_light_edges(self):
        components = ["A", "B", "C"]
        traffic = {("A", "B"): 10_000.0, ("B", "C"): 1.0}

        def feasible(vector):
            return sum(1 for location in vector if location != ON_PREM) >= 1

        seeds = affinity_seed_vectors(
            components, pinned={}, pair_traffic=traffic,
            is_feasible=feasible, rng=np.random.default_rng(0), count=1, noise=0.0,
        )
        # Offloading C cuts only the 1-byte edge; A/B stay together.
        assert seeds[0] == [ON_PREM, ON_PREM, CLOUD]


def _unmemoised_seed_vectors(
    components, pinned, pair_traffic, is_feasible, rng, count, noise, locations, allowed_locations
):
    """``affinity_seed_vectors`` as it was before it asked ``is_feasible`` once per
    distinct vector: the oracle of the memoised one."""
    primary_remote = [loc for loc in locations if loc != ON_PREM][0]
    movable = [
        c
        for c in components
        if c not in pinned
        and (allowed_locations.get(c) is None or primary_remote in allowed_locations[c])
    ]
    incident = {c: [] for c in components}
    for (src, dst), bytes_ in pair_traffic.items():
        if src != dst and src in incident and dst in incident:
            incident[src].append((dst, bytes_))
            incident[dst].append((src, bytes_))
    seeds = []
    for _ in range(count):
        assignment = {c: pinned.get(c, ON_PREM) for c in components}

        def flip_delta(c):
            side = assignment[c]
            target = primary_remote if side == ON_PREM else ON_PREM
            delta = 0.0
            for neighbour, bytes_ in incident[c]:
                crosses_now = assignment[neighbour] != side
                crosses_after = assignment[neighbour] != target
                if crosses_after and not crosses_now:
                    delta += bytes_
                elif crosses_now and not crosses_after:
                    delta -= bytes_
            return delta

        def vector():
            return [assignment[c] for c in components]

        current_cut = sum(
            bytes_
            for (src, dst), bytes_ in pair_traffic.items()
            if src in assignment and dst in assignment and assignment[src] != assignment[dst]
        )
        guard = len(components) + 1
        while not is_feasible(vector()) and guard > 0:
            guard -= 1
            candidates = [c for c in movable if assignment[c] == ON_PREM]
            if not candidates:
                break
            _score, chosen = min(
                ((current_cut + flip_delta(c)) * (1.0 + noise * rng.random()), c)
                for c in candidates
            )
            current_cut += flip_delta(chosen)
            assignment[chosen] = primary_remote
        for _ in range(2):
            improved = False
            for c in movable:
                delta = flip_delta(c)
                if delta >= 0.0:
                    continue
                original = assignment[c]
                assignment[c] = primary_remote if original == ON_PREM else ON_PREM
                if is_feasible(vector()):
                    current_cut += delta
                    improved = True
                else:
                    assignment[c] = original
            if not improved:
                break
        seeds.append(vector())
    return seeds


class TestAffinitySeedMemo:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_one_probe_per_distinct_vector(self, seed):
        """The seeds and the generator's state are the unmemoised function's; the
        feasibility probes are its distinct vectors, each asked once — fewer, since
        every seed starts from the same pinned vector."""
        draw = np.random.default_rng(seed)
        components = [f"C{i}" for i in range(int(draw.integers(3, 12)))]
        traffic = {
            (a, b): float(np.round(draw.uniform(0.0, 100.0), 1))
            for a in components
            for b in components
            if a != b and draw.random() < 0.3
        }
        pinned = {components[0]: ON_PREM}
        allowed = {components[-1]: (ON_PREM, 2)} if draw.random() < 0.5 else {}
        need = int(draw.integers(0, len(components)))
        heavy = frozenset(int(i) for i in draw.choice(len(components), size=2))

        def feasible(vector):
            remote = [i for i, location in enumerate(vector) if location != ON_PREM]
            return len(remote) >= need and not heavy <= set(remote)

        asked = {"memo": [], "plain": []}

        def spy(label):
            def is_feasible(vector):
                asked[label].append(tuple(vector))
                return feasible(vector)

            return is_feasible

        rngs = {label: np.random.default_rng(seed) for label in asked}
        kwargs = dict(pinned=pinned, pair_traffic=traffic, count=4, noise=0.15,
                      locations=(ON_PREM, CLOUD, 2), allowed_locations=allowed)
        got = affinity_seed_vectors(
            components, is_feasible=spy("memo"), rng=rngs["memo"], **kwargs
        )
        want = _unmemoised_seed_vectors(
            components, is_feasible=spy("plain"), rng=rngs["plain"], **kwargs
        )
        assert got == want
        assert rngs["memo"].bit_generator.state == rngs["plain"].bit_generator.state
        assert len(asked["memo"]) == len(set(asked["memo"]))
        assert set(asked["memo"]) == set(asked["plain"])
        assert len(asked["memo"]) < len(asked["plain"])


class TestGAConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=2)
        with pytest.raises(ValueError):
            GAConfig(crossover="magic")
        with pytest.raises(ValueError):
            GAConfig(population_size=100, evaluation_budget=50)
        for rate in (1.5, -0.1):
            with pytest.raises(ValueError, match="mutation_rate"):
                GAConfig(mutation_rate=rate)

    # Each of these used to construct and then raise inside AtlasGA.run() (training)
    # or spin max_generations generations that visit no new plan.
    def test_train_iterations_zero_points_at_uniform_crossover(self):
        with pytest.raises(ValueError, match="crossover='uniform'"):
            GAConfig(train_iterations=0)
        # Without an agent to train, zero iterations is what uniform crossover means.
        assert GAConfig(train_iterations=0, crossover="uniform").train_iterations == 0

    def test_train_batch_size_must_be_positive(self):
        with pytest.raises(ValueError, match="train_batch_size"):
            GAConfig(train_batch_size=0)

    def test_train_pairs_must_be_positive(self):
        with pytest.raises(ValueError, match="train_pairs"):
            GAConfig(train_pairs=0)

    def test_immigrants_per_generation_must_not_be_negative(self):
        with pytest.raises(ValueError, match="immigrants_per_generation"):
            GAConfig(immigrants_per_generation=-3)

    def test_offspring_per_generation_must_not_be_negative(self):
        with pytest.raises(ValueError, match="offspring_per_generation"):
            GAConfig(offspring_per_generation=-1)

    def test_a_generation_must_visit_a_new_plan(self):
        with pytest.raises(ValueError, match="at least one plan"):
            GAConfig(offspring_per_generation=0, immigrants_per_generation=0, local_search_period=0)
        # Immigrants alone still spend the budget.
        assert GAConfig(offspring_per_generation=0, immigrants_per_generation=1).offspring_per_generation == 0
