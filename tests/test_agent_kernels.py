"""The crossover agent's batched arithmetic ≡ its per-sample arithmetic, byte for byte.

Two numpy mechanisms let the agent leave per-sample calls without moving a bit:

* a ``(P, 1, D) @ (D, N)`` stack runs one GEMV per ``(1, D)`` slice — the call a
  single row makes — so a stacked forward is the per-sample forward row by row;
* a one-row ``a.T @ d`` is a ``(K, 1) @ (1, N)`` matmul that numpy computes in its
  own loop as ``0 + a * d``, which ``a.T * d + 0.0`` reproduces (the ``+ 0.0`` turns
  the product's ``-0.0`` into the loop's ``+0.0``).

The references below are the per-pair encoding, the per-row forward and the
backward as they stood before the stacked pass; a generation bred from one
``pair_probabilities`` call must equal per-pair ``crossover`` draw for draw,
interleaved with ``bitflip_mutation`` as ``AtlasGA.run`` interleaves them.  Run these
with ``OPENBLAS_NUM_THREADS=1`` as well as with BLAS's default threads: the law
must hold under both.
"""

import numpy as np
import pytest
from fingerprints import GOLDEN_GA, build_tiny_evaluator

from repro.optimizer import AtlasGA, CrossoverAgent
from repro.optimizer.drl.mlp import MLP
from repro.optimizer.nsga2 import bitflip_mutation

LOCATION_SETS = [(0, 1), (0, 1, 2)]


# -- the references ----------------------------------------------------------------------------
def reference_state(agent, parent_a, parent_b):
    """The per-pair encoding: raw genes (binary) or a one-hot written gene by gene."""
    if agent._binary:
        return np.concatenate(
            [np.asarray(parent_a, dtype=float), np.asarray(parent_b, dtype=float)]
        )
    halves = []
    for vector in (parent_a, parent_b):
        encoded = np.zeros(agent.n_components * agent.n_locations, dtype=float)
        for component, location in enumerate(vector):
            encoded[component * agent.n_locations + agent._loc_index[int(location)]] = 1.0
        halves.append(encoded)
    return np.concatenate(halves)


def reference_forward(mlp, row):
    """One sample's forward: a ``(1, D)`` row through every layer."""
    h = np.asarray(row, dtype=float)[None, :]
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = h @ w + b
        if i < len(mlp.weights) - 1:
            h = np.maximum(z, 0.0)
        elif mlp.head == "sigmoid":
            h = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
        else:
            h = z
    return h


def reference_probabilities(agent, parent_a, parent_b):
    out = reference_forward(agent.actor, reference_state(agent, parent_a, parent_b))[0]
    if agent._binary:
        return np.clip(out, 1e-6, 1.0 - 1e-6)
    return agent._softmax(out.reshape(agent.n_components, agent.n_locations))


def reference_backward(mlp, activations, output_grad):
    """The backward with a GEMM for every weight gradient, one row or many."""
    grads = [None] * len(mlp.weights)
    delta = np.atleast_2d(output_grad).astype(float)
    if mlp.head == "sigmoid":
        out = activations[-1]
        delta = delta * out * (1.0 - out)
    for i in range(len(mlp.weights) - 1, -1, -1):
        grads[i] = (activations[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = delta @ mlp.weights[i].T
            delta = delta * (activations[i] > 0.0)
    return grads


def _agent(locations, seed=3, n_components=9, trained=True):
    agent = CrossoverAgent(
        n_components=n_components,
        hidden_dims=(24, 24, 24),
        pinned={4: 0},
        allowed={2: (0, 1), 6: (0,)},
        locations=locations,
        seed=seed,
    )
    if trained:
        pairs = _parents(locations, 6, n_components, seed=seed + 100)
        agent.train(
            list(zip(*pairs)),
            lambda children, *_: [float(sum(child)) - 3.0 for child in children],
            iterations=6,
            batch_size=3,
        )
    return agent


def _parents(locations, count, n_components=9, seed=0):
    genes = np.random.default_rng(seed).choice(locations, size=(2, count, n_components))
    return genes[0].tolist(), genes[1].tolist()


def _bytes(arrays):
    return [array.tobytes() for array in arrays]


# -- (1) a stacked forward is the per-sample forward -------------------------------------------
class TestStackedForward:
    @pytest.mark.parametrize("locations", LOCATION_SETS)
    @pytest.mark.parametrize("count", [1, 2, 7, 30])
    def test_actor_probabilities(self, locations, count):
        agent = _agent(locations)
        parents_a, parents_b = _parents(locations, count, seed=count)
        stacked = agent.pair_probabilities(parents_a, parents_b)
        assert stacked.shape[0] == count
        for row, a, b in zip(stacked, parents_a, parents_b):
            assert row.tobytes() == reference_probabilities(agent, a, b).tobytes()
            assert agent.child_probabilities(a, b).tobytes() == row.tobytes()

    @pytest.mark.parametrize("locations", LOCATION_SETS)
    def test_state_encoding(self, locations):
        agent = _agent(locations, trained=False)
        parents_a, parents_b = _parents(locations, 5, seed=8)
        stacked = agent._encode(parents_a, parents_b)
        assert stacked.shape == (5, 1, agent.actor.weights[0].shape[0])
        for row, a, b in zip(stacked, parents_a, parents_b):
            assert row[0].tobytes() == reference_state(agent, a, b).tobytes()
            assert agent.state(a, b).tobytes() == row[0].tobytes()

    @pytest.mark.parametrize("locations", LOCATION_SETS)
    @pytest.mark.parametrize("net", ["actor", "critic"])
    def test_every_activation_of_actor_and_critic(self, locations, net):
        agent = _agent(locations)
        mlp = getattr(agent, net)
        parents_a, parents_b = _parents(locations, 11, seed=4)
        states = agent._encode(parents_a, parents_b)
        out, cache = mlp.forward(states, keep_cache=True)
        assert out.shape == (11, 1, mlp.weights[-1].shape[1])
        for p in range(11):
            _, alone = mlp.forward(states[p], keep_cache=True)
            assert _bytes(layer[p] for layer in cache) == _bytes(alone)
            assert out[p].tobytes() == reference_forward(mlp, states[p, 0]).tobytes()

    def test_a_stack_is_exact_where_a_batch_is_only_close(self):
        # The stack is exact; a (B, D) batch is one GEMM and is only required to agree
        # in value — which is why breeding stacks rows instead of batching them.
        mlp = MLP(40, (32, 32), 5, head="sigmoid", seed=2)
        rows = np.random.default_rng(1).normal(size=(9, 40))
        stacked = mlp(rows[:, None, :])[:, 0]
        for p in range(9):
            assert stacked[p].tobytes() == reference_forward(mlp, rows[p])[0].tobytes()
        np.testing.assert_allclose(mlp(rows), stacked, rtol=1e-12, atol=0.0)


# -- (2) a one-row gradient is a product --------------------------------------------------------
class TestOneRowBackward:
    def test_product_plus_zero_is_the_matmul_loop(self):
        rng = np.random.default_rng(0)
        a = np.maximum(rng.normal(size=(1, 37)), 0.0)  # ReLU zeros ...
        d = rng.normal(size=(1, 23))
        d[0, :5] = -np.abs(d[0, :5])  # ... times negatives: a * d is -0.0 there
        assert (a == 0.0).any() and (d < 0.0).any()
        gw = a.T * d
        assert np.signbit(gw[a[0] == 0.0]).any()  # the product has -0.0 entries
        gw += 0.0
        assert gw.tobytes() == (a.T @ d).tobytes()
        assert not np.signbit(gw[gw == 0.0]).any()
        assert (d[0] + 0.0).tobytes() == d.sum(axis=0).tobytes()

    @pytest.mark.parametrize("head", ["linear", "sigmoid"])
    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_backward_equals_the_gemm_backward(self, head, rows):
        mlp = MLP(30, (16, 16, 16), 7, head=head, seed=5)
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 30))
        x[:, :4] = 0.0
        _, cache = mlp.forward(x, keep_cache=True)
        grad = rng.normal(size=(rows, 7))
        grad[:, 0] = -1.0
        got = mlp.backward(cache, grad)
        want = reference_backward(mlp, cache, grad)
        for (gw, gb), (ww, wb) in zip(got, want):
            assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()

    @pytest.mark.parametrize("locations", LOCATION_SETS)
    def test_a_slice_of_a_stacked_pass_backpropagates_like_its_own_pass(self, locations):
        agent = _agent(locations)
        parents_a, parents_b = _parents(locations, 4, seed=6)
        states = agent._encode(parents_a, parents_b)
        _, stacked = agent.actor.forward(states, keep_cache=True)
        grad = np.random.default_rng(7).normal(size=(1, agent.actor.weights[-1].shape[1]))
        for p in range(4):
            _, alone = agent.actor.forward(states[p], keep_cache=True)
            got = agent.actor.backward([layer[p] for layer in stacked], grad)
            want = reference_backward(agent.actor, alone, grad)
            assert _bytes(g for pair in got for g in pair) == _bytes(
                g for pair in want for g in pair
            )


# -- (3) a generation bred from one pass is per-pair crossover, draw for draw -------------------
class TestGenerationBreeding:
    @pytest.mark.parametrize("locations", LOCATION_SETS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_children_and_generator_state(self, locations, seed):
        agent = _agent(locations, seed=seed)
        parents_a, parents_b = _parents(locations, 30, seed=seed + 20)
        batched, per_pair = np.random.default_rng(seed), np.random.default_rng(seed)

        probabilities = agent.pair_probabilities(parents_a, parents_b)
        crossed, bred = [], []
        for row in range(len(parents_a)):
            child = agent.sample_child(probabilities[row], batched)
            crossed.append(child)
            bred.append(bitflip_mutation(child, batched, 0.08, locations=locations))

        want = []
        for a, b in zip(parents_a, parents_b):
            child = agent.crossover(a, b, per_pair)
            want.append(bitflip_mutation(child, per_pair, 0.08, locations=locations))

        assert bred == want
        assert batched.bit_generator.state == per_pair.bit_generator.state
        assert all(child[4] == 0 for child in crossed)  # the pin
        assert all(child[6] == 0 and child[2] in (0, 1) for child in crossed)  # whitelists

    @pytest.mark.parametrize("locations", LOCATION_SETS)
    def test_children_are_plain_ints(self, locations):
        agent = _agent(locations, trained=False)
        child = agent.crossover(*[vector[0] for vector in _parents(locations, 1)])
        assert all(type(gene) is int for gene in child)

    def test_the_search_runs_one_actor_pass_per_generation(self, tiny_telemetry, monkeypatch):
        app, result = tiny_telemetry
        passes = []
        original = CrossoverAgent.pair_probabilities

        def counting(agent, parents_a, parents_b):
            passes.append(len(parents_a))
            return original(agent, parents_a, parents_b)

        monkeypatch.setattr(CrossoverAgent, "pair_probabilities", counting)
        ga = AtlasGA(build_tiny_evaluator(app, result.telemetry), app.component_names, GOLDEN_GA)
        searched = ga.run()
        assert passes == [GOLDEN_GA.offspring_per_generation] * searched.generations


# -- (4) an unknown location raises, never lands in a neighbour's slot ----------------------------
class TestUnknownLocation:
    @pytest.mark.parametrize("bad", [3, -1, 7])
    def test_a_categorical_agent_refuses_a_gene_outside_its_set(self, bad):
        agent = _agent((0, 1, 2), trained=False)
        parent_a, parent_b = [vector[0] for vector in _parents((0, 1, 2), 1)]
        parent_b[5] = bad
        with pytest.raises(KeyError):
            agent.pair_probabilities([parent_a, parent_a], [parent_a, parent_b])
        with pytest.raises(KeyError):
            agent.crossover(parent_a, parent_b, np.random.default_rng(0))
        with pytest.raises(KeyError):
            agent.train([(parent_b, parent_a)], lambda children, *_: [0.0] * len(children), 1, 1)

    def test_a_gap_in_the_location_ids_is_outside_the_set(self):
        agent = _agent((0, 2, 5), trained=False)
        with pytest.raises(KeyError):
            agent.state([0, 2, 5, 0, 1, 0, 0, 0, 0], [0] * 9)
        assert agent.state([0, 2, 5, 0, 2, 0, 0, 0, 0], [5] * 9).sum() == 18.0

    def test_parents_of_the_wrong_length_raise(self):
        agent = _agent((0, 1, 2), trained=False)
        with pytest.raises(ValueError):
            agent.pair_probabilities([[0] * 10], [[0] * 8])
        with pytest.raises(ValueError):
            agent.state([0] * 9, [0] * 8)
