"""Block-scored DRL training ≡ the per-sample loop it replaced, exactly.

``CrossoverAgent.train`` samples an iteration's ``batch_size`` children first and has
them scored by one block-typed ``reward_fn(children, parents_a, parents_b)`` call;
``AtlasGA.reward`` scores that block with one ``evaluate_vectors``.  The per-sample
loop and the one-triple Eq. 5 reward they replaced live on below as the references.
The law is bitwise: same weights, same history, same RNG state, and — through the
evaluator — the same ``evaluations`` and the same ``evaluated_qualities()`` order.

Run deeper with ``--hypothesis-profile=ci`` (see ``tests/conftest.py``).
"""

import numpy as np
import pytest
from fingerprints import build_tiny_evaluator
from hypothesis import given
from hypothesis import strategies as st

from repro.optimizer import AtlasGA, CrossoverAgent, GAConfig
from repro.optimizer.drl.agent import _PROB_CLIP
from repro.quality import PlacementProblem, ScenarioSet, ScenarioSpec


# -- the references: the loop and the reward as they stood before block scoring --------------
def reference_sample_categorical(agent, probs, rng):
    """One location *index* per component, drawn as the per-sample loop drew it."""
    cumulative = np.cumsum(probs, axis=1)
    cumulative[:, -1] = np.maximum(cumulative[:, -1], 1.0)
    draws = rng.random(agent.n_components)
    return (draws[:, None] > cumulative).sum(axis=1)


def reference_train(agent, parent_pairs, reward_fn, iterations, batch_size):
    """The per-sample training loop: one scalar ``reward_fn(child, a, b)`` per sample."""
    for _ in range(iterations):
        batch_rewards = []
        feasible = 0
        actor_grads = None
        critic_grads = None
        for _ in range(batch_size):
            idx = int(agent._rng.integers(0, len(parent_pairs)))
            parent_a, parent_b = parent_pairs[idx]
            state = agent.state(parent_a, parent_b)
            out, actor_cache = agent.actor.forward(state, keep_cache=True)
            if agent._binary:
                probs = np.clip(out, _PROB_CLIP, 1.0 - _PROB_CLIP)
                child = (agent._rng.random(agent.n_components) < probs[0]).astype(int)
            else:
                probs = agent._softmax(
                    out[0].reshape(agent.n_components, agent.n_locations)
                )
                indices = reference_sample_categorical(agent, probs, agent._rng)
                child = np.asarray(
                    [agent.locations[int(i)] for i in indices], dtype=int
                )
            agent._apply_constraints(child)
            reward = float(reward_fn([int(v) for v in child], parent_a, parent_b))
            batch_rewards.append(reward)
            if reward > 0:
                feasible += 1

            value, critic_cache = agent.critic.forward(state, keep_cache=True)
            advantage = reward - float(value[0, 0])

            if agent._binary:
                dlogpi_dp = child / probs[0] - (1 - child) / (1 - probs[0])
                actor_grad_out = (-advantage * dlogpi_dp / batch_size)[None, :]
            else:
                chosen = np.zeros_like(probs)
                chosen[
                    np.arange(agent.n_components),
                    [agent._loc_index[int(v)] for v in child],
                ] = 1.0
                dlogpi_dlogits = (chosen - probs).reshape(1, -1)
                actor_grad_out = -advantage * dlogpi_dlogits / batch_size
            grads_a = agent.actor.backward(actor_cache, actor_grad_out)
            critic_grad_out = np.array([[2.0 * (float(value[0, 0]) - reward) / batch_size]])
            grads_c = agent.critic.backward(critic_cache, critic_grad_out)

            actor_grads = agent._accumulate(actor_grads, grads_a)
            critic_grads = agent._accumulate(critic_grads, grads_c)

        agent.actor.apply_gradients(actor_grads, agent._actor_opt)
        agent.critic.apply_gradients(critic_grads, agent._critic_opt)
        agent.history.mean_rewards.append(float(np.mean(batch_rewards)))
        agent.history.feasible_fractions.append(feasible / batch_size)
    return agent.history


def reference_reward(ga, child_vector, parent_a, parent_b):
    """Eq. 5 for one triple, scored by its own three-row ``evaluate_vectors``."""
    child, qa, qb = ga.evaluator.evaluate_vectors(
        [list(child_vector), list(parent_a), list(parent_b)], ga.components
    )
    improved = 0
    for child_value, a_value, b_value in zip(
        child.objectives(), qa.objectives(), qb.objectives()
    ):
        if min(a_value, b_value) > child_value:
            improved += 1
    if child.feasible:
        return float(improved)
    return -float(max(improved, 1))


# -- agent level -----------------------------------------------------------------------------
def scalar_reward(child, parent_a, parent_b):
    """Depends on every gene of the child and on how far it moved from each parent."""
    moved = sum(c != a for c, a in zip(child, parent_a))
    kept = sum(c == b for c, b in zip(child, parent_b))
    return sum((i + 1) * gene for i, gene in enumerate(child)) / 4.0 - moved + 0.5 * kept - 1.0


def assert_same_agent(block, reference):
    for ours, theirs in ((block.actor, reference.actor), (block.critic, reference.critic)):
        for left, right in zip(ours.parameters(), theirs.parameters()):
            assert np.array_equal(left, right)
    assert block.history == reference.history
    assert block._rng.bit_generator.state == reference._rng.bit_generator.state


HEADS = pytest.mark.parametrize(
    "locations", [(0, 1), (0, 1, 2)], ids=["binary", "categorical-3"]
)
BATCH_SIZES = pytest.mark.parametrize("batch_size", [1, 2, 4])


def _agents(locations, seed):
    return [
        CrossoverAgent(
            n_components=3, hidden_dims=(8, 8), seed=seed, locations=locations,
            pinned={1: 0},
        )
        for _ in range(2)
    ]


class TestTrainEqualsPerSampleLoop:
    @HEADS
    @BATCH_SIZES
    def test_weights_history_and_rng(self, locations, batch_size):
        @given(
            seed=st.integers(0, 2**16),
            pairs=st.lists(
                st.tuples(*[st.lists(st.sampled_from(locations), min_size=3, max_size=3)] * 2),
                min_size=1,
                max_size=2,
            ),
        )
        def law(seed, pairs):
            block, reference = _agents(locations, seed)
            block.train(
                pairs,
                lambda children, parents_a, parents_b: [
                    scalar_reward(*triple) for triple in zip(children, parents_a, parents_b)
                ],
                iterations=6,
                batch_size=batch_size,
            )
            reference_train(reference, pairs, scalar_reward, 6, batch_size)
            assert_same_agent(block, reference)

        law()

    @HEADS
    def test_a_block_with_duplicate_children(self, locations):
        """Two free genes over one parent pair: at this seed some blocks of four
        repeat a child, and the repeat changes nothing."""
        pairs = [([0, 0, 1], [1, 0, 0])]
        blocks = []

        def block_reward(children, parents_a, parents_b):
            blocks.append([tuple(child) for child in children])
            return [scalar_reward(*triple) for triple in zip(children, parents_a, parents_b)]

        block, reference = _agents(locations, seed=5)
        block.train(pairs, block_reward, iterations=8, batch_size=4)
        reference_train(reference, pairs, scalar_reward, 8, 4)
        assert len(blocks) == 8 and all(len(children) == 4 for children in blocks)
        assert any(len(set(children)) < len(children) for children in blocks)
        assert_same_agent(block, reference)

    def test_reward_fn_must_answer_every_child(self):
        agent = CrossoverAgent(n_components=3, hidden_dims=(4,), seed=0)
        with pytest.raises(ValueError, match="one reward per child"):
            agent.train([([0, 0, 0], [1, 1, 1])], lambda c, a, b: [1.0], iterations=1, batch_size=2)


# -- through AtlasGA.train_agent -------------------------------------------------------------
S2 = ScenarioSet(
    (ScenarioSpec(name="observed"), ScenarioSpec(name="burst", rate_scale=4.0))
)


def _evaluator(tiny_telemetry, robust):
    app, result = tiny_telemetry
    problem = PlacementProblem.default(scenarios=S2) if robust else None
    return build_tiny_evaluator(app, result.telemetry, problem=problem)


def _visited(evaluator):
    return [
        (quality.plan.to_vector(), quality.objectives(), quality.feasible)
        for quality in evaluator.evaluated_qualities()
    ]


class TestTrainAgentEqualsPerSampleLoop:
    @pytest.mark.parametrize("robust", [False, True], ids=["classic", "robust-S2"])
    @BATCH_SIZES
    def test_evaluations_and_visit_order(self, tiny_telemetry, monkeypatch, robust, batch_size):
        app, _result = tiny_telemetry
        # Two parent pairs: every block of more than two samples repeats parent rows.
        config = GAConfig(
            population_size=8,
            evaluation_budget=100,
            train_iterations=10,
            train_batch_size=batch_size,
            train_pairs=2,
            seed=3,
        )
        block_ga = AtlasGA(_evaluator(tiny_telemetry, robust), app.component_names, config)
        block_history = block_ga.train_agent()

        reference_ga = AtlasGA(_evaluator(tiny_telemetry, robust), app.component_names, config)

        def per_sample(agent, pairs, _block_reward, iterations, batch_size):
            return reference_train(
                agent,
                pairs,
                lambda child, a, b: reference_reward(reference_ga, child, a, b),
                iterations,
                batch_size,
            )

        with monkeypatch.context() as patch:
            patch.setattr(CrossoverAgent, "train", per_sample)
            reference_history = reference_ga.train_agent()

        assert block_history == reference_history
        assert_same_agent(block_ga.agent, reference_ga.agent)
        assert block_ga.evaluator.evaluations == reference_ga.evaluator.evaluations
        assert _visited(block_ga.evaluator) == _visited(reference_ga.evaluator)
        assert block_ga._rng.bit_generator.state == reference_ga._rng.bit_generator.state
