"""The crossover agent as learned knowledge: tests that see the path, not only the front.

A search nobody hands an agent to — or hands one that does not fit — is the search
it always was (same population, evaluation order and RNG draws); a fitting agent
skips training and spends the budget on generations; the stripped agent crosses
over like the full one and has a content identity; and over twelve seeds on the tiny
testbed a re-plan that reuses the agent is not worse than one that retrains it (the
quality bar the reuse was accepted under, see ``docs/architecture.md`` decision
record №3).  The agent in the request key is in ``test_digests.py``, the agent in
the daemon and the store in ``test_serving.py``.
"""

import dataclasses
import pickle
import statistics

import numpy as np
import pytest
from fingerprints import GOLDEN_GA, build_tiny_evaluator, fingerprint_search_result
from test_artifacts import TINY_GA, _perturb

from repro.cluster import default_multi_location_cluster, default_multi_location_network
from repro.learning import ResourceEstimator
from repro.optimizer import CrossoverAgent, hypervolume_2d
from repro.optimizer.atlas_ga import AtlasGA
from repro.quality import MigrationPreferences
from repro.recommend import Atlas, AtlasConfig
from repro.serving import AdvisorDaemon, MonitorSample


def _search(tiny_telemetry, **ga_kwargs):
    app, result = tiny_telemetry
    evaluator = build_tiny_evaluator(app, result.telemetry)
    ga = AtlasGA(evaluator, app.component_names, config=GOLDEN_GA, **ga_kwargs)
    return ga, ga.run()


def _trajectory(ga, result):
    """Everything a changed search would move: plans visited (in order), the
    training curve, and where the search's RNG stands when it returns."""
    history = result.training_history
    return (
        fingerprint_search_result(result),
        None if history is None else (history.mean_rewards, history.feasible_fractions),
        repr(ga._rng.bit_generator.state),
        result.agent_digest,
    )


def _agent(n_components=6, pinned=None, locations=(0, 1), seed=11):
    return CrossoverAgent(
        n_components=n_components, pinned=pinned, locations=locations, seed=seed
    )


# -- (a) the optimizer -------------------------------------------------------------------------
class TestSearchWithAnAgent:
    def test_no_agent_and_a_misfit_agent_are_the_search_of_today(self, tiny_telemetry):
        pins = {4: 0}  # Database on-prem: what build_tiny_evaluator pins
        want = _trajectory(*_search(tiny_telemetry))
        assert want[1] is not None and want[3] is not None
        misfits = {
            "none": None,
            "other pins": _agent(pinned={}),
            "other locations": _agent(pinned=pins, locations=(0, 1, 2)),
            "other component count": _agent(n_components=7, pinned=pins),
        }
        for label, agent in misfits.items():
            assert _trajectory(*_search(tiny_telemetry, agent=agent)) == want, label

    def test_a_fitting_agent_is_bred_with_not_trained(self, tiny_telemetry, monkeypatch):
        _, trained = _search(tiny_telemetry)
        assert trained.agent.critic is None  # stripped for inference
        assert trained.agent_digest == trained.agent.content_digest()

        def no_reward(self, *args):
            raise AssertionError("a search handed a fitting agent must not train")

        monkeypatch.setattr(AtlasGA, "reward", no_reward)
        monkeypatch.setattr(AtlasGA, "train_agent", no_reward)
        ga, reused = _search(tiny_telemetry, agent=trained.agent)
        assert reused.training_history is None
        assert reused.agent is trained.agent and ga.agent is trained.agent
        assert reused.agent_digest == trained.agent_digest
        one_generation = (
            GOLDEN_GA.offspring_per_generation + GOLDEN_GA.immigrants_per_generation
        )
        assert reused.evaluations <= GOLDEN_GA.evaluation_budget + one_generation
        assert reused.pareto  # the tiny space is small enough to be searched out

    def test_uniform_crossover_names_no_agent(self, tiny_telemetry):
        app, result = tiny_telemetry
        config = dataclasses.replace(GOLDEN_GA, crossover="uniform")
        evaluator = build_tiny_evaluator(app, result.telemetry)
        found = AtlasGA(
            evaluator, app.component_names, config=config, agent=_agent(pinned={4: 0})
        ).run()
        assert found.agent is None and found.agent_digest is None


# -- (d) the stripped agent --------------------------------------------------------------------
class TestInferenceAgent:
    @pytest.mark.parametrize("locations", [(0, 1), (0, 1, 2)])
    def test_crosses_over_like_the_full_agent_under_a_shared_rng(self, locations):
        full = CrossoverAgent(
            n_components=6, pinned={4: 0}, locations=locations, allowed={2: (0, 1)}, seed=3
        )
        parents = np.random.default_rng(5).choice(locations, size=(8, 2, 6)).tolist()
        full.train(
            [(a, b) for a, b in parents],
            lambda children, *_: [float(sum(child)) for child in children],
            iterations=5,
            batch_size=2,
        )
        lean = full.for_inference()
        assert lean is not full and lean.for_inference() is lean
        assert lean.critic is None and lean.actor is not full.actor
        one, two = np.random.default_rng(9), np.random.default_rng(9)
        for a, b in parents:
            assert lean.crossover(a, b, one) == full.crossover(a, b, two)
        assert len(pickle.dumps(lean)) < len(pickle.dumps(full)) / 3
        with pytest.raises(RuntimeError):
            lean.train([(parents[0][0], parents[0][1])], lambda *_: [0.0], 1, 1)

    def test_digest_follows_the_content(self):
        full = _agent(pinned={4: 0})
        lean = full.for_inference()
        assert lean.content_digest() == full.content_digest()
        assert pickle.loads(pickle.dumps(lean)).content_digest() == lean.content_digest()
        assert b"_digest" not in pickle.dumps(lean)
        assert _agent(pinned={4: 0}, seed=12).content_digest() != lean.content_digest()
        assert _agent(pinned={3: 0}).content_digest() != lean.content_digest()
        pair = ([0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 0, 0])
        full.train([pair], lambda children, *_: [1.0] * len(children), 2, 2)
        assert full.content_digest() != lean.content_digest()  # the memo was dropped
        assert lean.content_digest() == pickle.loads(pickle.dumps(lean)).content_digest()


# -- (e) the agent's durable form (its pickled keys: ``test_store_layout.LAYOUT``) ------------
class TestDurableAgent:
    @pytest.mark.parametrize("locations", [(0, 1), (0, 1, 2)])
    def test_a_round_trip_keeps_the_digest_and_the_children(self, locations):
        agent = CrossoverAgent(
            n_components=6, pinned={4: 0}, locations=locations, allowed={2: (0, 1)}, seed=3
        )
        parents = np.random.default_rng(5).choice(locations, size=(8, 2, 6)).tolist()
        agent.train(
            [(a, b) for a, b in parents],
            lambda children, *_: [float(sum(child)) - 4.0 for child in children],
            iterations=5,
            batch_size=3,
        )
        agent.crossover(*parents[0])  # whatever inference leaves behind must not pickle
        loaded = pickle.loads(pickle.dumps(agent))
        assert loaded.content_digest() == agent.content_digest()

        parents_a, parents_b = [a for a, _ in parents], [b for _, b in parents]
        assert (
            loaded.pair_probabilities(parents_a, parents_b).tobytes()
            == agent.pair_probabilities(parents_a, parents_b).tobytes()
        )
        one, two = np.random.default_rng(9), np.random.default_rng(9)
        for a, b in parents:
            assert loaded.crossover(a, b, one) == agent.crossover(a, b, two)
        assert one.bit_generator.state == two.bit_generator.state


# -- the quality bar ---------------------------------------------------------------------------
def _hypervolume_3d(rows, ideal, nadir):
    """Volume the rows dominate inside the [ideal, nadir] box, as a share of the box."""
    spans = [hi - lo if hi > lo else 1.0 for lo, hi in zip(ideal, nadir)]
    points = sorted(
        (tuple((v - lo) / s for v, lo, s in zip(row, ideal, spans)) for row in rows),
        key=lambda p: p[2],
    )
    points = [p for p in points if max(p) < 1.0]
    volume = 0.0
    for index, point in enumerate(points):
        upper = points[index + 1][2] if index + 1 < len(points) else 1.0
        layer = [(x, y) for x, y, _z in points[: index + 1]]
        volume += hypervolume_2d(layer, (1.0, 1.0)) * (upper - point[2])
    return volume


class TestQualityBar:
    """mean hv(reuse) >= mean hv(retrain) - 0.05 over seeds 1-12, all twelve.

    Three sites instead of the tiny app's usual two, so the space (3^5 plans) is
    larger than the budget and the two sides can differ at all.
    """

    BUDGET = dataclasses.replace(TINY_GA, evaluation_budget=90, max_generations=60)
    KWARGS = {"expected_scale": 2.0}

    def test_reuse_is_not_worse_than_retraining_on_the_same_spliced_content(
        self, tiny_telemetry
    ):
        app, result = tiny_telemetry
        cluster = default_multi_location_cluster()
        # On-prem holds 80% of the expected CPU peak: something has to move.
        expected = ResourceEstimator(app, result.telemetry).fit().predict_scaled(2.0)
        limit = expected.peak("cpu_millicores", app.component_names) * 0.8
        reused, retrained = [], []
        for seed in range(1, 13):
            atlas = Atlas(
                app,
                MigrationPreferences.pin_on_prem(
                    ["Database"], onprem_limits={"cpu_millicores": limit}
                ),
                network=default_multi_location_network(locations=cluster.location_ids),
                config=AtlasConfig(
                    traces_per_api=15, ga=dataclasses.replace(self.BUDGET, seed=seed)
                ),
                cluster=cluster,
            )
            knowledge = atlas.learn(result.telemetry)
            agent = atlas.recommend(**self.KWARGS).result.agent
            target = knowledge.apis[0]
            window = [
                _perturb(t, 1.3 + 0.05 * seed)
                for t in knowledge.api_profiles[target].sample_traces
            ]
            AdvisorDaemon._splice(
                atlas,
                {"drifted": [target]},
                MonitorSample(recent_latencies={}, traces_by_api={target: window}),
            )
            retrain = atlas.recommend(**self.KWARGS)
            knowledge.crossover_agent = agent
            reuse = atlas.recommend(**self.KWARGS)
            assert retrain.result.training_history is not None
            assert reuse.result.training_history is None
            # Same budget, none of it spent on training: more generations.
            one_generation = (
                self.BUDGET.offspring_per_generation + self.BUDGET.immigrants_per_generation
            )
            for answer in (retrain, reuse):
                spent = answer.result.evaluations
                assert self.BUDGET.evaluation_budget <= spent
                assert spent <= self.BUDGET.evaluation_budget + one_generation
            assert reuse.result.generations >= retrain.result.generations

            everything = retrain.evaluator.evaluate_vectors(
                [
                    [(code // 3**gene) % 3 if gene != 4 else 0 for gene in range(6)]
                    for code in range(3**6)
                    if (code // 3**4) % 3 == 0
                ],
                app.component_names,
            )
            rows = [q.objectives() for q in everything if q.feasible]
            ideal = [min(column) for column in zip(*rows)]
            nadir = [max(column) for column in zip(*rows)]
            for side, answer in ((retrained, retrain), (reused, reuse)):
                front = [q.objectives() for q in answer.plans]
                side.append(_hypervolume_3d(front, ideal, nadir))
        assert statistics.mean(reused) >= statistics.mean(retrained) - 0.05, (
            reused,
            retrained,
        )
