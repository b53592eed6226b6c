"""A drift re-plan starts from the front it served (``docs/architecture.md`` decision record №8).

``Atlas.recommend`` with a :class:`ReplanPrior` installed seeds the search with the
served plans ahead of the affinity seeds and spends the budget ``REPLAN_RULE`` gives
the drift's spliced-API fraction; without one it is the search it always was.  The
prior in the request key is in ``test_digests.py``, the prior in the daemon and the
store in ``test_daemon_state.py``; the rule itself is measured by
``benchmarks/bench_replan_law.py``.
"""

import copy
import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_artifacts import _perturb
from test_serving import tiny_learned_atlas  # noqa: F401  (fixture)

from repro.optimizer import GAConfig
from repro.optimizer.atlas_ga import AtlasGA
from repro.recommend import ReplanPrior
from repro.recommend import advisor
from repro.serving import AdvisorDaemon, MonitorSample

KWARGS = {"expected_scale": 2.0}


def _spy_on_searches(monkeypatch):
    """``(seed_vectors, config)`` of every AtlasGA built from here on."""
    built = []
    real_init = AtlasGA.__init__

    def init(self, evaluator, components, config=None, seed_vectors=None, **kwargs):
        built.append(([list(v) for v in seed_vectors or []], config))
        real_init(self, evaluator, components, config=config, seed_vectors=seed_vectors, **kwargs)

    monkeypatch.setattr(AtlasGA, "__init__", init)
    return built


def _served(atlas):
    """A drifted copy of ``atlas`` with the front it served installed as its prior."""
    served = atlas.recommend(**KWARGS)
    drifted = copy.deepcopy(atlas)
    target = drifted.knowledge.apis[0]
    AdvisorDaemon._splice(
        drifted,
        {"drifted": [target]},
        MonitorSample(
            recent_latencies={},
            traces_by_api={
                target: [_perturb(t, 1.7) for t in atlas.knowledge.api_profiles[target].sample_traces]
            },
        ),
    )
    drifted.knowledge.crossover_agent = served.result.agent
    components = tuple(atlas.application.component_names)
    prior = ReplanPrior(
        components=components,
        vectors=tuple(tuple(q.plan.to_vector()) for q in served.plans),
        spliced=(target,),
    )
    return served, drifted, prior


class TestWarmStart:
    def test_a_prior_less_recommend_is_the_search_of_today(self, tiny_learned_atlas, monkeypatch):
        atlas = copy.deepcopy(tiny_learned_atlas)
        built = _spy_on_searches(monkeypatch)
        answer = atlas.recommend(**KWARGS)
        ((seeds, config),) = built
        assert config is atlas.config.ga
        assert seeds == atlas._seed_vectors(answer.evaluator, config)

    def test_the_served_plans_seed_the_search_at_the_rule_budget(self, tiny_learned_atlas, monkeypatch):
        served, drifted, prior = _served(tiny_learned_atlas)
        drifted.knowledge.replan_prior = prior
        built = _spy_on_searches(monkeypatch)
        answer = drifted.recommend(**KWARGS)
        ((seeds, config),) = built
        front = [list(v) for v in prior.vectors]
        assert seeds[: len(front)] == front
        assert seeds[len(front) :] == drifted._seed_vectors(answer.evaluator, config)
        base = drifted.config.ga
        assert config == dataclasses.replace(
            base, evaluation_budget=advisor.replan_budget(base, 1 / len(drifted.knowledge.apis))
        )

    def test_the_search_keeps_what_it_served(self, tiny_learned_atlas):
        """Elitist survival keeps every rank-0 plan: each served plan, re-scored under the
        spliced knowledge and still feasible, is weakly dominated by the new front."""
        served, drifted, prior = _served(tiny_learned_atlas)
        drifted.knowledge.replan_prior = prior
        answer = drifted.recommend(**KWARGS)
        rescored = answer.evaluator.evaluate_vectors(
            [list(v) for v in prior.vectors], list(prior.components)
        )
        front = [q.objectives() for q in answer.plans]
        for quality in rescored:
            if quality.feasible:
                point = quality.objectives()
                assert any(all(a <= b for a, b in zip(row, point)) for row in front)

    def test_a_prior_over_other_components_seeds_nothing(self):
        prior = ReplanPrior(components=("a", "b", "c"), vectors=((0, 1, 2), (2, 0, 1)), spliced=())
        assert prior.seed_vectors(["a", "b", "c"]) == [[0, 1, 2], [2, 0, 1]]
        assert prior.seed_vectors(["c", "a", "b"]) == prior.seed_vectors(["a", "b"]) == []

    def test_learn_drops_the_prior(self, tiny_learned_atlas):
        _, drifted, prior = _served(tiny_learned_atlas)
        drifted.knowledge.replan_prior = prior
        drifted.learn(drifted.telemetry)
        assert drifted.knowledge.replan_prior is None

    def test_the_digest_follows_the_content(self):
        prior = ReplanPrior(components=("a", "b"), vectors=((0, 1),), spliced=("/x",))
        assert prior.content_digest() == ReplanPrior(("a", "b"), ((0, 1),), ("/x",)).content_digest()
        for other in (
            ReplanPrior(("b", "a"), ((0, 1),), ("/x",)),
            ReplanPrior(("a", "b"), ((1, 1),), ("/x",)),
            ReplanPrior(("a", "b"), ((0, 1),), ("/y",)),
        ):
            assert other.content_digest() != prior.content_digest()


class TestTheRule:
    def test_rows_ascend_and_the_budget_grows_with_the_drift(self):
        bounds = [bound for bound, _ in advisor.REPLAN_RULE]
        shares = [share for _, share in advisor.REPLAN_RULE]
        assert bounds == sorted(bounds) and shares == sorted(shares)
        assert all(0.0 < share <= 1.0 for share in shares)
        config = GAConfig(population_size=60, offspring_per_generation=30, evaluation_budget=2_500)
        budgets = [advisor.replan_budget(config, k / 20) for k in range(21)]
        assert budgets == sorted(budgets)
        assert advisor.replan_budget(config, 1.0) == 2_500  # wider than every row: all of it

    @given(
        population=st.integers(4, 200),
        extra=st.integers(1, 20_000),
        fraction=st.floats(0.0, 1.0),
    )
    def test_a_derived_config_is_valid_and_never_spins(self, population, extra, fraction):
        config = GAConfig(population_size=population, evaluation_budget=population + extra)
        budget = advisor.replan_budget(config, fraction)
        assert population + 1 <= budget <= config.evaluation_budget
        derived = dataclasses.replace(config, evaluation_budget=budget)
        assert derived.offspring_per_generation + derived.immigrants_per_generation >= 1

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_the_floor_is_one_generation(self, fraction):
        config = GAConfig(population_size=60, offspring_per_generation=30, evaluation_budget=61)
        assert advisor.replan_budget(config, fraction) == 61
