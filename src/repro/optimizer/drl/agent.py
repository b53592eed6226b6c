"""DRL crossover agent (Section 4.2.1), generalized to N locations.

The agent Λ_θ takes the location vectors of two parent plans and outputs a
per-component placement distribution; sampling from it produces the offspring plan
(the stochasticity plays the role of GA mutation).  The quality indicators are
non-differentiable, so the agent is trained with a reward-driven actor–critic scheme:
the reward (Eq. 5) is positive only for feasible children and grows with the number of
quality aspects in which the child beats *both* parents; the critic provides a
per-state baseline so the policy gradient has low variance.

**Action space.**  In the paper's two-location setup the actor is a sigmoid head over
``n_components`` outputs — the per-component probability of placing the component in
the cloud.  With N > 2 locations (``locations=(0, 1, 2, ...)``) the actor instead
emits ``n_components x n_locations`` logits, a per-component softmax turns them into a
categorical placement distribution, and parents are one-hot encoded by location.  The
two-location path is kept byte-for-byte identical to the original binary agent
(same architecture, same RNG consumption), so fixed-seed searches reproduce exactly.

Implementation note — reward for infeasible children: Eq. 5 multiplies the aspect count
by ``(-1)^(1-λ)``, which yields exactly 0 for an infeasible child that beats its parents
in no aspect.  We floor the infeasible reward at -1 so that infeasibility always carries
a negative signal; this matches the paper's description ("negates the reward if the plan
does not satisfy all constraints") and its Figure 21b, where early rewards are
consistently below zero.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...digest import part_stream
from ..nsga2 import allowed_repair_targets, apply_allowed_repair
from .mlp import MLP, AdamOptimizer

__all__ = ["CrossoverAgent", "RewardFunction", "TrainingHistory"]

#: reward_fn(children, parents_a, parents_b) -> one reward per (child, a, b) row.
#: Called once per training iteration with the whole ``batch_size`` block; it must
#: consume none of the agent's RNG.
RewardFunction = Callable[
    [Sequence[Sequence[int]], Sequence[Sequence[int]], Sequence[Sequence[int]]],
    Sequence[float],
]

_PROB_CLIP = 1e-6


@dataclass
class TrainingHistory:
    """Per-iteration statistics of agent training (drives Figure 21b)."""

    mean_rewards: List[float] = field(default_factory=list)
    feasible_fractions: List[float] = field(default_factory=list)

    def smoothed_rewards(self, window: int = 20) -> List[float]:
        """Moving average of the reward curve (what the paper plots)."""
        if window <= 1 or not self.mean_rewards:
            return list(self.mean_rewards)
        out: List[float] = []
        for i in range(len(self.mean_rewards)):
            lo = max(0, i - window + 1)
            out.append(float(np.mean(self.mean_rewards[lo : i + 1])))
        return out


class CrossoverAgent:
    """Actor–critic agent producing offspring plans from parent pairs."""

    #: Memo of :meth:`content_digest`; dropped by :meth:`train`, never pickled.
    _digest: Optional[str] = None

    def __init__(
        self,
        n_components: int,
        hidden_dims: Sequence[int] = (128, 128, 128),
        learning_rate: float = 1e-3,
        critic_learning_rate: float = 2e-3,
        pinned: Optional[Mapping[int, int]] = None,
        seed: int = 0,
        locations: Sequence[int] = (0, 1),
        allowed: Optional[Mapping[int, Sequence[int]]] = None,
    ) -> None:
        """``allowed`` maps component indices to their location whitelist: offspring
        genes sampled at a disallowed site are deterministically repaired to the
        component's first permitted remote location (or on-prem when none is), after
        pins are applied — RNG consumption is untouched, so agents without
        whitelists behave byte-for-byte as before."""
        if n_components <= 0:
            raise ValueError("n_components must be positive")
        self.n_components = n_components
        self.pinned = dict(pinned or {})
        self.allowed: Dict[int, Tuple[int, ...]] = {
            int(index): tuple(int(loc) for loc in permitted)
            for index, permitted in (allowed or {}).items()
        }
        self.locations: Tuple[int, ...] = tuple(int(loc) for loc in locations)
        if len(self.locations) < 2:
            raise ValueError("the agent needs at least two locations to choose from")
        if len(set(self.locations)) != len(self.locations):
            raise ValueError("locations must be unique")
        self.n_locations = len(self.locations)
        #: The paper's binary agent: sigmoid head, raw 0/1 parent encoding.  Any other
        #: location set switches to the categorical (softmax) action space.
        self._binary = self.locations == (0, 1)
        self._loc_index: Dict[int, int] = {loc: i for i, loc in enumerate(self.locations)}
        # Every pinned location must be a member of the action space.
        invalid = sorted({int(loc) for loc in self.pinned.values()} - set(self.locations))
        if invalid:
            raise ValueError(
                f"pinned locations {invalid} are outside the agent's location set "
                f"{self.locations}"
            )
        # Deterministic whitelist repair map shared with the Atlas GA.
        self._allowed_repair = allowed_repair_targets(self.allowed, self.locations)
        if self._binary:
            self.actor = MLP(
                2 * n_components, hidden_dims, n_components, head="sigmoid", seed=seed
            )
            self.critic = MLP(2 * n_components, hidden_dims[:2], 1, head="linear", seed=seed + 1)
        else:
            state_dim = 2 * n_components * self.n_locations
            self.actor = MLP(
                state_dim, hidden_dims, n_components * self.n_locations,
                head="linear", seed=seed,
            )
            self.critic = MLP(state_dim, hidden_dims[:2], 1, head="linear", seed=seed + 1)
        self._actor_opt = AdamOptimizer(learning_rate=learning_rate)
        self._critic_opt = AdamOptimizer(learning_rate=critic_learning_rate)
        self._rng = np.random.default_rng(seed)
        self.history = TrainingHistory()

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_digest", None)
        return state

    # -- the agent as learned knowledge ----------------------------------------------------
    def for_inference(self) -> "CrossoverAgent":
        """This agent stripped to what :meth:`crossover` reads: actor + constraints.

        The critic, both Adam states and the training history stay behind (about a
        fifth of the pickled size remains), the actor's weights are copied so later
        training of ``self`` cannot reach the copy, and the copy's own sampling
        stream restarts from 0 — a search always passes its ``rng``.  An agent
        that is already stripped is returned as is.
        """
        if self.critic is None:
            return self
        agent = copy.copy(self)
        agent.actor = copy.deepcopy(self.actor)
        agent.critic = agent._actor_opt = agent._critic_opt = None
        agent.history = TrainingHistory()
        agent._rng = np.random.default_rng(0)
        return agent

    def content_digest(self) -> str:
        """Content fingerprint of everything :meth:`crossover` reads (computed once).

        The search space and constraints as text parts in the package's wire
        encoding, then the actor's raw parameter bytes (shapes are fixed by the
        text parts and the layer order).
        """
        if self._digest is None:
            digest = hashlib.sha256(
                part_stream(
                    [
                        "crossover-agent",
                        repr(self.n_components),
                        repr(self.locations),
                        repr(sorted(self.pinned.items())),
                        repr(sorted(self.allowed.items())),
                        self.actor.head,
                        repr([w.shape for w in self.actor.weights]),
                    ]
                )
            )
            for parameter in self.actor.parameters():
                digest.update(parameter.tobytes())
            self._digest = digest.hexdigest()
        return self._digest

    # -- inference -------------------------------------------------------------------------
    def state(self, parent_a: Sequence[int], parent_b: Sequence[int]) -> np.ndarray:
        """The actor's input for one parent pair, shape ``(D,)``."""
        return self._encode([parent_a], [parent_b])[0, 0]

    def _encode(
        self, parents_a: Sequence[Sequence[int]], parents_b: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """The actor's inputs for P parent pairs as one ``(P, 1, D)`` stack.

        Binary agent: the raw parent vectors side by side.  N-location agent: each
        gene one-hot over ``self.locations`` — the equality mask itself, so a gene
        outside the location set is a row of no match and raises instead of landing
        in some other component's slot.
        """
        a, b = np.asarray(parents_a), np.asarray(parents_b)
        if a.shape != (len(parents_a), self.n_components) or b.shape != a.shape:
            raise ValueError("parent vectors must match the component count")
        genes = np.concatenate([a, b], axis=1)
        if self._binary:
            return genes.astype(float)[:, None, :]
        hot = genes[:, :, None] == np.asarray(self.locations)
        matched = hot.any(axis=-1)
        if not matched.all():
            unknown = sorted(set(genes[~matched].tolist()))
            raise KeyError(
                f"parent locations {unknown} are outside the agent's location set "
                f"{self.locations}"
            )
        return hot.astype(float).reshape(len(genes), 1, -1)

    def pair_probabilities(
        self, parents_a: Sequence[Sequence[int]], parents_b: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Placement distributions for P parent pairs from one stacked actor pass.

        Binary agent: shape ``(P, n_components)`` — probability of the cloud
        (location 1).  N-location agent: shape ``(P, n_components, n_locations)`` — a
        categorical distribution over ``self.locations`` per component.  Row ``p``
        equals the pair's own forward bit for bit (see :meth:`MLP.forward`).
        """
        out = self.actor(self._encode(parents_a, parents_b))[:, 0]
        return self._head(out)

    def child_probabilities(
        self, parent_a: Sequence[int], parent_b: Sequence[int]
    ) -> np.ndarray:
        """:meth:`pair_probabilities` of one pair."""
        return self.pair_probabilities([parent_a], [parent_b])[0]

    def _head(self, out: np.ndarray) -> np.ndarray:
        """Actor output rows ``(P, ·)`` → per-component placement distributions."""
        if self._binary:
            return np.clip(out, _PROB_CLIP, 1.0 - _PROB_CLIP)
        return self._softmax(out.reshape(len(out), self.n_components, self.n_locations))

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=-1, keepdims=True)
        return np.clip(probs, _PROB_CLIP, None)

    def _child(self, probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Location ids of one offspring from its distributions and one uniform draw
        per component, pinned and whitelist-repaired."""
        if self._binary:
            child = (draws < probs).astype(int)
        else:
            cumulative = np.cumsum(probs, axis=1)
            cumulative[:, -1] = np.maximum(cumulative[:, -1], 1.0)
            indices = (draws[:, None] > cumulative).sum(axis=1)
            child = np.asarray(self.locations)[indices]
        self._apply_constraints(child)
        return child

    def sample_child(self, probs: np.ndarray, rng: np.random.Generator) -> List[int]:
        """One offspring from a row of :meth:`pair_probabilities`; draws ``n_components``
        uniforms from ``rng``."""
        return self._child(probs, rng.random(self.n_components)).tolist()

    def crossover(
        self,
        parent_a: Sequence[int],
        parent_b: Sequence[int],
        rng: Optional[np.random.Generator] = None,
    ) -> List[int]:
        """Sample an offspring plan; pinned components are masked to their location."""
        probs = self.child_probabilities(parent_a, parent_b)
        return self.sample_child(probs, rng or self._rng)

    def _apply_constraints(self, child: np.ndarray) -> None:
        """Pin forced genes, then repair any whitelist-violating draw (no RNG)."""
        for index, location in self.pinned.items():
            child[index] = location
        apply_allowed_repair(child, self._allowed_repair)

    # -- training --------------------------------------------------------------------------
    def train(
        self,
        parent_pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
        reward_fn: RewardFunction,
        iterations: int = 1_000,
        batch_size: int = 4,
    ) -> TrainingHistory:
        """Train the agent on a dataset ``D`` of parent pairs with the given reward.

        The weights are frozen within an iteration, so its ``batch_size`` samples
        draw first (pair index, then gene draws, per sample — the RNG stream of a
        sample-by-sample loop), their children come from one stacked actor pass and
        are scored by one ``reward_fn`` call over the block; the critic runs one
        stacked pass and the gradients run per sample in sampling order.
        """
        if self.critic is None:
            raise RuntimeError("an agent stripped by for_inference() cannot be trained")
        if not parent_pairs:
            raise ValueError("training requires at least one parent pair")
        self._digest = None  # the weights move from here on
        if iterations <= 0 or batch_size <= 0:
            raise ValueError("iterations and batch_size must be positive")
        for _ in range(iterations):
            parents_a: List[Sequence[int]] = []
            parents_b: List[Sequence[int]] = []
            draws: List[np.ndarray] = []
            for _ in range(batch_size):
                idx = int(self._rng.integers(0, len(parent_pairs)))
                parent_a, parent_b = parent_pairs[idx]
                parents_a.append(parent_a)
                parents_b.append(parent_b)
                draws.append(self._rng.random(self.n_components))
            states = self._encode(parents_a, parents_b)
            out, actor_cache = self.actor.forward(states, keep_cache=True)
            probs = self._head(out[:, 0])
            sampled = [self._child(row, draw) for row, draw in zip(probs, draws)]
            children = [child.tolist() for child in sampled]
            rewards = [float(r) for r in reward_fn(children, parents_a, parents_b)]
            if len(rewards) != batch_size:
                raise ValueError("reward_fn must return one reward per child")

            values, critic_cache = self.critic.forward(states, keep_cache=True)
            feasible = 0
            actor_grads = None
            critic_grads = None
            for k, (child, reward) in enumerate(zip(sampled, rewards)):
                if reward > 0:
                    feasible += 1
                value = float(values[k, 0, 0])
                advantage = reward - value

                # Policy gradient: minimize -advantage * log π(child | state).
                if self._binary:
                    dlogpi_dp = child / probs[k] - (1 - child) / (1 - probs[k])
                    actor_grad_out = (-advantage * dlogpi_dp / batch_size)[None, :]
                else:
                    # Softmax policy: d log π / d logits = onehot(child) - probs.
                    chosen = np.zeros_like(probs[k])
                    chosen[
                        np.arange(self.n_components),
                        [self._loc_index[int(v)] for v in child],
                    ] = 1.0
                    dlogpi_dlogits = (chosen - probs[k]).reshape(1, -1)
                    actor_grad_out = -advantage * dlogpi_dlogits / batch_size
                grads_a = self.actor.backward([a[k] for a in actor_cache], actor_grad_out)
                # Critic: minimize (value - reward)^2.
                critic_grad_out = np.array([[2.0 * (value - reward) / batch_size]])
                grads_c = self.critic.backward([a[k] for a in critic_cache], critic_grad_out)

                actor_grads = self._accumulate(actor_grads, grads_a)
                critic_grads = self._accumulate(critic_grads, grads_c)

            self.actor.apply_gradients(actor_grads, self._actor_opt)
            self.critic.apply_gradients(critic_grads, self._critic_opt)
            self.history.mean_rewards.append(float(np.mean(rewards)))
            self.history.feasible_fractions.append(feasible / batch_size)
        return self.history

    @staticmethod
    def _accumulate(
        total: Optional[List[Tuple[np.ndarray, np.ndarray]]],
        grads: List[Tuple[np.ndarray, np.ndarray]],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Running per-layer gradient sums, in sampling order.

        ``backward`` hands out fresh arrays, so the first sample's are adopted as the
        totals and every later sample is added into them in place.
        """
        if total is None:
            return grads
        for (tw, tb), (gw, gb) in zip(total, grads):
            tw += gw
            tb += gb
        return total
