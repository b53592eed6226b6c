"""Minimal NumPy multilayer perceptron with Adam — the function approximator behind the
DRL crossover agent.

The paper trains its actor network (three ReLU layers with 128 hidden units) with
PyTorch; no deep-learning framework is available offline, so this module provides the
small amount of machinery actually needed: a feed-forward MLP with manual
backpropagation and an Adam optimizer.  It is deliberately general (arbitrary layer
sizes, linear or sigmoid heads) so the actor and the critic share the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["MLP", "AdamOptimizer"]


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


class MLP:
    """Fully connected network with ReLU hidden layers.

    ``head`` selects the output nonlinearity: ``"sigmoid"`` for per-gene probabilities
    (actor) or ``"linear"`` for value regression (critic).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Sequence[int],
        output_dim: int,
        head: str = "linear",
        seed: int = 0,
    ) -> None:
        if input_dim <= 0 or output_dim <= 0:
            raise ValueError("input and output dimensions must be positive")
        if head not in ("linear", "sigmoid"):
            raise ValueError("head must be 'linear' or 'sigmoid'")
        self.head = head
        rng = np.random.default_rng(seed)
        dims = [input_dim, *hidden_dims, output_dim]
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    # -- forward --------------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, keep_cache: bool = False
    ) -> Tuple[np.ndarray, Optional[List[np.ndarray]]]:
        """Forward pass; optionally returns the per-layer activations for backprop.

        ``x`` is one input row ``(D,)`` / ``(1, D)``, a batch ``(B, D)`` or a stack
        ``(P, 1, D)`` of single rows.  numpy runs a stack as one GEMV per ``(1, D)``
        slice — the call a single row makes — so row ``p`` of a stacked pass equals
        the forward of row ``p`` alone bit for bit (a ``(B, D)`` batch is one GEMM,
        which does not).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        activations = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            if i < last:
                h = _relu(z)
            else:
                h = _sigmoid(z) if self.head == "sigmoid" else z
            activations.append(h)
        return h, (activations if keep_cache else None)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward(x)
        return out

    # -- backward -------------------------------------------------------------------------
    def backward(
        self, activations: List[np.ndarray], output_grad: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Gradients of a scalar loss w.r.t. all parameters.

        ``output_grad`` must already be the gradient of the loss w.r.t. the network
        *output* (post-head).  For the sigmoid head the caller typically passes
        ``d loss / d probability``; the head derivative is applied here.

        A one-row pass (one sample) takes its weight gradients as outer products:
        numpy does not hand a ``(K, 1) @ (1, N)`` matmul to BLAS, its own loop
        computes ``0 + a * d``, and ``a * d + 0.0`` is that sum bit for bit (the
        ``+ 0.0`` turns the product's ``-0.0`` into the loop's ``+0.0``).  The
        bias gradient ``d + 0.0`` is the one-row ``sum`` the same way.
        """
        grads: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(self.weights)  # type: ignore
        delta = np.atleast_2d(output_grad).astype(float)
        last = len(self.weights) - 1
        if self.head == "sigmoid":
            out = activations[-1]
            delta = delta * out * (1.0 - out)
        for i in range(last, -1, -1):
            a_prev = activations[i]
            if a_prev.shape[0] == 1:
                gw = a_prev.T * delta
                gw += 0.0
                grads[i] = (gw, delta[0] + 0.0)
            else:
                grads[i] = (a_prev.T @ delta, delta.sum(axis=0))
            if i > 0:
                delta = delta @ self.weights[i].T
                delta = delta * (activations[i] > 0.0)
        return grads

    # -- parameter access ------------------------------------------------------------------
    def parameters(self) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        return params

    def apply_gradients(
        self, grads: Sequence[Tuple[np.ndarray, np.ndarray]], optimizer: "AdamOptimizer"
    ) -> None:
        flat: List[np.ndarray] = []
        for gw, gb in grads:
            flat.extend((gw, gb))
        optimizer.step(self.parameters(), flat)


@dataclass
class AdamOptimizer:
    """Adam [Kingma & Ba 2014], operating in place on a list of parameter arrays."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    _m: List[np.ndarray] = field(default_factory=list)
    _v: List[np.ndarray] = field(default_factory=list)
    _t: int = 0

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ValueError("parameter and gradient lists must align")
        if not self._m:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        lr_t = self.learning_rate * np.sqrt(1 - self.beta2**self._t) / (1 - self.beta1**self._t)
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * (g * g)
            p -= lr_t * m / (np.sqrt(v) + self.epsilon)
