"""Synthetic social graph and content sampling.

The paper seeds its social network with a real-world Facebook graph [66] and media from
the INRIA Person dataset [35].  Neither dataset is available offline, so we substitute
synthetic equivalents that preserve the properties the system actually depends on:

* a heavy-tailed follower distribution (Barabási–Albert power-law graph), which drives the
  fan-out size of /composePost and the home-timeline response size;
* post lengths and media sizes drawn from log-normal distributions matching the scale
  of real posts (hundreds of bytes) and person photos (tens to hundreds of KB).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = ["SocialGraph", "ContentSampler"]


def preferential_attachment(n: int, m: int, seed: int) -> List[List[int]]:
    """Adjacency lists of a Barabási–Albert graph: ``n`` nodes, ``m`` edges per new node.

    Grown from a star on ``m + 1`` nodes; each new node attaches to ``m`` distinct
    nodes drawn with ``random.Random(seed).choice`` from the list that repeats every
    node once per incident edge, and the set of targets is iterated as is.  Draw
    for draw the graph library's generator this replaced (``tests/test_workload.py``
    holds it as the oracle: same edges, same neighbour order per node).
    """
    if not 1 <= m < n:
        raise ValueError(f"preferential attachment needs 1 <= m < n, got m={m}, n={n}")
    rng = random.Random(seed)
    neighbours: List[List[int]] = [list(range(1, m + 1))] + [[0] for _ in range(m)]
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        neighbours.append(list(targets))
        for target in targets:
            neighbours[target].append(source)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return neighbours


class SocialGraph:
    """A synthetic follower graph with heavy-tailed degree distribution."""

    def __init__(self, users: int = 500, attachment: int = 4, seed: int = 7) -> None:
        if users < 3:
            raise ValueError("a social graph needs at least 3 users")
        if attachment < 1:
            raise ValueError("attachment must be at least 1")
        self.users = users
        self._followers = preferential_attachment(users, min(attachment, users - 1), seed)
        self._rng = np.random.default_rng(seed)
        degrees = np.array([len(f) for f in self._followers], dtype=float)
        self._popularity = degrees / degrees.sum()
        self._mean_followers = float(degrees.mean())

    def follower_count(self, user: int) -> int:
        return len(self._followers[user])

    def followers(self, user: int) -> List[int]:
        return list(self._followers[user])

    def mean_followers(self) -> float:
        return self._mean_followers

    def sample_user(self, rng: Optional[np.random.Generator] = None) -> int:
        """Sample a user, biased towards popular (high-degree) users."""
        rng = rng or self._rng
        return int(rng.choice(self.users, p=self._popularity))

    def degree_histogram(self) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for followers in self._followers:
            hist[len(followers)] = hist.get(len(followers), 0) + 1
        return hist


@dataclass
class ContentSampler:
    """Samples post text lengths and media sizes.

    ``post_bytes_mu``/``sigma`` parameterize a log-normal for post text (median around
    180 bytes), and ``media_bytes_mu``/``sigma`` one for photos (median around 60 KB,
    mimicking the INRIA person photos of various resolutions).
    """

    post_bytes_mu: float = 5.2
    post_bytes_sigma: float = 0.6
    media_bytes_mu: float = 11.0
    media_bytes_sigma: float = 0.5
    seed: int = 11

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def post_size_bytes(self, rng: Optional[np.random.Generator] = None) -> float:
        rng = rng or self._rng
        return float(rng.lognormal(self.post_bytes_mu, self.post_bytes_sigma))

    def media_size_bytes(self, rng: Optional[np.random.Generator] = None) -> float:
        rng = rng or self._rng
        return float(rng.lognormal(self.media_bytes_mu, self.media_bytes_sigma))

    def mention_count(self, rng: Optional[np.random.Generator] = None, active: bool = False) -> int:
        """How many friends the author tags in a post (higher when behaviour is 'active')."""
        rng = rng or self._rng
        lam = 2.5 if active else 0.4
        return int(rng.poisson(lam))
