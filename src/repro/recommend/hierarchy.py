"""Hierarchical post-processing of recommended plans (Section 4.2.2, Figure 8).

A Pareto front with three (or K) objectives is hard to pick from.  Atlas organizes the
recommended plans with agglomerative hierarchical clustering over their (normalized)
objective vectors and presents them as a dendrogram: the owner first chooses among a
few high-level clusters (performance-focused, cost-focused, balanced, ...), then refines
within the chosen cluster down to a concrete plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from ..quality.evaluator import PlanQuality

__all__ = ["PlanCluster", "PlanHierarchy"]

#: Human-friendly labels of the paper triple; other objectives label by their name.
_OBJECTIVE_LABELS = {"qperf": "performance", "qavai": "availability", "qcost": "cost"}


@dataclass
class PlanCluster:
    """One node of the plan dendrogram."""

    label: str
    members: List[PlanQuality]
    representative: PlanQuality
    children: List["PlanCluster"] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)


class PlanHierarchy:
    """Agglomerative clustering of a Pareto front of plans."""

    def __init__(self, plans: Sequence[PlanQuality]) -> None:
        if not plans:
            raise ValueError("cannot build a hierarchy from an empty plan set")
        self.plans = list(plans)
        names = self.plans[0].objective_names()
        self._names = tuple(_OBJECTIVE_LABELS.get(name, name) for name in names)
        self._objectives = np.array([p.objectives() for p in self.plans], dtype=float)
        self._normalized = self._normalize(self._objectives)
        if len(self.plans) > 1:
            self._linkage = linkage(self._normalized, method="average")
        else:
            self._linkage = None

    @staticmethod
    def _normalize(objectives: np.ndarray) -> np.ndarray:
        lo = objectives.min(axis=0)
        hi = objectives.max(axis=0)
        span = np.where(hi - lo > 0, hi - lo, 1.0)
        return (objectives - lo) / span

    # -- flat clusterings --------------------------------------------------------------------
    def clusters(self, k: int) -> List[PlanCluster]:
        """Cut the dendrogram into (at most) ``k`` clusters, each with a representative."""
        if k <= 0:
            raise ValueError("k must be positive")
        k = min(k, len(self.plans))
        if self._linkage is None or k == len(self.plans):
            assignments = np.arange(len(self.plans)) + 1
        else:
            assignments = fcluster(self._linkage, t=k, criterion="maxclust")
        clusters: List[PlanCluster] = []
        for cluster_id in sorted(set(assignments)):
            indices = [i for i, a in enumerate(assignments) if a == cluster_id]
            members = [self.plans[i] for i in indices]
            representative = self._medoid(indices)
            clusters.append(
                PlanCluster(
                    label=self._describe(indices),
                    members=members,
                    representative=representative,
                )
            )
        return clusters

    def drill_down(self, cluster: PlanCluster, k: int = 2) -> List[PlanCluster]:
        """Refine one cluster into up to ``k`` sub-clusters (next level of the dendrogram)."""
        if cluster.size <= 1:
            return []
        sub = PlanHierarchy(cluster.members)
        return sub.clusters(min(k, cluster.size))

    # -- helpers -------------------------------------------------------------------------------
    def _medoid(self, indices: Sequence[int]) -> PlanQuality:
        points = self._normalized[list(indices)]
        center = points.mean(axis=0)
        distances = np.linalg.norm(points - center, axis=1)
        return self.plans[indices[int(np.argmin(distances))]]

    def _describe(self, indices: Sequence[int]) -> str:
        """Label a cluster by the objective on which it excels relative to the whole front."""
        cluster_mean = self._normalized[list(indices)].mean(axis=0)
        best = int(np.argmin(cluster_mean))
        return f"{self._names[best]}-focused"

    # -- presentation ----------------------------------------------------------------------------
    def to_text(self, top_level: int = 3, second_level: int = 2) -> str:
        """A small text rendering of the two top levels of the dendrogram."""
        lines: List[str] = []
        for cluster in self.clusters(top_level):
            rep = cluster.representative
            lines.append(
                f"- {cluster.label} ({cluster.size} plans): "
                f"perf={rep.perf:.2f}, avail={rep.avail:.1f}, cost=${rep.cost:.2f}"
            )
            for child in self.drill_down(cluster, second_level):
                crep = child.representative
                lines.append(
                    f"    * {child.label} ({child.size}): "
                    f"perf={crep.perf:.2f}, avail={crep.avail:.1f}, cost=${crep.cost:.2f}"
                )
        return "\n".join(lines)
