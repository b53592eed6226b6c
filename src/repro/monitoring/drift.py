"""Post-migration drift detection (Section 4.3, Figure 9/17).

After a plan is executed, Atlas keeps comparing each API's recent latency distribution
against the distribution it predicted (and the one it measured) when the plan was
chosen.  The comparison uses Kullback-Leibler divergence over a shared histogram.
Because KL has no upper bound, significance is judged relative to a per-API baseline:
the divergence between the measured post-migration distribution and Atlas's own
approximation at recommendation time.  When the recent distribution loses many times
more information than that baseline, the footprints are considered outdated and a new
recommendation round is triggered.

:meth:`DriftDetector.check_all` decides drift once per sample and returns the
per-API reports; :meth:`DriftDetector.refreshed_scenario` compiles the same reports
into a refreshed :class:`~repro.workload.profiles.WorkloadScenario` (the bridge into
the scenario axis, e.g. ``certify_plan(extra_specs=(ScenarioSpec.from_workload(...),))``).
The drifted APIs' fresh trace windows are the monitoring plane's to hand to
:meth:`Atlas.recertify <repro.recommend.advisor.Atlas.recertify>`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..cluster.topology import require_finite
from ..digest import sha_parts
from ..workload.profiles import BehaviorChange, WorkloadScenario

__all__ = [
    "kl_divergence",
    "DriftReport",
    "DriftDetector",
]


def kl_divergence(
    reference: Sequence[float],
    candidate: Sequence[float],
    bins: int = 20,
    value_range: Optional[tuple] = None,
) -> float:
    """KL(reference || candidate) between two latency sample sets.

    Both sample sets are histogrammed over a common support (the union of their ranges
    unless ``value_range`` is given).  Laplace (add-one) smoothing keeps the divergence
    finite and bounded even for distributions with little overlap or with few samples,
    which is what makes the relative comparison against the per-API baseline meaningful.

    The binning is that of NumPy's ``histogram`` — ``bins`` equal-width bins between
    ``np.linspace`` edges, the last one closed, values outside the range (and ``nan``)
    dropped, a zero-width range widened by ±0.5, a non-finite, reversed or too-narrow
    range a ``ValueError`` — counted by one edge search per window: a monitoring
    window is a handful of samples, and at that size the library call's own argument
    handling costs many times the counting.
    """
    ref = np.asarray(list(reference), dtype=float)
    cand = np.asarray(list(candidate), dtype=float)
    if ref.size == 0 or cand.size == 0:
        raise ValueError("both sample sets must be non-empty")
    if bins <= 1:
        raise ValueError("bins must be greater than 1")
    if value_range is None:
        lo = float(min(ref.min(), cand.min()))
        hi = float(max(ref.max(), cand.max()))
        if hi <= lo:
            hi = lo + 1.0
    else:
        lo, hi = (float(bound) for bound in value_range)
        if lo > hi:
            raise ValueError("max must be larger than min in range parameter")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"supplied range of [{lo}, {hi}] is not finite")
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    if not (edges[:-1] < edges[1:]).all():
        raise ValueError(f"range [{lo}, {hi}] is too narrow for {bins} finite-sized bins")
    # ``searchsorted(side="right")`` numbers the half-open bins 1..bins, with 0 below
    # the range and bins + 1 at or above the last edge; nudging that edge up by one
    # float closes the last bin (``hi`` itself counts, anything larger still does not).
    edges[-1] = math.nextafter(hi, math.inf)
    p = np.bincount(edges.searchsorted(ref, side="right"), minlength=bins + 2)[1:-1] + 1.0
    q = np.bincount(edges.searchsorted(cand, side="right"), minlength=bins + 2)[1:-1] + 1.0
    p /= p.sum()
    q /= q.sum()
    return float((p * np.log(p / q)).sum())


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one drift check for one API."""

    api: str
    baseline_divergence: float
    recent_divergence: float
    threshold_factor: float

    @property
    def information_loss_factor(self) -> float:
        """How many times more information the recent distribution loses than the baseline."""
        if self.baseline_divergence <= 0:
            return float("inf") if self.recent_divergence > 0 else 1.0
        return self.recent_divergence / self.baseline_divergence

    @property
    def drift_detected(self) -> bool:
        return self.information_loss_factor > self.threshold_factor


class DriftDetector:
    """Per-API drift detection against the last recommendation round."""

    def __init__(
        self,
        approx_latencies: Mapping[str, Sequence[float]],
        real_latencies: Mapping[str, Sequence[float]],
        threshold_factor: float = 5.0,
        bins: int = 20,
    ) -> None:
        """``approx_latencies`` are Atlas's delay-injection estimates made when the plan
        was recommended; ``real_latencies`` are the distributions measured right after
        the migration (the previous round's ground truth)."""
        require_finite({"threshold_factor": threshold_factor})
        if threshold_factor <= 1.0:
            raise ValueError("threshold_factor must be greater than 1")
        missing = set(approx_latencies) ^ set(real_latencies)
        if missing:
            raise ValueError(f"approx and real distributions disagree on APIs: {sorted(missing)}")
        self._approx = {api: list(v) for api, v in approx_latencies.items()}
        self._real = {api: list(v) for api, v in real_latencies.items()}
        self.threshold_factor = threshold_factor
        self.bins = bins
        #: Memo of :meth:`baseline_divergence`: both distributions are frozen above,
        #: so each API's baseline is a constant of the detector.
        self._baseline: Dict[str, float] = {}

    @property
    def apis(self) -> List[str]:
        return sorted(self._real)

    # -- durable checkpointing ---------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """JSON-able snapshot of the detector's baselines (daemon checkpoint payload).

        The detector is a pure function of its two baseline distributions plus the
        two tunables, so ``DriftDetector.from_state(detector.state())`` reproduces
        its drift verdicts exactly — what lets the
        :class:`~repro.serving.daemon.AdvisorDaemon` persist its monitoring state
        across process restarts.
        """
        return {
            "approx": {api: [float(x) for x in v] for api, v in self._approx.items()},
            "real": {api: [float(x) for x in v] for api, v in self._real.items()},
            "threshold_factor": float(self.threshold_factor),
            "bins": int(self.bins),
            "baseline": {api: self.baseline_divergence(api) for api in self._real},
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "DriftDetector":
        """Rebuild a detector from a :meth:`state` snapshot (bitwise-equivalent).

        The snapshot's baseline divergences are taken as they are (a JSON float
        round-trips exactly); a snapshot without them computes each on first use.
        """
        detector = cls(
            approx_latencies=state["approx"],
            real_latencies=state["real"],
            threshold_factor=float(state["threshold_factor"]),
            bins=int(state["bins"]),
        )
        detector._baseline = {
            api: float(value)
            for api, value in state.get("baseline", {}).items()
            if api in detector._real
        }
        return detector

    def content_digest(self) -> str:
        """Content fingerprint of :meth:`state`, every float ``repr``-exact.

        Names the detector's durable form: the daemon's checkpoint carries this
        digest and the store holds the state once under it.
        """
        state = self.state()
        parts = [repr(state["threshold_factor"]), repr(state["bins"])]
        for api in sorted(state["real"]):
            parts += [
                api,
                repr(state["approx"][api]),
                repr(state["real"][api]),
                repr(state["baseline"][api]),
            ]
        return sha_parts(parts)

    def baseline_divergence(self, api: str) -> float:
        """D_KL(b_real, b_approx): the approximation error accepted at recommendation time."""
        if api not in self._baseline:
            self._baseline[api] = kl_divergence(
                self._real[api], self._approx[api], bins=self.bins
            )
        return self._baseline[api]

    def check(self, api: str, recent_latencies: Sequence[float]) -> DriftReport:
        """Compare the most recent latency samples of one API against the baseline."""
        if api not in self._real:
            raise KeyError(f"API {api!r} was not part of the last recommendation round")
        baseline = self.baseline_divergence(api)
        recent = kl_divergence(self._real[api], recent_latencies, bins=self.bins)
        return DriftReport(
            api=api,
            baseline_divergence=baseline,
            recent_divergence=recent,
            threshold_factor=self.threshold_factor,
        )

    def check_all(
        self, recent_latencies: Mapping[str, Sequence[float]]
    ) -> Dict[str, DriftReport]:
        """One drift report per monitored API with recent samples.

        The verdict a drift cycle decides on; :meth:`refreshed_scenario` turns the
        same reports into a refreshed workload scenario.
        """
        return {
            api: self.check(api, samples)
            for api, samples in recent_latencies.items()
            if api in self._real and len(samples) > 0
        }

    def refreshed_scenario(
        self,
        base: WorkloadScenario,
        recent_latencies: Mapping[str, Sequence[float]],
        reports: Optional[Mapping[str, DriftReport]] = None,
    ) -> Optional[WorkloadScenario]:
        """A refreshed workload scenario capturing the drifted APIs' new behaviour.

        Each drifted API contributes a :class:`~repro.workload.profiles.BehaviorChange`
        whose payload scale is the observed mean-latency inflation over the
        post-migration ground truth — the internal-drift proxy the footprints support
        before the next learning round replaces them.  Returns ``None`` when no API
        drifted (the current scenario still describes the workload).
        """
        if reports is None:
            reports = self.check_all(recent_latencies)
        changes: List[BehaviorChange] = []
        for api, report in sorted(reports.items()):
            if not report.drift_detected:
                continue
            reference = float(np.mean(self._real[api]))
            recent = float(np.mean(recent_latencies[api]))
            scale = recent / reference if reference > 0 else 1.0
            changes.append(
                BehaviorChange(
                    start_ms=0.0,
                    apis=[api],
                    payload_scale=max(scale, 0.1),
                )
            )
        if not changes:
            return None
        return WorkloadScenario(
            mix=base.mix,
            profile=base.profile,
            changes=list(base.changes) + changes,
            name=f"{base.name}-drift",
        )

    def drifted_apis(self, recent_latencies: Mapping[str, Sequence[float]]) -> List[str]:
        return [
            api
            for api, report in self.check_all(recent_latencies).items()
            if report.drift_detected
        ]
