"""Adversarial worst-case certification of a migration plan.

A robust recommendation is only as strong as the scenario set it was optimized
over.  :class:`ScenarioAdversary` plays the other side: given one concrete plan, it
searches the scenario space — workload knobs (rate/payload scale) *and* fault knobs
(:mod:`repro.quality.faults`) within declared :class:`AdversaryBounds` — for the
spec that maximizes the plan's aggregated regret against its fault-free baseline.
The search is a deterministic coordinate descent seeded by the named stress
families of :class:`~repro.quality.scenario_factory.ScenarioFactory` (every family
is evaluated first, so the certified worst case can never be weaker than any
enumerated family), followed by seeded random exploration while evaluation budget
remains — a small (μ+1)-style refinement rather than a full GA.

The result is a :class:`RobustnessCertificate`: the worst-case spec found, the
per-objective regret it inflicts, whether the plan stays feasible under it, and
the budget spent — the artifact :meth:`Atlas.recommend(certify=...)
<repro.recommend.advisor.Atlas.recommend>` attaches to its recommendation and the
drift monitor's escalation path refreshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.placement import MigrationPlan
from ..cluster.topology import ON_PREM
from .evaluator import PlanQuality, QualityEvaluator
from .faults import (
    CapacityCut,
    LinkDegradation,
    LocationOutage,
    PriceShock,
    require_finite,
)
from .scenario_factory import ScenarioFactory
from .scenarios import ScenarioSpec

__all__ = ["AdversaryBounds", "RobustnessCertificate", "ScenarioAdversary"]


@dataclass(frozen=True)
class AdversaryBounds:
    """Declared ranges the adversary may search; one field per scenario knob.

    The bounds are the contract that keeps certificates comparable: a certificate
    is "worst case within these bounds", not worst case over physically
    unrealizable futures.  ``infeasibility_penalty`` is the scalarized-regret
    surcharge for a spec that pushes a baseline-feasible plan out of feasibility —
    large enough that any infeasibility dominates any graceful degradation.
    """

    max_rate_scale: float = 5.0
    max_payload_scale: float = 3.0
    max_latency_factor: float = 8.0
    min_bandwidth_factor: float = 0.25
    max_price_factor: float = 4.0
    min_capacity_fraction: float = 0.4
    allow_outages: bool = True
    infeasibility_penalty: float = 10.0

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if self.max_rate_scale < 1.0 or self.max_payload_scale < 1.0:
            raise ValueError("scale bounds must be >= 1")
        if self.max_latency_factor < 1.0 or self.max_price_factor < 1.0:
            raise ValueError("factor bounds must be >= 1")
        if not 0.0 < self.min_bandwidth_factor <= 1.0:
            raise ValueError("min_bandwidth_factor must be in (0, 1]")
        if not 0.0 < self.min_capacity_fraction <= 1.0:
            raise ValueError("min_capacity_fraction must be in (0, 1]")
        if self.infeasibility_penalty < 0:
            raise ValueError("infeasibility_penalty must be non-negative")


@dataclass(frozen=True)
class RobustnessCertificate:
    """What the adversary found: the certified worst case of one plan.

    ``regret`` is the per-objective vector ``worst_values - baseline_values`` in
    the problem's objective order; ``worst_regret`` is the scalarized maximum the
    adversary optimized (normalized positive regret plus the infeasibility
    surcharge).  ``family_regrets`` records the same scalar for every named stress
    family the search was seeded with — the certificate's worst case is by
    construction at least as bad as each of them.
    """

    plan: MigrationPlan
    objective_names: Tuple[str, ...]
    baseline_values: Tuple[float, ...]
    baseline_feasible: bool
    worst_spec: ScenarioSpec
    worst_values: Tuple[float, ...]
    regret: Tuple[float, ...]
    worst_regret: float
    feasible_under_fault: bool
    violations: Tuple[str, ...]
    budget_spent: int
    family_regrets: Dict[str, float] = field(default_factory=dict)

    @property
    def survives(self) -> bool:
        """Whether the plan stays feasible even under the certified worst case."""
        return self.feasible_under_fault

    def summary(self) -> str:
        """Human-readable certificate (what the example and benchmarks print)."""
        lines = [
            f"worst-case scenario : {self.worst_spec.name}",
            f"scalarized regret   : {self.worst_regret:.4f}",
            "feasible under fault: " + ("yes" if self.feasible_under_fault else "no"),
        ]
        for name, base, worst, regret in zip(
            self.objective_names, self.baseline_values, self.worst_values, self.regret
        ):
            lines.append(
                f"  {name:<10} {base:>12.4f} -> {worst:>12.4f}  (regret {regret:+.4f})"
            )
        if self.violations:
            lines.append("violations under worst case:")
            lines.extend(f"  - {violation}" for violation in self.violations)
        lines.append(f"scenarios evaluated : {self.budget_spent}")
        return "\n".join(lines)


@dataclass
class _Candidate:
    spec: ScenarioSpec
    quality: PlanQuality
    regret: Tuple[float, ...]
    score: float


#: Neutral parameter vector — the identity scenario the descent starts from.
_NEUTRAL = {
    "rate_scale": 1.0,
    "payload_scale": 1.0,
    "outage": None,
    "latency_factor": 1.0,
    "egress_factor": 1.0,
    "compute_factor": 1.0,
    "capacity_fraction": 1.0,
}


class ScenarioAdversary:
    """Deterministic worst-case search over the bounded scenario space of one plan."""

    def __init__(
        self,
        evaluator: QualityEvaluator,
        factory: Optional[ScenarioFactory] = None,
        bounds: Optional[AdversaryBounds] = None,
        budget: int = 48,
        seed: int = 0,
        extra_specs: Sequence[ScenarioSpec] = (),
    ) -> None:
        """``budget`` caps the number of distinct scenario evaluations; the factory
        families (and ``extra_specs``, e.g. a drift-refreshed scenario) are always
        scored even if that exceeds the budget — the descent and the random
        refinement only run on budget that remains."""
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.evaluator = evaluator
        self.factory = factory or ScenarioFactory.from_evaluator(evaluator)
        self.bounds = bounds or AdversaryBounds()
        self.budget = int(budget)
        self.seed = int(seed)
        self.extra_specs = tuple(extra_specs)
        #: Rate-changing scenarios need the fitted estimator to recompile usage.
        self._can_scale_rates = (
            evaluator.estimator is not None and bool(evaluator.estimate.api_rates)
        )
        #: The elastic site whose node pool the capacity knob shrinks (first
        #: billable location; the on-prem knob is a no-op without declared limits).
        billable = sorted(evaluator.cost.catalogs)
        self._cut_site = billable[0] if billable else None
        if self._cut_site is None and evaluator.preferences.onprem_limits:
            self._cut_site = ON_PREM

    # -- scoring ---------------------------------------------------------------------------
    def _score_spec(
        self, plan: MigrationPlan, spec: ScenarioSpec, baseline: PlanQuality
    ) -> _Candidate:
        quality = self.evaluator.evaluate_under(plan, spec)
        base_values = baseline.objectives()
        regret = tuple(
            value - base for value, base in zip(quality.objectives(), base_values)
        )
        # Scalarization: normalized positive regret summed over objectives.  Each
        # objective is normalized by max(|baseline|, 1) so dollar-scale and
        # unit-scale objectives weigh comparably; improvements (negative regret,
        # e.g. an outage making a cloud-heavy plan cheaper) never offset harm.
        score = sum(
            max(r, 0.0) / max(abs(base), 1.0)
            for r, base in zip(regret, base_values)
        )
        if baseline.feasible and not quality.feasible:
            score += self.bounds.infeasibility_penalty
        return _Candidate(spec=spec, quality=quality, regret=regret, score=score)

    def _supported(self, spec: ScenarioSpec) -> bool:
        return self._can_scale_rates or not spec.changes_rates

    # -- parameterized spec construction -----------------------------------------------------
    def _spec_from_params(self, params: Dict[str, object], index: int) -> Optional[ScenarioSpec]:
        faults = []
        if params["outage"] is not None:
            faults.append(LocationOutage(int(params["outage"])))
        if params["latency_factor"] > 1.0:
            faults.append(
                LinkDegradation(
                    latency_factor=float(params["latency_factor"]),
                    bandwidth_factor=self.bounds.min_bandwidth_factor,
                )
            )
        if params["egress_factor"] > 1.0 or params["compute_factor"] > 1.0:
            faults.append(
                PriceShock(
                    compute_factor=float(params["compute_factor"]),
                    egress_factor=float(params["egress_factor"]),
                )
            )
        if params["capacity_fraction"] < 1.0 and self._cut_site is not None:
            faults.append(
                CapacityCut(
                    self._cut_site,
                    remaining_fraction=float(params["capacity_fraction"]),
                )
            )
        spec = ScenarioSpec(
            name=f"adversary-{index}",
            rate_scale=float(params["rate_scale"]),
            payload_scale=float(params["payload_scale"]),
            faults=tuple(faults),
        )
        if spec.is_baseline:
            return None
        return spec

    def _knob_grid(self) -> List[Tuple[str, List[object]]]:
        """Coordinate-descent candidate values per knob, all within the bounds."""
        b = self.bounds
        grid: List[Tuple[str, List[object]]] = []
        if self._can_scale_rates:
            grid.append(
                ("rate_scale", [(1.0 + b.max_rate_scale) / 2.0, b.max_rate_scale])
            )
        grid.append(
            ("payload_scale", [(1.0 + b.max_payload_scale) / 2.0, b.max_payload_scale])
        )
        if b.allow_outages and self.factory.remote_locations:
            grid.append(("outage", list(self.factory.remote_locations)))
        grid.append(
            ("latency_factor", [(1.0 + b.max_latency_factor) / 2.0, b.max_latency_factor])
        )
        grid.append(
            ("egress_factor", [(1.0 + b.max_price_factor) / 2.0, b.max_price_factor])
        )
        grid.append(
            ("compute_factor", [(1.0 + b.max_price_factor) / 2.0, b.max_price_factor])
        )
        if self._cut_site is not None:
            grid.append(
                (
                    "capacity_fraction",
                    [b.min_capacity_fraction, (1.0 + b.min_capacity_fraction) / 2.0],
                )
            )
        return grid

    def _random_params(self, rng: np.random.Generator) -> Dict[str, object]:
        """One bounded random parameter vector (the exploration tail of the search)."""
        b = self.bounds
        params = dict(_NEUTRAL)
        if self._can_scale_rates:
            params["rate_scale"] = float(rng.uniform(1.0, b.max_rate_scale))
        params["payload_scale"] = float(rng.uniform(1.0, b.max_payload_scale))
        if b.allow_outages and self.factory.remote_locations and rng.random() < 0.5:
            params["outage"] = int(rng.choice(list(self.factory.remote_locations)))
        if rng.random() < 0.5:
            params["latency_factor"] = float(rng.uniform(1.0, b.max_latency_factor))
        if rng.random() < 0.5:
            params["egress_factor"] = float(rng.uniform(1.0, b.max_price_factor))
        if rng.random() < 0.5:
            params["compute_factor"] = float(rng.uniform(1.0, b.max_price_factor))
        if self._cut_site is not None and rng.random() < 0.5:
            params["capacity_fraction"] = float(
                rng.uniform(b.min_capacity_fraction, 1.0)
            )
        return params

    # -- the search ---------------------------------------------------------------------------
    def certify(self, plan: MigrationPlan) -> RobustnessCertificate:
        """Search the bounded scenario space for the plan's worst case.

        Order of play: (1) the fault-free baseline anchors the regret; (2) every
        factory family and extra spec is scored — the eventual worst case dominates
        them by construction; (3) deterministic coordinate descent over the knob
        grid from the neutral point; (4) seeded random exploration on leftover
        budget.  Distinct specs are deduplicated by compiled identity, so repeated
        candidates never double-bill the budget.
        """
        baseline = self.evaluator.evaluate_under(
            plan, ScenarioSpec(name="certify-baseline")
        )

        seen: set = set()
        candidates: List[_Candidate] = []
        spent = 0

        def consider(spec: ScenarioSpec) -> Optional[_Candidate]:
            nonlocal spent
            identity = spec.identity_key()
            if identity in seen:
                return None
            seen.add(identity)
            spent += 1
            candidate = self._score_spec(plan, spec, baseline)
            candidates.append(candidate)
            return candidate

        # (2) Seeds: every named stress family plus caller-supplied extras.
        family_regrets: Dict[str, float] = {}
        seed_specs = [
            spec
            for spec in self.factory.stress_families(include_baseline=False)
            if self._supported(spec)
        ]
        seed_specs.extend(spec for spec in self.extra_specs if self._supported(spec))
        for spec in seed_specs:
            candidate = consider(spec)
            if candidate is not None:
                family_regrets[spec.name] = candidate.score

        # (3) Coordinate descent from the neutral point over the knob grid.
        params = dict(_NEUTRAL)
        params_score = 0.0
        adversary_index = 0
        improved = True
        while improved and spent < self.budget:
            improved = False
            for knob, values in self._knob_grid():
                for value in values:
                    if spent >= self.budget:
                        break
                    trial = dict(params)
                    trial[knob] = value
                    spec = self._spec_from_params(trial, adversary_index)
                    if spec is None:
                        continue
                    candidate = consider(spec)
                    if candidate is None:
                        continue
                    adversary_index += 1
                    if candidate.score > params_score:
                        params, params_score = trial, candidate.score
                        improved = True

        # (4) Seeded random exploration on leftover budget.  The miss guard stops
        # the loop when the searchable space is effectively exhausted (every draw
        # deduplicates away) instead of spinning without spending budget.
        rng = np.random.default_rng(self.seed)
        misses = 0
        while spent < self.budget and misses < 25:
            spec = self._spec_from_params(self._random_params(rng), adversary_index)
            if spec is None or spec.identity_key() in seen:
                misses += 1
                continue
            misses = 0
            candidate = consider(spec)
            if candidate is not None:
                adversary_index += 1

        if not candidates:
            # Degenerate space (nothing searchable): certify the baseline itself.
            worst = _Candidate(
                spec=ScenarioSpec(name="certify-baseline"),
                quality=baseline,
                regret=tuple(0.0 for _ in baseline.objectives()),
                score=0.0,
            )
        else:
            worst = max(candidates, key=lambda candidate: candidate.score)
        return RobustnessCertificate(
            plan=plan,
            objective_names=self.evaluator.objective_names,
            baseline_values=baseline.objectives(),
            baseline_feasible=baseline.feasible,
            worst_spec=worst.spec,
            worst_values=worst.quality.objectives(),
            regret=worst.regret,
            worst_regret=worst.score,
            feasible_under_fault=worst.quality.feasible,
            violations=worst.quality.violations,
            budget_spent=spent,
            family_regrets=family_regrets,
        )
