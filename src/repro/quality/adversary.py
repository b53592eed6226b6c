"""Adversarial worst-case certification of a migration plan.

A robust recommendation is only as strong as the scenario set it was optimized
over.  :class:`ScenarioAdversary` plays the other side: given one concrete plan, it
scores the scenario space — workload knobs (rate/payload scale) *and* fault knobs
(:mod:`repro.quality.faults`) within declared :class:`AdversaryBounds` — for the
spec that maximizes the plan's aggregated regret against its fault-free baseline.

Every built-in objective and constraint is monotone in each severity knob at a fixed
outage choice (``tests/test_faults.py::TestFaultMonotonicity``; the plugin contract in
:mod:`repro.quality.problem`), so the worst case over the bounded space sits on an
*all-severe corner*: every knob at its severe bound, once per outage choice.  There
are only ``|remote sites| + 1`` of them, so the adversary enumerates them instead of
searching — after the named stress families of
:class:`~repro.quality.scenario_factory.ScenarioFactory`, which are always scored and
name the worst case when they tie it.

The result is a :class:`RobustnessCertificate`: the worst-case spec found, the
per-objective regret it inflicts, whether the plan stays feasible under it, and
the number of scenarios scored — the artifact :meth:`Atlas.recommend(certify=...)
<repro.recommend.advisor.Atlas.recommend>` attaches to its recommendation and the
drift monitor's escalation path refreshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.placement import MigrationPlan
from ..cluster.topology import ON_PREM, require_finite
from .evaluator import QualityEvaluator
from .faults import CapacityCut, LinkDegradation, LocationOutage, PriceShock
from .scenario_factory import ScenarioFactory
from .scenarios import ScenarioQuality, ScenarioSpec

__all__ = ["AdversaryBounds", "RobustnessCertificate", "ScenarioAdversary"]


@dataclass(frozen=True)
class AdversaryBounds:
    """Declared ranges the adversary may search; one field per scenario knob.

    The bounds are the contract that keeps certificates comparable: a certificate
    is "worst case within these bounds", not worst case over physically
    unrealizable futures.  ``max_price_factor`` bounds the compute, storage and
    egress prices alike, and ``min_capacity_fraction`` the capacity left at every
    billable site (on-prem when nothing is billable).  ``infeasibility_penalty``
    is the scalarized-regret surcharge for a spec that pushes a baseline-feasible
    plan out of feasibility — large enough that any infeasibility dominates any
    graceful degradation.
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
    adversary maximized (normalized positive regret plus the infeasibility
    surcharge).  ``family_regrets`` records the same scalar for every named stress
    family and extra spec — the certificate's worst case is by construction at
    least as bad as each of them.
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
    quality: ScenarioQuality
    regret: Tuple[float, ...]
    score: float


class ScenarioAdversary:
    """Worst case of one plan over the bounded scenario space: the stress families,
    the extra specs and the all-severe corners, each scored once."""

    def __init__(
        self,
        evaluator: QualityEvaluator,
        factory: Optional[ScenarioFactory] = None,
        bounds: Optional[AdversaryBounds] = None,
        budget: int = 48,
        extra_specs: Sequence[ScenarioSpec] = (),
    ) -> None:
        """``budget`` caps the number of distinct scenario evaluations; the factory
        families (and ``extra_specs``, e.g. a drift-refreshed scenario) are always
        scored even if that exceeds the budget — the corners only run on budget that
        remains."""
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.evaluator = evaluator
        self.factory = factory or ScenarioFactory.from_evaluator(evaluator)
        self.bounds = bounds or AdversaryBounds()
        self.budget = int(budget)
        self.extra_specs = tuple(extra_specs)
        #: Rate-changing scenarios need the fitted estimator to recompile usage.
        self._can_scale_rates = (
            evaluator.estimator is not None and bool(evaluator.estimate.api_rates)
        )
        #: The sites whose capacity the capacity knob cuts: every billable location,
        #: or on-prem when nothing is billable (a no-op without declared limits).
        self._cut_sites = sorted(evaluator.cost.catalogs)
        if not self._cut_sites and evaluator.preferences.onprem_limits:
            self._cut_sites = [ON_PREM]

    # -- scoring ---------------------------------------------------------------------------
    def _candidate(
        self, spec: ScenarioSpec, quality: ScenarioQuality, baseline: ScenarioQuality
    ) -> _Candidate:
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

    def _corner(self, outage: Optional[int]) -> Optional[ScenarioSpec]:
        """Every severity knob at its bound, with ``outage``'s site down (or none);
        ``None`` when that is the baseline (neutral bounds and no outage)."""
        b = self.bounds
        faults = []
        if outage is not None:
            faults.append(LocationOutage(outage))
        if b.max_latency_factor > 1.0 or b.min_bandwidth_factor < 1.0:
            faults.append(
                LinkDegradation(
                    latency_factor=b.max_latency_factor,
                    bandwidth_factor=b.min_bandwidth_factor,
                )
            )
        if b.max_price_factor > 1.0:
            faults.append(
                PriceShock(
                    compute_factor=b.max_price_factor,
                    storage_factor=b.max_price_factor,
                    egress_factor=b.max_price_factor,
                )
            )
        if b.min_capacity_fraction < 1.0:
            faults.extend(
                CapacityCut(site, remaining_fraction=b.min_capacity_fraction)
                for site in self._cut_sites
            )
        spec = ScenarioSpec(
            name="corner" if outage is None else f"corner-outage-loc{outage}",
            rate_scale=b.max_rate_scale if self._can_scale_rates else 1.0,
            payload_scale=b.max_payload_scale,
            faults=tuple(faults),
        )
        return None if spec.is_baseline else spec

    # -- the search ---------------------------------------------------------------------------
    def _probes(self) -> Tuple[List[ScenarioSpec], int]:
        """The specs a certificate scores, in order, and how many of them are stress
        families or extra specs.

        Every factory family and extra spec, whatever the budget; then the all-severe
        corners — one per remote site down, in ascending site order, when outages
        are allowed, then the outage-free one — while budget remains.  Distinct
        specs are deduplicated by compiled identity, so a repeated spec never
        double-bills the budget."""
        seen: set = set()
        probes: List[ScenarioSpec] = []

        def consider(spec: ScenarioSpec) -> None:
            identity = spec.identity_key()
            if identity not in seen:
                seen.add(identity)
                probes.append(spec)

        family_specs = [
            spec
            for spec in self.factory.stress_families(include_baseline=False)
            if self._supported(spec)
        ]
        family_specs.extend(spec for spec in self.extra_specs if self._supported(spec))
        for spec in family_specs:
            consider(spec)
        families = len(probes)
        outages = sorted(self.factory.remote_locations) if self.bounds.allow_outages else []
        for outage in [*outages, None]:
            if len(probes) >= self.budget:
                break
            spec = self._corner(outage)
            if spec is not None:
                consider(spec)
        return probes, families

    def certify(self, plan: MigrationPlan) -> RobustnessCertificate:
        """Score the plan's bounded scenario space and certify its worst case.

        The fault-free baseline anchors the regret, and the probes of
        :meth:`_probes` — the families and extra specs, then the corners within
        budget — are scored with it in one stacked pass
        (:meth:`~repro.quality.evaluator.QualityEvaluator.evaluate_specs`), each
        spec's values, feasibility and violations read from its column.  The worst
        case is the first maximum, so a family that ties a corner names it.
        """
        probes, families = self._probes()
        baseline, *qualities = self.evaluator.evaluate_specs(
            plan, [ScenarioSpec(name="certify-baseline"), *probes]
        )
        candidates = [
            self._candidate(spec, quality, baseline)
            for spec, quality in zip(probes, qualities)
        ]
        family_regrets: Dict[str, float] = {
            candidate.spec.name: candidate.score for candidate in candidates[:families]
        }

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
            budget_spent=len(probes),
            family_regrets=family_regrets,
        )
