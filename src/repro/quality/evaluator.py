"""Plan quality evaluation: the K-objective execution engine behind the problem API.

:class:`QualityEvaluator` bundles the quality models (performance, availability,
cost), the owner's preferences, the resource estimate and a declarative
:class:`~repro.quality.problem.PlacementProblem` into a single object the optimizers
query: ``evaluate(plan)`` returns a :class:`PlanQuality` with the K objective values,
feasibility and the list of violated constraints.  Evaluations are cached by plan,
which matters because genetic search revisits plans frequently.

**Problem-driven scoring.**  The evaluator executes whatever
:class:`~repro.quality.problem.Objective` / :class:`~repro.quality.problem.Constraint`
plugins its problem declares.  The default problem is the paper's QPerf / QAvai /
QCost stack (built-in plugins over the batched kernels); appending plugins widens
every result to K dimensions with zero optimizer changes.

**Plan-matrix pipeline.**  The unit of batched evaluation is a ``(plans, components)``
integer location matrix, not a list of :class:`MigrationPlan` objects:
``evaluate_vectors`` (and ``evaluate_batch``, which lowers plan lists onto it) dedups
the generation into one matrix and scores all K objectives plus feasibility in a
handful of vectorized passes — one ``score_matrix`` call per objective (one compiled
replay per API for QPerf, one site pass and one node formula for QCost, one
stateful-column pass for QAvai) and one boolean mask per constraint.  Each
plan's cost is computed exactly once per evaluation and reused by the budget check;
violation strings are materialized lazily, only for infeasible plans.  Every entry
point — the single-plan ``evaluate`` / ``is_feasible`` / ``constraint_violations``
included — goes through that one engine; the per-plan scalar kernels survive as
:meth:`QualityEvaluator.evaluate_reference`, the named oracle the batched scores
are bitwise identical to.

**Scenario axis.**  With a scenario set declared on the problem, every objective
is scored per compiled scenario into per-objective ``(S, P)`` tensors that collapse
through the robust aggregator; a plan is feasible iff it is feasible under every
scenario.  The built-in plugins score all S in one stacked pass per call
(:meth:`~repro.quality.problem.EvalContext.stacked`): work no scenario changes runs
once, what one changes rides along as extra columns of the same ordered reductions.
A classic evaluation is the baseline spec's column alone — the evaluator's own
models — aggregated by identity and without a per-scenario breakdown.  What a spec
compiles to is :func:`~repro.quality.scenarios.compile_scenario`'s; the evaluator
caches it and scores.  The axis is the problem's, so an evaluator keeps one result
cache; a shape the problem does not declare (an adversary probe) goes through the
uncached :meth:`QualityEvaluator.evaluate_under`, or, for a whole certificate's
probes in one stacked pass, :meth:`QualityEvaluator.evaluate_specs`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.placement import MigrationPlan
from ..learning.estimator import ResourceEstimate, ResourceEstimator
from ..telemetry.tracing import Trace
from .artifacts import ArtifactCache
from .availability import ApiAvailabilityModel
from .cost import CloudCostModel
from .performance import ApiPerformanceModel
from .preferences import MigrationPreferences
from .problem import ConstraintCheck, EvalContext, PlacementProblem, scenario_costs
from .scenarios import (
    CompiledScenario,
    ObjectiveVector,
    RobustAggregator,
    ScenarioQuality,
    ScenarioSet,
    ScenarioSpec,
    WorstCase,
    compile_scenario,
)

__all__ = ["PlanQuality", "QualityEvaluator"]

#: The classic pass's one column: the baseline spec, the evaluator's own models.
_CLASSIC = ScenarioSet.baseline()


@dataclass(frozen=True)
class PlanQuality(ObjectiveVector):
    """Quality of one migration plan.

    ``values`` holds the K minimized objective values in the problem's column order
    and ``names`` their labels; ``perf`` / ``avail`` / ``cost`` are read-only views
    of that vector (see :class:`~repro.quality.scenarios.ObjectiveVector`).

    Under scenario-robust evaluation the objective values are the *aggregated*
    ones (the :class:`~repro.quality.scenarios.RobustAggregator` output),
    ``feasible`` means feasible under **every** scenario, and ``scenarios`` carries
    the per-scenario breakdown; classic single-workload evaluation leaves
    ``scenarios`` empty.
    """

    plan: MigrationPlan
    values: Tuple[float, ...]
    names: Tuple[str, ...]
    feasible: bool
    violations: Tuple[str, ...] = ()
    scenarios: Tuple[ScenarioQuality, ...] = ()

    def objective_names(self) -> Tuple[str, ...]:
        return self.names

    def dominates(self, other: "PlanQuality") -> bool:
        """Pareto dominance on the objective vector (feasibility handled upstream)."""
        mine, theirs = self.values, other.values
        return all(a <= b for a, b in zip(mine, theirs)) and any(
            a < b for a, b in zip(mine, theirs)
        )


class QualityEvaluator:
    """Executes a :class:`~repro.quality.problem.PlacementProblem` over plan matrices.

    Without an explicit ``problem`` this is the paper's Eq. 4 evaluator: the three
    quality objectives under the pin / whitelist / on-prem-peak / budget constraints.
    """

    def __init__(
        self,
        performance: ApiPerformanceModel,
        availability: ApiAvailabilityModel,
        cost: CloudCostModel,
        preferences: MigrationPreferences,
        estimate: ResourceEstimate,
        component_order: Optional[Sequence[str]] = None,
        estimator: Optional[ResourceEstimator] = None,
        problem: Optional[PlacementProblem] = None,
        artifact_cache: Optional[ArtifactCache] = None,
        content_digest: Optional[str] = None,
    ) -> None:
        """``estimator`` (the fitted resource estimator the base ``estimate`` came
        from) is only needed for scenario-robust evaluation of scenarios that change
        request rates — it re-predicts the per-component usage series under each
        scenario's per-API rate series.

        ``problem`` declares the objective/constraint stack (default: the paper's
        three objectives and Eq. 4 constraints).  A problem with its own
        ``preferences`` overrides the ``preferences`` argument, and a problem with a
        scenario set arrives pre-bound (every entry point evaluates robustly).

        ``artifact_cache`` + ``content_digest`` (a fingerprint of every input a
        scenario compiles from, and of no trace) share each compiled scenario with
        every evaluator over equal content, under ``("scenario", content_digest,
        spec.identity_key())``; without both, each evaluator compiles its own."""
        self.performance = performance
        self.availability = availability
        self.cost = cost
        self.problem = problem if problem is not None else PlacementProblem.default()
        if self.problem.preferences is not None:
            preferences = self.problem.preferences
        self.preferences = preferences
        self.estimate = estimate
        self.estimator = estimator
        self._artifact_cache = artifact_cache
        self.content_digest = content_digest
        self._weights = preferences.api_weights(performance.apis)
        #: The base stack: the baseline spec's compiled scenario is the evaluator's
        #: own models, and every other spec compiles against it.
        self._base = CompiledScenario(
            estimate=estimate,
            footprint=performance.footprint,
            network=performance.network,
            cost=cost,
            weights=self._weights,
            availability=availability,
            preferences=preferences,
        )
        self._component_order = list(component_order) if component_order else None
        self._cache: Dict[Tuple[int, ...], PlanQuality] = {}
        #: Canonical column order of the result cache: every key is the plan's
        #: location tuple in THIS order, so plans expressed under a permuted
        #: component order never collide.
        self._canonical: Tuple[str, ...] = tuple(self._columns(None))
        self.evaluations = 0
        #: Scenario evaluations: one per (distinct plan, scenario) pair scored by the
        #: robust path (``evaluations`` counts plans, matching the paper's budget).
        self.scenario_evaluations = 0
        # (compiled scenario, performance view) pairs, keyed by the spec's
        # identity_key(): the name is not part of it, because the problem's
        # scenarios, the classic pass's baseline spec and the adversary's probes
        # (``evaluate_under``, throwaway names such as "corner") share them, and a
        # name flows into violation prefixes and result labels, never into the models.
        self._scenario_pairs: Dict[Tuple, Tuple[CompiledScenario, ApiPerformanceModel]] = {}
        #: The classic pass's one column, ``(spec, compiled scenario, view)``.
        self._classic = ((_CLASSIC[0], self._base, performance),)
        # The problem's scenario axis, fixed at construction: every entry point
        # (evaluate/evaluate_batch/evaluate_vectors/is_feasible/feasible_mask) scores
        # robustly over this set, with the aggregator's WorstCase default — how the
        # optimizers become scenario-robust for free.  ``None``: the classic pass.
        self._scenarios: Optional[ScenarioSet] = self.problem.scenarios
        self._aggregator: Optional[RobustAggregator] = None
        if self._scenarios is not None:
            self._aggregator = self.problem.aggregator or WorstCase()

    def _key(self, plan: MigrationPlan) -> Tuple[int, ...]:
        """Cache key of one plan: its locations in the canonical component order."""
        if tuple(plan.components) == self._canonical:
            return tuple(plan.to_vector())
        return tuple(plan[c] for c in self._canonical)

    # -- problem introspection -------------------------------------------------------------
    @property
    def objective_names(self) -> Tuple[str, ...]:
        return self.problem.objective_names

    # -- evaluation ------------------------------------------------------------------------
    def evaluate(self, plan: MigrationPlan) -> PlanQuality:
        return self.evaluate_batch([plan])[0]

    def evaluate_batch(self, plans: Sequence[MigrationPlan]) -> List[PlanQuality]:
        """Evaluate a whole generation in one call by lowering it onto a plan matrix.

        Distinct uncached plans are collected into one ``(plans, components)`` matrix
        and scored by the batched pipeline; duplicates and cache hits cost nothing.
        Over a problem with a scenario set, plans are scored robustly over its axis.
        """
        # Keys are already canonical-order vectors, so mixed component orders
        # lower onto one matrix for free.
        return self._evaluate_keys(
            [self._key(plan) for plan in plans],
            lambda missing: (
                np.asarray(list(missing), dtype=np.int64),
                [plans[index] for index in missing.values()],
            ),
        )

    def evaluate_vectors(
        self,
        vectors: Sequence[Sequence[int]],
        components: Optional[Sequence[str]] = None,
    ) -> List[PlanQuality]:
        """Evaluate location vectors directly — the optimizers' native entry point.

        ``vectors`` is anything convertible to a ``(plans, len(components))`` integer
        matrix; ``components`` names the columns (defaults to the evaluator's
        component order).  :class:`MigrationPlan` objects are constructed only for
        distinct uncached rows, at the :class:`PlanQuality` API boundary.

        A problem's scenario set switches on robust evaluation: every distinct plan is
        scored once per scenario (per-objective S×P tensors built with shared dedup,
        shared compiled replays and per-scenario compiled artifacts) and the tensors
        are collapsed by the problem's aggregator into the scalar objectives; the
        per-scenario breakdown rides along on :attr:`PlanQuality.scenarios`.
        """
        matrix, components = self._lower(vectors, components)
        return self._evaluate_keys(
            [tuple(row) for row in matrix.tolist()],
            lambda missing: (
                matrix[list(missing.values())],
                [MigrationPlan.from_vector(components, key) for key in missing],
            ),
        )

    def _evaluate_keys(self, keys: Sequence[Tuple[int, ...]], lower) -> List[PlanQuality]:
        """The one dedup-and-cache-fill: score each distinct uncached key once.

        ``lower`` maps the missing keys (key -> first position, in first-seen order)
        to their ``(matrix, plans)`` in the canonical column order.
        """
        cache = self._cache
        missing: Dict[Tuple[int, ...], int] = {}
        for index, key in enumerate(keys):
            if key not in cache and key not in missing:
                missing[key] = index
        if missing:
            matrix, plans = lower(missing)
            qualities = self._score_matrix(
                matrix, self._canonical, plans, self._scenarios, self._aggregator
            )
            self.evaluations += len(qualities)
            for key, quality in zip(missing, qualities):
                cache[key] = quality
        return [cache[key] for key in keys]

    def evaluate_under(self, plan: MigrationPlan, spec: ScenarioSpec) -> PlanQuality:
        """Score ``plan`` under one workload shape the problem need not declare.

        The adversary's probe door: the problem's objectives and constraints over
        the single scenario ``spec`` (its compiled scenario shared with the problem's
        axis by identity), aggregated by :class:`WorstCase` — the identity over one
        scenario.  Nothing is cached: a probe leaves ``cache_size`` and
        ``evaluated_qualities`` as they were.
        """
        matrix = np.asarray([self._key(plan)], dtype=np.int64)
        quality = self._score_matrix(matrix, self._canonical, [plan], (spec,), WorstCase())
        self.evaluations += 1
        return quality[0]

    def evaluate_specs(
        self, plan: MigrationPlan, specs: Sequence[ScenarioSpec]
    ) -> Tuple[ScenarioQuality, ...]:
        """:meth:`evaluate_under` of ``plan`` under each of ``specs``, in one stacked
        pass: one :class:`ScenarioQuality` per spec, in order, its values, feasibility
        and violations those ``evaluate_under(plan, spec)`` reports.

        The certificate's door: the stacked pass shares every kernel's
        scenario-invariant work and replays each API once for all the specs.  Names
        need not be unique (a caller's extra spec may share a stress family's).
        Nothing is cached, and the counters advance as one probe per spec would.
        """
        matrix = np.asarray([self._key(plan)], dtype=np.int64)
        quality = self._score_matrix(
            matrix, self._canonical, [plan], tuple(specs), WorstCase()
        )
        self.evaluations += len(specs)
        return quality[0].scenarios

    # -- the K-objective execution engine --------------------------------------------------
    def _contexts(
        self,
        matrix: np.ndarray,
        components: Sequence[str],
        scenario_set: Optional[Sequence[ScenarioSpec]],
        plans: Optional[Sequence[MigrationPlan]] = None,
    ) -> List[EvalContext]:
        """One evaluation context per scenario column of the call — the baseline
        spec's alone on a classic pass — sharing ``shared`` and naming each other as
        ``columns``.

        ``columns`` holds weak proxies: contexts that held each other would form a
        reference cycle, and every call's stacks would wait for the cyclic collector
        instead of going when the call returns."""
        shared: Dict = {}
        key = tuple(components)
        components = list(components)
        contexts: List[EvalContext] = []
        columns: List[EvalContext] = []
        for spec, compiled, performance in (
            self._classic
            if scenario_set is None
            else [(spec, *self._scenario_pair(spec)) for spec in scenario_set]
        ):
            ctx = EvalContext(
                matrix=matrix,
                components=components,
                performance=performance,
                availability=compiled.availability,
                cost=compiled.cost,
                estimate=compiled.estimate,
                weights=compiled.weights,
                preferences=compiled.preferences,
                evaluator=self,
                scenario=spec,
                columns=columns,
                column=len(contexts),
                shared=shared,
                lowered=compiled.lowering(key),
                plans=plans,
            )
            contexts.append(ctx)
            columns.append(weakref.proxy(ctx))
        return contexts

    def _checks(self, contexts: Sequence[EvalContext]) -> List[List[ConstraintCheck]]:
        """Every constraint of the problem under every context, in stack order."""
        constraints = self.problem.constraints
        return [[constraint.check(ctx) for constraint in constraints] for ctx in contexts]

    @staticmethod
    def _aggregate(
        tensor: np.ndarray,
        scenario_set: Optional[Sequence[ScenarioSpec]],
        aggregator: Optional[RobustAggregator],
    ) -> np.ndarray:
        """Collapse an ``(S, P)`` tensor: the identity on the classic single pass."""
        if scenario_set is None:
            return tensor[0]
        weights = np.asarray([spec.weight for spec in scenario_set], dtype=np.float64)
        return aggregator.combine(tensor, weights)

    def _score_matrix(
        self,
        matrix: np.ndarray,
        components: Sequence[str],
        plans: Sequence[MigrationPlan],
        scenario_set: Optional[Sequence[ScenarioSpec]],
        aggregator: Optional[RobustAggregator],
    ) -> List[PlanQuality]:
        """Score distinct, uncached plans over the S scenario columns (S = 1 without a set).

        Builds K per-objective ``(S, P)`` tensors — one ``score_matrix`` call per
        objective and one ``check`` per constraint per context; the built-in plugins
        answer all S contexts from one stacked pass per call (the first context's
        call computes every scenario's row, the plan-level dedup and the compiled
        replays shared) — and collapses each with ``aggregator``.  Without a
        scenario set the one column is the baseline spec's, which aggregates by
        identity and attaches no per-scenario breakdown.  A plan is
        feasible iff it is feasible under every pass; violation strings are
        materialized lazily, only for infeasible rows, and prefixed with the
        scenario name when S > 1.  Results are bitwise identical to
        :meth:`evaluate_reference`.  The caller counts the plans in ``evaluations``.
        """
        objectives = self.problem.objectives
        names = self.problem.objective_names
        contexts = self._contexts(matrix, components, scenario_set)
        n_scenarios, n_plans = len(contexts), matrix.shape[0]
        scores = [
            np.empty((n_scenarios, n_plans), dtype=np.float64) for _ in objectives
        ]
        for index, ctx in enumerate(contexts):
            for k, objective in enumerate(objectives):
                scores[k][index] = objective.minimized(
                    np.asarray(objective.score_matrix(ctx), dtype=np.float64)
                )
        checks = self._checks(contexts)
        # Lower the tensors and masks to Python scalars once: the per-row loop below
        # runs for every distinct plan of a generation, so per-element ndarray
        # indexing would dominate the small-K dispatch budget.
        def rows(columns) -> List[Tuple[float, ...]]:
            return list(zip(*(column.tolist() for column in columns)))

        values = rows(
            self._aggregate(tensor, scenario_set, aggregator) for tensor in scores
        )
        feasible = [
            self._feasible_from_checks(passed, n_plans).tolist() for passed in checks
        ]
        breakdown: Optional[List[List[Tuple[float, ...]]]] = None
        if scenario_set is not None:
            self.scenario_evaluations += n_scenarios * n_plans
            breakdown = [
                rows(tensor[index] for tensor in scores) for index in range(n_scenarios)
            ]
        qualities: List[PlanQuality] = []
        for row, plan in enumerate(plans):
            feasible_all = True
            violations: List[str] = []
            per_scenario: List[ScenarioQuality] = []
            for index, ctx in enumerate(contexts):
                ok = feasible[index][row]
                found: Tuple[str, ...] = ()
                if not ok:
                    feasible_all = False
                    found = tuple(self._materialize_row(checks[index], row))
                    violations.extend(self._labelled(found, ctx, n_scenarios))
                if breakdown is not None:
                    per_scenario.append(
                        ScenarioQuality(
                            scenario=ctx.scenario.name,
                            values=breakdown[index][row],
                            names=names,
                            feasible=ok,
                            violations=found,
                        )
                    )
            qualities.append(
                PlanQuality(
                    plan=plan,
                    values=values[row],
                    names=names,
                    feasible=feasible_all,
                    violations=tuple(violations),
                    scenarios=tuple(per_scenario),
                )
            )
        return qualities

    @staticmethod
    def _labelled(
        violations: Sequence[str], ctx: EvalContext, n_scenarios: int
    ) -> Sequence[str]:
        """Violation strings as reported: ``[scenario]``-prefixed when S > 1."""
        if n_scenarios == 1:
            return violations
        return [f"[{ctx.scenario.name}] {violation}" for violation in violations]

    @staticmethod
    def _feasible_from_checks(
        checks: Sequence[ConstraintCheck], n_plans: int
    ) -> np.ndarray:
        violated = np.zeros(n_plans, dtype=bool)
        for check in checks:
            violated |= check.violated
        return ~violated

    @staticmethod
    def _materialize_row(checks: Sequence[ConstraintCheck], row: int) -> List[str]:
        """Violation strings of one infeasible plan, in constraint-stack order."""
        violations: List[str] = []
        for check in checks:
            if check.violated[row]:
                violations.extend(check.materialize(row))
        return violations

    # -- scenario compilation / robust scoring ----------------------------------------------
    def _scenario_pair(
        self, spec: ScenarioSpec
    ) -> Tuple[CompiledScenario, ApiPerformanceModel]:
        """``spec``'s compiled scenario and this evaluator's performance view over it,
        cached by the spec's :meth:`~repro.quality.scenarios.ScenarioSpec.identity_key`.

        The baseline spec's pair is the evaluator's own models, so a classic pass and
        a robust evaluation of the default scenario share every cache and score
        bitwise equal.  Every other spec compiles through the artifact cache when the
        evaluator has one and a content digest, and gets this evaluator's
        :meth:`~repro.quality.performance.ApiPerformanceModel.scenario_view` over its
        footprint and network (the base model itself for payload-neutral specs).
        """
        key = spec.identity_key()
        pair = self._scenario_pairs.get(key)
        if pair is None:
            if spec.is_baseline or self._artifact_cache is None or self.content_digest is None:
                compiled = compile_scenario(spec, self._base, self.estimator)
            else:
                compiled = self._artifact_cache.get_or_build(
                    ("scenario", self.content_digest, key),
                    lambda: compile_scenario(spec, self._base, self.estimator),
                )
            performance = self.performance
            if compiled is not self._base:
                performance = performance.scenario_view(
                    compiled.footprint,
                    # A faulted network can shift every API's Δ tables, so the
                    # changed-API row reuse only applies on the base network.
                    changed_apis=(
                        spec.changed_payload_apis() if compiled.network is None else None
                    ),
                    network=compiled.network,
                )
            pair = self._scenario_pairs[key] = (compiled, performance)
        return pair

    def qcost_vectors(
        self,
        vectors: Sequence[Sequence[int]],
        components: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Per-plan cost of a location matrix, scenario-aggregated over the problem's axis.

        Without a scenario set this is exactly ``cost.qcost_stack((cost,), ...)[0]``
        after canonical lowering (the affinity-NSGA-II baseline's cost objective);
        with one, each plan's per-scenario costs collapse through the problem's
        aggregator — the single-plan baselines become scenario-robust through the
        same door as the evaluators.  No result is cached.
        """
        matrix, components = self._lower(vectors, components)
        costs = np.stack(
            [
                scenario_costs(ctx)
                for ctx in self._contexts(matrix, components, self._scenarios)
            ]
        )
        return self._aggregate(costs, self._scenarios, self._aggregator)

    def splice(self, new_traces_by_api: Mapping[str, Sequence[Trace]]) -> None:
        """Incremental drift refresh: install re-profiled traces for the named APIs.

        K APIs recompile, the rest keep everything: the performance model installs
        the named APIs' traces and purges their compiled state (see
        :meth:`~repro.quality.performance.ApiPerformanceModel.splice`), stale
        results are dropped, but the compiled *scenarios* and their views survive — a
        scenario's estimate/footprint/cost/weights never depend on trace contents,
        its performance view shares the model's compiled sets and replay caches, and
        it rebuilds a Δ table whose edge list the splice replaced on the table's next
        read — so a K-of-N API refresh pays K trace compiles instead of a
        full evaluator rebuild, while scoring bitwise-identical to one.  A splice
        that raises (unknown API, empty window) changes nothing.
        """
        self.performance.splice(new_traces_by_api)
        self._cache.clear()

    def evaluate_reference(self, plan: MigrationPlan) -> PlanQuality:
        """Per-plan reference oracle; the batched pipeline must match it bitwise.

        Objectives score through their scalar kernels (``score_plan``), constraints
        through ``violations_plan`` — the built-in plugins run the per-plan kernels
        (``qperf`` / ``qavai`` / ``qcost``), which keep no state on the models: the
        call's context holds the one ``qcost`` the QCost objective and the budget
        check share.  Always the classic single-workload stack over the base models:
        no cache, no bound scenario set.
        """
        self.evaluations += 1
        matrix = np.asarray([self._key(plan)], dtype=np.int64)
        ctx = self._contexts(matrix, self._canonical, None, plans=[plan])[0]
        values: List[float] = []
        for objective in self.problem.objectives:
            score = objective.score_plan(ctx, plan)
            values.append(float(-score if objective.sense == "max" else score))
        violations: List[str] = []
        for constraint in self.problem.constraints:
            violations.extend(constraint.violations_plan(ctx, plan))
        return PlanQuality(
            plan=plan,
            values=tuple(values),
            names=self.problem.objective_names,
            feasible=not violations,
            violations=tuple(violations),
        )

    # -- constraints -----------------------------------------------------------------------
    def is_feasible(self, plan: MigrationPlan) -> bool:
        """Whether ``plan`` satisfies every constraint (under every problem scenario)."""
        return bool(self.feasible_mask([self._key(plan)], self._canonical)[0])

    def constraint_violations(self, plan: MigrationPlan) -> List[str]:
        """Human-readable descriptions of every violated constraint of the problem.

        The strings :meth:`evaluate` reports for the plan (scenario-prefixed over a
        problem set of more than one scenario), from a constraint-only pass."""
        matrix = np.asarray([self._key(plan)], dtype=np.int64)
        contexts = self._contexts(matrix, self._canonical, self._scenarios)
        violations: List[str] = []
        for ctx, checks in zip(contexts, self._checks(contexts)):
            violations.extend(
                self._labelled(self._materialize_row(checks, 0), ctx, len(contexts))
            )
        return violations

    def feasible_mask(
        self,
        vectors: Sequence[Sequence[int]],
        components: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Per-plan feasibility of a location matrix — the batched ``is_feasible``.

        Over a problem with a scenario set a plan is feasible only if it satisfies
        the constraints under **every** scenario.  No result is cached: a budget
        check prices its plans in one stacked cost pass per call.
        """
        matrix, components = self._lower(vectors, components)
        mask = np.ones(matrix.shape[0], dtype=bool)
        for checks in self._checks(self._contexts(matrix, components, self._scenarios)):
            mask &= self._feasible_from_checks(checks, matrix.shape[0])
        return mask

    def _lower(
        self,
        vectors: Sequence[Sequence[int]],
        components: Optional[Sequence[str]],
    ) -> Tuple[np.ndarray, List[str]]:
        """Validate a vector batch and permute it into the canonical column order.

        Shared by :meth:`evaluate_vectors`, :meth:`feasible_mask` and
        :meth:`qcost_vectors` so permuted component orders hit the same caches (result
        cache, storage memo) and fail with the same explicit error on a
        mismatched component set or a location the network does not have.
        """
        components = self._columns(components)
        given = np.asarray(vectors)
        with np.errstate(invalid="ignore"):
            matrix = given.astype(np.int64, copy=False)
        if matrix.size == 0:
            matrix = matrix.reshape(0, len(components))
        if matrix.ndim != 2 or matrix.shape[1] != len(components):
            raise ValueError("vectors must form a (plans, len(components)) matrix")
        # A location is a site id: 1.5 names none (the int64 cast would read 1).
        if matrix.size and given.dtype.kind not in "iub" and (matrix != given).any():
            row, column = np.argwhere(matrix != given)[0]
            raise ValueError(
                f"non-integral location {given[row, column].item()!r} for component "
                f"{components[column]!r}"
            )
        known = self.performance.network.locations()
        plain = known == list(range(len(known)))  # ids 0..N-1: a range check decides
        if matrix.size and not (plain and 0 <= matrix.min() and matrix.max() < len(known)):
            unknown = np.argwhere(~np.isin(matrix, known))
            if unknown.size:
                row, column = unknown[0]
                raise ValueError(
                    f"unknown location {int(matrix[row, column])} for component "
                    f"{components[column]!r} (network locations: {known})"
                )
        if tuple(components) != self._canonical:
            if set(components) != set(self._canonical):
                raise ValueError(
                    "vector components do not match the evaluator's component set"
                )
            column_of = {c: i for i, c in enumerate(components)}
            matrix = matrix[:, [column_of[c] for c in self._canonical]]
            components = list(self._canonical)
        return matrix, components

    # -- convenience -----------------------------------------------------------------------
    def _columns(self, components: Optional[Sequence[str]]) -> List[str]:
        if components is not None:
            return list(components)
        if self._component_order is not None:
            return list(self._component_order)
        return self.cost.baseline_plan.components

    @property
    def api_weights(self) -> Dict[str, float]:
        return dict(self._weights)

    def cache_size(self) -> int:
        """Distinct plans in the result cache."""
        return len(self._cache)

    def evaluated_qualities(self) -> List[PlanQuality]:
        """Every distinct plan evaluated through this evaluator, in evaluation order.

        Over a problem with a scenario set, these are the robust qualities — each
        carrying its per-scenario breakdown; :meth:`evaluate_under` probes are not
        among them."""
        return list(self._cache.values())
