"""Declarative placement problems: the pluggable objective/constraint stack.

The paper scores plans on exactly three hardcoded objectives — QPerf, QAvai, QCost —
and that triple used to be baked into every layer of the advisor.  This module turns
the objective/constraint surface into a plugin API:

* :class:`Objective` — one quality aspect, scored *vectorized* over a ``(plans,
  components)`` location matrix (``score_matrix``) with an optional scalar override
  (``score_plan``, the per-plan reference oracle).  ``sense`` declares whether the raw
  score is minimized or maximized; the evaluator stores the *minimized* view so every
  optimizer keeps treating all objectives uniformly.
* :class:`Constraint` — one feasibility condition, evaluated as a vectorized violation
  mask (``check``) whose human-readable violation strings are materialized lazily,
  only for infeasible plans.
* :class:`PlacementProblem` — a frozen bundle of objectives + constraints + scenario
  set + robust aggregator + owner preferences: the declarative front door of
  ``Atlas.recommend(problem=...)``.  :meth:`PlacementProblem.default` is the paper's
  exact three-objective stack; appending plugins (``with_objectives``) widens the
  Pareto search to K dimensions with zero optimizer changes.

The three paper objectives and all four constraint families (pins, allowed-location
whitelists, on-prem peaks, budget) are themselves built-in plugins over the batched
kernels (``qperf_stack`` / ``qavai_stack`` / ``qcost_stack`` and the constraint mask
passes), each run once per call for every scenario through
:meth:`EvalContext.stacked` — a classic call is the stack of one — so
the default problem is *byte-identical* to the hardcoded pipeline it
replaced — fixed-seed GA / NSGA-II / random-search fingerprints are unchanged
(enforced by ``tests/test_problem.py``).

Two shipped plugins prove the API beyond the paper's triple:
:class:`EgressTrafficObjective` (cross-location bytes from the learned network
footprints) and :class:`MigrationChurnObjective` (components moved vs. a baseline
plan).  See ``examples/custom_objective.py`` for an end-to-end K=4 recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..cluster.placement import MigrationPlan
from ..cluster.topology import ON_PREM
from .cost import _CostStack, _grouped
from .preferences import MigrationPreferences
from .scenarios import RobustAggregator, ScenarioSet, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (evaluator imports us)
    from ..learning.estimator import ResourceEstimate
    from .availability import ApiAvailabilityModel
    from .cost import CloudCostModel
    from .evaluator import QualityEvaluator
    from .performance import ApiPerformanceModel

__all__ = [
    "EvalContext",
    "Objective",
    "Constraint",
    "ConstraintCheck",
    "PlacementProblem",
    "QPerfObjective",
    "QAvaiObjective",
    "QCostObjective",
    "EgressTrafficObjective",
    "MigrationChurnObjective",
    "PinnedPlacementConstraint",
    "AllowedLocationsConstraint",
    "OnPremPeakConstraint",
    "BudgetConstraint",
]

#: Resources checked against the on-prem limits (metric name -> estimator resource key).
ONPREM_RESOURCES = {
    "cpu_millicores": "cpu_millicores",
    "memory_mb": "memory_mb",
    "storage_gb": "storage_gb",
}

_BYTES_PER_GB = 1e9


@dataclass
class EvalContext:
    """Everything one objective/constraint evaluation sees.

    ``matrix`` is the ``(plans, len(components))`` integer location matrix in the
    evaluator's canonical component order.  The model fields are *scenario-resolved*:
    ``scenario``'s compiled performance view, availability model, derived cost model,
    resource estimate, τ_A weights and preferences.  A classic pass is the baseline
    spec's column, whose models are the evaluator's own.

    ``shared`` spans *all scenarios* of one evaluation call: it holds the call-wide
    stacks of :meth:`stacked`, which is how objectives and constraints hand each other
    intermediate arrays (the QCost objective and the budget constraint read one cost
    stack, so each plan's cost is computed exactly once per evaluation).

    ``columns`` are the call's contexts, one per scenario in scenario order (weak
    proxies, valid while the call runs), and ``column`` is this context's index among
    them.  ``lowered`` is the scenario's memo for the call's component order
    (:meth:`~repro.quality.scenarios.CompiledScenario.lowering`): what the built-in
    plugins read of it that no plan changes, built on first use (:meth:`once`).

    ``plans`` is set only on the scalar reference path: a one-row matrix plus the
    corresponding :class:`MigrationPlan` (``plans[0]``) for plugins that override
    ``score_plan`` / ``violations_plan`` with true per-plan kernels.
    """

    matrix: np.ndarray
    components: List[str]
    performance: "ApiPerformanceModel"
    availability: "ApiAvailabilityModel"
    cost: "CloudCostModel"
    estimate: "ResourceEstimate"
    weights: Dict[str, float]
    preferences: MigrationPreferences
    evaluator: "QualityEvaluator"
    scenario: ScenarioSpec
    columns: Sequence["EvalContext"]
    column: int
    shared: Dict
    lowered: Dict[str, object]
    plans: Optional[Sequence[MigrationPlan]] = None

    @property
    def n_plans(self) -> int:
        return int(self.matrix.shape[0])

    def stacked(self, key: str, compute: Callable[[Sequence], Sequence]):
        """This context's entry of a call-wide stack, computed once per call.

        The first context of the call to ask runs ``compute(columns)`` — one entry
        per scenario column, typically an ``(S, plans)`` array — and parks it in
        ``shared[key]``; every later context reads its own entry.  How the built-in
        plugins do each kernel's scenario-invariant work once per call while the
        :class:`Objective` / :class:`Constraint` protocol stays one call per context.
        """
        stack = self.shared.get(key)
        if stack is None:
            stack = self.shared[key] = compute(self.columns)
        return stack[self.column]

    def once(self, name: str, build: Callable[["EvalContext"], object]):
        """``build(self)``, computed once per compiled scenario and component order.

        For inputs that depend on neither the plans nor the call: a call pays only
        a lookup, and the first call pays what the plugin computed every call
        before, so a one-shot probe pays no more."""
        value = self.lowered.get(name)
        if value is None:
            value = self.lowered[name] = build(self)
        return value

    def column_of(self) -> Dict[str, int]:
        if "column_of" not in self.shared:  # every context of a call has these columns
            self.shared["column_of"] = {c: i for i, c in enumerate(self.components)}
        return self.shared["column_of"]


def _plugin_repr(plugin: object, head: str) -> str:
    """``Name(<head>, <attribute>=<repr>, ...)``: a plugin's class-level identity plus
    its instance attributes, so a request key describing a problem describes every
    parameter its plugins score with.  A plugin without any keeps ``Name(<head>)``."""
    attributes = "".join(f", {name}={value!r}" for name, value in vars(plugin).items())
    return f"{type(plugin).__name__}({head}{attributes})"


class Objective:
    """One quality aspect of a placement plan (lower is better when ``sense='min'``).

    Subclasses implement :meth:`score_matrix` — the vectorized scoring over the shared
    P×C location-matrix context — and may override :meth:`score_plan` with a scalar
    kernel (the per-plan reference oracle; the default lowers the plan onto a one-row
    matrix, so batched and scalar scoring agree bitwise by construction).

    Certification (:class:`~repro.quality.adversary.ScenarioAdversary`) assumes the
    minimized score never decreases as any one severity knob of a scenario (rate,
    payload, link latency or bandwidth, prices, capacity) moves toward its bound at
    a fixed outage choice, so that the worst case sits on an all-severe corner.  The
    built-ins hold it (``tests/test_faults.py::TestFaultMonotonicity``); a plugin
    that scores the placement alone holds it trivially.
    """

    #: Stable identifier; also the objective's column name in results.
    name: str = "objective"
    #: ``"min"`` (default) or ``"max"`` — the evaluator stores ``-score`` for
    #: maximized objectives so the optimizers minimize everything uniformly.
    sense: str = "min"

    def score_matrix(self, ctx: EvalContext) -> np.ndarray:
        """Raw scores of every plan row: a ``(plans,)`` float array."""
        raise NotImplementedError

    def score_plan(self, ctx: EvalContext, plan: MigrationPlan) -> float:
        """Raw score of one plan (scalar oracle); default delegates to the matrix."""
        return float(self.score_matrix(ctx)[0])

    def minimized(self, scores: np.ndarray) -> np.ndarray:
        """The minimized view of raw scores (negated for maximized objectives)."""
        if self.sense == "max":
            return -scores
        return scores

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if getattr(cls, "sense", "min") not in ("min", "max"):
            raise ValueError(f"{cls.__name__}.sense must be 'min' or 'max'")

    def __repr__(self) -> str:
        return _plugin_repr(self, f"name={self.name!r}, sense={self.sense!r}")


@dataclass
class ConstraintCheck:
    """Vectorized outcome of one constraint over a plan matrix.

    ``violated`` is a boolean ``(plans,)`` mask (True = the plan breaks this
    constraint); ``materialize(row)`` builds the human-readable violation strings of
    one row lazily — the evaluator only calls it for infeasible plans.
    """

    violated: np.ndarray
    materialize: Callable[[int], List[str]]

    @classmethod
    def satisfied(cls, n_plans: int) -> "ConstraintCheck":
        """A no-op check: nothing violated, nothing to materialize."""
        return cls(np.zeros(n_plans, dtype=bool), lambda row: [])


class Constraint:
    """One feasibility condition of the placement problem (Eq. 4 family).

    Subclasses implement :meth:`check` (vectorized mask + lazy violation strings) and
    may override :meth:`violations_plan` with a scalar kernel; the default lowers the
    plan onto a one-row matrix so the mask and the materialized strings agree by
    construction (the "mask ⇔ violations" law of ``tests/test_problem.py``).

    Certification assumes a plan never regains feasibility as any one severity knob
    of a scenario moves toward its bound at a fixed outage choice — the
    :class:`Objective` contract, for the feasibility mask.
    """

    name: str = "constraint"

    def check(self, ctx: EvalContext) -> ConstraintCheck:
        raise NotImplementedError

    def violations_plan(self, ctx: EvalContext, plan: MigrationPlan) -> List[str]:
        result = self.check(ctx)
        if bool(result.violated[0]):
            return result.materialize(0)
        return []

    def __repr__(self) -> str:
        return _plugin_repr(self, f"name={self.name!r}")


# ---------------------------------------------------------------------------
# Built-in objectives (the paper's triple)
# ---------------------------------------------------------------------------


def _per_object(columns: Sequence, attribute: str, compute: Callable) -> List:
    """``compute(column)`` once per distinct ``column.<attribute>`` (for the first
    column holding it), one entry per column.

    The grouping rule of every stacked built-in: scenarios share a computation
    exactly when it reads the same object (a faulted spec's derived preferences or
    availability model is a different object, so it is never merged by value)."""
    entries: List = [None] * len(columns)
    for _value, indices in _grouped([getattr(column, attribute) for column in columns]):
        result = compute(columns[indices[0]])
        for index in indices:
            entries[index] = result
    return entries


def _admissible_box(ctx: EvalContext) -> Tuple[Tuple[int, ...], ...]:
    """QPerf's admissible box: per column, the sites ``ctx``'s pins and whitelists
    allow among those its performance view's network links."""
    locations = ctx.performance.network.locations()
    return ctx.preferences.admissible_box(ctx.components, locations)


def _qperf_weights(ctx: EvalContext) -> np.ndarray:
    """``ctx``'s τ_A in its performance view's API order."""
    return ctx.performance.weight_vector(ctx.weights)


def _qavai_weights(ctx: EvalContext) -> np.ndarray:
    """``ctx``'s τ_A over its availability model's APIs with stateful components."""
    model = ctx.availability
    return model.weight_vector(ctx.weights, model._lowering(ctx.components)[0])


def _pins(ctx: EvalContext) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """``ctx``'s pins as matrix columns, their locations and the pinned names."""
    pins = ctx.preferences.pinned_placement
    column_of = ctx.column_of()
    return (
        np.asarray([column_of[component] for component in pins], dtype=np.intp),
        np.asarray(list(pins.values()), dtype=np.int64),
        list(pins),
    )


def _onprem_limits(ctx: EvalContext) -> List[Tuple[str, str, float]]:
    """``(resource, estimator key, limit)`` of every on-prem limit ``ctx`` declares."""

    def build(ctx: EvalContext) -> List[Tuple[str, str, float]]:
        limits = []
        for resource, estimator_key in ONPREM_RESOURCES.items():
            limit = ctx.preferences.onprem_limit(resource)
            if limit is not None:
                limits.append((resource, estimator_key, limit))
        return limits

    return ctx.once("onprem-limits", build)


def _site_pass(ctx: EvalContext) -> Tuple["_CostStack", List[np.ndarray]]:
    """The call's cost stack and its one site pass, run by whichever of QCost and
    the on-prem peak constraint asks first: every billable site of every scenario's
    cost model and, when the problem checks on-prem peaks, the on-prem site over
    every scenario estimate's limited resources
    (:class:`~repro.quality.cost._CostStack`)."""

    def run(columns: Sequence) -> List:
        reads: List[Tuple["ResourceEstimate", str]] = []
        constraints = ctx.evaluator.problem.constraints
        if any(isinstance(check, OnPremPeakConstraint) for check in constraints):
            for column in columns:
                limits = _onprem_limits(column)
                reads.extend((column.estimate, key) for _resource, key, _limit in limits)
        stack = _CostStack.of(
            [column.cost for column in columns], tuple(ctx.components), reads
        )
        return [(stack, stack.sites.aggregate(ctx.matrix))] * len(columns)

    return ctx.stacked("sites", run)


def scenario_costs(ctx: EvalContext) -> np.ndarray:
    """QCost of ``ctx``'s scenario, from one :meth:`~repro.quality.cost.CloudCostModel.qcost_stack`
    pass over every scenario's cost model of the call (the QCost objective, the
    budget constraint and ``QualityEvaluator.qcost_vectors`` all read it), its
    compute term from the call's site pass (:func:`_site_pass`)."""

    def run(columns: Sequence) -> np.ndarray:
        stack, sums = _site_pass(ctx)
        return stack.qcost([column.cost for column in columns], ctx.matrix, sums)

    return ctx.stacked("qcost", run)


def _plan_cost(ctx: EvalContext, plan: MigrationPlan) -> float:
    """QCost of the scalar oracle's one plan, computed once per evaluation: the QCost
    objective and the budget constraint read one entry of the call's ``shared``,
    under a key of its own so the oracle never reads the batched kernel's value."""
    return ctx.stacked("qcost-plan", lambda columns: [ctx.cost.qcost(plan)])


class QPerfObjective(Objective):
    """Expected API slowdown (Eq. 1): weighted mean impact factor over all APIs.

    Batched scoring reuses the compiled-replay kernel: one impact matrix per distinct
    performance view of the call (payload-neutral scenarios share the base view's),
    all of them from one :meth:`~repro.quality.performance.ApiPerformanceModel.impact_matrices`
    pass that replays each API's distinct Δ rows once, then every scenario's τ_A
    weights in one API-ordered sum
    (:meth:`~repro.quality.performance.ApiPerformanceModel.qperf_stack`).
    """

    name = "qperf"

    def score_matrix(self, ctx: EvalContext) -> np.ndarray:
        return ctx.stacked(
            "qperf",
            lambda columns: ctx.performance.qperf_stack(
                self._impacts(ctx, columns),
                [column.once("qperf-weights", _qperf_weights) for column in columns],
            ),
        )

    @staticmethod
    def _impacts(ctx: EvalContext, columns: Sequence) -> List[np.ndarray]:
        """One impact matrix per column: one per distinct view, each over the
        admissible box of the first column that reads the view, from one pass of the
        evaluator's model over them all."""
        first: Dict[int, object] = {}  # view id -> the first column reading the view
        for column in columns:
            first.setdefault(id(column.performance), column)
        matrices = ctx.evaluator.performance.impact_matrices(
            ctx.matrix,
            ctx.components,
            [
                (column.performance, column.once("qperf-box", _admissible_box))
                for column in first.values()
            ],
        )
        impacts = dict(zip(first, matrices))
        return [impacts[id(column.performance)] for column in columns]

    def score_plan(self, ctx: EvalContext, plan: MigrationPlan) -> float:
        return ctx.performance.qperf(plan, ctx.weights)


class QAvaiObjective(Objective):
    """Expected availability disruption (Eq. 3): weighted count of disrupted APIs.

    One disruption pass per distinct availability model of the call, weighted by
    each of its scenarios' τ_A vectors in one API-ordered sum
    (:meth:`~repro.quality.availability.ApiAvailabilityModel.qavai_stack`).
    """

    name = "qavai"

    def score_matrix(self, ctx: EvalContext) -> np.ndarray:
        return ctx.stacked("qavai", lambda columns: self._stack(ctx, columns))

    @staticmethod
    def _stack(ctx: EvalContext, columns: Sequence) -> np.ndarray:
        totals = np.empty((len(columns), ctx.n_plans), dtype=np.float64)
        for model, rows in _grouped([column.availability for column in columns]):
            totals[rows] = model.qavai_stack(
                model.disruption_matrix(ctx.matrix, ctx.components),
                [columns[row].once("qavai-weights", _qavai_weights) for row in rows],
            )
        return totals

    def score_plan(self, ctx: EvalContext, plan: MigrationPlan) -> float:
        return ctx.availability.qavai(plan, ctx.weights)


class QCostObjective(Objective):
    """Cloud hosting cost in USD over the period of interest (Eq. 11).

    One stacked cost pass per call (:func:`scenario_costs`), which the budget
    constraint reads too; the scalar oracle is ``qcost``, once per evaluation
    (:func:`_plan_cost`).
    """

    name = "qcost"

    def score_matrix(self, ctx: EvalContext) -> np.ndarray:
        return scenario_costs(ctx)

    def score_plan(self, ctx: EvalContext, plan: MigrationPlan) -> float:
        return _plan_cost(ctx, plan)


# ---------------------------------------------------------------------------
# Shipped extra objectives (beyond the paper's triple)
# ---------------------------------------------------------------------------


class EgressTrafficObjective(Objective):
    """Cross-location traffic volume in GB over the period of interest.

    The raw bytes of Eq. 10 *before* pricing: the learned per-API edge footprints
    scaled by the expected request counts, summed over every invocation edge whose
    caller and callee sit at different locations.  Unlike QCost's traffic term this
    is price-free, so it stays meaningful for topologies where egress is unbilled
    (e.g. on-prem ↔ edge links) and lets the owner trade raw data movement against
    the three paper objectives.  Reuses the cost model's lowered edge arrays.
    """

    name = "egress_gb"

    def score_matrix(self, ctx: EvalContext) -> np.ndarray:
        lowering = ctx.cost._lowering(ctx.components)
        if lowering.src_cols.size == 0 or ctx.n_plans == 0:
            return np.zeros(ctx.n_plans, dtype=np.float64)
        crossing = ctx.matrix[:, lowering.src_cols] != ctx.matrix[:, lowering.dst_cols]
        return crossing @ (lowering.total_bytes / _BYTES_PER_GB)


class MigrationChurnObjective(Objective):
    """Number of components a plan moves away from a baseline placement.

    ``baseline`` defaults to the evaluator's baseline plan (the currently executed
    placement), so minimizing this objective prefers recommendations that disturb the
    running system least — the re-migration cost axis of incremental rounds.
    """

    name = "migration_churn"

    def __init__(self, baseline: Optional[MigrationPlan] = None) -> None:
        self.baseline = baseline

    def _baseline_row(self, ctx: EvalContext) -> np.ndarray:
        baseline = self.baseline or ctx.cost.baseline_plan
        return np.asarray([baseline[c] for c in ctx.components], dtype=np.int64)

    def score_matrix(self, ctx: EvalContext) -> np.ndarray:
        moved = ctx.matrix != self._baseline_row(ctx)
        return moved.sum(axis=1).astype(np.float64)


# ---------------------------------------------------------------------------
# Built-in constraints (Eq. 4)
# ---------------------------------------------------------------------------


class PinnedPlacementConstraint(Constraint):
    """Owner-pinned components must stay at their pinned location."""

    name = "pinned-placement"

    def check(self, ctx: EvalContext) -> ConstraintCheck:
        return ctx.stacked(
            "pins",
            lambda columns: _per_object(
                columns,
                "preferences",
                lambda column: self._check(ctx, column.once("pins", _pins)),
            ),
        )

    @staticmethod
    def _check(
        ctx: EvalContext, pins: Tuple[np.ndarray, np.ndarray, List[str]]
    ) -> ConstraintCheck:
        columns, locations, names = pins
        if not names:
            return ConstraintCheck.satisfied(ctx.n_plans)
        moved = ctx.matrix[:, columns] != locations

        def materialize(row: int) -> List[str]:
            return [
                f"component {component} must stay at location {location}"
                for component, location, off in zip(names, locations.tolist(), moved[row])
                if off
            ]

        return ConstraintCheck(moved.any(axis=1), materialize)

    def violations_plan(self, ctx: EvalContext, plan: MigrationPlan) -> List[str]:
        return [
            f"component {component} must stay at location "
            f"{ctx.preferences.pinned_placement[component]}"
            for component in ctx.preferences.pin_violations(plan)
        ]


class AllowedLocationsConstraint(Constraint):
    """Per-component location whitelists (on-prem is always permitted)."""

    name = "allowed-locations"

    def check(self, ctx: EvalContext) -> ConstraintCheck:
        return ctx.stacked(
            "whitelists",
            lambda columns: _per_object(
                columns, "preferences", lambda column: self._check(ctx, column.preferences)
            ),
        )

    @staticmethod
    def _check(ctx: EvalContext, preferences: MigrationPreferences) -> ConstraintCheck:
        allowed_locations = preferences.allowed_locations
        if not allowed_locations:
            return ConstraintCheck.satisfied(ctx.n_plans)
        column_of = ctx.column_of()
        matrix = ctx.matrix
        size = int(matrix.max()) + 1 if matrix.size else 1
        entries: List[Tuple[str, Tuple[int, ...], np.ndarray, np.ndarray]] = []
        violated = np.zeros(ctx.n_plans, dtype=bool)
        for component, allowed in allowed_locations.items():
            column = column_of.get(component)
            if column is None:
                continue
            permitted = np.zeros(size, dtype=bool)
            permitted[ON_PREM] = True
            for location in allowed:
                if location < size:
                    permitted[location] = True
            placements = matrix[:, column]
            mask = ~permitted[placements]
            entries.append((component, tuple(allowed), mask, placements))
            violated |= mask

        def materialize(row: int) -> List[str]:
            return [
                f"component {component} may not run at location "
                f"{int(placements[row])} (allowed locations: {list(allowed)})"
                for component, allowed, mask, placements in entries
                if mask[row]
            ]

        return ConstraintCheck(violated, materialize)

    def violations_plan(self, ctx: EvalContext, plan: MigrationPlan) -> List[str]:
        return [
            f"component {component} may not run at location {plan[component]} "
            f"(allowed locations: {list(ctx.preferences.allowed_locations[component])})"
            for component in ctx.preferences.location_violations(plan)
        ]


class OnPremPeakConstraint(Constraint):
    """The on-prem cluster's configured resource limits must cover the peak demand.

    Reads the scenario-resolved resource estimate, so robust evaluation checks each
    scenario's own demand series against its own limits — every peak from the
    call's one site pass (:func:`_site_pass`), which QCost's compute term shares.
    """

    name = "onprem-peaks"

    def check(self, ctx: EvalContext) -> ConstraintCheck:
        return ctx.stacked("onprem-peaks", lambda columns: self._checks(ctx, columns))

    @classmethod
    def _checks(cls, ctx: EvalContext, columns: Sequence) -> List[ConstraintCheck]:
        stack, sums = _site_pass(ctx)
        return [
            cls._check(
                [
                    (resource, limit, stack.peaks(sums, column.estimate, key))
                    for resource, key, limit in _onprem_limits(column)
                ],
                ctx.n_plans,
            )
            for column in columns
        ]

    @staticmethod
    def _check(
        entries: Sequence[Tuple[str, float, np.ndarray]], n_plans: int
    ) -> ConstraintCheck:
        if not entries:
            return ConstraintCheck.satisfied(n_plans)
        violated = np.zeros(n_plans, dtype=bool)
        for _resource, limit, peak in entries:
            violated |= peak > limit

        def materialize(row: int) -> List[str]:
            return [
                f"on-prem {resource} peak {peak[row]:.0f} exceeds limit {limit:.0f}"
                for resource, limit, peak in entries
                if peak[row] > limit
            ]

        return ConstraintCheck(violated, materialize)

    def violations_plan(self, ctx: EvalContext, plan: MigrationPlan) -> List[str]:
        violations: List[str] = []
        onprem_components = plan.components_at(ON_PREM)
        for resource, estimator_key in ONPREM_RESOURCES.items():
            limit = ctx.preferences.onprem_limit(resource)
            if limit is None:
                continue
            peak = ctx.estimate.peak(estimator_key, onprem_components)
            if peak > limit:
                violations.append(
                    f"on-prem {resource} peak {peak:.0f} exceeds limit {limit:.0f}"
                )
        return violations


class BudgetConstraint(Constraint):
    """The plan's cloud cost must not exceed the owner's budget.

    Reads the call's stacked cost pass (:func:`scenario_costs`): the one the QCost
    objective ran when the problem scores costs anyway, or on constraint-only passes
    (``feasible_mask``) one it drives itself.  The scalar oracle reads the same
    ``qcost`` the QCost objective scored (:func:`_plan_cost`).
    """

    name = "budget"

    def check(self, ctx: EvalContext) -> ConstraintCheck:
        budget = ctx.preferences.budget_usd
        if budget == float("inf"):
            return ConstraintCheck.satisfied(ctx.n_plans)
        cost = scenario_costs(ctx)
        over = cost > budget

        def materialize(row: int) -> List[str]:
            if not over[row]:
                return []
            return [
                f"cost {float(cost[row]):.2f} USD exceeds budget {budget:.2f} USD"
            ]

        return ConstraintCheck(over, materialize)

    def violations_plan(self, ctx: EvalContext, plan: MigrationPlan) -> List[str]:
        budget = ctx.preferences.budget_usd
        if budget == float("inf"):
            return []
        cost = _plan_cost(ctx, plan)
        if cost > budget:
            return [f"cost {cost:.2f} USD exceeds budget {budget:.2f} USD"]
        return []


# ---------------------------------------------------------------------------
# The declarative problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlacementProblem:
    """A frozen placement problem: what to optimize, subject to what, over which futures.

    ``objectives`` define the K axes of the Pareto search (order fixes the result
    columns), ``constraints`` the feasibility conditions, ``scenarios`` +
    ``aggregator`` the optional robust axis (the evaluator binds them at
    construction), and ``preferences`` the owner preferences the built-in constraint
    plugins read (``None`` adopts the evaluator's).  Problems are immutable; derive
    variants with :meth:`with_objectives` / :meth:`with_constraints` /
    :meth:`with_scenarios`.
    """

    objectives: Tuple[Objective, ...]
    constraints: Tuple[Constraint, ...]
    scenarios: Optional[ScenarioSet] = None
    aggregator: Optional[RobustAggregator] = None
    preferences: Optional[MigrationPreferences] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "objectives", tuple(self.objectives))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.objectives:
            raise ValueError("a placement problem needs at least one objective")
        names = [objective.name for objective in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"objective names must be unique, got {names}")
        if self.aggregator is not None and self.scenarios is None:
            raise ValueError(
                "aggregator only applies to scenario-robust problems; "
                "set scenarios as well"
            )
        if self.scenarios is not None:
            object.__setattr__(self, "scenarios", ScenarioSet.coerce(self.scenarios))

    # -- introspection ---------------------------------------------------------------------
    @property
    def K(self) -> int:
        """Number of objectives (the dimensionality of the Pareto front)."""
        return len(self.objectives)

    @property
    def objective_names(self) -> Tuple[str, ...]:
        return tuple(objective.name for objective in self.objectives)

    def index_of(self, name: str) -> int:
        for index, objective in enumerate(self.objectives):
            if objective.name == name:
                return index
        raise KeyError(f"no objective named {name!r} in {self.objective_names}")

    # -- construction ----------------------------------------------------------------------
    @classmethod
    def default(
        cls,
        preferences: Optional[MigrationPreferences] = None,
        scenarios: Optional[
            Union[ScenarioSet, ScenarioSpec, Sequence[ScenarioSpec]]
        ] = None,
        aggregator: Optional[RobustAggregator] = None,
        extra_objectives: Sequence[Objective] = (),
        extra_constraints: Sequence[Constraint] = (),
    ) -> "PlacementProblem":
        """The paper's exact stack: QPerf + QAvai + QCost under the Eq. 4 constraints.

        ``extra_objectives`` / ``extra_constraints`` append plugins after the
        built-ins, so the default triple keeps its canonical columns 0-2.
        """
        return cls(
            objectives=(
                QPerfObjective(),
                QAvaiObjective(),
                QCostObjective(),
                *extra_objectives,
            ),
            constraints=(
                PinnedPlacementConstraint(),
                AllowedLocationsConstraint(),
                OnPremPeakConstraint(),
                BudgetConstraint(),
                *extra_constraints,
            ),
            scenarios=ScenarioSet.coerce(scenarios) if scenarios is not None else None,
            aggregator=aggregator,
            preferences=preferences,
        )

    def with_objectives(self, *objectives: Objective) -> "PlacementProblem":
        """A sibling problem with ``objectives`` appended."""
        return PlacementProblem(
            objectives=self.objectives + tuple(objectives),
            constraints=self.constraints,
            scenarios=self.scenarios,
            aggregator=self.aggregator,
            preferences=self.preferences,
        )

    def with_constraints(self, *constraints: Constraint) -> "PlacementProblem":
        """A sibling problem with ``constraints`` appended."""
        return PlacementProblem(
            objectives=self.objectives,
            constraints=self.constraints + tuple(constraints),
            scenarios=self.scenarios,
            aggregator=self.aggregator,
            preferences=self.preferences,
        )

    def with_scenarios(
        self,
        scenarios: Union[ScenarioSet, ScenarioSpec, Sequence[ScenarioSpec]],
        aggregator: Optional[RobustAggregator] = None,
    ) -> "PlacementProblem":
        """A sibling problem evaluated robustly over ``scenarios``.

        Omitting ``aggregator`` keeps the problem's existing one (the evaluator
        applies the :class:`~repro.quality.scenarios.WorstCase` default when the
        problem never had one)."""
        return PlacementProblem(
            objectives=self.objectives,
            constraints=self.constraints,
            scenarios=ScenarioSet.coerce(scenarios),
            aggregator=aggregator if aggregator is not None else self.aggregator,
            preferences=self.preferences,
        )
