"""The scenario axis: first-class workload scenarios for robust plan evaluation.

The paper's advisor scores plans against *one* expected workload (the observed traffic,
possibly scaled).  Real recommendation rounds face a family of plausible futures —
bursts, API-mix shifts, payload growth — and a plan that is optimal for the observed
workload can be badly suboptimal under a forecast (the burst regret that Figure 2
motivates).  This module makes that family explicit:

* :class:`ScenarioSpec` describes one workload scenario *relative to the evaluator's
  base period of interest*: a uniform traffic multiplier (``rate_scale``), per-API
  relative mix multipliers (``api_rate_factors``, e.g. derived from
  :meth:`repro.workload.profiles.ApiMix.reweighted`), and per-API payload-size
  multipliers (``payload_factors``, the internal-drift axis of
  :class:`~repro.workload.profiles.BehaviorChange`).  :func:`compile_scenario` turns
  a spec into the artifacts the quality models bake in at construction time, a
  :class:`CompiledScenario`: a scenario
  :class:`~repro.learning.estimator.ResourceEstimate` (per-API rate series →
  autoscaler node series, storage usage, request-rate buckets), a payload-scaled
  :class:`~repro.learning.footprint.NetworkFootprint` (edge Δ tables + traffic bytes),
  the faulted models and a scenario trace-weight vector (the τ_A of QPerf/QAvai).  The
  baseline spec compiles to the base stack itself, an evaluator's own models.
* :class:`ScenarioSet` is an ordered, named collection of specs — the S axis of the
  S×P objective tensor produced by
  :meth:`repro.quality.evaluator.QualityEvaluator.evaluate_vectors`.
* :class:`RobustAggregator` collapses the scenario axis back to the scalar objectives
  the optimizers consume: :class:`WorstCase` (robust optimization's default),
  :class:`WeightedMean` (forecast-probability weighting) and :class:`CVaR`
  (conditional value-at-risk over the worst ``alpha`` tail).

Contract: aggregating a single-scenario axis is *bitwise* the identity — ``combine``
on an ``(1, P)`` tensor returns row 0 unchanged — which is what keeps robust
evaluation of the default scenario byte-identical to the classic single-workload path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..cluster.network import NetworkModel
from ..cluster.topology import require_finite
from ..learning.estimator import ResourceEstimate, ResourceEstimator
from ..learning.footprint import EdgeFootprint, NetworkFootprint
from ..workload.profiles import WorkloadScenario
from .availability import ApiAvailabilityModel
from .cost import CloudCostModel
from .faults import FaultedStack, FaultSpec
from .preferences import MigrationPreferences

__all__ = [
    "ScenarioSpec",
    "ScenarioSet",
    "ScenarioQuality",
    "RobustAggregator",
    "WorstCase",
    "WeightedMean",
    "CVaR",
    "scaled_footprint",
    "CompiledScenario",
    "compile_scenario",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One workload scenario, expressed relative to the evaluator's base workload.

    ``rate_scale`` multiplies every API's request-rate series uniformly (the paper's
    5x burst is ``rate_scale=5``).  ``api_rate_factors`` multiplies individual APIs'
    rates on top of that — the relative mix shift of an
    :meth:`~repro.workload.profiles.ApiMix.reweighted` composition drift; the same
    factors also reweight the τ_A trace weights of QPerf/QAvai so a scenario in which
    an API carries more traffic also weighs that API's slowdown and disruption more.
    ``payload_factors`` / ``payload_scale`` multiply the learned per-API network
    footprints (request+response bytes), which grows both the injected delays (Eq. 2)
    and the egress traffic bill (Eq. 10) — internal drift à la
    :class:`~repro.workload.profiles.BehaviorChange`.

    ``weight`` is the scenario's probability mass under weighted aggregators
    (:class:`WeightedMean`, :class:`CVaR`); :class:`WorstCase` ignores it.

    ``faults`` composes infrastructure faults (:mod:`repro.quality.faults`) into the
    scenario: location outages, link degradations, price shocks and capacity cuts
    compile into derived network/availability/cost/preference artifacts alongside
    the workload changes, so a faulted scenario rides the same S×P batched
    evaluation as a workload-only one.
    """

    name: str
    rate_scale: float = 1.0
    api_rate_factors: Mapping[str, float] = field(default_factory=dict)
    payload_scale: float = 1.0
    payload_factors: Mapping[str, float] = field(default_factory=dict)
    weight: float = 1.0
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        require_finite(vars(self))
        if self.rate_scale < 0:
            raise ValueError("rate_scale must be non-negative")
        if self.payload_scale <= 0:
            raise ValueError("payload_scale must be positive")
        if self.weight <= 0:
            raise ValueError("scenario weight must be positive")
        for api, factor in self.api_rate_factors.items():
            require_finite({f"rate factor for API {api!r}": factor})
            if factor < 0:
                raise ValueError(f"rate factor for API {api!r} must be non-negative")
        for api, factor in self.payload_factors.items():
            require_finite({f"payload factor for API {api!r}": factor})
            if factor <= 0:
                raise ValueError(f"payload factor for API {api!r} must be positive")
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise TypeError(f"faults must be FaultSpec instances, got {fault!r}")

    # -- derived factors -------------------------------------------------------------------
    def rate_factor(self, api: str) -> float:
        """Total request-rate multiplier of one API under this scenario."""
        return self.rate_scale * self.api_rate_factors.get(api, 1.0)

    def mix_factor(self, api: str) -> float:
        """Relative trace-weight multiplier of one API (mix shift only, not the
        uniform ``rate_scale`` — scaling all APIs alike must not inflate QPerf/QAvai)."""
        return self.api_rate_factors.get(api, 1.0)

    def payload_factor(self, api: str) -> float:
        """Network-footprint byte multiplier of one API under this scenario."""
        return self.payload_scale * self.payload_factors.get(api, 1.0)

    @property
    def changes_rates(self) -> bool:
        return self.rate_scale != 1.0 or any(
            factor != 1.0 for factor in self.api_rate_factors.values()
        )

    @property
    def changes_payloads(self) -> bool:
        return self.payload_scale != 1.0 or any(
            factor != 1.0 for factor in self.payload_factors.values()
        )

    @property
    def is_baseline(self) -> bool:
        """Whether the spec is the identity transform of the base workload."""
        return not self.changes_rates and not self.changes_payloads and not self.faults

    def with_faults(self, *faults: FaultSpec) -> "ScenarioSpec":
        """A copy with the given faults appended to this spec's fault stack."""
        return ScenarioSpec(
            name=self.name,
            rate_scale=self.rate_scale,
            api_rate_factors=dict(self.api_rate_factors),
            payload_scale=self.payload_scale,
            payload_factors=dict(self.payload_factors),
            weight=self.weight,
            faults=self.faults + tuple(faults),
        )

    def changed_payload_apis(self) -> Optional[frozenset]:
        """APIs whose footprint bytes this spec changes (``None`` = all of them)."""
        if self.payload_scale != 1.0:
            return None
        return frozenset(
            api for api, factor in self.payload_factors.items() if factor != 1.0
        )

    def compile_key(self) -> Tuple:
        """Identity of the spec's *compiled artifacts* (estimate, footprint, weights).

        Excludes ``weight``: the aggregation weight never enters the compiled
        models, so weight-only tuning must not recompile scenario contexts.  Fault
        keys are appended only when faults are present, so fault-free specs keep
        the exact pre-fault key shape (and cache identity).
        """
        key = (
            self.name,
            float(self.rate_scale),
            tuple(sorted((api, float(f)) for api, f in self.api_rate_factors.items())),
            float(self.payload_scale),
            tuple(sorted((api, float(f)) for api, f in self.payload_factors.items())),
        )
        if self.faults:
            key = key + (tuple(fault.key() for fault in self.faults),)
        return key

    def identity_key(self) -> Tuple:
        """Name-stripped compiled identity: equal keys ⇒ identical compiled artifacts.

        Two specs that differ only in ``name`` (and ``weight``) drive the exact same
        scaled estimate, scenario footprint, performance view and cost model.  The
        adversary dedups probe specs on this key, and the evaluator reuses compiled
        scenario state across it, so re-certification never recompiles a workload
        shape it has already seen under another name.
        """
        return self.compile_key()[1:]

    def key(self) -> Tuple:
        """Canonical hashable identity: the compiled identity plus the weight."""
        return self.compile_key() + (float(self.weight),)

    # -- construction ----------------------------------------------------------------------
    @classmethod
    def from_workload(
        cls,
        scenario: WorkloadScenario,
        base: WorkloadScenario,
        name: Optional[str] = None,
        weight: float = 1.0,
        at_time_ms: Optional[float] = None,
    ) -> "ScenarioSpec":
        """Compile a :class:`~repro.workload.profiles.WorkloadScenario` into a spec.

        The spec captures the scenario *relative to* ``base`` (typically the observed
        workload the evaluator was built on): ``rate_scale`` is the ratio of diurnal
        mean rates, ``api_rate_factors`` the ratio of the *effective* API-mix
        probabilities and ``payload_factors`` the ratio of the effective
        :class:`~repro.workload.profiles.BehaviorChange` payload scales — both sides
        evaluated after the composition/payload drifts active at ``at_time_ms``
        (default end of day, each on its own clock).  Taking ratios against the
        base's effective state keeps chained drift rounds from double-applying
        changes the base scenario (and the telemetry learned under it) already
        carries.
        """
        time_ms = (
            at_time_ms if at_time_ms is not None else scenario.profile.duration_ms
        )
        base_time_ms = (
            at_time_ms if at_time_ms is not None else base.profile.duration_ms
        )
        base_mean = base.profile.mean_rate()
        rate_scale = (
            scenario.profile.mean_rate() / base_mean if base_mean > 0 else 1.0
        )
        base_probs = base.mix_at(base_time_ms).probabilities()
        probs = scenario.mix_at(time_ms).probabilities()
        # Factors cover every API of the BASE mix: an API the forecast mix drops
        # (or zeroes) compiles to factor 0.0 — its traffic vanishes in the scenario
        # rather than silently staying at the observed rate.
        api_rate_factors = {}
        for api, base_probability in base_probs.items():
            if base_probability <= 0:
                continue
            factor = probs.get(api, 0.0) / base_probability
            if factor != 1.0:
                api_rate_factors[api] = factor
        payload_factors = {}
        for api in probs:
            base_scale = base.payload_scale_at(api, base_time_ms)
            factor = (
                scenario.payload_scale_at(api, time_ms) / base_scale
                if base_scale > 0
                else 1.0
            )
            if factor != 1.0:
                payload_factors[api] = factor
        return cls(
            name=name or scenario.name,
            rate_scale=rate_scale,
            api_rate_factors=api_rate_factors,
            payload_factors=payload_factors,
            weight=weight,
        )


@dataclass(frozen=True)
class ScenarioSet:
    """An ordered, uniquely-named collection of scenarios — the S axis."""

    scenarios: Tuple[ScenarioSpec, ...]

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("a scenario set needs at least one scenario")
        names = [spec.name for spec in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario names must be unique, got {names}")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self.scenarios)

    def __getitem__(self, index: int) -> ScenarioSpec:
        return self.scenarios[index]

    @property
    def names(self) -> List[str]:
        return [spec.name for spec in self.scenarios]

    # -- construction ----------------------------------------------------------------------
    @classmethod
    def baseline(cls, name: str = "baseline") -> "ScenarioSet":
        """The single default scenario: the evaluator's base workload, unchanged."""
        return cls((ScenarioSpec(name=name),))

    @classmethod
    def coerce(
        cls, scenarios: Union["ScenarioSet", ScenarioSpec, Sequence[ScenarioSpec]]
    ) -> "ScenarioSet":
        """Accept a set, a single spec, or any sequence of specs."""
        if isinstance(scenarios, cls):
            return scenarios
        if isinstance(scenarios, ScenarioSpec):
            return cls((scenarios,))
        return cls(tuple(scenarios))

    @classmethod
    def with_bursts(
        cls,
        scales: Sequence[float],
        baseline_name: str = "observed",
        weight: float = 1.0,
        include_baseline: bool = True,
    ) -> "ScenarioSet":
        """Baseline plus one uniform burst scenario per scale factor."""
        specs = [ScenarioSpec(name=baseline_name)] if include_baseline else []
        for scale in scales:
            specs.append(
                ScenarioSpec(name=f"burst-x{scale:g}", rate_scale=scale, weight=weight)
            )
        return cls(tuple(specs))


class ObjectiveVector:
    """Read accessors over a result's ``values`` / ``names`` pair.

    Shared by :class:`ScenarioQuality` and
    :class:`~repro.quality.evaluator.PlanQuality`: ``values`` holds the K minimized
    objective values in the problem's column order, ``names`` their labels.
    ``perf`` / ``avail`` / ``cost`` are the paper-triple view of that vector —
    looked up by objective name (``qperf`` / ``qavai`` / ``qcost``), positionally
    (columns 0-2) for problems that replace the built-ins, NaN past the end.
    """

    def objectives(self) -> Tuple[float, ...]:
        """The K-vector of minimized objective values (the paper's triple by default)."""
        return self.values

    def value(self, name: str) -> float:
        """One objective value by name (e.g. ``quality.value("egress_gb")``)."""
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            raise KeyError(f"no objective named {name!r} in {self.names}") from None

    def _triple(self, name: str, position: int) -> float:
        if name in self.names:
            return self.values[self.names.index(name)]
        return self.values[position] if position < len(self.values) else float("nan")

    perf = property(lambda self: self._triple("qperf", 0))
    avail = property(lambda self: self._triple("qavai", 1))
    cost = property(lambda self: self._triple("qcost", 2))

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Results pickled before store frame version 3 kept the triple as fields and
        # left ``values`` unset on the default problem; there is no reader for that.
        if state.get("values") is None:
            raise TypeError(f"{type(self).__name__} pickled without 'values'")
        # Key by key, as pickle itself would: ``__dict__.update`` leaves every loaded
        # result with a private key table (+45% bytes per object in a revived journal).
        attributes = self.__dict__
        for name, value in state.items():
            attributes[name] = value


@dataclass(frozen=True)
class ScenarioQuality(ObjectiveVector):
    """Quality of one plan under one scenario (one S-slice of the objective tensor)."""

    scenario: str
    values: Tuple[float, ...]
    names: Tuple[str, ...]
    feasible: bool
    violations: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Robust aggregators
# ---------------------------------------------------------------------------


class RobustAggregator:
    """Collapses an ``(S, P)`` objective tensor slice to a ``(P,)`` scalar objective.

    Contract (enforced by the property suite in ``tests/test_scenarios.py``):

    * **identity on S=1** — ``combine`` of a single-scenario tensor returns row 0
      bitwise unchanged, whatever the weights;
    * **monotone** — raising any entry never lowers the aggregate;
    * **bounded** — the aggregate lies within ``[min, max]`` over the scenario axis.
    """

    name: str = "aggregator"

    def key(self) -> Tuple:
        """Hashable identity: the name, then the parameters ``repr`` prints."""
        return (self.name,)

    def combine(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}{self.key()[1:]}"


class WorstCase(RobustAggregator):
    """Classic robust optimization: score each plan by its worst scenario."""

    name = "worst-case"

    def combine(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        if values.shape[0] == 1:
            return values[0]
        return values.max(axis=0)


class WeightedMean(RobustAggregator):
    """Forecast-probability weighting: the expected objective over the scenario set."""

    name = "weighted-mean"

    def combine(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        if values.shape[0] == 1:
            return values[0]
        return (values * weights[:, None]).sum(axis=0) / weights.sum()


class CVaR(RobustAggregator):
    """Conditional value-at-risk: the expected objective over the worst ``alpha`` tail.

    **Alpha convention.** ``alpha`` in ``(0, 1]`` is the *tail mass*: the fraction
    of total scenario probability the aggregate averages over, cut from the worst
    (largest-objective) end of the scenario axis with the boundary scenario counted
    fractionally.  The boundary laws are exact, not just asymptotic:

    * ``alpha == 1.0`` **is** :class:`WeightedMean` — the tail covers every
      scenario, and ``combine`` computes the identical weighted-mean expression,
      so the results agree bitwise on any tensor.
    * ``alpha → 0⁺`` **is** :class:`WorstCase` — once the tail mass fits entirely
      inside each column's worst scenario (``alpha * Σw ≤ min_s w_s`` suffices),
      the fractional average collapses to that scenario's exact value (``max``
      over the axis, bitwise), with no ``(v·t)/t`` round-trip.

    Scenario weights are the probability masses the tail is cut from.
    """

    name = "cvar"

    def __init__(self, alpha: float = 0.25) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)

    def key(self) -> Tuple:
        return (self.name, self.alpha)

    def combine(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        if values.shape[0] == 1:
            return values[0]
        if self.alpha == 1.0:
            # Boundary law: the full-mass tail IS the weighted mean (bitwise).
            return (values * weights[:, None]).sum(axis=0) / weights.sum()
        order = np.argsort(-values, axis=0, kind="stable")
        sorted_values = np.take_along_axis(values, order, axis=0)
        sorted_weights = weights[order]
        tail_mass = self.alpha * weights.sum()
        consumed_before = np.cumsum(sorted_weights, axis=0) - sorted_weights
        used = np.clip(tail_mass - consumed_before, 0.0, sorted_weights)
        combined = (sorted_values * used).sum(axis=0) / tail_mass
        # Boundary law: a tail that never spills past a column's worst scenario is
        # exactly that scenario's value — return it without the (v*t)/t round-trip
        # so CVaR(alpha→0⁺) matches WorstCase bitwise (WorstCase's own ``max``
        # expression: a stable sort and ``max`` may pick different zeros of a
        # +0.0/-0.0 tie).
        within_worst = tail_mass <= sorted_weights[0]
        if np.any(within_worst):
            combined = np.where(within_worst, values.max(axis=0), combined)
        return combined


# ---------------------------------------------------------------------------
# Scenario compilation
# ---------------------------------------------------------------------------


def scaled_footprint(footprint: NetworkFootprint, spec: ScenarioSpec) -> NetworkFootprint:
    """The learned footprint with the scenario's per-API payload factors applied.

    Returns ``footprint`` itself when the spec scales no payloads, so payload-neutral
    scenarios share every footprint-derived cache (edge Δ tables, replay rows) with
    the base scenario.
    """
    if not spec.changes_payloads:
        return footprint
    edges: List[EdgeFootprint] = []
    for api in footprint.apis:
        factor = spec.payload_factor(api)
        for (source, destination), edge in footprint.edges_of(api).items():
            edges.append(
                EdgeFootprint(
                    api=api,
                    source=source,
                    destination=destination,
                    request_bytes=edge.request_bytes * factor,
                    response_bytes=edge.response_bytes * factor,
                )
            )
    return NetworkFootprint(edges)


@dataclass(frozen=True)
class CompiledScenario:
    """What one spec compiles to that no trace changes.

    ``estimate`` is the scenario's resource estimate (re-predicted per-API rate
    series), ``footprint`` the payload-scaled footprint, ``network`` the faulted link
    model (``None``: the base stack's), ``cost`` the derived
    :class:`~repro.quality.cost.CloudCostModel` over all of them and ``weights`` the
    scenario's τ_A trace-weight vector.  ``availability`` and ``preferences`` are the
    base objects for fault-free specs, derived (outage-weighted availability,
    evacuated/limited preferences) when the spec declares :attr:`ScenarioSpec.faults`.

    An evaluator's own models are the baseline spec's compiled scenario, the base
    stack, whose ``network`` is the base network.  Evaluators over equal content share
    every other one through an artifact cache: a splice moves traces, and nothing
    here reads one.
    """

    estimate: ResourceEstimate
    footprint: NetworkFootprint
    network: Optional[NetworkModel]
    cost: CloudCostModel
    weights: Dict[str, float]
    availability: ApiAvailabilityModel
    preferences: MigrationPreferences

    def lowering(self, components: Tuple[str, ...]) -> Dict[str, object]:
        """The memo of what a scoring call reads of this scenario under one component
        order and no plan changes (the built-in plugins' boxes, weight vectors and
        limits), filled lazily by its readers.  Never pickled: a stored scenario
        keeps its layout, and a loaded one lowers again on first use."""
        lowerings = self.__dict__.get("_lowerings")
        if lowerings is None:
            lowerings = {}
            object.__setattr__(self, "_lowerings", lowerings)
        memo = lowerings.get(components)
        if memo is None:
            memo = lowerings[components] = {}
        return memo

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_lowerings", None)
        return state


def compile_scenario(
    spec: ScenarioSpec,
    base: CompiledScenario,
    estimator: Optional[ResourceEstimator],
) -> CompiledScenario:
    """Compile ``spec`` against the base stack ``base``; a baseline spec is ``base``.

    Any other spec gets a scenario resource estimate (its per-API rate series
    re-predicted through ``estimator``, the fitted estimator ``base.estimate`` came
    from), one payload-scaled footprint, the faulted network / availability / catalog /
    preference artifacts (through :class:`~repro.quality.faults.FaultedStack`), the
    derived cost model and the scenario τ_A weights.

    A factor map naming an API the base stack does not know raises ``ValueError``:
    the factors are looked up per known API, so a typo'd name would otherwise
    silently no-op and leave the scenario weaker than its author intended.
    """
    referenced = set(spec.api_rate_factors) | set(spec.payload_factors)
    known = set(base.weights) | set(base.estimate.api_rates)
    unknown = sorted(referenced - known)
    if unknown:
        raise ValueError(
            f"scenario {spec.name!r} references unknown APIs {unknown}; "
            f"known APIs are {sorted(known)}"
        )
    if spec.is_baseline:
        return base
    estimate = base.estimate
    if spec.changes_rates:
        if estimator is None:
            raise ValueError(
                f"scenario {spec.name!r} changes request rates; construct the "
                "evaluator with estimator=... (the fitted ResourceEstimator) to "
                "compile scenario resource estimates"
            )
        if not estimate.api_rates:
            raise ValueError(
                "the base resource estimate has no per-API rate series to scale"
            )
        rates = {
            api: [value * spec.rate_factor(api) for value in series]
            for api, series in estimate.api_rates.items()
        }
        estimate = estimator.predict(rates, step_ms=estimate.step_ms)
    network = None
    availability = base.availability
    preferences = base.preferences
    catalogs = None
    if spec.faults:
        stack = FaultedStack(
            network=base.network,
            availability=base.availability,
            catalogs=dict(base.cost.catalogs),
            preferences=base.preferences,
            locations=tuple(base.network.locations()),
        )
        for fault in spec.faults:
            fault.apply(stack)
        if stack.network is not base.network:
            network = stack.network
        availability = stack.availability
        preferences = stack.preferences
        if stack.catalogs_changed:
            catalogs = stack.catalogs
    footprint = scaled_footprint(base.footprint, spec)
    return CompiledScenario(
        estimate=estimate,
        footprint=footprint,
        network=network,
        cost=base.cost.derive(
            estimate=estimate,
            footprint=(
                footprint
                if base.cost.footprint is base.footprint
                else scaled_footprint(base.cost.footprint, spec)
            ),
            catalogs=catalogs,
        ),
        weights={
            api: weight * spec.mix_factor(api) for api, weight in base.weights.items()
        },
        availability=availability,
        preferences=preferences,
    )
