"""Resource estimation (the paper's DeepRest [34] dependency).

Atlas needs, for the period of interest, the *expected* per-component resource usage
``Ũ^r_c[t]`` given the expected API traffic — to check the on-prem capacity constraint
and to price the cloud side of a plan.  The paper delegates this to DeepRest, an
API-aware deep resource estimator.  DeepRest itself is closed; we substitute a linear
API-attribution model with the same interface: it learns, from the same telemetry, how
much of each resource one request of each API costs a component, and extrapolates to any
future API traffic (including traffic scaled well beyond what was observed, which is the
hybrid-burst use case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import nnls

from ..apps.model import Application
from ..digest import sha_parts
from ..telemetry.server import TelemetryServer

__all__ = ["ResourceEstimate", "ResourceEstimator"]

#: Resources the estimator models.  Storage is taken from deployment metadata because a
#: database's on-disk size is not proportional to the instantaneous request rate.
MODELED_RESOURCES = ("cpu_millicores", "memory_mb")

#: Plans per block of :func:`ordered_masked_sum`: its temporary is a
#: ``(terms, block, ...)`` stack — 0.5 MB for 29 components x 18 steps — whatever the
#: batch size.  Internal, like the primitive: shared with ``quality.cost`` only.
PLAN_BLOCK = 128


def ordered_masked_sum(terms: "np.ndarray", mask: "np.ndarray") -> "np.ndarray":
    """Per-plan sums of the selected terms, accumulated in term order from ``+0.0``.

    ``mask`` is a ``(K, P)`` boolean selection and ``terms`` a ``(K, P, ...)`` float64
    array, or ``(K, 1, ...)`` when every plan shares the term values.  Row ``p`` of
    the ``(P, ...)`` result is bitwise what the scalar cost loops compute::

        total = 0.0
        for k in range(K):
            if mask[k, p]:
                total += terms[k, p]

    Unselected terms enter as ``+0.0``, which a running total that started at
    ``+0.0`` absorbs without changing a bit (it can never be ``-0.0``).  The order
    rests on how ``np.add.reduce`` walks memory: it adds one ``stack[k]`` slab after
    another only while the reduced axis is the outermost axis of a C-ordered stack
    with more than one element behind it — when the reduced axis *is* the contiguous
    inner loop (a transposed stack, or one plan x one step) numpy switches to
    pairwise summation and the last bits move.  Hence the term axis leads, the stack
    is allocated here, and a lone plan is padded with a second, all-zero one.

    Not part of the package's public surface (the aggregation kernels of this module
    and the batched QCost / QAvai / QPerf kernels of ``quality`` are its only
    callers): numpy does not document that walk, so ``tests/test_cost_kernels.py``
    pins it and is what a numpy upgrade has to pass.
    """
    n_terms, n_plans = mask.shape
    inner = terms.shape[2:]
    where = mask.reshape(mask.shape + (1,) * len(inner))
    out = np.empty((n_plans,) + inner, dtype=np.float64)
    for start in range(0, n_plans, PLAN_BLOCK):
        stop = min(start + PLAN_BLOCK, n_plans)
        width = stop - start
        stack = np.zeros((n_terms, max(width, 2)) + inner, dtype=np.float64)
        block = terms if terms.shape[1] == 1 else terms[:, start:stop]
        np.copyto(stack[:, :width], block, where=where[:, start:stop])
        out[start:stop] = np.add.reduce(stack, axis=0, initial=0.0)[:width]
    return out


@dataclass
class ResourceEstimate:
    """Expected per-component usage series for a period of interest.

    ``usage[resource][component]`` is a list over time steps; all series share
    ``step_ms``.
    """

    step_ms: float
    usage: Dict[str, Dict[str, List[float]]]
    api_rates: Dict[str, List[float]] = field(default_factory=dict)
    #: Lazily-built lowering of one resource onto one column order for
    #: :func:`stack_series`: the columns of the estimate's components, in storage
    #: order, their ``(components, 1, steps)`` series and the storage order's names.
    _lowerings: Dict[
        Tuple[str, Tuple[str, ...]],
        Tuple["np.ndarray", "np.ndarray", Tuple[str, ...]],
    ] = field(default_factory=dict, repr=False, compare=False)

    @property
    def steps(self) -> int:
        for per_component in self.usage.values():
            for series in per_component.values():
                return len(series)
        return 0

    def component_series(self, resource: str, component: str) -> List[float]:
        return list(self.usage.get(resource, {}).get(component, []))

    def aggregate_series(
        self, resource: str, components: Sequence[str]
    ) -> List[float]:
        """Sum of one resource over a component subset, per time step."""
        per_component = self.usage.get(resource, {})
        totals = np.zeros(
            len(next(iter(per_component.values()), ())) or self.steps, dtype=np.float64
        )
        selected = set(components)
        # Accumulate row by row (in storage order) so the per-step summation order is
        # identical to the original python loop — bit-for-bit stable results.
        for component, series in per_component.items():
            if component in selected:
                totals += series
        return totals.tolist()

    def peak(self, resource: str, components: Sequence[str]) -> float:
        series = self.aggregate_series(resource, components)
        return max(series) if series else 0.0

    def _lowering(
        self, resource: str, columns: Sequence[str]
    ) -> Tuple["np.ndarray", "np.ndarray", Tuple[str, ...]]:
        key = (resource, tuple(columns))
        lowering = self._lowerings.get(key)
        if lowering is None:
            per_component = self.usage.get(resource, {})
            steps = len(next(iter(per_component.values()))) if per_component else self.steps
            column_of = {name: i for i, name in enumerate(key[1])}
            shared = tuple(name for name in per_component if name in column_of)
            lowering = (
                np.asarray([column_of[name] for name in shared], dtype=np.intp),
                np.asarray(
                    [per_component[name] for name in shared], dtype=np.float64
                ).reshape(len(shared), 1, steps),
                shared,
            )
            self._lowerings[key] = lowering
        return lowering


def stack_series(
    estimates: Sequence[ResourceEstimate], resource: str, columns: Sequence[str]
) -> List[Tuple[List[int], "np.ndarray", "np.ndarray"]]:
    """The lowering of several estimates' series :func:`aggregate_stacked` reduces.

    One group per component storage order and step count among ``estimates``: the
    group's positions in ``estimates``, the order's columns and the group's
    ``(components, 1, estimates, steps)`` series side by side on an inner axis.
    """
    if len(estimates) == 1:
        estimate_columns, series, _order = estimates[0]._lowering(resource, columns)
        return [([0], estimate_columns, series[:, :, None])]
    lowerings = [estimate._lowering(resource, columns) for estimate in estimates]
    groups: Dict[Tuple[Tuple[str, ...], int], List[int]] = {}
    for position, (_columns, series, order) in enumerate(lowerings):
        groups.setdefault((order, series.shape[2]), []).append(position)
    return [
        (
            positions,
            lowerings[positions[0]][0],
            lowerings[positions[0]][1][:, :, None]
            if len(positions) == 1
            else np.stack([lowerings[position][1] for position in positions], axis=2),
        )
        for positions in groups.values()
    ]


def aggregate_stacked(
    stacked: Sequence[Tuple[List[int], "np.ndarray", "np.ndarray"]],
    members: "np.ndarray",
) -> "np.ndarray":
    """Reduce a :func:`stack_series` lowering over a boolean ``members`` matrix.

    ``members`` is ``(plans, len(columns))`` and selects, per plan, the components to
    sum; returns ``(plans, estimates, steps)`` (every group must hold one step
    count).  A group's estimates share one gathered selection and one
    :func:`ordered_masked_sum` in each estimate's storage order; the term axis stays
    outermost, so ``out[p, e]`` is bitwise ``estimates[e].aggregate_series`` of plan
    ``p``'s subset.
    """
    if len(stacked) == 1:
        _positions, estimate_columns, series = stacked[0]
        return ordered_masked_sum(series, members[:, estimate_columns].T)
    n_estimates = sum(len(positions) for positions, _columns, _series in stacked)
    out = np.empty(
        (members.shape[0], n_estimates, stacked[0][2].shape[3]), dtype=np.float64
    )
    for positions, estimate_columns, series in stacked:
        out[:, positions] = ordered_masked_sum(series, members[:, estimate_columns].T)
    return out


def peak_stack(
    estimates: Sequence[ResourceEstimate],
    resource: str,
    members: "np.ndarray",
    columns: Sequence[str],
) -> "np.ndarray":
    """Per-plan peaks of one resource under several estimates: ``(plans, len(estimates))``.

    ``out[p, e]`` is ``estimates[e].peak`` of plan ``p``'s subset (``0.0`` without
    steps); each :func:`stack_series` group is one :func:`ordered_masked_sum` and one
    ``max`` over its steps."""
    members = np.asarray(members, dtype=bool)
    stacked = stack_series(estimates, resource, columns)
    if len(stacked) == 1 and stacked[0][2].shape[3]:
        return aggregate_stacked(stacked, members).max(axis=2)
    peaks = np.zeros((members.shape[0], len(estimates)), dtype=np.float64)
    for positions, estimate_columns, series in stacked:
        if series.shape[3]:
            totals = ordered_masked_sum(series, members[:, estimate_columns].T)
            peaks[:, positions] = totals.max(axis=2)
    return peaks


class ResourceEstimator:
    """API-aware linear resource estimator (DeepRest substitute).

    For every component and resource it fits ``usage[t] ≈ idle + Σ_A coef_A * rate_A[t]``
    with non-negative coefficients, where ``rate_A[t]`` is the number of requests of API
    ``A`` observed in window ``t``.
    """

    #: Memo of :meth:`content_digest`; dropped by :meth:`fit`, never copied or pickled.
    _digest: Optional[str] = None
    #: Traces the telemetry held when :meth:`fit` began (``None``: never fitted).
    _fit_traces: Optional[int] = None

    def __init__(self, application: Application, telemetry: TelemetryServer) -> None:
        self.application = application
        self.telemetry = telemetry
        self._apis: List[str] = []
        # (resource, component) -> (idle, coefficients aligned with self._apis)
        self._models: Dict[Tuple[str, str], Tuple[float, np.ndarray]] = {}
        self._fitted = False

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_digest", None)
        return state

    # -- fitting --------------------------------------------------------------------------
    def fit(self) -> "ResourceEstimator":
        """Fit attribution models from the telemetry collected during application learning."""
        self._digest = None  # before the first write, so a failed fit leaves no stale memo
        self._fit_traces = len(self.telemetry.traces)  # before the read: never under-counts
        rates = self.telemetry.api_request_rates()
        if not rates:
            raise ValueError("telemetry contains no API traffic to fit on")
        self._apis = sorted(rates)
        n_windows = min(len(series) for series in rates.values())
        if n_windows < 2:
            raise ValueError("need at least two telemetry windows to fit the estimator")
        design = np.column_stack(
            [np.asarray(rates[api][:n_windows], dtype=float) for api in self._apis]
        )
        # Affine term models idle usage.
        design_affine = np.column_stack([np.ones(n_windows), design])
        windows = self.telemetry.common_windows()[:n_windows]
        for component in self.application.component_names:
            for resource in MODELED_RESOURCES:
                series = np.asarray(
                    self.telemetry.metrics.series(component, resource, windows), dtype=float
                )
                if series.size == 0 or not series.any():
                    self._models[(resource, component)] = (0.0, np.zeros(len(self._apis)))
                    continue
                coef, _residual = nnls(design_affine, series)
                self._models[(resource, component)] = (float(coef[0]), coef[1:])
        self._fitted = True
        return self

    def content_digest(self) -> str:
        """Content fingerprint of the fitted attribution models (idle + coefficients).

        Computed once per fit: :meth:`fit` is the only writer of ``_apis`` and
        ``_models``, and it drops the memo.
        """
        if self._digest is None:
            parts = [repr(self._apis)]
            for (resource, component), (idle, coef) in sorted(self._models.items()):
                parts.append(f"{resource}|{component}|{idle!r}|{coef.tobytes().hex()}")
            self._digest = sha_parts(parts)
        return self._digest

    def telemetry_grown(self) -> bool:
        """Whether the telemetry took traces after :meth:`fit` began reading it.

        :meth:`predict_scaled` reads the live request rates, so a grown store moves
        its answer while :meth:`content_digest` stays.  The trace store only appends,
        so comparing lengths is enough.
        """
        return len(self.telemetry.traces) != self._fit_traces

    @property
    def apis(self) -> List[str]:
        return list(self._apis)

    def attribution(self, resource: str, component: str) -> Dict[str, float]:
        """Per-API usage attribution coefficients for one component/resource."""
        self._require_fitted()
        _idle, coef = self._models[(resource, component)]
        return {api: float(c) for api, c in zip(self._apis, coef)}

    # -- prediction ------------------------------------------------------------------------
    def predict(
        self,
        api_rates: Mapping[str, Sequence[float]],
        step_ms: Optional[float] = None,
    ) -> ResourceEstimate:
        """Expected usage for the given per-window API request counts."""
        self._require_fitted()
        step_ms = step_ms or self.telemetry.window_ms
        if not api_rates:
            raise ValueError("api_rates must not be empty")
        steps = max(len(series) for series in api_rates.values())
        rate_matrix = np.zeros((steps, len(self._apis)))
        for col, api in enumerate(self._apis):
            series = list(api_rates.get(api, []))
            rate_matrix[: len(series), col] = series
        usage: Dict[str, Dict[str, List[float]]] = {r: {} for r in MODELED_RESOURCES}
        for (resource, component), (idle, coef) in self._models.items():
            predicted = idle + rate_matrix @ coef
            # ``max(v, 0.0)`` keeps ``v`` unless ``0.0 > v``: -0.0 and nan pass through.
            usage[resource][component] = np.where(predicted < 0.0, 0.0, predicted).tolist()
        # Storage comes from deployment metadata (GB on disk, not rate-dependent).
        usage["storage_gb"] = {
            comp.name: [comp.resources.storage_gb] * steps
            for comp in self.application.components
        }
        return ResourceEstimate(
            step_ms=step_ms,
            usage=usage,
            api_rates={api: list(series) for api, series in api_rates.items()},
        )

    def predict_scaled(self, scale: float, steps: Optional[int] = None) -> ResourceEstimate:
        """Expected usage if the observed traffic were multiplied by ``scale``.

        This is the paper's evaluation setting: "serve API traffic with 5x more users
        than ever".
        """
        if scale < 0:
            raise ValueError("scale must be non-negative")
        observed = self.telemetry.api_request_rates()
        scaled = {
            api: [v * scale for v in (series if steps is None else series[:steps])]
            for api, series in observed.items()
        }
        return self.predict(scaled)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("ResourceEstimator.fit() must be called before prediction")
