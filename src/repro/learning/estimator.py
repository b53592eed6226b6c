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

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import nnls

from ..apps.model import Application
from ..cluster.topology import require_finite
from ..digest import Memoized, sha_parts
from ..telemetry.server import TelemetryServer

__all__ = ["ResourceEstimate", "ResourceEstimator"]

#: Resources the estimator models.  Storage is taken from deployment metadata because a
#: database's on-disk size is not proportional to the instantaneous request rate.
MODELED_RESOURCES = ("cpu_millicores", "memory_mb")

#: Plans per block of :func:`ordered_masked_sum`: its temporary is a
#: ``(terms, block, ...)`` stack — 0.5 MB for 29 components x 18 steps — whatever the
#: batch size.  Internal, like the primitive: shared with ``quality.cost`` only.
PLAN_BLOCK = 128
#: Elements behind each term of one block at most (``PLAN_BLOCK`` plans x 18 steps):
#: wider terms, such as a site pass's reads side by side, take fewer plans per block
#: so the stack stays that size.
_BLOCK_ELEMENTS = PLAN_BLOCK * 18


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
    block_plans = max(1, min(PLAN_BLOCK, _BLOCK_ELEMENTS // max(1, math.prod(inner))))
    for start in range(0, n_plans, block_plans):
        stop = min(start + block_plans, n_plans)
        width = stop - start
        stack = np.zeros((n_terms, max(width, 2)) + inner, dtype=np.float64)
        block = terms if terms.shape[1] == 1 else terms[:, start:stop]
        np.copyto(stack[:, :width], block, where=where[:, start:stop])
        out[start:stop] = np.add.reduce(stack, axis=0, initial=0.0)[:width]
    return out


@dataclass
class ResourceEstimate(Memoized):
    """Expected per-component usage series for a period of interest.

    ``usage[resource][component]`` is a list over time steps; all series share
    ``step_ms``.
    """

    step_ms: float
    usage: Dict[str, Dict[str, List[float]]]
    api_rates: Dict[str, List[float]] = field(default_factory=dict)
    _MEMOS = {"_lowerings": dict}
    #: Lazily-built lowering of one resource onto one column order for
    #: :class:`SitePass`: the columns of the estimate's components, in storage
    #: order, their ``(components, 1, steps)`` series and the storage order's names.
    _lowerings: Dict[
        Tuple[str, Tuple[str, ...]],
        Tuple["np.ndarray", "np.ndarray", Tuple[str, ...]],
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

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


class SitePass:
    """Several estimates' resource series lowered for one fused site aggregation.

    ``reads`` are ``(estimate, resource)`` pairs and ``sites`` location ids:
    :meth:`aggregate` sums every read over every site's members of a plan matrix
    in one :func:`ordered_masked_sum` per group of reads that share a component
    storage order and a step count (one group on a learned estimate).  The sites'
    membership masks are concatenated on the plan axis and the group's reads sit
    side by side on an inner axis, so the term axis stays outermost and every
    entry is bitwise the scalar ``aggregate_series``.
    """

    def __init__(
        self,
        reads: Sequence[Tuple[ResourceEstimate, str]],
        sites: Sequence[int],
        columns: Sequence[str],
    ) -> None:
        self.sites = np.asarray(sites, dtype=np.int64)
        lowerings = [estimate._lowering(resource, columns) for estimate, resource in reads]
        groups: Dict[Tuple[Tuple[str, ...], int], List[int]] = {}
        for index, (_columns, series, order) in enumerate(lowerings):
            groups.setdefault((order, series.shape[2]), []).append(index)
        #: Per read, ``(group, position)``: where :meth:`aggregate` puts it.
        self.slots: List[Tuple[int, int]] = [(0, 0)] * len(reads)
        #: Per group, the estimate columns and the ``(components, 1, reads, steps)`` series.
        self.groups: List[Tuple["np.ndarray", "np.ndarray"]] = []
        for group, indices in enumerate(groups.values()):
            for position, index in enumerate(indices):
                self.slots[index] = (group, position)
            self.groups.append(
                (
                    lowerings[indices[0]][0],
                    np.stack([lowerings[index][1] for index in indices], axis=2),
                )
            )

    def aggregate(self, matrix: "np.ndarray") -> List["np.ndarray"]:
        """Per group, ``(sites, plans, reads, steps)``: entry ``[s, p, r]`` is read
        ``r``'s ``aggregate_series`` over the components plan ``p`` puts at site ``s``."""
        n_sites, n_plans = self.sites.size, matrix.shape[0]
        sums = []
        for columns, series in self.groups:
            members = matrix[:, columns].T[:, None, :] == self.sites[None, :, None]
            mask = members.reshape(len(columns), n_sites * n_plans)
            total = ordered_masked_sum(series, mask)
            sums.append(total.reshape((n_sites, n_plans) + series.shape[2:]))
        return sums

    def take(
        self, sums: Sequence["np.ndarray"], site: int, reads: Sequence[int]
    ) -> "np.ndarray":
        """``(plans, len(reads), steps)``: ``reads``' sums at ``sites[site]``."""
        slots = [self.slots[read] for read in reads]
        if len({group for group, _position in slots}) == 1:
            return sums[slots[0][0]][site][:, [position for _group, position in slots]]
        return np.stack([sums[group][site, :, at] for group, at in slots], axis=1)

    def peaks(self, sums: Sequence["np.ndarray"], site: int, read: int) -> "np.ndarray":
        """Per-plan peak of one read at ``sites[site]`` (``0.0`` without steps): the
        scalar ``peak`` of every plan's members there."""
        series = self.take(sums, site, [read])[:, 0]
        if series.shape[1] == 0:
            return np.zeros(series.shape[0], dtype=np.float64)
        return series.max(axis=1)


class ResourceEstimator(Memoized):
    """API-aware linear resource estimator (DeepRest substitute).

    For every component and resource it fits ``usage[t] ≈ idle + Σ_A coef_A * rate_A[t]``
    with non-negative coefficients, where ``rate_A[t]`` is the number of requests of API
    ``A`` observed in window ``t``.
    """

    _MEMOS = {"_digest": None}
    #: Memo of :meth:`content_digest`; dropped by :meth:`fit`.
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
        rates = [float(value) for series in api_rates.values() for value in series]
        if not np.isfinite(rates).all():
            # Every comparison with NaN is false: one NaN rate would pass every
            # on-prem peak check and price every plan at NaN.
            raise ValueError("api_rates must be finite")
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
        require_finite({"scale": scale})
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
