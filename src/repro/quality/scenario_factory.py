"""Scenario factory: named stress families and forecast-weighted scenario sets.

Hand-authoring :class:`~repro.quality.scenarios.ScenarioSpec`s covers the futures the
owner thought of; the factory generates the ones every placement review should check.
:class:`ScenarioFactory` derives, from an evaluator's learned artifacts (API rate
series, locations, billable sites), a portfolio of named stress families:

* **flash crowd** — a uniform traffic burst (the paper's Thanksgiving spike);
* **regional outage** — one :class:`~repro.quality.faults.LocationOutage` scenario
  per remote site;
* **egress price shock** — the provider repricing cross-site traffic
  (:class:`~repro.quality.faults.PriceShock`);
* **payload inflation** — uniform payload growth (internal drift);
* **API-mix inversion** — today's cold APIs become hot and vice versa, with factors
  chosen to preserve total traffic volume.

:meth:`ScenarioFactory.seasonal` additionally decomposes the observed rate series
into quantile bands — each band becomes a scenario whose weight is the fraction of
time the workload spends there, the forecast-probability input
:class:`~repro.quality.scenarios.WeightedMean` / :class:`~repro.quality.scenarios.CVaR`
aggregate over.

The adversarial certifier (:mod:`repro.quality.adversary`) always scores the
families, so a certificate's worst-case spec is never weaker than any of them.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster.topology import ON_PREM
from .faults import LocationOutage, PriceShock
from .scenarios import ScenarioSet, ScenarioSpec

__all__ = ["ScenarioFactory"]


class ScenarioFactory:
    """Generates named stress families from learned workload + topology artifacts."""

    def __init__(
        self,
        locations: Sequence[int],
        api_rates: Mapping[str, Sequence[float]],
        baseline_name: str = "observed",
    ) -> None:
        """``locations`` is the topology's location-id list (on-prem first by
        convention); ``api_rates`` the observed per-API request-rate series the
        mix/seasonal families are derived from."""
        self.locations = tuple(int(loc) for loc in locations)
        self.api_rates = {api: list(series) for api, series in api_rates.items()}
        self.baseline_name = baseline_name

    @classmethod
    def from_evaluator(
        cls,
        evaluator,
        locations: Optional[Sequence[int]] = None,
        baseline_name: str = "observed",
    ) -> "ScenarioFactory":
        """Derive a factory from a :class:`~repro.quality.evaluator.QualityEvaluator`."""
        if locations is None:
            locations = evaluator.performance.network.locations()
        return cls(
            locations=locations,
            api_rates=evaluator.estimate.api_rates,
            baseline_name=baseline_name,
        )

    # -- derived workload statistics ---------------------------------------------------------
    @property
    def remote_locations(self) -> Tuple[int, ...]:
        return tuple(loc for loc in self.locations if loc != ON_PREM)

    def api_shares(self) -> Dict[str, float]:
        """Each API's share of total observed traffic (empty when nothing observed)."""
        totals = {api: float(sum(series)) for api, series in self.api_rates.items()}
        grand_total = sum(totals.values())
        if grand_total <= 0:
            return {}
        return {api: total / grand_total for api, total in totals.items()}

    def total_rate_series(self) -> List[float]:
        """The observed total request-rate series (elementwise API sum)."""
        series_list = [series for series in self.api_rates.values() if series]
        if not series_list:
            return []
        steps = min(len(series) for series in series_list)
        return [
            sum(series[step] for series in series_list) for step in range(steps)
        ]

    # -- stress families ----------------------------------------------------------------------
    def flash_crowd(self, scale: float = 3.0, weight: float = 1.0) -> ScenarioSpec:
        """A uniform traffic burst (the paper's seasonal-spike motivation)."""
        return ScenarioSpec(
            name=f"flash-crowd-x{scale:g}", rate_scale=scale, weight=weight
        )

    def regional_outages(
        self, weight: float = 1.0, **fault_kwargs
    ) -> List[ScenarioSpec]:
        """One :class:`~repro.quality.faults.LocationOutage` scenario per remote site."""
        return [
            ScenarioSpec(
                name=f"outage-loc{location}",
                weight=weight,
                faults=(LocationOutage(location, **fault_kwargs),),
            )
            for location in self.remote_locations
        ]

    def egress_price_shock(
        self, factor: float = 2.0, weight: float = 1.0
    ) -> ScenarioSpec:
        """The provider multiplying every region's egress price by ``factor``."""
        return ScenarioSpec(
            name=f"egress-shock-x{factor:g}",
            weight=weight,
            faults=(PriceShock(egress_factor=factor),),
        )

    def payload_inflation(
        self, factor: float = 2.0, weight: float = 1.0
    ) -> ScenarioSpec:
        """Uniform payload growth — internal drift inflating every API's footprint."""
        return ScenarioSpec(
            name=f"payload-x{factor:g}", payload_scale=factor, weight=weight
        )

    def api_mix_inversion(self, weight: float = 1.0) -> Optional[ScenarioSpec]:
        """Cold APIs become hot and vice versa, preserving total traffic volume.

        Each API's rate factor is ``mean_share / share`` — the inverse-share tilt,
        normalized so the expected total request volume matches the observed one
        (``Σ share·factor = 1``).  Returns ``None`` when shares are unavailable or
        the mix is a single API (inversion is the identity there).
        """
        shares = self.api_shares()
        positive = {api: share for api, share in shares.items() if share > 0}
        if len(positive) < 2:
            return None
        mean_share = sum(positive.values()) / len(positive)
        factors = {api: mean_share / share for api, share in positive.items()}
        if all(abs(factor - 1.0) < 1e-12 for factor in factors.values()):
            return None
        return ScenarioSpec(
            name="api-mix-inversion", api_rate_factors=factors, weight=weight
        )

    def stress_families(
        self,
        include_baseline: bool = True,
        flash_crowd_scale: float = 3.0,
        payload_factor: float = 2.0,
        egress_factor: float = 2.0,
    ) -> ScenarioSet:
        """The full portfolio of named stress families as one scenario set."""
        specs: List[ScenarioSpec] = []
        if include_baseline:
            specs.append(ScenarioSpec(name=self.baseline_name))
        specs.append(self.flash_crowd(flash_crowd_scale))
        specs.extend(self.regional_outages())
        specs.append(self.egress_price_shock(egress_factor))
        specs.append(self.payload_inflation(payload_factor))
        inversion = self.api_mix_inversion()
        if inversion is not None:
            specs.append(inversion)
        return ScenarioSet(tuple(specs))

    # -- seasonal decomposition -----------------------------------------------------------------
    def seasonal(
        self,
        series: Optional[Sequence[float]] = None,
        bands: int = 3,
    ) -> ScenarioSet:
        """Decompose an observed rate series into forecast-weighted rate bands.

        The series (default: the observed total request rate) is split into
        ``bands`` equal-occupancy quantile bands; each non-empty band becomes a
        scenario whose ``rate_scale`` is the band's mean rate relative to the
        overall mean and whose ``weight`` is the fraction of time steps falling in
        the band.  Weights sum to 1, which makes the set the natural input for
        :class:`~repro.quality.scenarios.WeightedMean` (the expected objective over
        the seasonal profile) and :class:`~repro.quality.scenarios.CVaR` (the peak
        tail).
        """
        if bands < 1:
            raise ValueError("bands must be >= 1")
        values = [float(v) for v in (series if series is not None else self.total_rate_series())]
        if not values:
            raise ValueError("seasonal decomposition needs a non-empty rate series")
        overall_mean = sum(values) / len(values)
        if overall_mean <= 0:
            raise ValueError("seasonal decomposition needs a positive mean rate")
        ranked = sorted(values)
        specs: List[ScenarioSpec] = []
        steps = len(ranked)
        for band in range(bands):
            lo = band * steps // bands
            hi = (band + 1) * steps // bands
            members = ranked[lo:hi]
            if not members:
                continue
            band_mean = sum(members) / len(members)
            specs.append(
                ScenarioSpec(
                    name=f"season-{band + 1}of{bands}",
                    rate_scale=band_mean / overall_mean,
                    weight=len(members) / steps,
                )
            )
        return ScenarioSet(tuple(specs))
