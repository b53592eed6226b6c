"""The four workloads: set-up, two timed operations each, and their output checks.

Every workload is closed-loop with one client in one process.  A workload times
two operations, ``op`` and ``op2`` (see ``spec.OPERATIONS``), as two
:class:`Leg` objects the runner interleaves block by block.  A leg's
``prepare`` runs untimed before each operation (a fresh advisor, the next
monitoring sample), ``operation`` is what the clock brackets, and ``check``
runs untimed afterwards and returns the reasons the output is wrong (empty
when it is right).
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.testbed import Testbed
from repro.quality.problem import PlacementProblem
from repro.recommend import AdvisorService, Atlas, Recommendation
from repro.serving import AdvisorDaemon, ArtifactStore, MonitorSample

from . import inputs

#: Scenario-evaluation budget of every certificate the workloads ask for.
CERTIFY_BUDGET = 24

DRIFT_STAGES = ["poll", "drift", "splice", "recertify", "recommend"]
QUIET_STAGES = ["poll", "drift"]


def _nothing(index: int) -> None:
    pass


@dataclass(frozen=True)
class Leg:
    """One timed operation of a workload.

    ``block`` operations run between two ``gc.collect()`` and share one estimate
    of the host's speed, so a block lasts a third of a second or more (one
    operation when an operation takes seconds).
    """

    key: str  # "op" or "op2"
    block: int
    operation: Callable[[int], object]
    check: Callable[[int, object], List[str]]
    prepare: Callable[[int], None] = _nothing


def front_payload(recommendation: Recommendation) -> List[Tuple[List[int], List[str]]]:
    """Plan vectors and repr-exact objective vectors of the recommended front."""
    return [
        (quality.plan.to_vector(), [repr(v) for v in quality.objectives()])
        for quality in recommendation.plans
    ]


def front_sha(recommendation: Recommendation) -> str:
    return hashlib.sha256(repr(front_payload(recommendation)).encode("utf-8")).hexdigest()


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def front_defects(atlas: Atlas, recommendation: Recommendation, **evaluator_kwargs) -> List[str]:
    """Why a returned front is wrong: empty, infeasible, dominated, or not reproducible.

    The last check re-scores every plan through the recursive ``reference``
    engine, built from the advisor's current knowledge, and demands bitwise-equal
    objectives: whatever engine or cache produced the front, the oracle agrees.
    """
    plans = recommendation.plans
    if not plans:
        return ["empty front"]
    defects: List[str] = []
    rows = [tuple(quality.objectives()) for quality in plans]
    if not all(quality.feasible for quality in plans):
        defects.append("front holds an infeasible plan")
    if any(_dominates(a, b) for a in rows for b in rows if a is not b):
        defects.append("front members dominate each other")
    oracle = atlas.build_evaluator(performance_engine="reference", **evaluator_kwargs)
    components = list(plans[0].plan.components)
    rescored = oracle.evaluate_vectors([q.plan.to_vector() for q in plans], components)
    if [repr(q.objectives()) for q in rescored] != [repr(row) for row in rows]:
        defects.append("front does not re-score bitwise through the reference engine")
    return defects


class PreparedMonitor:
    """The harness's monitoring plane: hands each tenant the sample prepared for it."""

    def __init__(self) -> None:
        self.samples: Dict[str, MonitorSample] = {}

    def poll(self, tenant: str, cycle: int) -> Optional[MonitorSample]:
        return self.samples.get(tenant)


class Workload:
    """Base of the workloads: a learned testbed, a scratch directory, two legs."""

    name = ""

    def __init__(
        self, testbed: Testbed, seed: int, workdir: Path, vary_searches: bool = True
    ) -> None:
        self.testbed = testbed
        self.atlas = testbed.atlas
        self.seed = seed
        self.workdir = workdir
        #: Whether every timed search of the run starts from its own GA seed.
        self.vary_searches = vary_searches
        #: The first timed ``op``'s answer (``front_hv`` and ``front_sha`` describe
        #: it) and what it was scored under.
        self.first_answer: Optional[Recommendation] = None
        self.first_kwargs: Dict[str, object] = {}
        self._verified: Dict[str, List[str]] = {}

    # -- hooks -------------------------------------------------------------------------
    def populate(self) -> None:
        """Workload-specific set-up after the testbed is learned (cold population)."""

    def warm_up(self) -> None:
        """One untimed pass so lazy imports and first-call paths are out of the way."""
        for leg in self.legs():
            leg.prepare(-1)
            leg.operation(-1)

    def legs(self) -> Tuple[Leg, Leg]:
        raise NotImplementedError

    def service_stats(self) -> List[Dict[str, Dict[str, int]]]:
        """``AdvisorService.stats()`` of every service the timed operations used."""
        return []

    def store_root(self) -> Path:
        return self.workdir / "store"

    # -- shared verification -----------------------------------------------------------
    def _check_front(
        self, atlas: Atlas, recommendation: Recommendation, kwargs: Dict[str, object]
    ) -> List[str]:
        """``front_defects``, computed once per distinct front."""
        if self.first_answer is None:
            self.first_answer = recommendation
            self.first_kwargs = dict(kwargs)
        key = front_sha(recommendation)
        if key not in self._verified:
            self._verified[key] = front_defects(atlas, recommendation, **kwargs)
        return self._verified[key]


class ColdRecommend(Workload):
    name = "cold_recommend"

    def populate(self) -> None:
        # What a freshly learned advisor must score exactly like the original.
        self.probe_plans = inputs.reference_vectors(self.testbed, self.seed, count=8)
        self.learned_scores = self._probe_scores(self.atlas)

    def evaluator_kwargs(self) -> Dict[str, object]:
        return {"expected_scale": self.testbed.expected_scale}

    def _recommend(self, ga_config) -> Recommendation:
        return self.atlas.recommend(
            expected_scale=self.testbed.expected_scale, ga_config=ga_config
        )

    def _search(self, index: int) -> Recommendation:
        # Every search of an untraced run starts from its own seed, so the run's
        # latency is the median over several search trajectories and not one's.
        # A traced run repeats one search: its traced and untraced rounds are the
        # same work, and its span counts repeat exactly for a seed.
        config = self.atlas.config.ga
        return self._recommend(
            inputs.ga_config(config, self.seed, index) if self.vary_searches else config
        )

    def _probe_scores(self, atlas: Atlas) -> List[str]:
        evaluator = atlas.build_evaluator(expected_scale=self.testbed.expected_scale)
        scored = evaluator.evaluate_vectors(
            self.probe_plans, self.testbed.application.component_names
        )
        return [repr(quality.objectives()) for quality in scored]

    def warm_up(self) -> None:
        # A search 8x smaller walks the same code; the timed ones start warm.
        self._recommend(inputs.warm_up_ga(self.atlas.config.ga))
        self._learn(-1)

    def _learn(self, index: int) -> Atlas:
        return inputs.fresh_atlas(self.testbed)

    def _check_recommend(self, index: int, result: Recommendation) -> List[str]:
        return self._check_front(self.atlas, result, self.evaluator_kwargs())

    def _check_learn(self, index: int, atlas: Atlas) -> List[str]:
        if self._probe_scores(atlas) != self.learned_scores:
            return ["a re-learned advisor scores plans differently"]
        return []

    def legs(self) -> Tuple[Leg, Leg]:
        return (
            Leg("op", 1, self._search, self._check_recommend),
            Leg("op2", 24, self._learn, self._check_learn),
        )


class RobustRecommend(ColdRecommend):
    name = "robust_recommend"

    def populate(self) -> None:
        super().populate()
        self.problem = PlacementProblem.default(
            self.testbed.preferences, scenarios=inputs.scenario_set()
        )

    def evaluator_kwargs(self) -> Dict[str, object]:
        return {"expected_scale": 1.0, "problem": self.problem}

    def _recommend(self, ga_config) -> Recommendation:
        return self.atlas.recommend(
            expected_scale=1.0,
            problem=self.problem,
            certify=CERTIFY_BUDGET,
            ga_config=ga_config,
        )


class WarmServing(Workload):
    name = "warm_serving"

    def populate(self) -> None:
        self._service = AdvisorService(store=ArtifactStore(self.store_root()))
        self.schedule = inputs.request_schedule(self.seed)
        self.tenants: List[Tuple[str, float]] = []
        self.cold: Dict[float, List] = {}
        for scale in inputs.TENANT_SCALES:
            tenant = f"tenant-x{scale:g}"
            self._service.register(tenant, inputs.fresh_atlas(self.testbed))
            self.tenants.append((tenant, scale))
            self.cold[scale] = front_payload(
                self._service.recommend(tenant, expected_scale=scale)
            )
        # Content-equal advisors no tenant is registered with: requests carrying
        # one are answered by fingerprint, not by name.
        self.strangers = [inputs.fresh_atlas(self.testbed) for _ in range(2)]
        self.restart_scale = inputs.TENANT_SCALES[-1]
        self._restarted: List[Dict[str, Dict[str, int]]] = []

    def service_stats(self) -> List[Dict[str, Dict[str, int]]]:
        return [self._service.stats()] + self._restarted

    # -- op: a request to the long-lived service --------------------------------------
    def _prepare_request(self, index: int) -> None:
        tenant_index, by_fingerprint = self.schedule[index % len(self.schedule)]
        tenant, self._scale = self.tenants[tenant_index]
        self._who = self.strangers[index % len(self.strangers)] if by_fingerprint else tenant

    def _request(self, index: int) -> Recommendation:
        return self._service.recommend(self._who, expected_scale=self._scale)

    def _check_request(self, index: int, result: Recommendation) -> List[str]:
        if front_payload(result) != self.cold[self._scale]:
            return ["warm answer differs from the cold answer"]
        return self._check_front(self.atlas, result, {"expected_scale": self._scale})

    # -- op2: a restarted process over the same store ---------------------------------
    def _prepare_restart(self, index: int) -> None:
        # Nothing in memory survives a restart: the advisor is learned again, and
        # the previous restart's garbage is not this one's to collect (billed to
        # it, the restart is bimodal, 50 or 90 ms).
        self._restart_atlas = inputs.fresh_atlas(self.testbed)
        gc.collect()

    def _restart(self, index: int):
        service = AdvisorService(store=ArtifactStore(self.store_root()))
        answer = service.recommend(self._restart_atlas, expected_scale=self.restart_scale)
        answer.latency_preview(answer.knee_point().plan)
        return answer, service

    def _check_restart(self, index: int, result) -> List[str]:
        answer, service = result
        stats = service.stats()
        self._restarted.append(stats)
        defects = list(
            self._check_front(
                self._restart_atlas, answer, {"expected_scale": self.restart_scale}
            )
        )
        if front_payload(answer) != self.cold[self.restart_scale]:
            defects.append("revived answer differs from the cold answer")
        if stats["journal"] != {"hits": 1, "misses": 0}:
            defects.append("restart searched instead of reviving from the journal")
        if not stats["artifacts"]["store_hits"]:
            defects.append("restart preview recompiled instead of loading from the store")
        return defects

    def legs(self) -> Tuple[Leg, Leg]:
        return (
            Leg("op", 300, self._request, self._check_request, self._prepare_request),
            Leg("op2", 6, self._restart, self._check_restart, self._prepare_restart),
        )


class DaemonDrift(Workload):
    """A store-backed service with a cold answer every tenant bootstraps from."""

    name = "daemon_drift"

    def populate(self) -> None:
        self.kwargs = dict(
            expected_scale=self.testbed.expected_scale, certify=CERTIFY_BUDGET
        )
        self._service = AdvisorService(store=ArtifactStore(self.store_root()))
        self.monitor = PreparedMonitor()
        self.scenario = self.testbed.scenario
        self.bystander = inputs.fresh_atlas(self.testbed)
        self._service.recommend(self.bystander, **self.kwargs)

        originals = self.atlas.knowledge.api_profiles
        self.target = sorted(originals)[0]
        self.original_traces = list(originals[self.target].sample_traces)

        # The daemon of the quiet cycles: two tenants, both on model for good.
        steady = {
            "steady-a": inputs.fresh_atlas(self.testbed),
            "steady-b": self.bystander,
        }
        self.quiet_daemon = self._bootstrap("quiet", steady)
        for tenant in steady:
            self.monitor.samples[tenant] = inputs.on_model_sample(
                self._measured(self.quiet_daemon, tenant), self.scenario
            )

    def service_stats(self) -> List[Dict[str, Dict[str, int]]]:
        return [self._service.stats()]

    def warm_up(self) -> None:
        # populate ran the search and the certificate already
        self.quiet_daemon.run_cycle()

    def _bootstrap(self, name: str, tenants: Dict[str, Atlas]) -> AdvisorDaemon:
        """A daemon whose tenants have just executed the (memoised) cold answer.

        The bootstrap sample is the advisor's own preview of that answer, so the
        drift baselines start at zero divergence.
        """
        daemon = AdvisorDaemon(
            self._service, self.monitor, name=name, certify_budget=CERTIFY_BUDGET
        )
        for tenant, atlas in tenants.items():
            daemon.register(tenant, atlas, **self.kwargs)
            live = self._service.recommend(atlas, **self.kwargs)
            preview = {
                api: [float(x) for x in estimate.estimated_latencies_ms]
                for api, estimate in live.latency_preview(live.knee_point().plan).items()
            }
            self.monitor.samples[tenant] = inputs.on_model_sample(preview, self.scenario)
        daemon.run_cycle()
        return daemon

    def _measured(self, daemon: AdvisorDaemon, tenant: str) -> Dict[str, List[float]]:
        """What the monitoring plane last measured for ``tenant`` (its drift baseline)."""
        return daemon.record(tenant)["detector"]["real"]

    # -- op: the cycle in which one tenant drifts -------------------------------------
    def _prepare_drift(self, index: int) -> None:
        # Each round a newly onboarded tenant drifts: its advisor is content-equal
        # to the cold answer's, so onboarding is a memo hit, and the re-profiled
        # window differs per round, so every re-recommend is a new search.
        self.drifter = inputs.fresh_atlas(self.testbed)
        self.drift_daemon = self._bootstrap(
            f"drift-{index}", {"drifter": self.drifter, "bystander": self.bystander}
        )
        self.monitor.samples["drifter"] = inputs.drifted_sample(
            self._measured(self.drift_daemon, "drifter"),
            self.original_traces,
            self.target,
            inputs.drift_factor(self.seed, index),
            self.scenario,
        )
        self.monitor.samples["bystander"] = inputs.on_model_sample(
            self._measured(self.drift_daemon, "bystander"), self.scenario
        )

    def _drift_cycle(self, index: int):
        return self.drift_daemon.run_cycle()

    def _check_drift(self, index: int, reports) -> List[str]:
        by_tenant = {report.tenant: report for report in reports}
        drifter, bystander = by_tenant["drifter"], by_tenant["bystander"]
        defects: List[str] = []
        if drifter.stages != DRIFT_STAGES or drifter.error or not drifter.recertified:
            defects.append(f"drift round ran {drifter.stages} ({drifter.error})")
        if drifter.spliced != [self.target]:
            defects.append(f"spliced {drifter.spliced}, expected {[self.target]}")
        if bystander.stages != QUIET_STAGES or bystander.drifted:
            defects.append(f"on-model tenant ran {bystander.stages}")
        if defects:
            return defects
        answer = self._service.recommend(self.drifter, **self.kwargs)
        # The daemon digests a front exactly like front_sha (same payload, same hash).
        if drifter.front_sha != front_sha(answer):
            defects.append("the daemon's front is not the one the service now serves")
        return defects + self._check_front(
            self.drifter, answer, {"expected_scale": self.testbed.expected_scale}
        )

    # -- op2: the cycle in which nobody drifts ----------------------------------------
    def _quiet_cycle(self, index: int):
        return self.quiet_daemon.run_cycle()

    def _check_quiet(self, index: int, reports) -> List[str]:
        return [
            f"{report.tenant} ran {report.stages} ({report.error})"
            for report in reports
            if report.stages != QUIET_STAGES or report.drifted or report.error
        ]

    def legs(self) -> Tuple[Leg, Leg]:
        return (
            Leg("op", 1, self._drift_cycle, self._check_drift, self._prepare_drift),
            Leg("op2", 40, self._quiet_cycle, self._check_quiet),
        )


WORKLOADS = {
    cls.name: cls for cls in (ColdRecommend, RobustRecommend, WarmServing, DaemonDrift)
}
