"""The continuous re-planning loop as a restartable, checkpointed service.

The paper's serving story is a loop, not a function call: after a plan is
executed, Atlas keeps polling the monitoring plane, checks the measured latency
distributions for drift, splices re-profiled traces into its learned state,
re-certifies the executed plan and — when the footprints are outdated — runs a
fresh recommendation round.  :class:`AdvisorDaemon` is that loop as a scheduled
service over an :class:`~repro.recommend.advisor.AdvisorService`:

* **Stage machine** — each tenant's cycle advances through
  ``poll -> drift -> splice -> recertify -> recommend -> done``; every decision
  a later stage builds on is checkpointed to the service's durable store as
  that tenant's own document (cycle index, stage, executed plan vector, the
  digests naming its drift baselines and crossover agent).  The protocol is
  *decide, then persist what a resume would read*: polling publishes nothing,
  the drift check runs on the in-memory sample, a quiet verdict publishes the
  one document that closes the cycle, and a drift verdict publishes the polled
  sample first and then the document that records it.  What a stage writes is
  what that tenant changed: the baselines are one store object per
  recommendation, written before the checkpoint that names them, and no
  checkpoint carries another tenant's state.
* **Restartability** — a sample that shaped a published decision is on disk
  before that decision and is never polled again; a cycle that left no document
  may be polled again.  A daemon killed mid-cycle resumes from the checkpoint on
  restart: an in-flight cycle replays its remaining stages from the *persisted*
  sample, every stage is idempotent and deterministic given that sample, and
  the re-recommend lands on the service's request memo / durable journal — so
  the resumed run's answers are bitwise-identical to an uninterrupted run, and
  the compiled world is recovered from the artifact store instead of rebuilt.
* **The agent is learned once** — a drift cycle's splice stage installs the
  crossover agent of the tenant's previous answer next to the re-profiled
  traces, so the re-recommend breeds with it instead of training a new one.
  The checkpoint names that agent by content digest and the service keeps it
  as one store object per distinct agent, which is how a resumed process uses
  the agent the killed one would have.
* **A re-plan starts from the front it served** — the same stage installs that
  answer's front as a :class:`~repro.recommend.advisor.ReplanPrior`, so the
  re-recommend seeds its search with the served plans and spends the budget the
  drift's extent earns.  The ``recommend`` stage stores each front as one
  ``("daemon-front", front_sha)`` object before the document that names it; a
  lost, damaged or mislabelled object costs the re-plan its warm start, never
  its answer.

Monitors implement one method, ``poll(tenant, cycle) -> Optional[MonitorSample]``.
The cycle index is passed so scripted monitors (tests, the kill-and-restart
smoke) can be pure functions of ``(tenant, cycle)`` — a restarted process then
observes exactly the samples the killed one did.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from ..cluster.placement import MigrationPlan
from ..digest import sha_parts
from ..monitoring.drift import DriftDetector
from ..optimizer.drl.agent import CrossoverAgent
from ..recommend.advisor import ReplanPrior
from ..telemetry.tracing import Trace
from ..workload.profiles import WorkloadScenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..quality.adversary import RobustnessCertificate
    from ..recommend.advisor import AdvisorService, Atlas, Recommendation
    from .store import ArtifactStore

__all__ = [
    "MonitorSample",
    "ScriptedMonitor",
    "TenantCycleReport",
    "AdvisorDaemon",
]

#: Stage order of one tenant cycle (``drift``..``recertify`` are skipped while
#: bootstrapping, i.e. before a first recommendation established baselines).
STAGES = ("poll", "drift", "splice", "recertify", "recommend", "done")

#: What one tenant's bad input raises out of a stage — a ``nan`` in a latency
#: window (``ValueError``), a malformed sample (``LookupError``, ``TypeError``,
#: ``ArithmeticError``), a monitor or disk that fails (``OSError``).  These cost
#: that tenant its cycle; anything else is a defect of the loop and propagates.
TENANT_FAILURES = (ArithmeticError, LookupError, OSError, TypeError, ValueError)


@dataclass
class MonitorSample:
    """One observation window from the monitoring plane for one tenant.

    ``recent_latencies`` are the per-API latency samples measured since the last
    cycle (what drift is judged on); ``traces_by_api`` optionally carries the
    re-profiled trace window per API (the splice payload); ``scenario`` the
    workload description the tenant currently runs under (enables
    recertification against a drift-refreshed scenario).
    """

    recent_latencies: Dict[str, List[float]]
    traces_by_api: Dict[str, List[Trace]] = field(default_factory=dict)
    scenario: Optional[WorkloadScenario] = None


class ScriptedMonitor:
    """Deterministic monitor: a fixed sample per ``(tenant, cycle)`` position.

    ``samples[tenant][cycle - 1]`` is returned for cycle ``cycle`` (cycles are
    1-based); positions past the script's end return ``None`` (idle).  Being a
    pure function of its arguments, a restarted process scripting the same
    samples observes exactly what the killed one did — the property the
    kill-and-restart smoke relies on.
    """

    def __init__(self, samples: Mapping[str, Sequence[Optional[MonitorSample]]]) -> None:
        self._samples = {tenant: list(seq) for tenant, seq in samples.items()}

    def poll(self, tenant: str, cycle: int) -> Optional[MonitorSample]:
        script = self._samples.get(tenant, [])
        index = cycle - 1
        if 0 <= index < len(script):
            return script[index]
        return None


@dataclass
class TenantCycleReport:
    """What one tenant's cycle did (observability; the durable record is the checkpoint)."""

    tenant: str
    cycle: int
    stages: List[str] = field(default_factory=list)
    idle: bool = False
    drifted: List[str] = field(default_factory=list)
    spliced: List[str] = field(default_factory=list)
    #: The executed plan's certificate under the drift-refreshed workload, when
    #: the ``recertify`` stage ran.
    certificate: Optional["RobustnessCertificate"] = None
    recommended: bool = False
    front_sha: Optional[str] = None
    error: Optional[str] = None
    #: The crossover agent behind this cycle's answer: ``"reused"`` (an earlier
    #: search of the tenant trained it), ``"trained"`` (the answer's own search did),
    #: ``None`` when the cycle produced no answer or the search breeds without one.
    agent: Optional[str] = None
    #: Why a drift cycle trained instead of reusing: ``"no previous answer"``,
    #: ``"agent does not fit"`` or ``"agent object lost"``.
    agent_reason: Optional[str] = None
    #: Where a drift cycle's re-plan started: ``"served front"`` (the previous
    #: answer's plans, at the budget the drift's extent earns), ``"affinity seeds"``
    #: (the full budget; ``prior_reason`` says why), ``None`` when the cycle did not
    #: re-plan after a drift.
    prior: Optional[str] = None
    #: Why the re-plan started from the affinity seeds: ``"no previous answer"``,
    #: ``"front object lost"``, ``"front object damaged"`` or ``"front object
    #: mislabelled"``.
    prior_reason: Optional[str] = None

    @property
    def recertified(self) -> bool:
        """Whether the ``recertify`` stage produced a certificate."""
        return self.certificate is not None


def front_payload(recommendation: "Recommendation") -> List[tuple]:
    """A recommendation's front as stored: plan vectors + repr-exact objectives, knee first."""
    return [
        (quality.plan.to_vector(), [repr(v) for v in quality.objectives()])
        for quality in recommendation.plans
    ]


def _payload_digest(payload: object) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def front_digest(recommendation: "Recommendation") -> str:
    """Content digest of a recommendation's front (plan vectors + repr-exact objectives)."""
    return _payload_digest(front_payload(recommendation))


def _new_record() -> Dict[str, object]:
    return {
        "cycle": 0,
        "stage": "done",
        "executed": None,
        "components": None,
        "detector": None,
        "drifted": [],
        "front_sha": None,
        "agent": None,
    }


@dataclass
class _Tenant:
    atlas: "Atlas"
    kwargs: Dict[str, object]


class AdvisorDaemon:
    """Scheduled continuous re-planning over an :class:`AdvisorService`.

    ``service.store`` (when set) makes the daemon restartable: each tenant's loop
    state is checkpointed as its own document under ``state/daemon-<name>/`` —
    once per cycle in which nobody drifts, after every stage from the drift
    verdict on otherwise — and a drifting cycle's polled sample is persisted as
    a store object ahead of that verdict, so a new process constructing the
    daemon over the same store resumes the in-flight cycle instead of starting
    over.  Without a store the daemon still runs — state just dies with the
    process.

    ``certify_budget`` (optional) re-certifies the executed plan against the
    drift-refreshed scenario before re-recommending (the loop's ``recertify``
    stage); it needs the previous round's live recommendation, so the stage is
    recorded as skipped on the first cycle after a restart.

    ``run_cycle()`` advances every tenant synchronously (what tests call);
    :meth:`start` runs it on a background thread every ``interval_s`` seconds.
    """

    def __init__(
        self,
        service: "AdvisorService",
        monitor,
        name: str = "atlas",
        interval_s: float = 60.0,
        certify_budget: Optional[int] = None,
    ) -> None:
        self.service = service
        self.monitor = monitor
        self.name = name
        self.interval_s = float(interval_s)
        self.certify_budget = certify_budget
        self.store: Optional["ArtifactStore"] = service.store
        self._tenants: Dict[str, _Tenant] = {}
        self._records: Dict[str, Dict[str, object]] = {}
        self._live: Dict[str, "Recommendation"] = {}
        #: The live drift detector per tenant; its record names it by digest.
        self._detectors: Dict[str, DriftDetector] = {}
        #: The cycle whose sample this process knows to be on disk, per tenant
        #: (written by a drift verdict, or read back by a resumed cycle).
        self._sampled: Dict[str, int] = {}
        self._mu = threading.RLock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.last_error: Optional[str] = None
        #: Test seam: called as ``hook(tenant, stage)`` after each published document
        #: (the kill-and-restart smoke uses it to die mid-cycle at a chosen stage).
        self._after_stage: Optional[Callable[[str, str], None]] = None
        self._load_checkpoint()

    # -- tenants -----------------------------------------------------------------------
    def register(self, name: str, atlas: "Atlas", **recommend_kwargs) -> None:
        """Add one tenant to the loop; ``recommend_kwargs`` parameterize its rounds.

        A checkpointed record for ``name`` (from a previous process) is kept —
        registration re-attaches the live :class:`Atlas` to the durable state.
        """
        with self._mu:
            self._tenants[name] = _Tenant(atlas=atlas, kwargs=dict(recommend_kwargs))
            self._records.setdefault(name, _new_record())

    @property
    def tenants(self) -> List[str]:
        with self._mu:
            return sorted(self._tenants)

    def record(self, name: str) -> Dict[str, object]:
        """A copy of one tenant's checkpointed loop record (observability).

        ``"detector"`` reads as the drift baselines themselves (the detector's
        state), which the durable record only names by digest.
        """
        with self._mu:
            record = dict(self._records[name])
        detector = self._detector(name, record)
        record["detector"] = detector.state() if detector is not None else None
        return record

    # -- the loop ----------------------------------------------------------------------
    def run_cycle(self) -> List[TenantCycleReport]:
        """Advance every registered tenant by one cycle (or finish its in-flight one)."""
        with self._mu:
            names = sorted(self._tenants)
        return [self._advance(name) for name in names]

    def start(self) -> None:
        """Run :meth:`run_cycle` every ``interval_s`` seconds on a daemon thread."""
        with self._mu:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name=f"advisor-daemon-{self.name}", daemon=True
            )
            self._thread.start()

    def stop(self, timeout: Optional[float] = None) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.run_cycle()
            except Exception:  # keep the service alive; surface via last_error
                self.last_error = traceback.format_exc()
            self._stop.wait(self.interval_s)

    # -- one tenant cycle --------------------------------------------------------------
    def _advance(self, name: str) -> TenantCycleReport:
        with self._mu:
            tenant = self._tenants[name]
            record = self._records.setdefault(name, _new_record())
        if record["stage"] == "done":
            record["cycle"] = int(record["cycle"]) + 1
            record["stage"] = "poll"
        report = TenantCycleReport(tenant=name, cycle=int(record["cycle"]))
        try:
            self._run_stages(name, tenant, record, report)
        except TENANT_FAILURES:
            # This tenant's cycle is lost, not the fleet's: abandon it (the next
            # cycle re-polls) and let the tenants sorted after it advance.
            self.last_error = report.error = traceback.format_exc()
            record["stage"] = "done"
            self._checkpoint(name, "abandon")
        return report

    def _run_stages(
        self,
        name: str,
        tenant: _Tenant,
        record: Dict[str, object],
        report: TenantCycleReport,
    ) -> None:
        cycle = report.cycle
        # Set by a drift cycle: why its search trains, should it train, and where
        # its re-plan starts.
        if_trained: Optional[str] = None
        prior: Optional[Tuple[str, Optional[str]]] = None

        # poll: decide first, then persist what a resume would read.  Polling
        # publishes nothing (an idle poll closes its cycle, which is one document):
        # the sample goes to disk only ahead of a document that leaves its cycle
        # in flight, so a cycle killed before its first document is polled again
        # and a cycle with a document replays from the persisted sample.
        if record["stage"] == "poll":
            report.stages.append("poll")
            sample = self.monitor.poll(name, cycle)
            if sample is None:
                record["stage"] = "done"
                report.idle = True
                self._checkpoint(name, "poll")
                return
            stage = "drift" if record["detector"] is not None else "recommend"
        else:
            stage = record["stage"]
            sample = self._load_sample(name, cycle)
            if sample is None:
                # The durable sample is gone (wiped store): abandon the in-flight
                # cycle; the next cycle re-polls.  Degraded, never crashed.
                record["stage"] = "done"
                report.error = "persisted sample lost; cycle abandoned"
                self._checkpoint(name, "abandon")
                return
            if record["drifted"] and stage in ("recertify", "recommend"):
                # Resuming past the splice checkpoint in a fresh process: the
                # splice's effect lived in the dead process's knowledge, so it is
                # re-applied here (idempotent by content) before continuing.
                spliced = self._splice(tenant.atlas, record, sample)
                if_trained = self._install_agent(name, tenant.atlas, record)
                prior = self._install_prior(name, tenant.atlas, record, spliced)

        if stage == "drift":
            detector = self._detector(name, record)
            if detector is None:
                # The baselines' store object is lost or damaged: the tenant
                # re-arms through ``recommend`` (its unchanged request is served
                # by the memo or the journal).  Degraded, never crashed.
                stage = "recommend"
            else:
                report.stages.append("drift")
                reports = detector.check_all(sample.recent_latencies)
                report.drifted = sorted(
                    api for api, outcome in reports.items() if outcome.drift_detected
                )
                record["drifted"] = list(report.drifted)
                record["stage"] = stage = "splice" if report.drifted else "done"
                if report.drifted:
                    # The sample shaped a decision that leaves work in flight: it
                    # is on disk before the document that records the verdict.
                    self._save_sample(name, cycle, sample)
                self._checkpoint(name, "drift")
                if not report.drifted:
                    return

        if stage == "splice":
            report.stages.append("splice")
            report.spliced = self._splice(tenant.atlas, record, sample)
            if_trained = self._install_agent(name, tenant.atlas, record)
            prior = self._install_prior(name, tenant.atlas, record, report.spliced)
            record["stage"] = stage = "recertify"
            self._checkpoint(name, "splice")

        if stage == "recertify":
            report.stages.append("recertify")
            report.certificate = self._recertify(name, tenant, record, sample)
            record["stage"] = stage = "recommend"
            self._checkpoint(name, "recertify")

        if stage == "recommend":
            report.stages.append("recommend")
            recommendation = self.service.recommend(tenant.atlas, **tenant.kwargs)
            knee = recommendation.knee_point().plan
            # First, because a poisoned window raises here: the record then still
            # describes the previous answer, whole.
            record["detector"] = self._arm(name, tenant.atlas, recommendation, knee, sample)
            record["executed"] = [int(v) for v in knee.to_vector()]
            record["components"] = list(knee.components)
            front = front_payload(recommendation)
            record["front_sha"] = _payload_digest(front)
            if self.store is not None:
                # The next drift re-plans from this front: on disk before the
                # document that names it.
                self.store.save(("daemon-front", record["front_sha"]), front)
            record["agent"] = recommendation.result.agent_digest
            record["drifted"] = []
            record["stage"] = "done"
            with self._mu:
                self._live[name] = recommendation
            report.recommended = True
            report.front_sha = record["front_sha"]
            if record["agent"] is not None:
                if recommendation.result.training_history is None:
                    report.agent = "reused"
                else:
                    report.agent, report.agent_reason = "trained", if_trained
            if prior is not None:
                report.prior, report.prior_reason = prior
            self._checkpoint(name, "recommend")

    # -- stage bodies ------------------------------------------------------------------
    @staticmethod
    def _splice(
        atlas: "Atlas", record: Dict[str, object], sample: MonitorSample
    ) -> List[str]:
        """Install the drifted APIs' re-profiled trace windows into the learned state.

        Replacing ``ApiProfile.sample_traces`` changes the knowledge's content
        fingerprint for exactly those APIs, so the following re-recommend compiles
        only them (splice path) and lands on a new request-memo key.  Idempotent:
        a resumed cycle installing the same persisted traces is a no-op by content.
        """
        knowledge = atlas.knowledge
        if knowledge is None:
            return []
        spliced: List[str] = []
        for api in record["drifted"]:
            traces = sample.traces_by_api.get(api)
            profile = knowledge.api_profiles.get(api)
            if traces and profile is not None:
                knowledge.api_profiles[api] = dataclasses.replace(
                    profile, sample_traces=list(traces)
                )
                spliced.append(api)
        return spliced

    def _install_agent(
        self, name: str, atlas: "Atlas", record: Dict[str, object]
    ) -> str:
        """Install the crossover agent of the tenant's previous answer into its
        learned state; returns why the re-recommend trains, should it still train.

        The record's digest says which agent; the live previous answer has it in
        memory, a resumed process (or a revived answer) loads the store object.
        Not finding it is not an error: the re-recommend then trains its own.
        """
        digest = record["agent"]
        if atlas.knowledge is None or digest is None:
            return "no previous answer"
        last = self._live.get(name)
        agent = last.result.agent if last is not None else None
        if agent is None and self.store is not None:
            agent = self.store.load(("agent", digest))
        if not isinstance(agent, CrossoverAgent) or agent.content_digest() != digest:
            return "agent object lost"
        atlas.knowledge.crossover_agent = agent
        return "agent does not fit"

    def _install_prior(
        self, name: str, atlas: "Atlas", record: Dict[str, object], spliced: List[str]
    ) -> Tuple[str, Optional[str]]:
        """Install the front the tenant was serving as its re-plan's starting point;
        returns ``(report.prior, report.prior_reason)``.

        The live previous answer has the front in memory, a resumed process loads the
        ``("daemon-front", front_sha)`` object the record names.  Not finding it, or
        finding other content under the name, leaves no prior installed: the
        re-recommend then searches from the affinity seeds at the full budget.
        """
        knowledge, front_sha = atlas.knowledge, record["front_sha"]
        if knowledge is None or front_sha is None:
            return "affinity seeds", "no previous answer"
        knowledge.replan_prior = None
        last = self._live.get(name)
        if last is not None:
            front = front_payload(last)
        else:
            key = ("daemon-front", front_sha)
            front = self.store.load(key) if self.store is not None else None
            if front is None:
                damaged = self.store is not None and self.store.path_for(key).exists()
                return "affinity seeds", f"front object {'damaged' if damaged else 'lost'}"
        if _payload_digest(front) != front_sha:
            return "affinity seeds", "front object mislabelled"
        knowledge.replan_prior = ReplanPrior(
            components=tuple(record["components"]),
            vectors=tuple(tuple(vector) for vector, _ in front),
            spliced=tuple(spliced),
        )
        return "served front", None

    def _recertify(
        self,
        name: str,
        tenant: _Tenant,
        record: Dict[str, object],
        sample: MonitorSample,
    ) -> Optional["RobustnessCertificate"]:
        """Re-certify the executed plan under the refreshed workload (best-effort);
        returns the certificate, ``None`` when the stage did not run or failed on
        this tenant's input (:data:`TENANT_FAILURES`, kept in ``last_error``; the
        cycle goes on to ``recommend``).  Any other exception is a defect and
        propagates.

        Runs only when certification is configured and the previous round's live
        recommendation (with its certificate) is still in memory — certificates
        describe the *outgoing* plan, so after a restart the stage is skipped and
        the incoming re-recommend simply supersedes it.

        That recommendation is the service memo's object, served to every tenant of
        equal content, so it is left alone: the adversary runs on an evaluator this
        tenant owns, built over its spliced knowledge through the service cache.
        The ``drift`` stage's verdict and the windows the ``splice`` stage installed
        are the ones it certifies under: nothing is checked or spliced again.
        """
        last = self._live.get(name)
        if (
            not self.certify_budget
            or last is None
            or last.certificate is None
            # Whether a drift without a scenario should re-certify is not decided yet.
            or sample.scenario is None
            or not record["executed"]
        ):
            return None
        try:
            executed = MigrationPlan.from_vector(
                list(record["components"]), list(record["executed"])
            )
            owned = dataclasses.replace(
                last, evaluator=self.service.build_evaluator(tenant.atlas, tenant.kwargs)
            )
            return tenant.atlas.recertify(
                owned, executed, budget=int(self.certify_budget)
            )
        except TENANT_FAILURES:
            self.last_error = traceback.format_exc()
            return None

    def _arm(
        self,
        name: str,
        atlas: "Atlas",
        recommendation: "Recommendation",
        executed: MigrationPlan,
        sample: MonitorSample,
    ) -> str:
        """Fresh drift baselines for the newly executed plan; returns their digest.

        ``approx`` is the advisor's own latency preview of the plan; ``real`` is
        proxied by the cycle's measured window (the best ground truth available
        until the next sample arrives) — the construction of
        :meth:`Atlas.drift_detector <repro.recommend.advisor.Atlas.drift_detector>`.
        The detector stays live for the tenant's coming cycles; its state is
        published once, under its digest, before the checkpoint that names it.
        """
        measured = {api: list(v) for api, v in sample.recent_latencies.items()}
        detector = atlas.drift_detector(recommendation, executed, measured)
        digest = detector.content_digest()
        if self.store is not None:
            self.store.save(("daemon-detector", digest), detector.state())
        self._detectors[name] = detector
        return digest

    def _detector(
        self, name: str, record: Dict[str, object]
    ) -> Optional[DriftDetector]:
        """The tenant's drift detector, or ``None`` when it has none (any more).

        Live from the cycle that armed it; the first cycle after a restart loads
        the store object the record names.  A lost, damaged or mislabelled object
        is no detector: the caller re-arms.
        """
        detector = self._detectors.get(name)
        digest = record["detector"]
        if detector is None and digest is not None and self.store is not None:
            try:
                detector = DriftDetector.from_state(
                    self.store.load(("daemon-detector", digest))
                )
            except (AttributeError, LookupError, TypeError, ValueError):
                return None
            if detector.content_digest() != digest:
                return None
            self._detectors[name] = detector
        return detector

    # -- durable state -----------------------------------------------------------------
    def _state_name(self) -> str:
        return f"daemon-{self.name}"

    def _document_name(self, tenant: str) -> str:
        """The tenant's state document: filed by digest, because tenant names are
        the caller's and ``../x`` must not leave the state directory."""
        return f"{self._state_name()}/{sha_parts([tenant])}"

    def _sample_key(self, tenant: str, cycle: int):
        return ("daemon-sample", self.name, tenant, int(cycle))

    def _save_sample(self, tenant: str, cycle: int, sample: MonitorSample) -> None:
        if self.store is not None and self.store.save(self._sample_key(tenant, cycle), sample):
            self._sampled[tenant] = cycle

    def _load_sample(self, tenant: str, cycle: int) -> Optional[MonitorSample]:
        if self.store is None:
            return None
        sample = self.store.load(self._sample_key(tenant, cycle))
        if not isinstance(sample, MonitorSample):
            return None
        self._sampled[tenant] = cycle
        return sample

    def _checkpoint(self, tenant: str, stage: str) -> None:
        if self.store is not None:
            record = self._records[tenant]
            document = {"version": 2, "tenant": tenant, "record": record}
            published = self.store.save_state(self._document_name(tenant), document)
            if published and record["stage"] == "done" and tenant in self._sampled:
                # Only an in-flight cycle reads its sample.  Dropped after the
                # document that closes the cycle is on disk: a kill in between
                # leaks one object, the other order (or dropping it when the
                # closing document was not published) would lose a sample the
                # durable document still asks for.
                self.store.discard(self._sample_key(tenant, self._sampled.pop(tenant)))
        hook = self._after_stage
        if hook is not None:
            hook(tenant, stage)

    def _load_checkpoint(self) -> None:
        """Adopt every readable tenant document; an unreadable one costs its tenant
        a bootstrap (served by the journal), never the fleet."""
        if self.store is None:
            return
        defaults = _new_record()
        for name in self.store.state_names(self._state_name()):
            document = self.store.load_state(name)
            if (
                document is not None
                and document.get("version") == 2
                and isinstance(document.get("record"), dict)
                and isinstance(document.get("tenant"), str)
                and self._document_name(document["tenant"]) == name
            ):
                self._records[document["tenant"]] = {**defaults, **document["record"]}
