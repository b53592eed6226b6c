"""What a daemon cycle writes, and what a restart finds: per-tenant loop documents,
drift baselines named by digest, the histogram-free KL and the lean publish.

The write protocol is *decide, then persist what a resume would read*: a cycle in
which nobody drifts publishes the one document that closes it and never a sample; a
drift verdict publishes the polled sample first and then the document that records
it.  Recovery is argued as an invariant over every transition, not one scripted
kill: whichever tenant of a two-tenant fleet dies after whichever document — or
between its poll and its first document — the resumed fleet lands on the
uninterrupted run's fronts, agents, reports and *documents*; a sample that shaped a
published decision is on disk before it and is never polled again; a tenant's
checkpoints never touch another tenant's document.  ``DaemonProtocolMachine``
(section g) drives that as a hypothesis state machine, and what it found sits in
``TestShrunkExamples``.  Every defect of the durable state — a lost, truncated or
relabelled baselines object, a torn document, a document older code wrote — costs
one tenant one journal-served bootstrap, never a search, never the fleet.

``kl_divergence`` keeps the two-``np.histogram`` formulation it replaced as its
oracle here; equality is ``repr``-exact.
"""

import copy
import json
import os
import shutil
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import test_serving as serving_suite
from test_artifacts import TINY_GA
from test_durable_forms import _relabel
from test_serving import daemon_script, tiny_learned_atlas  # noqa: F401  (fixtures)

from repro.monitoring import DriftDetector, kl_divergence
from repro.optimizer.atlas_ga import AtlasGA
from repro.recommend import AdvisorService
from repro.serving import AdvisorDaemon, ArtifactStore, MonitorSample, ScriptedMonitor
from repro.serving import store as store_module

_clone = serving_suite._clone
_poison_search = serving_suite._poison_search
_Kill = serving_suite._Crash

TENANTS = ("a", "b")
STAGES_OF_A_DRIFT_CYCLE = ["poll", "drift", "splice", "recertify", "recommend"]


def _fleet(store_dir, atlas, scripts, name="t"):
    """A daemon over ``store_dir`` with one content-equal tenant per script."""
    service = AdvisorService(store=ArtifactStore(store_dir)) if store_dir else AdvisorService()
    daemon = AdvisorDaemon(service, ScriptedMonitor(scripts), name=name)
    for tenant in scripts:
        daemon.register(tenant, _clone(atlas), expected_scale=2.0)
    return daemon


def _documents(daemon):
    """Bytes of every tenant's state document, by tenant."""
    paths = {t: daemon.store.state_path(daemon._document_name(t)) for t in daemon.tenants}
    return {tenant: path.read_bytes() for tenant, path in paths.items() if path.exists()}


def _sample_key(daemon, tenant, cycle):
    return ("daemon-sample", daemon.name, tenant, cycle)


def _spy_on_writes(monkeypatch):
    """Every path the store publishes and every path anyone unlinks, from here on."""
    published, unlinked = [], []
    real_publish, real_unlink = ArtifactStore._publish, Path.unlink

    def publish(path, blob):
        published.append(path)
        return real_publish(path, blob)

    def unlink(path, *args, **kwargs):
        unlinked.append(path)
        return real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(ArtifactStore, "_publish", staticmethod(publish))
    monkeypatch.setattr(Path, "unlink", unlink)
    return published, unlinked


def _prior(daemon, tenant):
    return daemon._tenants[tenant].atlas.knowledge.replan_prior


def _no_training(monkeypatch):
    def no_training(self):
        raise AssertionError("a resumed drift cycle must reuse the stored agent")

    monkeypatch.setattr(AtlasGA, "train_agent", no_training)


@pytest.fixture(scope="module")
def fleet_reference(tmp_path_factory, tiny_learned_atlas, daemon_script):
    """The uninterrupted three-cycle run of a two-tenant fleet (both drift in cycle 2).

    Yields the daemon, its per-cycle reports and documents, the ``_after_stage``
    calls it made and the documents it published, and a copy of its store taken between cycles 1 and 2 — where
    every kill case starts from, in a fresh process.
    """
    _, samples = daemon_script
    root = tmp_path_factory.mktemp("fleet")
    daemon = _fleet(root / "store", tiny_learned_atlas, {t: samples for t in TENANTS})
    calls, published = [], []
    daemon._after_stage = lambda tenant, stage: calls.append((tenant, stage))
    save_state = daemon.store.save_state
    daemon.store.save_state = lambda name, state: published.append(name) or save_state(name, state)
    reports, documents = [], []
    for cycle in (1, 2, 3):
        reports.append({r.tenant: r for r in daemon.run_cycle()})
        documents.append(_documents(daemon))
        if cycle == 1:
            shutil.copytree(root / "store", root / "after-cycle-1")
    return {
        "daemon": daemon,
        "reports": reports,
        "documents": documents,
        "calls": calls,
        "published": published,
        "template": root / "after-cycle-1",
    }


# -- (a) a checkpoint is one tenant's document -------------------------------------------------
class TestTenantDocuments:
    @staticmethod
    def _on_model_fleet(store_dir, atlas, samples, fleet_size):
        """A bootstrapped fleet whose next cycle is on model for every tenant."""
        on_model = [samples[0], MonitorSample(recent_latencies=samples[0].recent_latencies)]
        tenants = [f"tenant-{k}" for k in range(fleet_size)]
        daemon = _fleet(store_dir, atlas, {t: on_model for t in tenants})
        daemon.run_cycle()
        return daemon

    @classmethod
    def _spied_quiet_cycle(cls, store_dir, atlas, samples, fleet_size):
        daemon = cls._on_model_fleet(store_dir, atlas, samples, fleet_size)
        written = []
        real_save_state = daemon.store.save_state

        def spy(name, state):
            written.append((name, json.dumps(state, sort_keys=True)))
            return real_save_state(name, state)

        daemon.store.save_state = spy
        reports = daemon.run_cycle()
        assert all(r.stages == ["poll", "drift"] and not r.drifted for r in reports)
        return daemon, written

    def test_document_does_not_grow_with_the_fleet_and_holds_no_floats(
        self, tmp_path, tiny_learned_atlas, daemon_script
    ):
        _, samples = daemon_script
        written = {}
        for fleet_size in (2, 8):
            daemon, written[fleet_size] = self._spied_quiet_cycle(
                tmp_path / f"store-{fleet_size}", tiny_learned_atlas, samples, fleet_size
            )
            # One checkpoint per quiet tenant-cycle (the verdict closes it), one file per tenant.
            assert len(written[fleet_size]) == fleet_size
            assert len({name for name, _ in written[fleet_size]}) == fleet_size
            assert sorted(daemon.store.state_names("daemon-t")) == sorted(
                {name for name, _ in written[fleet_size]}
            )
        # tenant-0 sorts first: its document is the first one written, and it is the
        # same bytes whether the fleet holds two tenants or eight.
        assert written[2][:1] == written[8][:1]

        def floats(node):
            if isinstance(node, dict):
                return [f for value in node.values() for f in floats(value)]
            if isinstance(node, list):
                return [f for value in node for f in floats(value)]
            return [node] if isinstance(node, float) else []

        for _, body in written[8]:
            document = json.loads(body)
            assert document["version"] == 2 and set(document) == {"version", "tenant", "record"}
            assert floats(document) == []
            assert isinstance(document["record"]["detector"], str)

    def test_document_name_cannot_leave_the_state_directory(self, tmp_path, tiny_learned_atlas, daemon_script):
        _, samples = daemon_script
        daemon = _fleet(tmp_path / "store", tiny_learned_atlas, {"../../escaped": samples[:1]})
        (report,) = daemon.run_cycle()
        assert report.recommended
        state_dir = tmp_path / "store" / "state"
        written = [p for p in tmp_path.rglob("*.json")]
        assert written and all(p.parent == state_dir / "daemon-t" for p in written)
        resumed = _fleet(tmp_path / "store", tiny_learned_atlas, {"../../escaped": samples[:1]})
        assert resumed.record("../../escaped")["front_sha"] == report.front_sha

    @pytest.mark.parametrize("fleet_size", [2, 8])
    def test_a_quiet_tenant_cycle_is_one_publish(
        self, tmp_path, tiny_learned_atlas, daemon_script, monkeypatch, fleet_size
    ):
        _, samples = daemon_script
        daemon = self._on_model_fleet(tmp_path / "store", tiny_learned_atlas, samples, fleet_size)
        published, unlinked = _spy_on_writes(monkeypatch)
        reports = daemon.run_cycle()
        assert all(r.stages == ["poll", "drift"] and not r.drifted for r in reports)
        # Its document, no object, nothing to delete (6 / 2 / 2 per two tenants before).
        assert published == [daemon.store.state_path(daemon._document_name(t)) for t in daemon.tenants]
        assert unlinked == []

    def test_idle_and_abandoned_cycles_publish_one_document_and_unlink_nothing(
        self, tmp_path, tiny_learned_atlas, daemon_script, monkeypatch
    ):
        _, samples = daemon_script
        poisoned = MonitorSample(
            recent_latencies={api: [float("inf")] for api in samples[0].recent_latencies}
        )  # an infinite latency has no histogram: the drift check raises, nothing is decided
        script = {"a": [samples[0], None, poisoned], "b": [samples[0], None, poisoned]}
        daemon = _fleet(tmp_path / "store", tiny_learned_atlas, script)
        daemon.run_cycle()
        published, unlinked = _spy_on_writes(monkeypatch)
        documents = [daemon.store.state_path(daemon._document_name(t)) for t in TENANTS]
        assert all(r.idle for r in daemon.run_cycle())
        assert published == documents and unlinked == []
        del published[:]
        assert all("ValueError" in r.error for r in daemon.run_cycle())
        assert published == documents and unlinked == []

    def test_a_drift_cycle_publishes_sample_then_verdict(
        self, tmp_path, tiny_learned_atlas, daemon_script, monkeypatch
    ):
        _, samples = daemon_script
        daemon = _fleet(tmp_path / "store", tiny_learned_atlas, {"a": samples})
        daemon.run_cycle()
        published, unlinked = _spy_on_writes(monkeypatch)
        at_hook = []
        daemon._after_stage = lambda tenant, stage: at_hook.append((stage, len(published)))
        (report,) = daemon.run_cycle()
        assert report.stages == STAGES_OF_A_DRIFT_CYCLE
        document = daemon.store.state_path(daemon._document_name("a"))
        sample = daemon.store.path_for(_sample_key(daemon, "a", 2))
        # The sample first, then the document that says "drifted"; written once, and
        # deleted once the document that closes the cycle is out.
        assert published[:2] == [sample, document] and published.count(sample) == 1
        assert published.count(document) == 4 and published[-1] == document
        assert unlinked == [sample]
        # Every hook call follows a document of its own.
        assert [stage for stage, _ in at_hook] == STAGES_OF_A_DRIFT_CYCLE[1:]
        assert [published[count - 1] for _, count in at_hook] == [document] * 4

    def test_record_keeps_its_keys_and_reads_the_baselines(self, fleet_reference):
        record = fleet_reference["daemon"].record("a")
        assert set(record) == {
            "cycle", "stage", "executed", "components", "detector", "drifted", "front_sha", "agent",
        }
        state = record["detector"]
        assert set(state) == {"approx", "real", "threshold_factor", "bins", "baseline"}
        assert all(isinstance(x, float) for window in state["real"].values() for x in window)
        assert DriftDetector.from_state(state).content_digest() == json.loads(
            fleet_reference["documents"][-1]["a"]
        )["record"]["detector"]

    def test_after_stage_fires_once_per_published_document(self, fleet_reference):
        # A bootstrap and a quiet or idle cycle publish the one document that closes
        # them; a drift cycle publishes from its verdict on.  Polling publishes nothing.
        bootstrap = [(t, "recommend") for t in TENANTS]
        drift = [(t, s) for t in TENANTS for s in STAGES_OF_A_DRIFT_CYCLE[1:]]
        idle = [(t, "poll") for t in TENANTS]
        assert fleet_reference["calls"] == bootstrap + drift + idle
        daemon = fleet_reference["daemon"]
        assert fleet_reference["published"] == [
            daemon._document_name(tenant) for tenant, _ in fleet_reference["calls"]
        ]


# -- (b) every tenant x every kill point --------------------------------------------------------
class TestKillAfterEveryCheckpoint:
    """``crash_stage`` names the document the victim dies right after; ``"poll"``
    publishes none, so there the victim dies right after its monitor answered."""

    @pytest.mark.parametrize("crash_stage", STAGES_OF_A_DRIFT_CYCLE)
    @pytest.mark.parametrize("victim", TENANTS)
    def test_resumes_to_the_uninterrupted_fleet(
        self, tmp_path, tiny_learned_atlas, daemon_script, fleet_reference, monkeypatch, victim, crash_stage
    ):
        _, samples = daemon_script
        scripts = {t: samples for t in TENANTS}
        reference = fleet_reference["daemon"]
        after_1, after_2, _ = fleet_reference["documents"]
        (other,) = set(TENANTS) - {victim}
        store_dir = tmp_path / "store"
        shutil.copytree(fleet_reference["template"], store_dir)
        # Whoever searches from here on breeds with the agent cycle 1 trained.
        _no_training(monkeypatch)

        dying = _fleet(store_dir, tiny_learned_atlas, scripts)

        def bomb(tenant, stage):
            if (tenant, stage) == (victim, crash_stage):
                raise _Kill(stage)

        dying._after_stage = bomb
        if crash_stage == "poll":
            serving_suite._kill_after_poll(dying, victim)
        with pytest.raises(_Kill):
            dying.run_cycle()
        # The victim's checkpoints never touched the other tenant's document: "a" runs
        # first, so "b" is still where cycle 1 left it and "a" already closed cycle 2.
        expected_other = after_1[other] if victim == "a" else after_2[other]
        assert _documents(dying)[other] == expected_other
        in_flight = _sample_key(dying, victim, 2)
        assert (in_flight in dying.store) == (crash_stage not in ("poll", "recommend"))
        if crash_stage == "poll":
            # Polled, nothing decided: no document names cycle 2.
            assert _documents(dying)[victim] == after_1[victim]

        resumed = _fleet(store_dir, tiny_learned_atlas, scripts)
        reports = {r.tenant: r for r in resumed.run_cycle()}
        report = reports[victim]
        assert all(r.error is None for r in reports.values())
        if crash_stage == "recommend":
            assert report.idle and report.cycle == 3
        elif crash_stage == "poll":
            # Polled again, and the cycle runs whole.
            assert report == fleet_reference["reports"][1][victim]
        else:
            assert report.cycle == 2 and report.recommended
            assert report.stages == STAGES_OF_A_DRIFT_CYCLE[STAGES_OF_A_DRIFT_CYCLE.index(crash_stage) + 1 :]
            assert (report.agent, report.agent_reason) == ("reused", None)
        if crash_stage != "recommend":
            # The re-plan started from the front cycle 1 served, read back from the store.
            assert (report.prior, report.prior_reason) == ("served front", None)
            assert _prior(resumed, victim) == _prior(reference, victim) is not None
        documents = _documents(resumed)
        for tenant in TENANTS:
            record, expected = resumed.record(tenant), reference.record(tenant)
            assert record["front_sha"] == expected["front_sha"] is not None
            assert record["agent"] == expected["agent"] is not None
            assert record["detector"] == expected["detector"] is not None
            # The document is the uninterrupted run's at the same cycle, byte for byte.
            assert record["stage"] == "done"
            assert documents[tenant] == fleet_reference["documents"][record["cycle"] - 1][tenant]
        # The sample of every finished cycle is gone, whoever finished it.
        assert not any(
            _sample_key(resumed, t, c) in resumed.store for t in TENANTS for c in (1, 2, 3)
        )

    def test_a_document_the_parent_protocol_left_mid_cycle_still_resumes(
        self, tmp_path, tiny_learned_atlas, daemon_script, fleet_reference, monkeypatch
    ):
        """Sample on disk, document at ``stage: drift`` with nothing decided — what the
        protocol before this one wrote after every poll."""
        _, samples = daemon_script
        scripts = {t: samples for t in TENANTS}
        store_dir = tmp_path / "store"
        shutil.copytree(fleet_reference["template"], store_dir)
        old = _fleet(store_dir, tiny_learned_atlas, scripts)
        old.store.save(_sample_key(old, "a", 2), samples[1])
        old._records["a"].update(cycle=2, stage="drift")
        old._checkpoint("a", "poll")

        _no_training(monkeypatch)
        resumed = _fleet(store_dir, tiny_learned_atlas, scripts)
        resumed.monitor.poll = _polls_only("b", resumed.monitor.poll)
        reports = {r.tenant: r for r in resumed.run_cycle()}
        expected = fleet_reference["reports"][1]["a"]
        assert reports["a"].stages == STAGES_OF_A_DRIFT_CYCLE[1:] and reports["a"].error is None
        assert (reports["a"].drifted, reports["a"].spliced) == (expected.drifted, expected.spliced)
        assert reports["a"].front_sha == expected.front_sha
        assert _documents(resumed) == fleet_reference["documents"][1]
        assert _sample_key(resumed, "a", 2) not in resumed.store


def _polls_only(tenant, poll):
    def guarded(name, cycle):
        assert name == tenant, f"{name}'s cycle {cycle} has a document: it must not be polled again"
        return poll(name, cycle)

    return guarded


# -- finished cycles leave no sample behind ------------------------------------------------------
class TestSamplesAreDiscarded:
    def test_quiet_and_drift_cycles_leave_no_sample(self, tmp_path, tiny_learned_atlas, daemon_script):
        _, samples = daemon_script
        quiet = MonitorSample(recent_latencies=samples[0].recent_latencies)
        script = [samples[0], quiet, quiet, quiet, samples[1]]
        daemon = _fleet(tmp_path / "store", tiny_learned_atlas, {"a": script, "b": script})
        objects = []
        for _ in script:
            reports = daemon.run_cycle()
            assert all(r.error is None for r in reports)
            objects.append(len(daemon.store))
        assert reports[0].stages == STAGES_OF_A_DRIFT_CYCLE
        assert not any(
            _sample_key(daemon, t, c) in daemon.store for t in TENANTS for c in range(1, 6)
        )
        # Quiet cycles add nothing to the object tier.
        assert objects[0] == objects[1] == objects[2] == objects[3]

    def test_the_in_flight_sample_is_kept_until_its_cycle_is_done(
        self, tmp_path, tiny_learned_atlas, daemon_script
    ):
        _, samples = daemon_script
        daemon = _fleet(tmp_path / "store", tiny_learned_atlas, {"a": samples})
        seen = []
        daemon._after_stage = lambda tenant, stage: seen.append(
            (stage, daemon.record(tenant)["stage"], _sample_key(daemon, tenant, 2) in daemon.store)
        )
        daemon.run_cycle()
        del seen[:]
        daemon.run_cycle()
        # On disk from the first document that leaves the cycle in flight to the one that closes it.
        assert seen == [
            ("drift", "splice", True),
            ("splice", "recertify", True),
            ("recertify", "recommend", True),
            ("recommend", "done", False),
        ]

    def test_a_closing_document_that_was_not_published_keeps_the_sample(
        self, tmp_path, tiny_learned_atlas, daemon_script, monkeypatch
    ):
        """The disk fills up under the last document of a drift cycle: the document on
        disk still names the in-flight stage, so its sample must still be there — the
        restart resumes the cycle instead of abandoning it."""
        _, samples = daemon_script
        store_dir = tmp_path / "store"
        daemon = _fleet(store_dir, tiny_learned_atlas, {"a": samples})
        daemon.run_cycle()
        real_publish = ArtifactStore._publish

        def documents_fail(path, blob):
            return False if path.suffix == ".json" else real_publish(path, blob)

        def disk_fills_up(tenant, stage):
            if stage == "recertify":
                monkeypatch.setattr(ArtifactStore, "_publish", staticmethod(documents_fail))

        daemon._after_stage = disk_fills_up
        (report,) = daemon.run_cycle()
        assert report.recommended and report.error is None
        on_disk = json.loads(_documents(daemon)["a"])["record"]
        assert (on_disk["cycle"], on_disk["stage"]) == (2, "recommend")
        assert _sample_key(daemon, "a", 2) in daemon.store
        monkeypatch.undo()
        shutil.copytree(store_dir, tmp_path / "restarted")

        # The same process carries on, and drops the sample with the next document
        # that does get out and closes a cycle.
        daemon._after_stage = None
        (idle,) = daemon.run_cycle()
        assert idle.idle and _sample_key(daemon, "a", 2) not in daemon.store

        # A restart resumes cycle 2 from the sample, without a poll.
        _no_training(monkeypatch)
        resumed = _fleet(tmp_path / "restarted", tiny_learned_atlas, {"a": samples})
        resumed.monitor.poll = _polls_only("nobody", resumed.monitor.poll)
        (again,) = resumed.run_cycle()
        assert again.error is None and again.stages == ["recommend"] and again.cycle == 2
        assert again.front_sha == report.front_sha
        assert _sample_key(resumed, "a", 2) not in resumed.store


# -- what the state machine found, shrunk ---------------------------------------------------------
class TestShrunkExamples:
    @staticmethod
    def _killed_after_the_sample(store_dir, atlas, samples):
        """Cycle 1 bootstrapped; cycle 2 drifts and dies between its sample and the
        document that would have named it."""
        dying = _fleet(store_dir, atlas, {"a": samples})
        dying.run_cycle()
        save = dying.store.save

        def sample_then_kill(key, value):
            save(key, value)
            if key[0] == "daemon-sample":
                raise _Kill("after the sample")
            return True

        dying.store.save = sample_then_kill
        with pytest.raises(_Kill):
            dying.run_cycle()
        assert _sample_key(dying, "a", 2) in dying.store
        assert json.loads(_documents(dying)["a"])["record"]["cycle"] == 1

    def test_a_sample_without_its_verdict_is_polled_again_and_dropped(
        self, tmp_path, tiny_learned_atlas, daemon_script, fleet_reference, monkeypatch
    ):
        _, samples = daemon_script
        self._killed_after_the_sample(tmp_path / "store", tiny_learned_atlas, samples)
        _no_training(monkeypatch)
        resumed = _fleet(tmp_path / "store", tiny_learned_atlas, {"a": samples})
        (report,) = resumed.run_cycle()
        assert report == fleet_reference["reports"][1]["a"]
        assert _documents(resumed)["a"] == fleet_reference["documents"][1]["a"]
        assert _sample_key(resumed, "a", 2) not in resumed.store

    def test_the_one_leak_left_needs_a_kill_and_a_lost_baselines_object(
        self, tmp_path, tiny_learned_atlas, daemon_script, fleet_reference, monkeypatch
    ):
        """state.cycle(quiet) / state.cycle(kill=('sample', 'a'), drift) /
        state.lose_the_baselines('a') / state.restart(): polled again the cycle re-arms
        instead of drifting, writes no sample and so owns none — ROADMAP item 6."""
        _, samples = daemon_script
        self._killed_after_the_sample(tmp_path / "store", tiny_learned_atlas, samples)
        store = ArtifactStore(tmp_path / "store")
        digest = json.loads(fleet_reference["documents"][0]["a"])["record"]["detector"]
        store.discard(("daemon-detector", digest))
        _poison_search(monkeypatch)
        resumed = _fleet(tmp_path / "store", tiny_learned_atlas, {"a": samples})
        (report,) = resumed.run_cycle()
        assert report.error is None and report.stages == ["poll", "recommend"]
        assert report.front_sha == fleet_reference["reports"][0]["a"].front_sha
        assert resumed.record("a")["stage"] == "done"
        assert _sample_key(resumed, "a", 2) in resumed.store  # the leak: one object, once

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10: a splice lives in process memory")
    def test_a_second_drift_cycle_after_a_restart_knows_the_first_splice(
        self, tmp_path, tiny_learned_atlas, daemon_script
    ):
        """state.cycle(quiet) / state.cycle(drift) / state.cycle(kill=('document', 'a', 3),
        drift again) / state.restart(): the restarted process learns its knowledge
        again, without the window cycle 2 spliced, and cycle 3 searches over that."""
        target, samples = daemon_script
        (other,) = set(samples[0].recent_latencies) - {target}
        profiles = tiny_learned_atlas.knowledge.api_profiles
        window = [serving_suite._perturb(trace, 1.7) for trace in profiles[other].sample_traces]
        inflated = [v * 6.0 + 25.0 for v in samples[0].recent_latencies[other]]
        second = MonitorSample(
            recent_latencies={**samples[1].recent_latencies, other: inflated},
            traces_by_api={other: window},
        )
        script = {"a": [samples[0], samples[1], second]}
        uninterrupted = _fleet(tmp_path / "reference", tiny_learned_atlas, script)
        reports = [uninterrupted.run_cycle()[0] for _ in range(3)]
        assert reports[2].spliced == [other]

        dying = _fleet(tmp_path / "store", tiny_learned_atlas, script)
        dying.run_cycle()
        dying.run_cycle()

        def bomb(tenant, stage):
            if stage == "recertify":
                raise _Kill(stage)

        dying._after_stage = bomb
        with pytest.raises(_Kill):
            dying.run_cycle()
        resumed = _fleet(tmp_path / "store", tiny_learned_atlas, script)
        (report,) = resumed.run_cycle()
        assert report.error is None and report.recommended
        assert report.front_sha == reports[2].front_sha


# -- the poisoned sample -----------------------------------------------------------------------
class TestOnePoisonedSampleDoesNotWedgeTheFleet:
    def test_the_tenant_loses_its_cycle_and_the_fleet_advances(
        self, tmp_path, tiny_learned_atlas, daemon_script
    ):
        _, samples = daemon_script
        clean = samples[0]
        api = sorted(clean.recent_latencies)[0]
        poisoned = MonitorSample(
            recent_latencies={
                **clean.recent_latencies,
                api: [float("nan")] + list(clean.recent_latencies[api][1:]),
            }
        )
        quiet = MonitorSample(recent_latencies=clean.recent_latencies)
        daemon = _fleet(
            tmp_path / "store",
            tiny_learned_atlas,
            {"a": [poisoned, clean, quiet, quiet], "b": [clean, quiet, quiet, quiet]},
        )
        first = {r.tenant: r for r in daemon.run_cycle()}
        assert "ValueError" in first["a"].error and "ValueError" in daemon.last_error
        assert first["a"].stages == ["poll", "recommend"] and not first["a"].recommended
        assert first["b"].recommended and first["b"].error is None
        record = daemon.record("a")
        assert record["stage"] == "done" and record["cycle"] == 1
        assert record["front_sha"] is None and record["executed"] is None and record["detector"] is None
        assert _sample_key(daemon, "a", 1) not in daemon.store

        later = [{r.tenant: r for r in daemon.run_cycle()} for _ in range(3)]
        assert [cycle["a"].error for cycle in later] == [None, None, None]
        assert later[0]["a"].cycle == 2 and later[0]["a"].recommended
        assert later[1]["a"].stages == ["poll", "drift"] and not later[1]["a"].drifted
        assert daemon.record("b")["cycle"] == 4 and daemon.record("a")["cycle"] == 4
        assert all(cycle["b"].stages == ["poll", "drift"] for cycle in later)

        # What a restart finds is the abandoned cycle closed, not an in-flight one.
        restarted = _fleet(tmp_path / "store", tiny_learned_atlas, {"a": [], "b": []})
        assert restarted.record("a")["stage"] == restarted.record("b")["stage"] == "done"

    def test_a_kill_is_not_contained(self, tmp_path, tiny_learned_atlas, daemon_script):
        _, samples = daemon_script
        daemon = _fleet(tmp_path / "store", tiny_learned_atlas, {"a": samples})

        def bomb(tenant, stage):
            raise _Kill(stage)

        daemon._after_stage = bomb
        with pytest.raises(_Kill):
            daemon.run_cycle()
        assert daemon.last_error is None


# -- (c) (d) defects of the durable state --------------------------------------------------------
#: What can happen to the baselines object between two processes, as ``(store, key)``.
DAMAGE = {
    "lost": lambda store, key: store.discard(key),
    "truncated": lambda store, key: store.path_for(key).write_bytes(
        store.path_for(key).read_bytes()[:-7]
    ),
    "relabelled": lambda store, key: _relabel(store.path_for(key), store_module._VERSION - 1),
    # A sound frame under this name that holds another detector's state.
    "mislabelled": lambda store, key: store.save(
        key, DriftDetector({"x": [1.0, 2.0]}, {"x": [1.0, 3.0]}).state()
    ),
}


#: What can happen to a served front's object between two processes, and what the
#: re-plan that needed it reports.
FRONT_DAMAGE = {
    "lost": (DAMAGE["lost"], "front object lost"),
    "damaged": (DAMAGE["truncated"], "front object damaged"),
    # A sound frame under this name that holds another front.
    "mislabelled": (
        lambda store, key: store.save(key, [([0, 1, 0, 1, 0, 1], ["1.0", "2.0", "3.0"])]),
        "front object mislabelled",
    ),
}


def _spy_on_budgets(monkeypatch):
    """The evaluation budget of every search run from here on."""
    budgets = []
    real_run = AtlasGA.run

    def run(self):
        budgets.append(self.config.evaluation_budget)
        return real_run(self)

    monkeypatch.setattr(AtlasGA, "run", run)
    return budgets


class TestDamagedDurableState:
    @pytest.mark.parametrize("damage", sorted(FRONT_DAMAGE))
    def test_a_front_object_defect_costs_the_re_plan_its_warm_start_only(
        self, tmp_path, tiny_learned_atlas, daemon_script, fleet_reference, monkeypatch, damage
    ):
        _, samples = daemon_script
        store_dir = tmp_path / "store"
        shutil.copytree(fleet_reference["template"], store_dir)
        store = ArtifactStore(store_dir)
        front_sha = json.loads(fleet_reference["documents"][0]["a"])["record"]["front_sha"]
        assert ("daemon-front", front_sha) in store
        how, reason = FRONT_DAMAGE[damage]
        how(store, ("daemon-front", front_sha))

        _no_training(monkeypatch)
        budgets = _spy_on_budgets(monkeypatch)
        resumed = _fleet(store_dir, tiny_learned_atlas, {t: samples for t in TENANTS})
        reports = resumed.run_cycle()
        for report in reports:
            assert report.error is None and report.stages == STAGES_OF_A_DRIFT_CYCLE
            assert report.recommended and (report.agent, report.agent_reason) == ("reused", None)
            assert (report.prior, report.prior_reason) == ("affinity seeds", reason)
            assert _prior(resumed, report.tenant) is None
        # Content-equal tenants: one search, from the affinity seeds, at the full budget.
        assert budgets == [TINY_GA.evaluation_budget]
        assert all(r.prior == "served front" for r in fleet_reference["reports"][1].values())
        # The answer's own front is on disk for the next drift, whole.
        assert ("daemon-front", reports[0].front_sha) in resumed.store

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_baselines_object_defect_rearms_through_recommend(
        self, tmp_path, tiny_learned_atlas, daemon_script, fleet_reference, monkeypatch, damage
    ):
        _, samples = daemon_script
        store_dir = tmp_path / "store"
        shutil.copytree(fleet_reference["template"], store_dir)
        store = ArtifactStore(store_dir)
        digest = json.loads(fleet_reference["documents"][0]["a"])["record"]["detector"]
        assert ("daemon-detector", digest) in store
        DAMAGE[damage](store, ("daemon-detector", digest))

        # Both tenants name the same baselines (content-equal): both re-arm, from the
        # journal — no search, no training — and neither reports an error.
        _poison_search(monkeypatch)
        resumed = _fleet(store_dir, tiny_learned_atlas, {t: samples for t in TENANTS})
        assert resumed.record("a")["detector"] is None
        reports = resumed.run_cycle()
        bootstrap = fleet_reference["reports"][0]
        for report in reports:
            assert report.error is None and report.cycle == 2
            assert report.stages == ["poll", "recommend"] and report.recommended
            assert report.front_sha == bootstrap[report.tenant].front_sha
        assert resumed.last_error is None
        assert resumed.service.stats()["journal"]["hits"] >= 1
        # Re-armed over cycle 2's window: a new baselines object, readable after a restart.
        rearmed = resumed.record("a")["detector"]
        assert rearmed is not None and rearmed["real"] == {
            api: [float(x) for x in window] for api, window in samples[1].recent_latencies.items()
        }
        again = _fleet(store_dir, tiny_learned_atlas, {t: samples for t in TENANTS})
        assert again.record("a")["detector"] == rearmed

    def test_a_torn_tenant_document_loses_that_tenant_only(
        self, tmp_path, tiny_learned_atlas, daemon_script, fleet_reference, monkeypatch
    ):
        _, samples = daemon_script
        store_dir = tmp_path / "store"
        shutil.copytree(fleet_reference["template"], store_dir)
        probe = _fleet(store_dir, tiny_learned_atlas, {t: samples for t in TENANTS})
        torn = probe.store.state_path(probe._document_name("a"))
        torn.write_bytes(torn.read_bytes()[:40])
        intact = _documents(probe)["b"]

        _no_training(monkeypatch)
        resumed = _fleet(store_dir, tiny_learned_atlas, {t: samples for t in TENANTS})
        assert resumed.record("a")["cycle"] == 0 and resumed.record("a")["front_sha"] is None
        assert resumed.record("b")["cycle"] == 1
        assert _documents(resumed)["b"] == intact
        journal_before = resumed.service.stats()["journal"]["hits"]
        reports = {r.tenant: r for r in resumed.run_cycle()}
        # "a" starts over: cycle 1 again, its first answer revived from the journal.
        assert reports["a"].cycle == 1 and reports["a"].stages == ["poll", "recommend"]
        assert reports["a"].error is None
        assert reports["a"].front_sha == fleet_reference["reports"][0]["a"].front_sha
        assert resumed.service.stats()["journal"]["hits"] == journal_before + 1
        # "b" carries on with its drift cycle.
        assert reports["b"].cycle == 2 and reports["b"].stages == STAGES_OF_A_DRIFT_CYCLE
        assert reports["b"].front_sha == fleet_reference["reports"][1]["b"].front_sha

    @pytest.mark.parametrize(
        "body",
        [b"", b"[1, 2]", b"\xff\xfe not utf-8", b'{"version": 3, "tenant": "a", "record": {}}',
         b'{"version": 2, "tenant": "a", "record": []}', b'{"version": 2, "tenant": 7, "record": {}}'],
    )
    def test_an_unreadable_document_is_skipped(self, tmp_path, body):
        store = ArtifactStore(tmp_path / "store")
        daemon = AdvisorDaemon(AdvisorService(store=store), ScriptedMonitor({}), name="t")
        path = store.state_path(daemon._document_name("a"))
        path.parent.mkdir(parents=True)
        path.write_bytes(body)
        assert AdvisorDaemon(AdvisorService(store=store), ScriptedMonitor({}), name="t")._records == {}

    def test_a_document_filed_under_another_name_is_not_adopted(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        daemon = AdvisorDaemon(AdvisorService(store=store), ScriptedMonitor({}), name="t")
        record = {"cycle": 9, "stage": "done"}
        store.save_state(daemon._document_name("a"), {"version": 2, "tenant": "a", "record": record})
        store.save_state("daemon-t/copy", {"version": 2, "tenant": "a", "record": {"cycle": 1}})
        adopted = AdvisorDaemon(AdvisorService(store=store), ScriptedMonitor({}), name="t")
        assert list(adopted._records) == ["a"] and adopted._records["a"]["cycle"] == 9

    def test_a_version_1_checkpoint_is_ignored_and_left_in_place(
        self, tmp_path, tiny_learned_atlas, daemon_script, monkeypatch
    ):
        _, samples = daemon_script
        store_dir = tmp_path / "store"
        # The journal a version-1 process left behind, and its fleet checkpoint.
        first = _fleet(store_dir, tiny_learned_atlas, {"a": samples})
        (bootstrap,) = first.run_cycle()
        shutil.rmtree(store_dir / "state" / "daemon-t")
        old = {"version": 1, "tenants": {"a": {**first._records["a"], "cycle": 5}}}
        legacy = first.store.state_path("daemon-t")
        legacy.write_text(json.dumps(old, sort_keys=True))
        before = legacy.read_bytes()

        _poison_search(monkeypatch)
        upgraded = _fleet(store_dir, tiny_learned_atlas, {"a": samples})
        assert upgraded.record("a")["cycle"] == 0
        (report,) = upgraded.run_cycle()
        assert report.cycle == 1 and report.stages == ["poll", "recommend"] and report.error is None
        assert report.front_sha == bootstrap.front_sha  # a journal revive, not a search
        assert legacy.read_bytes() == before
        assert len(upgraded.store.state_names("daemon-t")) == 1


# -- (e) the histogram-free KL against the formulation it replaced -------------------------------
def histogram_kl(reference, candidate, bins=20, value_range=None):
    """``kl_divergence`` as it was: two ``np.histogram`` calls over shared edges."""
    ref = np.asarray(list(reference), dtype=float)
    cand = np.asarray(list(candidate), dtype=float)
    if ref.size == 0 or cand.size == 0:
        raise ValueError("both sample sets must be non-empty")
    if bins <= 1:
        raise ValueError("bins must be greater than 1")
    if value_range is None:
        lo = float(min(ref.min(), cand.min()))
        hi = float(max(ref.max(), cand.max()))
        if hi <= lo:
            hi = lo + 1.0
        value_range = (lo, hi)
    ref_hist, edges = np.histogram(ref, bins=bins, range=value_range)
    cand_hist, _ = np.histogram(cand, bins=edges)
    p = ref_hist.astype(float) + 1.0
    q = cand_hist.astype(float) + 1.0
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(p * np.log(p / q)))


def _outcome(function, *args, **kwargs):
    try:
        return repr(function(*args, **kwargs))
    except ValueError:
        return "ValueError"


#: Latencies as monitors report them (a fixed resolution: ties and values equal to
#: the range's end are common) next to unconstrained doubles (ranges a few floats
#: wide, huge magnitudes, signed zero, infinities and nan).
_grid = st.integers(0, 4000).map(lambda n: n / 8.0)
_any_double = st.floats(allow_nan=True, allow_infinity=True, width=64)
_window = st.one_of(
    st.lists(_grid, min_size=1, max_size=200),
    st.lists(st.floats(0.0, 5_000.0), min_size=1, max_size=60),
    st.lists(_any_double, min_size=1, max_size=12),
)


# A range wider than a double can span overflows inside ``np.linspace`` on both sides.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestHistogramFreeKL:
    @given(reference=_window, candidate=_window, bins=st.integers(2, 64))
    def test_equals_the_histogram_formulation(self, reference, candidate, bins):
        assert _outcome(kl_divergence, reference, candidate, bins) == _outcome(
            histogram_kl, reference, candidate, bins
        )

    @given(
        reference=_window,
        candidate=_window,
        bins=st.integers(2, 40),
        bounds=st.tuples(st.one_of(_grid, _any_double), st.one_of(_grid, _any_double)),
        data=st.data(),
    )
    def test_equals_it_under_an_explicit_range(self, reference, candidate, bins, bounds, data):
        # Drawn bounds (often narrower than the data, sometimes reversed, equal or not
        # finite), or bounds taken from the data so that values sit exactly on them.
        if data.draw(st.booleans()):
            bounds = (min(reference), max(reference))
        assert _outcome(kl_divergence, reference, candidate, bins, bounds) == _outcome(
            histogram_kl, reference, candidate, bins, bounds
        )

    @pytest.mark.parametrize(
        "reference, candidate, kwargs",
        [
            ([3.0, 3.0, 3.0], [3.0], {}),  # lo == hi without a range: hi = lo + 1
            ([1.0, 2.0, 3.0], [0.0, 2.5, 9.0], {"value_range": (2.0, 2.0)}),  # widened by 0.5
            ([1.0, 2.0, 3.0], [0.0, 2.5, 9.0], {"value_range": (1.5, 2.5)}),  # narrower than the data
            ([1.0, 2.0, 3.0], [3.0, 3.0, 1.0], {"bins": 2}),  # values equal to hi: last bin closed
            ([1, 2, 3], [2, 2, 2], {"value_range": (1, 3)}),  # integers
            ([1.0, 2.0], [0.5, float("nan"), 3.0], {}),  # nan in the candidate is dropped
        ],
    )
    def test_named_cases(self, reference, candidate, kwargs):
        expected = histogram_kl(reference, candidate, **kwargs)
        assert repr(kl_divergence(reference, candidate, **kwargs)) == repr(expected)

    @pytest.mark.parametrize(
        "reference, candidate, kwargs",
        [
            ([], [1.0], {}),
            ([1.0], [], {}),
            ([1.0, 2.0], [1.0], {"bins": 1}),
            ([1.0, float("nan")], [1.0, 2.0], {}),  # the range itself is nan
            ([1.0, 2.0], [float("inf")], {}),
            ([1.0, 2.0], [1.0], {"value_range": (3.0, 2.0)}),
            ([1.0], [1.0000000000000002], {}),  # two floats cannot hold twenty bins
        ],
    )
    def test_still_a_value_error(self, reference, candidate, kwargs):
        with pytest.raises(ValueError):
            histogram_kl(reference, candidate, **kwargs)
        with pytest.raises(ValueError):
            kl_divergence(reference, candidate, **kwargs)

    def test_every_drift_report_of_the_daemon_script_is_unchanged(
        self, tiny_learned_atlas, daemon_script
    ):
        target, samples = daemon_script
        atlas = _clone(tiny_learned_atlas)
        answer = AdvisorService().recommend(atlas, expected_scale=2.0)
        knee = answer.knee_point().plan
        detector = atlas.drift_detector(answer, knee, samples[0].recent_latencies)
        state = detector.state()
        for sample, drifted in zip(samples, ([], [target])):
            reports = detector.check_all(sample.recent_latencies)
            assert sorted(reports) == sorted(state["real"])
            assert sorted(a for a, r in reports.items() if r.drift_detected) == drifted
            for api, report in reports.items():
                baseline = histogram_kl(state["real"][api], state["approx"][api])
                recent = histogram_kl(state["real"][api], sample.recent_latencies[api])
                assert repr(report.baseline_divergence) == repr(baseline)
                assert repr(report.recent_divergence) == repr(recent)
        # The durable form reproduces every float and keeps its name.
        revived = DriftDetector.from_state(json.loads(json.dumps(state)))
        assert revived.content_digest() == detector.content_digest()
        assert revived.check_all(samples[1].recent_latencies) == detector.check_all(
            samples[1].recent_latencies
        )


# -- (f) the lean publish ------------------------------------------------------------------------
class TestPublish:
    def test_racing_writers_leave_one_whole_document_and_no_temp_file(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        bodies = [{"writer": k, "payload": [k] * 4000} for k in range(8)]
        barrier = threading.Barrier(len(bodies))
        outcomes = []

        def publish(body):
            barrier.wait()
            for _ in range(25):
                outcomes.append(store.save_state("fleet/doc", body))

        threads = [threading.Thread(target=publish, args=(body,)) for body in bodies]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            # A reader racing the writers only ever sees a whole document.
            while any(thread.is_alive() for thread in threads):
                seen = store.load_state("fleet/doc")
                assert seen is None or seen in bodies
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [True] * (25 * len(bodies))
        assert store.load_state("fleet/doc") in bodies
        assert list((tmp_path / "store").rglob("*.tmp")) == []

    def test_a_dead_writers_temp_file_does_not_block(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        path = store.state_path("doc")
        # Same process and thread id as this writer (a recycled pid), and another's.
        mine = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        mine.write_bytes(b"half a docu")
        theirs = path.with_name(f"{path.name}.1-1.tmp")
        theirs.write_bytes(b"half a docu")
        assert store.save_state("doc", {"whole": True})
        assert store.load_state("doc") == {"whole": True}
        assert not mine.exists() and theirs.read_bytes() == b"half a docu"

    def test_a_missing_parent_directory_is_created(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.state_names("daemon-x") == []
        assert store.save_state("daemon-x/doc", {"n": 1})
        assert store.state_names("daemon-x") == ["daemon-x/doc"]
        assert store.load_state("daemon-x/doc") == {"n": 1}
        assert store.save(("k",), [1, 2, 3]) and store.load(("k",)) == [1, 2, 3]

    def test_a_failed_publish_reports_false_and_leaves_nothing(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        assert store.save_state("doc", {"n": 1})

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_module.os, "fsync", full_disk)
        assert store.save_state("doc", {"n": 2}) is False
        assert store.save(("k",), [1]) is False
        monkeypatch.undo()
        assert store.load_state("doc") == {"n": 1} and store.load(("k",)) is None
        assert list((tmp_path / "store").rglob("*.tmp")) == []

    def test_load_state_degrades_on_what_a_reader_can_meet(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.load_state("absent") is None
        for body in (b"", b"{", b"\xff\xfe", b"[1]", b"7"):
            store.state_path("doc").write_bytes(body)
            assert store.load_state("doc") is None
        store.state_path("dir.json").mkdir()
        assert store.load_state("dir") is None


# -- (g) the write protocol as a state machine ---------------------------------------------------
#: What a tenant's monitor can answer in one cycle.
KINDS = ("quiet", "drift", "idle")


def _relearned(atlas):
    """The advisor a restarted process learns again: the knowledge as it was before
    any splice.  Telemetry and estimator are shared, not deep-copied (0.1 s each) —
    the daemon only ever rebinds ``api_profiles`` entries, ``crossover_agent`` and
    ``replan_prior``."""
    fresh = copy.copy(atlas)
    fresh.knowledge = copy.copy(atlas.knowledge)
    fresh.knowledge.api_profiles = dict(atlas.knowledge.api_profiles)
    return fresh


@pytest.fixture(scope="module")
def protocol_world(tmp_path_factory, tiny_learned_atlas, daemon_script):
    """What every example of the state machine starts from: the two monitor samples of
    the daemon script (on model; one API drifting, with its re-profiled window) and an
    object tier that already journals both searches, so an example pays for the
    protocol and not for 0.3 s searches."""
    _, samples = daemon_script
    root = tmp_path_factory.mktemp("protocol")
    warm = _fleet(root / "template", tiny_learned_atlas, {"a": samples})
    for drifted in (0, 1):
        (report,) = warm.run_cycle()
        assert report.recommended and len(report.drifted) == drifted, report
    shutil.rmtree(root / "template" / "state")
    assert not any(_sample_key(warm, "a", cycle) in warm.store for cycle in (1, 2))
    return {"atlas": tiny_learned_atlas, "samples": samples, "template": root / "template", "root": root}


class DaemonProtocolMachine(RuleBasedStateMachine):
    """A two-tenant fleet (the subject) that is killed at any point of the write
    protocol, damaged and restarted, against one never-interrupted single-tenant
    daemon per tenant (the references) that is asked for the same cycles.

    The monitor is the machine's: a pure function of ``(tenant, cycle)`` whose script
    grows as rules fire, and which counts the subject's polls.  A killed fleet can lose
    an in-flight sample, a baselines object or a served front's object (lost, truncated
    or holding another front) before it restarts; a tenant whose front object is gone
    re-plans its next drift from the affinity seeds, which takes it off its
    reference's path like any other damage.  A tenant drifts at
    most once per example: the splice of an *earlier* cycle lives in process memory
    (a restarted process learns its knowledge again, without it), so a second drift
    cycle after a restart is not the uninterrupted run's — ROADMAP item 10, and not
    a property of the write protocol.
    """

    world = None  # set by the test that runs the machine

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(dir=self.world["root"]))
        self.script = {t: [] for t in TENANTS}  # script[t][cycle - 1]: that cycle's sample
        self.drifted = set()  # tenants whose monitor has reported the drift
        self.polling = None  # whoever the subject polled last: the cycle it is in
        self.polls = Counter()  # the subject's polls per (tenant, cycle)
        self.sample_saves = set()  # (tenant, cycle) whose sample the subject wrote
        self.diverged = set()  # tenants a damage rule took off the references' path
        self.sample_lost = set()
        self.orphans = set()  # (tenant, cycle) samples whose verdict a kill kept from getting out
        self.leaked = set()  # orphans whose cycle, damaged as well, then took another route
        self.expected = {t: {} for t in TENANTS}  # cycle -> (report, document)
        self.killed = False
        self.plan = None  # the armed kill: (how, victim, count)
        shutil.copytree(self.world["template"], self.root / "subject")
        self.references = self._references(self.world["template"])
        self.subject = self._start_subject()

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    # -- the world --------------------------------------------------------------------------
    def _sample(self, tenant, cycle):
        script = self.script[tenant]
        while len(script) < cycle:  # asked ahead of the rules (a tenant that got ahead): idle
            script.append(None)
        return script[cycle - 1]

    def _poll_subject(self, tenant, cycle):
        sample = self._sample(tenant, cycle)
        if self.polls[tenant, cycle]:
            # Polled before: only a cycle that left no document may be polled again.
            document = self.subject.store.load_state(self.subject._document_name(tenant))
            assert document is None or document["record"]["cycle"] < cycle, (tenant, cycle, document)
        self.polls[tenant, cycle] += 1
        self.polling = tenant
        if self.plan is not None and self.plan[:2] == ("poll", tenant):
            raise _Kill("between the poll and the first publish")
        return sample

    def _daemon(self, store_dir, monitor, tenants):
        daemon = AdvisorDaemon(AdvisorService(store=ArtifactStore(store_dir)), monitor, name="t")
        for tenant in tenants:
            daemon.register(tenant, _relearned(self.world["atlas"]), expected_scale=2.0)
        return daemon

    def _references(self, store_dir):
        """One never-interrupted daemon per tenant, as new processes over a copy of
        ``store_dir`` — one store for all of them, like the subject's: content-equal
        tenants name the same baselines object."""
        target = self.root / "references"
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(store_dir, target)
        monitor = SimpleNamespace(poll=self._sample)
        return {tenant: self._daemon(target, monitor, [tenant]) for tenant in TENANTS}

    def _start_subject(self):
        subject = self._daemon(self.root / "subject", SimpleNamespace(poll=self._poll_subject), TENANTS)
        save = subject.store.save

        def counting_save(key, value):
            saved = save(key, value)
            if key[0] == "daemon-sample":
                self.sample_saves.add(key[2:])
                if self.plan is not None and self.plan[:2] == ("sample", key[2]):
                    self.orphans.add(key[2:])
                    raise _Kill("after the sample, before the document that names its cycle")
            return saved

        subject.store.save = counting_save
        return subject

    def _on_disk(self, tenant):
        document = self.subject.store.load_state(self.subject._document_name(tenant))
        return None if document is None else document["record"]

    # -- running the subject ----------------------------------------------------------------
    def _run_subject(self, plan):
        """One ``run_cycle`` of the subject under an armed kill (``None``: it survives)."""
        self.plan, published = plan, Counter()

        def after_document(tenant, stage):
            published[tenant] += 1
            if plan is not None and plan == ("document", tenant, published[tenant]):
                raise _Kill(f"after {tenant}'s document {stage}")

        def check_all(detector, *args, **kwargs):
            if plan is not None and plan[:2] == ("check", self.polling):
                raise _Kill("in the drift check, nothing published yet")
            return real_check_all(detector, *args, **kwargs)

        real_check_all = DriftDetector.check_all
        self.subject._after_stage = after_document
        DriftDetector.check_all = check_all
        try:
            reports = self.subject.run_cycle()
        except _Kill:
            self.killed, self.subject._after_stage = True, None
            return
        finally:
            DriftDetector.check_all = real_check_all
            self.plan = None
        self.killed = False
        self._completed({report.tenant: report for report in reports})

    def _completed(self, reports):
        """Every tenant closed a cycle: hold it against its reference."""
        for tenant in TENANTS:
            report, cycle = reports[tenant], reports[tenant].cycle
            assert self.subject._records[tenant]["stage"] == "done"
            assert self.subject._records[tenant]["cycle"] == cycle == len(self.script[tenant])
            if tenant in self.diverged:
                # Damaged on purpose: degraded, never crashed.
                assert report.error in (None, "persisted sample lost; cycle abandoned"), report
                continue
            # Polled again, an orphaned cycle wrote its sample again and dropped it.
            closed = {orphan for orphan in self.orphans if orphan[0] == tenant and orphan[1] <= cycle}
            assert not any(("daemon-sample", "t") + orphan in self.subject.store for orphan in closed)
            self.orphans -= closed
            reference = self.references[tenant]
            while reference._records.get(tenant, {"cycle": 0})["cycle"] < cycle:
                (expected,) = reference.run_cycle()
                self.expected[tenant][expected.cycle] = (expected, _documents(reference)[tenant])
            expected, document = self.expected[tenant][cycle]
            assert report.error is None and expected.error is None, (report, expected)
            if report.stages[:1] == ["poll"]:
                assert report == expected  # the whole cycle ran here: field for field
                if not expected.drifted:
                    assert (tenant, cycle) not in self.sample_saves
            else:
                assert report.stages == expected.stages[-len(report.stages):], (report, expected)
                assert (report.recommended, report.front_sha, report.agent, report.agent_reason) == (
                    expected.recommended, expected.front_sha, expected.agent, expected.agent_reason
                )
                assert (report.prior, report.prior_reason) == (expected.prior, expected.prior_reason)
            # Front, agent and baselines digests, drifted APIs, cycle and stage: the bytes.
            assert _documents(self.subject)[tenant] == document
        if self.diverged:
            # From here on the references are uninterrupted daemons over what the
            # damage left (for the undamaged tenants: over the documents just compared).
            self.diverged.clear()
            self.sample_lost.clear()
            self.references = self._references(self.root / "subject")

    # -- rules ------------------------------------------------------------------------------
    kills = st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["poll", "check", "sample"]), st.sampled_from(TENANTS), st.just(0)),
        st.tuples(st.just("document"), st.sampled_from(TENANTS), st.integers(1, 4)),
    )

    @precondition(lambda self: not self.killed)
    @rule(kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)), kill=kills)
    def cycle(self, kinds, kill):
        """The monitors answer ``kinds`` for the tenants' next cycles; the fleet runs one."""
        on_model, drifting = self.world["samples"]
        for tenant, kind in zip(TENANTS, kinds):
            record = self._on_disk(tenant)
            armed = record is not None and record["detector"] is not None
            if kind == "idle":
                sample = None
            elif kind == "drift" and armed and tenant not in self.drifted:
                self.drifted.add(tenant)
                sample = drifting
            else:  # whatever the baselines were armed on, again
                latencies = (drifting if tenant in self.drifted else on_model).recent_latencies
                sample = MonitorSample(recent_latencies=latencies)
            self.script[tenant].append(sample)
        self._run_subject(kill)

    @precondition(lambda self: self.killed)
    @rule(kill=kills)
    def restart(self, kill):
        self.subject = self._start_subject()
        self._run_subject(kill)

    def _damaged(self, tenant):
        """``tenant`` leaves its reference's path.  An orphan it has is the one leak
        there is (ROADMAP item 6): killed between its sample and its verdict, and
        polled again the cycle need not drift any more — nobody owns the object."""
        self.diverged.add(tenant)
        orphans = {orphan for orphan in self.orphans if orphan[0] == tenant}
        self.leaked |= orphans
        self.orphans -= orphans

    @precondition(lambda self: self.killed)
    @rule(victim=st.sampled_from(TENANTS))
    def lose_the_sample(self, victim):
        record = self._on_disk(victim)
        if record is not None and record["stage"] != "done":
            self.subject.store.discard(_sample_key(self.subject, victim, record["cycle"]))
            self.sample_lost.add(victim)
            self._damaged(victim)

    @precondition(lambda self: self.killed)
    @rule(victim=st.sampled_from(TENANTS))
    def lose_the_baselines(self, victim):
        record = self._on_disk(victim)
        if record is not None and record["detector"] is not None:
            self.subject.store.discard(("daemon-detector", record["detector"]))
            # Content-equal tenants name the same object: everyone naming it re-arms.
            for tenant in TENANTS:
                other = self._on_disk(tenant)
                if other is not None and other["detector"] == record["detector"]:
                    self._damaged(tenant)

    @precondition(lambda self: self.killed)
    @rule(victim=st.sampled_from(TENANTS), damage=st.sampled_from(sorted(FRONT_DAMAGE)))
    def lose_or_damage_the_front(self, victim, damage):
        record = self._on_disk(victim)
        key = ("daemon-front", record["front_sha"]) if record is not None else None
        if key is not None and self.subject.store.path_for(key).exists():
            how, _reason = FRONT_DAMAGE[damage]
            how(self.subject.store, key)
            # Content-equal tenants name the same object: everyone naming it re-plans cold.
            for tenant in TENANTS:
                other = self._on_disk(tenant)
                if other is not None and other["front_sha"] == record["front_sha"]:
                    self._damaged(tenant)

    # -- invariants -------------------------------------------------------------------------
    @invariant()
    def an_in_flight_document_finds_its_sample_and_no_other_sample_exists(self):
        store = self.subject.store
        for tenant in TENANTS:
            record = self._on_disk(tenant)
            cycle, stage = (0, "done") if record is None else (record["cycle"], record["stage"])
            if stage != "done" and tenant not in self.sample_lost:
                assert isinstance(store.load(_sample_key(self.subject, tenant, cycle)), MonitorSample)
            # The one sample a tenant may have is its in-flight cycle's.
            for other in range(1, len(self.script[tenant]) + 2):
                if (stage == "done" or other != cycle) and (tenant, other) not in self.orphans | self.leaked:
                    assert _sample_key(self.subject, tenant, other) not in store, (tenant, other, record)

    @invariant()
    def a_fleet_at_rest_has_closed_every_cycle(self):
        if not self.killed:
            for tenant in TENANTS:
                record = self._on_disk(tenant)
                assert (record is None and not self.script[tenant]) or record["stage"] == "done"


def test_the_write_protocol_state_machine(protocol_world):
    class Machine(DaemonProtocolMachine):
        world = protocol_world

    deep = settings.default.max_examples >= 500  # the ``ci`` profile
    run_state_machine_as_test(
        Machine,
        settings=settings(
            max_examples=300 if deep else 50,
            stateful_step_count=16 if deep else 12,
            suppress_health_check=list(HealthCheck),
        ),
    )
