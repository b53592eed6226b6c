"""What a daemon cycle writes, and what a restart finds: per-tenant loop documents,
drift baselines named by digest, the histogram-free KL and the lean publish.

Recovery is argued as an invariant over every transition, not one scripted kill:
whichever tenant of a two-tenant fleet dies after whichever stage checkpoint, the
resumed fleet lands on the uninterrupted run's fronts, agents and *documents*, and
a tenant's checkpoints never touch another tenant's document.  Every defect of the
durable state — a lost, truncated or relabelled baselines object, a torn document,
a document older code wrote — costs one tenant one journal-served bootstrap, never
a search, never the fleet.

``kl_divergence`` keeps the two-``np.histogram`` formulation it replaced as its
oracle here; equality is ``repr``-exact.
"""

import json
import os
import shutil
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_serving as serving_suite
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


def _no_training(monkeypatch):
    def no_training(self):
        raise AssertionError("a resumed drift cycle must reuse the stored agent")

    monkeypatch.setattr(AtlasGA, "train_agent", no_training)


@pytest.fixture(scope="module")
def fleet_reference(tmp_path_factory, tiny_learned_atlas, daemon_script):
    """The uninterrupted three-cycle run of a two-tenant fleet (both drift in cycle 2).

    Yields the daemon, its per-cycle reports and documents, the ``_after_stage``
    calls it made, and a copy of its store taken between cycles 1 and 2 — where
    every kill case starts from, in a fresh process.
    """
    _, samples = daemon_script
    root = tmp_path_factory.mktemp("fleet")
    daemon = _fleet(root / "store", tiny_learned_atlas, {t: samples for t in TENANTS})
    calls = []
    daemon._after_stage = lambda tenant, stage: calls.append((tenant, stage))
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
        "template": root / "after-cycle-1",
    }


# -- (a) a checkpoint is one tenant's document -------------------------------------------------
class TestTenantDocuments:
    @staticmethod
    def _spied_quiet_cycle(store_dir, atlas, samples, fleet_size):
        on_model = [samples[0], MonitorSample(recent_latencies=samples[0].recent_latencies)]
        tenants = [f"tenant-{k}" for k in range(fleet_size)]
        daemon = _fleet(store_dir, atlas, {t: on_model for t in tenants})
        daemon.run_cycle()
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
            # Two checkpoints per polled tenant-cycle (poll, drift), one file per tenant.
            assert len(written[fleet_size]) == 2 * fleet_size
            assert len({name for name, _ in written[fleet_size]}) == fleet_size
            assert sorted(daemon.store.state_names("daemon-t")) == sorted(
                {name for name, _ in written[fleet_size]}
            )
        # tenant-0 sorts first: its two documents are the first two written, and they
        # are the same bytes whether the fleet holds two tenants or eight.
        assert written[2][:2] == written[8][:2]

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

    def test_a_polled_tenant_cycle_publishes_sample_then_poll_then_drift(
        self, tmp_path, tiny_learned_atlas, daemon_script, monkeypatch
    ):
        _, samples = daemon_script
        on_model = [samples[0], MonitorSample(recent_latencies=samples[0].recent_latencies)]
        daemon = _fleet(tmp_path / "store", tiny_learned_atlas, {"a": on_model})
        daemon.run_cycle()
        published = []
        real_publish = ArtifactStore._publish

        def spy(path, blob):
            published.append(path)
            return real_publish(path, blob)

        monkeypatch.setattr(ArtifactStore, "_publish", staticmethod(spy))
        daemon.run_cycle()
        document = daemon.store.state_path(daemon._document_name("a"))
        sample = daemon.store.path_for(_sample_key(daemon, "a", 2))
        assert published == [sample, document, document]

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

    def test_after_stage_fires_where_it_always_did(self, fleet_reference):
        bootstrap = [(t, s) for t in TENANTS for s in ("poll", "recommend")]
        drift = [(t, s) for t in TENANTS for s in STAGES_OF_A_DRIFT_CYCLE]
        idle = [(t, "poll") for t in TENANTS]
        assert fleet_reference["calls"] == bootstrap + drift + idle


# -- (b) every tenant x every checkpoint --------------------------------------------------------
class TestKillAfterEveryCheckpoint:
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
        with pytest.raises(_Kill):
            dying.run_cycle()
        # The victim's checkpoints never touched the other tenant's document: "a" runs
        # first, so "b" is still where cycle 1 left it and "a" already closed cycle 2.
        expected_other = after_1[other] if victim == "a" else after_2[other]
        assert _documents(dying)[other] == expected_other
        in_flight = _sample_key(dying, victim, 2)
        assert (in_flight in dying.store) == (crash_stage != "recommend")

        resumed = _fleet(store_dir, tiny_learned_atlas, scripts)
        reports = {r.tenant: r for r in resumed.run_cycle()}
        report = reports[victim]
        assert all(r.error is None for r in reports.values())
        if crash_stage == "recommend":
            assert report.idle and report.cycle == 3
        else:
            assert report.cycle == 2 and report.recommended
            assert report.stages == STAGES_OF_A_DRIFT_CYCLE[STAGES_OF_A_DRIFT_CYCLE.index(crash_stage) + 1 :]
            assert (report.agent, report.agent_reason) == ("reused", None)
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
        assert [(stage, kept) for stage, _, kept in seen] == [
            ("poll", True), ("drift", True), ("splice", True), ("recertify", True), ("recommend", False),
        ]


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


class TestDamagedDurableState:
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
    @settings(deadline=None)
    @given(reference=_window, candidate=_window, bins=st.integers(2, 64))
    def test_equals_the_histogram_formulation(self, reference, candidate, bins):
        assert _outcome(kl_divergence, reference, candidate, bins) == _outcome(
            histogram_kl, reference, candidate, bins
        )

    @settings(deadline=None)
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
