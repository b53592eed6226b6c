"""Memoised content digests ≡ the span-walking hashers they replaced, exactly.

The content objects that never change after construction own their digest:
``Trace`` keeps the bytes it contributes to a trace-set fingerprint,
``NetworkFootprint``, ``NetworkModel`` and a fitted ``ResourceEstimator`` keep their
hex (the footprint also the per-API byte tuples a Δ-table key reads), and
``fingerprint_traces`` / ``AdvisorService._request_key`` only compose those pieces
while still walking every mutable container per call; the ``Atlas`` keeps the texts
composed from immutable inputs and reuses one only for the very same input objects.  The hashers as they stood
before — walking every span, edge and coefficient on every request — live on below as
the oracles.  The law is on *values*: the hex names objects in the durable store and
keys the request journal, so it must not move by a bit, first call and cached call.

Run deeper with ``--hypothesis-profile=ci`` (see ``tests/conftest.py``).
"""

import copy
import dataclasses
import hashlib
import pickle
from typing import Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_artifacts import TINY_GA, _perturb
from test_compiled import random_trace
from test_stacked_scenarios import ROBUST_S4

from repro.analysis.testbed import build_testbed
from repro.apps import Component, ResourceProfile
from repro.cluster import AutoscalerConfig, LinkSpec, MigrationPlan, NetworkModel, NodeSpec
from repro.learning import EdgeFootprint, NetworkFootprint, ResourceEstimator
from repro.optimizer import CrossoverAgent
from repro.quality import (
    CompiledTraceSet,
    EgressTrafficObjective,
    MigrationChurnObjective,
    MigrationPreferences,
    Objective,
    PlacementProblem,
    PricingCatalog,
)
from repro.quality.artifacts import fingerprint_traces
from repro.recommend import AdvisorService, Atlas, AtlasConfig, ReplanPrior
from repro.recommend import advisor
from repro.recommend.advisor import _describe
from repro.serving import AdvisorDaemon, ArtifactStore, MonitorSample
from repro.simulator import simulate_workload
from repro.telemetry.tracing import Trace, TraceStore
from repro.workload import WorkloadGenerator, default_scenario


# -- the references: the hashers as they stood before the digests were memoised ---------------
def oracle_sha(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def oracle_fingerprint_traces(traces):
    parts = []
    for trace in traces:
        shape = trace.shape()
        parts.append(trace.api)
        parts.append(str(shape.root_index))
        parts.append(",".join(str(i) for i in shape.parent_index))
        for span in trace.spans:
            parts.append(
                f"{span.component}|{span.operation}|{span.start_ms!r}|{span.duration_ms!r}"
            )
    return oracle_sha(parts)


def oracle_fingerprint_footprint(footprint):
    parts = []
    for api in footprint.apis:
        for (source, destination), edge in sorted(footprint.edges_of(api).items()):
            parts.append(
                f"{api}|{source}|{destination}|"
                f"{edge.request_bytes!r}|{edge.response_bytes!r}"
            )
    return oracle_sha(parts)


def oracle_fingerprint_network(network):
    parts = []
    for (a, b), link in sorted(network._links.items()):
        parts.append(f"{a}-{b}|{link.latency_ms!r}|{link.bandwidth_mbps!r}")
    return oracle_sha(parts)


def oracle_estimator_fingerprint(estimator):
    parts = [repr(estimator.apis)]
    for (resource, component), (idle, coef) in sorted(estimator._models.items()):
        parts.append(f"{resource}|{component}|{idle!r}|{coef.tobytes().hex()}")
    return oracle_sha(parts)


def oracle_request_parts(atlas, kwargs):
    """The part list of the former ``_request_key`` (its hex is ``oracle_sha`` of it)."""
    knowledge = atlas.knowledge
    parts = []
    for api in knowledge.apis:
        profile = knowledge.api_profiles[api]
        parts.append(api)
        parts.append(oracle_fingerprint_traces(profile.sample_traces))
        parts.append(",".join(sorted(profile.stateful_components)))
    parts.append(oracle_fingerprint_footprint(knowledge.footprint))
    parts.append(oracle_estimator_fingerprint(knowledge.estimator))
    parts.append(oracle_fingerprint_network(atlas.network))
    parts.append(repr(sorted(atlas.current_plan.items())))
    parts.append(repr(list(atlas.locations)))
    parts.append(repr(atlas.application.component_names))
    parts.append(
        repr([(comp.name, comp.resources.storage_gb) for comp in atlas.application.components])
    )
    for described in (
        atlas.preferences,
        atlas.config,
        sorted(atlas._pricing_catalogs().items()),
    ):
        parts.append(_describe(described))
    for name in sorted(kwargs):
        value = kwargs[name]
        if name == "api_rates" and isinstance(value, Mapping):
            value = sorted((api, list(series)) for api, series in value.items())
        parts.append(f"{name}={_describe(value)}")
    return parts


# -- inputs -----------------------------------------------------------------------------------
#: ``repr`` is the wire encoding of a float, so the values that stress it: both zeros,
#: the smallest subnormal, the smallest normal, full-mantissa and huge magnitudes.
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2, 1.0 / 3.0,
    1.0 + 2.0**-52, 123456789.12345679, 1.7976931348623157e308,
]
_finite = st.floats(allow_nan=False, allow_infinity=False)
_starts = st.one_of(st.sampled_from(_EDGE_FLOATS + [-1.5, -5e-324]), _finite)
_durations = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
)
_timings = st.lists(st.tuples(_starts, _durations), min_size=0, max_size=16)


def retimed(trace, timings, api="/api"):
    """``trace``'s topology with the drawn (start, duration) pairs laid over its spans."""
    spans = [
        dataclasses.replace(span, start_ms=start, duration_ms=duration)
        for span, (start, duration) in zip(trace.spans, timings)
    ] + trace.spans[len(timings) :]
    return Trace(trace.trace_id, api, spans)


def _learn_tiny(app, telemetry):
    atlas = Atlas(
        app,
        MigrationPreferences.pin_on_prem(["Database"]),
        config=AtlasConfig(traces_per_api=15, ga=TINY_GA),
    )
    atlas.learn(telemetry)
    return atlas


@pytest.fixture()
def tiny_atlas(tiny_telemetry):
    app, result = tiny_telemetry
    return _learn_tiny(app, result.telemetry)


@pytest.fixture(scope="module")
def other_telemetry(tiny_telemetry):
    """The tiny app observed under a different workload (what a re-fit would see)."""
    app, _result = tiny_telemetry
    scenario = default_scenario(app, base_rps=12.0, peak_rps=40.0, duration_ms=40_000.0)
    requests = WorkloadGenerator(app, scenario, seed=8).generate(40_000.0)
    return simulate_workload(app, requests, seed=8).telemetry


# -- (a) the oracle ---------------------------------------------------------------------------
class TestOracle:
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.lists(st.tuples(_timings, st.sampled_from(["/api", "/other", "/ünï"])), max_size=3),
    )
    def test_trace_set_fingerprint_first_call_and_cached(self, seed, overlays):
        rng = np.random.default_rng(seed)
        traces = [random_trace(rng, f"t{k}") for k in range(int(rng.integers(1, 5)))]
        for position, (timings, api) in enumerate(overlays[: len(traces)]):
            traces[position] = retimed(traces[position], timings, api)
        want = oracle_fingerprint_traces(traces)
        assert fingerprint_traces(traces) == want  # builds every trace's stream
        assert fingerprint_traces(traces) == want  # composes the kept streams
        assert fingerprint_traces(tuple(traces)) == want
        # A kept stream serves the trace in any other set it appears in.
        assert fingerprint_traces(traces[::-1]) == oracle_fingerprint_traces(traces[::-1])
        assert fingerprint_traces(traces[:1]) == oracle_fingerprint_traces(traces[:1])
        assert fingerprint_traces([]) == oracle_fingerprint_traces([])

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["/a", "/b", "/c"]),
                st.sampled_from(["X", "Y", "Z"]),
                st.sampled_from(["X", "Y", "Z"]),
                _starts,
                _starts,
            ),
            max_size=12,
        )
    )
    def test_footprint_fingerprint_first_call_and_cached(self, rows):
        footprint = NetworkFootprint([EdgeFootprint(*row) for row in rows])
        want = oracle_fingerprint_footprint(footprint)
        assert footprint.content_digest() == want
        assert footprint.content_digest() == want
        pairs = [("X", "Y"), ("Z", "X"), ("Y", "Y")]
        for api in ("/a", "/b", "/c", "/none"):
            edges = tuple(pairs)
            want_bytes = tuple(
                (footprint.request_bytes(api, *edge), footprint.response_bytes(api, *edge))
                for edge in edges
            )
            assert footprint.edge_bytes(api, edges) == want_bytes  # built
            assert footprint.edge_bytes(api, edges) is footprint.edge_bytes(api, edges)
            assert footprint.edge_bytes(api, edges[:1]) == want_bytes[:1]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 3),
                st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(0.0, 1e6)),
                st.one_of(st.sampled_from(_EDGE_FLOATS[2:]), st.floats(1e-3, 1e6)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_network_fingerprint_first_call_and_cached(self, rows):
        network = NetworkModel({(a, b): LinkSpec(lat, bw) for a, b, lat, bw in rows})
        want = oracle_fingerprint_network(network)
        assert network.content_digest() == want
        assert network.content_digest() == want
        # A derived network is a new object with its own digest.
        (a, b), link = sorted(network._links.items())[0]
        latency = 0.5 if link.latency_ms != 0.5 else 1.5
        derived = network.derive({(a, b): LinkSpec(latency, link.bandwidth_mbps)})
        assert derived.content_digest() == oracle_fingerprint_network(derived) != want
        assert network.content_digest() == want

    @given(
        st.lists(st.sampled_from(["/a", "/b", "/c"]), unique=True, max_size=3),
        st.lists(
            st.tuples(
                st.sampled_from(["cpu_millicores", "memory_mb"]),
                st.sampled_from(["X", "Y", "Z"]),
                _starts,
                st.lists(_starts, min_size=3, max_size=3),
            ),
            max_size=6,
        ),
    )
    def test_estimator_fingerprint_first_call_and_cached(self, tiny_telemetry, apis, models):
        app, result = tiny_telemetry
        estimator = ResourceEstimator(app, result.telemetry)
        estimator._apis = sorted(apis)
        estimator._models = {
            (resource, component): (idle, np.asarray(coef[: len(apis)], dtype=float))
            for resource, component, idle, coef in models
        }
        want = oracle_estimator_fingerprint(estimator)
        assert estimator.content_digest() == want
        assert estimator.content_digest() == want

    def test_fitted_estimator_and_learned_footprint(self, tiny_atlas):
        knowledge = tiny_atlas.knowledge
        assert knowledge.estimator.content_digest() == oracle_estimator_fingerprint(
            knowledge.estimator
        )
        assert knowledge.footprint.content_digest() == oracle_fingerprint_footprint(
            knowledge.footprint
        )

    def test_request_key_is_the_oracle_composition(self, tiny_atlas):
        service = AdvisorService()
        for kwargs in (
            {},
            {"expected_scale": 2.0},
            {"expected_scale": 5.0, "certify": 8, "ga_config": TINY_GA},
            {"api_rates": {"/write": (1.0, 2.5), "/read": [3.0, 0.1 + 0.2]}},
        ):
            want = ("recommend", oracle_sha(oracle_request_parts(tiny_atlas, kwargs)))
            assert service._request_key(tiny_atlas, kwargs) == want
            assert service._request_key(tiny_atlas, kwargs) == want


# -- (b) what must move a digest, and what must not ---------------------------------------------
class TestInvalidation:
    def test_with_spans_is_a_new_object_with_a_new_digest(self):
        trace = random_trace(np.random.default_rng(3), "t")
        before = fingerprint_traces([trace])
        changed = _perturb(trace, 1.0000001)
        assert changed is not trace
        assert fingerprint_traces([changed]) == oracle_fingerprint_traces([changed]) != before
        assert fingerprint_traces([trace]) == before  # the original keeps its own

    def test_a_trace_cannot_be_renamed_under_its_memo(self):
        trace = random_trace(np.random.default_rng(4), "t")
        before = fingerprint_traces([trace])
        with pytest.raises(AttributeError):
            trace.api = "/renamed"
        renamed = Trace(trace.trace_id, "/renamed", trace.spans)
        assert fingerprint_traces([renamed]) == oracle_fingerprint_traces([renamed]) != before
        assert fingerprint_traces([trace]) == before

    def test_refit_on_other_telemetry_moves_the_estimator_digest(
        self, tiny_telemetry, other_telemetry
    ):
        app, result = tiny_telemetry
        estimator = ResourceEstimator(app, result.telemetry).fit()
        first = estimator.content_digest()
        assert estimator.fit().content_digest() == first  # same telemetry, same content
        estimator.telemetry = other_telemetry
        second = estimator.fit().content_digest()
        assert second == oracle_estimator_fingerprint(estimator) != first

    def test_failed_refit_leaves_no_stale_digest(self, tiny_telemetry):
        app, result = tiny_telemetry
        estimator = ResourceEstimator(app, result.telemetry).fit()
        estimator.content_digest()
        estimator.telemetry = type(result.telemetry)(window_ms=result.telemetry.window_ms)
        with pytest.raises(ValueError):
            estimator.fit()
        assert estimator.content_digest() == oracle_estimator_fingerprint(estimator)

    def test_daemon_splice_moves_exactly_the_spliced_api(self, tiny_atlas):
        service = AdvisorService()
        knowledge = tiny_atlas.knowledge
        kwargs = {"expected_scale": 2.0}
        key_before = service._request_key(tiny_atlas, kwargs)
        parts_before = {
            api: fingerprint_traces(knowledge.api_profiles[api].sample_traces)
            for api in knowledge.apis
        }
        target = knowledge.apis[0]
        window = [_perturb(t, 1.2) for t in knowledge.api_profiles[target].sample_traces]
        spliced = AdvisorDaemon._splice(
            tiny_atlas,
            {"drifted": [target]},
            MonitorSample(recent_latencies={}, traces_by_api={target: window}),
        )
        assert spliced == [target]
        key_after = service._request_key(tiny_atlas, kwargs)
        assert key_after != key_before
        assert key_after == ("recommend", oracle_sha(oracle_request_parts(tiny_atlas, kwargs)))
        for api in knowledge.apis:
            part = fingerprint_traces(knowledge.api_profiles[api].sample_traces)
            assert (part != parts_before[api]) == (api == target)

    def test_an_installed_agent_moves_the_key_by_content(self, tiny_atlas, tmp_path):
        """Agent-less keys keep their hex (the oracle composition above); an installed
        crossover agent joins the key by its content digest, not its identity."""
        service = AdvisorService()
        kwargs = {"expected_scale": 2.0}
        bare = service._request_key(tiny_atlas, kwargs)
        assert bare == ("recommend", oracle_sha(oracle_request_parts(tiny_atlas, kwargs)))
        agent = tiny_atlas.recommend(**kwargs).result.agent
        tiny_atlas.knowledge.crossover_agent = agent
        keyed = service._request_key(tiny_atlas, kwargs)
        assert keyed != bare

        store = ArtifactStore(tmp_path / "store")
        assert store.save(("agent", agent.content_digest()), agent)
        twin = store.load(("agent", agent.content_digest()))
        assert twin is not agent
        tiny_atlas.knowledge.crossover_agent = twin
        assert service._request_key(tiny_atlas, kwargs) == keyed
        tiny_atlas.knowledge.crossover_agent = CrossoverAgent(
            n_components=agent.n_components, pinned=agent.pinned, seed=99
        )
        assert service._request_key(tiny_atlas, kwargs) not in (bare, keyed)
        tiny_atlas.learn(tiny_atlas.telemetry)  # dropped, like everything learned
        assert tiny_atlas.knowledge.crossover_agent is None
        assert service._request_key(tiny_atlas, kwargs) == bare

    def test_an_installed_prior_moves_the_key_by_content(self, tiny_atlas):
        """Prior-less keys are the parent's composition byte for byte; an installed
        re-plan prior joins the key by its content digest, after the agent."""
        service = AdvisorService()
        kwargs = {"expected_scale": 2.0}
        bare = service._request_key(tiny_atlas, kwargs)
        assert bare == ("recommend", oracle_sha(oracle_request_parts(tiny_atlas, kwargs)))
        components = tuple(tiny_atlas.application.component_names)
        prior = ReplanPrior(components, ((0,) * len(components),), (tiny_atlas.knowledge.apis[0],))
        tiny_atlas.knowledge.replan_prior = prior
        keyed = service._request_key(tiny_atlas, kwargs)
        parts = oracle_request_parts(tiny_atlas, kwargs) + [f"prior={prior.content_digest()}"]
        assert keyed == ("recommend", oracle_sha(parts)) != bare
        tiny_atlas.knowledge.replan_prior = dataclasses.replace(prior)  # equal content
        assert service._request_key(tiny_atlas, kwargs) == keyed
        tiny_atlas.knowledge.replan_prior = dataclasses.replace(prior, spliced=())
        assert service._request_key(tiny_atlas, kwargs) not in (bare, keyed)
        tiny_atlas.learn(tiny_atlas.telemetry)  # dropped, like everything learned
        assert tiny_atlas.knowledge.replan_prior is None
        assert service._request_key(tiny_atlas, kwargs) == bare

    def test_content_equal_advisors_learned_apart_share_a_key(self, tiny_telemetry):
        app, result = tiny_telemetry
        one, two = _learn_tiny(app, result.telemetry), _learn_tiny(app, result.telemetry)
        assert one.knowledge.footprint is not two.knowledge.footprint
        assert one.knowledge.estimator is not two.knowledge.estimator
        # Learning samples the telemetry's own Trace objects; a restarted process
        # would hold equal copies instead, so give the twin those.
        for api, profile in two.knowledge.api_profiles.items():
            two.knowledge.api_profiles[api] = dataclasses.replace(
                profile, sample_traces=pickle.loads(pickle.dumps(profile.sample_traces))
            )
        service = AdvisorService()
        kwargs = {"expected_scale": 3.0}
        assert service._request_key(one, kwargs) == service._request_key(two, kwargs)

    def test_containers_are_walked_on_every_request(self, tiny_atlas):
        """No "nobody mutates this list" convention: in-place edits move the key."""
        service = AdvisorService()
        kwargs = {"expected_scale": 2.0}
        api = tiny_atlas.knowledge.apis[-1]
        traces = tiny_atlas.knowledge.api_profiles[api].sample_traces
        seen = {service._request_key(tiny_atlas, kwargs)}

        traces.append(_perturb(traces[0], 1.5))  # appended in place
        seen.add(service._request_key(tiny_atlas, kwargs))
        traces[1] = _perturb(traces[1], 0.75)  # replaced in place
        seen.add(service._request_key(tiny_atlas, kwargs))
        traces[0], traces[2] = traces[2], traces[0]  # reordered in place
        seen.add(service._request_key(tiny_atlas, kwargs))
        del traces[-1]  # shrunk in place
        seen.add(service._request_key(tiny_atlas, kwargs))
        assert len(seen) == 5
        assert service._request_key(tiny_atlas, kwargs) == (
            "recommend",
            oracle_sha(oracle_request_parts(tiny_atlas, kwargs)),
        )


# -- (b2) the parts an Atlas memoises: reused by identity, rebuilt on any new input ---------------
#: What ``_content_parts`` builds once per input and keeps on the ``Atlas``.
MEMOISED_BUILDERS = ("fingerprint_traces", "_plan_text", "_storage_text", "_catalogs_text")


def _spy_builders(monkeypatch):
    calls = []
    for name in MEMOISED_BUILDERS:
        original = getattr(advisor, name)

        def spy(inputs, _name=name, _original=original):
            calls.append(_name)
            return _original(inputs)

        monkeypatch.setattr(advisor, name, spy)
    return calls


class TestPartMemos:
    def test_a_second_key_over_unchanged_content_builds_no_memoised_part(
        self, tiny_atlas, monkeypatch
    ):
        service = AdvisorService()
        kwargs = {"expected_scale": 2.0}
        first = service._request_key(tiny_atlas, kwargs)
        calls = _spy_builders(monkeypatch)
        assert service._request_key(tiny_atlas, kwargs) == first
        tiny_atlas.build_evaluator(expected_scale=2.0, artifact_cache=service.cache)
        assert calls == []
        # The spies see a build: a copy starts without memos and builds each part once.
        twin = copy.copy(tiny_atlas)
        assert service._request_key(twin, kwargs) == first
        assert sorted(calls) == sorted(
            ["fingerprint_traces"] * len(tiny_atlas.knowledge.apis) + list(MEMOISED_BUILDERS[1:])
        )

    def test_a_replaced_input_rebuilds_its_part(self, tiny_atlas, monkeypatch):
        """Each memoised part's inputs replaced in turn: the key is the oracle
        composition every time, and every replacement moves it from the last one."""
        service = AdvisorService()
        kwargs = {"expected_scale": 2.0}
        seen = []

        def key():
            got = service._request_key(tiny_atlas, kwargs)
            assert got == ("recommend", oracle_sha(oracle_request_parts(tiny_atlas, kwargs)))
            seen.append(got)

        key()
        names = tiny_atlas.application.component_names
        tiny_atlas.current_plan = MigrationPlan(
            {name: int(name == "Cache") for name in names}, order=names
        )
        key()
        application = tiny_atlas.application
        database = application.component("Database")
        grown = dataclasses.replace(
            database, resources=dataclasses.replace(database.resources, storage_gb=11.0)
        )
        monkeypatch.setitem(application._components, "Database", grown)
        key()
        config = tiny_atlas.config
        config.pricing = PricingCatalog(egress_usd_per_gb=0.07)
        key()
        config.pricing_by_location = {1: PricingCatalog(egress_usd_per_gb=0.0)}
        key()
        config.pricing_by_location[1] = PricingCatalog(egress_usd_per_gb=0.05)
        key()
        config.pricing_by_location[1] = PricingCatalog(egress_usd_per_gb=0.0)
        key()
        # Equal by ``==``, not by ``repr``: the catalog's text must be rebuilt.
        negative_zero = PricingCatalog(egress_usd_per_gb=-0.0)
        assert negative_zero == config.pricing_by_location[1]
        config.pricing_by_location[1] = negative_zero
        key()
        assert all(before != after for before, after in zip(seen, seen[1:]))

    def test_traffic_ingested_after_fit_joins_the_key(self, tiny_telemetry):
        """``predict_scaled`` reads the live rates: once traces arrive after ``fit()``
        the key carries them, and a served answer is the one a fresh build gives."""
        app, result = tiny_telemetry
        atlas = _learn_tiny(app, copy.deepcopy(result.telemetry))
        service = AdvisorService()
        kwargs = {"expected_scale": 2.0}
        bare = service._request_key(atlas, kwargs)
        assert bare == ("recommend", oracle_sha(oracle_request_parts(atlas, kwargs)))
        served = service.recommend(atlas, **kwargs)

        telemetry = atlas.telemetry
        before = telemetry.api_request_rates()
        last = telemetry.get_traces(api=atlas.knowledge.apis[0])[-1]
        shift = 3 * telemetry.window_ms
        telemetry.ingest_trace(
            last.with_spans(
                [dataclasses.replace(span, start_ms=span.start_ms + shift) for span in last.spans]
            )
        )
        after = telemetry.api_request_rates()
        assert len(next(iter(after.values()))) > len(next(iter(before.values())))
        observed = oracle_sha([repr(list(after.items()))])
        keyed = service._request_key(atlas, kwargs)
        parts = oracle_request_parts(atlas, kwargs) + [f"observed={observed}"]
        assert keyed == ("recommend", oracle_sha(parts)) != bare

        answer = service.recommend(atlas, **kwargs)
        assert answer is not served
        fresh = atlas.build_evaluator(**kwargs).estimate.api_rates
        assert answer.estimate.api_rates == fresh != served.estimate.api_rates

        # Explicit rates read no telemetry, so their key gains no part.
        explicit = {"api_rates": {api: [1.0, 2.0] for api in atlas.knowledge.apis}}
        assert service._request_key(atlas, explicit) == (
            "recommend",
            oracle_sha(oracle_request_parts(atlas, explicit)),
        )


# -- (b3) the memos' soundness condition: every memoised input is immutable all the way down -----
#: The types whose ``repr`` a memoised part is built from.
MEMOISED_TYPES = (Component, ResourceProfile, PricingCatalog, NodeSpec, AutoscalerConfig)
_LEAVES = (str, int, float, bool, type(None))


def _assert_immutable(value, path):
    """``value`` is a leaf, a tuple of such values or a frozen dataclass of them."""
    if isinstance(value, _LEAVES):
        return
    if isinstance(value, tuple):
        for position, item in enumerate(value):
            _assert_immutable(item, f"{path}[{position}]")
        return
    assert dataclasses.is_dataclass(value), f"{path} is a {type(value).__name__}"
    assert type(value).__dataclass_params__.frozen, f"{path} is not frozen"
    for spec in dataclasses.fields(value):
        _assert_immutable(getattr(value, spec.name), f"{path}.{spec.name}")


@pytest.fixture(scope="module")
def e2e_atlas():
    """The end-to-end benchmark's 3-site social-network advisor (its learned inputs)."""
    return build_testbed(
        seed=7,
        ga_seed=7,
        application="social-network",
        duration_ms=90_000.0,
        base_rps=12.0,
        peak_rps=22.0,
        traces_per_api=10,
        n_locations=3,
    ).atlas


class TestMemoSoundness:
    @pytest.mark.parametrize("cls", MEMOISED_TYPES, ids=lambda cls: cls.__name__)
    def test_memoised_types_are_frozen_dataclasses(self, cls):
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen

    @pytest.mark.parametrize("which", ["tiny", "e2e"])
    def test_memoised_inputs_are_immutable_all_the_way_down(
        self, which, tiny_atlas, e2e_atlas
    ):
        atlas = tiny_atlas if which == "tiny" else e2e_atlas
        for component in atlas.application.components:
            _assert_immutable(component, component.name)
        catalogs = sorted(atlas._pricing_catalogs().items())
        for location, catalog in catalogs:
            _assert_immutable(catalog, f"catalog {location}")
        for catalog in (atlas.config.pricing, *(atlas.config.pricing_by_location or {}).values()):
            assert isinstance(catalog, PricingCatalog)
            _assert_immutable(catalog, "config catalog")
        for api, profile in atlas.knowledge.api_profiles.items():
            assert all(isinstance(trace, Trace) for trace in profile.sample_traces), api

    def test_a_plan_holds_tuples(self, tiny_atlas, e2e_atlas):
        # ``_index`` is the lookup ``_components`` interns (``_shared_order``), never written.
        assert set(MigrationPlan.__slots__) == {"_components", "_locations", "_index"}
        for plan in (tiny_atlas.current_plan, e2e_atlas.current_plan):
            assert not hasattr(plan, "__dict__")
            assert isinstance(plan._components, tuple) and isinstance(plan._locations, tuple)
            _assert_immutable(plan._components, "components")
            _assert_immutable(plan._locations, "locations")
            assert plan._index == {name: i for i, name in enumerate(plan._components)}


# -- (c) the memos are process-local ------------------------------------------------------------
class TestMemosStayOutOfPickles:
    def test_trace_pickle_is_the_same_with_and_without_a_warm_memo(self):
        trace = random_trace(np.random.default_rng(5), "t")
        trace.shape()  # never pickled, like the digest memo
        cold = pickle.dumps(trace)
        fingerprint_traces([trace])
        assert trace._content_stream is not None
        warm = pickle.dumps(trace)
        assert len(warm) == len(cold) and warm == cold
        assert b"_content_stream" not in warm
        loaded = pickle.loads(warm)
        assert loaded._content_stream is None
        assert fingerprint_traces([loaded]) == fingerprint_traces([trace])

    def test_atlas_pickle_and_copies_carry_no_part_memo(self, tiny_atlas):
        service = AdvisorService()
        kwargs = {"expected_scale": 2.0}
        cold = pickle.dumps(tiny_atlas)
        key = service._request_key(tiny_atlas, kwargs)
        assert tiny_atlas._part_memos
        warm = pickle.dumps(tiny_atlas)
        assert len(warm) == len(cold) and b"_part_memos" not in warm
        for clone in (pickle.loads(warm), copy.deepcopy(tiny_atlas), copy.copy(tiny_atlas)):
            assert clone._part_memos == {}
            assert service._request_key(clone, kwargs) == key

    def test_estimator_copy_carries_no_digest(self, tiny_atlas):
        # An estimator holds its telemetry server, whose stores do not pickle; a deep
        # copy goes through the same ``__getstate__``.
        estimator = tiny_atlas.knowledge.estimator
        digest = estimator.content_digest()
        clone = copy.deepcopy(estimator)
        assert "_digest" not in vars(clone) and clone.content_digest() == digest

    def test_footprint_pickle_carries_no_digest(self, tiny_atlas):
        footprint = tiny_atlas.knowledge.footprint
        cold = pickle.dumps(footprint)
        digest = footprint.content_digest()
        assert footprint._digest == digest
        warm = pickle.dumps(footprint)
        assert len(warm) == len(cold) and b"_digest" not in warm
        loaded = pickle.loads(warm)
        assert loaded._digest is None and loaded.content_digest() == digest

    def test_footprint_pickle_carries_no_edge_bytes(self, tiny_atlas):
        footprint = tiny_atlas.knowledge.footprint
        cold = pickle.dumps(footprint)
        api = footprint.apis[0]
        edges = tuple(sorted(footprint.edges_of(api)))
        sizes = footprint.edge_bytes(api, edges)
        warm = pickle.dumps(footprint)
        assert warm == cold and b"_edge_bytes" not in warm
        assert pickle.loads(warm).edge_bytes(api, edges) == sizes

    def test_network_pickle_carries_no_digest(self, tiny_atlas):
        network = tiny_atlas.network
        cold = pickle.dumps(network)
        digest = network.content_digest()
        assert network._digest == digest
        warm = pickle.dumps(network)
        assert warm == cold and b"_digest" not in warm
        loaded = pickle.loads(warm)
        assert loaded._digest is None and loaded.content_digest() == digest

    def test_stored_compiled_set_carries_no_digest(self):
        rng = np.random.default_rng(6)
        traces = [random_trace(rng, f"t{k}") for k in range(3)]
        edges = sorted({edge for trace in traces for edge in trace.invocation_edges()})
        compiled = CompiledTraceSet(traces, edges)
        cold = pickle.dumps(compiled)
        fingerprint_traces(traces)
        warm = pickle.dumps(compiled)
        assert len(warm) == len(cold)
        assert b"_content_stream" not in warm

    def test_a_scored_compiled_scenario_pickles_to_a_fresh_compile(self, tiny_atlas):
        """Scoring fills the lowering memos of every estimate, cost and availability
        model a compiled scenario holds (the payload-only and fault-free specs share
        the base's estimate and availability model), and the cost models' storage and
        rate-table memos: none of them reaches a pickle."""
        problem = PlacementProblem.default(tiny_atlas.preferences, scenarios=ROBUST_S4)

        def compiled_bytes(evaluator):
            return [
                pickle.dumps(evaluator._scenario_pair(spec)[0])
                for spec in problem.scenarios
            ]

        scored = tiny_atlas.build_evaluator(3.0, problem=problem)
        n_components = len(tiny_atlas.application.component_names)
        vectors = np.random.default_rng(11).integers(0, 2, size=(64, n_components))
        scored.evaluate_vectors(vectors)
        scored.feasible_mask(vectors)
        assert scored._base.cost._storage_cost_cache and scored._base.estimate._lowerings
        fresh = tiny_atlas.build_evaluator(3.0, problem=problem)
        assert compiled_bytes(scored) == compiled_bytes(fresh)

    #: What a pickled ``Trace`` carries (store frame version 11 took ``_structure`` out).
    #: A key added or removed here changes what stored frames hold — bump ``serving.store._VERSION``.
    TRACE_STATE = {"trace_id", "_api", "_spans", "_by_id", "_root", "_children"}

    def test_trace_pickle_and_deep_copy_carry_no_shape(self):
        trace = random_trace(np.random.default_rng(7), "t")
        cold = pickle.dumps(trace)
        shape = trace.shape()
        assert vars(trace)["_shape"] is shape
        warm = pickle.dumps(trace)
        assert warm == cold and b"_shape" not in warm
        assert set(trace.__getstate__()) == self.TRACE_STATE
        for clone in (pickle.loads(warm), copy.deepcopy(trace)):
            assert "_shape" not in vars(clone)  # what a frame written before shapes holds
            assert clone.invocation_edges() == trace.invocation_edges()
            assert clone.shape() is shape  # interned again on first use
            assert fingerprint_traces([clone]) == fingerprint_traces([trace])

    def test_trace_store_pickle_and_deep_copy_carry_no_census(self, tiny_telemetry):
        _app, result = tiny_telemetry
        store = TraceStore()
        store.extend(result.telemetry.get_traces())
        cold = pickle.dumps(store)
        api = store.apis[0]
        answers = (
            store.request_counts(5_000.0),
            store.invocation_counts(api, 5_000.0),
            store.latencies(api),
            [group.count for group in store.shape_groups(api)],
        )
        assert store._census is not None
        warm = pickle.dumps(store)
        assert len(warm) == len(cold) and b"_shape" not in warm
        for clone in (pickle.loads(warm), copy.deepcopy(store)):
            assert clone._census is None
            assert all("_shape" not in vars(trace) for trace in clone.traces())
            assert answers == (
                clone.request_counts(5_000.0),
                clone.invocation_counts(api, 5_000.0),
                clone.latencies(api),
                [group.count for group in clone.shape_groups(api)],
            )

    def test_learning_from_memoless_telemetry_is_identical(self, tiny_telemetry, tiny_atlas):
        """Traces as a frame written before shapes existed holds them (no ``_shape``, no
        census on their store) learn to the same knowledge, digest for digest."""
        app, result = tiny_telemetry
        reread = copy.deepcopy(result.telemetry)
        assert reread.traces._census is None
        assert all(set(vars(t)) <= self.TRACE_STATE for t in reread.get_traces())
        twin = _learn_tiny(app, reread)
        ours, theirs = tiny_atlas.knowledge, twin.knowledge
        assert list(theirs.api_profiles) == list(ours.api_profiles)
        for api, profile in ours.api_profiles.items():
            other = theirs.api_profiles[api]
            for name in (
                "request_count",
                "components",
                "stateful_components",
                "latencies_ms",
            ):
                assert getattr(other, name) == getattr(profile, name)
            assert list(other.invocations_per_request.items()) == list(
                profile.invocations_per_request.items()
            )
            assert list(other.workflow_modes.items()) == list(profile.workflow_modes.items())
            assert fingerprint_traces(other.sample_traces) == fingerprint_traces(
                profile.sample_traces
            )
        assert list(theirs.component_profiles.items()) == list(ours.component_profiles.items())
        assert theirs.footprint.content_digest() == ours.footprint.content_digest()
        assert theirs.estimator.content_digest() == ours.estimator.content_digest()
        service = AdvisorService()
        kwargs = {"expected_scale": 3.0}
        assert service._request_key(twin, kwargs) == service._request_key(tiny_atlas, kwargs)


# -- (d) a problem is described by its content ---------------------------------------------------
class OffloadBudgetObjective(Objective):
    """A parameterised plugin of the kind any owner may write: its score reads ``cap``."""

    name = "over_cap"

    def __init__(self, cap):
        self.cap = cap

    def score_matrix(self, ctx):
        return np.maximum((ctx.matrix != 0).sum(axis=1) - self.cap, 0).astype(np.float64)


class WeightedOffloadObjective(Objective):
    """A plugin parameterised by an array, which numpy summarises in its repr once it
    is longer than 1 000 elements."""

    name = "weighted_offload"

    def __init__(self, weights):
        self.weights = weights

    def score_matrix(self, ctx):
        return (ctx.matrix != 0) @ self.weights[: ctx.matrix.shape[1]]


def _front(recommendation):
    return [
        (quality.plan.to_vector(), [float(value).hex() for value in quality.values])
        for quality in recommendation.plans
    ]


class TestAProblemIsDescribedByContent:
    def test_a_plan_repr_names_every_location_in_order(self):
        one = MigrationPlan.from_vector(["a", "b"], [0, 1])
        assert repr(one) == "MigrationPlan({'a': 0, 'b': 1})"
        assert repr(MigrationPlan.from_vector(["a", "b"], [0, 2])) != repr(one)
        assert repr(MigrationPlan.from_vector(["b", "a"], [1, 0])) != repr(one)

    def test_plugins_without_parameters_keep_their_repr(self):
        problem = PlacementProblem.default(extra_objectives=[EgressTrafficObjective()])
        for objective in problem.objectives:
            assert repr(objective) == (
                f"{type(objective).__name__}(name={objective.name!r}, sense={objective.sense!r})"
            )
        for constraint in problem.constraints:
            assert repr(constraint) == f"{type(constraint).__name__}(name={constraint.name!r})"

    def test_a_parameterised_plugin_is_described_by_its_parameters(self, tiny_atlas):
        service = AdvisorService()

        def key(objective):
            problem = PlacementProblem.default(extra_objectives=[objective])
            return service._request_key(tiny_atlas, {"expected_scale": 2.0, "problem": problem})

        assert key(OffloadBudgetObjective(1)) == key(OffloadBudgetObjective(1))
        assert key(OffloadBudgetObjective(1)) != key(OffloadBudgetObjective(2))

    @given(length=st.integers(1001, 5000), data=st.data())
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_request_keys_refuse_elided_reprs(self, tiny_atlas, length, data):
        """Two problems whose plugin arrays differ in one element never share a key:
        a repr that elides content ("...") makes the request unmemoizable."""
        index = data.draw(st.integers(0, length - 1), label="index")
        weights = np.zeros(length)
        changed = weights.copy()
        changed[index] = 1.0
        service = AdvisorService()

        def key(array):
            problem = PlacementProblem.default(
                extra_objectives=[WeightedOffloadObjective(array)]
            )
            return service._request_key(tiny_atlas, {"expected_scale": 2.0, "problem": problem})

        one, two = key(weights), key(changed)
        assert one is None or two is None or one != two

    def test_two_churn_baselines_are_two_requests(self, tiny_atlas):
        components = tiny_atlas.application.component_names
        stay = MigrationPlan.all_on_prem(components)
        moved = stay.with_location(components[-1], 1)

        def problem(baseline):
            return PlacementProblem.default(
                extra_objectives=[MigrationChurnObjective(baseline)]
            )

        service = AdvisorService()
        first = service.recommend(tiny_atlas, expected_scale=2.0, problem=problem(stay))
        second = service.recommend(tiny_atlas, expected_scale=2.0, problem=problem(moved))
        assert second is not first
        fresh = copy.deepcopy(tiny_atlas).recommend(expected_scale=2.0, problem=problem(moved))
        assert _front(second) == _front(fresh) != _front(first)
