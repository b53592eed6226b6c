"""Every class a stored frame holds pickles the layout recorded for the frame version.

``ArtifactStore`` pickles live objects: compiled trace sets, Δ tables, QPerf memo
pre-fills, compiled scenarios, certificates, agents, journal entries and daemon
samples.  A frame written by other code must miss, never unpickle into a class
whose layout moved; the store makes it miss by its header's frame version
(``serving/store.py::_VERSION``), so every layout change needs a new version.
This module checks that rule instead of leaving it to whoever changes a layout:

* one small certified robust request and two daemon cycles write one frame of every
  stored kind; each is walked, and each loads back to the content it was saved with;
* the walk records, for every ``repro`` class it meets, its qualified name and the
  sorted keys of the state its pickle carries; that table must be ``LAYOUT``, and
  ``LAYOUT``'s digest the one recorded for ``_VERSION`` in ``VERSION_LAYOUTS``;
* the pickling hooks under ``src/`` are a listed set: the shared pair that keeps
  memos out (``repro.digest.Memoized``) and the four classes whose pickle is a
  format of its own.

A new field anywhere under a stored object, a new class in one, or a memo left out
of its class's ``_MEMOS`` declaration fails here.  The fix is a new frame version:
bump ``_VERSION``, record the walked table as ``LAYOUT`` and add its digest to
``VERSION_LAYOUTS`` under the new number (an entry is never edited).
"""

import ast
import copy
import dataclasses
import io
import pickle
from collections import Counter
from pathlib import Path

import pytest
from test_artifacts import TINY_GA, _perturb

from repro.digest import Memoized, sha_parts
from repro.quality import (
    CapacityCut,
    LinkDegradation,
    LocationOutage,
    MigrationPreferences,
    PlacementProblem,
    PriceShock,
    ScenarioSet,
    ScenarioSpec,
)
from repro.recommend import AdvisorService, Atlas, AtlasConfig
from repro.serving import AdvisorDaemon, ArtifactStore, MonitorSample, ScriptedMonitor
from repro.serving import store as store_module
from repro.workload import default_scenario

SRC = Path(__file__).resolve().parent.parent / "src"

#: What the frames of the fixture below hold, class by class: the qualified name and
#: the sorted state keys its pickle carries (``"7 values"``: a tuple state).
LAYOUT = {
    "repro.cluster.autoscaler.AutoscalerConfig": (
        "cpu_headroom", "memory_headroom", "storage_headroom",
    ),
    "repro.cluster.autoscaler.ClusterAutoscaler": ("config", "node_spec"),
    "repro.cluster.autoscaler.StorageAutoscaler": ("config",),
    "repro.cluster.network.LinkSpec": ("bandwidth_mbps", "latency_ms"),
    "repro.cluster.network.NetworkModel": ("_links",),
    "repro.cluster.placement.MigrationPlan": ("_components", "_index", "_locations"),
    "repro.cluster.topology.NodeSpec": (
        "cpu_millicores", "hourly_price_usd", "memory_mb", "name", "storage_gb",
    ),
    "repro.learning.estimator.ResourceEstimate": ("api_rates", "step_ms", "usage"),
    "repro.learning.footprint.EdgeFootprint": (
        "api", "destination", "request_bytes", "response_bytes", "source",
    ),
    "repro.learning.footprint.NetworkFootprint": ("_by_api",),
    "repro.optimizer.atlas_ga.SearchResult": (
        "_archive", "agent", "agent_digest", "evaluations", "generations", "objective_names",
        "pareto", "training_history", "wall_clock_s",
    ),
    "repro.optimizer.drl.agent.CrossoverAgent": (
        "_actor_opt", "_allowed_repair", "_binary", "_critic_opt", "_loc_index", "_rng",
        "actor", "allowed", "critic", "history", "locations", "n_components", "n_locations",
        "pinned",
    ),
    "repro.optimizer.drl.agent.TrainingHistory": ("feasible_fractions", "mean_rewards"),
    "repro.optimizer.drl.mlp.MLP": ("biases", "head", "weights"),
    "repro.quality.adversary.RobustnessCertificate": (
        "baseline_feasible", "baseline_values", "budget_spent", "family_regrets",
        "feasible_under_fault", "objective_names", "plan", "regret", "violations",
        "worst_regret", "worst_spec", "worst_values",
    ),
    "repro.quality.availability.ApiAvailabilityModel": (
        "_apis", "_projection_axis", "_stateful", "baseline_plan", "location_weights",
    ),
    "repro.quality.compiled.CompiledTraceSet": (
        "_packed_levels", "_root_idx", "_root_start", "edge_index", "n_edges", "n_spans",
        "n_traces",
    ),
    "repro.quality.cost.CloudCostModel": (
        "_cluster_autoscalers", "_storage_autoscalers", "baseline_plan", "catalog", "catalogs",
        "estimate", "footprint", "storage_by_component", "time_compression",
    ),
    "repro.quality.cost.PricingCatalog": (
        "autoscaler", "egress_usd_per_gb", "node_spec", "storage_usd_per_gb_month",
    ),
    "repro.quality.evaluator.PlanQuality": (
        "feasible", "names", "plan", "scenarios", "values", "violations",
    ),
    "repro.quality.faults.CapacityCut": ("location", "remaining_fraction"),
    "repro.quality.faults.LinkDegradation": (
        "bandwidth_factor", "extra_latency_ms", "latency_factor", "pairs",
    ),
    "repro.quality.faults.LocationOutage": (
        "availability_penalty", "bandwidth_factor", "evacuate", "latency_factor", "location",
    ),
    "repro.quality.faults.PriceShock": (
        "compute_factor", "egress_factor", "locations", "storage_factor",
    ),
    "repro.quality.preferences.MigrationPreferences": (
        "allowed_locations", "budget_usd", "critical_apis", "critical_weight", "onprem_limits",
        "pinned_placement",
    ),
    "repro.quality.scenarios.CompiledScenario": (
        "availability", "cost", "estimate", "footprint", "network", "preferences", "weights",
    ),
    "repro.quality.scenarios.ScenarioQuality": (
        "feasible", "names", "scenario", "values", "violations",
    ),
    "repro.quality.scenarios.ScenarioSpec": (
        "api_rate_factors", "faults", "name", "payload_factors", "payload_scale", "rate_scale",
        "weight",
    ),
    "repro.serving.daemon.MonitorSample": ("recent_latencies", "scenario", "traces_by_api"),
    "repro.telemetry.tracing.Span": ("7 values",),
    "repro.telemetry.tracing.Trace": (
        "_api", "_by_id", "_children", "_root", "_spans", "trace_id",
    ),
    "repro.workload.profiles.ApiMix": ("weights",),
    "repro.workload.profiles.DiurnalProfile": (
        "base_rps", "duration_ms", "peak_hours", "peak_rps", "peak_width_hours",
    ),
    "repro.workload.profiles.WorkloadScenario": ("changes", "mix", "name", "profile"),
}

#: Frame version -> digest of the layout table recorded under it (:func:`_digest`).
VERSION_LAYOUTS = {
    13: "0de60dd0a7be2cf778063b86f3161bd6846567ccbcfd1d27df28d40e12190216",
    14: "113fb7c5956c454de1545ca2d3583117f8a03263679f9c2b580a661cc9121368",
}

#: The kinds of frame (first element of the store key) the fixture writes.
STORED_KINDS = {
    "agent",
    "certificate",
    "compiled",
    "daemon-detector",
    "daemon-front",
    "daemon-sample",
    "delta",
    "impact",
    "journal",
    "scenario",
}

#: ``(module under src/, class.hook)`` of every pickling hook.
PICKLING_HOOKS = Counter(
    [
        ("repro/digest.py", "Memoized.__getstate__"),
        ("repro/digest.py", "Memoized.__setstate__"),
        ("repro/optimizer/atlas_ga.py", "SearchResult.__getstate__"),
        ("repro/optimizer/atlas_ga.py", "SearchResult.__setstate__"),
        ("repro/quality/compiled.py", "CompiledTraceSet.__getstate__"),
        ("repro/quality/compiled.py", "CompiledTraceSet.__setstate__"),
        ("repro/quality/scenarios.py", "ObjectiveVector.__setstate__"),
        ("repro/telemetry/tracing.py", "Span.__getstate__"),
        ("repro/telemetry/tracing.py", "Span.__setstate__"),
    ]
)

_HOOK_NAMES = {"__getstate__", "__setstate__", "__reduce__", "__reduce_ex__"}

#: Every fault kind in one spec: what a certificate's worst spec can hold.
EVERY_FAULT = ScenarioSpec(
    name="every-fault",
    faults=(
        LocationOutage(1),
        LinkDegradation(latency_factor=2.0),
        PriceShock(compute_factor=2.0),
        CapacityCut(1, remaining_fraction=0.5),
    ),
)


class _Walk(pickle.Pickler):
    """Pickles without a memo (``fast``), so equal content gives equal bytes whatever
    objects it shares, and records the layout of every object whose class comes
    from one of ``packages`` on the way."""

    def __init__(self, packages):
        self._buffer = io.BytesIO()
        super().__init__(self._buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.fast = True
        self.packages = packages
        self.layout = {}

    def reducer_override(self, obj):
        cls = type(obj)
        if cls.__module__.partition(".")[0] in self.packages:
            reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
            state = reduced[2] if isinstance(reduced, tuple) and len(reduced) > 2 else None
            keys = _state_keys(state)
            name = f"{cls.__module__}.{cls.__qualname__}"
            assert self.layout.setdefault(name, keys) == keys, f"{name} pickles two layouts"
        return NotImplemented


def _state_keys(state):
    if state is None:
        return ()
    if isinstance(state, dict):
        return tuple(sorted(state))
    if len(state) == 2 and all(part is None or isinstance(part, dict) for part in state):
        return tuple(sorted(key for part in state if part for key in part))  # with slots
    return (f"{len(state)} values",)


def walk(obj, packages=("repro",)):
    """``(layout, content bytes)`` of ``obj``'s pickle."""
    walker = _Walk(packages)
    walker.dump(obj)
    return walker.layout, walker._buffer.getvalue()


def _digest(layout):
    return sha_parts(f"{name}|{','.join(keys)}" for name, keys in sorted(layout.items()))


@pytest.fixture(scope="module")
def frames(tiny_telemetry, tmp_path_factory):
    """``{key: (walk when saved, walk of the frame loaded back)}`` of every frame one
    certified request over faulted scenarios and two daemon cycles (on model, then
    drifted) write, and of a certificate whose worst spec holds every fault kind."""
    app, result = tiny_telemetry
    atlas = Atlas(
        app,
        MigrationPreferences.pin_on_prem(["Database"]),
        config=AtlasConfig(traces_per_api=15, ga=TINY_GA),
    )
    atlas.learn(result.telemetry)
    written = {}
    real_save = ArtifactStore.save

    def save(store, key, value):
        saved = real_save(store, key, value)
        written[key] = (walk(value), walk(store.load(key)))
        return saved

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ArtifactStore, "save", save)
        service = AdvisorService(store=ArtifactStore(tmp_path_factory.mktemp("store")))
        scenarios = ScenarioSet((ScenarioSpec(name="observed"), EVERY_FAULT))
        robust = service.recommend(
            copy.deepcopy(atlas),
            expected_scale=2.0,
            problem=PlacementProblem.default(atlas.preferences, scenarios=scenarios),
            certify=6,
        )
        service.store.save(
            ("certificate", "every-fault"),
            dataclasses.replace(robust.certificate, worst_spec=EVERY_FAULT),
        )

        plain = service.recommend(copy.deepcopy(atlas), expected_scale=2.0, certify=6)
        preview = {
            api: [float(x) for x in estimate.estimated_latencies_ms]
            for api, estimate in plain.latency_preview(plain.knee_point().plan).items()
        }
        target = sorted(preview)[0]
        drifted = {
            api: [v * 6.0 + 25.0 for v in values] if api == target else values
            for api, values in preview.items()
        }
        window = [_perturb(t, 1.7) for t in atlas.knowledge.api_profiles[target].sample_traces]
        samples = [
            MonitorSample(recent_latencies=preview),
            MonitorSample(
                recent_latencies=drifted,
                traces_by_api={target: window},
                scenario=default_scenario(app),
            ),
        ]
        daemon = AdvisorDaemon(
            service, ScriptedMonitor({"web": samples}), name="t", certify_budget=6
        )
        daemon.register("web", copy.deepcopy(atlas), expected_scale=2.0, certify=6)
        daemon.run_cycle()
        assert daemon.run_cycle()[0].recertified
    return written


def _layout(frames):
    table = {}
    for (layout, _content), _loaded in frames.values():
        for name, keys in layout.items():
            assert table.setdefault(name, keys) == keys, f"{name} pickles two layouts"
    return table


def test_every_stored_kind_is_walked(frames):
    assert {key[0] for key in frames} == STORED_KINDS


def test_every_frame_loads_back_to_the_content_it_was_saved_with(frames):
    for key, (saved, loaded) in frames.items():
        assert loaded == saved, key


def test_the_stored_layout_is_the_one_recorded_for_the_frame_version(frames):
    assert _layout(frames) == LAYOUT
    assert VERSION_LAYOUTS[store_module._VERSION] == _digest(LAYOUT)
    assert len(set(VERSION_LAYOUTS.values())) == len(VERSION_LAYOUTS)


class Toy(Memoized):
    """A stored kind of one field and one memo: the walk's own check."""

    _MEMOS = {"_memo": None}

    def __init__(self):
        self.field = 1
        self._memo = "warm"


def test_a_new_field_changes_the_layout_and_a_new_memo_does_not(monkeypatch):
    toy = Toy()
    layout, content = walk(toy, packages=(__name__,))
    assert layout == {f"{__name__}.Toy": ("field",)}
    monkeypatch.setattr(Toy, "_MEMOS", {**Toy._MEMOS, "_new_memo": dict})
    toy._new_memo = {"warm": True}
    assert walk(toy, packages=(__name__,)) == (layout, content)
    toy.new_field = 2
    assert walk(toy, packages=(__name__,))[0] == {f"{__name__}.Toy": ("field", "new_field")}


def _hook_sites(module, source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [child.name]
                elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                    targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                    names = [target.id for target in targets if isinstance(target, ast.Name)]
                else:
                    continue
                for name in names:
                    if name in _HOOK_NAMES:
                        yield module, f"{node.name}.{name}"


def test_the_pickling_hooks_are_the_listed_ones():
    found = Counter(
        site
        for path in sorted(SRC.rglob("*.py"))
        for site in _hook_sites(path.relative_to(SRC).as_posix(), path.read_text("utf-8"))
    )
    assert found == PICKLING_HOOKS


def test_the_scan_sees_every_hook_form():
    source = (
        "class A:\n"
        "    def __getstate__(self): return {}\n"
        "    __reduce_ex__ = object.__reduce_ex__\n"
        "    def helper(self):\n"
        "        def __setstate__(state): pass\n"
        "class B(A):\n"
        "    def __reduce__(self): return (B, ())\n"
    )
    assert list(_hook_sites("m.py", source)) == [
        ("m.py", "A.__getstate__"),
        ("m.py", "A.__reduce_ex__"),
        ("m.py", "B.__reduce__"),
    ]
