"""Seeded inputs of the end-to-end benchmark.

Everything the program under test receives is generated here from ``--seed``:
the telemetry the advisor learns from, the GA seed, the reference plan sample
the front quality is normalised by, the warm-request schedule and the
drift-perturbation factors.  The same seed gives the same inputs; the program
never sees the seed itself, only what was generated from it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.testbed import Testbed, build_testbed
from repro.optimizer import GAConfig
from repro.quality import ScenarioSet, ScenarioSpec
from repro.recommend import Atlas
from repro.serving import MonitorSample

#: The 3-site social-network testbed every workload runs on (the parameters of
#: the legacy ``_shared.fused_testbed``, restated so the harness imports
#: ``repro`` only).
TESTBED_PARAMS = dict(
    application="social-network",
    duration_ms=90_000.0,
    base_rps=12.0,
    peak_rps=22.0,
    evaluation_budget=2_500,
    population_size=60,
    train_iterations=150,
    traces_per_api=10,
    n_locations=3,
)

#: ``--quick`` smoke sizing: the same code paths over a search 8x smaller.
QUICK_PARAMS = dict(
    TESTBED_PARAMS, evaluation_budget=300, population_size=24, train_iterations=20
)

#: Size of the seeded plan sample whose ideal/nadir box normalises ``front_hv``.
REFERENCE_PLANS = 512

#: Share of warm requests that arrive with a content-equal, freshly learned
#: ``Atlas`` instead of a registered tenant name (fingerprint hit, not name hit).
FINGERPRINT_SHARE = 0.10

#: Burst scales of the tenants a warm service is populated with.
TENANT_SCALES = (3.0, 4.0, 5.0)


def build(seed: int, quick: bool = False) -> Testbed:
    """The testbed for ``seed``: telemetry, learned advisor and GA all seeded by it."""
    params = QUICK_PARAMS if quick else TESTBED_PARAMS
    return build_testbed(seed=seed, ga_seed=seed, **params)


def ga_config(config: GAConfig, seed: int, index: int) -> GAConfig:
    """The advisor's GA configuration with the seed of the run's ``index``-th search."""
    derived = np.random.SeedSequence([seed, 21, index]).generate_state(1)[0]
    return dataclasses.replace(config, seed=int(derived))


def warm_up_ga(config: GAConfig) -> GAConfig:
    """The advisor's GA configuration with the search cut to an eighth (warm-up only)."""
    return dataclasses.replace(
        config,
        evaluation_budget=max(config.evaluation_budget // 8, config.population_size + 1),
        train_iterations=max(config.train_iterations // 8, 1),
    )


def scenario_set() -> ScenarioSet:
    """The S=4 axis of the robust workload: observed, 5x burst, mix shift, chatty posts."""
    return ScenarioSet(
        (
            ScenarioSpec(name="observed"),
            ScenarioSpec(name="burst-x5", rate_scale=5.0),
            ScenarioSpec(
                name="mix-shift",
                api_rate_factors={"/composePost": 2.0, "/homeTimeline": 0.75},
            ),
            ScenarioSpec(name="chatty-posts", payload_factors={"/composePost": 2.5}),
        )
    )


def fresh_atlas(testbed: Testbed) -> Atlas:
    """A content-equal advisor sharing no object with ``testbed.atlas``.

    What a restarted process (or a second tenant of the same application) holds:
    the same application, preferences and telemetry, learned again from scratch.
    """
    source = testbed.atlas
    atlas = Atlas(
        source.application,
        source.preferences,
        network=source.network,
        config=source.config,
        current_plan=source.current_plan,
        cluster=source.cluster,
    )
    atlas.learn(testbed.telemetry)
    return atlas


def reference_vectors(testbed: Testbed, seed: int, count: int = REFERENCE_PLANS) -> List[List[int]]:
    """A seeded sample of distinct location vectors honouring the pinned placement."""
    rng = np.random.default_rng([seed, 512])
    components = testbed.application.component_names
    remote = [loc for loc in testbed.locations if loc != 0]
    pinned = {
        components.index(name): location
        for name, location in testbed.preferences.pinned_placement.items()
    }
    seen = set()
    vectors: List[List[int]] = []
    while len(vectors) < count:
        offloaded = rng.random(len(components)) < rng.uniform(0.1, 0.9)
        sites = rng.choice(remote, size=len(components))
        vector = [int(site) if off else 0 for off, site in zip(offloaded, sites)]
        for column, location in pinned.items():
            vector[column] = location
        key = tuple(vector)
        if key not in seen:
            seen.add(key)
            vectors.append(vector)
    return vectors


def request_schedule(seed: int, length: int = 4096) -> List[Tuple[int, bool]]:
    """``(tenant index, by_fingerprint)`` per warm request; cycled when exhausted."""
    rng = np.random.default_rng([seed, 90])
    tenants = rng.integers(0, len(TENANT_SCALES), size=length)
    by_fingerprint = rng.random(length) < FINGERPRINT_SHARE
    return [(int(t), bool(f)) for t, f in zip(tenants, by_fingerprint)]


def drift_factor(seed: int, round_index: int) -> float:
    """Time-scale factor of the re-profiled trace window handed over in one drift round.

    Distinct per round, so every round's spliced content (and hence the request
    memo key of the re-recommend) is new.
    """
    rng = np.random.default_rng([seed, 6, round_index])
    return float(1.3 + 0.05 * round_index + rng.uniform(0.0, 0.04))


def perturb_trace(trace, factor: float):
    """The same trace with every timing scaled: new content, same shape."""
    spans = [
        dataclasses.replace(
            span, start_ms=span.start_ms * factor, duration_ms=span.duration_ms * factor
        )
        for span in trace.spans
    ]
    return trace.with_spans(spans)


def on_model_sample(preview: Dict[str, Sequence[float]], scenario) -> MonitorSample:
    """A monitoring window that matches the advisor's own preview (no drift)."""
    return MonitorSample(
        recent_latencies={api: list(values) for api, values in preview.items()},
        scenario=scenario,
    )


def drifted_sample(
    preview: Dict[str, Sequence[float]],
    original_traces: Sequence,
    target_api: str,
    factor: float,
    scenario,
) -> MonitorSample:
    """A window in which ``target_api`` runs 6x + 25 ms slower, with its re-profiled traces."""
    latencies = {
        api: (
            [value * 6.0 + 25.0 for value in values]
            if api == target_api
            else list(values)
        )
        for api, values in preview.items()
    }
    window = [perturb_trace(trace, factor) for trace in original_traces]
    return MonitorSample(
        recent_latencies=latencies,
        traces_by_api={target_api: window},
        scenario=scenario,
    )
