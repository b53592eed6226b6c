"""Shared fixtures for the test suite.

Most tests run against a deliberately tiny application (6 components, 2 APIs) so the
whole suite stays fast; a handful of integration tests use the full social network
through a session-scoped simulated telemetry fixture.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.apps import (
    ApiEndpoint,
    Application,
    CallNode,
    Component,
    ExecutionMode,
    PayloadSpec,
    ResourceProfile,
    build_hotel_reservation,
    build_social_network,
)
from repro.cluster import MigrationPlan, default_hybrid_cluster, default_network_model
from repro.quality import ScenarioAdversary
from repro.simulator import simulate_workload
from repro.workload import WorkloadGenerator, default_scenario


#: ``--hypothesis-profile=ci``: the deeper, reproducible budget CI gives the oracle
#: suites (tests that pin their own ``max_examples`` keep it).  Tier-1 runs the
#: ``tier-1`` profile, loaded here: Hypothesis's defaults without the 200 ms
#: deadline, because a correctness property has no time budget and a busy host
#: stretches one example past it.  ``--hypothesis-profile`` is applied after this
#: module loads, so it still wins.
settings.register_profile("ci", max_examples=500, derandomize=True, deadline=None)
settings.register_profile("tier-1", deadline=None)
settings.load_profile("tier-1")


def make_tiny_app() -> Application:
    """A 6-component, 2-API application exercising all three workflow patterns."""
    service = ResourceProfile(
        cpu_millicores_idle=10.0,
        cpu_millicores_per_rps=5.0,
        memory_mb_idle=32.0,
        memory_mb_per_rps=0.2,
    )
    db = ResourceProfile(
        cpu_millicores_idle=20.0,
        cpu_millicores_per_rps=8.0,
        memory_mb_idle=128.0,
        memory_mb_per_rps=0.4,
        storage_gb=10.0,
    )
    components = [
        Component("Frontend", resources=service),
        Component("ServiceA", resources=service),
        Component("ServiceB", resources=service),
        Component("Cache", resources=service),
        Component("Database", stateful=True, resources=db),
        Component("Notifier", resources=service),
    ]

    # /read: Frontend -> ServiceA -> (Cache || Database), notifier in background.  The
    # notifier runs long enough to outlive its parent so traces expose the background
    # pattern the same way WriteHomeTimelineService does in the paper.
    cache = CallNode("Cache", "Get", work_ms=0.4, payload=PayloadSpec(100.0, 900.0))
    database = CallNode("Database", "Find", work_ms=1.5, payload=PayloadSpec(150.0, 1_200.0))
    notifier = CallNode("Notifier", "LogAccess", work_ms=25.0, payload=PayloadSpec(80.0, 10.0))
    service_a = CallNode("ServiceA", "Read", work_ms=1.0, payload=PayloadSpec(200.0, 1_500.0))
    service_a.call(cache, ExecutionMode.PARALLEL, gap_ms=0.1)
    service_a.call(database, ExecutionMode.PARALLEL, gap_ms=0.1)
    service_a.call(notifier, ExecutionMode.BACKGROUND, gap_ms=0.1)
    read_root = CallNode("Frontend", "/read", work_ms=0.8, payload=PayloadSpec(300.0, 2_000.0))
    read_root.call(service_a, ExecutionMode.SEQUENTIAL, gap_ms=0.2)

    # /write: Frontend -> ServiceB -> Database (sequential), Cache refresh in background.
    database_w = CallNode("Database", "Insert", work_ms=2.0, payload=PayloadSpec(800.0, 60.0))
    cache_w = CallNode("Cache", "Invalidate", work_ms=8.0, payload=PayloadSpec(120.0, 10.0))
    service_b = CallNode("ServiceB", "Write", work_ms=1.2, payload=PayloadSpec(900.0, 100.0))
    service_b.call(database_w, ExecutionMode.SEQUENTIAL, gap_ms=0.2)
    service_b.call(cache_w, ExecutionMode.BACKGROUND, gap_ms=0.1)
    write_root = CallNode("Frontend", "/write", work_ms=0.7, payload=PayloadSpec(1_000.0, 150.0))
    write_root.call(service_b, ExecutionMode.SEQUENTIAL, gap_ms=0.2)

    apis = [
        ApiEndpoint("/read", read_root, weight=0.7),
        ApiEndpoint("/write", write_root, weight=0.3),
    ]
    return Application("tiny-app", components, apis)


@pytest.fixture()
def tiny_app() -> Application:
    return make_tiny_app()


@pytest.fixture(scope="session")
def social_app() -> Application:
    return build_social_network()


@pytest.fixture(scope="session")
def hotel_app() -> Application:
    return build_hotel_reservation()


@pytest.fixture(scope="session")
def tiny_telemetry():
    """Simulated telemetry of the tiny app under a short all-on-prem workload."""
    app = make_tiny_app()
    scenario = default_scenario(app, base_rps=20.0, peak_rps=30.0, duration_ms=60_000.0)
    requests = WorkloadGenerator(app, scenario, seed=3).generate(60_000.0)
    result = simulate_workload(app, requests, seed=3)
    return app, result


@pytest.fixture(scope="session")
def social_learning_result():
    """Simulated learning telemetry of the full social network (session-scoped)."""
    app = build_social_network()
    scenario = default_scenario(app, base_rps=10.0, peak_rps=18.0, duration_ms=60_000.0)
    requests = WorkloadGenerator(app, scenario, seed=5).generate(60_000.0)
    result = simulate_workload(app, requests, seed=5)
    return app, result


@pytest.fixture()
def adversary_runs(monkeypatch):
    """The plans ``ScenarioAdversary.certify`` ran for, in order (a certificate read
    from an artifact cache runs nothing)."""
    runs = []
    certify = ScenarioAdversary.certify

    def spy(self, plan):
        runs.append(plan)
        return certify(self, plan)

    monkeypatch.setattr(ScenarioAdversary, "certify", spy)
    return runs


@pytest.fixture()
def default_cluster():
    return default_hybrid_cluster()


@pytest.fixture()
def default_network():
    return default_network_model()


@pytest.fixture()
def tiny_plan_all_onprem(tiny_app):
    return MigrationPlan.all_on_prem(tiny_app.component_names)
