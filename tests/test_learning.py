"""Tests for application learning: profiles, footprint learning, resource estimation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import ExecutionMode
from repro.learning import (
    ApiProfiler,
    ComponentProfiler,
    FootprintLearner,
    NetworkFootprint,
    ResourceEstimator,
    classify_background,
    classify_sibling,
)
from repro.learning.footprint import EdgeFootprint
from repro.quality import MigrationPreferences
from repro.recommend import Atlas
from repro.telemetry import Span, TelemetryServer


class TestWorkflowClassification:
    def test_parallel_siblings_detected(self):
        a = Span("t", "a", "root", "A", "op", 0.0, 10.0)
        b = Span("t", "b", "root", "B", "op", 1.0, 10.0)
        assert classify_sibling(a, b) is ExecutionMode.PARALLEL

    def test_sequential_siblings_detected(self):
        a = Span("t", "a", "root", "A", "op", 0.0, 5.0)
        b = Span("t", "b", "root", "B", "op", 6.0, 5.0)
        assert classify_sibling(a, b) is ExecutionMode.SEQUENTIAL

    def test_background_child_detected(self):
        parent = Span("t", "p", None, "P", "op", 0.0, 10.0)
        child = Span("t", "c", "p", "C", "op", 8.0, 20.0)
        inline = Span("t", "d", "p", "D", "op", 2.0, 3.0)
        assert classify_background(child, parent)
        assert not classify_background(inline, parent)


class TestApiProfiler:
    def test_profiles_all_apis(self, tiny_telemetry):
        app, result = tiny_telemetry
        profiler = ApiProfiler(result.telemetry, stateful_components=app.stateful_components())
        profiles = profiler.profile_all()
        assert set(profiles) == {"/read", "/write"}

    def test_profile_contents(self, tiny_telemetry):
        app, result = tiny_telemetry
        profiler = ApiProfiler(result.telemetry, stateful_components=app.stateful_components())
        profile = profiler.profile("/read")
        assert profile.request_count > 0
        assert set(profile.components) == app.components_of_api("/read")
        assert profile.stateful_components == ["Database"]
        assert profile.mean_latency_ms > 0
        assert profile.p95_latency_ms >= profile.mean_latency_ms * 0.5
        assert profile.uses_component("Cache")
        assert not profile.uses_component("ServiceB")

    def test_invocations_per_request(self, tiny_telemetry):
        app, result = tiny_telemetry
        profile = ApiProfiler(result.telemetry).profile("/read")
        assert profile.invocations_per_request[("Frontend", "ServiceA")] == pytest.approx(1.0)

    def test_workflow_modes_recovered_from_timestamps(self, tiny_telemetry):
        app, result = tiny_telemetry
        profile = ApiProfiler(result.telemetry).profile("/read")
        assert profile.background_components() == {"Notifier"}
        modes = {
            (parent, child): mode
            for (parent, child, _op), mode in profile.workflow_modes.items()
        }
        assert modes[("ServiceA", "Cache")] is ExecutionMode.PARALLEL
        assert modes[("ServiceA", "Database")] is ExecutionMode.PARALLEL

    def test_sample_traces_limited(self, tiny_telemetry):
        app, result = tiny_telemetry
        profile = ApiProfiler(result.telemetry, traces_per_api=5).profile("/read")
        assert len(profile.sample_traces) == 5

    def test_unknown_api_raises(self, tiny_telemetry):
        _app, result = tiny_telemetry
        with pytest.raises(ValueError):
            ApiProfiler(result.telemetry).profile("/ghost")

    def test_latency_histogram(self, tiny_telemetry):
        _app, result = tiny_telemetry
        profile = ApiProfiler(result.telemetry).profile("/read")
        edges, counts = profile.latency_histogram(bins=10)
        assert len(edges) == 11
        assert sum(counts) == profile.request_count


class TestComponentProfiler:
    def test_profiles_reflect_activity(self, tiny_telemetry):
        app, result = tiny_telemetry
        profiler = ComponentProfiler(result.telemetry, app)
        profiles = profiler.profile_all()
        assert set(profiles) == set(app.component_names)
        frontend = profiles["Frontend"]
        assert frontend.mean_cpu_millicores > 0
        assert frontend.mean_request_rate > 0
        assert not frontend.stateful
        assert profiles["Database"].stateful
        assert profiles["Database"].storage_gb == 10.0

    def test_rankings(self, tiny_telemetry):
        app, result = tiny_telemetry
        profiler = ComponentProfiler(result.telemetry, app)
        by_busy = profiler.ranked_by_busyness()
        assert by_busy[0].busyness >= by_busy[-1].busyness
        by_traffic = profiler.ranked_by_traffic()
        assert by_traffic[0].total_traffic_bytes >= by_traffic[-1].total_traffic_bytes

    def test_apis_attributed(self, tiny_telemetry):
        app, result = tiny_telemetry
        profile = ComponentProfiler(result.telemetry, app).profile("ServiceB")
        assert profile.apis == ["/write"]

    @pytest.mark.parametrize("app_fixture", ["social_app", "hotel_app"])
    def test_profile_all_attributes_apis_like_the_per_component_call(self, request, app_fixture):
        # profile_all inverts component -> APIs in one pass over the call trees.
        app = request.getfixturevalue(app_fixture)
        profiler = ComponentProfiler(TelemetryServer(), app)
        profiles = profiler.profile_all()
        assert list(profiles) == app.component_names
        assert profiles == {name: profiler.profile(name) for name in app.component_names}
        for name, profile in profiles.items():
            assert profile.apis == app.apis_using_component(name)
        assert sum(len(profile.apis) for profile in profiles.values()) > len(profiles)


class TestFootprintLearner:
    def test_recovers_payload_sizes(self, tiny_telemetry):
        app, result = tiny_telemetry
        footprint = FootprintLearner(result.telemetry).learn()
        edge = app.api("/write").root.calls[0].node  # ServiceB
        db_edge = edge.calls[0].node  # Database Insert
        learned_req = footprint.request_bytes("/write", "ServiceB", "Database")
        assert learned_req == pytest.approx(db_edge.payload.request_bytes, rel=0.2)

    def test_footprint_zero_for_unused_pair(self, tiny_telemetry):
        _app, result = tiny_telemetry
        footprint = FootprintLearner(result.telemetry).learn()
        assert footprint.request_bytes("/write", "ServiceA", "Cache") == 0.0

    def test_round_trip_bytes(self, tiny_telemetry):
        _app, result = tiny_telemetry
        footprint = FootprintLearner(result.telemetry).learn()
        total = footprint.round_trip_bytes("/read", "ServiceA", "Database")
        assert total == pytest.approx(
            footprint.request_bytes("/read", "ServiceA", "Database")
            + footprint.response_bytes("/read", "ServiceA", "Database")
        )

    def test_accuracy_against_ground_truth_high(self, tiny_telemetry):
        app, result = tiny_telemetry
        footprint = FootprintLearner(result.telemetry).learn()
        reference = {}
        for api in app.apis:
            reference[api.name] = {
                (src, dst): (node.payload.request_bytes, node.payload.response_bytes)
                for src, dst, node, _m in api.edges()
            }
        accuracy = footprint.accuracy_against(reference)
        assert all(acc > 70.0 for acc in accuracy.values())

    def test_expected_pair_traffic(self):
        footprint = NetworkFootprint(
            [EdgeFootprint("/a", "X", "Y", 100.0, 50.0), EdgeFootprint("/b", "X", "Y", 10.0, 5.0)]
        )
        traffic = footprint.expected_pair_traffic({"/a": 2, "/b": 10})
        assert traffic[("X", "Y")] == pytest.approx(2 * 150 + 10 * 15)

    def test_requires_enough_windows(self, tiny_telemetry):
        _app, result = tiny_telemetry
        with pytest.raises(ValueError):
            FootprintLearner(result.telemetry, min_windows=1_000).learn()

    def test_edges_of_and_pairs(self, tiny_telemetry):
        _app, result = tiny_telemetry
        footprint = FootprintLearner(result.telemetry).learn()
        assert ("Frontend", "ServiceA") in footprint.pairs()
        assert ("Frontend", "ServiceA") in footprint.edges_of("/read")

    def test_iteration_cap_falls_back_to_clipped_least_squares(self, monkeypatch):
        def capped(design, target):
            raise RuntimeError("too many iterations")

        monkeypatch.setattr("repro.learning.footprint.nnls", capped)
        design = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        target = np.array([4.0, -2.0, 2.0])
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        got = FootprintLearner._solve(design, target)
        assert got.tolist() == np.clip(solution, 0.0, None).tolist()
        assert got[1] == 0.0

    def test_non_finite_mesh_bytes_raise_instead_of_a_nan_footprint(self, monkeypatch):
        def refuses(design, target):
            raise ValueError("array must not contain infs or NaNs")

        monkeypatch.setattr("repro.learning.footprint.nnls", refuses)
        design = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="infs or NaNs"):
            FootprintLearner._solve(design, np.array([np.nan, 1.0]))


class TestResourceEstimator:
    def test_requires_fit_before_predict(self, tiny_telemetry):
        app, result = tiny_telemetry
        estimator = ResourceEstimator(app, result.telemetry)
        with pytest.raises(RuntimeError):
            estimator.predict_scaled(1.0)

    def test_prediction_scales_with_traffic(self, tiny_telemetry):
        app, result = tiny_telemetry
        estimator = ResourceEstimator(app, result.telemetry).fit()
        one = estimator.predict_scaled(1.0)
        five = estimator.predict_scaled(5.0)
        names = app.component_names
        assert five.peak("cpu_millicores", names) > one.peak("cpu_millicores", names)

    def test_attribution_maps_apis_to_components(self, tiny_telemetry):
        app, result = tiny_telemetry
        estimator = ResourceEstimator(app, result.telemetry).fit()
        attribution = estimator.attribution("cpu_millicores", "ServiceB")
        # ServiceB only serves /write, so /write should carry (almost all of) the weight.
        assert attribution["/write"] >= attribution["/read"]

    def test_predict_with_explicit_rates(self, tiny_telemetry):
        app, result = tiny_telemetry
        estimator = ResourceEstimator(app, result.telemetry).fit()
        estimate = estimator.predict({"/read": [10.0, 20.0], "/write": [5.0, 5.0]})
        assert estimate.steps == 2
        series = estimate.component_series("cpu_millicores", "Frontend")
        assert len(series) == 2 and series[1] >= series[0]

    def test_storage_usage_constant(self, tiny_telemetry):
        app, result = tiny_telemetry
        estimator = ResourceEstimator(app, result.telemetry).fit()
        estimate = estimator.predict_scaled(2.0)
        storage = estimate.component_series("storage_gb", "Database")
        assert all(v == pytest.approx(10.0) for v in storage)

    def test_aggregate_series_subsets(self, tiny_telemetry):
        app, result = tiny_telemetry
        estimator = ResourceEstimator(app, result.telemetry).fit()
        estimate = estimator.predict_scaled(1.0)
        total = estimate.peak("cpu_millicores", app.component_names)
        partial = estimate.peak("cpu_millicores", ["Frontend"])
        assert partial <= total

    def test_rejects_empty_rates(self, tiny_telemetry):
        app, result = tiny_telemetry
        estimator = ResourceEstimator(app, result.telemetry).fit()
        with pytest.raises(ValueError):
            estimator.predict({})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_traffic(self, tiny_telemetry, bad):
        """Every comparison with NaN is false: a NaN or infinite traffic forecast
        priced every plan at NaN and passed every on-prem peak check, so an advisor
        asked for ``expected_scale=nan`` called every plan feasible."""
        app, result = tiny_telemetry
        estimator = ResourceEstimator(app, result.telemetry).fit()
        with pytest.raises(ValueError, match="scale must be finite"):
            estimator.predict_scaled(bad)
        for rates in (
            {"/read": [10.0, bad], "/write": [5.0, 5.0]},
            {"/read": [10.0], "/unknown": [bad]},
        ):
            with pytest.raises(ValueError, match="api_rates must be finite"):
                estimator.predict(rates)
        atlas = Atlas(app, MigrationPreferences.pin_on_prem(["Database"]))
        atlas.learn(result.telemetry)
        with pytest.raises(ValueError, match="scale must be finite"):
            atlas.build_evaluator(expected_scale=bad)


def _predict_element_by_element(estimator, api_rates):
    """The per-element fill and clamp ``ResourceEstimator.predict`` vectorises."""
    steps = max(len(series) for series in api_rates.values())
    rate_matrix = np.zeros((steps, len(estimator._apis)))
    for col, api in enumerate(estimator._apis):
        series = list(api_rates.get(api, []))
        for row in range(min(steps, len(series))):
            rate_matrix[row, col] = series[row]
    return {
        key: [float(max(v, 0.0)) for v in idle + rate_matrix @ coef]
        for key, (idle, coef) in estimator._models.items()
    }


_SPECIAL = [0.0, -0.0, float("nan"), -3.5, 7.25]


class TestVectorisedPredict:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_predict_is_the_element_by_element_loop(self, tiny_telemetry, seed, n_extra):
        """Random models (negative, ``-0.0`` and ``nan`` idles and coefficients) over
        ragged, empty and partly missing rate series, compared by ``float.hex``; a
        ``nan`` rate is refused, and the same series with it zeroed compared."""
        app, result = tiny_telemetry
        rng = np.random.default_rng(seed)
        estimator = ResourceEstimator(app, result.telemetry).fit()
        estimator._apis = estimator._apis + [f"/extra{k}" for k in range(n_extra)]

        def value():
            if rng.random() < 0.25:
                return _SPECIAL[int(rng.integers(len(_SPECIAL)))]
            return float(rng.normal(0.0, 10.0))

        estimator._models = {
            key: (value(), np.asarray([value() for _ in estimator._apis]))
            for key in estimator._models
        }
        rates = {}
        for api in estimator._apis + ["/unknown"]:
            if rng.random() < 0.2:
                continue  # an API the forecast leaves out
            series = [value() for _ in range(int(rng.integers(0, 6)))]
            if rng.random() < 0.3:
                series = [int(abs(v)) if v == v else 0 for v in series]
            rates[api] = series
        rates.setdefault("/unknown", [1.0])
        if any(v != v for series in rates.values() for v in series):
            # A NaN rate would pass every peak check: predict refuses it.
            with pytest.raises(ValueError, match="finite"):
                estimator.predict(rates, step_ms=100.0)
            rates = {
                api: [0.0 if v != v else v for v in series] for api, series in rates.items()
            }
        predicted = estimator.predict(rates, step_ms=100.0)
        expected = _predict_element_by_element(estimator, rates)
        for (resource, component), series in expected.items():
            got = predicted.usage[resource][component]
            assert [v.hex() for v in got] == [v.hex() for v in series]
