"""Unit tests for workload profiles, social graph and the request generator."""

import pytest

from repro.workload import (
    ApiMix,
    ApiRequest,
    BehaviorChange,
    ContentSampler,
    DiurnalProfile,
    SocialGraph,
    WorkloadGenerator,
    WorkloadScenario,
    burst_scenario,
    default_scenario,
)
from repro.workload.social_graph import preferential_attachment


class TestApiMix:
    def test_probabilities_normalized(self):
        mix = ApiMix({"/a": 3.0, "/b": 1.0})
        probs = mix.probabilities()
        assert probs["/a"] == pytest.approx(0.75)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_rejects_empty_or_negative(self):
        with pytest.raises(ValueError):
            ApiMix({})
        with pytest.raises(ValueError):
            ApiMix({"/a": -1.0})
        with pytest.raises(ValueError):
            ApiMix({"/a": 0.0})

    def test_reweighted(self):
        mix = ApiMix({"/a": 1.0, "/b": 1.0}).reweighted({"/a": 3.0})
        assert mix.probabilities()["/a"] == pytest.approx(0.75)
        with pytest.raises(KeyError):
            ApiMix({"/a": 1.0}).reweighted({"/z": 1.0})


class TestDiurnalProfile:
    def test_rate_peaks_near_peak_hours(self):
        profile = DiurnalProfile(base_rps=10, peak_rps=50, peak_hours=(12.0,), duration_ms=240_000)
        noon = profile.rate_at(120_000.0)  # halfway through the compressed day = 12:00
        midnight = profile.rate_at(0.0)
        assert noon > midnight
        assert noon == pytest.approx(60.0, rel=0.05)

    def test_two_peaks_present(self):
        profile = DiurnalProfile()
        rates = [profile.rate_at(t) for t in range(0, int(profile.duration_ms), 5_000)]
        assert max(rates) > profile.base_rps * 1.5

    def test_scaled(self):
        profile = DiurnalProfile(base_rps=10, peak_rps=20)
        scaled = profile.scaled(5.0)
        assert scaled.base_rps == 50
        assert scaled.peak_rps == 100
        with pytest.raises(ValueError):
            profile.scaled(-1.0)

    def test_mean_rate_between_base_and_peak(self):
        profile = DiurnalProfile(base_rps=10, peak_rps=40)
        assert 10.0 < profile.mean_rate() < 50.0

    def test_hour_of_wraps(self):
        profile = DiurnalProfile(duration_ms=1_000.0)
        assert profile.hour_of(0.0) == pytest.approx(0.0)
        assert profile.hour_of(1_500.0) == pytest.approx(12.0)


class TestBehaviorChange:
    def test_applies_only_after_start_and_to_listed_apis(self):
        change = BehaviorChange(start_ms=100.0, apis=["/a"], payload_scale=2.0)
        assert not change.applies_to("/a", 50.0)
        assert change.applies_to("/a", 150.0)
        assert not change.applies_to("/b", 150.0)

    def test_empty_api_list_means_all(self):
        change = BehaviorChange(start_ms=0.0, payload_scale=2.0)
        assert change.applies_to("/anything", 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BehaviorChange(start_ms=-1.0)
        with pytest.raises(ValueError):
            BehaviorChange(start_ms=0.0, payload_scale=0.0)


class TestWorkloadScenario:
    def test_payload_scale_combines_changes(self):
        mix = ApiMix({"/a": 1.0})
        scenario = WorkloadScenario(
            mix=mix,
            changes=[
                BehaviorChange(start_ms=10.0, apis=["/a"], payload_scale=2.0),
                BehaviorChange(start_ms=20.0, apis=["/a"], payload_scale=3.0),
            ],
        )
        assert scenario.payload_scale_at("/a", 5.0) == 1.0
        assert scenario.payload_scale_at("/a", 15.0) == 2.0
        assert scenario.payload_scale_at("/a", 25.0) == 6.0

    def test_mix_override_applies_after_start(self):
        mix = ApiMix({"/a": 1.0, "/b": 1.0})
        scenario = WorkloadScenario(
            mix=mix,
            changes=[BehaviorChange(start_ms=100.0, mix_override={"/a": 9.0})],
        )
        assert scenario.mix_at(0.0).probabilities()["/a"] == pytest.approx(0.5)
        assert scenario.mix_at(200.0).probabilities()["/a"] == pytest.approx(0.9)


class TestSocialGraph:
    def test_degree_distribution_heavy_tailed(self):
        graph = SocialGraph(users=300, attachment=3, seed=1)
        degrees = sorted((graph.follower_count(user) for user in range(graph.users)), reverse=True)
        assert degrees[0] > 4 * graph.mean_followers()

    @pytest.mark.parametrize("n, m, seed", [(500, 4, 7), (50, 1, 0), (200, 3, 123), (10, 9, 5)])
    def test_generator_is_the_networkx_construction(self, n, m, seed):
        """The in-repo generator against the library call it replaced: edge for
        edge, and each node's neighbours in the same order."""
        nx = pytest.importorskip("networkx")
        expected = nx.barabasi_albert_graph(n, m, seed=seed)
        neighbours = preferential_attachment(n, m, seed)
        assert neighbours == [list(expected.neighbors(node)) for node in range(n)]
        graph = SocialGraph(users=n, attachment=m, seed=seed)
        assert [graph.followers(user) for user in range(n)] == neighbours
        assert graph.mean_followers() == 2.0 * expected.number_of_edges() / n

    def test_sample_user_in_range(self):
        graph = SocialGraph(users=100, seed=1)
        for _ in range(20):
            assert 0 <= graph.sample_user() < 100

    def test_followers_consistency(self):
        graph = SocialGraph(users=50, seed=2)
        user = 10
        assert graph.follower_count(user) == len(graph.followers(user))

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError):
            SocialGraph(users=2)

    def test_degree_histogram_sums_to_users(self):
        graph = SocialGraph(users=80, seed=3)
        assert sum(graph.degree_histogram().values()) == 80


class TestContentSampler:
    def test_post_and_media_sizes_positive(self):
        sampler = ContentSampler(seed=1)
        assert sampler.post_size_bytes() > 0
        assert sampler.media_size_bytes() > sampler.post_size_bytes()

    def test_mention_count_higher_when_active(self):
        sampler = ContentSampler(seed=1)
        inactive = sum(sampler.mention_count() for _ in range(200))
        active = sum(sampler.mention_count(active=True) for _ in range(200))
        assert active > inactive


class TestWorkloadGenerator:
    def test_request_fields_valid(self, tiny_app):
        scenario = default_scenario(tiny_app, base_rps=10, peak_rps=10, duration_ms=10_000)
        requests = WorkloadGenerator(tiny_app, scenario, seed=1).generate(10_000)
        assert requests
        for req in requests:
            assert req.api in tiny_app.api_names
            assert 0 <= req.time_ms < 10_000
            assert req.payload_scale > 0

    def test_request_count_tracks_rate(self, tiny_app):
        scenario = default_scenario(tiny_app, base_rps=20, peak_rps=20, duration_ms=30_000)
        generator = WorkloadGenerator(tiny_app, scenario, seed=2)
        requests = generator.generate(30_000)
        expected = generator.expected_request_count(30_000)
        assert len(requests) == pytest.approx(expected, rel=0.3)

    def test_deterministic_given_seed(self, tiny_app):
        scenario = default_scenario(tiny_app, base_rps=10, peak_rps=15, duration_ms=10_000)
        first = WorkloadGenerator(tiny_app, scenario, seed=7).generate(10_000)
        second = WorkloadGenerator(tiny_app, scenario, seed=7).generate(10_000)
        assert [(r.time_ms, r.api) for r in first] == [(r.time_ms, r.api) for r in second]

    def test_rejects_unknown_apis(self, tiny_app):
        scenario = default_scenario(tiny_app)
        scenario.mix = ApiMix({"/ghost": 1.0})
        with pytest.raises(ValueError):
            WorkloadGenerator(tiny_app, scenario)

    def test_burst_scenario_scales_rates(self, tiny_app):
        base = default_scenario(tiny_app, base_rps=10, peak_rps=20)
        burst = burst_scenario(tiny_app, burst_factor=5.0, base_rps=10, peak_rps=20)
        assert burst.profile.base_rps == pytest.approx(5 * base.profile.base_rps)

    def test_api_request_validation(self):
        with pytest.raises(ValueError):
            ApiRequest(time_ms=-1.0, api="/a")
        with pytest.raises(ValueError):
            ApiRequest(time_ms=0.0, api="/a", payload_scale=0.0)
