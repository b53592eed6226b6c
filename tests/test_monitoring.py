"""Tests for post-migration monitoring: KL drift detection and breach detection."""

import json

import numpy as np
import pytest

from repro.learning.footprint import EdgeFootprint, NetworkFootprint
from repro.monitoring import BreachDetector, DriftDetector, kl_divergence
from repro.monitoring import drift as drift_module


class TestKLDivergence:
    def test_identical_distributions_near_zero(self):
        rng = np.random.default_rng(0)
        samples = list(rng.normal(100, 5, size=500))
        assert kl_divergence(samples, samples) < 0.05

    def test_shifted_distribution_has_larger_divergence(self):
        rng = np.random.default_rng(1)
        ref = list(rng.normal(100, 5, size=500))
        close = list(rng.normal(101, 5, size=500))
        far = list(rng.normal(160, 5, size=500))
        assert kl_divergence(ref, far) > kl_divergence(ref, close)

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        a = list(rng.normal(10, 1, size=200))
        b = list(rng.normal(12, 2, size=200))
        assert kl_divergence(a, b) >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            kl_divergence([], [1.0])
        with pytest.raises(ValueError):
            kl_divergence([1.0], [1.0], bins=1)


class TestDriftDetector:
    def _detector(self, threshold=5.0):
        rng = np.random.default_rng(3)
        real = {"/a": list(rng.normal(100, 8, size=400))}
        approx = {"/a": list(rng.normal(102, 8, size=400))}
        return DriftDetector(approx, real, threshold_factor=threshold), rng

    def test_no_drift_for_similar_recent_samples(self):
        detector, rng = self._detector()
        recent = list(rng.normal(101, 8, size=300))
        report = detector.check("/a", recent)
        assert not report.drift_detected
        assert report.information_loss_factor < 5.0

    def test_drift_detected_for_shifted_distribution(self):
        detector, rng = self._detector()
        recent = list(rng.normal(220, 10, size=300))
        report = detector.check("/a", recent)
        assert report.drift_detected
        assert report.information_loss_factor > 5.0
        assert report.recent_divergence > report.baseline_divergence

    def test_check_all_and_drifted_apis(self):
        detector, rng = self._detector()
        recent = {"/a": list(rng.normal(250, 10, size=300))}
        reports = detector.check_all(recent)
        assert set(reports) == {"/a"}
        assert detector.drifted_apis(recent) == ["/a"]

    def test_baseline_is_computed_once_and_travels_with_the_state(self, monkeypatch):
        detector, rng = self._detector()
        recent = list(rng.normal(101, 8, size=300))
        want = kl_divergence(detector._real["/a"], detector._approx["/a"])
        assert detector.check("/a", recent).baseline_divergence == want

        calls = []
        real_kl = drift_module.kl_divergence
        monkeypatch.setattr(
            drift_module,
            "kl_divergence",
            lambda *args, **kwargs: calls.append(1) or real_kl(*args, **kwargs),
        )
        for _ in range(3):
            assert detector.check("/a", recent).baseline_divergence == want
        assert len(calls) == 3  # the recent divergence only

        state = json.loads(json.dumps(detector.state()))
        assert state["baseline"] == {"/a": want}
        revived = DriftDetector.from_state(state)
        assert revived.check("/a", recent) == detector.check("/a", recent)
        assert len(calls) == 5

        del state["baseline"]  # a state written before the field existed computes it
        older = DriftDetector.from_state(state)
        assert older.check("/a", recent) == detector.check("/a", recent)
        assert len(calls) == 8

    def test_unknown_api_rejected(self):
        detector, _rng = self._detector()
        with pytest.raises(KeyError):
            detector.check("/ghost", [1.0, 2.0])

    def test_mismatched_api_sets_rejected(self):
        with pytest.raises(ValueError):
            DriftDetector({"/a": [1.0]}, {"/b": [1.0]})

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError):
            DriftDetector({"/a": [1.0]}, {"/a": [1.0]}, threshold_factor=1.0)


class TestBreachDetector:
    def _footprint(self):
        return NetworkFootprint(
            [
                EdgeFootprint("/read", "Service", "Store", 200.0, 1_000.0),
                EdgeFootprint("/write", "Service", "Store", 800.0, 100.0),
            ]
        )

    def test_expected_traffic_reconstruction(self):
        detector = BreachDetector(self._footprint(), min_excess_bytes=1_000.0)
        expected = detector.expected_traffic({"/read": 10, "/write": 5})
        assert expected[("Service", "Store")] == pytest.approx(10 * 1_200 + 5 * 900)

    def test_normal_traffic_not_flagged(self):
        detector = BreachDetector(self._footprint(), min_excess_bytes=5_000.0)
        counts = {"/read": 10, "/write": 5}
        observed = {("Service", "Store"): 10 * 1_200 + 5 * 900 + 100.0}
        assert detector.scan_window(0, counts, observed) == []

    def test_exfiltration_flagged(self):
        detector = BreachDetector(self._footprint(), ratio_threshold=2.0, min_excess_bytes=5_000.0)
        counts = {"/read": 10, "/write": 5}
        observed = {("Service", "Store"): 500_000.0}
        anomalies = detector.scan_window(3, counts, observed)
        assert len(anomalies) == 1
        anomaly = anomalies[0]
        assert anomaly.window == 3
        assert anomaly.excess_bytes > 400_000
        assert anomaly.ratio > 2.0

    def test_scan_over_windows_and_breach_windows(self):
        detector = BreachDetector(self._footprint(), min_excess_bytes=5_000.0)
        counts = {0: {"/read": 10}, 1: {"/read": 10}}
        observed = {
            0: {("Service", "Store"): 12_000.0},
            1: {("Service", "Store"): 900_000.0},
        }
        anomalies = detector.scan(counts, observed)
        assert [a.window for a in anomalies] == [1]
        assert detector.breach_windows(counts, observed) == [1]

    def test_small_excess_ignored_even_if_ratio_high(self):
        detector = BreachDetector(self._footprint(), ratio_threshold=2.0, min_excess_bytes=1e9)
        anomalies = detector.scan_window(0, {"/read": 1}, {("Service", "Store"): 1e6})
        assert anomalies == []

    def test_validation(self):
        with pytest.raises(ValueError):
            BreachDetector(self._footprint(), ratio_threshold=1.0)
        with pytest.raises(ValueError):
            BreachDetector(self._footprint(), min_excess_bytes=-1.0)
