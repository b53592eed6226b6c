"""Post-migration monitoring: latency drift detection and footprint-based breach detection."""

from .drift import DriftDetector, DriftReport, kl_divergence
from .security import BreachDetector, TrafficAnomaly

__all__ = [
    "kl_divergence",
    "DriftReport",
    "DriftDetector",
    "TrafficAnomaly",
    "BreachDetector",
]
