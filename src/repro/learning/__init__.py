"""Application learning: API profiles, component profiles, footprints, resource estimation."""

from .api_profile import (
    ApiProfile,
    ApiProfiler,
    classify_background,
    classify_sibling,
)
from .component_profile import ComponentProfile, ComponentProfiler
from .estimator import ResourceEstimate, ResourceEstimator
from .footprint import EdgeFootprint, FootprintLearner, NetworkFootprint

__all__ = [
    "ApiProfile",
    "ApiProfiler",
    "classify_sibling",
    "classify_background",
    "ComponentProfile",
    "ComponentProfiler",
    "EdgeFootprint",
    "NetworkFootprint",
    "FootprintLearner",
    "ResourceEstimate",
    "ResourceEstimator",
]
