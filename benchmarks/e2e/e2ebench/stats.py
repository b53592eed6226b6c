"""Order statistics and front quality used by the end-to-end benchmark.

Pure functions over plain sequences: nothing here imports ``repro`` or numpy, so
the harness self-test exercises them without building a testbed.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles the harness may report as "the tail", lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100]) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} is outside [0, 100]")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def quartiles(samples: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(n=4)`` gives them.

    The driver that accepts the benchmark computes its spreads this way, so the
    harness prints the same number.  One sample has no spread: both quartiles
    are that sample.
    """
    if len(samples) < 2:
        value = float(samples[0])
        return value, value
    first, _, third = statistics.quantiles(samples, n=4)
    return float(first), float(third)


def iqr(samples: Sequence[float]) -> float:
    first, third = quartiles(samples)
    return third - first


def relative_spread(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when the median is 0)."""
    middle = median(samples)
    return iqr(samples) / abs(middle) if middle else 0.0


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """``(pct, value)`` of the highest candidate percentile the sample supports.

    A percentile is supported when at least :data:`MIN_SAMPLES_BEYOND` samples
    lie strictly beyond its rank; a sample too small for p90 reports its median.
    """
    count = len(samples)
    chosen = TAIL_CANDIDATES[0]
    for pct in TAIL_CANDIDATES[1:]:
        beyond = count - math.ceil(count * pct / 100.0)
        if beyond >= MIN_SAMPLES_BEYOND:
            chosen = pct
    return chosen, percentile(samples, chosen)


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartile spread, tail and count of one timing sample."""
    first, third = quartiles(samples)
    tail_pct, tail_value = tail_percentile(samples)
    return {
        "n": len(samples),
        "median": median(samples),
        "q1": first,
        "q3": third,
        "iqr": third - first,
        "tail_pct": tail_pct,
        "tail": tail_value,
        "min": float(min(samples)),
        "max": float(max(samples)),
    }


# -- front quality -----------------------------------------------------------------


def _staircase_area(points: Sequence[Tuple[float, float]]) -> float:
    """Area dominated by 2-D minimisation points inside the unit reference (1, 1)."""
    area = 0.0
    best_y = 1.0
    previous_x: Optional[float] = None
    for x, y in sorted(points):
        if previous_x is not None:
            area += (x - previous_x) * (1.0 - best_y)
        previous_x = x
        best_y = min(best_y, y)
    if previous_x is not None:
        area += (1.0 - previous_x) * (1.0 - best_y)
    return area


def hypervolume_3d(points: Sequence[Sequence[float]]) -> float:
    """Volume dominated by 3-objective minimisation points w.r.t. reference (1, 1, 1).

    Points are expected in normalised space (see :func:`normalized_hypervolume`);
    a point at or beyond the reference on any axis dominates nothing and is
    dropped.  Computed by slicing along the third axis: between two consecutive
    z levels the dominated cross-section is the 2-D staircase of every point
    at or below the lower level.
    """
    inside = [
        (float(x), float(y), float(z))
        for x, y, z in points
        if x < 1.0 and y < 1.0 and z < 1.0
    ]
    if not inside:
        return 0.0
    inside.sort(key=lambda p: p[2])
    volume = 0.0
    active: List[Tuple[float, float]] = []
    for index, (x, y, z) in enumerate(inside):
        active.append((x, y))
        next_z = inside[index + 1][2] if index + 1 < len(inside) else 1.0
        if next_z > z:
            volume += _staircase_area(active) * (next_z - z)
    return volume


def objective_box(
    reference_rows: Sequence[Sequence[float]],
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """``(ideal, nadir)`` of a reference sample's objective rows (per-axis min/max)."""
    if not reference_rows:
        raise ValueError("the reference sample is empty")
    columns = list(zip(*reference_rows))
    return tuple(min(c) for c in columns), tuple(max(c) for c in columns)


def normalized_hypervolume(
    front_rows: Sequence[Sequence[float]],
    ideal: Sequence[float],
    nadir: Sequence[float],
) -> float:
    """Hypervolume of a 3-objective front in the reference sample's unit box.

    Every axis is mapped so the sample's ideal is 0 and its nadir is 1; the
    reference point is the nadir.  A front better than the sample's ideal on an
    axis earns volume beyond the unit box, so the number is not capped at 1.
    """
    if len(ideal) != 3 or len(nadir) != 3:
        raise ValueError("the hypervolume here is defined for 3 objectives")
    spans = [hi - lo if hi > lo else 1.0 for lo, hi in zip(ideal, nadir)]
    scaled = [
        tuple((value - lo) / span for value, lo, span in zip(row, ideal, spans))
        for row in front_rows
    ]
    return hypervolume_3d(scaled)
