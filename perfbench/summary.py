"""Summary statistics shared by the workloads and their self-tests."""

from __future__ import annotations

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(count: int) -> float:
    """Highest percentile of the grid that leaves at least ten samples beyond it.

    With ``count`` samples, percentile ``q`` has ``count * (1 - q/100)``
    samples above it; below twenty samples only the median qualifies.
    """
    best = TAIL_GRID[0]
    for q in TAIL_GRID:
        if count * (1.0 - q / 100.0) >= 10.0 - 1e-9:
            best = q
    return best


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of a nonempty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty list")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
