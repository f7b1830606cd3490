"""Order statistics used by the benchmark harness.

Percentiles are nearest-rank over the raw samples (no interpolation), and
a tail percentile is only reported when enough samples lie beyond it to
make it more than a single outlier: :func:`guarded_percentile` returns
``None`` when fewer than ``min_beyond`` samples are strictly above its
rank.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in (0, 100]) of *samples*."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the nearest-rank ``q`` percentile."""
    return n - _rank(n, q)


def guarded_percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> float | None:
    """The ``q`` percentile, or ``None`` with fewer than *min_beyond* above it."""
    if not samples or beyond(len(samples), q) < min_beyond:
        return None
    return nearest_rank(samples, q)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Quartiles come from :func:`statistics.quantiles` with ``n=4`` (the
    default exclusive method), which is how run-to-run spread is judged.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def _rank(n: int, q: float) -> int:
    # Round before the ceiling so 99/100 * 1000 does not land on 991.
    return max(1, min(n, math.ceil(round(q / 100.0 * n, 9))))
