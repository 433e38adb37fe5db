"""Order statistics and the seeded request generator used by the benchmark."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["TAIL_PERCENTILES", "MIN_BEYOND", "percentile", "median",
           "tail_percentile", "zipf_requests"]

# Candidate tail percentiles, highest first; a run reports the highest one
# that still has MIN_BEYOND samples above it.
TAIL_PERCENTILES = (95, 90, 75, 50)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile (NumPy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50)


def tail_percentile(n: int) -> int | None:
    """Highest of :data:`TAIL_PERCENTILES` with at least :data:`MIN_BEYOND`
    of ``n`` samples beyond it, or ``None`` when even the median has fewer."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) // 100 >= MIN_BEYOND:
            return p
    return None


def zipf_requests(seed, count: int, pool: int, exponent: float = 1.2) -> list[int]:
    """``count`` pool indices with Zipf frequencies, in a seeded order.

    Rank ``k`` (1-based, index ``k - 1``) gets ``count * k**-exponent /
    sum(weights)`` requests, rounded by largest remainder, so every sequence
    of one length holds the same mix of popular and rare items (the same
    cold and warm share for a cache) and only the order depends on ``seed``
    (an int or a sequence of ints). Callers decide which item sits at which
    rank.
    """
    if pool < 1 or count < 0:
        raise ValueError("pool must be >= 1 and count >= 0")
    weights = np.arange(1, pool + 1, dtype=np.float64) ** -exponent
    quota = count * weights / weights.sum()
    counts = np.floor(quota).astype(int)
    short = count - int(counts.sum())
    counts[np.argsort(-(quota - counts), kind="stable")[:short]] += 1
    order = np.random.default_rng(seed).permutation(np.repeat(np.arange(pool), counts))
    return [int(i) for i in order]
