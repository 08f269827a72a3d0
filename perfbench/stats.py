"""Summary statistics shared by run.py and the benchmark's tests."""

from __future__ import annotations

import math

TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 40


def tail_percent(n: int) -> int | None:
    """Highest whole percentile with at least TAIL_BEYOND samples above it.

    With the nearest-rank percentile, the p-th percentile of n samples is
    the ceil(p*n/100)-th smallest, which leaves n - ceil(p*n/100) samples
    above it.  Below TAIL_MIN_SAMPLES samples that percentile sits at or
    under the upper quartile and describes no tail, so there is none.
    """
    if n < TAIL_MIN_SAMPLES:
        return None
    return (100 * (n - TAIL_BEYOND)) // n


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (p in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]
