"""Pure helpers for the figures the benchmark reports: medians, nearest-rank
percentiles with their tail sample count, failure share."""

from __future__ import annotations

import math
import statistics

# a tail percentile is reported only with at least this many samples above it
MIN_TAIL_SAMPLES = 10


def median(values) -> float:
    """statistics.median, or 0.0 for no values (a layer a workload does not
    exercise)."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it (always an observed value)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    s = sorted(values)
    return s[max(math.ceil(q / 100.0 * len(s)), 1) - 1]


def samples_above(values, threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


def tail(values, q: float) -> tuple[float, int, bool]:
    """(q-th percentile, samples strictly above it, whether that count meets
    MIN_TAIL_SAMPLES)."""
    v = percentile(values, q)
    above = samples_above(values, v)
    return v, above, above >= MIN_TAIL_SAMPLES


def failed_share(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones; an operation fails if it
    raises or fails its oracle check."""
    if attempted <= 0:
        raise ValueError("failed_share needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted
