"""Summary statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that the
sample supports: the highest percentile of a fixed ladder, no higher than
the one asked for, with at least :data:`MIN_BEYOND` samples beyond it.
The sample count is always reported with it.
"""

from __future__ import annotations

import hashlib
import math
import statistics

MIN_BEYOND = 10
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_values, p: float) -> float:
    """Linear-interpolated percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    k = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def supported_percentile(n: int, ceiling: float = 99.0) -> float | None:
    """Highest ladder percentile <= ``ceiling`` with >= MIN_BEYOND samples above it."""
    for p in PERCENTILE_LADDER:
        if p <= ceiling and round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:
            return p
    return None


def tail(values, ceiling: float = 99.0) -> dict:
    """``{"p50", "tail_p", "tail", "count"}`` under the percentile rule.

    ``tail_p`` is the percentile actually reported (None, with ``tail``
    equal to the maximum, when even the median lacks ten samples beyond).
    """
    data = sorted(values)
    if not data:
        return {"p50": math.nan, "tail_p": None, "tail": math.nan, "count": 0}
    p = supported_percentile(len(data), ceiling)
    return {
        "p50": percentile(data, 50.0),
        "tail_p": p,
        "tail": percentile(data, p) if p is not None else data[-1],
        "count": len(data),
    }


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def logger_digest(loggers) -> str:
    """SHA-256 over every logged series (name, steps, value bits), sorted by name."""
    h = hashlib.sha256()
    for logger in loggers:
        for name in logger.names():
            h.update(name.encode())
            h.update(logger.steps(name).tobytes())
            h.update(logger.values(name).tobytes())
    return h.hexdigest()[:16]
