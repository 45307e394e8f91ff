"""Order statistics for the benchmark's timings."""

from __future__ import annotations


#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile of ``samples`` with at least MIN_BEYOND samples above it.

    Returns (value, percentile, beyond): the value is an order statistic,
    ``percentile`` is the share of samples at or below its rank (in %), and
    ``beyond`` counts the samples ranked above it.  With too few samples for
    any such percentile, the maximum is returned with ``beyond`` = 0, so the
    caller can say that no supported tail exists.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 1 - MIN_BEYOND if n > MIN_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - 1 - rank

