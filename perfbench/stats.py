"""Percentiles, the tail-percentile rule, and latency summaries.

Standard library only: the orchestrator imports this module before it
knows whether the program under test is present.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

#: Percentiles considered for a latency tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile with linear interpolation between ranks.

    Matches ``numpy.percentile``'s default ("linear") method.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def samples_beyond(count: int, p: float) -> float:
    """How many of ``count`` samples lie above the ``p``-th percentile."""
    return count * (100.0 - p) / 100.0


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it.

    p99 needs 1000 samples, p95 200, p50 20; ``None`` below 20.
    """
    for p in TAIL_CANDIDATES:
        # Round away float noise: 1000 * (100 - 99) / 100 is 10.000...
        if round(samples_beyond(count, p), 9) >= MIN_BEYOND:
            return p
    return None


def percentile_label(p: float) -> str:
    return f"p{p:g}"


def summarize_latencies(values_ms: Sequence[float]) -> Dict[str, object]:
    """Median, the rule's tail percentile and the sample count."""
    out: Dict[str, object] = {"n": len(values_ms)}
    if not values_ms:
        return out
    out["p50"] = median(values_ms)
    tail = tail_percentile(len(values_ms))
    if tail is not None and tail > 50.0:
        out["tail"] = percentile_label(tail)
        out["tail_value"] = percentile(values_ms, tail)
    return out


def interval_union(intervals: Iterable[Sequence[float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    merged: List[List[float]] = []
    for start, end in sorted((float(s), float(e)) for s, e in intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return sum(end - start for start, end in merged)
