"""Estimators the benchmark reports: percentiles over windows.

Whole-run statistics do not repeat on a shared 2-core host (one 60-100 ms
stall moves a whole-run p99 by an order of magnitude), so every timed phase
is cut into equal windows, the statistic is taken per window, and the window
at the favourable quartile is reported: a stall spoils a window, not the
figure (bench/live.py says why the quartile and not the median).
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def split_windows(
    stamped: Sequence[tuple[float, float]], start: float, width: float, count: int
) -> list[list[float]]:
    """Bucket ``(timestamp, value)`` pairs into ``count`` windows of ``width``
    seconds from ``start``; pairs outside ``[start, start + count*width)``
    are dropped."""
    windows: list[list[float]] = [[] for _ in range(count)]
    for stamp, value in stamped:
        index = int((stamp - start) // width)
        if 0 <= index < count and stamp >= start:
            windows[index].append(value)
    return windows


def steady(values: Sequence[float], better: str) -> float:
    """The favourable-quartile slice: the third quartile of ``values`` when
    higher is better, the first when lower is better (nearest rank)."""
    if better not in ("higher", "lower"):
        raise ValueError("better must be 'higher' or 'lower'")
    return percentile(values, 0.75 if better == "higher" else 0.25)
