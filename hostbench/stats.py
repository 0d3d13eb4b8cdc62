"""Percentiles, the tail rule and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is only reported with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def rank_index(n: int, pct: float) -> int:
    """Nearest-rank index of the ``pct`` percentile in ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(0, math.ceil(pct / 100.0 * n) - 1)


def min_samples(pct: float) -> int:
    """Fewest samples that leave ``MIN_BEYOND`` beyond the percentile."""
    n = 1
    while n - 1 - rank_index(n, pct) < MIN_BEYOND:
        n += 1
    return n


def tail(values: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile; refuses when fewer than ``MIN_BEYOND``
    samples lie beyond it."""
    n = len(values)
    if n < 1 or n - 1 - rank_index(n, pct) < MIN_BEYOND:
        raise ValueError(f"p{pct:g} of {n} samples has fewer than "
                         f"{MIN_BEYOND} samples beyond it")
    return sorted(values)[rank_index(n, pct)]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
