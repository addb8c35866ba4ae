"""Percentiles that refuse to be computed from too few samples."""

from __future__ import annotations

import math
import statistics

MIN_TAIL = 10


class TooFewSamples(ValueError):
    """A percentile would have fewer than MIN_TAIL samples above it."""


def _rank(q, n):
    # round away binary noise such as 0.95 * 200 = 189.99999999999997
    return max(1, math.ceil(round(q * n, 9)))


def nearest_rank(samples, q):
    """The smallest sample that at least a share q of the samples do not exceed."""
    return sorted(samples)[_rank(q, len(samples)) - 1]


def percentile(samples, q, min_tail=MIN_TAIL):
    """Nearest-rank q-quantile of samples, with at least min_tail above it."""
    n = len(samples)
    if n - _rank(q, n) < min_tail:
        raise TooFewSamples(
            f"p{100 * q:g} of {n} samples leaves {n - _rank(q, n)} above it, need {min_tail}"
        )
    return nearest_rank(samples, q)


def samples_needed(q, min_tail=MIN_TAIL):
    """Smallest sample count for which percentile(., q) is allowed."""
    n = min_tail + 1
    while n - _rank(q, n) < min_tail:
        n += 1
    return n


def spread(values):
    """Median, first and third quartile, and their distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": share}
