"""Quartiles and relative spread, as the benchmark's stability check takes them."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by ``statistics.quantiles(values, n=4)``; needs two or more values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (which must not be 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med)
