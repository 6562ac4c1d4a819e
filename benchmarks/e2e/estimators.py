"""Slice-median estimators: the one place a sample series becomes a metric.

A run's measured phases are cut into :data:`SLICES` slices of equal op count.
Every rate is the median over slices of the per-slice rate, and every latency
percentile is the median over slices of the per-slice percentile.  A
disturbance that covers a minority of the slices (a neighbour stealing the
CPU, a one-off page-cache writeback) therefore cannot move the estimate,
while a cost that recurs in every slice (a memtable flush, a compaction
stall) moves it fully — which is the split a regression bound needs.

A latency class that is rare in the op stream (1 % scans) cannot fill 20
slices, so a class is cut into as many slices as hold :data:`MIN_SAMPLES`
samples each (at most :data:`SLICES`, at least one); the slice count used is
reported next to the value.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: slices per measured phase; never reduced by ``--seconds``.
SLICES = 20
#: fewest samples of a class one slice may hold.
MIN_SAMPLES = 200


def slice_bounds(count: int, slices: int = SLICES) -> list[tuple[int, int]]:
    """``slices`` half-open index ranges of equal length covering a prefix of
    ``range(count)``; the ``count % slices`` trailing items are left out so
    every slice holds exactly the same number of ops."""
    if slices < 1:
        raise ValueError("need at least one slice")
    size = count // slices
    if size < 1:
        raise ValueError(f"{count} items cannot fill {slices} slices")
    return [(index * size, (index + 1) * size) for index in range(slices)]


def class_slices(samples: int) -> int:
    """How many slices a latency class with ``samples`` samples is cut into."""
    return max(1, min(SLICES, samples // MIN_SAMPLES))


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already sorted, non-empty series."""
    if not ordered:
        raise ValueError("percentile of an empty series")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def slice_median_percentile(
    samples: Sequence[float], fraction: float
) -> tuple[float, int]:
    """Median over slices of the per-slice percentile of a time-ordered
    series; returns ``(estimate, slices used)``."""
    slices = class_slices(len(samples))
    per_slice = [
        percentile(sorted(samples[start:end]), fraction)
        for start, end in slice_bounds(len(samples), slices)
    ]
    return statistics.median(per_slice), slices


def slice_rates(counts: Sequence[float], seconds: Sequence[float]) -> list[float]:
    """Per-slice rates (work per second) from per-slice work and wall time."""
    if len(counts) != len(seconds) or not counts:
        raise ValueError("need one duration per slice")
    return [count / elapsed for count, elapsed in zip(counts, seconds)]


def slice_median_rate(counts: Sequence[float], seconds: Sequence[float]) -> float:
    """Median over slices of the per-slice rate."""
    return statistics.median(slice_rates(counts, seconds))


def pooled_rate(counts: Sequence[float], seconds: Sequence[float]) -> float:
    """Total work over total time — the figure a slice median replaces; kept
    as a ``diag.*`` metric so what the median hides is still printed."""
    return sum(counts) / sum(seconds)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation over mean of the per-slice values (``diag.slice_cov``)."""
    if len(values) < 2:
        return 0.0
    mean = statistics.fmean(values)
    return statistics.pstdev(values) / mean if mean else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median:
    the run-to-run spread the A/A tool and the benchmark contract both use."""
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0
