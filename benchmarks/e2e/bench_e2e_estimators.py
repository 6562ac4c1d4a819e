"""Checks of the slice-median estimators on synthetic series.

Collected by ``pytest benchmarks`` (the ``bench_`` prefix is deliberate).  The
two properties the benchmark's bounds rest on: a disturbance confined to a
quarter of the slices must not move an estimate, and a cost present in every
slice must move it fully.
"""

from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import estimators  # noqa: E402

SLICE_OPS = 1000
BASE_SECONDS = 0.5


def _slice_seconds(rng: random.Random, slow: set[int], factor: float) -> list[float]:
    return [
        BASE_SECONDS * rng.uniform(0.99, 1.01) * (factor if index in slow else 1.0)
        for index in range(estimators.SLICES)
    ]


def _latencies(rng: random.Random, slow: set[int], stall_share: float) -> list[float]:
    """Per-op latencies, slice after slice: a 30 %-slow burst in ``slow``
    slices, and in *every* slice a ``stall_share`` of ops ten times slower."""
    samples = []
    for index in range(estimators.SLICES):
        burst = 1.3 if index in slow else 1.0
        for _ in range(SLICE_OPS):
            stall = 10.0 if rng.random() < stall_share else 1.0
            samples.append(100.0 * rng.uniform(0.9, 1.1) * burst * stall)
    return samples


def test_slices_are_equal_and_cover_a_prefix():
    bounds = estimators.slice_bounds(2019)
    assert len(bounds) == estimators.SLICES
    assert {end - start for start, end in bounds} == {100}
    assert bounds[0][0] == 0 and bounds[-1][1] == 2000
    with pytest.raises(ValueError):
        estimators.slice_bounds(estimators.SLICES - 1)


def test_a_class_needs_200_samples_per_slice():
    assert estimators.class_slices(199) == 1
    assert estimators.class_slices(400) == 2
    assert estimators.class_slices(3999) == 19
    assert estimators.class_slices(10**6) == estimators.SLICES
    estimate, slices = estimators.slice_median_percentile(list(range(450)), 0.5)
    assert slices == 2  # two slices of 225 samples
    assert estimate == statistics.median([112.0, 337.0])


def test_burst_in_a_quarter_of_the_slices_does_not_move_a_rate():
    rng = random.Random(1)
    counts = [SLICE_OPS] * estimators.SLICES
    quiet = estimators.slice_median_rate(counts, _slice_seconds(rng, set(), 1.0))
    burst = _slice_seconds(rng, set(range(5, 10)), 1.3)
    assert abs(estimators.slice_median_rate(counts, burst) / quiet - 1) < 0.03
    # ... while the pooled figure it replaces moves by the burst's full weight.
    assert estimators.pooled_rate(counts, burst) / quiet < 0.95


def test_stall_in_every_slice_moves_a_rate_fully():
    rng = random.Random(2)
    counts = [SLICE_OPS] * estimators.SLICES
    quiet = estimators.slice_median_rate(counts, _slice_seconds(rng, set(), 1.0))
    stalled = _slice_seconds(rng, set(range(estimators.SLICES)), 1.3)
    assert estimators.slice_median_rate(counts, stalled) / quiet == pytest.approx(1 / 1.3, rel=0.02)


def test_burst_in_a_quarter_of_the_slices_does_not_move_a_percentile():
    quiet = _latencies(random.Random(3), set(), 0.0)
    burst = _latencies(random.Random(3), set(range(0, 5)), 0.0)
    for fraction in (0.50, 0.95):
        before, _ = estimators.slice_median_percentile(quiet, fraction)
        after, slices = estimators.slice_median_percentile(burst, fraction)
        assert slices == estimators.SLICES
        assert abs(after / before - 1) < 0.03
    pooled = estimators.percentile(sorted(burst), 0.95) / estimators.percentile(sorted(quiet), 0.95)
    assert pooled > 1.10


def test_stall_in_every_slice_moves_a_percentile_fully():
    quiet = _latencies(random.Random(4), set(), 0.0)
    stalled = _latencies(random.Random(4), set(), 0.08)  # 8 % of ops, every slice
    before, _ = estimators.slice_median_percentile(quiet, 0.95)
    after, _ = estimators.slice_median_percentile(stalled, 0.95)
    assert after / before > 5  # the p95 now sits in the stalled ops
    median_before, _ = estimators.slice_median_percentile(quiet, 0.50)
    median_after, _ = estimators.slice_median_percentile(stalled, 0.50)
    assert median_after / median_before < 1.05  # ... and the median does not


def test_quartile_spread_is_the_contracts_definition():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    first, _, third = statistics.quantiles(values, n=4)
    assert estimators.quartile_spread(values) == (third - first) / statistics.median(values)
