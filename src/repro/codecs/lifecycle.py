"""The single train → monitor-drift → retrain lifecycle.

Before this module existed the tree carried three independent copies of the
same loop: ``repro.stream.adaptive`` (windowed outlier-rate drift over
frames), ``repro.tierbase.store`` (ratio/outlier monitor with stop-the-world
recompression) and ``repro.service`` (per-shard reservoir + background
retrain).  They are now three thin views over this module:

* :class:`DriftMonitor` — cumulative compression-ratio and outlier-rate
  thresholds (Section 7.5's monitoring counters),
* :class:`DriftWindow` — the windowed variant used by the stream's adaptive
  selector (mean outlier rate over the last N frames),
* :class:`ModelLifecycle` — monitor plus a sliding reservoir of recent values
  that serves as the retraining sample, so the new model reflects the drifted
  workload.

Retraining itself is epoch-based (:mod:`repro.codecs.model`): a retrain
installs a new :class:`~repro.codecs.model.VersionedModel` and never touches
payloads written under old epochs.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Sequence


@dataclass
class DriftMonitor:
    """Tracks the live compression ratio and the unmatched-pattern rate.

    ``ratio_threshold`` is the ratio above which the workload is considered to
    have drifted; ``unmatched_threshold`` is the outlier-rate limit of the PBC
    path (Section 7.5's counter of records that match no pattern).  Nothing
    fires before ``min_observations`` values have been seen.
    """

    ratio_threshold: float = 0.8
    unmatched_threshold: float = 0.2
    min_observations: int = 64
    original_bytes: int = 0
    stored_bytes: int = 0
    values_seen: int = 0
    retraining_events: int = 0

    @property
    def ratio(self) -> float:
        """Observed compression ratio over all observed writes."""
        if self.original_bytes == 0:
            return 1.0
        return self.stored_bytes / self.original_bytes

    def observe(self, original_size: int, stored_size: int, values: int = 1) -> None:
        """Record ``values`` writes totalling the given sizes."""
        self.original_bytes += original_size
        self.stored_bytes += stored_size
        self.values_seen += values

    def needs_retraining(self, outlier_rate: float = 0.0) -> bool:
        """Whether the monitored signals crossed their thresholds."""
        if self.values_seen < self.min_observations:
            return False
        if self.ratio > self.ratio_threshold:
            return True
        return outlier_rate > self.unmatched_threshold

    def reset(self) -> None:
        """Clear the counters after a re-training event."""
        self.original_bytes = 0
        self.stored_bytes = 0
        self.values_seen = 0
        self.retraining_events += 1


class DriftWindow:
    """Windowed outlier-rate drift detector (the stream selector's view).

    Tracks the outlier rate of the most recent observations (frames) and
    reports drift once the window is full and its mean crosses ``threshold``.
    """

    def __init__(self, window: int = 4, threshold: float = 0.25) -> None:
        self.threshold = threshold
        self.rates: deque[float] = deque(maxlen=max(1, window))

    def observe(self, outlier_rate: float) -> None:
        """Record one observation's outlier rate."""
        self.rates.append(outlier_rate)

    @property
    def mean(self) -> float:
        """Mean outlier rate over the window (0.0 while warming up)."""
        if not self.rates:
            return 0.0
        return sum(self.rates) / len(self.rates)

    @property
    def drifted(self) -> bool:
        """Whether the window is full and its mean crossed the threshold."""
        return len(self.rates) == self.rates.maxlen and self.mean >= self.threshold

    def reset(self) -> None:
        """Clear the window (after a retrain)."""
        self.rates.clear()


class ModelLifecycle:
    """Reservoir sampling + drift monitoring + retrain triggering, in one place.

    The owner calls :meth:`observe_many` on every write batch (feeding both the
    monitor and the sliding reservoir of recent values), asks :meth:`needs_retrain`
    after write batches, fits a model to :meth:`sample` when drift is flagged
    and calls :meth:`mark_trained` once that model is installed.  The reservoir
    is a sliding window of the most recent values, so the retrained model
    reflects the drifted workload rather than the one it was originally
    trained on.

    The reservoir and counters are expected to be touched by one writer at a
    time (TierBase instance / shard lock), matching every pre-registry
    copy of this loop.
    """

    def __init__(
        self,
        reservoir_size: int = 256,
        ratio_threshold: float = 0.8,
        unmatched_threshold: float = 0.2,
        min_observations: int = 64,
    ) -> None:
        self.monitor = DriftMonitor(
            ratio_threshold=ratio_threshold,
            unmatched_threshold=unmatched_threshold,
            min_observations=min_observations,
        )
        self.reservoir: deque[str] = deque(maxlen=max(1, reservoir_size))
        #: monotonic instant the current model epoch was installed (None =
        #: never trained); feeds the ``model_epoch_age_seconds`` shard gauge.
        self.trained_at: float | None = None

    def observe_many(self, values: Sequence[str], original_bytes: int, stored_bytes: int) -> None:
        """Record a write batch (sizes are the batch totals): monitor counters
        plus the retraining reservoir, in write order."""
        self.monitor.observe(original_bytes, stored_bytes, len(values))
        self.reservoir.extend(values)

    def needs_retrain(self, outlier_rate: float = 0.0) -> bool:
        """Whether the drift monitor recommends retraining."""
        return self.monitor.needs_retraining(outlier_rate)

    def sample(self) -> list[str]:
        """The current retraining sample (most recent values first-in order)."""
        return list(self.reservoir)

    def mark_trained(self, retrain: bool = False) -> None:
        """Stamp the current instant as the active model epoch's install time;
        a ``retrain`` (not the initial training) also resets the monitor
        counters — and nothing else: with versioned models there are no
        payloads to rewrite."""
        if retrain:
            self.monitor.reset()
        self.trained_at = time.monotonic()

    @property
    def model_age_seconds(self) -> float:
        """Seconds since the current model epoch was installed (0.0 untrained)."""
        if self.trained_at is None:
            return 0.0
        return max(0.0, time.monotonic() - self.trained_at)

    @property
    def retrain_events(self) -> int:
        """How many retraining events the monitor has recorded."""
        return self.monitor.retraining_events
