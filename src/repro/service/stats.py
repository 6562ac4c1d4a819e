"""Latency tracking and service-wide statistics snapshots.

Latencies are recorded into a bounded sliding window (the most recent
``window`` samples per operation kind), from which percentiles are computed
with the nearest-rank method at snapshot time — good enough for the p50/p99
service metrics the benchmark reports, without keeping every sample alive.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.service.cache import CacheStats


def percentile(sorted_samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(0, min(len(sorted_samples) - 1, round(fraction * (len(sorted_samples) - 1))))
    return sorted_samples[rank]


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of one operation kind's recent latencies."""

    operations: int
    window: int
    p50_ms: float
    p99_ms: float
    mean_ms: float

    @staticmethod
    def empty() -> "LatencySummary":
        return LatencySummary(operations=0, window=0, p50_ms=0.0, p99_ms=0.0, mean_ms=0.0)


class LatencyRecorder:
    """Thread-safe sliding window of per-operation latencies (seconds)."""

    def __init__(self, window: int = 8192) -> None:
        self._samples: deque[float] = deque(maxlen=max(1, window))
        self._operations = 0
        self._lock = threading.Lock()

    def record(self, seconds: float, operations: int = 1) -> None:
        """Record one latency sample covering ``operations`` logical operations.

        Batched calls (``mget``/``mset``) record the amortised per-operation
        latency once per batch member, so percentiles stay comparable between
        batched and single-operation workloads.
        """
        with self._lock:
            self._operations += operations
            if operations == 1:
                self._samples.append(seconds)
            else:
                amortised = seconds / operations
                for _ in range(min(operations, self._samples.maxlen or operations)):
                    self._samples.append(amortised)

    def summary(self) -> LatencySummary:
        """Percentile summary over the current window."""
        with self._lock:
            samples = sorted(self._samples)
            operations = self._operations
        if not samples:
            return LatencySummary.empty()
        return LatencySummary(
            operations=operations,
            window=len(samples),
            p50_ms=percentile(samples, 0.50) * 1e3,
            p99_ms=percentile(samples, 0.99) * 1e3,
            mean_ms=sum(samples) / len(samples) * 1e3,
        )


@dataclass(frozen=True)
class ShardSnapshot:
    """Point-in-time view of one shard's backend."""

    shard_id: int
    backend: str
    compressor: str
    keys: int
    original_bytes: int
    stored_bytes: int
    sets: int
    gets: int
    retrain_events: int
    outlier_rate: float
    #: durable footprint: SSTables + WAL (lsm) or the TBS2 snapshot file
    #: (directory-backed tierbase); 0 for purely in-memory shards.
    bytes_on_disk: int = 0
    #: model epoch new writes are stamped with (0 = untrained / plain codec).
    model_epoch: int = 0
    #: seconds since the current model epoch was installed (0.0 = untrained).
    model_epoch_age_seconds: float = 0.0
    #: SSTable file count (lsm shards; 0 elsewhere).
    sstables: int = 0
    #: WAL fsync barriers taken and their cumulative duration (lsm shards).
    wal_fsyncs: int = 0
    wal_fsync_seconds: float = 0.0
    #: distinct live SSTable levels (lsm shards; 0 when empty).
    levels: int = 0
    #: bytes in levels at/over the compaction trigger, i.e. merge backlog.
    pending_compaction_bytes: int = 0
    #: cumulative seconds writes spent throttled by L0 admission control.
    compaction_stall_seconds: float = 0.0
    #: merges performed by this shard's engine (background + inline).
    compactions: int = 0
    #: newest operation-log LSN this shard has applied (0 = no writes yet);
    #: the ``repro_shard_last_lsn`` gauge and the read-your-writes watermark.
    last_lsn: int = 0
    #: worst subscriber backlog on this shard's operation log, in records
    #: (the ``repro_oplog_subscriber_lag_records`` gauge; 0 = no subscribers
    #: or all caught up).
    oplog_lag_records: int = 0

    @property
    def ratio(self) -> float:
        """Compression ratio of the values currently stored on this shard."""
        if self.original_bytes == 0:
            return 1.0
        return self.stored_bytes / self.original_bytes


@dataclass(frozen=True)
class ServiceSnapshot:
    """Service-wide statistics: shards, cache, and latency percentiles."""

    shards: tuple[ShardSnapshot, ...]
    cache: CacheStats
    get_latency: LatencySummary
    set_latency: LatencySummary
    gets: int
    sets: int
    deletes: int
    cache_hits: int
    retrain_events: int

    @property
    def keys(self) -> int:
        """Total keys across every shard."""
        return sum(shard.keys for shard in self.shards)

    @property
    def ratio(self) -> float:
        """Service-wide compression ratio over the stored values."""
        original = sum(shard.original_bytes for shard in self.shards)
        stored = sum(shard.stored_bytes for shard in self.shards)
        if original == 0:
            return 1.0
        return stored / original

    @property
    def bytes_on_disk(self) -> int:
        """Total durable footprint across every shard."""
        return sum(shard.bytes_on_disk for shard in self.shards)

    def shard_rows(self) -> list[dict]:
        """Per-shard table rows for :func:`repro.bench.render_table`."""
        return [
            {
                "shard": shard.shard_id,
                "backend": shard.backend,
                "compressor": shard.compressor,
                "keys": shard.keys,
                "ratio": round(shard.ratio, 3),
                "outlier_rate": round(shard.outlier_rate, 3),
                "retrains": shard.retrain_events,
            }
            for shard in self.shards
        ]

    def summary_rows(self) -> list[dict]:
        """Service-level table rows (keys, ratio, cache, latency percentiles)."""
        return [
            {"metric": "keys", "value": f"{self.keys:,}"},
            {"metric": "value_ratio", "value": f"{self.ratio:.3f}"},
            {"metric": "cache_hit_rate", "value": f"{self.cache.hit_rate:.3f}"},
            {"metric": "cache_entries", "value": self.cache.entries},
            {"metric": "get_p50_ms", "value": f"{self.get_latency.p50_ms:.3f}"},
            {"metric": "get_p99_ms", "value": f"{self.get_latency.p99_ms:.3f}"},
            {"metric": "set_p50_ms", "value": f"{self.set_latency.p50_ms:.3f}"},
            {"metric": "set_p99_ms", "value": f"{self.set_latency.p99_ms:.3f}"},
            {"metric": "retrain_events", "value": self.retrain_events},
        ]

    def validate(self, concurrent: bool = False) -> "ServiceSnapshot":
        """Check the cross-counter invariants; raises :class:`ServiceError`.

        The default (``concurrent=False``) is the strict quiescent contract
        (no in-flight operations while the snapshot was taken — e.g. after a
        workload's clients joined).  With ``concurrent=True`` the check is
        safe while traffic is running — the mode metrics scrapes use:

        * every cache lookup is classified: ``hits + misses == lookups``.
          This holds in **both** modes: the cache updates all three counters
          under one lock and :meth:`CompressedLRUCache.stats` copies them
          under the same lock, so a scrape can never observe a torn state;
        * every logical GET consults the cache exactly once, so the cache's
          lookup count equals the service's GET count.  Under concurrent
          traffic the two counters live behind different locks, but
          :meth:`KVService.snapshot` captures the GET counter *before* the
          cache stats and every GET bumps its cache lookup *before* its GET
          counter — so ``lookups >= gets`` is guaranteed even mid-traffic,
          and that is what ``concurrent=True`` checks (equality would flag
          requests that were simply in flight during the scrape);
        * a service-level cache hit (payload found *and* decoded) implies a
          raw cache hit, so ``cache_hits <= cache.hits`` (same capture-order
          argument; valid in both modes);
        * counters never go negative.
        """
        from repro.exceptions import ServiceError

        if self.cache.hits + self.cache.misses != self.cache.lookups:
            raise ServiceError(
                f"inconsistent cache stats: {self.cache.hits} hits + "
                f"{self.cache.misses} misses != {self.cache.lookups} lookups"
            )
        if self.cache.lookups < self.gets or (
            not concurrent and self.cache.lookups != self.gets
        ):
            raise ServiceError(
                f"inconsistent cache stats: {self.cache.lookups} cache lookups "
                f"for {self.gets} service GETs (every GET must consult the "
                f"cache exactly once)"
            )
        if self.cache_hits > self.cache.hits:
            raise ServiceError(
                f"inconsistent cache stats: service decoded {self.cache_hits} "
                f"cache hits but the cache only saw {self.cache.hits}"
            )
        counters = {
            "gets": self.gets,
            "sets": self.sets,
            "deletes": self.deletes,
            "cache_hits": self.cache_hits,
            "retrain_events": self.retrain_events,
            "cache.entries": self.cache.entries,
            "cache.evictions": self.cache.evictions,
            "cache.invalidations": self.cache.invalidations,
        }
        negative = {name: value for name, value in counters.items() if value < 0}
        if negative:
            raise ServiceError(f"negative counters in snapshot: {negative}")
        return self
