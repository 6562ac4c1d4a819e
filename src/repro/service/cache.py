"""Thread-safe LRU read cache that stores *compressed* value payloads.

The paper's per-record compressors keep decompression cheap enough that a
read cache can hold values in their compressed form and decompress on every
hit: memory stretches by the compression ratio (Section 7.5's motivation for
compressing TierBase values at all) while a hit still avoids the backend
round-trip.  Only the payload bytes live here; decompression stays with the
shard that owns the key, because each shard trains its own compressor.

Every cached payload carries its versioned-model header (codec magic +
epoch, docs/FORMATS.md §6), so cache hits stay decodable across shard
retrains and the cache is **not** cleared when a shard retrains.  The only
stale case left is a payload whose model epoch was pruned after caching
(its last live backend reference was overwritten or deleted); decompressing
it raises the typed :class:`~repro.exceptions.ModelEpochError`, which the
service treats as a miss — it no longer swallows arbitrary decompression
errors the way the pre-epoch "stale-dictionary fallback" did.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from repro.exceptions import ServiceError


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of a :class:`CompressedLRUCache`."""

    entries: int
    compressed_bytes: int
    hits: int
    misses: int
    evictions: int
    invalidations: int
    #: total :meth:`CompressedLRUCache.get` calls, counted independently of
    #: the hit/miss classification so ``hits + misses == lookups`` is a real
    #: invariant (checked by :meth:`ServiceSnapshot.validate`), not a tautology.
    lookups: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over all lookups (0.0 before the first lookup)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class CompressedLRUCache:
    """LRU map from key to compressed payload with byte- and entry-capacity.

    All methods are safe to call from any thread.  ``max_bytes`` bounds the
    payload bytes held (``None`` for unbounded); ``max_entries`` bounds the
    entry count.  Writes to the underlying store must call :meth:`invalidate`
    so a subsequent read re-fetches the new payload.
    """

    def __init__(self, max_entries: int = 1024, max_bytes: int | None = None) -> None:
        if max_entries < 1:
            raise ServiceError("cache needs room for at least one entry")
        if max_bytes is not None and max_bytes < 1:
            raise ServiceError("cache byte capacity must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._lookups = 0

    def get(self, key: str) -> bytes | None:
        """Compressed payload for ``key`` or ``None``; a hit refreshes recency."""
        with self._lock:
            self._lookups += 1
            payload = self._entries.get(key)
            if payload is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return payload

    def put(self, key: str, payload: bytes) -> None:
        """Insert or refresh ``key``; evicts least-recently-used entries to fit."""
        with self._lock:
            existing = self._entries.pop(key, None)
            if existing is not None:
                self._bytes -= len(existing)
            self._entries[key] = payload
            self._bytes += len(payload)
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None and self._bytes > self.max_bytes and len(self._entries) > 1
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self._evictions += 1

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` (after an overwrite or delete); returns whether it was cached."""
        return self.invalidate_many((key,)) > 0

    def invalidate_many(self, keys: Iterable[str]) -> int:
        """Drop a write batch's keys under one lock acquisition; returns the hits."""
        dropped = 0
        with self._lock:
            for key in keys:
                payload = self._entries.pop(key, None)
                if payload is not None:
                    self._bytes -= len(payload)
                    dropped += 1
            self._invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop every entry.

        No longer part of the retrain path (epoch-stamped payloads survive
        retrains); kept for tests and explicit cache resets.
        """
        with self._lock:
            self._invalidations += len(self._entries)
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        """Snapshot of the cache counters."""
        with self._lock:
            return CacheStats(
                entries=len(self._entries),
                compressed_bytes=self._bytes,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                lookups=self._lookups,
            )
