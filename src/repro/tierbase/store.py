"""TierBase: an in-memory, Redis-like key-value store with value compression.

The paper's case study (Section 7.5, Table 8) integrates PBC_F into TierBase,
Ant Group's production distributed in-memory database.  The production system
cannot be reproduced, so this module provides a single-node simulator with the
same compression integration points (docs/ARCHITECTURE.md, substitution 4):

* offline, per-workload training of the value compressor (Zstd dictionary or
  PBC_F patterns) on a sample of values;
* SET compresses the value, GET decompresses it — a write batch is compressed
  once, logged once and applied once (``set`` is the one-item batch);
* a :class:`~repro.codecs.ModelLifecycle` (reservoir + drift monitor) flags
  the workload for re-training when the compression ratio or the PBC
  unmatched-record rate deteriorates past its threshold.

Retraining is **epoch-based** (:mod:`repro.codecs.model`): it installs a new
trained model and leaves every stored payload untouched — each payload header
names the epoch that wrote it, and the store ref-counts live payloads per
epoch so superseded models are pruned only once nothing references them.

Each key is held as one object, its ``TBS2`` record tail
``uvarint(original_size) ‖ uvarint(len(payload)) ‖ payload`` (docs/FORMATS.md
§8): replacing or deleting it re-reads its sizes and payload epoch, so the
totals behind :meth:`TierBase.stats` are kept running.  Scans bisect a sorted
key index — a sorted run plus the keys inserted since, merged lazily.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from repro.codecs.lifecycle import ModelLifecycle
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.exceptions import StoreError
from repro.oplog.log import OperationLog
from repro.oplog.record import OP_DELETE, OP_PUT
from repro.tierbase import snapshot as tbs
from repro.tierbase.compression import NoopValueCompressor, ValueCompressor

#: a delete merges the index first when more keys than this await a merge:
#: repeated linear searches of a long unsorted tail cost more than one sort.
_TAIL_SEARCH = 64


def _split(entry: bytes) -> tuple[int, int]:
    """``(original_size, payload offset)`` of a stored entry."""
    if entry[0] < 0x80 and entry[1] < 0x80:
        return entry[0], 2
    original_size, offset = decode_uvarint(entry)
    return original_size, decode_uvarint(entry, offset)[1]


@dataclass
class StoreStats:
    """Aggregate statistics of a TierBase instance."""

    keys: int
    memory_bytes: int
    original_value_bytes: int
    stored_value_bytes: int
    sets: int
    gets: int
    hits: int
    misses: int

    @property
    def value_ratio(self) -> float:
        """Compression ratio over the currently stored values."""
        if self.original_value_bytes == 0:
            return 1.0
        return self.stored_value_bytes / self.original_value_bytes


class TierBase:
    """Single-node TierBase simulator with pluggable value compression."""

    def __init__(
        self,
        compressor: ValueCompressor | None = None,
        ratio_threshold: float = 0.8,
        unmatched_threshold: float = 0.2,
        train_size: int = 256,
    ) -> None:
        self.compressor = compressor if compressor is not None else NoopValueCompressor()
        self.lifecycle = ModelLifecycle(
            reservoir_size=train_size,
            ratio_threshold=ratio_threshold,
            unmatched_threshold=unmatched_threshold,
        )
        self.monitor = self.lifecycle.monitor
        #: key -> ``uvarint(original_size) ‖ uvarint(len(payload)) ‖ payload``
        self._entries: dict[str, bytes] = {}
        #: the key index: a sorted run + the keys inserted since (_sorted_keys)
        self._sorted: list[str] = []
        self._unsorted: list[str] = []
        #: running totals over the live entries: stats() is O(1)
        self._key_bytes = self._original_bytes = self._stored_bytes = 0
        #: the store's mutation spine: every SET/DELETE is sequenced through
        #: it as an LSN-stamped record whose value is the *epoch-stamped
        #: compressed payload* — which is what lets a follower converge
        #: byte-exactly without ever holding a trained model.
        self.oplog = OperationLog()
        self._sets = 0
        self._gets = 0
        self._hits = 0
        self._misses = 0

    # --------------------------------------------------------------- training

    def fit(self, sample_values: Sequence[str]) -> bytes:
        """Offline half of training: model bytes fitted to a workload sample.
        Pure (it touches nothing of the store), so it needs no lock."""
        if not sample_values:
            raise StoreError("cannot train the value compressor on an empty sample")
        return self.compressor.fit(sample_values)

    def install(self, model: bytes, trained_records: int, retrain: bool = False) -> None:
        """Online half: ``model`` becomes the epoch future SETs are written at
        (stored payloads keep their own); a ``retrain`` resets the drift monitor."""
        self.compressor.install(model, trained_records)
        self.lifecycle.mark_trained(retrain)

    def train(self, sample_values: Sequence[str]) -> None:
        """Offline training of the value compressor on a workload sample."""
        self.install(self.fit(sample_values), len(sample_values))

    def retrain(self, sample_values: Sequence[str] | None = None) -> None:
        """Re-train the compressor on ``sample_values`` (default: the reservoir
        of recent values): :meth:`fit`, then :meth:`install`.  The fit runs on
        the caller's thread, which waits for it; stored payloads are untouched.
        """
        sample = list(sample_values) if sample_values is not None else self.lifecycle.sample()
        if sample_values is None and not sample:
            raise StoreError("cannot retrain: no sample provided and the reservoir is empty")
        self.install(self.fit(sample), len(sample), retrain=True)

    # ------------------------------------------------------------- operations

    def set(self, key: str, value: str) -> int:
        """Store ``value`` under ``key`` (compressed); returns the assigned LSN."""
        return self.set_many(((key, value),))

    def set_many(self, items: Sequence[tuple[str, str]]) -> int:
        """Store a batch of ``(key, value)``; returns the batch's last LSN
        (the current LSN for an empty batch).

        The whole batch is compressed *before* anything is mutated, so a value
        that fails to compress leaves the store, the log, the epoch refcounts
        and the lifecycle as they were.  The mutations are sequenced through
        the operation log *as the compressed, epoch-stamped payloads*: a
        subscriber replays exactly the bytes this store keeps, so replication
        needs no model shipping.  A key named twice keeps its last value.
        """
        values = [value for _, value in items]
        epoch, payloads = self.compressor.compress_many(values)
        lsn = self.oplog.append_many(
            [(OP_PUT, key, payload, epoch) for (key, _), payload in zip(items, payloads)]
        )
        self.compressor.acquire_epoch(epoch, len(payloads))
        entries = self._entries
        original_bytes = stored_bytes = 0
        for (key, value), payload in zip(items, payloads):
            previous = entries.get(key)
            if previous is None:
                self._unsorted.append(key)
                self._key_bytes += len(key.encode("utf-8"))
            else:
                self.compressor.release_epoch(self._count(previous, -1))
            original_size = len(value.encode("utf-8"))
            entries[key] = encode_uvarint(original_size) + encode_uvarint(len(payload)) + payload
            original_bytes += original_size
            stored_bytes += len(payload)
        self._original_bytes += original_bytes
        self._stored_bytes += stored_bytes
        self._sets += len(payloads)
        self.lifecycle.observe_many(values, original_bytes, stored_bytes)
        return lsn

    def get(self, key: str) -> str:
        """Fetch and decompress the value stored under ``key``."""
        payload = self.get_compressed(key)
        if payload is None:
            raise KeyError(key)
        return self.compressor.decompress(payload)

    def get_compressed(self, key: str) -> bytes | None:
        """Fetch the stored (compressed) payload without decompressing it.

        This is the read path of the service layer's compressed LRU cache: the
        payload is cached as-is and only decompressed on a cache hit.  Counts
        as a GET in the store statistics.
        """
        self._gets += 1
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        self._hits += 1
        if entry[0] < 0x80 and entry[1] < 0x80:
            return entry[2:]
        return entry[_split(entry)[1] :]

    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether it existed.

        Sequenced through the operation log unconditionally (the attempt is
        the mutation command; deleting an absent key replays as a no-op), so
        a follower sees every delete the primary saw.  The assigned LSN is
        observable as :attr:`last_applied_lsn`.
        """
        self.oplog.append(OP_DELETE, key)
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.compressor.release_epoch(self._count(entry, -1))
        self._key_bytes -= len(key.encode("utf-8"))
        index = self._sorted_keys() if len(self._unsorted) > _TAIL_SEARCH else self._sorted
        position = bisect_left(index, key)
        if position < len(index) and index[position] == key:
            del index[position]
        else:
            self._unsorted.remove(key)
        return True

    def _count(self, entry: bytes, sign: int) -> int:
        """Add (``sign`` 1) or take out (-1) an entry's sizes from the running
        totals; returns its payload's epoch."""
        original_size, offset = _split(entry)
        self._original_bytes += sign * original_size
        self._stored_bytes += sign * (len(entry) - offset)
        return self.compressor.payload_epoch(entry[offset:])

    def _sorted_keys(self) -> list[str]:
        """The sorted index, with the keys inserted since the last call merged
        in (Timsort merges the sorted run and a short tail in near-linear time)."""
        if self._unsorted:
            self._sorted += self._unsorted
            self._unsorted.clear()
            self._sorted.sort()
        return self._sorted

    def exists(self, key: str) -> bool:
        """Whether ``key`` is present."""
        return key in self._entries

    def keys(self) -> Iterator[str]:
        """Iterate over all stored keys in sorted order.

        Sorted iteration is a contract, not an accident: the service layer's
        range scans merge per-shard streams in key order, so every backend
        must produce ordered keys.  (Before range scans existed this leaked
        dict insertion order.)  It walks a copy: the store may change meanwhile.
        """
        return iter(list(self._sorted_keys()))

    def scan(
        self, start: str | None = None, end: str | None = None, limit: int | None = None
    ) -> Iterator[tuple[str, str]]:
        """Entries with ``start <= key < end`` in key order, decompressed on yield.

        ``limit`` bounds the number of results; values are decompressed one at
        a time as the iterator advances, so an abandoned scan never pays for
        entries it did not reach.  Scanned entries count as GET hits.  A key
        deleted before the scan reaches it is skipped; one overwritten yields
        its new value.
        """
        if limit is not None and limit <= 0:
            return
        index = self._sorted_keys()
        low = 0 if start is None else bisect_left(index, start)
        high = len(index) if end is None else bisect_left(index, end)
        if limit is not None:
            high = min(high, low + limit)
        for key in index[low:high]:
            entry = self._entries.get(key)
            if entry is None:
                continue
            self._gets += 1
            self._hits += 1
            yield key, self.compressor.decompress(entry[_split(entry)[1] :])

    def entries(self) -> Iterator[tuple[str, int, bytes]]:
        """``(key, original_size, payload)`` per stored key, in the order a
        snapshot writes them (first insertion).  A read, not a GET: no counter moves."""
        for key, entry in list(self._entries.items()):
            original_size, offset = _split(entry)
            yield key, original_size, entry[offset:]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # ------------------------------------------------------------ persistence

    def save(self, path: str | Path, sync: bool = True) -> None:
        """Atomically publish a ``TBS2`` snapshot of this store at ``path``.

        The snapshot carries the still-compressed payloads, the compressor's
        persisted model store, and the store's last-applied LSN
        (docs/FORMATS.md §8), so :meth:`load` decodes every payload with the
        exact epoch that wrote it and resumes the operation-log sequence
        where it left off.  A crash mid-save leaves the previous complete
        snapshot in place.
        """
        tbs.write_snapshot(self, path, sync=sync)

    @classmethod
    def load(
        cls,
        path: str | Path,
        compressor: ValueCompressor | None = None,
        ratio_threshold: float = 0.8,
        unmatched_threshold: float = 0.2,
        train_size: int = 256,
    ) -> "TierBase":
        """Rebuild a store from a ``TBS2`` (or legacy ``TBS1``) snapshot.

        ``compressor`` must be a fresh instance of the same compressor kind
        that wrote the snapshot — its trained model epochs are restored from
        the snapshot itself.  Mismatches fail typed: a versioned snapshot
        opened with an un-versioned compressor (or vice versa) is a
        :class:`StoreError`, and a different codec is the
        :class:`~repro.exceptions.CodecError` from ``load_models``.
        """
        content = tbs.read_snapshot(path)
        store = cls(
            compressor=compressor,
            ratio_threshold=ratio_threshold,
            unmatched_threshold=unmatched_threshold,
            train_size=train_size,
        )
        versioned = store.compressor.dump_models() is not None
        if content.models is not None and not versioned:
            raise StoreError(
                f"snapshot {path} was written by the versioned compressor "
                f"{content.compressor_name!r}; reopen it with that compressor, "
                f"not {store.compressor.name!r}"
            )
        if content.models is None and versioned:
            raise StoreError(
                f"snapshot {path} was written by the un-versioned compressor "
                f"{content.compressor_name!r}; reopen it with that compressor, "
                f"not {store.compressor.name!r}"
            )
        if content.models is not None:
            store.compressor.load_models(content.models)
        epochs = Counter()
        for key, entry in content.entries:
            epochs[store._count(entry, 1)] += 1
            store._entries[key] = entry
            store._key_bytes += len(key.encode("utf-8"))
        for epoch, count in epochs.items():
            store.compressor.acquire_epoch(epoch, count)
        store._unsorted = list(store._entries)
        # Snapshot entries are *applied*, not re-logged — they already carry
        # the LSNs the writer assigned; resume the sequence past the stamp
        # (0 for legacy TBS1 snapshots, which predate LSNs).
        store.oplog.advance_to(content.last_applied_lsn)
        return store

    # ---------------------------------------------------------- operation log

    @property
    def last_applied_lsn(self) -> int:
        """The newest LSN this store has applied (0 before the first mutation)."""
        return self.oplog.last_lsn

    # --------------------------------------------------------------- metrics

    @property
    def memory_bytes(self) -> int:
        """Approximate memory footprint: keys plus compressed values."""
        return self._key_bytes + self._stored_bytes

    def needs_retraining(self) -> bool:
        """Whether the compression monitor recommends a re-training pass."""
        return self.lifecycle.needs_retrain(self.compressor.outlier_rate)

    def stats(self) -> StoreStats:
        """Aggregate statistics snapshot."""
        return StoreStats(
            keys=len(self._entries),
            memory_bytes=self.memory_bytes,
            original_value_bytes=self._original_bytes,
            stored_value_bytes=self._stored_bytes,
            sets=self._sets,
            gets=self._gets,
            hits=self._hits,
            misses=self._misses,
        )
