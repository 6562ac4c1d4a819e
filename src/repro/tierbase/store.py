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

The keys live in **sorted pages** behind a small write buffer.  A page is
one ``bytes`` object holding up to :data:`PAGE_KEYS` consecutive ``TBS2``
per-key records (docs/FORMATS.md §8), ``uvarint(len(key)) ‖ key ‖
uvarint(original_size) ‖ uvarint(len(payload)) ‖ payload``, with its first key
kept for ``bisect`` and its record start offsets in an ``array('H')``: every
per-object overhead is spread over a page's keys, so resident memory follows
the compressed payloads (Table 8).  A GET bisects to a page and looks for
``uvarint(len(key)) ‖ key`` in it with ``bytes.find``, counting only a hit at
a record start.  SETs and DELETEs (as ``None`` tombstones) land in a dict
buffer that merges into the pages past :data:`BUFFER_KEYS` keys, rebuilding
only the pages it touches; scans, snapshots and ``entries()`` merge it first
and then walk the pages in key order.  Replacing or deleting a key re-reads
its old entry's sizes and payload epoch, so the totals behind
:meth:`TierBase.stats` are kept running.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from operator import itemgetter
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

#: most records a page holds (fewer when its record offsets would pass 0xFFFF)
PAGE_KEYS = 64
#: buffered SETs and DELETEs past which the buffer merges into the pages
BUFFER_KEYS = 256

#: ``_buffer.get`` default: the key has no buffered write, look in the pages
_PAGED = object()


def _split(data: bytes, start: int = 0) -> tuple[int, int]:
    """``(original_size, payload offset)`` of the entry at ``data[start:]``."""
    if data[start] < 0x80 and data[start + 1] < 0x80:
        return data[start], start + 2
    original_size, offset = decode_uvarint(data, start)
    return original_size, decode_uvarint(data, offset)[1]


def _key_at(page: bytes, offset: int) -> tuple[bytes, int]:
    """``(key, entry offset)`` of the record starting at ``page[offset]``."""
    length = page[offset]
    if length < 0x80:
        offset += 1
    else:
        length, offset = decode_uvarint(page, offset)
    return page[offset : offset + length], offset + length


def _lower_bound(page: bytes, bounds: list[int], key: bytes, low: int = 0) -> int:
    """The first record slot from ``low`` on whose key is not below ``key``
    (``bounds``: the page's record offsets, then its length)."""
    high = len(bounds) - 1
    while low < high:
        middle = (low + high) // 2
        if _key_at(page, bounds[middle])[0] < key:
            low = middle + 1
        else:
            high = middle
    return low


def _paginate(data: bytes, starts: list[int]) -> tuple[list[bytes], list[bytes], list[array]]:
    """``(pages, first keys, record offsets)`` cut from ``data``, sorted records
    starting at ``starts``: as few pages as :data:`PAGE_KEYS` allows, evenly
    filled, each page's offsets within ``array('H')`` (records that all fit
    one page stay ``data`` itself)."""
    pages: list[bytes] = []
    firsts: list[bytes] = []
    offsets: list[array] = []
    count = len(starts)
    per_page = -(-count // -(-count // PAGE_KEYS)) if count else 0
    first = 0
    while first < count:
        base = starts[first]
        last = min(first + per_page, bisect_right(starts, base + 0xFFFF, first))
        page = data[base : starts[last] if last < count else len(data)]
        pages.append(page)
        firsts.append(_key_at(page, 0)[0])
        offsets.append(array("H", [start - base for start in starts[first:last]]))
        first = last
    return pages, firsts, offsets


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
        #: the sorted pages, each page's first key and its record offsets
        self._pages: list[bytes] = []
        self._first_keys: list[bytes] = []
        self._offsets: list[array] = []
        self._last_key = b""  # the greatest paged key
        #: key -> entry (``uvarint(original_size) ‖ uvarint(len(payload)) ‖
        #: payload``), or ``None`` for a delete, not yet merged into the pages
        self._buffer: dict[str, bytes | None] = {}
        self._live = 0
        #: bumped by every SET batch, DELETE and merge: a parked scan walks on
        #: afresh from the last key it yielded
        self._version = 0
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
        buffer = self._buffer
        original_bytes = stored_bytes = 0
        for (key, value), payload in zip(items, payloads):
            previous = self._locate(key)
            if previous is None:
                self._live += 1
                self._key_bytes += len(key.encode("utf-8"))
            else:
                self.compressor.release_epoch(self._count(*previous, -1))
            original_size = len(value.encode("utf-8"))
            buffer[key] = encode_uvarint(original_size) + encode_uvarint(len(payload)) + payload
            original_bytes += original_size
            stored_bytes += len(payload)
        self._original_bytes += original_bytes
        self._stored_bytes += stored_bytes
        self._sets += len(payloads)
        self.lifecycle.observe_many(values, original_bytes, stored_bytes)
        self._version += 1
        if len(buffer) > BUFFER_KEYS:
            self._merge()
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
        found = self._locate(key)
        if found is None:
            self._misses += 1
            return None
        self._hits += 1
        data, start, end = found
        return data[_split(data, start)[1] : end]

    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether it existed.

        Sequenced through the operation log unconditionally (the attempt is
        the mutation command; deleting an absent key replays as a no-op), so
        a follower sees every delete the primary saw.  The assigned LSN is
        observable as :attr:`last_applied_lsn`.
        """
        self.oplog.append(OP_DELETE, key)
        found = self._locate(key)
        if found is None:
            return False
        self.compressor.release_epoch(self._count(*found, -1))
        self._key_bytes -= len(key.encode("utf-8"))
        self._live -= 1
        self._buffer[key] = None
        self._version += 1
        if len(self._buffer) > BUFFER_KEYS:
            self._merge()
        return True

    def _count(self, data: bytes, start: int, end: int, sign: int) -> int:
        """Add (``sign`` 1) or take out (-1) the sizes of the entry at
        ``data[start:end]`` from the running totals; returns its payload's epoch."""
        original_size, offset = _split(data, start)
        self._original_bytes += sign * original_size
        self._stored_bytes += sign * (end - offset)
        return self.compressor.payload_epoch(data[offset:end])

    # ------------------------------------------------------------------ pages

    def _locate(self, key: str) -> tuple[bytes, int, int] | None:
        """``(data, entry start, entry end)`` of ``key``'s live entry, in its
        buffered write or its page."""
        entry = self._buffer.get(key, _PAGED)
        if entry is None:
            return None
        if entry is not _PAGED:
            return entry, 0, len(entry)
        key_bytes = key.encode("utf-8")
        if key_bytes > self._last_key:
            return None  # above every paged key: an append, as in a preload
        index = bisect_right(self._first_keys, key_bytes) - 1
        if index < 0:
            return None
        page, offsets = self._pages[index], self._offsets[index]
        needle = encode_uvarint(len(key_bytes)) + key_bytes
        # ``find`` may also match inside another record's payload; only a
        # match at a recorded record start is the key's record.
        position = page.find(needle)
        while position >= 0:
            slot = bisect_left(offsets, position)
            if slot < len(offsets) and offsets[slot] == position:
                end = offsets[slot + 1] if slot + 1 < len(offsets) else len(page)
                return page, position + len(needle), end
            position = page.find(needle, position + 1)
        return None

    def _merge(self) -> None:
        """Merge the buffer into the pages, rebuilding only the pages its keys
        fall in (keys above the last page rebuild only the last page)."""
        if not self._buffer:
            return
        updates = sorted((key.encode("utf-8"), entry) for key, entry in self._buffer.items())
        self._buffer = {}
        self._version += 1
        groups: list[tuple[int, list[tuple[bytes, bytes | None]]]] = []
        following = None  # the first key of the page after the last group's
        for update in updates:
            if groups and (following is None or update[0] < following):
                groups[-1][1].append(update)
                continue
            index = max(bisect_right(self._first_keys, update[0]) - 1, 0)
            following = self._first_keys[index + 1] if index + 1 < len(self._pages) else None
            groups.append((index, [update]))
        # Right to left, so a rebuilt page never shifts the ones still to come.
        for index, group in reversed(groups):
            span = slice(index, index + 1) if self._pages else slice(0, 0)
            pages, firsts, offsets = _paginate(*self._splice(index, group))
            self._pages[span] = pages
            self._first_keys[span] = firsts
            self._offsets[span] = offsets
        self._last_key = _key_at(self._pages[-1], self._offsets[-1][-1])[0] if self._pages else b""

    def _splice(
        self, index: int, updates: list[tuple[bytes, bytes | None]]
    ) -> tuple[bytes, list[int]]:
        """``(records, record starts)`` of page ``index`` with sorted
        ``updates`` applied: an entry replaces or inserts its key's record,
        ``None`` drops it.  Untouched runs of records are copied as one slice,
        and updates above the page's last key are appended without a search."""
        page = self._pages[index] if self._pages else b""
        bounds = (self._offsets[index].tolist() if self._pages else []) + [len(page)]
        count = len(bounds) - 1
        last_key = _key_at(page, bounds[-2])[0] if count else b""
        view = memoryview(page)  # runs are joined from views, not copied twice
        pieces: list[bytes | memoryview] = []
        starts: list[int] = []
        size = slot = 0

        def copy(stop: int) -> None:
            nonlocal size
            if stop > slot:
                shift = size - bounds[slot]
                if shift:
                    starts.extend([bounds[i] + shift for i in range(slot, stop)])
                else:
                    starts.extend(bounds[slot:stop])
                pieces.append(view[bounds[slot] : bounds[stop]])
                size += bounds[stop] - bounds[slot]

        inside = bisect_right(updates, last_key, key=itemgetter(0))
        for key, entry in updates[:inside]:
            low = _lower_bound(page, bounds, key, slot)
            copy(low)
            slot = low + (low < count and _key_at(page, bounds[low])[0] == key)
            if entry is not None:
                starts.append(size)
                pieces.append(encode_uvarint(len(key)) + key + entry)
                size += len(pieces[-1])
        copy(count)
        appended = [
            encode_uvarint(len(key)) + key + entry
            for key, entry in updates[inside:]
            if entry is not None
        ]
        starts.extend(accumulate(map(len, appended[:-1]), initial=size) if appended else ())
        pieces += appended
        return b"".join(pieces), starts

    def _paged(self, low: bytes, high: bytes | None) -> Iterator[tuple[bytes, bytes, int, int]]:
        """``(key, page, entry start, entry end)`` of every paged record with
        a key ``>= low`` and below ``high``, in key order."""
        index = first = max(bisect_right(self._first_keys, low) - 1, 0)
        while index < len(self._pages):
            page = self._pages[index]
            bounds = self._offsets[index].tolist() + [len(page)]
            skip = _lower_bound(page, bounds, low) if index == first else 0
            for slot in range(skip, len(bounds) - 1):
                key, start = _key_at(page, bounds[slot])
                if high is not None and key >= high:
                    return
                yield key, page, start, bounds[slot + 1]
            index += 1

    def pages(self) -> list[bytes]:
        """The buffer merged in, the pages in key order: their concatenation is
        the key records of a ``TBS2`` snapshot."""
        self._merge()
        return list(self._pages)

    def exists(self, key: str) -> bool:
        """Whether ``key`` is present."""
        return self._locate(key) is not None

    def keys(self) -> Iterator[str]:
        """Iterate over all stored keys in sorted order.

        Sorted iteration is a contract, not an accident: the service layer's
        range scans merge per-shard streams in key order, so every backend
        must produce ordered keys.  It walks a copy: the store may change
        meanwhile.
        """
        self._merge()
        return iter([key.decode("utf-8") for key, _, _, _ in self._paged(b"", None)])

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
        low = b"" if start is None else start.encode("utf-8")
        high = None if end is None else end.encode("utf-8")
        while True:
            self._merge()
            version = self._version
            for key, page, entry_start, entry_end in self._paged(low, high):
                if self._version != version:
                    break  # written meanwhile: walk on from ``low`` afresh
                low = key + b"\x00"  # the least key above this one
                self._gets += 1
                self._hits += 1
                yield key.decode("utf-8"), self.compressor.decompress(
                    page[_split(page, entry_start)[1] : entry_end]
                )
                if limit is not None:
                    limit -= 1
                    if limit == 0:
                        return
            else:
                return

    def entries(self) -> Iterator[tuple[str, int, bytes]]:
        """``(key, original_size, payload)`` per stored key, in the order a
        snapshot writes them (key order).  A read, not a GET: no counter moves."""
        self._merge()
        for key, page, start, end in list(self._paged(b"", None)):
            original_size, offset = _split(page, start)
            yield key.decode("utf-8"), original_size, page[offset:end]

    def __len__(self) -> int:
        return self._live

    def __contains__(self, key: str) -> bool:
        return self.exists(key)

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
        records, starts = content.records, content.starts
        epochs = Counter()
        for start, end in zip(starts, starts[1:] + [len(records)]):
            key, entry_start = _key_at(records, start)
            store._key_bytes += len(key)
            epochs[store._count(records, entry_start, end, 1)] += 1
        for epoch, count in epochs.items():
            store.compressor.acquire_epoch(epoch, count)
        store._pages, store._first_keys, store._offsets = _paginate(records, starts)
        if starts:
            store._last_key = _key_at(records, starts[-1])[0]
        store._live = len(starts)
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
            keys=self._live,
            memory_bytes=self.memory_bytes,
            original_value_bytes=self._original_bytes,
            stored_value_bytes=self._stored_bytes,
            sets=self._sets,
            gets=self._gets,
            hits=self._hits,
            misses=self._misses,
        )
