"""Sharded, thread-safe key-value service over TierBase / LSM shard backends.

The concurrency model mirrors what the related crawler repos do with batched
worker pools, inverted to the server side:

* every shard owns a **lock** that serialises all mutations and backend reads
  of that shard, so the backends themselves need no internal locks and two
  operations on the same key cannot interleave.  Every operation takes it
  **on the calling thread**: the CPU-bound part is pure-Python
  encode/decode, so under the GIL a hand-off to another thread buys it no
  parallelism, only the hand-off (the ``service_inline_dispatch`` row of the
  frozen-history table in ``docs/BENCHMARKS.md`` records what inline
  dispatch saved);
* work that fans out across shards (multi-shard batches, flush, model
  install, snapshots, scans) visits the shards **one at a time in shard
  order**, each under its own lock.  No caller ever holds two shard locks,
  so there is no lock order to get wrong.  Every shard's share runs even
  when an earlier one raised; the first error is re-raised after the last.
  Blocking I/O is serialised too: with lsm ``sync_mode="fsync"`` a batch
  touching N shards waits for N WAL fsyncs in a row (``os.fsync`` releases
  the GIL, so per-shard threads could overlap them; ``docs/BENCHMARKS.md``
  measures what that costs);
* batched operations (``mget`` / ``mset``) group their keys by shard with the
  :class:`~repro.service.router.ShardRouter` and run one task per touched
  shard;
* the :class:`~repro.service.cache.CompressedLRUCache` is checked on the
  *calling* thread: a hit decompresses the cached payload without touching
  the shard's lock at all, which is where the per-record random-access
  advantage of PBC turns into read concurrency.  Cache fills happen under
  the shard lock (serialised with writes), so a stale payload can never be
  cached over a newer write;
* training is the paper's offline/online split: **fit** (sample → model
  bytes) is pure and runs under **no** lock, **install** (bytes → new current
  epoch) is the only online step, O(ms), under the shard lock.
  :meth:`KVService.train` fits once on the calling thread and installs the
  same bytes on every shard;
* after every write batch the shard checks its
  :class:`~repro.codecs.ModelLifecycle`; when the ratio or the PBC outlier
  rate crosses its threshold (Section 7.5's monitor-and-retrain loop), the
  reservoir of that shard's most recent values is copied under the lock the
  write already holds and handed to the one service-wide **trainer thread**
  (``kv-trainer``, started by the first retrain).  It fits one model at a
  time with no lock held — reads and writes on the drifting shard interleave
  with the fit, and writes meanwhile are stamped with the old epoch — and
  takes the shard lock only to install.  Stored and cached payloads keep
  decoding against the epoch in their headers, so a retrain clears no cache
  and rewrites no byte.  :meth:`KVService.wait_for_retrains` joins the
  trainer and re-raises a failed fit; :meth:`KVService.close` cancels queued
  fits and joins the running one.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.exceptions import ModelEpochError, ServiceError
from repro.service.backends import (
    BACKEND_CHOICES,
    COMPRESSOR_CHOICES,
    ShardBackend,
    make_shard_backend,
)
from repro.service.cache import CompressedLRUCache
from repro.service.router import ShardRouter
from repro.service.stats import LatencyRecorder, ServiceSnapshot, ShardSnapshot


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a :class:`KVService`."""

    #: number of independent shards (each with its own backend + compressor).
    shard_count: int = 4
    #: shard backend kind: "tierbase" (in-memory) or "lsm" (on-disk).
    backend: str = "tierbase"
    #: per-shard value compressor: "none", "zstd", "pbc" or "pbc_f".
    compressor: str = "pbc_f"
    #: base directory for on-disk backends (required for "lsm"; optional for
    #: "tierbase", which then persists TBS2 snapshots on flush/close).
    directory: str | Path | None = None
    #: WAL durability policy of lsm shards: "none", "flush" or "fsync"
    #: (see repro.lsm.wal.SYNC_MODES; ignored by the tierbase backend).
    sync_mode: str = "flush"
    #: entry capacity of the compressed read cache.
    cache_entries: int = 1024
    #: optional byte capacity of the compressed read cache.
    cache_bytes: int | None = None
    #: per-shard reservoir size used as the retraining sample.
    train_size: int = 256
    #: whether drift-triggered background retraining is enabled.
    auto_retrain: bool = True
    #: sliding-window size of the latency recorders.
    latency_window: int = 8192

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ServiceError("service needs at least one shard")
        if self.backend not in BACKEND_CHOICES:
            raise ServiceError(f"unknown backend {self.backend!r}; choose from {BACKEND_CHOICES}")
        if self.compressor not in COMPRESSOR_CHOICES:
            raise ServiceError(
                f"unknown compressor {self.compressor!r}; choose from {COMPRESSOR_CHOICES}"
            )
        from repro.lsm.wal import SYNC_MODES

        if self.sync_mode not in SYNC_MODES:
            raise ServiceError(
                f"unknown sync_mode {self.sync_mode!r}; choose from {SYNC_MODES}"
            )


class _Shard:
    """One shard: backend + serialising lock.

    Every backend access except the pure ``backend.fit`` goes through
    :meth:`run` on the calling thread, which holds :attr:`lock`: that is what
    serialises operations on the shard.  The retraining reservoir lives in
    the backend's :class:`~repro.codecs.ModelLifecycle` and is only ever
    touched under the lock.
    """

    def __init__(self, shard_id: int, backend: ShardBackend) -> None:
        self.shard_id = shard_id
        self.backend = backend
        self.lock = threading.Lock()
        #: the shard's most recent drift retrain on the service's trainer.
        self.last_retrain: Future | None = None

    @property
    def retrain_pending(self) -> bool:
        """Whether a drift retrain is queued or fitting (a failed one is done)."""
        return self.last_retrain is not None and not self.last_retrain.done()

    def run(self, fn, *args):
        """Run ``fn`` on the calling thread under the shard lock."""
        with self.lock:
            return fn(*args)


def _run_each(calls: Iterable[tuple]) -> list:
    """Run ``(shard, fn, *args)`` calls in order, each via ``shard.run``.

    The fan-out contract: every call runs even if an earlier one raised, and
    the first error is raised once the last call has returned.
    """
    results = []
    first_error: Exception | None = None
    for shard, fn, *args in calls:
        try:
            results.append(shard.run(fn, *args))
        except Exception as error:
            results.append(None)
            if first_error is None:
                first_error = error
    if first_error is not None:
        raise first_error
    return results


class KVService:
    """Sharded concurrent KV facade with compressed-value caching.

    >>> service = KVService(ServiceConfig(shard_count=2, compressor="none"))
    >>> service.set("k", "v")
    >>> service.get("k")
    'v'
    >>> service.close()
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.router = ShardRouter(self.config.shard_count)
        self.cache = CompressedLRUCache(
            max_entries=self.config.cache_entries, max_bytes=self.config.cache_bytes
        )
        self._shards = [
            _Shard(
                shard_id,
                make_shard_backend(
                    self.config.backend,
                    self.config.compressor,
                    shard_id,
                    directory=self.config.directory,
                    train_size=self.config.train_size,
                    sync_mode=self.config.sync_mode,
                ),
            )
            for shard_id in range(self.config.shard_count)
        ]
        self._get_latency = LatencyRecorder(self.config.latency_window)
        self._set_latency = LatencyRecorder(self.config.latency_window)
        self._counter_lock = threading.Lock()
        self._gets = 0
        self._sets = 0
        self._deletes = 0
        self._cache_hits = 0
        self._closed = False
        # Fits every drift retrain, one at a time; the thread starts with the
        # first submit, so an undrifted service has none.
        self._trainer = ThreadPoolExecutor(max_workers=1, thread_name_prefix="kv-trainer")

    # ---------------------------------------------------------------- lifecycle

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed service rejects every op)."""
        return self._closed

    def flush(self) -> None:
        """Persist every shard's durable state, one shard after another.

        Each shard flushes under its lock, serialised with its writes: lsm
        shards take a WAL fsync barrier, directory-backed tierbase shards
        publish a fresh ``TBS2`` snapshot.  After it returns, every previously
        acknowledged write survives a process kill (and, for fsynced backends,
        a machine crash).  A no-op for purely in-memory shards.
        """
        self._require_open()
        _run_each((shard, shard.backend.flush) for shard in self._shards)

    def close(self) -> None:
        """Cancel queued retrains and join the running one, flush every shard,
        and close the backends."""
        if self._closed:
            return
        self._closed = True
        self._trainer.shutdown(wait=True, cancel_futures=True)
        try:
            _run_each((shard, shard.backend.flush) for shard in self._shards)
        finally:
            # Under the shard lock: an op that slipped past the closed check
            # must not interleave with the backend teardown.
            _run_each((shard, shard.backend.close) for shard in self._shards)

    def __enter__(self) -> "KVService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return self.snapshot().keys

    # ----------------------------------------------------------------- training

    def train(self, sample_values: Sequence[str]) -> None:
        """Offline-train the service: **one** fit on the calling thread, no lock
        held (the shards are configured alike: any shard's ``fit`` gives the
        bytes all would), then one install per shard — none if the fit raises."""
        self._require_open()
        if not sample_values:
            raise ServiceError("cannot train the service on an empty sample")
        sample = list(sample_values)
        model = self._shards[0].backend.fit(sample)
        _run_each(
            (shard, shard.backend.install, model, len(sample)) for shard in self._shards
        )

    def wait_for_retrains(self, timeout: float | None = None) -> None:
        """Block until every drift retrain scheduled so far has installed its
        model; re-raises the error of a fit that failed (that shard stays on
        its old epoch).  :class:`ServiceError` after ``timeout`` seconds."""
        self._require_open()
        futures = [s.last_retrain for s in self._shards if s.last_retrain is not None]
        if wait(futures, timeout=timeout).not_done:
            raise ServiceError(f"retraining did not finish within {timeout:g}s")
        for future in futures:
            future.result()

    # --------------------------------------------------------------- shard tasks

    def _shard_set(self, shard: _Shard, items: Sequence[tuple[str, str]]) -> int:
        # One batch: compressed, logged (one WAL durability barrier), applied
        # and observed by the lifecycle reservoir + drift monitor once.
        lsn = shard.backend.set_many(items)
        # Invalidate inside the shard task: reads of this shard are serialised
        # with us, so no reader can re-cache an old payload after this point.
        self.cache.invalidate_many([key for key, _ in items])
        self._maybe_schedule_retrain(shard)
        return lsn

    def _shard_get(self, shard: _Shard, keys: Sequence[str]) -> list[str | None]:
        results: list[str | None] = []
        for key in keys:
            value, payload = shard.backend.fetch(key)
            if payload is not None:
                self.cache.put(key, payload)
            results.append(value)
        return results

    def _shard_delete(self, shard: _Shard, key: str) -> bool:
        existed = shard.backend.delete(key)
        self.cache.invalidate(key)
        return existed

    @staticmethod
    def _retrain(shard: _Shard, sample: list[str]) -> None:
        # On the trainer thread: the fit holds no lock, the install the shard's.
        # Cached and stored payloads carry their own epoch headers and keep
        # decoding against the retained old models: nothing is cleared.
        model = shard.backend.fit(sample)
        with shard.lock:
            shard.backend.install(model, len(sample), retrain=True)

    def _maybe_schedule_retrain(self, shard: _Shard) -> None:
        # Called under the shard lock, which makes copying the reservoir safe.
        if (
            self.config.auto_retrain
            and not self._closed
            and not shard.retrain_pending
            and shard.backend.needs_retraining()
        ):
            shard.last_retrain = self._trainer.submit(
                self._retrain, shard, shard.backend.lifecycle.sample()
            )

    def _decompress_cached(self, shard: _Shard, key: str, payload: bytes) -> str | None:
        """Decode a cached payload; ``None`` if its model epoch is gone.

        Every cached payload names the model epoch that wrote it, so a hit
        decodes correctly even across retrains.  The one failure mode left is
        *typed*: the referenced epoch was pruned (its last live backend
        payload was overwritten or deleted after we cached this one), which
        raises :class:`~repro.exceptions.ModelEpochError` — treated as a miss
        so the read re-fetches from the shard.  Anything else propagates:
        pre-epoch, this path silently swallowed every decompression error.
        """
        try:
            return shard.backend.decompress(payload)
        except ModelEpochError:
            self.cache.invalidate(key)
            return None

    # ------------------------------------------------------------- single ops

    def set(self, key: str, value: str) -> int:
        """Store ``value`` under ``key``; returns the write's assigned LSN.

        The LSN, together with :meth:`shard_for` and :meth:`wait_for_lsn`,
        is the read-your-writes handle: once the owning shard's
        :meth:`last_applied` watermark reaches it, any read observes this
        write.
        """
        self._require_open()
        started = time.perf_counter()
        shard = self._shards[self.router.shard_for(key)]
        lsn = shard.run(self._shard_set, shard, [(key, value)])
        self._set_latency.record(time.perf_counter() - started)
        with self._counter_lock:
            self._sets += 1
        return lsn

    def get(self, key: str) -> str | None:
        """Fetch ``key``; ``None`` when missing.  Cache hits skip the shard.

        The GET counter is committed in a ``finally`` once the cache has been
        consulted: a raising decode or shard fetch still counted one cache
        lookup, and leaving ``gets`` behind would permanently break the
        lookups == gets invariant :meth:`ServiceSnapshot.validate` checks.
        """
        self._require_open()
        started = time.perf_counter()
        shard = self._shards[self.router.shard_for(key)]
        hit = False
        try:
            payload = self.cache.get(key)
            value = None
            if payload is not None:
                value = self._decompress_cached(shard, key, payload)
                hit = value is not None
            if not hit:
                value = shard.run(self._shard_get, shard, [key])[0]
            self._get_latency.record(time.perf_counter() - started)
            return value
        finally:
            with self._counter_lock:
                self._gets += 1
                if hit:
                    self._cache_hits += 1

    def delete(self, key: str) -> bool:
        """Delete ``key``; returns whether it existed."""
        self._require_open()
        shard = self._shards[self.router.shard_for(key)]
        existed = shard.run(self._shard_delete, shard, key)
        with self._counter_lock:
            self._deletes += 1
        return existed

    # ------------------------------------------------------------- batched ops

    def mset(self, items: Sequence[tuple[str, str]]) -> dict[int, int]:
        """Batched SET: one task per touched shard, run in shard order.

        Returns ``{shard_id: last_assigned_lsn}`` for every shard the batch
        touched — the per-shard read-your-writes handles (LSNs are per-shard
        sequences, so a multi-shard batch has one watermark per shard).  A
        value that fails to compress fails its shard's share of the batch
        whole: that shard applies nothing of it.
        """
        self._require_open()
        if not items:
            return {}
        started = time.perf_counter()
        groups = sorted(self.router.group_items(items).items())
        lsns = _run_each(
            (self._shards[shard_id], self._shard_set, self._shards[shard_id], shard_items)
            for shard_id, shard_items in groups
        )
        self._set_latency.record(time.perf_counter() - started, operations=len(items))
        with self._counter_lock:
            self._sets += len(items)
        return {shard_id: lsn for (shard_id, _), lsn in zip(groups, lsns)}

    def mget(self, keys: Sequence[str]) -> list[str | None]:
        """Batched GET preserving key order; cache hits answered inline.

        As in :meth:`get`, the GET counter is committed in a ``finally`` with
        exactly the number of cache lookups performed, so an exception
        mid-batch cannot skew the lookups == gets invariant.
        """
        self._require_open()
        if not keys:
            return []
        started = time.perf_counter()
        results: list[str | None] = [None] * len(keys)
        miss_positions: list[int] = []
        looked_up = 0
        hits = 0
        try:
            for position, key in enumerate(keys):
                payload = self.cache.get(key)
                looked_up += 1
                value = None
                if payload is not None:
                    shard = self._shards[self.router.shard_for(key)]
                    value = self._decompress_cached(shard, key, payload)
                if value is None:
                    miss_positions.append(position)
                    continue
                results[position] = value
                hits += 1
            if miss_positions:
                miss_keys = [keys[position] for position in miss_positions]
                groups = sorted(self.router.group_keys(miss_keys).items())
                fetched = _run_each(
                    (
                        self._shards[shard_id],
                        self._shard_get,
                        self._shards[shard_id],
                        [miss_keys[position] for position in local_positions],
                    )
                    for shard_id, local_positions in groups
                )
                for (_, local_positions), values in zip(groups, fetched):
                    for local_position, value in zip(local_positions, values):
                        results[miss_positions[local_position]] = value
            self._get_latency.record(time.perf_counter() - started, operations=len(keys))
            return results
        finally:
            with self._counter_lock:
                self._gets += looked_up
                self._cache_hits += hits

    # ----------------------------------------------------------- operation log

    def shard_for(self, key: str) -> int:
        """The shard id that owns ``key`` (the router's stable mapping)."""
        return self.router.shard_for(key)

    def last_applied(self, shard_id: int) -> int:
        """Shard ``shard_id``'s operation-log watermark (newest applied LSN).

        Read under the shard lock, so it is ordered with that shard's
        writes: if it returns ``>= lsn`` for an LSN a :meth:`set` returned,
        a subsequent read observes that write (read-your-writes).
        """
        self._require_open()
        shard = self._shard_by_id(shard_id)
        return shard.run(shard.backend.last_applied)

    def wait_for_lsn(self, shard_id: int, lsn: int, timeout: float = 5.0) -> int:
        """Block until shard ``shard_id`` has applied ``lsn``; returns the
        watermark that satisfied the wait.

        This is the read-your-writes primitive: ``wait_for_lsn(shard_for(k),
        set(k, v))`` returning guarantees a following ``get(k)`` sees ``v``.
        On the primary the watermark already covers every acknowledged write,
        so the wait is immediate; against a replica (next PR) it polls until
        replication catches up.  Raises :class:`ServiceError` after
        ``timeout`` seconds.
        """
        self._require_open()
        if lsn < 0:
            raise ServiceError("lsn must be >= 0")
        shard = self._shard_by_id(shard_id)
        deadline = time.monotonic() + timeout
        while True:
            applied = shard.run(shard.backend.last_applied)
            if applied >= lsn:
                return applied
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"shard {shard_id} did not reach LSN {lsn} within "
                    f"{timeout:g}s (last applied: {applied})"
                )
            time.sleep(0.001)

    def _shard_by_id(self, shard_id: int) -> _Shard:
        if not 0 <= shard_id < len(self._shards):
            raise ServiceError(
                f"shard id {shard_id} out of range (service has "
                f"{len(self._shards)} shards)"
            )
        return self._shards[shard_id]

    # ------------------------------------------------------------------- scans

    @staticmethod
    def _shard_scan(
        shard: _Shard, start: str | None, end: str | None, limit: int | None
    ) -> list[tuple[str, str]]:
        # Materialised under the shard lock: the whole scan is serialised with
        # that shard's writes, so each per-shard slice is a consistent view.
        return list(shard.backend.scan(start, end, limit))

    def scan(
        self,
        start: str | None = None,
        end: str | None = None,
        limit: int | None = None,
    ) -> list[tuple[str, str]]:
        """Range scan across every shard, merged in key order.

        Runs one bounded scan per shard in shard order (each under its shard's
        lock, serialised with that shard's writes) and k-way-merges the sorted
        per-shard slices.  Shards partition the key space, so the merge never
        sees duplicate keys.  ``start`` is inclusive, ``end`` exclusive;
        ``limit`` bounds both each per-shard scan and the merged result.
        Works on every backend — unlike :meth:`keys`, which is a
        tierbase-only diagnostic.
        """
        self._require_open()
        if limit is not None and limit <= 0:
            return []
        merged = heapq.merge(
            *_run_each(
                (shard, self._shard_scan, shard, start, end, limit) for shard in self._shards
            )
        )
        if limit is not None:
            return list(itertools.islice(merged, limit))
        return list(merged)

    # ----------------------------------------------------------------- metrics

    def shard_snapshots(self) -> list[ShardSnapshot]:
        """Per-shard statistics, gathered under each shard's lock in turn."""
        self._require_open()
        return _run_each(
            (shard, shard.backend.snapshot, shard.shard_id) for shard in self._shards
        )

    def snapshot(self) -> ServiceSnapshot:
        """Service-wide statistics: shards, cache counters, latency percentiles.

        Capture order matters for concurrent scrapes: the service counters
        are read *before* the cache stats, and every GET bumps its cache
        lookup *before* its GET counter — together that guarantees
        ``cache.lookups >= gets`` in any snapshot taken mid-traffic, which is
        the invariant ``ServiceSnapshot.validate(concurrent=True)`` checks.
        """
        shards = tuple(self.shard_snapshots())
        with self._counter_lock:
            gets, sets, deletes, cache_hits = (
                self._gets,
                self._sets,
                self._deletes,
                self._cache_hits,
            )
        cache_stats = self.cache.stats()
        return ServiceSnapshot(
            shards=shards,
            cache=cache_stats,
            get_latency=self._get_latency.summary(),
            set_latency=self._set_latency.summary(),
            gets=gets,
            sets=sets,
            deletes=deletes,
            cache_hits=cache_hits,
            retrain_events=sum(shard.retrain_events for shard in shards),
        )

    def keys(self) -> Iterator[str]:
        """Iterate the keys of every shard (TierBase backends only)."""
        for shard in self._shards:
            backend = shard.backend
            store = getattr(backend, "store", None)
            if store is None:
                raise ServiceError("keys() is only supported by the tierbase backend")
            yield from shard.run(store.keys)
