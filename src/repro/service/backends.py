"""Shard backends: the per-shard stores fronted by :class:`repro.service.KVService`.

A shard backend owns one partition of the key space, one trained value
compressor with versioned model epochs, and one
:class:`~repro.codecs.ModelLifecycle` (reservoir + drift monitor).  Two
implementations cover the two storage substrates of the reproduction:

* :class:`TierBaseShard` — an in-memory :class:`repro.tierbase.store.TierBase`
  instance (the paper's Section 7.5 deployment target),
* :class:`LSMShard` — an on-disk :class:`repro.lsm.engine.LSMEngine` with a
  :class:`~repro.lsm.sstable.RecordCompressionPolicy`, so values are compressed
  per record inside SSTable blocks and point reads decompress one value.

Training is two steps for both: ``fit`` (sample → model bytes; pure, needs no
lock) and ``install`` (a new model epoch for future writes).  Every stored
payload (TierBase dict entry or cold SSTable block) keeps decoding against the
epoch stamped into its header, so neither backend rewrites data on a retrain.

The compressor menu is enumerated from the codec registry: every trainable
registered codec is a valid per-shard value compressor, plus ``"none"``.
Backends are *not* thread-safe on their own; the service serialises every
access to a shard — ``fit`` excepted — under that shard's lock.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterator, Sequence

from repro.codecs import ModelLifecycle
from repro.codecs.registry import trainable_codec_names
from repro.compressors.stdlib_codecs import GzipCodec
from repro.exceptions import CodecError, ServiceError
from repro.ioutil import atomic_write_bytes
from repro.lsm.engine import LSMEngine
from repro.lsm.sstable import (
    BlockCompressionPolicy,
    PlainPolicy,
    RecordCompressionPolicy,
    StoragePolicy,
)
from repro.service.stats import ShardSnapshot
from repro.tierbase.compression import (
    NoopValueCompressor,
    PBCValueCompressor,
    ValueCompressor,
    VersionedValueCompressor,
    ZstdDictValueCompressor,
)
from repro.tierbase.store import TierBase

#: Compressor names accepted by :func:`make_value_compressor` (CLI / config):
#: "none" plus every trainable codec in the registry, in codec-id order.
COMPRESSOR_CHOICES: tuple[str, ...] = ("none", *trainable_codec_names())

#: Backend names accepted by :func:`make_shard_backend` (CLI / config).
BACKEND_CHOICES: tuple[str, ...] = ("tierbase", "lsm")


def make_value_compressor(name: str) -> ValueCompressor:
    """Build a fresh value compressor by its CLI name (one per shard)."""
    if name == "none":
        return NoopValueCompressor()
    if name == "zstd":
        return ZstdDictValueCompressor()
    if name == "pbc":
        return PBCValueCompressor(use_fsst=False)
    if name == "pbc_f":
        return PBCValueCompressor(use_fsst=True)
    if name in COMPRESSOR_CHOICES:
        # Any other trainable registry codec (e.g. fsst) via the generic wrapper.
        return VersionedValueCompressor(name)
    raise ServiceError(f"unknown value compressor {name!r}; choose from {COMPRESSOR_CHOICES}")


class ShardBackend(ABC):
    """One shard's store: keyed string values behind a trained compressor."""

    #: backend name reported in snapshots ("tierbase" / "lsm").
    name: str = "shard"
    #: the shard's train → monitor → retrain loop (reservoir + drift monitor).
    lifecycle: ModelLifecycle

    @abstractmethod
    def fit(self, sample_values: Sequence[str]) -> bytes:
        """Offline half of training: the model bytes fitted to a sample.  Pure
        (reads and changes nothing of the shard): any thread may run it with
        no shard lock held, and shards configured alike can share one fit."""

    @abstractmethod
    def install(self, model: bytes, trained_records: int, retrain: bool = False) -> None:
        """Online half (O(ms), under the shard lock): ``model`` becomes the
        epoch new writes are stamped with; stored payloads keep decoding
        against the epoch in their headers.  A ``retrain`` also resets the
        drift monitor and counts one retrain event."""

    def train(self, sample_values: Sequence[str]) -> None:
        """Offline-train this shard's value compressor: fit, then install."""
        self.install(self.fit(sample_values), len(sample_values))

    def set(self, key: str, value: str) -> int:
        """Insert or overwrite ``key`` (the one-item batch); returns the LSN."""
        return self.set_many(((key, value),))

    @abstractmethod
    def set_many(self, items: Sequence[tuple[str, str]]) -> int:
        """Insert/overwrite a batch; returns the batch's **last** LSN (the
        current LSN for an empty batch).  The batch is compressed once, logged
        once (one WAL buffer, one durability barrier) and applied once — or
        not at all when one of its values fails to compress."""

    @abstractmethod
    def last_applied(self) -> int:
        """The newest LSN this shard has applied (0 before the first write).

        This is the read-your-writes watermark: once ``last_applied() >=
        lsn`` for an LSN a ``set`` returned, a read against this shard
        observes that write.
        """

    @property
    @abstractmethod
    def oplog(self):
        """The shard's :class:`~repro.oplog.log.OperationLog` (attach
        :class:`~repro.oplog.sink.SubscriberSink` replication taps here)."""

    @abstractmethod
    def get_compressed(self, key: str) -> bytes | None:
        """Compressed payload for ``key`` (``None`` when missing) — feeds the cache."""

    @abstractmethod
    def decompress(self, payload: bytes) -> str:
        """Decode a payload produced by :meth:`get_compressed`.

        Raises :class:`~repro.exceptions.ModelEpochError` when the payload
        references a model epoch that is no longer retained.
        """

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether it existed."""

    @abstractmethod
    def scan(
        self, start: str | None = None, end: str | None = None, limit: int | None = None
    ) -> Iterator[tuple[str, str]]:
        """Live ``(key, value)`` entries with ``start <= key < end`` in key order.

        ``limit`` bounds the result count; values are decoded as the iterator
        advances.  The service runs the whole scan on the shard's worker, so
        implementations see a quiesced store.
        """

    def retrain(self, sample_values: Sequence[str]) -> None:
        """Fit and install a new model epoch; the caller waits for the fit."""
        self.install(self.fit(sample_values), len(sample_values), retrain=True)

    @abstractmethod
    def snapshot(self, shard_id: int) -> ShardSnapshot:
        """Point-in-time statistics for this shard."""

    def needs_retraining(self) -> bool:
        """Whether the drift monitor flags this shard for retraining."""
        return self.lifecycle.needs_retrain(self.outlier_rate)

    @property
    def outlier_rate(self) -> float:
        """The compressor's outlier rate since its current epoch."""
        return 0.0

    def retrain_from_recent(self) -> bool:
        """Retrain on the lifecycle reservoir; False when the reservoir is empty."""
        sample = self.lifecycle.sample()
        if not sample:
            return False
        self.retrain(sample)
        return True

    def get(self, key: str) -> str | None:
        """Fetch and decompress ``key`` (``None`` when missing)."""
        value, _ = self.fetch(key)
        return value

    def fetch(self, key: str) -> tuple[str | None, bytes | None]:
        """``(value, cacheable_payload)`` in one read; ``(None, None)`` when missing.

        The default goes through :meth:`get_compressed` + :meth:`decompress`,
        which is optimal for backends that store the compressed payload
        directly; backends whose stored form is not the per-value payload
        (LSM) override this to avoid paying a decompress on the value path.
        """
        payload = self.get_compressed(key)
        if payload is None:
            return None, None
        return self.decompress(payload), payload

    def flush(self) -> None:
        """Persist durable state (snapshot / WAL barrier); no-op when ephemeral."""

    def close(self) -> None:
        """Release any resources (files, logs)."""


class TierBaseShard(ShardBackend):
    """In-memory shard over a :class:`TierBase` store (compression built in).

    With a ``directory`` the shard is persistent, RDB-style: :meth:`flush`
    publishes an atomic ``TBS2`` snapshot (``snapshot.tbs``) of the whole
    store — payloads and trained model epochs — and construction reloads an
    existing snapshot, so a reopened shard serves every key that was
    acknowledged before the last flush (the service flushes on close/drain).
    Writes after the last snapshot are lost on a hard kill; that is the
    in-memory store's contract, unlike the LSM shard's WAL.
    """

    name = "tierbase"

    def __init__(
        self,
        compressor: ValueCompressor,
        ratio_threshold: float = 0.8,
        unmatched_threshold: float = 0.2,
        train_size: int = 256,
        directory: str | Path | None = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._snapshot_path = (
            self.directory / "snapshot.tbs" if self.directory is not None else None
        )
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        if self._snapshot_path is not None and self._snapshot_path.exists():
            self.store = TierBase.load(
                self._snapshot_path,
                compressor=compressor,
                ratio_threshold=ratio_threshold,
                unmatched_threshold=unmatched_threshold,
                train_size=train_size,
            )
            self._dirty = False
        else:
            self.store = TierBase(
                compressor=compressor,
                ratio_threshold=ratio_threshold,
                unmatched_threshold=unmatched_threshold,
                train_size=train_size,
            )
            self._dirty = True  # first flush publishes the baseline snapshot
        self.lifecycle = self.store.lifecycle
        self._retrain_events = 0

    def fit(self, sample_values: Sequence[str]) -> bytes:
        return self.store.fit(sample_values)

    def install(self, model: bytes, trained_records: int, retrain: bool = False) -> None:
        self.store.install(model, trained_records, retrain)
        self._retrain_events += retrain
        self._dirty = True

    def set_many(self, items: Sequence[tuple[str, str]]) -> int:
        lsn = self.store.set_many(items)
        self._dirty = self._dirty or bool(items)
        return lsn

    def last_applied(self) -> int:
        return self.store.last_applied_lsn

    @property
    def oplog(self):
        return self.store.oplog

    def get_compressed(self, key: str) -> bytes | None:
        return self.store.get_compressed(key)

    def decompress(self, payload: bytes) -> str:
        return self.store.compressor.decompress(payload)

    def delete(self, key: str) -> bool:
        existed = self.store.delete(key)
        self._dirty = self._dirty or existed
        return existed

    def scan(
        self, start: str | None = None, end: str | None = None, limit: int | None = None
    ) -> Iterator[tuple[str, str]]:
        return self.store.scan(start, end, limit)

    @property
    def outlier_rate(self) -> float:
        return self.store.compressor.outlier_rate

    def snapshot(self, shard_id: int) -> ShardSnapshot:
        stats = self.store.stats()
        bytes_on_disk = 0
        if self._snapshot_path is not None and self._snapshot_path.exists():
            bytes_on_disk = self._snapshot_path.stat().st_size
        return ShardSnapshot(
            shard_id=shard_id,
            backend=self.name,
            compressor=self.store.compressor.name,
            keys=stats.keys,
            original_bytes=stats.original_value_bytes,
            stored_bytes=stats.stored_value_bytes,
            sets=stats.sets,
            gets=stats.gets,
            retrain_events=self._retrain_events,
            outlier_rate=self.outlier_rate,
            bytes_on_disk=bytes_on_disk,
            model_epoch=self.store.compressor.current_epoch,
            model_epoch_age_seconds=self.lifecycle.model_age_seconds,
            last_lsn=self.store.last_applied_lsn,
            oplog_lag_records=self.store.oplog.subscriber_lag(),
        )

    def flush(self) -> None:
        # Dirty-tracked: the close path flushes up to three times (server
        # drain → KVService.close → backend.close); only the first with
        # changes pays the snapshot serialisation + fsyncs.
        if self._snapshot_path is not None and self._dirty:
            self.store.save(self._snapshot_path)
            self._dirty = False

    def close(self) -> None:
        self.flush()


class LSMShard(ShardBackend):
    """On-disk shard over an :class:`LSMEngine` with per-record compression.

    Storage is tiered by level ("hot levels raw, cold levels trained"):
    level-0 flush tables stay **plain** (the write path never waits on a
    compressor), level 1 is **block-compressed** with a cheap general-purpose
    codec, and every deeper level uses the shard's trained
    :class:`RecordCompressionPolicy` — each block stamped with the model
    epoch that wrote it.  Background compaction migrates data down the
    hierarchy, so values are record-compressed exactly once, when they go
    cold; the shard additionally compresses each value once on SET to feed
    the drift monitor (the monitor tracks what the cold levels *will*
    store).  A merge into a cold level first offers the shard a retrain
    (``compaction_hook``): if the drift monitor says the model is stale, a
    new epoch is installed right before the rewrite, and the old epoch's
    last block references retire with the compacted inputs.
    """

    name = "lsm"

    #: level at which tables switch to the trained per-record compressor.
    COLD_LEVEL = 2

    def __init__(
        self,
        directory: str | Path,
        compressor: ValueCompressor,
        ratio_threshold: float = 0.8,
        unmatched_threshold: float = 0.2,
        memtable_bytes: int = 64 * 1024,
        train_size: int = 256,
        sync_mode: str = "flush",
        background_compaction: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.compressor = compressor
        self.lifecycle = ModelLifecycle(
            reservoir_size=train_size,
            ratio_threshold=ratio_threshold,
            unmatched_threshold=unmatched_threshold,
        )
        self.monitor = self.lifecycle.monitor
        self._memtable_bytes = memtable_bytes
        # On-disk payloads outlive the process, so the trained-model epochs
        # must too: restore the model store persisted next to the SSTables
        # *before* the engine replays the WAL / opens existing tables.
        self._models_path = self.directory / "models.bin"
        if self._models_path.exists():
            if self.compressor.dump_models() is None:
                # An un-versioned compressor would silently skip the codec
                # check inside load_models (a no-op for it) and then decode
                # versioned blocks as garbage — refuse up front instead.
                raise CodecError(
                    f"{self.directory} was written by a versioned compressor "
                    f"(models.bin present); reopen it with that compressor, not "
                    f"{self.compressor.name!r}"
                )
            self.compressor.load_models(self._models_path.read_bytes())
        record_policy = RecordCompressionPolicy(compressor)
        level_policies: dict[int, StoragePolicy] = {
            0: PlainPolicy(),
            1: BlockCompressionPolicy(GzipCodec()),
            self.COLD_LEVEL: record_policy,
        }
        self.engine = LSMEngine(
            self.directory,
            # Default policy doubles as the resolver for pre-stamp (STB2)
            # tables, which this shard only ever wrote record-compressed.
            policy=record_policy,
            memtable_bytes=memtable_bytes,
            sync_mode=sync_mode,
            background_compaction=background_compaction,
            level_policies=level_policies,
            compaction_hook=self._before_cold_rewrite,
            # Stamp every logged record with the model epoch current at
            # write time, so a follower knows which epoch governed the value.
            epoch_provider=lambda: self.compressor.current_epoch,
        )
        self._retrain_events = 0
        self._sets = 0
        self._gets = 0

    def _before_cold_rewrite(self, level: int) -> None:
        """Compaction-aware retraining, called by the engine's compactor
        right before it merges into a record-compressed level.

        If the drift monitor flags the model as stale, the new epoch is
        installed *now*, so the cold rewrite encodes against it — retraining
        rides a rewrite that was happening anyway, and the superseded
        epoch's last block references go away with the compacted inputs.
        """
        if self.lifecycle.needs_retrain(self.compressor.outlier_rate):
            self.retrain_from_recent()

    def _save_models(self) -> None:
        payload = self.compressor.dump_models()
        if payload is not None:
            # Atomic publication: a crash mid-write must leave the previous
            # complete model store, not a torn models.bin that fails reopen.
            atomic_write_bytes(self._models_path, payload)

    def fit(self, sample_values: Sequence[str]) -> bytes:
        return self.compressor.fit(sample_values)

    def install(self, model: bytes, trained_records: int, retrain: bool = False) -> None:
        # Existing SSTables stay readable: their blocks decode against the
        # retained epochs stamped into them, so nothing is re-ingested.
        self.compressor.install(model, trained_records)
        self.lifecycle.mark_trained(retrain)
        self._save_models()
        self._retrain_events += retrain

    def set_many(self, items: Sequence[tuple[str, str]]) -> int:
        # Compressed only to feed the drift monitor (the cold levels compress
        # again later) — and first, so a failing value fails the whole batch.
        values = [value for _, value in items]
        _, payloads = self.compressor.compress_many(values)
        self.lifecycle.observe_many(
            values,
            sum(len(value.encode("utf-8")) for value in values),
            sum(map(len, payloads)),
        )
        lsn = self.engine.put_many(items)
        self._sets += len(values)
        return lsn

    def last_applied(self) -> int:
        return self.engine.last_applied_lsn

    @property
    def oplog(self):
        return self.engine.oplog

    def get_compressed(self, key: str) -> bytes | None:
        return self.fetch(key)[1]

    def fetch(self, key: str) -> tuple[str | None, bytes | None]:
        # The engine already decompressed the value inside the SSTable read;
        # re-compressing is only for the cache fill, never re-decompressed —
        # and a read, so it must not feed the monitor's write-drift signal.
        self._gets += 1
        value = self.engine.get(key)
        if value is None:
            return None, None
        return value, self.compressor.recompress(value)

    def decompress(self, payload: bytes) -> str:
        return self.compressor.decompress(payload)

    def delete(self, key: str) -> bool:
        existed = self.engine.get(key) is not None
        self.engine.delete(key)
        return existed

    def scan(
        self, start: str | None = None, end: str | None = None, limit: int | None = None
    ) -> Iterator[tuple[str, str]]:
        return self.engine.scan(start, end, limit)

    @property
    def outlier_rate(self) -> float:
        return self.compressor.outlier_rate

    def snapshot(self, shard_id: int) -> ShardSnapshot:
        monitor = self.lifecycle.monitor
        disk = self.engine.disk_stats()
        return ShardSnapshot(
            shard_id=shard_id,
            backend=self.name,
            compressor=self.compressor.name,
            keys=self.engine.key_count(),
            original_bytes=monitor.original_bytes,
            stored_bytes=monitor.stored_bytes,
            sets=self._sets,
            gets=self._gets,
            retrain_events=self._retrain_events,
            outlier_rate=self.outlier_rate,
            bytes_on_disk=disk.bytes_on_disk,
            model_epoch=self.compressor.current_epoch,
            model_epoch_age_seconds=self.lifecycle.model_age_seconds,
            sstables=disk.sstable_count,
            wal_fsyncs=disk.wal_fsyncs,
            wal_fsync_seconds=disk.wal_fsync_seconds,
            levels=disk.levels,
            pending_compaction_bytes=disk.pending_compaction_bytes,
            compaction_stall_seconds=disk.compaction_stall_seconds,
            compactions=disk.compactions,
            last_lsn=self.engine.last_applied_lsn,
            oplog_lag_records=self.engine.oplog.subscriber_lag(),
        )

    def flush(self) -> None:
        # The WAL already covers the memtable; a hard fsync barrier is all a
        # mid-run flush needs to make every acknowledged write crash-proof.
        self.engine.sync()

    def close(self) -> None:
        self.engine.close()


def make_shard_backend(
    kind: str,
    compressor_name: str,
    shard_id: int,
    directory: str | Path | None = None,
    train_size: int = 256,
    sync_mode: str = "flush",
) -> ShardBackend:
    """Build one shard backend of ``kind`` with a fresh compressor.

    With a base ``directory`` both backends are persistent under
    ``shard-NNN/`` subdirectories: lsm shards always (WAL + SSTables +
    models.bin), tierbase shards via ``TBS2`` snapshots written on flush.
    Each lsm shard compacts on its own background scheduler thread
    (admission-controlled writes).
    """
    compressor = make_value_compressor(compressor_name)
    shard_directory = (
        Path(directory) / f"shard-{shard_id:03d}" if directory is not None else None
    )
    if kind == "tierbase":
        return TierBaseShard(compressor, train_size=train_size, directory=shard_directory)
    if kind == "lsm":
        if shard_directory is None:
            raise ServiceError("the lsm backend needs a base directory")
        return LSMShard(
            shard_directory,
            compressor,
            train_size=train_size,
            sync_mode=sync_mode,
        )
    raise ServiceError(f"unknown shard backend {kind!r}; choose from {BACKEND_CHOICES}")
