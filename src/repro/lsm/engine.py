"""A log-structured merge-tree storage engine with pluggable value compression.

This is the reproduction's stand-in for the RocksDB/LevelDB-class engines the
paper's introduction targets: engines that compress stored data either in
blocks (general-purpose codecs) or — after integrating PBC — per record.  The
engine combines

* a write-ahead log (:mod:`repro.lsm.wal`) for durability,
* an in-memory memtable (:mod:`repro.lsm.memtable`) absorbing writes,
* immutable SSTables (:mod:`repro.lsm.sstable`) produced by flushes, and
* a tiered, levelled compaction: flushes make level-0 tables; once a level
  accumulates ``compaction_trigger`` tables they are merged — a streaming
  k-way merge in O(block) memory, not O(store) — into one table at the next
  level, keeping the newest version of every key (tombstones are dropped only
  when the merge includes the oldest live table, so nothing deleted can
  resurface from below).

Compaction runs **off the write path** when ``background_compaction=True``: a
:class:`~repro.lsm.compaction.CompactionScheduler` thread drains merges while
writers continue, and L0 **admission control** (slowdown sleeps, then a
condition-variable stall) throttles ``put()`` when tables pile up instead of
parking it for a full merge — which is what keeps sustained-write throughput
flat instead of sawtoothed.  The service's lsm shards always run this way.
The engine's default, inline compaction after each flush, exists for the
deterministic single-threaded tests and the durability harness.

Each level can use its own storage policy (``level_policies``): the service
keeps the hot L0 raw, mid levels block-compressed, and cold levels on the
trained per-record compressor — and a compaction into a record-policy level
first gives the owning backend a chance to retrain (``compaction_hook``), so
a new model epoch is installed exactly when the cold data is being rewritten
anyway and the old epoch's last references are compacted away for free.

Reads consult the memtable first, then SSTables newest-first, so the engine
has standard LSM read/write semantics.

Durability (docs/ARCHITECTURE.md, "Durability"): what an acknowledged write
survives is the WAL ``sync_mode`` policy (``"none"`` / ``"flush"`` /
``"fsync"``), and SSTables are **published atomically** — written to a
``*.sst.tmp`` sibling, fsynced, ``os.replace``-d into place, directory
fsynced — so recovery can never open a torn table.  A leftover ``*.tmp`` from
a crashed flush or compaction is quarantined on reopen (its contents are
still covered by the WAL or by the surviving old tables); a compaction that
crashed *after* publishing its output leaves its inputs behind, and recovery
quarantines those superseded tables by the level/id ordering invariant.  A
corrupted published ``*.sst`` raises a typed
:class:`~repro.exceptions.StoreError` instead of garbage reads.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import StoreError
from repro.ioutil import fsync_directory
from repro.lsm.compaction import CompactionConfig, CompactionScheduler
from repro.lsm.memtable import MemTable
from repro.lsm.sstable import (
    POLICY_KIND_PLAIN,
    POLICY_KIND_RECORD,
    PlainPolicy,
    SSTable,
    StoragePolicy,
    write_sstable,
    write_sstable_stream,
)
from repro.lsm.wal import OP_DELETE, OP_PUT, SYNC_MODES, WriteAheadLog
from repro.oplog.log import OperationLog
from repro.oplog.sink import LogSink

#: Subdirectory where recovery parks leftover ``*.tmp`` files and superseded
#: tables (never deleted: they are evidence of a crash, and deleting data is
#: not recovery's call).
QUARANTINE_DIR = "quarantine"


def _newest(sources: Sequence[Iterable[tuple]]) -> Iterator[tuple]:
    """Merge key-ordered ``(key, value)`` sources, oldest first, yielding
    each key once with its newest value (tombstones, ``None``, included).

    Every source is tagged with a rank (higher = newer) and merged on
    ``(key, -rank)``: for a duplicated key the newest version surfaces first
    and the older ones are skipped.  Ranks are distinct, so the merge never
    compares values."""

    def tagged(source, rank: int):
        for key, value in source:
            yield key, -rank, value

    previous: str | None = None
    ranked = [tagged(source, rank) for rank, source in enumerate(sources)]
    for key, _, value in heapq.merge(*ranked):
        if key != previous:
            previous = key
            yield key, value


@dataclass
class EngineStats:
    """Point-in-time statistics of an :class:`LSMEngine`."""

    policy: str
    memtable_entries: int
    memtable_bytes: int
    sstable_count: int
    sstable_file_bytes: int
    logical_value_bytes: int
    flushes: int
    compactions: int

    @property
    def space_ratio(self) -> float:
        """Physical bytes (SSTable files + memtable) over logical value bytes.

        ``logical_value_bytes`` counts memtable values as well as SSTable
        values (the PR-5 bugfix: counting only SSTable values made the ratio
        report ~1.0 — 0/0 — while every byte sat uncompressed in the
        memtable), so the numerator includes the memtable's footprint too.
        After a flush the memtable terms are zero and this is exactly the
        on-disk ratio it always was.
        """
        if self.logical_value_bytes == 0:
            return 1.0
        return (self.sstable_file_bytes + self.memtable_bytes) / self.logical_value_bytes


@dataclass(frozen=True)
class DiskStats:
    """Cheap durable-footprint counters (no table scan; see ``disk_stats``)."""

    sstable_count: int
    sstable_file_bytes: int
    wal_bytes: int
    wal_fsyncs: int
    wal_fsync_seconds: float
    #: distinct table levels currently live (0 when the store is empty).
    levels: int = 0
    #: bytes sitting in levels that have reached the compaction trigger.
    pending_compaction_bytes: int = 0
    #: cumulative seconds writes spent throttled by admission control.
    compaction_stall_seconds: float = 0.0
    #: merges performed (background + inline + explicit ``compact()``).
    compactions: int = 0

    @property
    def bytes_on_disk(self) -> int:
        """Total durable footprint: SSTable files plus the live WAL."""
        return self.sstable_file_bytes + self.wal_bytes


@dataclass
class LookupTiming:
    """Outcome of a point-lookup throughput measurement."""

    lookups: int
    hits: int
    elapsed_seconds: float

    @property
    def lookups_per_second(self) -> float:
        """Point lookups per second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.lookups / self.elapsed_seconds


def _parse_table_name(path: Path) -> tuple[int, int] | None:
    """``(table_id, level)`` from ``sstable-NNNNNN[-LLL].sst``, else ``None``.

    Tables written before levelled compaction (``sstable-NNNNNN.sst``) parse
    as level 0, so an old directory reopens seamlessly.
    """
    parts = path.stem.split("-")
    try:
        table_id = int(parts[1])
        level = int(parts[2]) if len(parts) > 2 else 0
    except (IndexError, ValueError):
        return None
    return table_id, level


class LSMEngine:
    """A single-node LSM key-value engine with pluggable SSTable compression.

    Thread model: any number of reader threads (``get``/``scan``/stats) may
    run concurrently with one writer thread and the background compactor.
    The internal lock only guards metadata (table list, memtable swaps);
    block reads are lock-free ``pread`` calls on per-table descriptors, and
    a parked :meth:`scan` iterator keeps its table snapshot readable even
    after a compaction retires those tables (held descriptors pin them).
    """

    def __init__(
        self,
        directory: str | Path,
        policy: StoragePolicy | None = None,
        memtable_bytes: int = 64 * 1024,
        block_bytes: int = 4096,
        compaction_trigger: int = 4,
        sync_mode: str = "flush",
        fsync_interval_bytes: int = 0,
        background_compaction: bool = False,
        level_policies: Mapping[int, StoragePolicy] | None = None,
        compaction: CompactionConfig | None = None,
        compaction_hook: Callable[[int], None] | None = None,
        epoch_provider: Callable[[], int] | None = None,
    ) -> None:
        if memtable_bytes < 1:
            raise StoreError("memtable size threshold must be positive")
        if compaction_trigger < 2:
            raise StoreError("compaction trigger must be at least 2")
        if sync_mode not in SYNC_MODES:
            raise StoreError(f"unknown sync_mode {sync_mode!r}; choose from {SYNC_MODES}")
        if level_policies is not None and any(level < 0 for level in level_policies):
            raise StoreError("level_policies keys must be non-negative levels")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.policy = policy if policy is not None else PlainPolicy()
        self.memtable_bytes = memtable_bytes
        self.block_bytes = block_bytes
        self.compaction_trigger = compaction_trigger
        self.sync_mode = sync_mode
        self.compaction_config = compaction if compaction is not None else CompactionConfig()
        self._slowdown_tables, self._stall_tables = self.compaction_config.resolve(
            compaction_trigger
        )
        self._level_policies = dict(level_policies) if level_policies else {}
        self._compaction_hook = compaction_hook
        self._memtable = MemTable()
        self._wal = WriteAheadLog(
            self.directory / "wal.log",
            sync_mode=sync_mode,
            fsync_interval_bytes=fsync_interval_bytes,
        )
        #: the shard's mutation spine: sequences every put/delete, fans the
        #: LSN-stamped records to the WAL and any attached replication sinks.
        self._oplog = OperationLog(sinks=[self._wal])
        self._epoch_provider = epoch_provider
        #: contiguous max LSN the write-ahead log replayed at startup (0 for
        #: a fresh or fully-flushed-then-legacy directory).
        self.recovered_lsn = 0
        #: live tables ordered oldest-data-first.  Invariant: sorted by
        #: ``(table_id, level)``, and level is non-increasing as id grows
        #: (deep levels hold old data, L0 the newest), because a merge's
        #: output takes its newest input's id at level+1 and fresh flushes
        #: always take a larger id at level 0.
        self._tables: list[SSTable] = []
        self._next_table_id = 0
        self._flushes = 0
        self._compactions = 0
        #: admission-control accounting (see ``_admission_control``).
        self._stalls = 0
        self._slowdowns = 0
        self._stall_seconds = 0.0
        self._closed = False
        #: guards _tables/_memtable/_next_table_id/counters; reads snapshot
        #: under it and release it before touching any block data.
        self._lock = threading.RLock()
        self._stall_condition = threading.Condition(self._lock)
        #: serialises merges (background scheduler vs explicit ``compact()``).
        self._compact_mutex = threading.Lock()
        self._recover()
        self.background_compaction = background_compaction
        self._scheduler: CompactionScheduler | None = None
        if background_compaction:
            self._scheduler = CompactionScheduler(
                self, name=f"lsm-compaction-{self.directory.name}"
            )
            self._scheduler.notify()  # recovery may have left a backlog

    # --------------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Re-open existing SSTables and replay the write-ahead log.

        Leftover ``*.tmp`` files are a crashed flush/compaction that never
        reached its ``os.replace`` — their contents are still covered by the
        WAL (flush) or by the surviving pre-compaction tables (compact), so
        they are quarantined, not opened and not deleted.  A compaction that
        crashed *after* publishing its output but before unlinking its
        inputs leaves tables the output supersedes: a table is superseded
        exactly when some table at a **deeper level** has an id at least as
        large (the merge output reuses its newest input's id one level
        down), and those are quarantined too.  A published ``*.sst`` that
        fails to open is corruption from outside the engine's crash model
        and raises the typed :class:`StoreError` from the reader.
        """
        for tmp_path in sorted(self.directory.glob("*.tmp")):
            self._quarantine(tmp_path)
        found: list[tuple[int, int, Path]] = []
        for path in sorted(self.directory.glob("sstable-*.sst")):
            parsed = _parse_table_name(path)
            if parsed is None:
                raise StoreError(f"unrecognised SSTable file name {path.name}")
            found.append((parsed[0], parsed[1], path))
            self._next_table_id = max(self._next_table_id, parsed[0] + 1)
        live = [
            (table_id, level, path)
            for table_id, level, path in found
            if not any(
                other_level > level and other_id >= table_id
                for other_id, other_level, _ in found
            )
        ]
        for table_id, level, path in found:
            if (table_id, level, path) not in live:
                self._quarantine(path)
        live.sort(key=lambda entry: (entry[0], entry[1]))
        for table_id, level, path in live:
            table = SSTable(path, self._resolve_policy(path, level))
            table.table_id = table_id
            table.level = level
            table.policy.acquire_block_epochs(table.block_epochs())
            self._tables.append(table)
        for record in self._wal.replay_records():
            if record.op == OP_PUT:
                self._memtable.put(record.key, record.value.decode("utf-8"))
            elif record.op == OP_DELETE:
                self._memtable.delete(record.key)
            # Checkpoints carry no mutation, only the LSN watermark below.
            self.recovered_lsn = record.lsn
        # Resume the sequence past everything replayed (legacy records come
        # back with synthesised LSNs, checkpoints with the flushed prefix's
        # last LSN) — an LSN is never issued twice across a reopen.
        self._oplog.advance_to(self.recovered_lsn)

    def _resolve_policy(self, path: Path, level: int) -> StoragePolicy:
        """Pick the storage policy a recovered table was written with.

        STB3 tables carry a ``(policy_kind, codec_id)`` stamp; resolution
        prefers the policy configured for the table's level, then any
        configured policy of the same kind, then a fresh plain policy for
        plain tables.  A stamped kind with no matching configured policy is
        a misconfiguration (e.g. a record-compressed table reopened without
        its trained compressor) and fails typed.  Legacy STB2 tables carry
        no stamp and open with the engine's default policy, exactly as the
        engine that wrote them did.
        """
        stamp = SSTable.read_stamp(path)
        if stamp is None:
            return self.policy
        kind, codec_id = stamp
        candidates = [self._policy_for_level(level)]
        candidates.extend(
            policy for _, policy in sorted(self._level_policies.items())
        )
        candidates.append(self.policy)
        for candidate in candidates:
            if candidate.policy_kind != kind:
                continue
            stamped = candidate.stamp_codec_id()
            if codec_id and stamped and stamped != codec_id:
                continue
            return candidate
        if kind == POLICY_KIND_PLAIN:
            return PlainPolicy()
        raise StoreError(
            f"SSTable file {path} was written by a storage policy of kind {kind} "
            "but no configured policy matches it"
        )

    def _quarantine(self, path: Path) -> None:
        quarantine = self.directory / QUARANTINE_DIR
        quarantine.mkdir(exist_ok=True)
        target = quarantine / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = quarantine / f"{path.name}.{suffix}"
        os.replace(path, target)

    def _require_open(self) -> None:
        if self._closed:
            raise StoreError("engine is closed")

    # ---------------------------------------------------------------- levels

    def _policy_for_level(self, level: int) -> StoragePolicy:
        """Storage policy for tables written at ``level``.

        An exact entry wins; otherwise the deepest configured level not
        exceeding ``level`` applies, so levels past the end of the table
        inherit the coldest configured policy.  With no per-level
        configuration every level uses the engine default.
        """
        if not self._level_policies:
            return self.policy
        if level in self._level_policies:
            return self._level_policies[level]
        configured = [entry for entry in self._level_policies if entry <= level]
        if configured:
            return self._level_policies[max(configured)]
        return self.policy

    def _level_count(self, level: int) -> int:
        return sum(1 for table in self._tables if table.level == level)

    # ------------------------------------------------------------------ write

    def _current_epoch(self) -> int:
        return self._epoch_provider() if self._epoch_provider is not None else 0

    def put(self, key: str, value: str) -> int:
        """Insert or overwrite ``key``; returns the assigned LSN."""
        self._require_open()
        with self._lock:
            record = self._oplog.append(
                OP_PUT, key, value.encode("utf-8"), self._current_epoch()
            )
            self._memtable.put(key, value)
            self._maybe_flush()
        self._admission_control()
        return record.lsn

    def delete(self, key: str) -> int:
        """Delete ``key`` (a no-op if it never existed); returns the LSN."""
        self._require_open()
        with self._lock:
            record = self._oplog.append(OP_DELETE, key, b"", self._current_epoch())
            self._memtable.delete(key)
            self._maybe_flush()
        self._admission_control()
        return record.lsn

    def put_many(self, items: Sequence[tuple[str, str]]) -> int:
        """Bulk insert: one batched WAL write, one flush check, one throttle.

        Returns the batch's **last** assigned LSN (0 for an empty batch).
        The WAL batch is a single buffer/flush/fsync, so an N-record batch
        pays one durability barrier instead of N (same ``sync_mode``
        guarantee: the batch is acknowledged only once the whole buffer is
        durable to the mode's point, and a torn batch replays as a prefix).
        """
        self._require_open()
        items = list(items)
        if not items:
            return self._oplog.last_lsn
        with self._lock:
            epoch = self._current_epoch()
            lsn = self._oplog.append_many(
                [(OP_PUT, key, value.encode("utf-8"), epoch) for key, value in items]
            )
            for key, value in items:
                self._memtable.put(key, value)
            self._maybe_flush()
        self._admission_control()
        return lsn

    def _maybe_flush(self) -> None:
        if self._memtable.approximate_bytes >= self.memtable_bytes:
            self.flush()

    def _admission_control(self) -> None:
        """Throttle the write path when L0 outruns the background compactor.

        Two watermarks (RocksDB's slowdown/stop pattern): in the slowdown
        band each write sleeps a couple of milliseconds, shedding load
        smoothly; at the stall watermark the writer blocks on the condition
        variable the compactor notifies after every merge.  If the scheduler
        died, the stalled writer compacts inline rather than deadlocking.
        Inline-compaction engines never throttle — their flush already did
        the work synchronously.
        """
        scheduler = self._scheduler
        if scheduler is None or self._closed:
            return
        with self._lock:
            level0 = self._level_count(0)
        if level0 < self._slowdown_tables:
            return
        started = time.perf_counter()
        scheduler.notify()
        if level0 >= self._stall_tables:
            with self._stall_condition:
                while (
                    self._level_count(0) >= self._stall_tables
                    and scheduler.alive
                    and scheduler.error is None
                ):
                    self._stall_condition.wait(
                        timeout=self.compaction_config.poll_seconds
                    )
            self._stalls += 1
            if not scheduler.alive or scheduler.error is not None:
                while self._compact_once():
                    pass
        else:
            time.sleep(self.compaction_config.slowdown_sleep_seconds)
            self._slowdowns += 1
        self._stall_seconds += time.perf_counter() - started

    def _publish_sstable(
        self, entries: Sequence[tuple[str, str | None]], level: int = 0
    ) -> SSTable:
        """Atomically publish ``entries`` as the next numbered SSTable.

        Write to ``*.sst.tmp``, fsync the bytes, ``os.replace`` onto the final
        name, fsync the directory: a crash at any point leaves either no table
        (a quarantinable tmp) or a complete one — never a torn ``*.sst``.
        The fsyncs are skipped in ``sync_mode="none"`` (the throughput
        baseline); the atomic rename is not.
        """
        policy = self._policy_for_level(level)
        sync = self.sync_mode != "none"
        path = self.directory / f"sstable-{self._next_table_id:06d}-{level:03d}.sst"
        tmp_path = path.with_name(path.name + ".tmp")
        write_sstable(tmp_path, entries, policy, block_bytes=self.block_bytes, sync=sync)
        os.replace(tmp_path, path)
        if sync:
            fsync_directory(self.directory)
        table = SSTable(path, policy)
        table.table_id = self._next_table_id
        table.level = level
        policy.acquire_block_epochs(table.block_epochs())
        self._next_table_id += 1
        return table

    def flush(self) -> None:
        """Write the memtable to a new level-0 SSTable and reset the WAL.

        Ordering is the recovery contract: the table is durably published
        *before* the WAL is truncated, so a crash in between replays WAL
        records whose effects the new table already holds — idempotent —
        rather than losing records covered by neither.
        """
        self._require_open()
        with self._lock:
            if len(self._memtable) == 0:
                return
            self._tables.append(self._publish_sstable(list(self._memtable.items())))
            self._memtable.clear()
            # Checkpoint the truncated log with the LSN the flushed prefix
            # reached: recovery resumes the sequence there, never reuses one.
            self._wal.reset(checkpoint_lsn=self._oplog.last_lsn)
            self._flushes += 1
        if self._scheduler is not None:
            self._scheduler.notify()
        else:
            while self._compact_once():
                pass

    # -------------------------------------------------------------- operation log

    @property
    def oplog(self) -> OperationLog:
        """The engine's mutation spine (attach replication sinks here)."""
        return self._oplog

    @property
    def last_applied_lsn(self) -> int:
        """The newest LSN this engine has assigned (0 before the first write)."""
        return self._oplog.last_lsn

    def attach_sink(self, sink: LogSink) -> LogSink:
        """Attach a sink (e.g. a :class:`~repro.oplog.sink.SubscriberSink`);
        it sees every mutation from this point on, in LSN order."""
        return self._oplog.attach(sink)

    def detach_sink(self, sink: LogSink) -> None:
        self._oplog.detach(sink)

    # ------------------------------------------------------------------- read

    def get(self, key: str) -> str | None:
        """Point lookup; returns ``None`` for missing or deleted keys."""
        self._require_open()
        with self._lock:
            found, value = self._memtable.get(key)
            if found:
                return value
            tables = list(self._tables)
        for table in reversed(tables):
            found, value = table.get(key)
            if found:
                return value
        return None

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def scan(
        self,
        start: str | None = None,
        end: str | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[str, str]]:
        """Live entries with ``start <= key < end`` in key order, newest version wins.

        A true k-way merge over per-table range iterators (which seek via the
        block index) and a point-in-time memtable snapshot — tables are not
        materialised, so a small ``limit`` over a large store reads only the
        blocks it touches before short-circuiting.  The iterator owns a
        reference to every table it reads: a compaction retiring those
        tables only unlinks their paths, and the held file descriptors keep
        a **parked** scan readable until it is garbage-collected (this is
        the scan-vs-compact crash fix).  Tombstones shadow older versions
        and are never yielded; ``limit`` counts live results.  ``start`` is
        inclusive, ``end`` exclusive, so a reversed range (``start >= end``)
        is empty.
        """
        self._require_open()
        if limit is not None and limit <= 0:
            return
        with self._lock:
            tables = list(self._tables)
            # Materialise the memtable's window: the live memtable keeps
            # mutating (and is cleared wholesale by a flush) while this
            # iterator is parked, and a lazy view over it would blow up.
            memtable_entries = list(self._memtable.range(start, end))

        sources = [table.range(start, end) for table in tables]
        sources.append(memtable_entries)
        yielded = 0
        for key, value in _newest(sources):
            if value is None:
                continue
            yield key, value
            yielded += 1
            if limit is not None and yielded >= limit:
                return

    # ------------------------------------------------------------- compaction

    def _pick_compaction(self) -> tuple[int, list[SSTable]] | None:
        """The shallowest level holding ``compaction_trigger``-many tables.

        Caller must hold ``self._lock``.  Returns ``(level, run)`` where the
        run is every table currently at that level (tiered whole-level
        merges), or ``None`` when no level is over the trigger.
        """
        by_level: dict[int, list[SSTable]] = {}
        for table in self._tables:
            by_level.setdefault(table.level, []).append(table)
        for level in sorted(by_level):
            if len(by_level[level]) >= self.compaction_trigger:
                return level, by_level[level]
        return None

    def _compact_once(self) -> bool:
        """Run one scheduled merge; returns whether any work was done."""
        if self._closed:
            return False
        with self._compact_mutex:
            with self._lock:
                pick = self._pick_compaction()
                if pick is None:
                    return False
                level, run = pick
                drop_tombstones = run[0] is self._tables[0]
            self._merge_run(run, run[-1].table_id, level + 1, drop_tombstones)
        return True

    def compact(self) -> None:
        """Merge every live SSTable into one table at the deepest level.

        The explicit full merge: keeps the newest version of every key and
        always drops tombstones (nothing can hide below a full merge).
        Safe to call while the background scheduler runs — merges are
        serialised — and a no-op with fewer than two tables.
        """
        self._require_open()
        with self._compact_mutex:
            with self._lock:
                if len(self._tables) <= 1:
                    return
                run = list(self._tables)
                out_id = run[-1].table_id
                out_level = max(table.level for table in run) + 1
            self._merge_run(run, out_id, out_level, drop_tombstones=True)

    def _merge_run(
        self,
        run: list[SSTable],
        out_id: int,
        out_level: int,
        drop_tombstones: bool,
    ) -> None:
        """Streaming k-way merge of ``run`` into one table at ``out_level``.

        Caller must hold ``_compact_mutex`` (and **not** ``_lock``).  Memory
        stays O(block): entries stream from the inputs' block iterators
        through :func:`write_sstable_stream`.  The output is published
        atomically *before* the inputs are retired, so a crash anywhere in
        between recovers by quarantining whichever side is superseded.
        """
        policy = self._policy_for_level(out_level)
        if (
            self._compaction_hook is not None
            and policy.policy_kind == POLICY_KIND_RECORD
        ):
            # Compaction-aware retraining: the backend may install a fresh
            # model epoch now, so the cold rewrite below encodes against it
            # and the old epoch's last block references retire with the
            # inputs.  Advisory — a failed retrain must not fail the merge.
            try:
                self._compaction_hook(out_level)
            except Exception:
                pass
        sync = self.sync_mode != "none"
        path = self.directory / f"sstable-{out_id:06d}-{out_level:03d}.sst"
        tmp_path = path.with_name(path.name + ".tmp")
        info = write_sstable_stream(
            tmp_path,
            self._merge_entries(run, drop_tombstones),
            policy,
            approximate_entries=sum(table.entry_count for table in run),
            block_bytes=self.block_bytes,
            sync=sync,
        )
        output: SSTable | None = None
        if info is not None:
            os.replace(tmp_path, path)
            if sync:
                fsync_directory(self.directory)
            output = SSTable(path, policy)
            output.table_id = out_id
            output.level = out_level
            policy.acquire_block_epochs(output.block_epochs())
        with self._lock:
            position = self._tables.index(run[0])
            assert self._tables[position : position + len(run)] == run
            self._tables[position : position + len(run)] = (
                [output] if output is not None else []
            )
            self._compactions += 1
            self._stall_condition.notify_all()
        for table in run:
            table.policy.release_block_epochs(table.block_epochs())
            table.retire()
        if sync:
            fsync_directory(self.directory)

    @staticmethod
    def _merge_entries(
        run: Sequence[SSTable], drop_tombstones: bool
    ) -> Iterable[tuple[str, str | None]]:
        """Newest-version-wins merge of the run's entries, streaming."""
        for key, value in _newest([table.scan() for table in run]):
            if value is None and drop_tombstones:
                continue
            yield key, value

    def key_count(self) -> int:
        """The number of live keys, ``sum(1 for _ in self.scan())`` without
        decoding a value: a key-only merge over the memtable and every
        table's stored entries, in which tombstones still shadow older
        versions."""
        self._require_open()
        with self._lock:
            tables = list(self._tables)
            memtable_entries = list(self._memtable.items())
        sources = [table.stored_entries() for table in tables]
        sources.append(memtable_entries)
        return sum(value is not None for _, value in _newest(sources))

    # ------------------------------------------------------------ measurement

    def stats(self) -> EngineStats:
        """Current engine statistics (space usage, table counts, flush/compaction counters).

        O(tables): each table's logical value bytes come from its STB3
        footer (legacy STB2 tables pay one lazy scan, cached), so this no
        longer decodes every block of the store per call.
        """
        self._require_open()
        with self._lock:
            tables = list(self._tables)
            memtable_entries = len(self._memtable)
            memtable_bytes = self._memtable.approximate_bytes
            memtable_values = [value for _, value in self._memtable.items()]
            flushes = self._flushes
            compactions = self._compactions
        logical = sum(table.logical_value_bytes for table in tables)
        for value in memtable_values:
            if value is not None:
                logical += len(value.encode("utf-8"))
        return EngineStats(
            policy=self.policy.name,
            memtable_entries=memtable_entries,
            memtable_bytes=memtable_bytes,
            sstable_count=len(tables),
            sstable_file_bytes=sum(table.file_bytes for table in tables),
            logical_value_bytes=logical,
            flushes=flushes,
            compactions=compactions,
        )

    def disk_stats(self) -> "DiskStats":
        """Cheap durable-footprint stats for metric scrapes.

        Unlike :meth:`stats` this never scans table contents — it is sized for
        a per-scrape call on the serving path (file-size sums plus the WAL's
        in-memory counters and the compaction/stall gauges).
        """
        self._require_open()
        with self._lock:
            tables = list(self._tables)
            compactions = self._compactions
            stall_seconds = self._stall_seconds
        by_level: dict[int, list[SSTable]] = {}
        for table in tables:
            by_level.setdefault(table.level, []).append(table)
        pending = sum(
            table.file_bytes
            for level_tables in by_level.values()
            if len(level_tables) >= self.compaction_trigger
            for table in level_tables
        )
        return DiskStats(
            sstable_count=len(tables),
            sstable_file_bytes=sum(table.file_bytes for table in tables),
            wal_bytes=self._wal.size_bytes,
            wal_fsyncs=self._wal.fsyncs,
            wal_fsync_seconds=self._wal.fsync_seconds,
            levels=len(by_level),
            pending_compaction_bytes=pending,
            compaction_stall_seconds=stall_seconds,
            compactions=compactions,
        )

    def measure_lookups(self, keys: Sequence[str]) -> LookupTiming:
        """Time point lookups for ``keys``."""
        self._require_open()
        hits = 0
        started = time.perf_counter()
        for key in keys:
            if self.get(key) is not None:
                hits += 1
        elapsed = time.perf_counter() - started
        return LookupTiming(lookups=len(keys), hits=hits, elapsed_seconds=elapsed)

    # ---------------------------------------------------------------- closing

    def sync(self) -> None:
        """Hard durability barrier: fsync the write-ahead log regardless of mode."""
        self._require_open()
        self._wal.sync()

    def close(self) -> None:
        """Flush pending writes, stop the compactor, release the WAL.

        Table descriptors are left to garbage collection on purpose: a scan
        iterator handed out before ``close`` stays readable to exhaustion.
        """
        if self._closed:
            return
        if len(self._memtable):
            self.flush()
        if self._scheduler is not None:
            self._scheduler.close()
        self._wal.close()
        self._closed = True

    def __enter__(self) -> "LSMEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
