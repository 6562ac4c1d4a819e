"""Background compaction: scheduler, admission control, per-level codecs,
parked scans across merges, batched writes, and footer-backed stats.

These are the regression tests for moving compaction off the write path:
the tiered scheduler must merge without freezing writers, a scan iterator
parked across a compaction must keep reading retired tables, ``put_many``
must pay one WAL barrier per batch, and ``stats()`` must come from table
footers instead of re-decoding every block.
"""

import threading
import time

import pytest

from repro.core.extraction import ExtractionConfig
from repro.exceptions import StoreError
from repro.lsm import (
    BlockCompressionPolicy,
    CompactionConfig,
    LSMEngine,
    PlainPolicy,
    QUARANTINE_DIR,
    RecordCompressionPolicy,
    SSTable,
    write_sstable,
)
from repro.lsm.sstable import (
    POLICY_KIND_BLOCK,
    POLICY_KIND_PLAIN,
    POLICY_KIND_RECORD,
)
from repro.compressors import ZstdLikeCodec
from repro.service.backends import LSMShard, make_shard_backend
from repro.tierbase import PBCValueCompressor

from tests.conftest import make_template_records


def trained_compressor(values: list[str]) -> PBCValueCompressor:
    compressor = PBCValueCompressor(
        config=ExtractionConfig(max_patterns=6, sample_size=48, seed=9)
    )
    compressor.train(values[:60])
    return compressor


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestParkedScanAcrossCompaction:
    """A scan generator pinned across a compaction must not crash (the bug:
    ``compact()`` unlinked the SSTable files a parked iterator was reading)."""

    def _fill(self, engine: LSMEngine, count: int = 60) -> dict[str, str]:
        expected = {}
        for index in range(count):
            key = f"key:{index:05d}"
            value = f"value-{index}"
            engine.put(key, value)
            expected[key] = value
            if index % 15 == 14:
                engine.flush()
        engine.flush()
        return expected

    def test_parked_scan_survives_explicit_compact(self, tmp_path):
        with LSMEngine(tmp_path, compaction_trigger=100) as engine:
            expected = self._fill(engine)
            assert len(engine._tables) > 1
            iterator = engine.scan()
            head = [next(iterator) for _ in range(5)]
            engine.compact()  # unlinks every table the iterator holds
            assert len(engine._tables) == 1
            rows = head + list(iterator)
            assert dict(rows) == expected
            assert [key for key, _ in rows] == sorted(expected)

    def test_parked_scan_survives_background_merge(self, tmp_path):
        engine = LSMEngine(
            tmp_path, compaction_trigger=2, background_compaction=True
        )
        try:
            expected = {}
            iterator = None
            head = []
            for index in range(120):
                key = f"key:{index:05d}"
                engine.put(key, f"value-{index}")
                expected[key] = f"value-{index}"
                if index == 40:
                    engine.flush()
                    iterator = engine.scan()
                    head = [next(iterator) for _ in range(10)]
                if index % 10 == 9:
                    engine.flush()
            assert wait_until(lambda: engine._compactions >= 1)
            # The parked iterator sees its point-in-time snapshot intact.
            parked = dict(head + list(iterator))
            assert all(parked[key] == expected[key] for key in parked)
            assert len(parked) == 41  # keys 0..40 existed at snapshot time
            # And a fresh scan sees everything.
            assert dict(engine.scan()) == expected
        finally:
            engine.close()

    @pytest.mark.parametrize("kind", ["tierbase", "lsm"])
    def test_scan_parked_across_backend_churn(self, kind, tmp_path):
        """Service-backend flavour of the regression, on both backends."""
        backend = make_shard_backend(
            kind, "pbc", shard_id=0, directory=tmp_path, train_size=64
        )
        try:
            values = make_template_records(80)
            backend.train(values[:60])
            expected = {}
            for index, value in enumerate(values):
                key = f"row:{index:05d}"
                backend.set(key, value)
                expected[key] = value
            if kind == "lsm":
                backend.engine.flush()
            iterator = iter(backend.scan(None, None, None))
            head = [next(iterator) for _ in range(5)]
            # Churn the storage underneath the parked iterator: a full
            # compaction for lsm, an epoch retrain for tierbase.
            if kind == "lsm":
                backend.engine.compact()
            else:
                backend.retrain(values[:60])
            rows = head + list(iterator)
            assert dict(rows) == expected
        finally:
            backend.close()


class TestBackgroundScheduler:
    def test_scheduler_merges_without_explicit_compact(self, tmp_path):
        engine = LSMEngine(
            tmp_path, compaction_trigger=2, background_compaction=True
        )
        try:
            for index in range(100):
                engine.put(f"key:{index:05d}", "x" * 64)
                if index % 10 == 9:
                    engine.flush()
            assert wait_until(lambda: engine._compactions >= 1)
            assert engine._scheduler is not None and engine._scheduler.alive
            for index in range(100):
                assert engine.get(f"key:{index:05d}") == "x" * 64
        finally:
            engine.close()

    def test_close_stops_scheduler(self, tmp_path):
        engine = LSMEngine(tmp_path, background_compaction=True)
        scheduler = engine._scheduler
        engine.put("key", "value")
        engine.close()
        assert scheduler is not None and not scheduler.alive

    def test_writer_never_merges_while_scheduler_lives(self, tmp_path, monkeypatch):
        """Sustained puts stay flat under compaction because every merge runs
        on the scheduler thread: a writer only throttles, it never merges."""
        merge_threads: list[str] = []
        merge_run = LSMEngine._merge_run

        def recording_merge_run(self, *args, **kwargs):
            merge_threads.append(threading.current_thread().name)
            return merge_run(self, *args, **kwargs)

        monkeypatch.setattr(LSMEngine, "_merge_run", recording_merge_run)
        engine = LSMEngine(
            tmp_path,
            memtable_bytes=1024,
            compaction_trigger=2,
            sync_mode="none",
            background_compaction=True,
        )
        try:
            for index in range(2000):
                engine.put(f"key:{index:05d}", "x" * 32)

            def settled() -> bool:
                with engine._lock:
                    return engine._pick_compaction() is None

            assert wait_until(settled)
            assert engine._scheduler is not None and engine._scheduler.alive
        finally:
            engine.close()
        assert merge_threads
        assert all(name.startswith("lsm-compaction-") for name in merge_threads)

    def test_inline_engine_has_no_scheduler_and_never_throttles(self, tmp_path):
        with LSMEngine(tmp_path, memtable_bytes=1, compaction_trigger=2) as engine:
            assert engine._scheduler is None
            for index in range(40):
                engine.put(f"key:{index:05d}", "value")
            assert engine._stalls == 0 and engine._slowdowns == 0


class TestAdmissionControl:
    def test_slowdown_band_counts_and_sleeps(self, tmp_path):
        engine = LSMEngine(
            tmp_path,
            memtable_bytes=1,  # every put flushes its own L0 table
            compaction_trigger=2,
            background_compaction=True,
        )
        try:
            with engine._compact_mutex:  # freeze the compactor mid-run
                for index in range(6):  # slowdown watermark = 4
                    engine.put(f"key:{index}", "value")
                assert engine._slowdowns >= 1
                assert engine._stalls == 0
                assert engine._stall_seconds > 0.0
        finally:
            engine.close()

    def test_stall_blocks_until_compactor_catches_up(self, tmp_path):
        engine = LSMEngine(
            tmp_path,
            memtable_bytes=1,
            compaction_trigger=2,  # slowdown at 4, stall at 8 L0 tables
            background_compaction=True,
        )
        try:
            stalled = threading.Event()

            def writer():
                for index in range(10):
                    engine.put(f"key:{index}", "value")
                stalled.set()

            with engine._compact_mutex:
                thread = threading.Thread(target=writer)
                thread.start()
                # The writer must hit the stall watermark and block while the
                # compactor is frozen.
                assert wait_until(lambda: engine._level_count(0) >= 8)
                time.sleep(0.1)
                assert not stalled.is_set()
            # Mutex released: the scheduler drains L0 and wakes the writer.
            thread.join(timeout=30)
            assert stalled.is_set()
            assert engine._stalls >= 1
            assert engine._stall_seconds > 0.0
        finally:
            engine.close()

    def test_dead_scheduler_falls_back_to_inline_compaction(self, tmp_path):
        engine = LSMEngine(
            tmp_path,
            memtable_bytes=1,
            compaction_trigger=2,
            background_compaction=True,
        )
        try:
            assert engine._scheduler is not None
            engine._scheduler.close()  # simulate the thread dying
            assert not engine._scheduler.alive
            for index in range(20):
                engine.put(f"key:{index:03d}", "value")
            # No deadlock, and the stalled writer compacted inline.
            assert engine._level_count(0) < 8
            assert engine._compactions >= 1
            for index in range(20):
                assert engine.get(f"key:{index:03d}") == "value"
        finally:
            engine.close()

    def test_custom_watermarks_validated(self, tmp_path):
        with pytest.raises(StoreError):
            CompactionConfig(slowdown_tables=8, stall_tables=4).resolve(4)
        with pytest.raises(StoreError):
            CompactionConfig(slowdown_tables=0).resolve(4)
        assert CompactionConfig().resolve(4) == (8, 16)
        assert CompactionConfig(slowdown_tables=3, stall_tables=5).resolve(4) == (3, 5)
        with pytest.raises(StoreError):
            LSMEngine(tmp_path, compaction=CompactionConfig(slowdown_tables=9, stall_tables=3))


class TestTieredCompaction:
    def test_merges_shallowest_eligible_level_into_one_deeper_table(self, tmp_path):
        with LSMEngine(tmp_path, compaction_trigger=2) as engine:
            for index in range(4):
                engine.put(f"key:{index}", f"value-{index}")
                engine.flush()  # inline engine drains eligible levels per flush
            levels = sorted(table.level for table in engine._tables)
            assert max(levels) >= 1  # data migrated off L0
            for index in range(4):
                assert engine.get(f"key:{index}") == f"value-{index}"

    def test_whole_store_compact_drops_tombstones(self, tmp_path):
        with LSMEngine(tmp_path, compaction_trigger=100) as engine:
            engine.put("keep", "value")
            engine.put("drop", "value")
            engine.flush()
            engine.delete("drop")
            engine.flush()
            engine.compact()
            assert len(engine._tables) == 1
            table = engine._tables[0]
            assert table.entry_count == 1  # tombstone physically gone
            assert engine.get("keep") == "value"
            assert engine.get("drop") is None

    def test_per_level_codec_policy_stamps(self, tmp_path):
        values = make_template_records(80)
        policies = {
            0: PlainPolicy(),
            1: BlockCompressionPolicy(ZstdLikeCodec()),
            2: RecordCompressionPolicy(trained_compressor(values)),
        }
        with LSMEngine(
            tmp_path,
            compaction_trigger=100,
            level_policies=policies,
            policy=policies[2],
        ) as engine:
            expected = {}
            for index, value in enumerate(values):
                key = f"row:{index:05d}"
                engine.put(key, value)
                expected[key] = value
            engine.flush()
            kind, _ = SSTable.read_stamp(engine._tables[0].path)
            assert kind == POLICY_KIND_PLAIN

            engine.put("row:zzz", "tail")
            expected["row:zzz"] = "tail"
            engine.flush()
            engine.compact()  # -> level 1, block codec
            table = engine._tables[0]
            assert table.level == 1
            kind, _ = SSTable.read_stamp(table.path)
            assert kind == POLICY_KIND_BLOCK

            engine.put("row:zzzz", "tail2")
            expected["row:zzzz"] = "tail2"
            engine.flush()
            engine.compact()  # -> level 2, trained record codec
            table = engine._tables[0]
            assert table.level == 2
            kind, _ = SSTable.read_stamp(table.path)
            assert kind == POLICY_KIND_RECORD
            assert dict(engine.scan()) == expected

    def test_deeper_levels_inherit_deepest_configured_policy(self, tmp_path):
        """A merge below the deepest configured level keeps that level's codec."""
        policies = {0: PlainPolicy(), 1: BlockCompressionPolicy(ZstdLikeCodec())}
        with LSMEngine(
            tmp_path, compaction_trigger=100, level_policies=policies
        ) as engine:
            for round_index in range(3):
                engine.put(f"key:{round_index}", "value")
                engine.flush()
                engine.compact()
            table = engine._tables[0]
            assert table.level >= 2
            kind, _ = SSTable.read_stamp(table.path)
            assert kind == POLICY_KIND_BLOCK


class TestLeveledRecovery:
    def test_superseded_shallow_table_is_quarantined(self, tmp_path):
        # A crash between publishing a merge output and retiring its inputs
        # leaves both on disk; recovery must prefer the deeper (newer) table
        # and quarantine — never silently resurrect — the stale shallow one.
        write_sstable(
            tmp_path / "sstable-000000-000.sst", [("key", "stale")], PlainPolicy()
        )
        write_sstable(
            tmp_path / "sstable-000000-001.sst", [("key", "fresh")], PlainPolicy()
        )
        with LSMEngine(tmp_path) as engine:
            assert engine.get("key") == "fresh"
            assert len(engine._tables) == 1
            assert engine._tables[0].level == 1
        quarantine = tmp_path / QUARANTINE_DIR
        assert quarantine.is_dir()
        assert [path.name for path in quarantine.iterdir()] == [
            "sstable-000000-000.sst"
        ]

    def test_legacy_unleveled_names_recover_as_level_zero(self, tmp_path):
        write_sstable(tmp_path / "sstable-000003.sst", [("key", "value")], PlainPolicy())
        with LSMEngine(tmp_path) as engine:
            assert engine.get("key") == "value"
            assert engine._tables[0].level == 0
            assert engine._tables[0].table_id == 3
            engine.put("other", "value")
            engine.flush()
            assert engine._tables[-1].table_id == 4  # ids continue past legacy names

    def test_background_engine_survives_reopen(self, tmp_path):
        engine = LSMEngine(tmp_path, compaction_trigger=2, background_compaction=True)
        expected = {}
        try:
            for index in range(60):
                key = f"key:{index:04d}"
                engine.put(key, f"value-{index}")
                expected[key] = f"value-{index}"
                if index % 8 == 7:
                    engine.flush()
            wait_until(lambda: engine._compactions >= 1)
        finally:
            engine.close()
        with LSMEngine(tmp_path, compaction_trigger=2, background_compaction=True) as reopened:
            assert dict(reopened.scan()) == expected


class TestPutManyBatching:
    def test_one_wal_write_per_batch(self, tmp_path):
        with LSMEngine(tmp_path) as engine:
            writes = []
            original = engine._wal._sink._file.write

            def counting_write(data):
                writes.append(len(data))
                return original(data)

            engine._wal._sink._file.write = counting_write
            engine.put_many([(f"key:{index}", "value") for index in range(50)])
            assert len(writes) == 1  # one buffer for the whole batch

    def test_one_fsync_per_batch_in_fsync_mode(self, tmp_path):
        with LSMEngine(tmp_path, sync_mode="fsync") as engine:
            base = engine._wal.fsyncs
            engine.put_many([(f"key:{index}", "value") for index in range(50)])
            assert engine._wal.fsyncs == base + 1

    def test_one_flush_check_per_batch(self, tmp_path):
        # 50 values of 64 bytes blow well past a 1 KiB memtable; the per-item
        # write path would flush mid-batch many times, the batched path once.
        with LSMEngine(tmp_path, memtable_bytes=1024, compaction_trigger=100) as engine:
            engine.put_many([(f"key:{index:03d}", "x" * 64) for index in range(50)])
            assert engine._flushes == 1

    def test_batch_is_durable_and_replayable(self, tmp_path):
        items = [(f"key:{index:03d}", f"value-{index}") for index in range(30)]
        engine = LSMEngine(tmp_path, sync_mode="fsync")
        engine.put_many(items)
        engine._wal._sink._file.close()  # crash without flush: WAL is the only copy
        engine._closed = True
        with LSMEngine(tmp_path) as reopened:
            assert dict(reopened.scan()) == dict(items)

    def test_empty_batch_is_a_noop(self, tmp_path):
        with LSMEngine(tmp_path) as engine:
            engine.put_many([])
            stats = engine.stats()
            assert stats.memtable_entries == 0 and stats.flushes == 0


class TestFooterBackedStats:
    def test_logical_value_bytes_stable_across_flush_and_compaction(self, tmp_path):
        with LSMEngine(tmp_path, compaction_trigger=100) as engine:
            values = make_template_records(60)
            for index, value in enumerate(values):
                engine.put(f"row:{index:04d}", value)
            before = engine.stats().logical_value_bytes
            assert before == sum(len(v.encode("utf-8")) for v in values)
            engine.flush()
            assert engine.stats().logical_value_bytes == before
            engine.put("row:zzzz", "tail")
            engine.flush()
            engine.compact()
            assert (
                engine.stats().logical_value_bytes
                == before + len(b"tail")
            )

    def test_stats_read_footer_not_blocks(self, tmp_path):
        with LSMEngine(tmp_path) as engine:
            for index in range(20):
                engine.put(f"key:{index:03d}", "value")
            engine.flush()
            table = engine._tables[0]
            assert table._logical_value_bytes is not None  # persisted, not lazy

            def explode(*args, **kwargs):  # stats() must never touch block data
                raise AssertionError("stats() decoded a block")

            table._read_block = explode
            assert engine.stats().logical_value_bytes == 20 * len(b"value")


class TestModelEpochReclamation:
    def test_compaction_reclaims_superseded_epochs(self, tmp_path):
        values = make_template_records(120)
        shard = LSMShard(
            tmp_path,
            trained_compressor(values),
            memtable_bytes=1024,
            train_size=64,
            sync_mode="none",
            background_compaction=False,
        )
        try:
            first_epoch = shard.compressor.current_epoch
            assert first_epoch >= 1
            for index, value in enumerate(values):
                shard.set(f"row:{index:05d}", value)
            shard.engine.flush()
            # Push everything to the cold record-compressed level: epoch
            # `first_epoch` is now referenced by on-disk blocks.
            shard.engine.compact()
            shard.engine.put("row:zzzzz", "tail")
            shard.engine.flush()
            shard.engine.compact()
            models = shard.compressor.models
            assert first_epoch in models.epochs()
            assert models.references(first_epoch) > 0

            shard.retrain(values[:60])
            second_epoch = shard.compressor.current_epoch
            assert second_epoch > first_epoch
            # The rewrite encodes against the new epoch and retires the old
            # tables — and with them the last references to the old epoch.
            shard.engine.put("row:zzzzzz", "tail2")
            shard.engine.flush()
            shard.engine.compact()
            assert models.references(first_epoch) == 0
            assert first_epoch not in models.epochs()
            assert 0 in models.epochs()  # untrained sentinel is never dropped
            for index, value in enumerate(values):
                assert shard.get(f"row:{index:05d}") == value
        finally:
            shard.close()

    def test_compaction_hook_retrains_when_drift_flagged(self, tmp_path):
        values = make_template_records(120)
        shard = LSMShard(
            tmp_path,
            trained_compressor(values),
            memtable_bytes=1024,
            train_size=64,
            sync_mode="none",
            background_compaction=False,
        )
        try:
            shard.lifecycle.needs_retrain = lambda outlier_rate: True
            for index, value in enumerate(values):
                shard.set(f"row:{index:05d}", value)  # feeds the reservoir
            shard.engine.flush()
            epoch_before = shard.compressor.current_epoch
            shard.engine.put("row:zzzzz", "tail")
            shard.engine.flush()
            shard.engine.compact()  # cold rewrite => hook => retrain
            assert shard._retrain_events >= 1
            assert shard.compressor.current_epoch > epoch_before
        finally:
            shard.close()
