"""Tests for the LSN-stamped operation log (``repro.oplog``).

Covers the shared record codec (round trip, torn tail, CRC corruption,
legacy synthesis, LSN contiguity), the per-shard sequencer, the bounded
subscriber ring (lag accounting, backpressure, typed overrun), the
``FollowerStore`` convergence contract — including a Hypothesis property
interleaving put/delete/put_many/retrain against a live TierBase — and the
service-level read-your-writes surface (``wait_for_lsn``) on both backends.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import OplogError, ServiceError, SubscriberLagError
from repro.lsm.engine import LSMEngine
from repro.oplog import (
    OP_CHECKPOINT,
    OP_DELETE,
    OP_PUT,
    DiskSink,
    FollowerStore,
    OperationLog,
    OpRecord,
    Sequencer,
    SubscriberSink,
    append_record,
    encode_legacy_record,
    encode_record,
    encode_records,
    iter_records,
)
from repro.service import KVService, ServiceConfig
from repro.tierbase import TierBase
from repro.service import make_value_compressor


def _records(count: int, start: int = 1) -> list[OpRecord]:
    return [
        OpRecord(lsn=start + index, op=OP_PUT, key=f"k{start + index}", value=b"v")
        for index in range(count)
    ]


# ----------------------------------------------------------------- the codec


class TestRecordCodec:
    def test_roundtrip_preserves_every_field(self):
        original = [
            OpRecord(lsn=1, op=OP_PUT, key="alpha", value=b"\x00\xffbytes", epoch=3),
            OpRecord(lsn=2, op=OP_DELETE, key="beta"),
            OpRecord(lsn=7, op=OP_CHECKPOINT, key=""),
            OpRecord(lsn=8, op=OP_PUT, key="élé", value="café".encode(), epoch=0),
        ]
        decoded = list(iter_records(encode_records(original)))
        assert decoded == original

    def test_empty_and_torn_tail(self):
        assert list(iter_records(b"")) == []
        data = encode_records(_records(5))
        for cut in range(1, 12):
            prefix = list(iter_records(data[: len(data) - cut]))
            assert [record.lsn for record in prefix] == list(range(1, len(prefix) + 1))
            assert len(prefix) < 5

    def test_crc_corruption_truncates(self):
        data = bytearray(encode_records(_records(3)))
        # Flip one bit inside the second record's body.
        second_start = len(encode_record(_records(1)[0]))
        data[second_start + 6] ^= 0x40
        decoded = list(iter_records(bytes(data)))
        assert [record.lsn for record in decoded] == [1]

    def test_lsn_gap_stops_replay(self):
        data = encode_records(
            [
                OpRecord(lsn=1, op=OP_PUT, key="a", value=b"1"),
                OpRecord(lsn=3, op=OP_PUT, key="b", value=b"2"),  # gap: no lsn 2
            ]
        )
        assert [record.lsn for record in iter_records(data)] == [1]

    def test_start_lsn_enforces_the_expected_prefix(self):
        data = encode_records(_records(3, start=5))
        assert list(iter_records(data, start_lsn=0)) == []
        assert [record.lsn for record in iter_records(data, start_lsn=4)] == [5, 6, 7]

    def test_checkpoint_may_jump_forward_never_backward(self):
        forward = encode_records(
            [
                OpRecord(lsn=9, op=OP_CHECKPOINT, key=""),
                OpRecord(lsn=10, op=OP_PUT, key="a", value=b"1"),
            ]
        )
        assert [record.lsn for record in iter_records(forward)] == [9, 10]
        backward = encode_records(_records(3)) + encode_record(
            OpRecord(lsn=1, op=OP_CHECKPOINT, key="")
        )
        assert [record.lsn for record in iter_records(backward)] == [1, 2, 3]

    def test_legacy_records_synthesise_contiguous_lsns(self):
        data = (
            encode_legacy_record(OP_PUT, "a", "1")
            + encode_legacy_record(OP_DELETE, "a", "")
            + encode_legacy_record(OP_PUT, "b", "2")
        )
        decoded = list(iter_records(data, start_lsn=10))
        assert [(record.lsn, record.op, record.key) for record in decoded] == [
            (11, OP_PUT, "a"),
            (12, OP_DELETE, "a"),
            (13, OP_PUT, "b"),
        ]

    def test_mixed_legacy_and_stamped_records_interleave(self):
        data = (
            encode_legacy_record(OP_PUT, "old", "1")
            + encode_record(OpRecord(lsn=2, op=OP_PUT, key="new", value=b"2", epoch=1))
            + encode_legacy_record(OP_DELETE, "old", "")
        )
        decoded = list(iter_records(data))
        assert [(record.lsn, record.key, record.epoch) for record in decoded] == [
            (1, "old", 0),
            (2, "new", 1),
            (3, "old", 0),
        ]

    def test_append_record_matches_encode_record(self):
        record = OpRecord(lsn=42, op=OP_PUT, key="k", value=b"payload", epoch=2)
        buffer = bytearray(b"prefix")
        append_record(buffer, record)
        assert bytes(buffer) == b"prefix" + encode_record(record)


# -------------------------------------------------------------- the sequencer


class TestSequencer:
    def test_monotone_and_block_allocation(self):
        sequencer = Sequencer()
        assert sequencer.last == 0
        assert [sequencer.next() for _ in range(3)] == [1, 2, 3]
        block = sequencer.next_block(4)
        assert list(block) == [4, 5, 6, 7]
        assert sequencer.last == 7

    def test_advance_to_never_rewinds(self):
        sequencer = Sequencer()
        sequencer.advance_to(10)
        sequencer.advance_to(4)
        assert sequencer.last == 10
        assert sequencer.next() == 11


class TestOperationLog:
    def test_append_assigns_contiguous_lsns_across_sinks(self):
        sink = SubscriberSink(capacity=64)
        log = OperationLog(sinks=[sink])
        log.append(OP_PUT, "a", b"1")
        log.append_many([(OP_PUT, "b", b"2", 0), (OP_DELETE, "a", b"", 0)])
        subscription = sink.subscribe()
        assert [record.lsn for record in subscription.poll()] == [1, 2, 3]
        assert log.last_lsn == 3

    def test_concurrent_appends_stay_gap_free(self):
        sink = SubscriberSink(capacity=4096)
        log = OperationLog(sinks=[sink])

        def writer(tag: str) -> None:
            for index in range(200):
                log.append(OP_PUT, f"{tag}:{index}", b"x")

        threads = [threading.Thread(target=writer, args=(str(n),)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = sink.subscribe().poll()
        assert [record.lsn for record in records] == list(range(1, 801))


# -------------------------------------------------------- the subscriber ring


class TestSubscriberSink:
    def test_poll_sees_appends_and_tracks_lag(self):
        sink = SubscriberSink(capacity=16)
        subscription = sink.subscribe()
        sink.append(_records(3))
        assert subscription.lag == 3 == sink.max_lag()
        assert [record.lsn for record in subscription.poll()] == [1, 2, 3]
        assert subscription.lag == 0 == sink.max_lag()
        assert subscription.poll() == []

    def test_poll_timeout_blocks_until_append(self):
        sink = SubscriberSink(capacity=16)
        subscription = sink.subscribe()
        received: list[int] = []

        def reader() -> None:
            received.extend(r.lsn for r in subscription.poll(timeout=5.0))

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        sink.append(_records(2))
        thread.join(timeout=5.0)
        assert received == [1, 2]

    def test_overrun_raises_typed_error_then_resyncs(self):
        sink = SubscriberSink(capacity=4)
        subscription = sink.subscribe()
        sink.append(_records(10))
        with pytest.raises(SubscriberLagError) as excinfo:
            subscription.poll()
        assert excinfo.value.missed == 6
        assert sink.overrun_records == 6
        # The cursor resynchronised to the oldest retained record.
        assert [record.lsn for record in subscription.poll()] == [7, 8, 9, 10]

    def test_backpressure_waits_for_slow_subscriber(self):
        sink = SubscriberSink(capacity=4, block_seconds=5.0)
        subscription = sink.subscribe()
        sink.append(_records(4))

        def drain() -> None:
            time.sleep(0.05)
            subscription.poll(max_records=4)

        thread = threading.Thread(target=drain)
        thread.start()
        # Would overrun without backpressure; the writer waits for the drain.
        sink.append(_records(4, start=5))
        thread.join(timeout=5.0)
        assert sink.overrun_records == 0
        assert [record.lsn for record in subscription.poll()] == [5, 6, 7, 8]

    def test_no_subscribers_means_no_overrun_accounting(self):
        sink = SubscriberSink(capacity=4)
        sink.append(_records(12))
        assert sink.overrun_records == 0
        assert len(sink) == 4

    def test_tail_subscription_skips_history(self):
        sink = SubscriberSink(capacity=16)
        sink.append(_records(3))
        subscription = sink.subscribe(from_start=False)
        assert subscription.poll() == []
        sink.append(_records(2, start=4))
        assert [record.lsn for record in subscription.poll()] == [4, 5]

    def test_closed_sink_rejects_appends_wakes_pollers(self):
        sink = SubscriberSink(capacity=16)
        subscription = sink.subscribe()
        sink.close()
        with pytest.raises(OplogError):
            sink.append(_records(1))
        assert subscription.poll(timeout=5.0) == []


# ------------------------------------------------------------------ disk sink


class TestDiskSink:
    def test_append_replay_roundtrip(self, tmp_path):
        sink = DiskSink(tmp_path / "ops.log", sync_mode="flush")
        sink.append(_records(5))
        sink.close()
        reopened = DiskSink(tmp_path / "ops.log", sync_mode="flush")
        assert [record.lsn for record in reopened.replay()] == [1, 2, 3, 4, 5]
        reopened.close()

    def test_reset_writes_checkpoint_that_carries_the_lsn(self, tmp_path):
        sink = DiskSink(tmp_path / "ops.log", sync_mode="flush")
        sink.append(_records(5))
        sink.reset(checkpoint_lsn=5)
        sink.append(_records(2, start=6))
        replayed = list(sink.replay())
        assert [(record.lsn, record.op) for record in replayed] == [
            (5, OP_CHECKPOINT),
            (6, OP_PUT),
            (7, OP_PUT),
        ]
        sink.close()


# ------------------------------------------------------------ follower store


def _payloads(store: TierBase) -> dict[str, bytes]:
    """The primary's key -> stored payload map."""
    return {key: payload for key, _, payload in store.entries()}


class TestFollowerStore:
    def test_apply_is_idempotent(self):
        follower = FollowerStore()
        records = _records(3)
        assert follower.apply_many(records) == 3
        assert follower.apply_many(records) == 0
        assert follower.duplicates == 3
        assert follower.last_applied == 3

    def test_catch_up_converges_with_tierbase_primary(self):
        store = TierBase(compressor=make_value_compressor("pbc_f"))
        store.train([f"value-{index:04d}" for index in range(64)])
        tap = SubscriberSink(capacity=4096)
        store.oplog.attach(tap)
        subscription = tap.subscribe()
        follower = FollowerStore()

        for index in range(100):
            store.set(f"key:{index % 25}", f"value-{index:04d}")
            if index % 7 == 0:
                store.delete(f"key:{index % 25}")
        follower.catch_up(subscription)
        assert follower.diverges_from(_payloads(store)) == []
        assert follower.last_applied == store.last_applied_lsn
        # Byte-exact: the follower holds the primary's compressed payloads
        # without ever having seen a compressor model.
        for key in follower.keys():
            assert follower.get_bytes(key) == store.get_compressed(key)

    def test_converges_under_concurrent_writers(self):
        store = TierBase(compressor=make_value_compressor("none"))
        tap = SubscriberSink(capacity=65536)
        store.oplog.attach(tap)
        subscription = tap.subscribe()
        follower = FollowerStore()
        stop = threading.Event()

        def tail() -> None:
            while not stop.is_set():
                follower.catch_up(subscription, timeout=0.05)
            follower.catch_up(subscription)

        def writer(tag: int) -> None:
            for index in range(300):
                key = f"w{tag}:{index % 40}"
                if index % 9 == 0:
                    store.delete(key)
                else:
                    store.set(key, f"{tag}-{index}")

        tailer = threading.Thread(target=tail)
        writers = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
        tailer.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        tailer.join(timeout=10.0)
        assert follower.diverges_from(_payloads(store)) == []
        assert follower.last_applied == store.last_applied_lsn

    def test_converges_with_lsm_engine(self, tmp_path):
        engine = LSMEngine(tmp_path, memtable_bytes=1 << 20)
        tap = SubscriberSink(capacity=4096)
        engine.attach_sink(tap)
        subscription = tap.subscribe()
        follower = FollowerStore()
        engine.put("a", "1")
        engine.put_many([(f"k{i}", str(i)) for i in range(20)])
        engine.delete("k3")
        engine.put("a", "2")
        follower.catch_up(subscription)
        expected = {key: value.encode("utf-8") for key, value in engine.scan()}
        assert follower.diverges_from(expected) == []
        assert follower.last_applied == engine.last_applied_lsn
        engine.close()


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 11), st.text(min_size=0, max_size=12)),
        st.tuples(st.just("delete"), st.integers(0, 11), st.just("")),
        st.tuples(st.just("set_many"), st.integers(0, 11), st.text(min_size=0, max_size=8)),
        st.tuples(st.just("retrain"), st.none(), st.just("")),
    ),
    min_size=1,
    max_size=40,
)


class TestConvergenceProperty:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(operations=_OPS)
    def test_follower_converges_under_interleaved_mutations(self, operations):
        """Any interleaving of put/delete/put_many/retrain leaves a tailing
        follower byte-identical to the primary's payload map."""
        store = TierBase(compressor=make_value_compressor("pbc_f"))
        store.train([f"seed value {index}" for index in range(32)])
        tap = SubscriberSink(capacity=1 << 16)
        store.oplog.attach(tap)
        subscription = tap.subscribe()
        follower = FollowerStore()

        for kind, arg, text in operations:
            if kind == "set":
                store.set(f"key:{arg}", text)
            elif kind == "delete":
                store.delete(f"key:{arg}")
            elif kind == "set_many":
                # Every third batch names one key twice: the last value wins.
                offsets = (0, 1, 0) if arg % 3 == 0 else (0, 1, 2)
                store.set_many(
                    [
                        (f"key:{(arg + offset) % 12}", f"{text}#{position}")
                        for position, offset in enumerate(offsets)
                    ]
                )
            elif kind == "retrain":
                try:
                    store.retrain(sample_values=[f"retrain sample {n}" for n in range(16)])
                except Exception:
                    pass
            # Interleave the tail with the mutations.
            follower.catch_up(subscription)

        follower.catch_up(subscription)
        assert follower.diverges_from(_payloads(store)) == []
        assert follower.last_applied == store.last_applied_lsn
        for key in follower.keys():
            assert follower.epoch_of(key) == store.compressor.payload_epoch(
                store.get_compressed(key)
            )


# --------------------------------------------------- engine/store LSN surface


class TestEngineLsnSurface:
    def test_mutations_return_contiguous_lsns(self, tmp_path):
        engine = LSMEngine(tmp_path)
        assert engine.put("a", "1") == 1
        assert engine.put("b", "2") == 2
        assert engine.put_many([("c", "3"), ("d", "4")]) == 4
        assert engine.delete("a") == 5
        assert engine.put_many([]) == 5  # empty batch does not burn an LSN
        assert engine.last_applied_lsn == 5
        engine.close()

    def test_reopen_resumes_the_sequence(self, tmp_path):
        engine = LSMEngine(tmp_path)
        engine.put("a", "1")
        engine.put("b", "2")
        engine.close()
        reopened = LSMEngine(tmp_path)
        assert reopened.recovered_lsn == 2
        assert reopened.put("c", "3") == 3
        reopened.close()

    def test_flush_checkpoint_prevents_lsn_reuse(self, tmp_path):
        engine = LSMEngine(tmp_path)
        for index in range(10):
            engine.put(f"k{index}", str(index))
        engine.flush()  # truncates the WAL, leaving a checkpoint at LSN 10
        assert engine.put("after", "flush") == 11
        engine.close()
        reopened = LSMEngine(tmp_path)
        assert reopened.recovered_lsn == 11
        assert reopened.put("again", "x") == 12
        reopened.close()

    def test_legacy_wal_replays_with_synthesised_lsns(self, tmp_path):
        LSMEngine(tmp_path).close()
        # Pre-LSN records, byte for byte what an old binary left on disk.
        (tmp_path / "wal.log").write_bytes(
            encode_legacy_record(OP_PUT, "old1", "1") + encode_legacy_record(OP_PUT, "old2", "2")
        )

        reopened = LSMEngine(tmp_path)
        assert reopened.recovered_lsn == 2
        assert reopened.get("old1") == "1" and reopened.get("old2") == "2"
        assert reopened.put("new", "3") == 3
        reopened.close()

    def test_tierbase_snapshot_restores_the_watermark(self, tmp_path):
        store = TierBase(compressor=make_value_compressor("none"))
        store.set("a", "1")
        store.set("b", "2")
        store.delete("a")
        assert store.last_applied_lsn == 3
        store.save(tmp_path / "snap.tbs")
        loaded = TierBase.load(tmp_path / "snap.tbs", compressor=make_value_compressor("none"))
        assert loaded.last_applied_lsn == 3
        assert loaded.set("c", "4") == 4


# ------------------------------------------------------- read-your-writes API


@pytest.mark.parametrize("backend", ["tierbase", "lsm"])
class TestReadYourWrites:
    def _service(self, backend: str, tmp_path) -> KVService:
        return KVService(
            ServiceConfig(
                shard_count=2,
                backend=backend,
                compressor="none",
                directory=tmp_path if backend == "lsm" else None,
                sync_mode="none",
                auto_retrain=False,
            )
        )

    def test_set_returns_lsn_and_wait_for_lsn_is_satisfied(self, backend, tmp_path):
        service = self._service(backend, tmp_path)
        try:
            lsn = service.set("user:1", "hello")
            shard_id = service.shard_for("user:1")
            assert lsn >= 1
            assert service.wait_for_lsn(shard_id, lsn) >= lsn
            assert service.last_applied(shard_id) >= lsn
            assert service.get("user:1") == "hello"
        finally:
            service.close()

    def test_mset_reports_per_shard_watermarks(self, backend, tmp_path):
        service = self._service(backend, tmp_path)
        try:
            items = {f"key:{index}": f"value {index}" for index in range(32)}
            watermarks = service.mset(list(items.items()))
            assert watermarks
            for shard_id, lsn in watermarks.items():
                assert service.wait_for_lsn(shard_id, lsn) >= lsn
            # Every write is visible after its shard watermark is reached.
            for key, value in items.items():
                assert service.get(key) == value
        finally:
            service.close()

    def test_wait_for_lsn_times_out_on_future_lsn(self, backend, tmp_path):
        service = self._service(backend, tmp_path)
        try:
            with pytest.raises(ServiceError):
                service.wait_for_lsn(0, 10_000, timeout=0.05)
            with pytest.raises(ServiceError):
                service.wait_for_lsn(99, 1)  # unknown shard
        finally:
            service.close()

    def test_stats_expose_lsn_and_lag_gauges(self, backend, tmp_path):
        service = self._service(backend, tmp_path)
        try:
            for index in range(16):
                service.set(f"key:{index}", "x")
            snapshot = service.snapshot()
            assert sum(shard.last_lsn for shard in snapshot.shards) == 16
            assert all(shard.oplog_lag_records == 0 for shard in snapshot.shards)
        finally:
            service.close()
