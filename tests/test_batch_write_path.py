"""The batch write path changes nothing but the cost.

``compress_many`` → ``compress_records`` → ``TierBase.set_many`` replaced the
per-record path instead of forking it, so these tests are the proof that
"replace" moved no byte and no counter: the batch entry points against a
per-record loop over the same trained model, at every layer — and the one
behaviour that *did* change on purpose: a batch whose compression raises is
applied not at all (it used to be applied up to the failing value).
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs import ModelLifecycle, codec_by_name, versioned_codec
from repro.core.compressor import PBCCompressor
from repro.datasets import load_dataset
from repro.exceptions import EncodingError
from repro.oplog import OP_PUT, FollowerStore, OperationLog, SubscriberSink
from repro.service import KVService, ServiceConfig
from repro.tierbase import StoreStats, TierBase
from repro.tierbase.compression import PBCValueCompressor

DATASETS = ["kv1", "kv2", "hdfs", "alilogs"]


@functools.lru_cache(maxsize=None)
def _trained(dataset: str) -> tuple[list[str], bytes]:
    """``(2000 records, pbc_f model trained on the first 256)``."""
    records = load_dataset(dataset, count=2000, seed=1)
    return records, codec_by_name("pbc_f").train(records[:256])


def _coders(dataset: str, codec: str):
    """Two independent coders over the same trained model."""
    model = _trained(dataset)[1]
    pair = [codec_by_name("pbc_f").record_coder(model) for _ in range(2)]
    if codec == "pbc":
        pair = [PBCCompressor(dictionary=coder.dictionary) for coder in pair]
    return pair


def _store(dataset: str) -> TierBase:
    """A TierBase whose compressor holds the dataset's model as epoch 1."""
    store = TierBase(compressor=PBCValueCompressor())
    store.compressor.models.install(_trained(dataset)[1], trained_records=256)
    return store


class ReferenceStore:
    """The per-record ``TierBase.set`` the batch path replaced, statement for
    statement, on its own three per-key dicts: compress one value, re-read the
    epoch from the header it just stamped, log one record, one acquire and one
    release, observe one value.  Compared with a TierBase only through the
    surface both expose."""

    def __init__(self, dataset: str) -> None:
        self.compressor = PBCValueCompressor()
        self.compressor.models.install(_trained(dataset)[1], trained_records=256)
        self.lifecycle = ModelLifecycle(reservoir_size=256)
        self.monitor = self.lifecycle.monitor
        self.oplog = OperationLog()
        self.data: dict[str, bytes] = {}
        self.original_sizes: dict[str, int] = {}
        self.epochs: dict[str, int] = {}
        self.sets = self.gets = 0

    def set(self, key: str, value: str) -> int:
        payload = self.compressor.compress(value)
        original_size = len(value.encode("utf-8"))
        epoch = self.compressor.payload_epoch(payload)
        record = self.oplog.append(OP_PUT, key, payload, epoch)
        previous = self.epochs.get(key)
        self.compressor.acquire_epoch(epoch)
        if previous is not None:
            self.compressor.release_epoch(previous)
        self.epochs[key] = epoch
        self.data[key] = payload
        self.original_sizes[key] = original_size
        self.sets += 1
        self.monitor.observe(original_size, len(payload))
        self.lifecycle.reservoir.append(value)
        return record.lsn

    def get(self, key: str) -> str:
        self.gets += 1
        return self.compressor.decompress(self.data[key])

    @property
    def last_applied_lsn(self) -> int:
        return self.oplog.last_lsn

    def entries(self):
        for key, payload in self.data.items():
            yield key, self.original_sizes[key], payload

    def stats(self) -> StoreStats:
        return StoreStats(
            keys=len(self.data),
            memory_bytes=sum(len(key.encode("utf-8")) + len(value) for key, value in self.data.items()),
            original_value_bytes=sum(self.original_sizes.values()),
            stored_value_bytes=sum(len(value) for value in self.data.values()),
            sets=self.sets,
            gets=self.gets,
            hits=self.gets,
            misses=0,
        )


def _state(store) -> dict:
    """Everything a write touches, as comparable values, read through the
    surface a :class:`TierBase` and a :class:`ReferenceStore` share."""
    models = store.compressor.models
    entries = list(store.entries())
    return {
        "order": [key for key, _, _ in entries],
        "data": {key: payload for key, _, payload in entries},
        "original_sizes": {key: size for key, size, _ in entries},
        "epochs": {key: store.compressor.payload_epoch(payload) for key, _, payload in entries},
        "last_applied_lsn": store.last_applied_lsn,
        "retained_epochs": models.epochs(),
        "references": {epoch: models.references(epoch) for epoch in models.epochs()},
        "monitor": dataclasses.asdict(store.monitor),
        "reservoir": list(store.lifecycle.reservoir),
        "stats": dataclasses.asdict(store.stats()),
        "outlier_rate": store.compressor.outlier_rate,
    }


# ------------------------------------------------------------------ the coders


class TestCompressMany:
    @pytest.mark.parametrize("codec", ["pbc", "pbc_f"])
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_payloads_outlier_rate_and_stats_equal_the_per_record_loop(self, dataset, codec):
        records = _trained(dataset)[0]
        single, batch = _coders(dataset, codec)
        single_stats, batch_stats = single.enable_stats(), batch.enable_stats()
        assert batch.compress_many(records) == [single.compress(record) for record in records]
        assert batch.outlier_rate == single.outlier_rate
        assert batch_stats == single_stats
        assert batch_stats.records == len(records)

    @pytest.mark.parametrize("codec", ["pbc", "pbc_f"])
    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(st.one_of(st.text(max_size=30), st.sampled_from(_trained("kv1")[0])), max_size=12))
    def test_any_text_batches_like_the_per_record_loop(self, codec, records):
        single, batch = _coders("kv1", codec)
        assert batch.compress_many(records) == [single.compress(record) for record in records]
        assert batch.outlier_rate == single.outlier_rate
        assert batch.compress_many(iter(records)) == batch.compress_many(records)

    def test_the_retrain_callback_fires_on_the_same_record(self):
        records = _trained("kv1")[0][:80] + [f"@@ drift {index}" for index in range(80)]
        fired: dict[str, int] = {}
        coders = {
            name: PBCCompressor(
                dictionary=codec_by_name("pbc_f").record_coder(_trained("kv1")[1]).dictionary,
                retrain_callback=lambda coder, name=name: fired.setdefault(name, coder._seen_records),
            )
            for name in ("single", "batch")
        }
        for record in records:
            coders["single"].compress(record)
        coders["batch"].compress_many(records)
        assert fired["single"] == fired["batch"] > 80

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_compress_records_stamps_like_compress_record(self, dataset):
        records, model = _trained(dataset)
        single, batch = versioned_codec("pbc_f"), versioned_codec("pbc_f")
        for versioned in (single, batch):
            versioned.models.install(model, trained_records=256)
        epoch, payloads = batch.compress_records(records[:500])
        assert epoch == 1
        assert payloads == [single.compress_record(record) for record in records[:500]]
        assert batch.outlier_rate == single.outlier_rate
        assert batch.compress_records([]) == (1, [])


# ------------------------------------------------------------------- the store


class TestSetMany:
    @pytest.mark.parametrize("batch_size", [1, 7, 100])
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_a_store_filled_by_batches_equals_the_per_record_reference(self, dataset, batch_size):
        records = _trained(dataset)[0][:700]
        # 500 distinct keys, so the tail overwrites (and releases) earlier writes.
        items = [(f"key:{index % 500:04d}", record) for index, record in enumerate(records)]
        by_set, by_batch = ReferenceStore(dataset), _store(dataset)
        single_lsns = [by_set.set(key, value) for key, value in items]
        batch_lsns = [
            by_batch.set_many(items[start : start + batch_size])
            for start in range(0, len(items), batch_size)
        ]
        assert batch_lsns == single_lsns[batch_size - 1 :: batch_size]
        assert _state(by_batch) == _state(by_set)
        assert by_batch.compressor.models.references(1) == 500

    def test_a_key_named_twice_keeps_the_last_value_and_one_reference(self):
        store = _store("kv1")
        first, second, other = _trained("kv1")[0][:3]
        assert store.set_many([("dup", first), ("other", other), ("dup", second)]) == 3
        assert store.get("dup") == second
        assert store.compressor.models.references(1) == 2
        assert len(store) == 2 and store.stats().sets == 3

    def test_overwriting_a_superseded_epochs_last_keys_prunes_it(self):
        records, model = _trained("kv1")
        states = []
        for make, write in (
            (ReferenceStore, lambda store, items: [store.set(key, value) for key, value in items]),
            (_store, lambda store, items: [store.set(key, value) for key, value in items]),
            (_store, TierBase.set_many),
        ):
            store = make("kv1")
            write(store, [(f"old:{index}", records[index]) for index in range(10)])
            store.compressor.models.install(model, trained_records=256)  # the retrain
            overwrite = [(f"old:{index}", records[20 + index]) for index in range(10)]
            # All but the last key: the superseded epoch is still referenced.
            write(store, overwrite[:9])
            assert store.compressor.models.epochs() == [0, 1, 2]
            write(store, overwrite[9:])
            assert store.compressor.models.epochs() == [0, 2]
            assert store.compressor.models.references(2) == 10
            assert [store.get(key) for key, _ in overwrite] == [value for _, value in overwrite]
            states.append(_state(store))
        assert states[0] == states[1] == states[2]

    def test_an_empty_batch_is_a_no_op_returning_the_current_lsn(self):
        store = _store("kv1")
        assert store.set_many([]) == 0
        store.set("k", _trained("kv1")[0][0])
        before = _state(store)
        assert store.set_many([]) == store.last_applied_lsn == 1
        assert _state(store) == before

    def test_an_attached_follower_sees_every_record_and_converges(self):
        records = _trained("hdfs")[0]
        store = _store("hdfs")
        tap = SubscriberSink(capacity=4096)
        store.oplog.attach(tap)
        subscription = tap.subscribe()
        follower = FollowerStore()
        store.set("single", records[0])
        for start in range(0, 300, 37):
            store.set_many(
                [(f"key:{index % 120}", records[index]) for index in range(start, start + 37)]
            )
            store.delete(f"key:{start % 120}")
        polled = subscription.poll()
        assert [record.lsn for record in polled] == list(range(1, store.last_applied_lsn + 1))
        follower.apply_many(polled)
        assert follower.diverges_from({key: payload for key, _, payload in store.entries()}) == []
        assert follower.last_applied == store.last_applied_lsn
        assert all(follower.epoch_of(key) == 1 for key in follower.keys())


# --------------------------------------------------------- the failing batch

POISON = "poison"


class PoisonedCompressor(PBCValueCompressor):
    """Raises on :data:`POISON` — after compressing the values before it, the
    way a real mid-batch failure leaves the inner coder's counters advanced."""

    def compress_many(self, values):
        values = list(values)
        if POISON in values:
            super().compress_many(values[: values.index(POISON)])
            raise EncodingError("cannot encode the poisoned value")
        return super().compress_many(values)


class TestFailingBatchAppliesNothing:
    def test_tierbase_set_many(self):
        records, model = _trained("kv1")
        store = TierBase(compressor=PoisonedCompressor())
        store.compressor.models.install(model, trained_records=256)
        tap = SubscriberSink(capacity=64)
        store.oplog.attach(tap)
        subscription = tap.subscribe()
        store.set_many([("kept", records[0]), ("b", records[1])])
        subscription.poll()
        before = _state(store)
        for batch in (
            [("a", records[2]), ("b", POISON), ("c", records[3])],
            [("kept", POISON)],
            [("a", records[2]), ("c", POISON)],
        ):
            with pytest.raises(EncodingError):
                store.set_many(batch)
            # The stub compresses the values before the poisoned one, which
            # the codec counts; that is the stub's doing, not store state.
            before["outlier_rate"] = store.compressor.outlier_rate
            assert _state(store) == before
            assert subscription.poll() == []
        with pytest.raises(EncodingError):
            store.set("kept", POISON)
        assert store.get("kept") == records[0] and "a" not in store and "c" not in store
        # The store still works, and the sequence has no hole.
        assert store.set_many([("a", records[2]), ("c", records[3])]) == 4

    @pytest.mark.parametrize("backend", ["tierbase", "lsm"])
    def test_service_mset(self, backend, tmp_path, monkeypatch):
        records = _trained("kv1")[0]
        monkeypatch.setattr(
            "repro.service.backends.make_value_compressor", lambda name: PoisonedCompressor()
        )
        config = ServiceConfig(
            shard_count=1,
            backend=backend,
            directory=tmp_path if backend == "lsm" else None,
            auto_retrain=False,
        )
        with KVService(config) as service:
            service.train(records[:256])
            service.mset([("kept", records[0]), ("b", records[1])])
            shard = service._shards[0].backend
            before = (
                service.scan(),
                service.last_applied(0),
                dataclasses.asdict(shard.lifecycle.monitor),
                list(shard.lifecycle.reservoir),
                shard.snapshot(0).sets,
            )
            with pytest.raises(EncodingError):
                service.mset([("a", records[2]), ("b", POISON), ("c", records[3])])
            with pytest.raises(EncodingError):
                service.set("kept", POISON)
            assert before == (
                service.scan(),
                service.last_applied(0),
                dataclasses.asdict(shard.lifecycle.monitor),
                list(shard.lifecycle.reservoir),
                shard.snapshot(0).sets,
            )
            assert service.mget(["kept", "a", "b", "c"]) == [records[0], None, records[1], None]
            assert service.mset([("a", records[2])]) == {0: 3}
