"""Cross-layer tests for versioned model epochs (:mod:`repro.codecs.model`).

The acceptance property of the codecs refactor: a payload compressed at epoch
N decompresses correctly after ≥2 subsequent retrains — in TierBase, in a cold
LSM SSTable, and through the service's compressed LRU cache — and the one
remaining stale case (a pruned epoch) fails with the typed
:class:`~repro.exceptions.ModelEpochError` instead of garbage.
"""

import pytest

from repro.blockstore import BlockStore
from repro.codecs import (
    ModelStore,
    VersionedCodec,
    codec_by_name,
    describe_payload,
    payload_epoch,
    split_payload,
    stamp_payload,
    versioned_codec,
)
from repro.core.extraction import ExtractionConfig
from repro.datasets import load_dataset
from repro.exceptions import CodecError, ModelEpochError
from repro.lsm.sstable import RecordCompressionPolicy
from repro.service import KVService, ServiceConfig
from repro.service.backends import LSMShard, make_value_compressor
from repro.tierbase import PBCValueCompressor, TierBase

from tests.conftest import make_template_records


@pytest.fixture
def values():
    return load_dataset("kv1", count=160)


def drifted_values(count=96):
    return [f"DRIFT|{index:06d}|totally=different&shape={index * 13}" for index in range(count)]


def pbc_compressor():
    return PBCValueCompressor(config=ExtractionConfig(max_patterns=6, sample_size=48))


# ---------------------------------------------------------------- model store


class TestModelStore:
    def test_epochs_are_monotonic_and_retained(self):
        store = ModelStore()
        assert store.current_epoch == 0
        first = store.install(b"model-1")
        second = store.install(b"model-2")
        assert (first.epoch, second.epoch) == (1, 2)
        assert store.get(1).payload == b"model-1"
        assert store.current is second

    def test_missing_epoch_raises_typed_error(self):
        store = ModelStore()
        with pytest.raises(ModelEpochError):
            store.get(5)

    def test_release_prunes_only_unreferenced_non_current_epochs(self):
        store = ModelStore()
        store.install(b"m1")
        store.acquire(1)
        store.acquire(1)
        store.install(b"m2")
        store.release(1)
        assert store.get(1).payload == b"m1"  # one live payload left
        store.release(1)
        with pytest.raises(ModelEpochError):
            store.get(1)
        # The current epoch is never pruned, referenced or not.
        store.acquire(2)
        store.release(2)
        assert store.get(2).payload == b"m2"

    def test_release_without_recorded_reference_is_a_noop(self):
        """Restored stores drop refcounts on purpose; an untracked release
        must not prune a model that live payloads may still need."""
        store = ModelStore()
        store.install(b"m1")
        store.acquire(1)
        store.acquire(1)
        restored = ModelStore.from_bytes(store.to_bytes())
        restored.install(b"m2")
        restored.release(1)
        assert restored.get(1).payload == b"m1"

    def test_epoch_drained_while_current_is_pruned_once_superseded(self):
        """Refs hitting zero while the epoch is still current must not leak
        the model forever: install() prunes it the moment it is superseded."""
        store = ModelStore()
        store.install(b"m1")
        store.acquire(1)
        store.release(1)  # drained while current: kept alive by currency only
        assert store.get(1).payload == b"m1"
        store.install(b"m2")
        with pytest.raises(ModelEpochError):
            store.get(1)
        # Untracked epochs (LSM: never acquired/released) are still retained.
        store.install(b"m3")
        assert store.get(2).payload == b"m2"

    def test_payload_header_roundtrip(self):
        data = stamp_payload(5, 300, b"body")
        assert split_payload(data) == (5, 300, b"body")
        assert payload_epoch(data) == 300
        with pytest.raises(CodecError):
            split_payload(b"")

    def test_serialisation_roundtrip_retains_every_epoch(self):
        store = ModelStore()
        store.install(b"m1", trained_records=10)
        store.install(b"m2", trained_records=20)
        restored = ModelStore.from_bytes(store.to_bytes())
        assert restored.current_epoch == 2
        assert restored.epochs() == [0, 1, 2]
        assert restored.get(1).payload == b"m1"
        assert restored.get(2).trained_records == 20
        # Epoch allocation continues monotonically after a restore.
        assert restored.install(b"m3").epoch == 3
        with pytest.raises(CodecError):
            ModelStore.from_bytes(store.to_bytes()[:-2])


class TestVersionedCodec:
    def test_record_payloads_survive_two_retrains(self, values):
        codec = versioned_codec("pbc_f")
        codec.train(values[:64])
        payloads = [codec.compress_record(value) for value in values[:40]]
        codec.train(drifted_values())
        codec.train(values[64:128])
        assert codec.current_epoch == 3
        for payload, value in zip(payloads, values[:40]):
            assert payload_epoch(payload) == 1
            assert codec.decompress_record(payload) == value

    def test_describe_payload_names_the_codec(self, values):
        codec = versioned_codec("zstd")
        codec.train(values[:32])
        name, epoch, body_bytes = describe_payload(codec.compress_record(values[0]))
        assert (name, epoch) == ("zstd", 1)
        assert body_bytes > 0

    def test_wrong_codec_payload_rejected(self, values):
        zstd = versioned_codec("zstd")
        fsst = VersionedCodec(codec_by_name("fsst"))
        zstd.train(values[:32])
        with pytest.raises(CodecError):
            fsst.decompress_record(zstd.compress_record(values[0]))

    def test_restoring_models_drops_stale_bound_coders(self, values):
        """Epoch ids are unique per store: swapping in a restored store must
        not let a coder bound to the OLD epoch 1 decode NEW epoch-1 payloads
        (which would silently return garbage, not raise)."""
        writer = pbc_compressor()
        writer.train(values[:48])
        payload = writer.compress(values[0])
        dump = writer.dump_models()

        reader = pbc_compressor()
        reader.train(drifted_values())          # a different epoch-1 model…
        reader.compress(drifted_values()[0])    # …with its coder cached
        reader.load_models(dump)
        assert reader.decompress(payload) == values[0]

    def test_byte_blocks_survive_retrain(self, values):
        codec = versioned_codec("zstd")
        codec.train(values[:32])
        block = codec.compress(b"opaque block payload " * 20)
        codec.train(drifted_values())
        assert codec.decompress(block) == b"opaque block payload " * 20


# ------------------------------------------------------------------- tierbase


class TestTierBaseEpochs:
    def test_retrain_does_not_rewrite_stored_payloads(self, values):
        store = TierBase(compressor=pbc_compressor())
        store.train(values[:48])
        for index, value in enumerate(values[:60]):
            store.set(f"k{index}", value)
        before = {key: store.get_compressed(key) for key in store.keys()}
        store.retrain(drifted_values())
        store.retrain(values[:96])
        assert store.compressor.current_epoch == 3
        # Payload bytes are identical — retrain touched nothing.
        assert {key: store.get_compressed(key) for key in store.keys()} == before
        for index, value in enumerate(values[:60]):
            assert store.get(f"k{index}") == value

    def test_overwrites_release_old_epochs(self, values):
        store = TierBase(compressor=pbc_compressor())
        store.train(values[:48])
        store.set("k", values[0])
        stale = store.get_compressed("k")
        store.retrain(drifted_values())
        # Overwriting the only epoch-1 payload prunes the epoch-1 model…
        store.set("k", values[1])
        assert store.get("k") == values[1]
        # …so the stale payload now fails with the typed error.
        with pytest.raises(ModelEpochError):
            store.compressor.decompress(stale)

    def test_reservoir_retrain_uses_recent_values(self, values):
        store = TierBase(compressor=pbc_compressor(), train_size=64)
        store.train(values[:48])
        for index, value in enumerate(values):
            store.set(f"k{index}", value)
        store.retrain()  # no sample: uses the lifecycle reservoir
        assert store.monitor.retraining_events == 1
        assert store.compressor.current_epoch == 2


# ------------------------------------------------------------------------ lsm


class TestLSMEpochs:
    def test_cold_sstable_readable_after_two_retrains(self, tmp_path, values):
        shard = LSMShard(
            tmp_path / "shard",
            pbc_compressor(),
            memtable_bytes=2048,  # small: force SSTable flushes
        )
        try:
            shard.train(values[:48])
            for index, value in enumerate(values[:80]):
                shard.set(f"k{index:04d}", value)
            stats = shard.engine.stats()
            assert stats.sstable_count >= 1  # data really is cold on disk
            shard.retrain(drifted_values())
            shard.retrain(values[48:96])
            assert shard.compressor.current_epoch == 3
            for index, value in enumerate(values[:80]):
                assert shard.get(f"k{index:04d}") == value
        finally:
            shard.close()

    def test_models_persist_across_process_restarts(self, tmp_path, values):
        """A fresh process reopening the shard directory restores the model
        store from models.bin and decodes cold SSTables written before it
        existed — the seed silently corrupted them with the new dictionary."""
        shard = LSMShard(tmp_path / "shard", pbc_compressor(), memtable_bytes=2048)
        shard.train(values[:48])
        for index, value in enumerate(values[:80]):
            shard.set(f"k{index:04d}", value)
        shard.close()
        assert (tmp_path / "shard" / "models.bin").exists()

        reopened = LSMShard(tmp_path / "shard", pbc_compressor(), memtable_bytes=2048)
        try:
            assert reopened.compressor.current_epoch == 1
            assert reopened.get("k0005") == values[5]
            reopened.retrain(drifted_values())  # epoch 2, persisted too
            assert reopened.get("k0005") == values[5]
        finally:
            reopened.close()

        # Reopening with a *different* compressor is a typed mismatch, not
        # garbage decoding: models.bin leads with the writing codec's magic.
        with pytest.raises(CodecError):
            LSMShard(
                tmp_path / "shard", make_value_compressor("zstd"), memtable_bytes=2048
            )
        # …including an un-versioned compressor, which has no model store to
        # validate against and would otherwise skip the check entirely.
        with pytest.raises(CodecError):
            LSMShard(
                tmp_path / "shard", make_value_compressor("none"), memtable_bytes=2048
            )

    def test_block_header_carries_the_write_epoch(self, values):
        compressor = pbc_compressor()
        compressor.train(values[:48])
        policy = RecordCompressionPolicy(compressor)
        block = policy.encode_block([("a", values[0]), ("b", values[1])])
        assert policy.block_epoch(block) == 1
        compressor.train(drifted_values())
        newer = policy.encode_block([("c", values[2])])
        assert policy.block_epoch(newer) == 2
        # Both blocks decode with the epoch stamped in their headers.
        assert list(policy.iter_block(block)) == [("a", values[0]), ("b", values[1])]
        assert list(policy.iter_block(newer)) == [("c", values[2])]


# ------------------------------------------------------------------ blockstore


class TestBlockStoreEpochs:
    def test_extended_blocks_span_epochs(self, values):
        codec = versioned_codec("zstd")
        codec.train(values[:32])
        store = BlockStore(codec=codec, block_size=8)
        store.load(values[:20])
        codec.train(drifted_values())
        store.extend(values[20:40])
        assert store.block_epochs[0] == 1 and store.block_epochs[-1] == 2
        for index in range(40):
            assert store.get(index) == values[index]


# --------------------------------------------------------------------- service


class TestServiceEpochs:
    def test_cached_payload_survives_two_retrains(self, values):
        config = ServiceConfig(
            shard_count=2, compressor="pbc_f", cache_entries=64, train_size=64,
            auto_retrain=False,
        )
        with KVService(config) as service:
            service.train(values[:64])
            for index, value in enumerate(values[:40]):
                service.set(f"k:{index}", value)
            for index in range(40):
                service.get(f"k:{index}")  # fill the cache with epoch-1 payloads
            for shard in service._shards:
                for sample in (drifted_values(), values[64:128]):
                    shard.run(shard.backend.retrain, sample)
            # The cache was NOT cleared by the retrains…
            assert len(service.cache) == 40
            before_hits = service.cache.stats().hits
            for index, value in enumerate(values[:40]):
                assert service.get(f"k:{index}") == value
            # …and the reads above were genuine cache hits across epochs.
            assert service.cache.stats().hits >= before_hits + 40

    def test_pruned_epoch_is_a_typed_miss_not_a_silent_fallback(self, values):
        config = ServiceConfig(
            shard_count=1, compressor="pbc_f", cache_entries=64, train_size=64,
            auto_retrain=False,
        )
        with KVService(config) as service:
            service.train(values[:64])
            service.set("k", values[0])
            stale = service._shards[0].backend.get_compressed("k")
            shard = service._shards[0]
            shard.run(shard.backend.retrain, drifted_values())
            service.set("k", values[1])  # releases + prunes the epoch-1 model
            with pytest.raises(ModelEpochError):
                shard.backend.decompress(stale)
            # A stale cache entry resolves to a re-fetch, not an error or a
            # silently-wrong value.
            service.cache.put("k", stale)
            assert service.get("k") == values[1]
            assert service.cache.get("k") != stale

    def test_lsm_service_survives_retrains_cold(self, tmp_path, values):
        config = ServiceConfig(
            shard_count=2, backend="lsm", compressor="pbc", directory=tmp_path,
            cache_entries=32, train_size=64, auto_retrain=False,
        )
        with KVService(config) as service:
            service.train(values[:64])
            service.mset([(f"x:{index}", value) for index, value in enumerate(values[:60])])
            for shard in service._shards:
                for sample in (drifted_values(), values[64:128]):
                    shard.run(shard.backend.retrain, sample)
            results = service.mget([f"x:{index}" for index in range(60)])
            assert results == values[:60]

    def test_fsst_compressor_available_from_registry(self, values):
        compressor = make_value_compressor("fsst")
        compressor.train(values[:48])
        payload = compressor.compress(values[0])
        compressor.train(drifted_values())
        assert compressor.decompress(payload) == values[0]


# ----------------------------------------------------- drift-triggered retrain


def test_background_retrain_keeps_old_epoch_payloads_live():
    """End-to-end: injected drift triggers a background retrain and values
    written at every epoch keep round-tripping (no cache clear, no rewrite)."""
    trained = make_template_records(120, seed=3)
    drifted = [
        f"DRIFT|{index:06d}|completely=different&layout={index * 7}" for index in range(400)
    ]
    with KVService(
        ServiceConfig(shard_count=2, compressor="pbc", cache_entries=128, train_size=64)
    ) as service:
        service.train(trained)
        service.mset([(f"t:{index}", value) for index, value in enumerate(trained)])
        service.mset([(f"d:{index}", value) for index, value in enumerate(drifted)])
        service.wait_for_retrains(timeout=30)
        snapshot = service.snapshot()
        assert snapshot.retrain_events >= 1
        assert service.mget([f"t:{index}" for index in range(len(trained))]) == trained
        assert service.mget([f"d:{index}" for index in range(len(drifted))]) == drifted
