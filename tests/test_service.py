"""Tests for the sharded concurrent KV service (``repro.service``)."""

from __future__ import annotations

import threading

import pytest

from repro.datasets import load_dataset
from repro.exceptions import ServiceError
from repro.loadgen import default_keys, mixed_operation, preload, run_load
from repro.service import (
    CompressedLRUCache,
    KVService,
    ServiceConfig,
    ShardRouter,
    make_value_compressor,
)

from tests.conftest import make_template_records


@pytest.fixture
def values():
    return load_dataset("kv1", count=200)


def make_service(**overrides) -> KVService:
    defaults = dict(shard_count=4, compressor="pbc_f", cache_entries=128, train_size=64)
    defaults.update(overrides)
    return KVService(ServiceConfig(**defaults))


# -------------------------------------------------------------------- routing


class TestShardRouter:
    def test_routing_is_deterministic_across_instances(self):
        first, second = ShardRouter(8), ShardRouter(8)
        keys = [f"user:{index}" for index in range(500)]
        assert [first.shard_for(key) for key in keys] == [second.shard_for(key) for key in keys]

    def test_routing_spreads_sequential_keys(self):
        router = ShardRouter(4)
        placements = [router.shard_for(f"user:{index}") for index in range(1000)]
        counts = [placements.count(shard) for shard in range(4)]
        # Every shard gets a meaningful slice of a sequential key space.
        assert all(count > 100 for count in counts)

    def test_group_keys_preserves_positions(self):
        router = ShardRouter(3)
        keys = [f"k{index}" for index in range(40)]
        groups = router.group_keys(keys)
        flattened = sorted(position for positions in groups.values() for position in positions)
        assert flattened == list(range(40))
        for shard_id, positions in groups.items():
            assert all(router.shard_for(keys[position]) == shard_id for position in positions)

    def test_single_shard_and_invalid_count(self):
        assert ShardRouter(1).shard_for("anything") == 0
        with pytest.raises(ServiceError):
            ShardRouter(0)


# ---------------------------------------------------------------------- cache


class TestCompressedLRUCache:
    def test_hit_miss_and_recency(self):
        cache = CompressedLRUCache(max_entries=2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        assert cache.get("a") == b"1"  # refreshes "a"
        cache.put("c", b"3")  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == b"1"
        stats = cache.stats()
        assert stats.hits == 2 and stats.misses == 1 and stats.evictions == 1

    def test_byte_capacity_evicts(self):
        cache = CompressedLRUCache(max_entries=100, max_bytes=10)
        cache.put("a", b"x" * 6)
        cache.put("b", b"y" * 6)
        assert cache.get("a") is None
        assert cache.get("b") == b"y" * 6
        assert cache.stats().compressed_bytes <= 10

    def test_invalidate(self):
        cache = CompressedLRUCache()
        cache.put("a", b"1")
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.get("a") is None
        assert cache.stats().invalidations == 1


# -------------------------------------------------------------------- service


class TestKVServiceBasics:
    def test_set_get_delete_roundtrip(self, values):
        with make_service() as service:
            service.train(values[:64])
            for index, value in enumerate(values[:50]):
                service.set(f"k:{index}", value)
            assert len(service) == 50
            for index, value in enumerate(values[:50]):
                assert service.get(f"k:{index}") == value
            assert service.delete("k:0")
            assert not service.delete("k:0")
            assert service.get("k:0") is None
            assert service.get("nope") is None

    def test_mset_mget_preserve_order_and_missing_keys(self, values):
        with make_service() as service:
            service.train(values[:64])
            items = [(f"k:{index}", value) for index, value in enumerate(values[:40])]
            service.mset(items)
            keys = [key for key, _ in items] + ["missing:1", "missing:2"]
            results = service.mget(keys)
            assert results[:40] == [value for _, value in items]
            assert results[40:] == [None, None]
            assert service.mget([]) == []

    def test_values_are_stored_compressed(self, values):
        with make_service() as service:
            service.train(values[:64])
            service.mset([(f"k:{index}", value) for index, value in enumerate(values)])
            snapshot = service.snapshot()
            assert snapshot.ratio < 0.8
            assert all(shard.keys > 0 for shard in snapshot.shards)
            assert sum(shard.keys for shard in snapshot.shards) == len(values)

    def test_closed_service_rejects_operations(self, values):
        service = make_service()
        service.close()
        with pytest.raises(ServiceError):
            service.get("k")
        service.close()  # idempotent

    def test_invalid_configs(self):
        with pytest.raises(ServiceError):
            ServiceConfig(shard_count=0)
        with pytest.raises(ServiceError):
            ServiceConfig(backend="redis")
        with pytest.raises(ServiceError):
            ServiceConfig(compressor="brotli")
        with pytest.raises(ServiceError):
            make_value_compressor("nope")
        with pytest.raises(ServiceError):
            KVService(ServiceConfig(backend="lsm", directory=None))


class TestCacheIntegration:
    def test_get_fills_cache_and_hits_decompress(self, values):
        with make_service() as service:
            service.train(values[:64])
            service.set("k:0", values[0])
            assert service.get("k:0") == values[0]  # miss: fills the cache
            assert service.get("k:0") == values[0]  # hit: decompressed from cache
            snapshot = service.snapshot()
            assert snapshot.cache.hits >= 1
            assert snapshot.cache_hits >= 1
            # The cache holds the compressed payload, not the raw value.
            cached = service.cache.get("k:0")
            assert cached is not None and cached != values[0].encode("utf-8")

    def test_overwrite_invalidates_cache(self, values):
        with make_service() as service:
            service.train(values[:64])
            service.set("k:0", values[0])
            assert service.get("k:0") == values[0]
            assert "k:0" in service.cache
            service.set("k:0", values[1])
            assert "k:0" not in service.cache
            assert service.get("k:0") == values[1]

    def test_delete_invalidates_cache(self, values):
        with make_service() as service:
            service.train(values[:64])
            service.set("k:0", values[0])
            service.get("k:0")
            assert "k:0" in service.cache
            service.delete("k:0")
            assert "k:0" not in service.cache
            assert service.get("k:0") is None


class TestConcurrency:
    def test_concurrent_mixed_get_set_is_consistent(self, values):
        """Writers own disjoint key ranges; readers hammer every key meanwhile."""
        with make_service(cache_entries=64) as service:
            service.train(values[:64])
            workers = 4
            per_worker = 30
            errors: list[Exception] = []

            def writer(worker_id: int) -> None:
                try:
                    for index in range(per_worker):
                        key = f"w{worker_id}:{index}"
                        service.set(key, values[(worker_id * per_worker + index) % len(values)])
                        service.get(key)
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            def reader() -> None:
                try:
                    for index in range(per_worker * 2):
                        service.mget([f"w{index % workers}:{index % per_worker}"])
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [
                threading.Thread(target=writer, args=(worker_id,)) for worker_id in range(workers)
            ] + [threading.Thread(target=reader) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert errors == []
            # After the dust settles, every written key holds exactly its value.
            for worker_id in range(workers):
                for index in range(per_worker):
                    expected = values[(worker_id * per_worker + index) % len(values)]
                    assert service.get(f"w{worker_id}:{index}") == expected
            snapshot = service.snapshot()
            assert snapshot.sets == workers * per_worker

    def test_mixed_workload_driver(self, values):
        keys = default_keys(len(values))
        operation, calls = mixed_operation(keys, values, 400, get_fraction=0.6, batch=8)
        with make_service() as service:
            service.train(values[:64])
            preload(service, keys, values)
            result = run_load(lambda: service, operation, calls, workers=2)
            assert result.operations == 400
            assert result.counts["GET"] + result.counts["SET"] == 400
            assert result.errors == 0 and result.clean
            assert result.ops_per_second > 0
            # The workers have joined: the strict quiescent invariants hold.
            snapshot = service.snapshot().validate()
            assert snapshot.gets == result.counts["GET"]
            assert snapshot.sets == len(values) + result.counts["SET"]
            assert snapshot.cache.hit_rate > 0.0
            assert snapshot.get_latency.p99_ms >= snapshot.get_latency.p50_ms


class TestRetraining:
    def test_injected_drift_triggers_background_retraining(self):
        """Train on one template family, then write a different one: the
        outlier rate crosses the monitor threshold and the shard retrains."""
        trained = make_template_records(120, seed=3)
        drifted = [
            f"DRIFT|{index:06d}|completely=different&layout={index * 7}" for index in range(400)
        ]
        with KVService(
            ServiceConfig(shard_count=2, compressor="pbc", cache_entries=64, train_size=64)
        ) as service:
            service.train(trained)
            service.mset([(f"d:{index}", value) for index, value in enumerate(drifted)])
            # Retrains fit on the service's trainer thread, off the shard
            # executors: join them before reading the counter.
            service.wait_for_retrains(timeout=30)
            snapshot = service.snapshot()
            assert snapshot.retrain_events >= 1
            # Values written before the retrain still round-trip afterwards.
            results = service.mget([f"d:{index}" for index in range(len(drifted))])
            assert results == drifted

    def test_auto_retrain_can_be_disabled(self):
        trained = make_template_records(120, seed=3)
        drifted = [f"DRIFT|{index:06d}|other-layout={index * 3}" for index in range(300)]
        with KVService(
            ServiceConfig(
                shard_count=2, compressor="pbc", train_size=64, auto_retrain=False
            )
        ) as service:
            service.train(trained)
            service.mset([(f"d:{index}", value) for index, value in enumerate(drifted)])
            assert service.snapshot().retrain_events == 0


class TestLSMBackend:
    def test_lsm_backend_roundtrip_and_cache(self, tmp_path, values):
        config = ServiceConfig(
            shard_count=2, backend="lsm", compressor="pbc", directory=tmp_path, cache_entries=64
        )
        with KVService(config) as service:
            service.train(values[:64])
            service.mset([(f"x:{index}", value) for index, value in enumerate(values[:80])])
            assert service.get("x:5") == values[5]
            assert service.get("x:5") == values[5]  # served from the compressed cache
            assert service.snapshot().cache.hits >= 1
            assert service.delete("x:5")
            assert service.get("x:5") is None
            snapshot = service.snapshot()
            assert all(shard.backend == "lsm" for shard in snapshot.shards)
            assert snapshot.ratio < 1.0
        # Shard directories were created on disk.
        assert sorted(path.name for path in tmp_path.iterdir()) == ["shard-000", "shard-001"]

    def test_lsm_shards_always_compact_in_the_background(self, tmp_path):
        config = ServiceConfig(shard_count=2, backend="lsm", compressor="none", directory=tmp_path)
        with KVService(config) as service:
            schedulers = [shard.backend.engine._scheduler for shard in service._shards]
            assert all(scheduler is not None and scheduler.alive for scheduler in schedulers)
        assert not any(scheduler.alive for scheduler in schedulers)
