"""Concurrency soak tests for :class:`~repro.service.KVService` internals.

The PR 2–3 coverage gap named by the ISSUE: the compressed LRU cache is
invalidated under each shard's lock, inside the write, which is what makes
"delete wins" safe — a reader racing a delete may see the old value *while
the delete is in flight*, but once a delete has returned, no later read may
resurrect the deleted key from the cache (the cache fill happens inside the
shard task, serialised with the delete's invalidation).  These tests hammer
exactly that interleaving, plus the new :meth:`ServiceSnapshot.validate`
cache-counter invariant.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.datasets import load_dataset
from repro.exceptions import ServiceError
from repro.service import CacheStats, KVService, ServiceConfig
from repro.service.stats import LatencySummary, ServiceSnapshot


@pytest.fixture
def values():
    return load_dataset("kv1", count=200)


# --------------------------------------------------- concurrent delete + mget


class TestConcurrentDeleteMGet:
    def _run_soak(self, config: ServiceConfig, values, rounds: int = 40) -> None:
        with KVService(config) as service:
            if config.compressor != "none":
                service.train(values[:64])
            keys = [f"k:{index}" for index in range(len(values))]
            expected = dict(zip(keys, values))
            service.mset(list(zip(keys, values)))
            # Warm the cache so deletes race genuine cache entries.
            service.mget(keys)

            doomed = keys[:: 2]  # every other key gets deleted
            survivors = [key for key in keys if key not in set(doomed)]
            start = threading.Barrier(3)
            reader_errors: list[BaseException] = []

            def deleter() -> None:
                start.wait()
                for key in doomed:
                    service.delete(key)

            def reader(seed: int) -> None:
                rng = random.Random(seed)
                start.wait()
                try:
                    for _ in range(rounds):
                        batch = [keys[rng.randrange(len(keys))] for _ in range(16)]
                        results = service.mget(batch)
                        for key, result in zip(batch, results):
                            # Racing a delete may read the old value or None,
                            # but never a *different* value.
                            assert result is None or result == expected[key], key
                except BaseException as error:  # noqa: BLE001
                    reader_errors.append(error)

            threads = [
                threading.Thread(target=deleter),
                threading.Thread(target=reader, args=(1,)),
                threading.Thread(target=reader, args=(2,)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "soak thread hung"
            assert not reader_errors, reader_errors

            # Deletes have all returned: no read below may resurrect a key.
            assert service.mget(doomed) == [None] * len(doomed)
            for key in doomed:
                assert key not in service.cache, f"cache resurrected deleted {key}"
            # A second pass cannot re-materialise them either (a stale cache
            # fill racing the first pass would surface here).
            assert service.mget(doomed) == [None] * len(doomed)
            assert service.mget(survivors) == [expected[key] for key in survivors]
            # Quiescent now: the cache counters must balance exactly.
            service.snapshot().validate()

    def test_tierbase_uncompressed(self, values):
        self._run_soak(
            ServiceConfig(shard_count=4, compressor="none", cache_entries=256), values
        )

    def test_tierbase_pbc_f(self, values):
        self._run_soak(
            ServiceConfig(
                shard_count=2, compressor="pbc_f", cache_entries=256, train_size=64
            ),
            values,
            rounds=20,
        )

    def test_interleaved_delete_set_keeps_last_write(self, values):
        """delete/set ping-pong on one key from two threads: the final state
        must match whichever operation truly came last, and the cache must
        agree with the backend."""
        with KVService(ServiceConfig(shard_count=1, compressor="none")) as service:
            service.set("k", "v0")
            barrier = threading.Barrier(2)

            def flipper() -> None:
                barrier.wait()
                for index in range(50):
                    service.set("k", f"v{index}")

            def dropper() -> None:
                barrier.wait()
                for _ in range(50):
                    service.delete("k")

            threads = [threading.Thread(target=flipper), threading.Thread(target=dropper)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            backend_value = service._shards[0].backend.get("k")
            # The cache may hold nothing, but anything it holds must decode
            # to the backend's value (no resurrection of a deleted epoch).
            cached = service.get("k")
            assert cached == backend_value


# ----------------------------------------------------- snapshot invariants


def _snapshot(cache: CacheStats, gets: int, cache_hits: int = 0) -> ServiceSnapshot:
    return ServiceSnapshot(
        shards=(),
        cache=cache,
        get_latency=LatencySummary.empty(),
        set_latency=LatencySummary.empty(),
        gets=gets,
        sets=0,
        deletes=0,
        cache_hits=cache_hits,
        retrain_events=0,
    )


class TestSnapshotValidate:
    def test_real_workload_snapshot_validates(self, values):
        with KVService(ServiceConfig(shard_count=2, compressor="none")) as service:
            keys = [f"k:{index}" for index in range(len(values))]
            service.mset(list(zip(keys, values)))
            service.mget(keys)
            for key in keys[:20]:
                service.get(key)
            service.delete(keys[0])
            snapshot = service.snapshot().validate()
            assert snapshot.cache.hits + snapshot.cache.misses == snapshot.cache.lookups
            assert snapshot.cache.lookups == snapshot.gets

    def test_raising_get_does_not_poison_the_invariant(self, values):
        """A GET that raises (corrupt cached payload → propagated decode
        error) still counted its cache lookup; the gets counter must keep
        pace or every later validate() on this service fails."""
        with KVService(
            ServiceConfig(shard_count=1, compressor="pbc_f", train_size=64)
        ) as service:
            service.train(values[:64])
            service.set("k", values[0])
            service.cache.put("k", b"\xff garbage that is no versioned payload")
            with pytest.raises(Exception):
                service.get("k")
            service.get("missing")  # a healthy GET afterwards
            snapshot = service.snapshot().validate()
            assert snapshot.cache.lookups == snapshot.gets == 2

    def test_hits_plus_misses_must_equal_lookups(self):
        bad = CacheStats(
            entries=0, compressed_bytes=0, hits=5, misses=5, evictions=0,
            invalidations=0, lookups=11,
        )
        with pytest.raises(ServiceError, match="hits"):
            _snapshot(bad, gets=11).validate()

    def test_lookups_must_equal_service_gets(self):
        cache = CacheStats(
            entries=0, compressed_bytes=0, hits=4, misses=6, evictions=0,
            invalidations=0, lookups=10,
        )
        with pytest.raises(ServiceError, match="GET"):
            _snapshot(cache, gets=9).validate()

    def test_service_cache_hits_cannot_exceed_raw_hits(self):
        cache = CacheStats(
            entries=0, compressed_bytes=0, hits=2, misses=8, evictions=0,
            invalidations=0, lookups=10,
        )
        with pytest.raises(ServiceError, match="decoded"):
            _snapshot(cache, gets=10, cache_hits=3).validate()

    def test_negative_counters_rejected(self):
        cache = CacheStats(
            entries=0, compressed_bytes=0, hits=0, misses=0, evictions=-1,
            invalidations=0, lookups=0,
        )
        with pytest.raises(ServiceError, match="negative"):
            _snapshot(cache, gets=0).validate()

    def test_valid_snapshot_returns_self(self):
        cache = CacheStats(
            entries=1, compressed_bytes=10, hits=7, misses=3, evictions=0,
            invalidations=2, lookups=10,
        )
        snapshot = _snapshot(cache, gets=10, cache_hits=7)
        assert snapshot.validate() is snapshot
