"""The fan-out contract of :class:`~repro.service.KVService`.

Multi-shard work (MSET, MGET misses, train's install, scan, flush, snapshots,
close) runs on the calling thread, one shard at a time in shard order, each
under that shard's lock.  Every shard's share runs even when another shard's
share raised; a failing share applies nothing; the first error is raised once
every shard has run.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets import load_dataset
from repro.service import KVService, ServiceConfig

SHARDS = 4


@pytest.fixture(scope="module")
def values():
    return load_dataset("kv1", count=240)


def spread_items(service: KVService, values, prefix: str) -> list[tuple[str, str]]:
    items = [(f"{prefix}:{index}", value) for index, value in enumerate(values)]
    assert {service.shard_for(key) for key, _ in items} == set(range(SHARDS))
    return items


def new_threads(before: set[threading.Thread]) -> set[threading.Thread]:
    return set(threading.enumerate()) - before


class TestCallingThreadOnly:
    def run_every_fan_out(self, service: KVService, values, check) -> None:
        service.train(values[:64])
        check()
        items = spread_items(service, values[64:], "k")
        service.mset(items)
        check()
        service.cache.clear()
        keys = [key for key, _ in items]
        assert service.mget(keys) == [value for _, value in items]  # all misses
        check()
        assert [key for key, _ in service.scan()] == sorted(keys)
        check()
        service.flush()
        check()
        assert service.snapshot().keys == len(items)
        check()
        service.close()
        check()

    def test_tierbase_service_starts_no_thread(self, tmp_path, values):
        before = set(threading.enumerate())

        def check() -> None:
            assert new_threads(before) == set()

        service = KVService(
            ServiceConfig(shard_count=SHARDS, backend="tierbase", compressor="pbc_f",
                          directory=tmp_path, auto_retrain=False)
        )
        self.run_every_fan_out(service, values, check)

    def test_lsm_service_starts_only_its_compaction_schedulers(self, tmp_path, values):
        before = set(threading.enumerate())

        def check() -> None:
            names = {thread.name for thread in new_threads(before)}
            assert all(name.startswith("lsm-compaction-") for name in names), names

        service = KVService(
            ServiceConfig(shard_count=SHARDS, backend="lsm", compressor="pbc_f",
                          directory=tmp_path, auto_retrain=False)
        )
        self.run_every_fan_out(service, values, check)


class TestPartialFailure:
    @pytest.fixture
    def service(self):
        service = KVService(ServiceConfig(shard_count=SHARDS, compressor="none"))
        yield service
        service.close()

    def test_mset_applies_every_other_shard_and_raises_the_first_error(
        self, service, values, monkeypatch
    ):
        errors = {1: RuntimeError("shard 1 refused"), 2: RuntimeError("shard 2 refused")}
        for shard_id, error in errors.items():
            def refuse(items, error=error):
                raise error
            monkeypatch.setattr(service._shards[shard_id].backend, "set_many", refuse)
        items = spread_items(service, values, "m")
        with pytest.raises(RuntimeError) as raised:
            service.mset(items)
        assert raised.value is errors[1]  # shard order decides which error wins
        for key, value in items:
            expected = None if service.shard_for(key) in errors else value
            assert service.get(key) == expected

    def test_flush_attempts_every_shard_and_raises_the_first_error(
        self, service, monkeypatch
    ):
        attempted: list[int] = []
        failure = RuntimeError("shard 0 cannot flush")
        for shard in service._shards:
            def flush(shard_id=shard.shard_id):
                attempted.append(shard_id)
                if shard_id == 0:
                    raise failure
            monkeypatch.setattr(shard.backend, "flush", flush)
        with pytest.raises(RuntimeError) as raised:
            service.flush()
        assert raised.value is failure
        assert attempted == list(range(SHARDS))

        closed: list[int] = []
        for shard in service._shards:
            close = shard.backend.close
            def record_close(shard_id=shard.shard_id, close=close):
                closed.append(shard_id)
                close()
            monkeypatch.setattr(shard.backend, "close", record_close)
        attempted.clear()
        with pytest.raises(RuntimeError) as raised:
            service.close()  # flushes every shard, then closes every backend
        assert raised.value is failure
        assert attempted[:SHARDS] == closed == list(range(SHARDS))
