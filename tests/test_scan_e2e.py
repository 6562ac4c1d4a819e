"""End-to-end scans over the wire while the key range is under write fire.

The consistency bar: a wire scan's result is always a key-ordered,
duplicate-free view with no tombstoned keys and no torn values — even while
concurrent writers mutate the scanned range, while other clients pipeline
requests on the same server, and while a drift-triggered retrain swaps the
compression model mid-scan.  Per-shard scans run under the shard lock (so
each shard contributes a consistent slice); the key set is held constant
under update-only write fire, so full-range scans must see exactly the
preloaded key population every time.

Every wait is bounded so a regression fails loudly instead of hanging.
"""

from __future__ import annotations

import threading

import pytest

from repro.net import KVClient, KVServer, ServerConfig
from repro.net.server import SCAN_CHUNK_PAIRS
from repro.service import KVService, ServiceConfig

from tests.conftest import make_template_records

WAIT = 30.0
KEYS = 200


@pytest.fixture
def server():
    service = KVService(ServiceConfig(shard_count=2, compressor="none"))
    threaded = KVServer(service, ServerConfig(port=0, max_inflight=32))
    threaded.start()
    try:
        yield threaded
    finally:
        threaded.stop()
        service.close()


def preload(host: str, port: int, universe: list[str]) -> list[str]:
    keys = [f"s{index:05d}" for index in range(KEYS)]
    with KVClient(host, port, timeout=WAIT) as client:
        client.mset(
            [(key, universe[index % len(universe)]) for index, key in enumerate(keys)]
        )
    return keys


def check_scan(results, keys, universe, deleted=frozenset()):
    """One scan's consistency bar; returns nothing, asserts everything."""
    scanned = [key for key, _ in results]
    assert scanned == sorted(scanned), "scan keys out of order"
    assert len(scanned) == len(set(scanned)), "duplicate keys in one scan"
    assert set(scanned) == set(keys) - deleted, "lost or resurfaced keys"
    for key, value in results:
        assert value in universe, f"torn value at {key!r}"


class TestScanUnderWrites:
    def test_scans_stay_consistent_under_concurrent_writers(self, server):
        """4 writers hammer the range while 3 clients scan it in a loop."""
        host, port = server.address
        universe = [f"value-{index:04d}" for index in range(50)]
        keys = preload(host, port, universe)
        stop = threading.Event()
        failures: list[BaseException] = []

        def writer_loop(writer_id: int) -> None:
            import random

            rng = random.Random(writer_id)
            try:
                with KVClient(host, port, timeout=WAIT) as client:
                    while not stop.is_set():
                        batch = [
                            (keys[rng.randrange(KEYS)], universe[rng.randrange(len(universe))])
                            for _ in range(16)
                        ]
                        client.mset(batch)
            except BaseException as error:  # noqa: BLE001
                failures.append(error)

        def scanner_loop() -> None:
            try:
                with KVClient(host, port, pool_size=1, timeout=WAIT) as client:
                    for _ in range(15):
                        check_scan(list(client.scan("s", "t")), keys, universe)
            except BaseException as error:  # noqa: BLE001
                failures.append(error)

        writers = [threading.Thread(target=writer_loop, args=(seed,)) for seed in range(4)]
        scanners = [threading.Thread(target=scanner_loop) for _ in range(3)]
        for thread in writers + scanners:
            thread.start()
        for thread in scanners:
            thread.join(timeout=WAIT)
        stop.set()
        for thread in writers:
            thread.join(timeout=WAIT)
        assert not failures, failures

    def test_tombstoned_keys_never_resurface_in_scans(self, server):
        """Keys deleted before scanning stay invisible while writers keep
        updating the surviving keys."""
        host, port = server.address
        universe = [f"value-{index:04d}" for index in range(20)]
        keys = preload(host, port, universe)
        deleted = frozenset(keys[::7])
        with KVClient(host, port, timeout=WAIT) as client:
            for key in sorted(deleted):
                assert client.delete(key)
        stop = threading.Event()
        failures: list[BaseException] = []
        live = [key for key in keys if key not in deleted]

        def writer_loop() -> None:
            import random

            rng = random.Random(99)
            try:
                with KVClient(host, port, timeout=WAIT) as client:
                    while not stop.is_set():
                        client.set(
                            live[rng.randrange(len(live))],
                            universe[rng.randrange(len(universe))],
                        )
            except BaseException as error:  # noqa: BLE001
                failures.append(error)

        writer = threading.Thread(target=writer_loop)
        writer.start()
        try:
            with KVClient(host, port, timeout=WAIT) as client:
                for _ in range(20):
                    check_scan(
                        list(client.scan("s", "t")), keys, universe, deleted=deleted
                    )
        finally:
            stop.set()
            writer.join(timeout=WAIT)
        assert not failures, failures

    def test_limit_returns_exact_global_prefix_under_writes(self, server):
        host, port = server.address
        universe = [f"value-{index:04d}" for index in range(10)]
        keys = preload(host, port, universe)
        with KVClient(host, port, timeout=WAIT) as client:
            results = list(client.scan("s", "t", limit=17))
            assert [key for key, _ in results] == sorted(keys)[:17]


class TestChunkedScanResponses:
    def test_scan_larger_than_one_chunk_arrives_complete_and_ordered(self, server):
        """More results than SCAN_CHUNK_PAIRS forces a multi-frame MKVALUE
        stream; the client must reassemble it completely, in order."""
        host, port = server.address
        count = SCAN_CHUNK_PAIRS * 2 + 57
        with KVClient(host, port, timeout=WAIT) as client:
            for start in range(0, count, 64):
                client.mset(
                    [
                        (f"c{index:06d}", f"v{index}")
                        for index in range(start, min(start + 64, count))
                    ]
                )
            results = list(client.scan("c", "d"))
        assert len(results) == count
        assert results == [(f"c{index:06d}", f"v{index}") for index in range(count)]

    def test_abandoned_scan_does_not_poison_the_pool(self, server):
        """Dropping a scan iterator mid-stream discards that connection; the
        client keeps working for every later request."""
        host, port = server.address
        with KVClient(host, port, pool_size=1, timeout=WAIT) as client:
            client.mset([(f"c{index:06d}", "v") for index in range(SCAN_CHUNK_PAIRS * 2)])
            iterator = client.scan("c", "d")
            next(iterator)  # first chunk in flight...
            iterator.close()  # ...abandoned mid-stream
            assert client.get("c000000") == "v"
            assert len(list(client.scan("c", "d"))) == SCAN_CHUNK_PAIRS * 2

    def test_other_clients_progress_while_a_big_scan_streams(self, server):
        """A bounded-chunk scan cannot head-of-line-block other connections."""
        host, port = server.address
        with KVClient(host, port, timeout=WAIT) as loader:
            loader.mset([(f"c{index:06d}", "v" * 100) for index in range(1500)])
        with KVClient(host, port, pool_size=1, timeout=WAIT) as scanner:
            iterator = scanner.scan("c", "d")
            consumed = [next(iterator) for _ in range(10)]  # scan parked mid-stream
            with KVClient(host, port, timeout=WAIT) as other:
                assert other.ping()
                other.set("x", "y")
                assert other.get("x") == "y"
            rest = list(iterator)
            assert len(consumed) + len(rest) == 1500


def test_drift_retrain_mid_scan_zero_stale_decodes():
    """Drifted writes force a background retrain while a scanner loops over
    the trained keys: every scanned value must decode exactly (no stale
    epochs), and at least one retrain must actually fire."""
    trained = make_template_records(120, seed=3)
    drifted = [
        f"DRIFT|{index:06d}|completely=different&layout={index * 7}"
        for index in range(300)
    ]
    service = KVService(
        ServiceConfig(shard_count=2, compressor="pbc", cache_entries=128, train_size=64)
    )
    service.train(trained)
    stop = threading.Event()
    failures: list[BaseException] = []
    allowed = set(trained)

    with KVServer(service, ServerConfig(port=0)) as threaded:
        host, port = threaded.address
        with KVClient(host, port, timeout=WAIT) as writer:
            writer.mset([(f"t:{index:04d}", value) for index, value in enumerate(trained)])

        def scanner_loop() -> None:
            try:
                with KVClient(host, port, pool_size=1, timeout=WAIT) as scanner:
                    while not stop.is_set():
                        results = list(scanner.scan("t:", "t;"))
                        assert len(results) == len(trained)
                        for key, value in results:
                            assert value in allowed, f"stale decode at {key!r}"
            except BaseException as error:  # noqa: BLE001
                failures.append(error)

        scanner = threading.Thread(target=scanner_loop)
        scanner.start()
        try:
            with KVClient(host, port, timeout=WAIT) as writer:
                for start in range(0, len(drifted), 25):
                    writer.mset(
                        [
                            (f"d:{start + offset}", value)
                            for offset, value in enumerate(drifted[start : start + 25])
                        ]
                    )
                # The fit runs beside the scans on the service's trainer
                # thread: join it, a STATS frame no longer queues behind it.
                service.wait_for_retrains(timeout=WAIT)
                stats = writer.stats()
        finally:
            stop.set()
            scanner.join(timeout=WAIT)
    service.close()
    assert not failures, failures
    assert stats["retrain_events"] >= 1, stats