"""End-to-end tests of the ``RKV1`` server/client on an ephemeral port.

The soak bar from the ISSUE: 8 concurrent pipelined clients with zero lost or
corrupted responses, fault injection (mid-stream disconnects, half-written
frames, garbage bytes) that must leave the server serving everyone else,
graceful shutdown that answers every request already received, and a
drift-triggered retrain under live wire traffic with no stale reads.

Every wait in this file is bounded (socket timeouts, thread joins with
timeouts) so a regression fails loudly instead of hanging the suite; the CI
``net-e2e`` job additionally wraps the whole file in a hard 120 s timeout.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from repro.exceptions import NetError, ProtocolError, RemoteError
from repro.net import (
    GetRequest,
    FrameDecoder,
    KVClient,
    KVServer,
    ServerConfig,
    SetRequest,
    encode_frame,
)
from repro.service import KVService, ServiceConfig

from tests.conftest import make_template_records

#: Bound on every blocking wait in this file.
WAIT = 30.0


@pytest.fixture
def server():
    """A served KVService (2 uncompressed shards) on an ephemeral port."""
    service = KVService(ServiceConfig(shard_count=2, compressor="none"))
    threaded = KVServer(service, ServerConfig(port=0, max_inflight=32))
    threaded.start()
    try:
        yield threaded
    finally:
        threaded.stop()
        service.close()


def _drain_frames(sock: socket.socket, count: int) -> list:
    decoder = FrameDecoder()
    frames: list = []
    while len(frames) < count:
        data = sock.recv(64 * 1024)
        if not data:
            decoder.eof()
            raise NetError("server closed early")
        frames.extend(decoder.feed(data))
    return frames


# ---------------------------------------------------------------- multi-client


class TestConcurrentClients:
    def test_eight_pipelined_clients_match_dict_model(self, server):
        """8 clients × mixed pipelined GET/SET/MGET/DEL over disjoint key
        spaces: every response must match a per-client dict model exactly."""
        host, port = server.address
        clients = 8
        rounds = 30
        errors: list[BaseException] = []

        def client_loop(client_id: int) -> None:
            rng = random.Random(client_id)
            model: dict[str, str] = {}
            space = [f"c{client_id}:k{index}" for index in range(24)]
            try:
                with KVClient(host, port, pool_size=1, timeout=WAIT) as client:
                    for round_index in range(rounds):
                        choice = rng.random()
                        if choice < 0.35:
                            # pipelined mixed batch: sets then gets, one round trip
                            pipe = client.pipeline()
                            writes = [
                                (rng.choice(space), f"v{client_id}:{round_index}:{i}")
                                for i in range(4)
                            ]
                            for key, value in writes:
                                pipe.set(key, value)
                            reads = [rng.choice(space) for _ in range(4)]
                            for key in reads:
                                pipe.get(key)
                            results = pipe.execute()
                            for key, value in writes:
                                model[key] = value
                            for key, got in zip(reads, results[len(writes):]):
                                assert got == model.get(key), (key, got)
                        elif choice < 0.6:
                            keys = [rng.choice(space) for _ in range(6)]
                            assert client.mget(keys) == [model.get(k) for k in keys]
                        elif choice < 0.85:
                            items = [
                                (rng.choice(space), f"m{client_id}:{round_index}:{i}")
                                for i in range(5)
                            ]
                            client.mset(items)
                            model.update(dict(items))
                        else:
                            key = rng.choice(space)
                            assert client.delete(key) == (key in model)
                            model.pop(key, None)
                    # final audit: the whole model, over the wire
                    keys = sorted(model)
                    assert client.mget(keys) == [model[k] for k in keys]
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=client_loop, args=(client_id,))
            for client_id in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=WAIT)
            assert not thread.is_alive(), "client thread hung"
        assert not errors, errors
        # Zero lost/corrupted responses, and the server really saw 8 clients.
        assert server.connections_served >= clients
        assert server.protocol_errors == 0

    def test_shared_keys_converge_to_a_written_value(self, server):
        host, port = server.address
        written: set[str] = set()
        lock = threading.Lock()

        def writer(client_id: int) -> None:
            with KVClient(host, port, pool_size=1, timeout=WAIT) as client:
                for index in range(25):
                    value = f"w{client_id}:{index}"
                    with lock:
                        written.add(value)
                    client.set("shared", value)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=WAIT)
        with KVClient(host, port, timeout=WAIT) as client:
            assert client.get("shared") in written


# -------------------------------------------------------------- fault injection


class TestFaultInjection:
    def test_mid_stream_disconnect_leaves_others_served(self, server):
        host, port = server.address
        with KVClient(host, port, timeout=WAIT) as healthy:
            healthy.set("stable", "yes")
            # 1: half-written frame, then hard close.
            half = socket.create_connection((host, port), timeout=WAIT)
            half.sendall(encode_frame(SetRequest(key=b"h", value=b"x" * 500))[:7])
            half.close()
            # 2: pipelined requests, disconnect without reading responses.
            rude = socket.create_connection((host, port), timeout=WAIT)
            rude.sendall(
                b"".join(encode_frame(GetRequest(key=b"stable")) for _ in range(50))
            )
            rude.close()
            # 3: garbage bytes → server answers ERR and closes that connection.
            garbage = socket.create_connection((host, port), timeout=WAIT)
            garbage.sendall(b"\x00" * 16)
            frames = _drain_frames(garbage, 1)
            assert frames[0].kind == "ProtocolError"
            assert garbage.recv(1024) == b""  # closed after the error frame
            garbage.close()
            # The healthy connection never noticed.
            deadline = time.monotonic() + WAIT
            while time.monotonic() < deadline:
                if server.protocol_errors >= 1:
                    break
                time.sleep(0.02)
            assert server.protocol_errors == 1
            assert healthy.get("stable") == "yes"
            assert healthy.ping()

    def test_requests_in_same_chunk_as_garbage_still_execute(self, server):
        """A SET packed into the same TCP segment as trailing garbage must be
        applied and answered before the ERR frame — outcomes may not depend
        on kernel segmentation."""
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=WAIT)
        sock.sendall(
            encode_frame(SetRequest(key=b"packed", value=b"survives")) + b"JUNKJUNK"
        )
        ok, err = _drain_frames(sock, 2)
        assert type(ok).__name__ == "OkResponse"
        assert err.kind == "ProtocolError"
        assert sock.recv(1024) == b""  # closed after the error frame
        sock.close()
        with KVClient(host, port, timeout=WAIT) as client:
            assert client.get("packed") == "survives"

    def test_remote_errors_are_typed_not_fatal(self):
        """An untrained compressor fails a SET server-side; the client sees a
        RemoteError that also subclasses the original exception type, and the
        connection stays usable."""
        from repro.exceptions import CompressorError

        service = KVService(ServiceConfig(shard_count=1, compressor="pbc_f"))
        with KVServer(service, ServerConfig(port=0)) as threaded:
            host, port = threaded.address
            with KVClient(host, port, timeout=WAIT) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.set("k", "v")
                assert isinstance(excinfo.value, CompressorError)  # dual-typed
                assert excinfo.value.kind == "MissingModelError"
                assert client.ping()  # same pooled connection still healthy
                assert client.get("k") is None
        service.close()

    def test_oversized_frame_rejected_not_buffered(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=WAIT)
        # Declare a body far beyond the server's limit; send no body at all.
        huge = ServerConfig().max_body * 4
        from repro.entropy.varint import encode_uvarint

        sock.sendall(b"RKV1\x03" + encode_uvarint(huge))
        frames = _drain_frames(sock, 1)
        assert frames[0].kind == "ProtocolError"
        assert "exceeds" in frames[0].message
        sock.close()


# ------------------------------------------------------------ graceful shutdown


class TestGracefulShutdown:
    def test_drain_answers_every_received_request(self):
        service = KVService(ServiceConfig(shard_count=2, compressor="none"))
        threaded = KVServer(service, ServerConfig(port=0, max_inflight=64))
        host, port = threaded.start()
        try:
            with KVClient(host, port, timeout=WAIT) as client:
                client.mset([(f"k{i}", f"v{i}") for i in range(32)])
            # Pipeline 64 GETs on a raw socket and stop the server before
            # reading a single response: drain must answer all 64.
            sock = socket.create_connection((host, port), timeout=WAIT)
            sock.sendall(
                b"".join(
                    encode_frame(GetRequest(key=f"k{i % 32}".encode()))
                    for i in range(64)
                )
            )
            time.sleep(0.2)  # let the reader decode + queue them
            threaded.stop(drain=True)
            frames = _drain_frames(sock, 64)
            for index, frame in enumerate(frames):
                assert frame.value == f"v{index % 32}".encode()
            sock.close()
        finally:
            service.close()

    def test_transport_failures_are_typed_net_errors(self):
        """Killing the server under a connected client surfaces as NetError
        (the documented contract), never a raw ConnectionError/timeout."""
        service = KVService(ServiceConfig(shard_count=1, compressor="none"))
        threaded = KVServer(service, ServerConfig(port=0))
        host, port = threaded.start()
        client = KVClient(host, port, timeout=5.0)
        client.set("k", "v")
        threaded.stop(drain=False)
        with pytest.raises(NetError):
            for _ in range(3):  # first call may see a clean close, then reset
                client.get("k")
        client.close()
        service.close()

    def test_bind_failure_cleans_up_threaded_server(self):
        """A busy port fails with NetError and leaves the object restartable
        on a free port — no leaked event-loop thread."""
        service = KVService(ServiceConfig(shard_count=1, compressor="none"))
        blocker = KVServer(service, ServerConfig(port=0))
        host, port = blocker.start()
        failed = KVServer(service, ServerConfig(host=host, port=port))
        before = threading.active_count()
        with pytest.raises(NetError, match="bind"):
            failed.start()
        assert threading.active_count() == before  # loop thread was joined
        blocker.stop()  # frees the port…
        host2, port2 = failed.start()  # …and the failed server is not wedged
        assert (host2, port2) == (host, port)
        failed.stop()
        service.close()

    def test_stopped_server_refuses_new_connections(self):
        service = KVService(ServiceConfig(shard_count=1, compressor="none"))
        threaded = KVServer(service, ServerConfig(port=0))
        host, port = threaded.start()
        threaded.stop()
        with pytest.raises(NetError):
            with KVClient(host, port, timeout=2.0) as client:
                client.ping()
        service.close()


# ------------------------------------------------- retrain under live traffic


def test_drift_retrain_under_live_traffic_no_stale_reads():
    """The wire version of ``test_background_retrain_keeps_old_epoch_payloads_
    live``: drifted writes stream in over TCP while a reader hammers the keys
    written at the old epoch — every read must return the exact value, and at
    least one background retrain must fire."""
    trained = make_template_records(120, seed=3)
    drifted = [
        f"DRIFT|{index:06d}|completely=different&layout={index * 7}"
        for index in range(300)
    ]
    service = KVService(
        ServiceConfig(shard_count=2, compressor="pbc", cache_entries=128, train_size=64)
    )
    service.train(trained)
    stop_reading = threading.Event()
    read_errors: list[BaseException] = []

    with KVServer(service, ServerConfig(port=0)) as threaded:
        host, port = threaded.address
        with KVClient(host, port, timeout=WAIT) as writer:
            writer.mset([(f"t:{i}", value) for i, value in enumerate(trained)])

        def reader_loop() -> None:
            rng = random.Random(11)
            try:
                with KVClient(host, port, pool_size=1, timeout=WAIT) as reader:
                    while not stop_reading.is_set():
                        index = rng.randrange(len(trained))
                        value = reader.get(f"t:{index}")
                        assert value == trained[index], f"stale read at t:{index}"
            except BaseException as error:  # noqa: BLE001
                read_errors.append(error)

        reader = threading.Thread(target=reader_loop)
        reader.start()
        try:
            with KVClient(host, port, timeout=WAIT) as writer:
                for start in range(0, len(drifted), 25):
                    writer.mset(
                        [
                            (f"d:{start + offset}", value)
                            for offset, value in enumerate(drifted[start : start + 25])
                        ]
                    )
                # The fit runs beside the traffic on the service's trainer
                # thread: join it, a STATS frame no longer queues behind it.
                service.wait_for_retrains(timeout=WAIT)
                stats = writer.stats()
                # Old-epoch and new-epoch keys both read back exactly.
                assert writer.mget([f"t:{i}" for i in range(len(trained))]) == trained
                assert writer.mget([f"d:{i}" for i in range(len(drifted))]) == drifted
        finally:
            stop_reading.set()
            reader.join(timeout=WAIT)
        assert not reader.is_alive(), "reader thread hung"
        assert not read_errors, read_errors
        assert stats["retrain_events"] >= 1, stats
    service.close()
