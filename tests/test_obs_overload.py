"""Overload-protection tests: bounded queues, rate limits, and size limits.

The ISSUE's protection bar: pushing an open-loop workload past
``max_inflight`` keeps the in-flight gauge bounded (backpressure, not
collapse); a rate-limited connection gets typed
:class:`~repro.exceptions.RateLimitedError` while an unlimited peer on the
same server is still served; an oversized SET is refused with
:class:`~repro.exceptions.LimitExceededError` *without* killing the
connection — and every rejection shows up as a labelled
``repro_rejections_total`` counter.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro.exceptions import LimitExceededError, NetError, RateLimitedError, RemoteError
from repro.loadgen import default_keys, mixed_operation, per_worker, preload, run_load
from repro.net import FrameDecoder, KVClient, KVServer, PingRequest, ServerConfig, encode_frame
from repro.net.server import SLOW_LOG_PER_SECOND
from repro.obs import parse_text
from repro.service import KVService, ServiceConfig

from tests.conftest import make_template_records

#: Bound on every blocking wait in this file.
WAIT = 30.0


def _serve(config: ServerConfig):
    service = KVService(ServiceConfig(shard_count=2, compressor="none"))
    threaded = KVServer(service, config)
    threaded.start()
    return service, threaded


def _open_loop(host: str, port: int, values, rate: float, operations: int, workers: int,
               preloaded: bool = True):
    """Single-key GET/SET frames on the open-loop timetable, one client per worker."""
    keys = default_keys(len(values))
    operation, calls = mixed_operation(keys, values, operations)
    with per_worker(lambda: KVClient(host, port, pool_size=1, timeout=WAIT)) as connect:
        if preloaded:
            preload(connect(), keys, values)
        return run_load(connect, operation, calls, workers, rate=rate)


def _rejections(host: str, port: int) -> dict[tuple[str, str], float]:
    """``{(opcode, reason): count}`` from a wire scrape."""
    with KVClient(host, port, pool_size=1) as client:
        samples = parse_text(client.metrics())
    return {
        (dict(labels)["opcode"], dict(labels)["reason"]): value
        for (name, labels), value in samples.items()
        if name == "repro_rejections_total"
    }


# ------------------------------------------------------------------ queue depth


class TestBoundedQueue:
    def test_inflight_gauge_stays_bounded_past_max_inflight(self):
        """An open-loop workload offered far past a tiny ``max_inflight``
        must keep the in-flight count within the documented bound
        (``max_inflight + 2`` per connection) — backpressure holds the
        backlog in the sockets, not in server memory.  The server keeps the
        exact high-water mark, so no sampler can miss the peak."""
        max_inflight = 4
        workers = 4
        service, server = _serve(ServerConfig(port=0, max_inflight=max_inflight))
        try:
            host, port = server.address
            gauge = server.registry.get("repro_inflight_requests")
            assert gauge is not None
            result = _open_loop(
                host, port, make_template_records(64), rate=20_000.0,
                operations=4000, workers=workers,
            )
            assert result.errors == 0
            assert result.completed == 4000
            # One loadgen connection per worker, plus the preload connection.
            bound = (workers + 1) * (max_inflight + 2)
            high_water = server.inflight_high_water
            assert 1 <= high_water <= bound
            assert gauge.value == 0, "in-flight gauge must drain back to zero"
            assert server.inflight == 0
        finally:
            server.stop()
            service.close()


    def test_one_burst_decodes_at_most_max_inflight_frames(self):
        """Ten times ``max_inflight`` tiny frames in one ``sendall`` arrive
        in one read; the connection's thread still decodes at most
        ``max_inflight`` of them before answering, so the high-water mark
        stays within the per-connection bound."""
        max_inflight = 4
        service, server = _serve(ServerConfig(port=0, max_inflight=max_inflight))
        try:
            count = 10 * max_inflight
            with socket.create_connection(server.address, timeout=WAIT) as sock:
                sock.sendall(encode_frame(PingRequest()) * count)
                decoder, frames = FrameDecoder(), []
                while len(frames) < count:
                    data = sock.recv(64 * 1024)
                    assert data, "server closed before answering every frame"
                    frames.extend(decoder.feed(data))
            assert [type(frame).__name__ for frame in frames] == ["PongResponse"] * count
            assert 1 <= server.inflight_high_water <= max_inflight + 2
        finally:
            server.stop()
            service.close()


# ---------------------------------------------------------------------- threads


def _server_threads() -> set[threading.Thread]:
    return {thread for thread in threading.enumerate() if thread.name.startswith("kv-net-")}


class TestThreads:
    def test_one_thread_per_connection_and_none_after_stop(self):
        """With k open connections the server runs exactly 1 + k threads of
        its own (the accept thread plus one per connection), a closed
        connection's thread exits, and ``stop()`` leaves none behind."""
        before = _server_threads()
        service, server = _serve(ServerConfig(port=0))
        clients: list[KVClient] = []
        try:
            host, port = server.address
            assert len(_server_threads() - before) == 1
            for opened in range(1, 4):
                clients.append(KVClient(host, port, pool_size=1, timeout=WAIT))
                assert clients[-1].ping()  # accepted, and served on its thread
                assert len(_server_threads() - before) == 1 + opened
            clients.pop().close()
            deadline = time.monotonic() + WAIT
            while len(_server_threads() - before) != 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(_server_threads() - before) == 3
        finally:
            server.stop()
            for client in clients:
                client.close()
            service.close()
        assert _server_threads() - before == set()

    def test_concurrent_connections_lose_no_counter_update(self):
        """More client threads than cores pipeline bursts under a tiny switch
        interval: the counters the connection threads share stay exact."""
        clients, rounds, depth = 8, 20, 16
        service, server = _serve(ServerConfig(port=0, max_inflight=8))
        errors: list[BaseException] = []

        def work(index: int) -> None:
            try:
                with KVClient(*server.address, pool_size=1, timeout=WAIT) as client:
                    for round_index in range(rounds):
                        pipeline = client.pipeline()
                        for slot in range(depth):
                            pipeline.set(f"c{index}:{slot}", str(round_index))
                        pipeline.execute()
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(index,)) for index in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=WAIT)
                assert not thread.is_alive(), "client thread hung"
        finally:
            sys.setswitchinterval(interval)
        try:
            assert errors == []
            samples = parse_text(server.render_metrics())
            assert samples[("repro_requests_total", (("opcode", "SET"),))] == clients * rounds * depth
            assert samples[("repro_connections_total", ())] == clients
            assert server.connections_served == clients
            assert server.inflight == 0
            assert samples[("repro_inflight_requests", ())] == 0
        finally:
            server.stop()
            service.close()


# ------------------------------------------------------------------- rate limit


class TestRateLimit:
    def test_limited_connection_rejected_while_peer_is_served(self):
        """Connection A blasting past its per-connection budget gets a typed
        RateLimitedError; connection B (its own fresh bucket) keeps being
        served; the rejection is counted with reason="rate"."""
        service, server = _serve(
            ServerConfig(port=0, rate_limit=25.0, rate_burst=10)
        )
        try:
            host, port = server.address
            with KVClient(host, port, pool_size=1) as blaster:
                blaster.set("k", "v")
                with pytest.raises(RateLimitedError) as excinfo:
                    for _ in range(200):
                        blaster.get("k")
                assert isinstance(excinfo.value, RemoteError)
                assert "req/s" in str(excinfo.value)

                # The offending connection survives its own rejection: after
                # a refill interval it is served again.
                time.sleep(0.2)
                assert blaster.get("k") == "v"

                # An independent connection draws from its own bucket.
                with KVClient(host, port, pool_size=1) as peer:
                    for index in range(5):
                        peer.set(f"peer-{index}", "ok")
                        assert peer.get(f"peer-{index}") == "ok"

            rejections = _rejections(host, port)
            assert rejections.get(("GET", "rate"), 0) >= 1
        finally:
            server.stop()
            service.close()

    def test_open_loop_reports_typed_rejections(self):
        """Open-loop load far past the rate budget: rejections surface in the
        result's error tally under the typed exception name, and completions
        plus errors still account for every offered operation."""
        service, server = _serve(ServerConfig(port=0, rate_limit=20.0, rate_burst=5))
        try:
            host, port = server.address
            result = _open_loop(
                host, port, ["v"], rate=2000.0, operations=400, workers=2, preloaded=False,
            )
            assert result.errors > 0
            assert result.error_kinds.get("RateLimitedError", 0) == result.errors
            assert result.completed + result.errors == 400
        finally:
            server.stop()
            service.close()


# ------------------------------------------------------------------ size limits


class TestSizeLimits:
    def test_oversized_set_is_rejected_without_killing_connection(self):
        service, server = _serve(
            ServerConfig(port=0, max_value_bytes=64, max_batch_items=4)
        )
        try:
            host, port = server.address
            with KVClient(host, port, pool_size=1) as client:
                with pytest.raises(LimitExceededError) as excinfo:
                    client.set("big", "x" * 1000)
                assert "64" in str(excinfo.value)
                # pool_size=1: this MUST be the same TCP connection — the
                # rejection refused one request, not the session.
                client.set("small", "ok")
                assert client.get("small") == "ok"

                with pytest.raises(LimitExceededError):
                    client.mget([f"k{index}" for index in range(16)])
                with pytest.raises(LimitExceededError):
                    client.mset([(f"k{index}", "v") for index in range(16)])
                assert client.get("small") == "ok"

            rejections = _rejections(host, port)
            assert rejections.get(("SET", "value_bytes")) == 1
            assert rejections.get(("MGET", "batch_items")) == 1
            assert rejections.get(("MSET", "batch_items")) == 1
        finally:
            server.stop()
            service.close()

    def test_unlimited_server_accepts_the_same_payloads(self):
        """The default config is byte-for-byte the pre-observability
        behaviour: no limit objects engage, nothing is rejected."""
        service, server = _serve(ServerConfig(port=0))
        try:
            host, port = server.address
            with KVClient(host, port, pool_size=1) as client:
                client.set("big", "x" * 100_000)
                assert client.get("big") == "x" * 100_000
                client.mset([(f"k{index}", "v") for index in range(64)])
                assert client.mget([f"k{index}" for index in range(64)]) == ["v"] * 64
            assert _rejections(host, port) == {}
        finally:
            server.stop()
            service.close()


# ---------------------------------------------------------------- configuration


class TestServerConfig:
    @pytest.mark.parametrize(
        "override",
        [
            {"max_inflight": 0},
            {"metrics_port": -1},
            {"slow_request_seconds": -0.5},
            {"max_value_bytes": -1},
            {"max_batch_items": -1},
            {"rate_limit": -1.0},
            {"rate_burst": -1},
        ],
    )
    def test_invalid_values_are_rejected_at_config_time(self, override):
        with pytest.raises(NetError):
            ServerConfig(**override)

    def test_slow_log_uses_the_module_constant(self):
        service = KVService(ServiceConfig(shard_count=1, compressor="none"))
        server = KVServer(service, ServerConfig(slow_request_seconds=0.25))
        try:
            assert server._slow_log.threshold_seconds == 0.25
            assert server._slow_log._bucket.rate == SLOW_LOG_PER_SECOND
        finally:
            service.close()
