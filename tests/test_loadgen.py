"""Tests for the one load driver (``repro.loadgen``).

The driver's seam is the ``connect()`` target, so most of this file drives a
fake: a dict-backed target that records every call.  The transport tests at
the bottom run the same operations against a real ``KVService`` and a real
``KVServer`` and require identical behaviour.

Every wait is bounded; the CI ``net-e2e`` job additionally wraps this file in
its hard 120 s timeout.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import pytest

from repro.exceptions import LoadError, RateLimitedError
from repro.loadgen import (
    LoadResult,
    Oracle,
    default_keys,
    mixed_operation,
    per_worker,
    preload,
    run_load,
)
from repro.net import KVClient, KVServer, ServerConfig
from repro.service import KVService, ServiceConfig

from tests.conftest import make_template_records

WAIT = 30.0


class FakeTarget:
    """Dict-backed stand-in for ``KVService``/``KVClient`` that logs calls."""

    def __init__(self, delay: float = 0.0) -> None:
        self.store: dict[str, str] = {}
        self.calls: list[tuple] = []
        self.delay = delay

    def get(self, key):
        time.sleep(self.delay)
        self.calls.append(("get", key))
        return self.store.get(key)

    def set(self, key, value):
        time.sleep(self.delay)
        self.calls.append(("set", key, value))
        self.store[key] = value

    def mget(self, keys):
        self.calls.append(("mget", tuple(keys)))
        return [self.store.get(key) for key in keys]

    def mset(self, items):
        self.calls.append(("mset", tuple(items)))
        self.store.update(items)


@contextmanager
def _served():
    """A 2-shard uncompressed service behind a live server."""
    with KVService(ServiceConfig(shard_count=2, compressor="none")) as service:
        with KVServer(service, ServerConfig(port=0)) as server:
            yield service, server


# ------------------------------------------------------------------ arguments


class TestArguments:
    def test_invalid_run_arguments_raise_one_typed_error(self):
        def noop(target, rng, index):
            return "OP", 1

        with pytest.raises(LoadError, match="at least one operation"):
            run_load(FakeTarget, noop, 0, 1)
        with pytest.raises(LoadError, match="at least one worker"):
            run_load(FakeTarget, noop, 1, 0)
        for rate in (0, -5.0):
            with pytest.raises(LoadError, match="rate must be positive"):
                run_load(FakeTarget, noop, 1, 1, rate=rate)

    def test_invalid_mix_and_preload_arguments(self):
        keys, values = ["k"], ["v"]
        with pytest.raises(LoadError):
            mixed_operation(keys, values, 0)
        with pytest.raises(LoadError):
            mixed_operation(keys, values, 1, get_fraction=1.5)
        with pytest.raises(LoadError):
            mixed_operation(keys, values, 1, batch=0)
        with pytest.raises(LoadError):
            mixed_operation([], values, 1)
        with pytest.raises(LoadError):
            preload(FakeTarget(), [], values)
        with pytest.raises(LoadError):
            preload(FakeTarget(), keys, values, batch=0)


# ----------------------------------------------------------- counts and seeds


class TestExactCounts:
    @pytest.mark.parametrize("operations, workers", [(10, 3), (2, 4), (7, 1)])
    def test_single_ops_issue_exactly_the_requested_count(self, operations, workers):
        """The old drivers ran ``max(1, operations // clients)`` per client:
        10 ops x 3 clients ran 9, 2 ops x 4 clients ran 4."""
        target = FakeTarget()
        keys = default_keys(4)
        preload(target, keys, ["a", "b"])
        target.calls.clear()
        operation, calls = mixed_operation(keys, ["a", "b"], operations)
        result = run_load(lambda: target, operation, calls, workers)
        assert calls == operations
        assert result.offered == result.completed == result.operations == operations
        assert len(target.calls) == operations

    def test_batches_cover_the_count_with_a_short_last_call(self):
        target = FakeTarget()
        keys = default_keys(8)
        preload(target, keys, ["a", "b"])
        target.calls.clear()
        operation, calls = mixed_operation(keys, ["a", "b"], 10, batch=4)
        result = run_load(lambda: target, operation, calls, 3)
        assert calls == 3 and result.completed == 3
        assert result.operations == 10
        assert sorted(len(call[1]) for call in target.calls) == [2, 4, 4]

    def test_same_seed_issues_the_same_calls_whatever_the_worker_count(self):
        keys, values = default_keys(16), [f"v{index}" for index in range(5)]
        logs = []
        for workers in (1, 1, 4):
            target = FakeTarget()
            operation, calls = mixed_operation(keys, values, 200, get_fraction=0.5)
            run_load(lambda: target, operation, calls, workers, seed=11)
            logs.append(target.calls)
        assert logs[0] == logs[1]
        assert sorted(logs[0]) == sorted(logs[2])
        other = FakeTarget()
        operation, calls = mixed_operation(keys, values, 200, get_fraction=0.5)
        run_load(lambda: other, operation, calls, 1, seed=12)
        assert other.calls != logs[0]

    def test_preload_returns_the_frames_it_sent(self):
        target = FakeTarget()
        keys = default_keys(130)
        assert preload(target, keys, ["a", "b", "c"]) == 3  # 64 + 64 + 2
        assert preload(target, keys, ["a", "b", "c"], batch=10) == 13
        assert len(target.calls) == 16
        assert target.store["kv:4"] == "b"  # keys[i] -> values[i % len(values)]


    def test_shared_counter_and_oracle_lose_no_update_under_contention(self):
        """More workers than cores and a tiny switch interval: every index is
        issued exactly once and every anomaly is tallied exactly once."""
        oracle = Oracle(["v"])
        issued: list[int] = []

        def operation(target, rng, index):
            issued.append(index)
            oracle.check_value(None)
            return "GET", 1

        operation.oracle = oracle
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_load(FakeTarget, operation, 4000, 16)
        finally:
            sys.setswitchinterval(previous)
        assert sorted(issued) == list(range(4000))
        assert result.lost == result.completed == result.counts["GET"] == 4000


# ------------------------------------------------------------------ the clock


class TestClocks:
    def test_closed_loop_latency_runs_from_the_send(self):
        target = FakeTarget(delay=0.005)
        operation, calls = mixed_operation(["k"], ["v"], 12, get_fraction=0.0)
        result = run_load(lambda: target, operation, calls, 1)
        assert result.rate is None
        samples = result.latencies["SET"]
        assert samples == sorted(samples) and len(samples) == 12
        # Each call waited only for itself: no queueing accumulates.
        assert 0.005 <= samples[0] and samples[-1] < 0.05

    def test_open_loop_latency_runs_from_the_scheduled_release(self):
        """Offer 2000/s to a target that serves 200/s: call ``i`` is due at
        ``i/2000`` but finishes near ``(i+1)/200``, so latency grows with the
        index — the queueing a closed loop would hide."""
        finished: list[tuple[int, float]] = []
        start = time.perf_counter()

        def slow(target, rng, index):
            time.sleep(0.005)
            finished.append((index, time.perf_counter() - start))
            return "OP", 1

        result = run_load(FakeTarget, slow, 40, 1, rate=2000.0)
        assert result.rate == 2000.0 and result.completed == 40
        samples = result.latencies["OP"]
        assert samples[-1] > 10 * samples[0]
        assert samples[-1] >= 0.15  # ~40 x 5 ms of backlog minus 20 ms of timetable
        assert [index for index, _ in finished] == list(range(40))

    def test_open_loop_under_capacity_holds_the_timetable(self):
        def fast(target, rng, index):
            return "OP", 1

        result = run_load(FakeTarget, fast, 50, 2, rate=500.0)
        assert result.elapsed_seconds >= 49 / 500.0
        assert result.latencies["OP"][-1] < 0.05

    def test_batch_latency_is_amortised_per_operation(self):
        def batch(target, rng, index):
            time.sleep(0.02)
            return "MGET", 10

        result = run_load(FakeTarget, batch, 2, 1)
        assert result.counts == {"MGET": 20}
        assert all(0.002 <= sample < 0.01 for sample in result.latencies["MGET"])


# ------------------------------------------------------------------- failures


class TestFailures:
    def test_operation_errors_are_tallied_by_kind_and_the_run_goes_on(self):
        def flaky(target, rng, index):
            if index % 4 == 0:
                raise RateLimitedError("slow down")
            if index % 4 == 1:
                error = RuntimeError("relayed")
                error.kind = "ModelEpochError"  # server-side name wins
                raise error
            return "OP", 1

        result = run_load(FakeTarget, flaky, 40, 3)
        assert result.error_kinds == {"RateLimitedError": 10, "ModelEpochError": 10}
        assert result.errors == 20 and result.completed == 20
        assert result.completed + result.errors == result.offered == 40

    def test_a_worker_crash_surfaces_after_join(self):
        def refuse():
            raise ConnectionRefusedError("nobody home")

        with pytest.raises(ConnectionRefusedError):
            run_load(refuse, lambda target, rng, index: ("OP", 1), 4, 2)

        def malformed(target, rng, index):
            return ("OP",)  # not (label, n_ops)

        with pytest.raises(ValueError):
            run_load(FakeTarget, malformed, 4, 2)


# --------------------------------------------------------------------- oracle


class TestOracle:
    def test_missing_value_is_lost_and_foreign_value_is_corrupt(self):
        oracle = Oracle(["a", "b"])
        for value in ("a", "b", None, "zzz", None):
            oracle.check_value(value)
        assert (oracle.lost, oracle.corrupt, oracle.unordered) == (2, 1, 0)

    def test_scan_checks_order_completeness_and_limit(self):
        oracle = Oracle(["a"])
        oracle.check_scan([("k1", "a"), ("k2", "a")], expected=2, limit=2)
        assert (oracle.lost, oracle.corrupt, oracle.unordered) == (0, 0, 0)
        oracle.check_scan([("k2", "a"), ("k1", "a")], expected=2, limit=2)
        assert oracle.unordered == 1
        oracle.check_scan([("k1", "a")], expected=3, limit=3)
        assert oracle.lost == 2
        oracle.check_scan([("k1", "a"), ("k2", "a"), ("k3", "bad")], expected=0, limit=2)
        assert oracle.corrupt == 2  # one foreign value + one record past the limit

    def test_run_load_reports_what_the_mix_oracle_saw(self):
        target = FakeTarget()
        keys = default_keys(3)
        preload(target, keys, ["a", "b", "c"])
        del target.store["kv:0"]  # injected loss
        target.store["kv:1"] = "not-in-universe"  # injected corruption
        operation, calls = mixed_operation(keys, ["a", "b", "c"], 60, get_fraction=1.0)
        result = run_load(lambda: target, operation, calls, 2)
        gets = [call[1] for call in target.calls if call[0] == "get"]
        assert result.lost == gets.count("kv:0") > 0
        assert result.corrupt == gets.count("kv:1") > 0
        assert not result.clean and result.unordered == 0

    def test_an_operation_without_an_oracle_reports_clean(self):
        result = run_load(FakeTarget, lambda target, rng, index: ("OP", 1), 3, 1)
        assert isinstance(result, LoadResult) and result.clean

    def test_summary_rows_name_every_tally(self):
        operation, calls = mixed_operation(["k"], ["v"], 5, get_fraction=0.0)
        rows = {row["metric"]: row["value"] for row in run_load(FakeTarget, operation, calls, 1).summary_rows()}
        assert rows["operations"] == "5" and rows["offered_rate"] == "closed loop"
        assert rows["lost_responses"] == 0 and rows["corrupt_responses"] == 0
        assert "set_p50_ms" in rows and "set_p99_ms" in rows


# ----------------------------------------------------------------- transports


def _wire_run(server, operation, calls, workers, seed=2023, rate=None):
    host, port = server.address
    with per_worker(lambda: KVClient(host, port, pool_size=1, timeout=WAIT)) as connect:
        return run_load(connect, operation, calls, workers, rate=rate, seed=seed)


class TestTransports:
    @pytest.mark.parametrize("batch", [1, 8], ids=["single", "mget"])
    def test_same_seed_same_operations_same_final_store(self, batch):
        """One seed, one worker: the in-process service and the served one
        see the same operations and end up holding identical contents."""
        values = make_template_records(48)
        keys = default_keys(len(values))
        operation, calls = mixed_operation(keys, values, 300, get_fraction=0.4, batch=batch)
        config = ServiceConfig(shard_count=2, compressor="none")
        with KVService(config) as local, KVService(config) as remote:
            preload(local, keys, values)
            preload(remote, keys, values)
            in_process = run_load(lambda: local, operation, calls, 1, seed=7)
            with KVServer(remote, ServerConfig(port=0)) as server:
                over_wire = _wire_run(server, operation, calls, 1, seed=7)
            assert over_wire.clean and in_process.clean
            assert over_wire.errors == in_process.errors == 0
            assert over_wire.counts == in_process.counts
            assert over_wire.operations == 300
            assert local.mget(keys) == remote.mget(keys)
            assert local.mget(keys) != values  # the SETs really overwrote something

    @pytest.mark.parametrize("operations, clients", [(10, 3), (2, 4)])
    def test_exact_count_on_both_transports(self, operations, clients):
        values = make_template_records(16)
        keys = default_keys(len(values))
        operation, calls = mixed_operation(keys, values, operations, batch=1)
        with _served() as (service, server):
            preload(service, keys, values)
            before = service.snapshot()
            in_process = run_load(lambda: service, operation, calls, clients)
            over_wire = _wire_run(server, operation, calls, clients)
            after = service.snapshot()
        assert in_process.operations == over_wire.operations == operations
        assert (after.gets + after.sets) - (before.gets + before.sets) == 2 * operations

    def test_closed_loop_wire_batches_and_pipelines_stay_clean(self):
        """What the deleted closed-loop wire driver's soak checked: both
        batching modes, several clients, zero lost or corrupt responses."""
        values = make_template_records(64)
        keys = default_keys(len(values))
        with _served() as (service, server):
            host, port = server.address
            with KVClient(host, port, pool_size=1, timeout=WAIT) as loader:
                assert preload(loader, keys, values) == 1
            for batch, pipeline in ((8, False), (4, True)):
                operation, calls = mixed_operation(
                    keys, values, 400, batch=batch, pipeline=pipeline
                )
                result = _wire_run(server, operation, calls, 2)
                assert result.operations == 400 and result.errors == 0
                assert result.clean
                assert result.counts["GET"] + result.counts["SET"] == 400
                assert result.ops_per_second > 0
                assert result.latency_ms(0.99) >= result.latency_ms(0.50) > 0

    def test_a_dead_server_is_tallied_per_call_not_hung(self):
        operation, calls = mixed_operation(["k"], ["v"], 6)
        with per_worker(lambda: KVClient("127.0.0.1", 1, pool_size=1, timeout=2.0)) as connect:
            result = run_load(connect, operation, calls, 2)
        assert result.errors == 6 and result.completed == 0
        assert result.error_kinds == {"NetError": 6}
