"""Service throughput — mixed GET/SET over the sharded concurrent KV service.

Drives `repro.service.KVService` (4 TierBase shards, PBC_F value compression,
compressed LRU read cache) with the batched GET/SET mix through the one load
driver (`repro.loadgen`) and reports per-shard compression ratios, the cache
hit rate, and GET/SET latency percentiles — the same flow the
`repro serve-bench` CLI command exposes.

As with every benchmark here, the goal on a pure-Python substrate is the
*shape* of the result: compressed shards well below 100% memory, a non-zero
cache hit rate on a GET-heavy mix, and sane latency percentiles.
"""

from repro.bench import render_table
from repro.datasets import load_dataset
from repro.loadgen import default_keys, mixed_operation, preload, run_load
from repro.service import KVService, ServiceConfig

#: Mixed-workload parameters (small: the substrate is pure Python).
SHARDS = 4
VALUES = 480
OPERATIONS = 1600
GET_FRACTION = 0.7
BATCH_SIZE = 16
CLIENTS = 2


def run_mix(config: ServiceConfig, values, operations, get_fraction, batch, clients=1):
    """Train, preload and drive one mix in-process; returns ``(result, snapshot)``."""
    keys = default_keys(len(values))
    operation, calls = mixed_operation(keys, values, operations, get_fraction, batch)
    with KVService(config) as service:
        service.train(values[: config.train_size])
        preload(service, keys, values)
        result = run_load(lambda: service, operation, calls, clients)
        return result, service.snapshot()


def run_service_benchmark(dataset: str = "kv1") -> "tuple[object, object]":
    """One end-to-end run; returns ``(result, snapshot)``."""
    config = ServiceConfig(
        shard_count=SHARDS, backend="tierbase", compressor="pbc_f", cache_entries=256
    )
    return run_mix(
        config, load_dataset(dataset, count=VALUES), OPERATIONS, GET_FRACTION, BATCH_SIZE, CLIENTS
    )


def test_service_mixed_workload(benchmark):
    result, snapshot = benchmark.pedantic(run_service_benchmark, iterations=1, rounds=1)
    print()
    print(
        f"{result.operations} ops ({result.counts['GET']} GET / {result.counts['SET']} SET), "
        f"{CLIENTS} clients: {result.ops_per_second:,.0f} ops/s"
    )
    print(render_table(snapshot.shard_rows(), title="Per-shard compression"))
    print(render_table(snapshot.summary_rows(), title="Service summary"))

    # Every shard received keys and compresses its values well below raw size.
    assert len(snapshot.shards) == SHARDS
    assert all(shard.keys > 0 for shard in snapshot.shards)
    assert all(shard.ratio < 0.8 for shard in snapshot.shards)
    # The cache counters are internally consistent (hits+misses == lookups,
    # one lookup per GET) — serve-bench prints ratios it can trust.
    snapshot.validate()
    # The GET-heavy mix produces cache hits, and the percentiles are ordered.
    assert snapshot.cache.hit_rate > 0.0
    assert snapshot.get_latency.p99_ms >= snapshot.get_latency.p50_ms > 0.0
    assert snapshot.set_latency.p99_ms >= snapshot.set_latency.p50_ms > 0.0
    # All operations were accounted for (preload msets VALUES keys first).
    assert snapshot.gets == result.counts["GET"]
    assert snapshot.sets == VALUES + result.counts["SET"]
    assert result.operations == OPERATIONS and result.errors == 0 and result.clean


def test_service_uncompressed_baseline(benchmark):
    """The Uncompressed configuration stores at ratio 1.0 (Table 8's baseline row)."""

    def run() -> object:
        config = ServiceConfig(shard_count=2, compressor="none")
        return run_mix(config, load_dataset("kv1", count=240), 480, 0.5, 8)

    _, snapshot = benchmark.pedantic(run, iterations=1, rounds=1)
    assert abs(snapshot.ratio - 1.0) < 1e-9
    assert snapshot.keys == 240
