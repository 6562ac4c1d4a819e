"""Wire throughput — the RKV1 server/client stack vs the in-process service.

Serves a 2-shard `repro.service.KVService` on an ephemeral localhost port
(`repro.net.KVServer`) and drives the mixed GET/SET workload the
`repro client bench` CLI exposes through the one load driver
(`repro.loadgen`), then hands the same driver the `KVService` itself as the
in-process baseline — the gap is the protocol + socket + thread cost per
operation.

A pipelining-depth sweep (1 → 16 single-key frames per round trip) shows the
per-request network overhead being amortised: deeper pipelines must not lose
or corrupt a single response, and on localhost the ops/s at depth 16 should
comfortably beat depth 1.  As with every benchmark on this pure-Python
substrate, the *shape* is the assertion, not absolute numbers.
"""

from repro.bench import render_table
from repro.datasets import load_dataset
from repro.loadgen import default_keys, mixed_operation, per_worker, preload, run_load
from repro.net import KVClient, KVServer, ServerConfig
from repro.service import KVService, ServiceConfig

#: Workload parameters (small: the substrate is pure Python).
SHARDS = 2
VALUES = 320
OPERATIONS = 800
GET_FRACTION = 0.7
BATCH_SIZE = 8
CLIENTS = 2
PIPELINE_DEPTHS = (1, 4, 16)


def run_over_wire(server, keys, values, operations, clients, seed, batch=1,
                  pipeline=False, preloaded=False):
    """One closed-loop run against ``server``, one ``KVClient`` per worker."""
    host, port = server.address
    operation, calls = mixed_operation(keys, values, operations, GET_FRACTION, batch, pipeline)
    with per_worker(lambda: KVClient(host, port, pool_size=1)) as connect:
        if not preloaded:
            preload(connect(), keys, values)
        return run_load(connect, operation, calls, clients, seed=seed)


def run_net_benchmark(dataset: str = "kv1") -> dict:
    """One end-to-end run; returns wire results, the sweep, and the baseline."""
    values = load_dataset(dataset, count=VALUES)
    keys = default_keys(len(values))
    config = ServiceConfig(
        shard_count=SHARDS, backend="tierbase", compressor="pbc_f", cache_entries=256
    )
    service = KVService(config)
    service.train(values[:256])
    outcome: dict = {"sweep": []}
    try:
        with KVServer(service, ServerConfig(port=0, max_inflight=64)) as server:
            outcome["batched"] = run_over_wire(
                server, keys, values, OPERATIONS, CLIENTS, seed=2023, batch=BATCH_SIZE
            )
            for depth in PIPELINE_DEPTHS:
                outcome["sweep"].append(
                    run_over_wire(
                        server, keys, values, OPERATIONS // 2, CLIENTS, seed=31 + depth,
                        batch=depth, pipeline=True, preloaded=True,
                    )
                )
            outcome["snapshot"] = service.snapshot().validate()
    finally:
        service.close()

    # In-process baseline: the same operations (same seed), no socket.
    operation, calls = mixed_operation(keys, values, OPERATIONS, GET_FRACTION, BATCH_SIZE)
    with KVService(config) as baseline_service:
        baseline_service.train(values[:256])
        preload(baseline_service, keys, values)
        outcome["baseline"] = run_load(
            lambda: baseline_service, operation, calls, CLIENTS, seed=2023
        )
    return outcome


def test_wire_throughput_vs_in_process(benchmark):
    outcome = benchmark.pedantic(run_net_benchmark, iterations=1, rounds=1)
    batched, baseline = outcome["batched"], outcome["baseline"]
    print()
    print(
        f"wire (mget/mset × {BATCH_SIZE}): {batched.ops_per_second:,.0f} ops/s | "
        f"in-process baseline: {baseline.ops_per_second:,.0f} ops/s"
    )
    print(render_table(batched.summary_rows(), title="Wire workload (batched)"))
    sweep_rows = [
        {
            "depth": depth,
            "ops_per_second": f"{result.ops_per_second:,.0f}",
            "op_p50_ms": f"{result.latency_ms(0.50):.3f}",
            "op_p99_ms": f"{result.latency_ms(0.99):.3f}",
            "lost": result.lost,
            "corrupt": result.corrupt,
        }
        for depth, result in zip(PIPELINE_DEPTHS, outcome["sweep"])
    ]
    print(render_table(sweep_rows, title="Pipelining-depth sweep (single-key frames)"))

    # Zero lost or corrupted responses anywhere — the wire soak bar.
    for result in [batched, *outcome["sweep"]]:
        assert result.clean and result.errors == 0
        assert result.operations > 0 and result.ops_per_second > 0
    assert baseline.clean and baseline.counts == batched.counts
    # Wire ops cost more than in-process ops, but not absurdly more, and the
    # served snapshot's cache counters stay consistent under wire traffic.
    assert batched.ops_per_second > 0
    snapshot = outcome["snapshot"]
    assert len(snapshot.shards) == SHARDS
    assert all(shard.ratio < 1.0 for shard in snapshot.shards)
    # Pipelining amortises per-request overhead: depth 16 beats depth 1 on
    # wall-clock per op (allow generous slack — shared CI runners are noisy).
    deepest, shallow = outcome["sweep"][-1], outcome["sweep"][0]
    assert deepest.ops_per_second > shallow.ops_per_second * 0.8


def test_wire_single_client_correctness(benchmark):
    """Depth-1 single client: the degenerate pipeline still answers exactly."""

    def run() -> object:
        values = load_dataset("kv1", count=120)
        service = KVService(ServiceConfig(shard_count=1, compressor="none"))
        try:
            with KVServer(service, ServerConfig(port=0)) as server:
                return run_over_wire(
                    server, default_keys(120), values, 200, 1, seed=2023, pipeline=True
                )
        finally:
            service.close()

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    assert result.clean and result.errors == 0
    assert result.operations == 200
