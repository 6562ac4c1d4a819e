"""Durability cost — WAL sync_mode levels and TBS1 snapshot throughput.

The PR-5 durability overhaul makes every acknowledged LSM write follow the
WAL ``sync_mode`` policy (``none`` buffers in userspace, ``flush`` drains to
the kernel per append, ``fsync`` reaches stable storage per append — see
docs/ARCHITECTURE.md "Durability").  This driver prices the guarantee ladder:

* puts/second per sync mode, plus ``fsync`` with a group-commit interval
  (``fsync_interval_bytes``) to show what batching buys back;
* TierBase ``TBS1`` snapshot save/load throughput (MB/s over the serialised
  size), the cost a persistent tierbase shard pays per flush and per reopen;
* multi-shard MSET latency of a ``KVService`` on ``fsync`` lsm shards: the
  service visits the shards one after another, so a batch waits for one WAL
  fsync per touched shard in a row (docs/BENCHMARKS.md compares it with
  per-shard executor threads, which overlapped them).

Every mode is verified for correctness after timing — the reopened stores
must serve all keys — so the rows can never go fast by dropping writes.
"""

from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path

from repro.datasets import load_dataset
from repro.lsm import LSMEngine
from repro.service import KVService, ServiceConfig
from repro.tierbase import TierBase, ZstdDictValueCompressor

#: Workload sizes (small: the substrate is pure Python and fsync is per-put).
PUTS = 300
SNAPSHOT_KEYS = 600
#: MSETs per shard count, and keys per MSET, of the fan-out measurement.
MSETS = 300
MSET_KEYS = 16


def measure_puts(values: list[str], sync_mode: str, fsync_interval_bytes: int = 0) -> float:
    """Puts/second for one engine at ``sync_mode``, correctness-checked."""
    with tempfile.TemporaryDirectory(prefix=f"bench-dur-{sync_mode}-") as tmp:
        engine = LSMEngine(
            tmp,
            memtable_bytes=32 * 1024,
            sync_mode=sync_mode,
            fsync_interval_bytes=fsync_interval_bytes,
        )
        started = time.perf_counter()
        for index, value in enumerate(values):
            engine.put(f"key:{index:05d}", value)
        elapsed = time.perf_counter() - started
        engine.close()
        with LSMEngine(tmp, memtable_bytes=32 * 1024, sync_mode=sync_mode) as reopened:
            assert reopened.get("key:00000") == values[0]
            assert reopened.get(f"key:{len(values) - 1:05d}") == values[-1]
    return len(values) / elapsed if elapsed > 0 else 0.0


def measure_snapshot(values: list[str]) -> tuple[float, float, int]:
    """``(save_mb_s, load_mb_s, snapshot_bytes)`` for a TBS1 roundtrip."""
    store = TierBase(compressor=ZstdDictValueCompressor())
    store.train(values[:96])
    for index, value in enumerate(values):
        store.set(f"key:{index:05d}", value)
    with tempfile.TemporaryDirectory(prefix="bench-dur-tbs-") as tmp:
        path = Path(tmp) / "snapshot.tbs"
        started = time.perf_counter()
        store.save(path)
        save_seconds = time.perf_counter() - started
        size = path.stat().st_size
        started = time.perf_counter()
        loaded = TierBase.load(path, compressor=ZstdDictValueCompressor())
        load_seconds = time.perf_counter() - started
        assert len(loaded) == len(store)
        assert loaded.get("key:00000") == values[0]
    mb = size / (1024 * 1024)
    return (
        mb / save_seconds if save_seconds > 0 else 0.0,
        mb / load_seconds if load_seconds > 0 else 0.0,
        size,
    )


def measure_fsync_mset(values: list[str], shards: int) -> tuple[float, float]:
    """``(p50_ms, p99_ms)`` of 16-key MSETs over ``shards`` fsync lsm shards."""
    rng = random.Random(1)
    latencies = []
    with tempfile.TemporaryDirectory(prefix="bench-dur-fanout-") as tmp:
        config = ServiceConfig(
            shard_count=shards, backend="lsm", compressor="pbc_f", directory=tmp,
            sync_mode="fsync",
        )
        with KVService(config) as service:
            service.train(values[:512])
            for _ in range(MSETS):
                items = [
                    (f"key:{rng.randrange(10**9)}", rng.choice(values)) for _ in range(MSET_KEYS)
                ]
                started = time.perf_counter()
                service.mset(items)
                latencies.append(time.perf_counter() - started)
            assert service.mget([key for key, _ in items]) == [value for _, value in items]
    latencies.sort()
    return latencies[len(latencies) // 2] * 1e3, latencies[int(0.99 * len(latencies))] * 1e3


def test_fsync_fanout_mset_latency(benchmark):
    values = load_dataset("kv1", count=2000)
    result = benchmark.pedantic(
        lambda: {shards: measure_fsync_mset(values, shards) for shards in (2, 4, 8)},
        iterations=1,
        rounds=1,
    )
    print()
    for shards, (p50, p99) in result.items():
        print(f"fsync lsm, {shards} shards, {MSET_KEYS}-key MSET: p50 {p50:.3f} ms, p99 {p99:.3f} ms")
        assert 0 < p50 <= p99


def test_durability_costs(benchmark):
    values = load_dataset("kv1", count=max(PUTS, SNAPSHOT_KEYS))

    def run() -> dict:
        return {
            "none": measure_puts(values[:PUTS], "none"),
            "flush": measure_puts(values[:PUTS], "flush"),
            "fsync": measure_puts(values[:PUTS], "fsync"),
            "fsync_batched": measure_puts(
                values[:PUTS], "fsync", fsync_interval_bytes=32 * 1024
            ),
            "snapshot": measure_snapshot(values[:SNAPSHOT_KEYS]),
        }

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    save_mb_s, load_mb_s, size = result["snapshot"]
    print()
    print(
        "LSM puts/s by WAL sync_mode: "
        f"none {result['none']:,.0f} | flush {result['flush']:,.0f} | "
        f"fsync {result['fsync']:,.0f} | fsync@32KiB-interval {result['fsync_batched']:,.0f}"
    )
    print(
        f"TBS1 snapshot ({SNAPSHOT_KEYS} keys, {size / 1024:.0f} KiB): "
        f"save {save_mb_s:.1f} MB/s, load {load_mb_s:.1f} MB/s"
    )

    # Correctness-shaped assertions only: every mode completed, recovered its
    # keys (asserted inside the measurements), and produced real throughput.
    # Relative wall-clock ordering (none >= flush >= fsync) is informational —
    # on tmpfs/overlay CI filesystems fsync can be nearly free.
    for mode in ("none", "flush", "fsync", "fsync_batched"):
        assert result[mode] > 0
    assert save_mb_s > 0 and load_mb_s > 0
