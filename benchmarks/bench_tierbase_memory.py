"""Resident memory of a TierBase key, and the scan and snapshot costs beside it.

The paper's production result (Section 7.5, Table 8) is memory saved inside
TierBase, so the value ratio has to survive Python's per-object overhead to
count.  For each compressor this driver starts a fresh interpreter, loads
``kv1`` records under freshly built 9-byte keys into a 2-shard tierbase
``KVService`` and reports:

* ``resident_b_per_key`` — the process RSS delta across the load, per key;
* ``stored_b_per_key`` — the compressed value bytes the shards account;
* ``scan100_ms`` — median ``scan(start, limit=100)`` at that size;
* ``save_s`` / ``load_s`` — ``flush()`` (one TBS2 snapshot per shard) and
  reopening the service from those snapshots.

    python benchmarks/bench_tierbase_memory.py --keys 100000

Under pytest (the CI ``bench-smoke`` job) it runs a small size.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

COMPRESSORS = ("none", "pbc_f")
SMOKE_KEYS = 20_000
SCANS = 50
BATCH = 100


def _rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def measure(compressor: str, keys: int) -> dict:
    """One compressor at one size, in this process (run it in a fresh one)."""
    from repro.datasets import load_dataset
    from repro.service import KVService, ServiceConfig

    values = load_dataset("kv1", count=keys, seed=1)
    with tempfile.TemporaryDirectory(prefix="bench-tb-memory-") as directory:
        config = ServiceConfig(
            shard_count=2, compressor=compressor, directory=directory, auto_retrain=False
        )
        service = KVService(config)
        service.train(values[:256])
        gc.collect()
        before = _rss_bytes()
        for start in range(0, keys, BATCH):
            service.mset(
                [(f"k{index:08d}", values[index]) for index in range(start, min(start + BATCH, keys))]
            )
        gc.collect()
        resident = _rss_bytes() - before
        stored = sum(shard.stored_bytes for shard in service.shard_snapshots())

        rng = random.Random(1)
        scans = []
        for _ in range(SCANS):
            start_key = f"k{rng.randrange(max(1, keys - 100)):08d}"
            began = time.perf_counter()
            assert len(service.scan(start_key, None, 100)) == min(100, keys)
            scans.append(time.perf_counter() - began)

        began = time.perf_counter()
        service.flush()
        saved = time.perf_counter() - began
        service.close()
        began = time.perf_counter()
        reopened = KVService(config)
        loaded = time.perf_counter() - began
        assert reopened.get("k00000000") == values[0]
        reopened.close()
    return {
        "compressor": compressor,
        "keys": keys,
        "resident_b_per_key": resident / keys,
        "stored_b_per_key": stored / keys,
        "scan100_ms": statistics.median(scans) * 1000,
        "save_s": saved,
        "load_s": loaded,
    }


def measure_fresh(compressor: str, keys: int) -> dict:
    """:func:`measure` in a new interpreter, so no earlier run's heap counts."""
    done = subprocess.run(
        [sys.executable, __file__, "--child", compressor, "--keys", str(keys)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def _table(rows: list[dict]) -> str:
    from repro.bench import render_table

    return render_table(rows, title="TierBase resident memory, 2-shard tierbase KVService, kv1")


def test_tierbase_resident_memory():
    rows = [measure_fresh(compressor, SMOKE_KEYS) for compressor in COMPRESSORS]
    print()
    print(_table(rows))
    by_name = {row["compressor"]: row for row in rows}
    # Shape only: every number is real, and pbc_f stores fewer value bytes.
    for row in rows:
        assert row["resident_b_per_key"] > 0 and row["scan100_ms"] > 0
    assert by_name["pbc_f"]["stored_b_per_key"] < by_name["none"]["stored_b_per_key"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", type=int, default=100_000)
    parser.add_argument("--child", choices=COMPRESSORS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(measure(args.child, args.keys)))
        return
    print(_table([measure_fresh(compressor, args.keys) for compressor in COMPRESSORS]))


if __name__ == "__main__":
    main()
