"""The four workloads: their plans, and the inputs generated from a seed.

Op and record counts are fixed here, never derived from a clock.  The counts
below are sized on a 2-vCPU box so that phases 3 and 4 together measure for
:data:`NOMINAL_SECONDS` seconds; ``--seconds`` multiplies every one of them
by the one factor ``seconds / NOMINAL_SECONDS``.
"""

from __future__ import annotations

import itertools
import random

import estimators
from protocol import DEPTH, READ, SCAN, WRITE, Inputs, Plan
from systems import SCAN_RECORDS, key_names

#: how long phases 3 + 4 measure at the counts below (``run_seconds`` of
#: ``BENCHMARK.json``); the scale of a run is ``seconds / NOMINAL_SECONDS``.
NOMINAL_SECONDS = 20
WARMUP_SHARE = 0.05
ZIPF_EXPONENT = 0.99
#: an LSM shard flushes its memtable at this many key + value bytes.
MEMTABLE_BYTES = 64 * 1024
#: fewest memtable flushes a depth-16 slice of an LSM workload must span at
#: full scale, so that a periodic flush or merge stall is inside every slice.
MIN_SLICE_FLUSHES = 3.0

PLANS = {
    plan.workload: plan
    for plan in (
        Plan(
            workload="codec_records", system="codec", backend="",
            datasets=("kv2", "hdfs", "alilogs"),
            preload=24_000, depth1_ops=88_000, depth16_ops=176_000,
            mix=(0.60, 0.30, 0.10), insert_share=1.0, read_keys="uniform",
        ),
        Plan(
            workload="embedded_lsm_mixed", system="service", backend="lsm",
            datasets=("kv2",),
            preload=12_000, depth1_ops=36_000, depth16_ops=46_400,
            mix=(0.40, 0.50, 0.10), insert_share=1.0, read_keys="zipf",
        ),
        Plan(
            workload="serve_tierbase_read", system="wire", backend="tierbase",
            datasets=("kv1",),
            preload=100_000, depth1_ops=36_000, depth16_ops=76_800,
            mix=(0.95, 0.04, 0.01), insert_share=0.0, read_keys="zipf",
        ),
        Plan(
            workload="serve_lsm_write_scan", system="wire", backend="lsm",
            datasets=("kv2",),
            preload=10_000, depth1_ops=10_600, depth16_ops=41_600,
            mix=(0.30, 0.50, 0.20), insert_share=0.5, read_keys="latest",
            kill=True,
        ),
    )
}


def scaled(plan: Plan, scale: float) -> Plan:
    """Every op and record count times one factor; slice counts never shrink,
    so counts are rounded to whole slices (and whole depth-16 batches)."""

    def whole(count: int, unit: int) -> int:
        return max(unit, round(count * scale / unit) * unit)

    return Plan(
        **{
            **plan.__dict__,
            "preload": whole(plan.preload, SCAN_RECORDS * estimators.SLICES),
            "depth1_ops": whole(plan.depth1_ops, estimators.SLICES * 10),
            "depth16_ops": whole(plan.depth16_ops, estimators.SLICES * DEPTH),
        }
    )


def _kinds(rng: random.Random, count: int, mix: tuple[float, float, float]) -> list[int]:
    """``count`` op kinds in the mix's exact proportions (every kind with a
    share gets at least one op), shuffled: the mix of a slice does not vary
    with the seed, only the order does."""
    total = sum(mix)
    scans = max(1, round(count * mix[2] / total)) if mix[2] else 0
    writes = max(1, round(count * mix[1] / total)) if mix[1] else 0
    kinds = [READ] * (count - writes - scans) + [WRITE] * writes + [SCAN] * scans
    rng.shuffle(kinds)
    return kinds


class _Stream:
    """Generates op streams over a growing key space ``0 .. keys``."""

    def __init__(self, rng: random.Random, plan: Plan) -> None:
        self.rng = rng
        self.plan = plan
        self.keys = plan.preload
        self.values = plan.preload  # next unseen record
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(plan.preload)]
        self.cumulative = list(itertools.accumulate(weights))
        #: rank -> key, so the hot keys are scattered over the key space.
        self.scramble = list(range(plan.preload))
        rng.shuffle(self.scramble)

    def _ranks(self, count: int) -> list[int]:
        return self.rng.choices(range(self.plan.preload), cum_weights=self.cumulative, k=count)

    def _pick(self, rank: int, how: str) -> int:
        if how == "zipf":
            return self.scramble[rank]
        if how == "latest":
            return max(0, self.keys - 1 - rank)
        return self.rng.randrange(self.keys)

    def ops(self, count: int, mix: tuple[float, float, float]) -> list[tuple]:
        """``count`` ops as ``(kind, key, value index or None)``."""
        rng, plan = self.rng, self.plan
        stream = []
        for kind, rank in zip(_kinds(rng, count, mix), self._ranks(count)):
            if kind == READ:
                stream.append((READ, self._pick(rank, plan.read_keys), None))
            elif kind == WRITE:
                if rng.random() < plan.insert_share:
                    key = self.keys
                    self.keys += 1
                else:
                    key = self._pick(rank, "zipf")
                stream.append((WRITE, key, self.values))
                self.values += 1
            else:
                stream.append((SCAN, rng.randrange(max(1, self.keys - SCAN_RECORDS)), None))
        return stream


def _records(datasets: tuple[str, ...], count: int, seed: int | None) -> list[str]:
    """``count`` records, interleaved round-robin over the datasets
    (``seed=None``: the library's default seed)."""
    from repro.datasets import DEFAULT_SEED, load_dataset

    share = -(-count // len(datasets))
    columns = [
        load_dataset(name, count=share, seed=DEFAULT_SEED if seed is None else seed)
        for name in datasets
    ]
    return [record for row in zip(*columns) for record in row][:count]


def generate(plan: Plan, seed: int) -> Inputs:
    """All inputs of one run; the same seed gives the same inputs.

    The op streams are generated slice by slice in the order the protocol
    runs them (a depth-1 slice, then a depth-16 slice), so the key space
    grows in execution order.  The *training* sample is not drawn from the
    seed: like ``repro serve --train-dataset`` it is the dataset's canonical
    sample, so the seed varies the traffic and the data, never the model.
    """
    rng = random.Random(f"e2e:{plan.workload}:{seed}")
    stream = _Stream(rng, plan)
    read, write, _ = plan.mix
    depth1_slice = plan.depth1_ops // estimators.SLICES
    depth16_slice = plan.depth16_ops // estimators.SLICES
    warmup = stream.ops(int(plan.depth1_ops * WARMUP_SHARE), plan.mix)
    depth1, depth16 = [], []
    for _ in range(estimators.SLICES):
        depth1.append(stream.ops(depth1_slice, plan.mix))
        depth16.append(stream.ops(depth16_slice, (read, write, 0.0)))
    values = _records(plan.datasets, stream.values, seed)

    def bind(ops: list[tuple]) -> list[tuple]:
        return [
            (kind, key, None if index is None else values[index]) for kind, key, index in ops
        ]

    return Inputs(
        keys=key_names(stream.keys),
        values=values,
        training=_records(plan.datasets, plan.train_count * len(plan.datasets), None),
        warmup=bind(warmup),
        depth1=[bind(ops) for ops in depth1],
        depth16=[bind(ops) for ops in depth16],
    )


def slice_flushes(inputs: Inputs, slices: list[list[tuple]]) -> float:
    """Memtable flushes the lightest of ``slices`` spans: the key + value
    bytes it writes over :data:`MEMTABLE_BYTES` (the shards fill in turn, so
    one of them flushes each time that many bytes have been written)."""
    keys = inputs.keys
    return min(
        sum(len(keys[key]) + len(value.encode("utf-8")) for _, key, value in ops
            if value is not None)
        for ops in slices
    ) / MEMTABLE_BYTES
