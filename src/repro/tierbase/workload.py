"""Workload driver for the TierBase case study (Table 8).

The paper evaluates two production workloads with three compression options
(Uncompressed, Zstd with a trained dictionary, PBC_F) and reports relative
memory usage and single-instance SET / GET throughput.  This module provides
the measurement harness: it loads a workload's values into a
:class:`~repro.tierbase.store.TierBase` instance, then times SET and GET
operations separately.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Sequence

from repro.tierbase.store import TierBase


@dataclass
class WorkloadResult:
    """Measured outcome of one (workload, compressor) cell of Table 8."""

    workload: str
    compressor: str
    memory_bytes: int
    uncompressed_bytes: int
    set_operations: int
    set_seconds: float
    get_operations: int
    get_seconds: float

    @property
    def memory_usage_percent(self) -> float:
        """Memory relative to storing the values uncompressed (Table 8's metric)."""
        if self.uncompressed_bytes == 0:
            return 100.0
        return 100.0 * self.memory_bytes / self.uncompressed_bytes

    @property
    def set_qps(self) -> float:
        """Average SET throughput (operations per second)."""
        if self.set_seconds <= 0:
            return 0.0
        return self.set_operations / self.set_seconds

    @property
    def get_qps(self) -> float:
        """Average GET throughput (operations per second)."""
        if self.get_seconds <= 0:
            return 0.0
        return self.get_operations / self.get_seconds


def run_workload(
    store: TierBase,
    values: Sequence[str],
    workload_name: str = "workload",
    get_operations: int | None = None,
    train_sample: Sequence[str] | None = None,
    seed: int = 2023,
) -> WorkloadResult:
    """Load ``values`` into ``store`` and measure SET and GET throughput.

    ``train_sample`` defaults to a prefix of the values (the offline training
    sample of Section 7.5).  GETs are issued for uniformly random existing keys.
    """
    if train_sample is None:
        train_sample = values[: min(len(values), 256)]
    store.train(train_sample)

    keys = [f"{workload_name}:{index}" for index in range(len(values))]
    uncompressed_bytes = sum(
        len(key.encode("utf-8")) + len(value.encode("utf-8")) for key, value in zip(keys, values)
    )

    started = time.perf_counter()
    for key, value in zip(keys, values):
        store.set(key, value)
    set_seconds = time.perf_counter() - started

    rng = random.Random(seed)
    if get_operations is None:
        get_operations = len(values)
    lookup_keys = [keys[rng.randrange(len(keys))] for _ in range(get_operations)]
    started = time.perf_counter()
    for key in lookup_keys:
        store.get(key)
    get_seconds = time.perf_counter() - started

    return WorkloadResult(
        workload=workload_name,
        compressor=store.compressor.name,
        memory_bytes=store.memory_bytes,
        uncompressed_bytes=uncompressed_bytes,
        set_operations=len(values),
        set_seconds=set_seconds,
        get_operations=get_operations,
        get_seconds=get_seconds,
    )
