"""TierBase: in-memory key-value store simulator with pluggable value compression.

This is the substrate for the paper's production case study (Section 7.5,
Table 8): a Redis-like store whose values are compressed per workload with an
offline-trained compressor, plus a monitoring component that triggers
re-training when compression deteriorates.
"""

from repro.tierbase.compression import (
    NoopValueCompressor,
    PBCValueCompressor,
    ValueCompressor,
    VersionedValueCompressor,
    ZstdDictValueCompressor,
)
from repro.tierbase.snapshot import (
    LEGACY_SNAPSHOT_MAGIC,
    SNAPSHOT_MAGIC,
    SnapshotContent,
    read_snapshot,
    write_snapshot,
)
from repro.tierbase.store import StoreStats, TierBase
from repro.tierbase.workload import WorkloadResult, run_workload

__all__ = [
    "LEGACY_SNAPSHOT_MAGIC",
    "NoopValueCompressor",
    "SNAPSHOT_MAGIC",
    "SnapshotContent",
    "read_snapshot",
    "write_snapshot",
    "PBCValueCompressor",
    "StoreStats",
    "TierBase",
    "ValueCompressor",
    "VersionedValueCompressor",
    "WorkloadResult",
    "ZstdDictValueCompressor",
    "run_workload",
]
