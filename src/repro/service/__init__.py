"""``repro.service`` — sharded, thread-safe KV service over TierBase/LSM shards.

The serving layer the ROADMAP's "heavy traffic" north star asks for, modelled
on the paper's production deployment (Section 7.5): many independent shards,
each an in-memory :class:`~repro.tierbase.store.TierBase` or on-disk
:class:`~repro.lsm.engine.LSMEngine` with its own workload-trained value
compressor, fronted by one façade:

* :mod:`repro.service.router` — deterministic CRC32 key→shard routing,
* :mod:`repro.service.backends` — the shard backend interface and the
  TierBase / LSM implementations (per-shard compressor + drift monitor),
* :mod:`repro.service.service` — :class:`KVService`: single and batched
  ``get``/``set``/``delete``/``mget``/``mset``, each shard's work run under
  its lock on the calling thread, with drift-triggered background retraining,
* :mod:`repro.service.cache` — an LRU read cache holding *compressed*
  payloads, decompressed per hit (the per-record random-access advantage),
* :mod:`repro.service.stats` — latency recorders and snapshot dataclasses.

Load is generated by :mod:`repro.loadgen`, which takes a :class:`KVService`
as its target (``repro serve-bench``); this package does not import it.

Quick start::

    from repro.datasets import load_dataset
    from repro.service import KVService, ServiceConfig

    values = load_dataset("kv1", count=2000)
    with KVService(ServiceConfig(shard_count=4, compressor="pbc_f")) as service:
        service.train(values[:256])
        service.mset([(f"k:{i}", value) for i, value in enumerate(values)])
        assert service.mget(["k:0", "k:1"]) == values[:2]
        print(service.snapshot().ratio)   # service-wide compression ratio
"""

from repro.service.backends import (
    BACKEND_CHOICES,
    COMPRESSOR_CHOICES,
    LSMShard,
    ShardBackend,
    TierBaseShard,
    make_shard_backend,
    make_value_compressor,
)
from repro.service.cache import CacheStats, CompressedLRUCache
from repro.service.router import ShardRouter
from repro.service.service import KVService, ServiceConfig
from repro.service.stats import (
    LatencyRecorder,
    LatencySummary,
    ServiceSnapshot,
    ShardSnapshot,
)

#: Wire-layer classes re-exported lazily so ``from repro.service import
#: KVServer`` works without importing the wire layer on every service use
#: (and without a circular import: repro.net imports repro.service).
_NET_EXPORTS = ("KVServer", "ServerConfig", "KVClient")


def __getattr__(name: str):
    if name in _NET_EXPORTS:
        import repro.net as net

        return getattr(net, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *_NET_EXPORTS,
    "BACKEND_CHOICES",
    "COMPRESSOR_CHOICES",
    "CacheStats",
    "CompressedLRUCache",
    "KVService",
    "LSMShard",
    "LatencyRecorder",
    "LatencySummary",
    "ServiceConfig",
    "ServiceSnapshot",
    "ShardBackend",
    "ShardRouter",
    "ShardSnapshot",
    "TierBaseShard",
    "make_shard_backend",
    "make_value_compressor",
]
