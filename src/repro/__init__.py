"""Reproduction of "High-Ratio Compression for Machine-Generated Data" (PBC, SIGMOD 2023).

The top-level package re-exports the compression core a downstream user needs
most often: the PBC compressor variants (:class:`PBCCompressor`,
:class:`PBCFCompressor`, :class:`PBCHCompressor`, :class:`PBCBlockCompressor`),
the extraction configuration, patterns, and the live :class:`CompressionStats`.

The bigger subsystems are imported explicitly from their own packages:

* :func:`repro.compressors.get_codec` — the baseline codec registry,
* :func:`repro.datasets.load_dataset` — the synthetic Table 2 datasets,
* :mod:`repro.blockstore`, :mod:`repro.lsm`, :mod:`repro.tierbase` — the
  storage substrates,
* :mod:`repro.stream` — seekable containers and the parallel pipeline,
* :mod:`repro.service` — the sharded concurrent KV service,
* :mod:`repro.net` — the ``RKV1`` wire protocol, thread-per-connection server, and
  client (``repro serve`` / ``repro client``); :class:`KVServer` and
  :class:`KVClient` are also re-exported lazily from this package.

See ``docs/ARCHITECTURE.md`` for the full layer map and ``docs/FORMATS.md``
for the on-disk byte layouts.

Quick start::

    from repro import PBCCompressor, ExtractionConfig
    from repro.datasets import load_dataset

    records = load_dataset("kv1", count=2000)
    pbc = PBCCompressor(config=ExtractionConfig(max_patterns=16))
    pbc.train(records[:256])
    payload = pbc.compress(records[0])
    assert pbc.decompress(payload) == records[0]
"""

from repro.core.compressor import (
    CompressionStats,
    PBCBlockCompressor,
    PBCCompressor,
    PBCFCompressor,
    PBCHCompressor,
)
from repro.core.extraction import ExtractionConfig, PatternExtractor
from repro.core.pattern import Pattern, PatternDictionary

__version__ = "1.11.0"

#: Lazily re-exported from :mod:`repro.net` (keeps ``import repro`` light).
_NET_EXPORTS = ("KVServer", "KVClient")


def __getattr__(name: str):
    if name in _NET_EXPORTS:
        import repro.net as net

        return getattr(net, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *_NET_EXPORTS,
    "CompressionStats",
    "ExtractionConfig",
    "PBCBlockCompressor",
    "PBCCompressor",
    "PBCFCompressor",
    "PBCHCompressor",
    "Pattern",
    "PatternDictionary",
    "PatternExtractor",
    "__version__",
]
