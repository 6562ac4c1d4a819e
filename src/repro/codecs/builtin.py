"""The built-in codecs: raw, gzip, lzma, zstd, fsst, pbc, pbc_f.

Moved here from ``repro.stream.framecodecs`` so that every layer — stream
frames, TierBase values, LSM SSTable records, block stores, service shards —
resolves the same seven codecs through the one registry.  Adding a codec is
one class plus one :func:`~repro.codecs.registry.register_codec` call in this
file (or in the defining module for out-of-tree codecs).

Byte-oriented codecs implement ``compress_bytes``/``decompress_bytes`` over
opaque payloads; the pattern-based PBC codecs are record-oriented and
additionally override ``encode_record``/``decode_record`` so per-value callers
(TierBase, the service shards, SSTable record policies) go through the same
trained-model plumbing as frame encoders.  Trained per-record compressors are
memoised per thread keyed by the model-payload bytes, so a shared dictionary
is deserialised once per worker rather than once per record.
"""

from __future__ import annotations

import gzip
import lzma
import threading
from typing import Iterable, Sequence

from repro.codecs.base import Codec
from repro.codecs.registry import register_codec
from repro.compressors.fsst import FSSTCodec, SymbolTable, train_symbol_table
from repro.compressors.zstdlike import ZstdLikeCodec, train_dictionary
from repro.core.compressor import OUTLIER_PREFIX, PBCCompressor, PBCFCompressor
from repro.core.extraction import ExtractionConfig
from repro.core.pattern import PatternDictionary
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.exceptions import MissingModelError, StreamFormatError

#: Default extraction budget used when a PBC codec trains a dictionary.
DEFAULT_EXTRACTION = ExtractionConfig(max_patterns=16, sample_size=256)


# ------------------------------------------------------- byte-oriented codecs


class RawCodec(Codec):
    """No compression; the baseline every candidate must beat."""

    codec_id = 0
    name = "raw"

    def compress_bytes(self, data: bytes, model_payload: bytes = b"") -> bytes:
        return bytes(data)

    def decompress_bytes(self, data: bytes, model_payload: bytes = b"") -> bytes:
        return bytes(data)


class GzipCodec(Codec):
    """stdlib gzip over the payload (fast, GIL-released C path)."""

    codec_id = 1
    name = "gzip"

    def __init__(self, level: int = 6) -> None:
        self.level = level

    def compress_bytes(self, data: bytes, model_payload: bytes = b"") -> bytes:
        return gzip.compress(data, compresslevel=self.level)

    def decompress_bytes(self, data: bytes, model_payload: bytes = b"") -> bytes:
        return gzip.decompress(data)


class LZMACodec(Codec):
    """stdlib LZMA over the payload (slow, highest stdlib ratio)."""

    codec_id = 2
    name = "lzma"

    def __init__(self, preset: int = 6) -> None:
        self.preset = preset

    def compress_bytes(self, data: bytes, model_payload: bytes = b"") -> bytes:
        return lzma.compress(data, preset=self.preset)

    def decompress_bytes(self, data: bytes, model_payload: bytes = b"") -> bytes:
        return lzma.decompress(data)


class ZstdCodec(Codec):
    """Zstd-like codec with a trained prefix dictionary as its model."""

    codec_id = 3
    name = "zstd"
    trains = True
    cpu_bound = True

    def __init__(self, level: int = 3, dictionary_size: int = 4096) -> None:
        self.level = level
        self.dictionary_size = dictionary_size

    def train(self, records: Sequence[str]) -> bytes:
        return self.train_bytes([record.encode("utf-8") for record in records])

    def train_bytes(self, payloads: Sequence[bytes]) -> bytes:
        return train_dictionary(payloads, max_size=self.dictionary_size)

    def _codec(self, model_payload: bytes) -> ZstdLikeCodec:
        # Level is part of the cache key: differently-tuned instances share
        # the registry codec id.
        return _cached_model(
            (self.codec_id, self.level),
            model_payload,
            lambda payload: ZstdLikeCodec(level=self.level, dictionary=payload),
        )

    def compress_bytes(self, data: bytes, model_payload: bytes = b"") -> bytes:
        return self._codec(model_payload).compress(data)

    def decompress_bytes(self, data: bytes, model_payload: bytes = b"") -> bytes:
        return self._codec(model_payload).decompress(data)

    def record_coder(self, model_payload: bytes) -> "_BoundByteCoder":
        # Bind the deserialised codec once; per-value callers reuse it.
        return _BoundByteCoder(ZstdLikeCodec(level=self.level, dictionary=model_payload))


class FSSTFrameCodec(Codec):
    """FSST symbol table trained as the model, applied to the whole payload."""

    codec_id = 4
    name = "fsst"
    trains = True
    cpu_bound = True

    def train(self, records: Sequence[str]) -> bytes:
        return self.train_bytes([record.encode("utf-8") for record in records])

    def train_bytes(self, payloads: Sequence[bytes]) -> bytes:
        return train_symbol_table(payloads).to_bytes()

    def _table(self, model_payload: bytes) -> SymbolTable:
        if not model_payload:
            return SymbolTable()
        return _cached_model((self.codec_id,), model_payload, self._parse_table)

    @staticmethod
    def _parse_table(model_payload: bytes) -> SymbolTable:
        table, _ = SymbolTable.from_bytes(model_payload, 0)
        return table

    def compress_bytes(self, data: bytes, model_payload: bytes = b"") -> bytes:
        return self._table(model_payload).encode(data)

    def decompress_bytes(self, data: bytes, model_payload: bytes = b"") -> bytes:
        return self._table(model_payload).decode(data)

    def record_coder(self, model_payload: bytes) -> "_BoundByteCoder":
        # Parse the symbol table once; per-value callers reuse it.
        table = self._parse_table(model_payload) if model_payload else SymbolTable()
        return _BoundByteCoder(FSSTCodec(table=table))


# ---------------------------------------------------- pattern-oriented codecs


class PBCCodec(Codec):
    """Per-record PBC; the model payload is the serialised pattern dictionary.

    The frame body is ``uvarint(count)`` followed by length-prefixed per-record
    PBC payloads, so a decoded frame still knows its record boundaries.
    """

    codec_id = 5
    name = "pbc"
    trains = True
    cpu_bound = True
    record_oriented = True

    def __init__(self, config: ExtractionConfig | None = None) -> None:
        self.config = config if config is not None else DEFAULT_EXTRACTION

    def train(self, records: Sequence[str]) -> bytes:
        compressor = PBCCompressor(config=self.config)
        report = compressor.train(list(records))
        return report.dictionary.to_bytes()

    def _compressor(self, model_payload: bytes) -> PBCCompressor:
        if not model_payload:
            raise MissingModelError(f"codec {self.name!r} needs a trained pattern dictionary")
        return PBCCompressor(dictionary=PatternDictionary.from_bytes(model_payload))

    def record_coder(self, model_payload: bytes) -> PBCCompressor:
        """A fresh compressor bound to ``model_payload``.

        Deliberately NOT the per-thread cache: per-value callers
        (:class:`~repro.codecs.model.VersionedCodec`) hold the returned
        instance per epoch and may publish it across threads, so it must not
        be shared with any other owner — PBCCompressor carries mutable
        monitoring counters that only tolerate one compressing thread.
        """
        return self._compressor(model_payload)

    def _cached(self, model_payload: bytes) -> PBCCompressor:
        """The per-thread cached compressor (frame-pipeline hot path)."""
        return _cached_compressor(self.codec_id, model_payload, self._compressor)

    def encode(self, records: Sequence[str], model_payload: bytes = b"") -> tuple[bytes, int]:
        payloads = self._cached(model_payload).compress_many(records)
        body = bytearray()
        body += encode_uvarint(len(payloads))
        for payload in payloads:
            body += encode_uvarint(len(payload))
            body += payload
        return bytes(body), sum(map(self.record_is_outlier, payloads))

    def decode(self, body: bytes, model_payload: bytes = b"") -> list[str]:
        compressor = self._cached(model_payload)
        count, offset = decode_uvarint(body, 0)
        records: list[str] = []
        for _ in range(count):
            length, offset = decode_uvarint(body, offset)
            end = offset + length
            if end > len(body):
                raise StreamFormatError("truncated PBC frame body")
            records.append(compressor.decompress(body[offset:end]))
            offset = end
        if offset != len(body):
            raise StreamFormatError("trailing bytes after PBC frame body")
        return records

    def encode_record(self, record: str, model_payload: bytes = b"") -> bytes:
        return self._cached(model_payload).compress(record)

    def decode_record(self, data: bytes, model_payload: bytes = b"") -> str:
        return self._cached(model_payload).decompress(data)

    def record_is_outlier(self, payload: bytes) -> bool:
        # The pattern-id varint prefix is never post-processed (PBC_F applies
        # FSST only to the field payload), so this check covers both variants.
        return payload.startswith(OUTLIER_PREFIX)


class PBCFCodec(PBCCodec):
    """PBC_F: PBC plus a trained FSST pass over every record payload.

    The model payload concatenates the pattern dictionary and the FSST
    symbol table: ``uvarint(len(pbc_dict)) + pbc_dict + fsst_table``.
    """

    codec_id = 6
    name = "pbc_f"

    def train(self, records: Sequence[str]) -> bytes:
        compressor = PBCFCompressor(config=self.config)
        report = compressor.train(list(records))
        pbc_payload = report.dictionary.to_bytes()
        residual = compressor._residual_codec
        table_payload = residual.table.to_bytes() if isinstance(residual, FSSTCodec) else b""
        return bytes(encode_uvarint(len(pbc_payload))) + pbc_payload + table_payload

    def _compressor(self, model_payload: bytes) -> PBCCompressor:
        if not model_payload:
            raise MissingModelError(f"codec {self.name!r} needs a trained pattern dictionary")
        pbc_length, offset = decode_uvarint(model_payload, 0)
        end = offset + pbc_length
        if end > len(model_payload):
            raise StreamFormatError("truncated PBC_F model payload")
        dictionary = PatternDictionary.from_bytes(model_payload[offset:end])
        table_payload = model_payload[end:]
        table, _ = SymbolTable.from_bytes(table_payload, 0) if table_payload else (SymbolTable(), 0)
        return PBCFCompressor(dictionary=dictionary, residual_codec=FSSTCodec(table=table))


class _BoundByteCoder:
    """Record-coder view of a deserialised byte codec (Zstd-like, FSST)."""

    __slots__ = ("codec",)

    def __init__(self, codec) -> None:
        self.codec = codec

    def compress(self, record: str) -> bytes:
        return self.codec.compress(record.encode("utf-8"))

    def compress_many(self, records: Iterable[str]) -> list[bytes]:
        return [self.compress(record) for record in records]

    def decompress(self, data: bytes) -> str:
        return self.codec.decompress(data).decode("utf-8")


# ------------------------------------------------ per-thread trained-model cache

#: Per-thread cache of deserialised trained-model objects (PBC compressors,
#: FSST symbol tables, Zstd codecs) keyed by (discriminator..., model bytes),
#: so a shared model is deserialised once per worker rather than once per
#: record/frame.  Thread-local storage gives each worker its own dict and
#: budget: no lock, no cross-thread races on PBCCompressor's mutable
#: monitoring state, and one thread's churn can never evict another thread's
#: hot entries (process-pool workers are isolated by construction).
_MODEL_CACHE = threading.local()
_MODEL_CACHE_LIMIT = 16


def _cached_model(key_parts: tuple, model_payload: bytes, build):
    cache: dict[tuple, object] | None = getattr(_MODEL_CACHE, "entries", None)
    if cache is None:
        cache = _MODEL_CACHE.entries = {}
    key = (*key_parts, model_payload)
    value = cache.get(key)
    if value is None:
        value = build(model_payload)
        if len(cache) >= _MODEL_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[key] = value
    return value


def _cached_compressor(codec_id: int, model_payload: bytes, build) -> PBCCompressor:
    return _cached_model((codec_id,), model_payload, build)


#: The registered singletons (default parameters); custom-parameter instances
#: can be constructed directly and used anywhere a codec is accepted.
RAW = register_codec(RawCodec())
GZIP = register_codec(GzipCodec())
LZMA = register_codec(LZMACodec())
ZSTD = register_codec(ZstdCodec())
FSST = register_codec(FSSTFrameCodec())
PBC = register_codec(PBCCodec())
PBC_F = register_codec(PBCFCodec())
