"""The canonical codec interface shared by every storage and serving layer.

A *codec* is the unit the :mod:`repro.codecs` registry manages: one named,
id-tagged compression scheme that every layer (stream frames, TierBase values,
LSM SSTable records, block stores, the service shards) talks to through the
same surface.  A codec owns:

* ``train(records) -> bytes`` — build the codec's trained model payload
  (pattern dictionary for PBC, Zstd prefix dictionary, FSST symbol table; raw
  and stdlib codecs return ``b""``) that callers persist next to the data,
* ``encode(records, model_payload) -> (body, outliers)`` / ``decode`` — frame
  granularity: many records into one compressed body (stream pipeline),
* ``encode_record`` / ``decode_record`` — record granularity: one value into
  one payload (TierBase / service / SSTable record policies),
* ``compress_bytes`` / ``decompress_bytes`` — opaque byte payloads (block
  stores); record-oriented codecs raise :class:`~repro.exceptions.CodecError`.

Identity lives in three class attributes the registry enforces as unique:
``codec_id`` (the one-byte tag stored in frame headers and versioned payload
headers), ``name`` (CLI / report name) and the derived ``magic`` byte.  The
:class:`CodecSpec` snapshot of those attributes is what ``repro codecs list``
prints and what the docs-consistency tests pin — there is no other codec-id
table in the tree.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.exceptions import CodecError, StreamFormatError


def pack_records(records: Sequence[str]) -> bytes:
    """Serialise records into the shared uncompressed record-block layout.

    ``uvarint(count)`` then, per record, ``uvarint(len)`` + UTF-8 bytes — the
    layout shared by stream frame bodies, :class:`repro.blockstore.BlockStore`
    blocks and ``PBCBlockCompressor``.
    """
    out = bytearray()
    out += encode_uvarint(len(records))
    for record in records:
        payload = record.encode("utf-8")
        out += encode_uvarint(len(payload))
        out += payload
    return bytes(out)


def unpack_records(data: bytes) -> list[str]:
    """Invert :func:`pack_records`; rejects trailing bytes."""
    count, offset = decode_uvarint(data, 0)
    records: list[str] = []
    for _ in range(count):
        length, offset = decode_uvarint(data, offset)
        end = offset + length
        if end > len(data):
            raise StreamFormatError("truncated record block")
        records.append(data[offset:end].decode("utf-8"))
        offset = end
    if offset != len(data):
        raise StreamFormatError(f"{len(data) - offset} trailing bytes after record block")
    return records


@dataclass(frozen=True)
class CodecSpec:
    """Immutable identity card of one registered codec."""

    #: one-byte id stored in every frame and versioned payload header.
    codec_id: int
    #: name used by the CLI, the adaptive selector and reports.
    name: str
    #: the header byte identifying payloads of this codec (``bytes([codec_id])``).
    magic: bytes
    #: whether :meth:`Codec.train` produces a non-empty model payload.
    trainable: bool
    #: whether the codec only operates on records (no opaque-bytes interface).
    record_oriented: bool
    #: whether the codec is CPU-bound pure Python (prefers a process pool).
    cpu_bound: bool


class Codec(ABC):
    """One entry of the process-wide codec registry."""

    #: one-byte id stored in every frame header and versioned payload header.
    codec_id: int = -1
    #: name used by the CLI, the adaptive selector and reports.
    name: str = "codec"
    #: whether :meth:`train` produces a non-empty model payload.
    trains: bool = False
    #: whether the codec is CPU-bound pure Python (prefers a process pool).
    cpu_bound: bool = False
    #: whether the codec only understands records (no opaque-bytes interface).
    record_oriented: bool = False

    @property
    def magic(self) -> bytes:
        """The one-byte tag identifying this codec in payload headers."""
        return bytes([self.codec_id])

    def spec(self) -> CodecSpec:
        """Identity snapshot used by listings and the docs-consistency tests."""
        return CodecSpec(
            codec_id=self.codec_id,
            name=self.name,
            magic=self.magic,
            trainable=self.trains,
            record_oriented=self.record_oriented,
            cpu_bound=self.cpu_bound,
        )

    # ------------------------------------------------------------------ train

    def train(self, records: Sequence[str]) -> bytes:
        """Train the codec's model payload on sample records."""
        del records
        return b""

    def train_bytes(self, payloads: Sequence[bytes]) -> bytes:
        """Train the model payload on opaque byte payloads (block-store path)."""
        del payloads
        return b""

    # ------------------------------------------------------- frame granularity

    def encode(self, records: Sequence[str], model_payload: bytes = b"") -> tuple[bytes, int]:
        """Compress records into one body; returns ``(body, outlier_count)``."""
        return self.compress_bytes(pack_records(records), model_payload), 0

    def decode(self, body: bytes, model_payload: bytes = b"") -> list[str]:
        """Invert :meth:`encode`."""
        return unpack_records(self.decompress_bytes(body, model_payload))

    # ------------------------------------------------------ record granularity

    def encode_record(self, record: str, model_payload: bytes = b"") -> bytes:
        """Compress one record into one payload (TierBase / SSTable values)."""
        return self.compress_bytes(record.encode("utf-8"), model_payload)

    def decode_record(self, data: bytes, model_payload: bytes = b"") -> str:
        """Invert :meth:`encode_record`."""
        return self.decompress_bytes(data, model_payload).decode("utf-8")

    def record_coder(self, model_payload: bytes) -> "RecordCoder":
        """A per-record coder bound to one model payload.

        Per-value callers (:class:`~repro.codecs.model.VersionedCodec`) bind
        once per model epoch and reuse the coder on every record, so codecs
        whose model is expensive to deserialise (PBC dictionaries, FSST
        tables, Zstd prefixes) override this to pay that cost once instead of
        per record.  The returned object only needs ``compress(str) -> bytes``,
        ``compress_many(records) -> list[bytes]`` (the write path's batch
        entry point) and ``decompress(bytes) -> str``.
        """
        return RecordCoder(self, model_payload)

    def record_is_outlier(self, payload: bytes) -> bool:
        """Whether an :meth:`encode_record` payload was stored raw (no pattern)."""
        del payload
        return False

    # ------------------------------------------------------------- byte level

    def compress_bytes(self, data: bytes, model_payload: bytes = b"") -> bytes:
        """Compress an opaque byte payload (block-store path)."""
        raise CodecError(f"codec {self.name!r} is record-oriented")

    def decompress_bytes(self, data: bytes, model_payload: bytes = b"") -> bytes:
        """Invert :meth:`compress_bytes`."""
        raise CodecError(f"codec {self.name!r} is record-oriented")


class RecordCoder:
    """Default model binding: per-record calls delegating to the codec."""

    __slots__ = ("codec", "model_payload")

    def __init__(self, codec: Codec, model_payload: bytes) -> None:
        self.codec = codec
        self.model_payload = model_payload

    def compress(self, record: str) -> bytes:
        return self.codec.encode_record(record, self.model_payload)

    def compress_many(self, records: Iterable[str]) -> list[bytes]:
        return [self.compress(record) for record in records]

    def decompress(self, data: bytes) -> str:
        return self.codec.decode_record(data, self.model_payload)
