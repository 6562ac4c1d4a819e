"""``TBS2`` snapshot format: persistence for the in-memory TierBase store.

TierBase is Redis-shaped, and this is its RDB analogue: a point-in-time dump
of every stored (still-compressed) payload plus the compressor's persisted
:class:`~repro.codecs.ModelStore`, so a reopened store decodes every payload
with the exact model epoch that wrote it.  ``TBS2`` additionally stamps the
store's **last-applied LSN**, so a reloaded store resumes its operation-log
sequence instead of re-issuing sequence numbers.  Byte layout
(docs/FORMATS.md §8)::

    snapshot := magic "TBS2" (4)
                flags u8                      (bit 0: model store present)
                uvarint(len(name)) name       (compressor name, mismatch check)
                [flag] uvarint(len(models)) models
                                              (ValueCompressor.dump_models():
                                               codec magic + ModelStore bytes)
                uvarint(last_applied_lsn)     (operation-log watermark)
                uvarint(key_count)
                per key: uvarint(len(key)) key
                         uvarint(original_size)
                         uvarint(len(payload)) payload   (epoch-stamped)
                crc32 u32-be                  (over everything above)

A writer emits the per-key records in key order, and a per-key record is
exactly a record of the store's sorted pages, so saving writes the pages
verbatim and loading slices the records straight out of the file body.  A
reader accepts any order (older writers emitted first-insertion order): it
sorts such a file's records by key, the last record of a repeated key winning.

Legacy ``TBS1`` files (identical except no ``last_applied_lsn`` field) stay
readable: they parse with a watermark of 0, exactly as a pre-LSN writer left
them.  New snapshots are always written as ``TBS2``.

Snapshots are published with the atomic tmp-then-rename pattern
(:func:`repro.ioutil.atomic_write_bytes`), so a crash mid-save leaves the
previous complete snapshot in place; a torn or bit-flipped file fails the
CRC with a typed :class:`~repro.exceptions.StoreError`, never a partial load.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.exceptions import DecodingError, StoreError
from repro.ioutil import atomic_write_bytes

#: Magic prefix of every snapshot this module writes (LSN-stamped format).
SNAPSHOT_MAGIC = b"TBS2"

#: Magic prefix of the legacy (pre-LSN) format, still accepted on read.
LEGACY_SNAPSHOT_MAGIC = b"TBS1"

#: Flag bit: the snapshot carries a persisted model store.
_FLAG_MODELS = 0x01


@dataclass(frozen=True)
class SnapshotContent:
    """Parsed contents of a snapshot file, before being applied to a store."""

    #: name of the compressor that wrote the snapshot (e.g. ``"PBC_F"``).
    compressor_name: str
    #: persisted model store (``ValueCompressor.dump_models`` output), or
    #: ``None`` when the writer was an un-versioned compressor.
    models: bytes | None
    #: the per-key records in key order, concatenated, each
    #: ``uvarint(len(key)) ‖ key ‖ uvarint(original_size) ‖
    #: uvarint(len(payload)) ‖ payload``.
    records: bytes
    #: where each record starts in :attr:`records`.
    starts: list[int]
    #: operation-log watermark at save time (0 for legacy ``TBS1`` files).
    last_applied_lsn: int = 0


def dump_snapshot(store) -> bytes:
    """Serialise a :class:`~repro.tierbase.store.TierBase` into ``TBS2`` bytes."""
    models = store.compressor.dump_models()
    name_bytes = store.compressor.name.encode("utf-8")
    out = bytearray()
    out += SNAPSHOT_MAGIC
    out.append(_FLAG_MODELS if models is not None else 0)
    out += encode_uvarint(len(name_bytes))
    out += name_bytes
    if models is not None:
        out += encode_uvarint(len(models))
        out += models
    out += encode_uvarint(getattr(store, "last_applied_lsn", 0))
    pages = store.pages()
    out += encode_uvarint(len(store))
    for page in pages:
        out += page
    out += zlib.crc32(out).to_bytes(4, "big")
    return bytes(out)


def write_snapshot(store, path: str | Path, sync: bool = True) -> None:
    """Atomically publish ``store`` as a ``TBS2`` snapshot at ``path``."""
    atomic_write_bytes(path, dump_snapshot(store), sync=sync)


def read_snapshot(path: str | Path) -> SnapshotContent:
    """Parse a ``TBS2``/``TBS1`` file; any damage is a typed :class:`StoreError`."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < len(SNAPSHOT_MAGIC) + 4 + 1:
        raise StoreError(f"{path} is too small to be a TierBase snapshot")
    magic = data[: len(SNAPSHOT_MAGIC)]
    if magic not in (SNAPSHOT_MAGIC, LEGACY_SNAPSHOT_MAGIC):
        raise StoreError(f"{path} is not a TierBase snapshot (bad magic)")
    body, footer = data[:-4], data[-4:]
    if zlib.crc32(body) != int.from_bytes(footer, "big"):
        raise StoreError(f"{path} failed its CRC32 check (torn or corrupted snapshot)")
    try:
        return _parse_body(body, path, legacy=magic == LEGACY_SNAPSHOT_MAGIC)
    except (DecodingError, UnicodeDecodeError, IndexError) as error:
        raise StoreError(f"{path} has a malformed snapshot body") from error


def _parse_body(body: bytes, path: Path, legacy: bool) -> SnapshotContent:
    offset = len(SNAPSHOT_MAGIC)
    flags = body[offset]
    offset += 1
    name_length, offset = decode_uvarint(body, offset)
    compressor_name = body[offset : offset + name_length].decode("utf-8")
    offset += name_length
    models: bytes | None = None
    if flags & _FLAG_MODELS:
        models_length, offset = decode_uvarint(body, offset)
        models = body[offset : offset + models_length]
        if len(models) != models_length:
            raise StoreError(f"{path} has a truncated model store section")
        offset += models_length
    last_applied_lsn = 0
    if not legacy:
        last_applied_lsn, offset = decode_uvarint(body, offset)
    key_count, offset = decode_uvarint(body, offset)
    keys: list[bytes] = []
    starts: list[int] = []
    for _ in range(key_count):
        starts.append(offset)
        key_length, offset = decode_uvarint(body, offset)
        key = body[offset : offset + key_length]
        key.decode("utf-8")  # a key must be UTF-8: raises on a damaged one
        _, offset = decode_uvarint(body, offset + key_length)
        payload_length, offset = decode_uvarint(body, offset)
        offset += payload_length
        if offset > len(body):
            raise StoreError(f"{path} has a truncated payload for key {key!r}")
        keys.append(key)
    if offset != len(body):
        raise StoreError(f"{path} has trailing bytes after the last snapshot entry")
    ends = starts[1:] + [offset]
    if all(key < following for key, following in zip(keys, keys[1:])):
        base = starts[0] if starts else offset
        records = body[base:offset]
        starts = [start - base for start in starts]
    else:
        latest = {key: (start, end) for key, start, end in zip(keys, starts, ends)}
        spans = [latest[key] for key in sorted(latest)]
        records = b"".join(body[start:end] for start, end in spans)
        starts = []
        size = 0
        for start, end in spans:
            starts.append(size)
            size += end - start
    return SnapshotContent(
        compressor_name=compressor_name,
        models=models,
        records=records,
        starts=starts,
        last_applied_lsn=last_applied_lsn,
    )
