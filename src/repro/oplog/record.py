"""The operation-log record and its shared binary codec.

Every mutation in the system — an LSM ``put``/``delete``, a TierBase ``SET``,
a batched ``put_many`` — is one :class:`OpRecord`: an operation tag, a key,
the value *bytes* the layer wants replayed (raw UTF-8 for the LSM engine,
the epoch-stamped compressed payload for TierBase), the codec epoch the
payload was written under, and the per-shard **log sequence number** (LSN)
assigned by the shard's :class:`~repro.oplog.log.Sequencer`.

This module is the one place records are encoded and decoded.  The on-disk
envelope is the WAL's historical torn-tail contract (docs/FORMATS.md §9)::

    record := uvarint(len(body))  crc32(body) u32-be  body

and the body comes in two shapes, discriminated by the high bit of the first
byte:

* **legacy** (pre-LSN WAL files): ``op u8 (1|2), uvarint(len(key)) key,
  uvarint(len(value)) value`` — no LSN, no epoch.  Decoding *synthesises*
  contiguous LSNs (previous + 1), so an old log replays as a valid prefix of
  the new contract;
* **LSN-stamped**: ``tag u8 (op | 0x80), uvarint(lsn), uvarint(epoch),
  uvarint(len(key)) key, uvarint(len(value)) value``.

Replay (:func:`iter_records`) stops at the first truncated or corrupt entry
(the torn tail of a crash) **and** at the first non-contiguous LSN, so the
records it yields are always a gap-free prefix of the shard's history —
the invariant the durability suite's SIGKILL mode asserts.  A
:data:`OP_CHECKPOINT` record is the one allowed forward jump: the WAL writes
it as the first record of a freshly truncated log, carrying the last LSN the
flushed-away prefix reached, so a reopened shard never re-issues an LSN.

Encoding builds each record in a single buffer and feeds ``zlib.crc32`` the
``bytearray`` directly — the previous WAL encoder copied the body once for
the checksum and again for the return value (two allocations per record on
the hot write path; the ``wal_record_encode`` bench row measures the fix).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.entropy.varint import decode_uvarint, encode_uvarint

#: Operation tags.  PUT/DELETE are the two mutations; CHECKPOINT is a
#: control record carrying the LSN a truncated WAL prefix had reached.
OP_PUT = 1
OP_DELETE = 2
OP_CHECKPOINT = 3

#: High bit of the body's first byte: set on LSN-stamped bodies, clear on
#: legacy (pre-LSN) bodies, whose first byte is the bare op tag.
LSN_FLAG = 0x80

_MUTATION_OPS = (OP_PUT, OP_DELETE)
_ALL_OPS = (OP_PUT, OP_DELETE, OP_CHECKPOINT)


@dataclass(frozen=True)
class OpRecord:
    """One logged mutation: what happened, to which key, at which LSN."""

    #: per-shard monotone log sequence number (1-based; 0 = never assigned).
    lsn: int
    #: :data:`OP_PUT`, :data:`OP_DELETE` or :data:`OP_CHECKPOINT`.
    op: int
    #: the mutated key (empty for checkpoints).
    key: str
    #: the value bytes to replay — raw UTF-8 for the LSM engine, the
    #: epoch-stamped compressed payload for TierBase, empty for deletes.
    value: bytes = b""
    #: codec model epoch the value was written under (0 = unversioned).
    epoch: int = 0

    def checkpoint(self) -> bool:
        """Whether this is a control record rather than a mutation."""
        return self.op == OP_CHECKPOINT


def append_record(buffer: bytearray, record: OpRecord) -> None:
    """Append ``record``'s LSN-stamped wire form to ``buffer`` (no copies)."""
    key_bytes = record.key.encode("utf-8")
    body = bytearray()
    body.append(record.op | LSN_FLAG)
    body += encode_uvarint(record.lsn)
    body += encode_uvarint(record.epoch)
    body += encode_uvarint(len(key_bytes))
    body += key_bytes
    body += encode_uvarint(len(record.value))
    body += record.value
    buffer += encode_uvarint(len(body))
    buffer += zlib.crc32(body).to_bytes(4, "big")
    buffer += body


def encode_record(record: OpRecord) -> bytes:
    """One record's complete wire form (envelope + LSN-stamped body)."""
    buffer = bytearray()
    append_record(buffer, record)
    return bytes(buffer)


def encode_records(records: Sequence[OpRecord]) -> bytes:
    """A batch of records as one contiguous buffer (one write syscall)."""
    buffer = bytearray()
    for record in records:
        append_record(buffer, record)
    return bytes(buffer)


def encode_legacy_record(op: int, key: str, value: str) -> bytes:
    """A pre-LSN record, byte-identical to what old WALs contain.

    Nothing writes this format any more; it is kept so the read-side
    compatibility tests can build the bytes an old file holds.  These
    records carry no LSN and replay with synthesised ones.
    """
    key_bytes = key.encode("utf-8")
    value_bytes = value.encode("utf-8")
    body = bytearray()
    body.append(op)
    body += encode_uvarint(len(key_bytes))
    body += key_bytes
    body += encode_uvarint(len(value_bytes))
    body += value_bytes
    return bytes(
        encode_uvarint(len(body)) + zlib.crc32(body).to_bytes(4, "big") + body
    )


def _decode_body(body: bytes, previous_lsn: int) -> OpRecord | None:
    """Decode one CRC-verified body; ``None`` means "treat as torn tail"."""
    try:
        tag = body[0]
        if tag & LSN_FLAG:
            op = tag & ~LSN_FLAG
            if op not in _ALL_OPS:
                return None
            lsn, offset = decode_uvarint(body, 1)
            epoch, offset = decode_uvarint(body, offset)
        else:
            op = tag
            if op not in _MUTATION_OPS:
                return None
            lsn = previous_lsn + 1
            epoch = 0
            offset = 1
        key_length, offset = decode_uvarint(body, offset)
        key = body[offset : offset + key_length].decode("utf-8")
        offset += key_length
        value_length, offset = decode_uvarint(body, offset)
        value = bytes(body[offset : offset + value_length])
        if len(value) != value_length or offset + value_length != len(body):
            return None
    except Exception:
        return None
    return OpRecord(lsn=lsn, op=op, key=key, value=value, epoch=epoch)


def iter_records(data: bytes, start_lsn: int = 0) -> Iterator[OpRecord]:
    """Yield every intact record in ``data``, oldest first, as a gap-free prefix.

    Iteration stops silently at the first truncated or corrupt entry (the
    expected torn tail of a crashed writer) and at the first LSN that is not
    exactly ``previous + 1`` — a gap means records upstream of it cannot be
    trusted, so nothing after it is yielded.  Checkpoint records may jump
    the LSN forward (never backward); legacy bodies synthesise ``previous +
    1`` and are therefore always contiguous.
    """
    offset = 0
    total = len(data)
    previous_lsn = start_lsn
    while offset < total:
        try:
            body_length, body_start = decode_uvarint(data, offset)
        except Exception:
            return
        checksum_end = body_start + 4
        body_end = checksum_end + body_length
        if body_length == 0 or body_end > total:
            return
        expected_checksum = int.from_bytes(data[body_start:checksum_end], "big")
        body = data[checksum_end:body_end]
        if zlib.crc32(body) != expected_checksum:
            return
        record = _decode_body(body, previous_lsn)
        if record is None:
            return
        if record.op == OP_CHECKPOINT:
            if record.lsn < previous_lsn:
                return
        elif record.lsn != previous_lsn + 1:
            return
        previous_lsn = record.lsn
        yield record
        offset = body_end
