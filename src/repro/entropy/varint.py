"""LEB128-style variable-length integer encoding.

This is the VARINT field encoder of Table 1 in the paper and also the length
header used by the VARCHAR encoder and by the Snappy/LZ4-like codecs.
"""

from __future__ import annotations

from repro.exceptions import DecodingError, EncodingError


#: the one-byte varints; lengths, pattern ids and small fields rarely need more
_SINGLE_BYTE = [bytes([value]) for value in range(0x80)]


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as an LEB128 varint."""
    if 0 <= value < 0x80:
        return _SINGLE_BYTE[value]
    if value < 0:
        raise EncodingError("uvarint cannot encode negative values")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode an LEB128 varint starting at ``offset``.

    Returns ``(value, next_offset)``.
    """
    result = 0
    shift = 0
    position = offset
    while True:
        if position >= len(data):
            raise DecodingError("truncated uvarint")
        byte = data[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7
        if shift > 63:
            raise DecodingError("uvarint too long")


def uvarint_size(value: int) -> int:
    """Number of bytes :func:`encode_uvarint` would use for ``value``."""
    if value < 0:
        raise EncodingError("uvarint cannot encode negative values")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def encode_zigzag(value: int) -> bytes:
    """Encode a signed integer using zigzag + LEB128 (used for deltas)."""
    mapped = (value << 1) if value >= 0 else ((-value) << 1) - 1
    return encode_uvarint(mapped)


def decode_zigzag(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a zigzag varint starting at ``offset``; returns ``(value, next_offset)``."""
    mapped, position = decode_uvarint(data, offset)
    if mapped & 1:
        return -((mapped + 1) >> 1), position
    return mapped >> 1, position
