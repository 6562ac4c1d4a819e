"""Bloom filter used by the LSM engine's SSTables to skip fruitless block reads.

RocksDB and LevelDB — the storage engines the paper's introduction targets —
attach a Bloom filter to every table file so point lookups for absent keys can
return without touching the data blocks.  The reproduction's LSM substrate does
the same; the filter is serialised into the SSTable footer section.
"""

from __future__ import annotations

import math

from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.exceptions import StoreError

# SHA-256 from the interpreter's builtin module: ``hashlib`` would map
# OpenSSL's libcrypto into every process that opens an SSTable.  The digest is
# the same, so filters written either way read back identically.
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:  # pragma: no cover - depends on the interpreter
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:
        from hashlib import sha256


def _hash_pair(key: bytes) -> tuple[int, int]:
    """Two independent 64-bit hashes of ``key`` (used for double hashing)."""
    digest = sha256(key).digest()
    return int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:16], "big")


class BloomFilter:
    """A classic Bloom filter over byte-string keys.

    ``capacity`` is the expected number of keys; ``false_positive_rate`` the
    target false-positive probability at that capacity.  The bit count and the
    number of hash functions are derived with the standard formulas.
    """

    def __init__(self, capacity: int, false_positive_rate: float = 0.01) -> None:
        if capacity < 1:
            raise StoreError("bloom filter capacity must be at least 1")
        if not 0 < false_positive_rate < 1:
            raise StoreError("false positive rate must be in (0, 1)")
        bit_count = math.ceil(-capacity * math.log(false_positive_rate) / (math.log(2) ** 2))
        self._bit_count = max(8, bit_count)
        self._hash_count = max(1, round(self._bit_count / capacity * math.log(2)))
        self._bits = bytearray((self._bit_count + 7) // 8)
        self._added = 0

    # ------------------------------------------------------------------ basic

    @property
    def bit_count(self) -> int:
        """Number of bits in the filter."""
        return self._bit_count

    @property
    def hash_count(self) -> int:
        """Number of hash functions."""
        return self._hash_count

    def __len__(self) -> int:
        return self._added

    def _positions(self, key: bytes):
        first, second = _hash_pair(key)
        for index in range(self._hash_count):
            yield (first + index * second) % self._bit_count

    def add(self, key: bytes) -> None:
        """Insert ``key``."""
        for position in self._positions(key):
            self._bits[position // 8] |= 1 << (position % 8)
        self._added += 1

    def might_contain(self, key: bytes) -> bool:
        """``False`` means definitely absent; ``True`` means possibly present."""
        return all(self._bits[position // 8] & (1 << (position % 8)) for position in self._positions(key))

    # -------------------------------------------------------------- estimates

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set (a diagnostic for over-filled filters)."""
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self._bit_count

    def estimated_false_positive_rate(self) -> float:
        """Expected false-positive probability given the keys added so far."""
        if self._added == 0:
            return 0.0
        exponent = -self._hash_count * self._added / self._bit_count
        return (1.0 - math.exp(exponent)) ** self._hash_count

    # ----------------------------------------------------------- persistence

    def to_bytes(self) -> bytes:
        """Serialise the filter for the SSTable footer."""
        out = bytearray()
        out += encode_uvarint(self._bit_count)
        out += encode_uvarint(self._hash_count)
        out += encode_uvarint(self._added)
        out += encode_uvarint(len(self._bits))
        out += self._bits
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["BloomFilter", int]:
        """Inverse of :meth:`to_bytes`; returns ``(filter, next_offset)``."""
        bit_count, offset = decode_uvarint(data, offset)
        hash_count, offset = decode_uvarint(data, offset)
        added, offset = decode_uvarint(data, offset)
        byte_count, offset = decode_uvarint(data, offset)
        end = offset + byte_count
        if end > len(data):
            raise StoreError("truncated bloom filter payload")
        instance = cls.__new__(cls)
        instance._bit_count = bit_count
        instance._hash_count = hash_count
        instance._bits = bytearray(data[offset:end])
        instance._added = added
        return instance, end
