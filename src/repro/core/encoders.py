"""Field encoders for residual subsequences (Table 1 of the paper).

Each wildcard field of a pattern is associated with one encoder.  The encoder
determines three things:

* the byte format used to store the field value of every record in the cluster,
* the storage *cost* of a value (used by the encoding-length model of Section 4),
* the regular-expression fragment that the multi-pattern matcher uses to decide
  whether a record can instantiate the field (Figure 1b).

Encoders are value objects: they carry only their parameters, are hashable and
can be serialised to a compact spec string for the on-disk pattern dictionary.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.entropy.varint import decode_uvarint, encode_uvarint, uvarint_size
from repro.exceptions import DecodingError, EncodingError


def _int_byte_width(digit_count: int) -> int:
    """Number of bytes needed to store any ``digit_count``-digit decimal value."""
    return max(1, ((10**digit_count - 1).bit_length() + 7) // 8)


class FieldEncoder(ABC):
    """Base class for field encoders.

    Concrete encoders implement :meth:`can_encode`, :meth:`encode`,
    :meth:`decode` and :meth:`cost`; the rest of the library treats them
    uniformly through this interface.
    """

    #: short mnemonic used in spec strings and reports (e.g. ``"VARCHAR"``).
    name: str = "FIELD"

    @abstractmethod
    def can_encode(self, value: str) -> bool:
        """Return True if ``value`` is representable by this encoder."""

    @abstractmethod
    def encode(self, value: str) -> bytes:
        """Encode ``value``; raises :class:`EncodingError` if not representable
        (the :meth:`can_encode` condition, tested inline: one call fewer per field)."""

    @abstractmethod
    def decode(self, data: bytes, offset: int) -> tuple[str, int]:
        """Decode one value starting at ``offset``; returns ``(value, next_offset)``."""

    @abstractmethod
    def cost(self, value: str) -> int:
        """Number of bytes :meth:`encode` would produce for ``value``."""

    @abstractmethod
    def regex_fragment(self) -> str:
        """Regex capture group matching exactly what :meth:`can_encode` accepts
        (under ``re.DOTALL``): ``\\d`` and ``.`` also match non-ASCII digits and
        characters, which the matcher would hand to an :meth:`encode` that refuses."""

    @abstractmethod
    def spec(self) -> str:
        """Compact textual spec, e.g. ``"INT(6,3)"``; parsed by :func:`encoder_from_spec`."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.spec()}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldEncoder) and self.spec() == other.spec()

    def __hash__(self) -> int:
        return hash(self.spec())


class VarcharEncoder(FieldEncoder):
    """Variable-length character field: varint length header + raw bytes."""

    name = "VARCHAR"

    def can_encode(self, value: str) -> bool:
        return True

    def encode(self, value: str) -> bytes:
        payload = value.encode("utf-8")
        return encode_uvarint(len(payload)) + payload

    def decode(self, data: bytes, offset: int) -> tuple[str, int]:
        length, offset = decode_uvarint(data, offset)
        end = offset + length
        if end > len(data):
            raise DecodingError("truncated VARCHAR payload")
        return data[offset:end].decode("utf-8"), end

    def cost(self, value: str) -> int:
        payload_len = len(value.encode("utf-8"))
        return uvarint_size(payload_len) + payload_len

    def regex_fragment(self) -> str:
        return "(.*?)"

    def spec(self) -> str:
        return "VARCHAR"


class CharEncoder(FieldEncoder):
    """Fixed-length character field: exactly ``length`` characters, no header."""

    name = "CHAR"

    def __init__(self, length: int) -> None:
        if length < 0:
            raise ValueError("CHAR length must be non-negative")
        self.length = length

    def can_encode(self, value: str) -> bool:
        return len(value) == self.length and len(value.encode("utf-8")) == self.length

    def encode(self, value: str) -> bytes:
        payload = value.encode("utf-8")
        if len(value) != self.length or len(payload) != self.length:
            raise EncodingError(f"CHAR({self.length}) cannot encode {value!r}")
        return payload

    def decode(self, data: bytes, offset: int) -> tuple[str, int]:
        end = offset + self.length
        if end > len(data):
            raise DecodingError("truncated CHAR payload")
        return data[offset:end].decode("utf-8"), end

    def cost(self, value: str) -> int:
        return self.length

    def regex_fragment(self) -> str:
        return r"([\x00-\x7f]{%d})" % self.length

    def spec(self) -> str:
        return f"CHAR({self.length})"


class IntEncoder(FieldEncoder):
    """Fixed-length digit field stored as a fixed-width big-endian integer.

    ``INT(n, m)`` in the paper's notation: the field is always exactly ``n``
    decimal digits (leading zeros allowed) and is stored in ``m`` bytes.
    """

    name = "INT"

    def __init__(self, digits: int, width: int | None = None) -> None:
        if digits <= 0:
            raise ValueError("INT digit count must be positive")
        self.digits = digits
        self.width = width if width is not None else _int_byte_width(digits)
        if self.width < _int_byte_width(digits):
            raise ValueError(
                f"INT({digits}) needs at least {_int_byte_width(digits)} bytes, got {self.width}"
            )

    def can_encode(self, value: str) -> bool:
        return len(value) == self.digits and value.isascii() and value.isdigit()

    def encode(self, value: str) -> bytes:
        if len(value) != self.digits or not value.isascii() or not value.isdigit():
            raise EncodingError(f"INT({self.digits},{self.width}) cannot encode {value!r}")
        return int(value).to_bytes(self.width, "big")

    def decode(self, data: bytes, offset: int) -> tuple[str, int]:
        end = offset + self.width
        if end > len(data):
            raise DecodingError("truncated INT payload")
        number = int.from_bytes(data[offset:end], "big")
        return str(number).zfill(self.digits), end

    def cost(self, value: str) -> int:
        return self.width

    def regex_fragment(self) -> str:
        return "([0-9]{%d})" % self.digits

    def spec(self) -> str:
        return f"INT({self.digits},{self.width})"


class VarintEncoder(FieldEncoder):
    """Variable-length digit field without leading zeros, stored as a LEB128 varint."""

    name = "VARINT"

    def can_encode(self, value: str) -> bool:
        if not value or not value.isascii() or not value.isdigit():
            return False
        # Leading zeros cannot be restored from the integer value, so reject them.
        return value == "0" or value[0] != "0"

    def encode(self, value: str) -> bytes:
        if not (value.isascii() and value.isdigit() and (value == "0" or value[0] != "0")):
            raise EncodingError(f"VARINT cannot encode {value!r}")
        return encode_uvarint(int(value))

    def decode(self, data: bytes, offset: int) -> tuple[str, int]:
        number, offset = decode_uvarint(data, offset)
        return str(number), offset

    def cost(self, value: str) -> int:
        return uvarint_size(int(value))

    def regex_fragment(self) -> str:
        return "(0|[1-9][0-9]*)"

    def spec(self) -> str:
        return "VARINT"


#: Default encoder set |F| used by pattern extraction (Definition 2).
DEFAULT_ENCODER_FAMILY: tuple[str, ...] = ("INT", "VARINT", "CHAR", "VARCHAR")


def encoder_from_spec(spec: str) -> FieldEncoder:
    """Parse a spec string produced by :meth:`FieldEncoder.spec`."""
    spec = spec.strip()
    if spec == "VARCHAR":
        return VarcharEncoder()
    if spec == "VARINT":
        return VarintEncoder()
    if spec.startswith("CHAR(") and spec.endswith(")"):
        return CharEncoder(int(spec[5:-1]))
    if spec.startswith("INT(") and spec.endswith(")"):
        digits_text, width_text = spec[4:-1].split(",")
        return IntEncoder(int(digits_text), int(width_text))
    raise ValueError(f"unknown encoder spec {spec!r}")


def candidate_encoders(values: Sequence[str]) -> list[FieldEncoder]:
    """Enumerate the encoders that can represent every value in ``values``."""
    candidates: list[FieldEncoder] = [VarcharEncoder()]
    if not values:
        return candidates
    lengths = {len(value) for value in values}
    all_digits = all(value.isascii() and value.isdigit() and value for value in values)
    if len(lengths) == 1:
        length = next(iter(lengths))
        if length > 0 and all(len(value.encode("utf-8")) == length for value in values):
            candidates.append(CharEncoder(length))
        if all_digits and length > 0:
            candidates.append(IntEncoder(length))
    if all_digits and all(value == "0" or value[0] != "0" for value in values):
        candidates.append(VarintEncoder())
    return candidates


def select_encoder(values: Sequence[str]) -> FieldEncoder:
    """Pick the optimal encoder for a field (minimal total cost over ``values``).

    This realises the "optimal encoding function" of Definition 2 for one field:
    among the encoders that can represent every observed value, the one with the
    smallest total encoded size is selected.  Ties are broken in favour of the
    more specific encoder (INT before VARINT before CHAR before VARCHAR) so that
    decompression stays branch-free.
    """
    ordering = {"INT": 0, "VARINT": 1, "CHAR": 2, "VARCHAR": 3}
    best: FieldEncoder | None = None
    best_key: tuple[int, int] | None = None
    for encoder in candidate_encoders(values):
        total = sum(encoder.cost(value) for value in values)
        key = (total, ordering[encoder.name])
        if best_key is None or key < best_key:
            best, best_key = encoder, key
    assert best is not None  # VARCHAR is always a candidate
    return best
