"""Patterns, token sequences and the pattern dictionary.

A *pattern* (Section 3.2, Example 1) is a common subsequence of the records in a
cluster with wildcard fields in the gaps: ``Pat(c) = {p, L}`` where ``p`` is the
literal/wildcard token sequence and ``L`` the list of field encoders.  The
canonical storage form used here interleaves literal segments and typed fields:

    record = literals[0] + field_0 + literals[1] + field_1 + ... + literals[k]

with ``len(literals) == len(encoders) + 1``.

During clustering patterns are manipulated as flat *token sequences*: a list
whose elements are single characters (literals) or the :data:`WILDCARD`
sentinel.  Helper functions convert between the two representations.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.core.encoders import FieldEncoder, VarcharEncoder, encoder_from_spec
from repro.exceptions import DictionaryError, PatternError

#: Sentinel token representing a wildcard field inside a token sequence.  ``None``
#: is used (rather than ``"*"``) so literal asterisks in the data stay unambiguous.
WILDCARD = None

#: Pattern id reserved for records that match no pattern and are stored raw.
OUTLIER_PATTERN_ID = 0


def tokens_from_string(text: str) -> list[str | None]:
    """Token sequence for a raw record: every character is a literal."""
    return list(text)


def tokens_to_display(tokens: Sequence[str | None]) -> str:
    """Human-readable form of a token sequence (wildcards rendered as ``*``)."""
    return "".join("*" if token is WILDCARD else token for token in tokens)


def collapse_wildcards(tokens: Iterable[str | None]) -> list[str | None]:
    """Collapse runs of consecutive wildcards into a single wildcard token."""
    collapsed: list[str | None] = []
    for token in tokens:
        if token is WILDCARD and collapsed and collapsed[-1] is WILDCARD:
            continue
        collapsed.append(token)
    return collapsed


def tokens_to_segments(tokens: Sequence[str | None]) -> tuple[list[str], int]:
    """Split a token sequence into literal segments around wildcard fields.

    Returns ``(literals, field_count)`` where ``len(literals) == field_count + 1``.
    """
    literals: list[str] = []
    current: list[str] = []
    field_count = 0
    previous_was_wildcard = False
    for token in tokens:
        if token is WILDCARD:
            if previous_was_wildcard:
                continue
            literals.append("".join(current))
            current = []
            field_count += 1
            previous_was_wildcard = True
        else:
            current.append(token)
            previous_was_wildcard = False
    literals.append("".join(current))
    return literals, field_count


def literal_length(tokens: Sequence[str | None]) -> int:
    """Number of literal characters in a token sequence."""
    return sum(1 for token in tokens if token is not WILDCARD)


@dataclass(frozen=True)
class Pattern:
    """A fully specified pattern: literal segments plus one encoder per field."""

    pattern_id: int
    literals: tuple[str, ...]
    encoders: tuple[FieldEncoder, ...]

    def __post_init__(self) -> None:
        if len(self.literals) != len(self.encoders) + 1:
            raise PatternError(
                f"pattern {self.pattern_id}: {len(self.literals)} literal segments "
                f"require {len(self.literals) - 1} encoders, got {len(self.encoders)}"
            )
        if self.pattern_id < 0:
            raise PatternError("pattern id must be non-negative")

    @property
    def field_count(self) -> int:
        """Number of wildcard fields."""
        return len(self.encoders)

    @property
    def literal_size(self) -> int:
        """Total number of literal characters (the paper's pattern length)."""
        return sum(len(segment) for segment in self.literals)

    def display(self) -> str:
        """Render the pattern in the paper's ``literal*<ENCODER>literal`` notation."""
        parts: list[str] = [self.literals[0]]
        for encoder, segment in zip(self.encoders, self.literals[1:]):
            parts.append(f"*<{encoder.spec()}>")
            parts.append(segment)
        return "".join(parts)

    def to_regex(self) -> str:
        """Anchored regex with one capture group per field (ending in ``\\Z``:
        ``$`` also matches before a trailing newline, which would be dropped)."""
        parts = ["^", re.escape(self.literals[0])]
        for encoder, segment in zip(self.encoders, self.literals[1:]):
            parts.append(encoder.regex_fragment())
            parts.append(re.escape(segment))
        parts.append(r"\Z")
        return "".join(parts)

    def reconstruct(self, field_values: Sequence[str]) -> str:
        """Rebuild the original record from decoded field values (Figure 1c)."""
        if len(field_values) != self.field_count:
            raise PatternError(
                f"pattern {self.pattern_id} expects {self.field_count} fields, "
                f"got {len(field_values)}"
            )
        parts = [self.literals[0]]
        for value, segment in zip(field_values, self.literals[1:]):
            parts.append(value)
            parts.append(segment)
        return "".join(parts)

    def encode_fields(self, field_values: Sequence[str]) -> bytes:
        """Encode all field values with their per-field encoders."""
        if len(field_values) != self.field_count:
            raise PatternError(
                f"pattern {self.pattern_id} expects {self.field_count} fields, "
                f"got {len(field_values)}"
            )
        return b"".join([encoder.encode(value) for encoder, value in zip(self.encoders, field_values)])

    def decode_fields(self, data: bytes, offset: int = 0) -> tuple[list[str], int]:
        """Decode all field values; returns ``(values, next_offset)``."""
        values: list[str] = []
        for encoder in self.encoders:
            value, offset = encoder.decode(data, offset)
            values.append(value)
        return values, offset

    def to_dict(self) -> dict:
        """JSON-serialisable representation (used by the dictionary persistence)."""
        return {
            "id": self.pattern_id,
            "literals": list(self.literals),
            "encoders": [encoder.spec() for encoder in self.encoders],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Pattern":
        """Inverse of :meth:`to_dict`."""
        return cls(
            pattern_id=int(payload["id"]),
            literals=tuple(payload["literals"]),
            encoders=tuple(encoder_from_spec(spec) for spec in payload["encoders"]),
        )

    @classmethod
    def from_tokens(
        cls,
        pattern_id: int,
        tokens: Sequence[str | None],
        encoders: Sequence[FieldEncoder] | None = None,
    ) -> "Pattern":
        """Build a pattern from a token sequence; defaults every field to VARCHAR."""
        literals, field_count = tokens_to_segments(tokens)
        if encoders is None:
            encoders = [VarcharEncoder() for _ in range(field_count)]
        return cls(pattern_id=pattern_id, literals=tuple(literals), encoders=tuple(encoders))


@dataclass
class PatternDictionary:
    """Maps pattern ids to patterns (Figure 1: the offline-built dictionary).

    Pattern id 0 is reserved for outlier records stored raw; real patterns get
    ids starting at 1.
    """

    patterns: dict[int, Pattern] = field(default_factory=dict)

    def add(self, pattern: Pattern) -> None:
        """Register a pattern; rejects the reserved id and duplicates."""
        if pattern.pattern_id == OUTLIER_PATTERN_ID:
            raise DictionaryError("pattern id 0 is reserved for outliers")
        if pattern.pattern_id in self.patterns:
            raise DictionaryError(f"duplicate pattern id {pattern.pattern_id}")
        self.patterns[pattern.pattern_id] = pattern

    def get(self, pattern_id: int) -> Pattern:
        """Look up a pattern by id."""
        try:
            return self.patterns[pattern_id]
        except KeyError as error:
            raise DictionaryError(f"unknown pattern id {pattern_id}") from error

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.patterns.values())

    def __contains__(self, pattern_id: int) -> bool:
        return pattern_id in self.patterns

    @property
    def next_id(self) -> int:
        """Smallest unused non-reserved pattern id."""
        return max(self.patterns, default=OUTLIER_PATTERN_ID) + 1

    def serialized_size(self) -> int:
        """Approximate on-disk size of the dictionary in bytes."""
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        """Serialise the dictionary (JSON payload; compact but human-inspectable)."""
        payload = [pattern.to_dict() for pattern in self.patterns.values()]
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PatternDictionary":
        """Inverse of :meth:`to_bytes`."""
        dictionary = cls()
        for item in json.loads(data.decode("utf-8")):
            dictionary.add(Pattern.from_dict(item))
        return dictionary
