"""FSST-style symbol-table compression (Boncz, Neumann, Leis; VLDB 2020).

FSST ("Fast Static Symbol Table") replaces frequently occurring byte sequences
of length 1-8 with one-byte codes from a table of at most 255 symbols; bytes not
covered by any symbol are emitted verbatim behind an escape code.  Because every
input string is compressed independently against a *static* table, random access
to individual records is preserved — the property the paper's PBC_F variant and
the Figure 5 experiment rely on.

This is a faithful pure-Python re-implementation of the algorithm family (see
docs/ARCHITECTURE.md, substitution 3): iterative training that grows symbols by
concatenating adjacent symbols of the previous generation, gain-based selection
of the best 255 symbols, greedy longest-match encoding, and an escape byte for
uncovered bytes.  Only the raw speed of the original (which relies on AVX512)
is not reproduced.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain, islice
from operator import add
from typing import Iterable, Sequence

from repro.compressors.base import Codec, register_codec
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.exceptions import DecodingError

#: Code emitted before a verbatim byte that is not covered by any symbol.
ESCAPE_CODE = 255

#: Maximum number of learned symbols (code 255 is reserved for the escape).
MAX_SYMBOLS = 255

#: Maximum symbol length in bytes (as in the original FSST).
MAX_SYMBOL_LENGTH = 8


def _trie_regex(words: Iterable[bytes]) -> bytes:
    """Alternation matching the longest of the non-empty ``words`` at a position.

    Words are grouped by first byte, so at most one branch can match; the rest
    of a branch is optional exactly when a word ends there.  The engine thus
    walks the input down the trie as far as it goes and backs off to the
    deepest word end it passed.
    """
    tails: dict[int, set[bytes]] = {}
    for word in words:
        tails.setdefault(word[0], set()).add(word[1:])
    branches = []
    for byte, rests in sorted(tails.items()):
        branch = b"\\x%02x" % byte
        if rests != {b""}:
            branch += _trie_regex(rests - {b""}) + (b"?" if b"" in rests else b"")
        branches.append(branch)
    return b"(?:" + b"|".join(branches) + b")"


class SymbolTable:
    """A static FSST symbol table: at most 255 byte-string symbols.

    The table knows how to encode (greedy longest match per position) and how
    to decode (direct code -> symbol lookup), and can be serialised so that a
    trained table can be stored next to the compressed data.

    The symbols are compiled once into a trie-shaped regular expression whose
    ``findall`` cuts any input into exactly the greedy-longest tokens (a symbol
    where one matches, otherwise the single byte), so the per-position search
    runs inside the ``re`` engine instead of the interpreter.
    """

    def __init__(self, symbols: Sequence[bytes] = ()) -> None:
        if len(symbols) > MAX_SYMBOLS:
            raise ValueError(f"symbol table holds at most {MAX_SYMBOLS} symbols")
        self.symbols: list[bytes] = [bytes(symbol) for symbol in symbols]
        for symbol in self.symbols:
            if not symbol or len(symbol) > MAX_SYMBOL_LENGTH:
                raise ValueError("symbols must be 1-8 bytes long")
        # tokenize(data) -> [token, ...]; a multi-byte symbol's first byte ends a word too
        heads = {symbol[:1] for symbol in self.symbols if len(symbol) > 1}
        words = heads.union(symbol for symbol in self.symbols if symbol[:1] in heads)
        pattern = (_trie_regex(words) + b"|" if words else b"") + b"."
        self.tokenize = re.compile(pattern, re.DOTALL).findall
        # token -> output bytes.  All 256 escapes exist up front, so encode
        # never writes to the table (it is shared by shard threads); a symbol
        # stored twice keeps its lowest code.
        self._emit = {bytes([byte]): bytes([ESCAPE_CODE, byte]) for byte in range(256)}
        for code in reversed(range(len(self.symbols))):
            self._emit[self.symbols[code]] = bytes([code])

    def __len__(self) -> int:
        return len(self.symbols)

    # ---------------------------------------------------------------- encode

    def encode(self, data: bytes) -> bytes:
        """Encode ``data`` with greedy longest-symbol matching."""
        return b"".join(map(self._emit.__getitem__, self.tokenize(data)))

    def decode(self, data: bytes) -> bytes:
        """Invert :meth:`encode`."""
        out = bytearray()
        symbols = self.symbols
        codes = iter(data)
        try:
            for code in codes:
                if code == ESCAPE_CODE:
                    out.append(next(codes))
                else:
                    out += symbols[code]
        except StopIteration:
            raise DecodingError("truncated FSST escape sequence") from None
        except IndexError:
            raise DecodingError(f"FSST code {code} outside symbol table") from None
        return bytes(out)

    # ------------------------------------------------------------- persistence

    def to_bytes(self) -> bytes:
        """Serialise the table (symbol count, then length-prefixed symbols)."""
        out = bytearray()
        out += encode_uvarint(len(self.symbols))
        for symbol in self.symbols:
            out += encode_uvarint(len(symbol))
            out += symbol
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["SymbolTable", int]:
        """Deserialise a table; returns ``(table, next_offset)``."""
        count, offset = decode_uvarint(data, offset)
        symbols: list[bytes] = []
        for _ in range(count):
            length, offset = decode_uvarint(data, offset)
            end = offset + length
            if end > len(data):
                raise DecodingError("truncated FSST symbol table")
            symbols.append(data[offset:end])
            offset = end
        return cls(symbols), offset


def train_symbol_table(
    samples: Iterable[bytes],
    generations: int = 5,
    max_symbols: int = MAX_SYMBOLS,
    sample_byte_budget: int = 1 << 20,
) -> SymbolTable:
    """Train an FSST symbol table on sample payloads.

    The training loop mirrors the published algorithm: starting from single-byte
    symbols, each generation encodes the sample with the current table and
    counts (a) how often each symbol is used and (b) how often two symbols occur
    adjacently.  Concatenations of adjacent symbols (up to 8 bytes) become
    candidates for the next generation; candidates are ranked by *gain*
    (frequency times bytes saved versus escaping) and the best ``max_symbols``
    survive.
    """
    corpus = bytearray()
    for payload in samples:
        corpus += payload
        if len(corpus) >= sample_byte_budget:
            break
    sample = bytes(corpus)
    if not sample:
        return SymbolTable()

    # Generation 0: the most common single bytes.
    byte_counts = Counter(sample)
    table = SymbolTable(
        [bytes([value]) for value, _ in byte_counts.most_common(max_symbols)]
    )

    for _ in range(max(1, generations)):
        tokens = table.tokenize(sample)
        # Counter keeps first-seen order, which is how most_common breaks ties.
        symbol_counts = Counter(tokens)
        pair_counts = Counter(map(add, tokens, islice(tokens, 1, None)))

        # Gain of keeping a symbol: bytes saved relative to escaping every byte.
        candidates_gain: Counter = Counter()
        for symbol, count in chain(symbol_counts.items(), pair_counts.items()):
            if len(symbol) <= MAX_SYMBOL_LENGTH:
                candidates_gain[symbol] += count * (2 * len(symbol) - 1)
        best = [symbol for symbol, _gain in candidates_gain.most_common(max_symbols)]
        table = SymbolTable(best)

    return table


class FSSTCodec(Codec):
    """FSST as a :class:`~repro.compressors.base.Codec`.

    When used untrained the codec behaves as a pass-through with escapes (every
    byte costs two bytes), so callers are expected to :meth:`train` it first —
    exactly like the real FSST, whose symbol table is built from a sample of the
    column to compress.  Payloads produced by :meth:`compress` are prefixed with
    a varint original-length header so decompression can validate its output.
    """

    name = "FSST"

    def __init__(self, table: SymbolTable | None = None) -> None:
        self.table = table if table is not None else SymbolTable()

    @property
    def is_trained(self) -> bool:
        """Whether a non-empty symbol table is installed."""
        return len(self.table) > 0

    def train(self, samples: Iterable[bytes], generations: int = 5) -> SymbolTable:
        """Train the symbol table on sample payloads and install it."""
        self.table = train_symbol_table(samples, generations=generations)
        return self.table

    def compress(self, data: bytes) -> bytes:
        return encode_uvarint(len(data)) + self.table.encode(data)

    def decompress(self, data: bytes) -> bytes:
        expected, offset = decode_uvarint(data, 0)
        payload = self.table.decode(data[offset:])
        if len(payload) != expected:
            raise DecodingError(
                f"FSST payload length mismatch: expected {expected}, got {len(payload)}"
            )
        return payload


register_codec("fsst", FSSTCodec)
