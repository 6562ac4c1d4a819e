"""Tests for the FSST-style symbol-table codec."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.compressors.fsst import (
    ESCAPE_CODE,
    FSSTCodec,
    MAX_SYMBOL_LENGTH,
    MAX_SYMBOLS,
    SymbolTable,
    train_symbol_table,
)
from repro.exceptions import DecodingError


def longest_symbol_at(symbols, data, position):
    """Oracle: ``(symbol, code)`` of the longest symbol at ``position``, lowest code
    first among equals; ``(the single byte, None)`` when no symbol matches."""
    best, best_code = data[position : position + 1], None
    for code, symbol in enumerate(symbols):
        if data.startswith(symbol, position) and (best_code is None or len(symbol) > len(best)):
            best, best_code = symbol, code
    return best, best_code


def reference_encode(symbols, data):
    """Oracle for :meth:`SymbolTable.encode`: greedy longest match, escape otherwise."""
    out = bytearray()
    position = 0
    while position < len(data):
        token, code = longest_symbol_at(symbols, data, position)
        out += bytes([ESCAPE_CODE, token[0]]) if code is None else bytes([code])
        position += len(token)
    return bytes(out)


def reference_train(samples, generations=5, max_symbols=MAX_SYMBOLS):
    """Oracle for :func:`train_symbol_table`: the published loop, one token at a time."""
    sample = b"".join(samples)
    if not sample:
        return []
    symbols = [bytes([value]) for value, _ in Counter(sample).most_common(max_symbols)]
    for _ in range(generations):
        gains: Counter = Counter()
        pair_gains: Counter = Counter()
        previous = None
        position = 0
        while position < len(sample):
            token, _code = longest_symbol_at(symbols, sample, position)
            position += len(token)
            gains[token] += 2 * len(token) - 1
            if previous is not None and len(previous) + len(token) <= MAX_SYMBOL_LENGTH:
                pair_gains[previous + token] += 2 * len(previous + token) - 1
            previous = token
        gains.update(pair_gains)  # first-seen order: used symbols, then pairs
        symbols = [symbol for symbol, _gain in gains.most_common(max_symbols)]
    return symbols


# Bytes that mean something to a regex engine or a text codec, and a few that do not.
AWKWARD_BYTES = b"\\.|()[]{}?*+^$-\n\r\x00\xff\xfe ab"
awkward_symbols = st.lists(
    st.lists(st.sampled_from(AWKWARD_BYTES), min_size=1, max_size=MAX_SYMBOL_LENGTH).map(bytes),
    max_size=24,
)
awkward_data = st.lists(st.sampled_from(AWKWARD_BYTES), max_size=60).map(bytes)


class TestSymbolTable:
    def test_empty_table_escapes_everything(self):
        table = SymbolTable()
        encoded = table.encode(b"ab")
        assert encoded == bytes([ESCAPE_CODE, ord("a"), ESCAPE_CODE, ord("b")])
        assert table.decode(encoded) == b"ab"

    def test_longest_symbol_wins(self):
        table = SymbolTable([b"ab", b"abcd"])
        encoded = table.encode(b"abcdab")
        # "abcd" (code 1) then "ab" (code 0).
        assert encoded == bytes([1, 0])

    def test_symbol_limit_enforced(self):
        with pytest.raises(ValueError):
            SymbolTable([bytes([value]) for value in range(MAX_SYMBOLS + 1)])

    def test_symbol_length_enforced(self):
        with pytest.raises(ValueError):
            SymbolTable([b"123456789"])
        with pytest.raises(ValueError):
            SymbolTable([b""])

    def test_serialisation_roundtrip(self):
        table = SymbolTable([b"http://", b"www.", b".com"])
        restored, offset = SymbolTable.from_bytes(table.to_bytes())
        assert restored.symbols == table.symbols
        assert offset == len(table.to_bytes())

    def test_unknown_code_rejected(self):
        with pytest.raises(DecodingError, match="code 5 outside"):
            SymbolTable([b"a"]).decode(bytes([0, 5]))

    def test_truncated_escape_rejected(self):
        with pytest.raises(DecodingError, match="truncated"):
            SymbolTable([b"a"]).decode(bytes([0, ESCAPE_CODE]))

    def test_escaped_escape_byte_roundtrips(self):
        table = SymbolTable([b"a"])
        encoded = table.encode(b"a\xffa")
        assert encoded == bytes([0, ESCAPE_CODE, 0xFF, 0])
        assert table.decode(encoded) == b"a\xffa"

    def test_prefix_symbols_back_off_to_the_longest_complete_one(self):
        # "abc" is only a path to "abcd": on "abcx" the tokenizer must back off to "ab".
        table = SymbolTable([b"a", b"ab", b"abcd"])
        assert table.encode(b"abcx") == bytes([1, ESCAPE_CODE, ord("c"), ESCAPE_CODE, ord("x")])
        assert table.encode(b"abcd") == bytes([2])

    def test_repeated_symbol_keeps_its_lowest_code(self):
        # from_bytes accepts a table that stores one symbol twice; payloads
        # written against it used the first (lowest) code and must keep doing so.
        stored = SymbolTable([b"ab", b"c", b"ab"]).to_bytes()
        table, _ = SymbolTable.from_bytes(stored)
        assert table.symbols == [b"ab", b"c", b"ab"]
        assert table.encode(b"abcab") == bytes([0, 1, 0])
        assert table.decode(bytes([2, 1, 0])) == b"abcab"

    def test_encode_never_writes_to_the_table(self):
        # Shard threads share one table: every escape exists before the first encode.
        table = SymbolTable([b"ab"])
        before = dict(table._emit)
        assert len(before) == 256 + 1
        table.encode(bytes(range(256)))
        assert table._emit == before

    @given(awkward_symbols, awkward_data)
    @settings(max_examples=120, deadline=None)
    def test_encode_matches_greedy_longest_oracle(self, symbols, data):
        table = SymbolTable(symbols)
        encoded = table.encode(data)
        assert encoded == reference_encode(symbols, data)
        assert table.decode(encoded) == data

    @given(st.lists(st.binary(min_size=1, max_size=MAX_SYMBOL_LENGTH), max_size=40), st.binary(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_encode_matches_oracle_on_arbitrary_bytes(self, symbols, data):
        table = SymbolTable(symbols)
        assert table.encode(data) == reference_encode(symbols, data)
        assert table.decode(table.encode(data)) == data


class TestTraining:
    def test_empty_samples_give_empty_table(self):
        assert len(train_symbol_table([])) == 0

    def test_learns_repeated_substrings(self):
        samples = [b"https://www.example.com/page/%d" % index for index in range(200)]
        table = train_symbol_table(samples)
        assert len(table) > 0
        assert any(len(symbol) >= 4 for symbol in table.symbols)

    def test_table_size_bounded(self):
        samples = [bytes([index % 256, (index * 7) % 256]) for index in range(500)]
        assert len(train_symbol_table(samples)) <= MAX_SYMBOLS

    @given(
        st.lists(st.lists(st.sampled_from(AWKWARD_BYTES), max_size=30).map(bytes), max_size=8),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([3, 16, MAX_SYMBOLS]),
    )
    @settings(max_examples=100, deadline=None)
    def test_training_matches_reference_trainer(self, samples, generations, max_symbols):
        table = train_symbol_table(samples, generations=generations, max_symbols=max_symbols)
        assert table.symbols == reference_train(samples, generations, max_symbols)

    def test_training_matches_reference_on_repetitive_corpus(self):
        samples = [b"GET /api/v1/users/%d/profile?x=\xff\x00 HTTP/1.1\n" % index for index in range(60)]
        assert train_symbol_table(samples).symbols == reference_train(samples)


class TestFSSTCodec:
    def test_untrained_roundtrip(self):
        codec = FSSTCodec()
        payload = b"anything goes here"
        assert codec.decompress(codec.compress(payload)) == payload
        assert not codec.is_trained

    def test_trained_compression_shrinks_similar_payloads(self):
        samples = [f"GET /api/v1/users/{index}/profile HTTP/1.1".encode() for index in range(300)]
        codec = FSSTCodec()
        codec.train(samples)
        assert codec.is_trained
        payload = b"GET /api/v1/users/9999/profile HTTP/1.1"
        compressed = codec.compress(payload)
        assert len(compressed) < len(payload)
        assert codec.decompress(compressed) == payload

    def test_roundtrip_on_unseen_bytes(self):
        codec = FSSTCodec()
        codec.train([b"aaaa bbbb cccc"] * 20)
        payload = bytes(range(256))
        assert codec.decompress(codec.compress(payload)) == payload

    def test_empty_payload(self):
        codec = FSSTCodec()
        assert codec.decompress(codec.compress(b"")) == b""

    @given(st.binary(max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property_untrained(self, payload):
        codec = FSSTCodec()
        assert codec.decompress(codec.compress(payload)) == payload

    @given(st.text(alphabet="abcdef0123456789-/", max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property_trained(self, text):
        payload = text.encode()
        assert _TRAINED_CODEC.decompress(_TRAINED_CODEC.compress(payload)) == payload


_TRAINED_CODEC = FSSTCodec()
_TRAINED_CODEC.train([f"abc-{index}/def-0123456789".encode() for index in range(100)])
