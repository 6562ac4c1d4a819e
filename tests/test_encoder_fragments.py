"""The matcher's regex fragments accept exactly what the encoders can encode.

``\\d`` matches every Unicode decimal digit and ``.`` every character, while
``INT``/``VARINT`` store ASCII digits and ``CHAR(n)`` stores n bytes — so a
legal UTF-8 value used to match a pattern and then raise ``EncodingError`` out
of ``compress`` (and a served ``SET`` of it answered ``ERR``).  With exact
fragments such a record falls through to the next candidate or is stored as
an outlier, and ``decompress(compress(r)) == r`` for *any* ``str``.
"""

import functools
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs import codec_by_name
from repro.core.compressor import OUTLIER_PREFIX, PBCCompressor
from repro.core.encoders import CharEncoder, IntEncoder, VarcharEncoder, VarintEncoder
from repro.core.pattern import Pattern, PatternDictionary
from repro.datasets import load_dataset
from repro.exceptions import EncodingError
from repro.net import KVClient, KVServer, ServerConfig
from repro.service import KVService, ServiceConfig

#: ASCII next to what ``\d`` / ``.`` also accept: Arabic-Indic, Devanagari and
#: full-width digits, superscripts (``isdigit`` but not ``\d``), non-ASCII
#: letters, an astral character, and the line/NUL controls.
NASTY = "0123456789abcXYZ -_=;:./٠١٢٣٧٩०५९１９²³éüßж漢😀\n\r\x00\x7f\x80"
nasty_text = st.text(alphabet=NASTY, max_size=12)

ENCODERS = [
    VarcharEncoder(),
    CharEncoder(0),
    CharEncoder(2),
    IntEncoder(4),
    IntEncoder(6, 3),
    VarintEncoder(),
]


@pytest.mark.parametrize("encoder", ENCODERS, ids=lambda encoder: encoder.spec())
@settings(max_examples=150, deadline=None)
@given(value=st.one_of(nasty_text, st.text(max_size=8), st.from_regex(r"[0-9٠-٩]{1,6}", fullmatch=True)))
def test_fragment_accepts_exactly_what_can_encode(encoder, value):
    matched = re.fullmatch(encoder.regex_fragment(), value, re.DOTALL) is not None
    assert matched == encoder.can_encode(value)
    if matched:
        decoded, _ = encoder.decode(encoder.encode(value), 0)
        assert decoded == value
    else:
        # Called directly on an unrepresentable value the encoder still refuses.
        with pytest.raises(EncodingError):
            encoder.encode(value)


@functools.lru_cache(maxsize=None)
def _trained(dataset: str):
    """``(records, pbc coder, pbc_f coder)`` trained once per dataset."""
    records = load_dataset(dataset, count=300, seed=1)
    pbc_f = codec_by_name("pbc_f").record_coder(codec_by_name("pbc_f").train(records[:256]))
    return records, PBCCompressor(dictionary=pbc_f.dictionary), pbc_f


@st.composite
def mutated_records(draw, dataset: str):
    """A dataset record after up to three single-character edits drawn from
    :data:`NASTY` (a digit of a typed field becoming ``'٣'`` is the case that
    used to raise), or arbitrary text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.one_of(nasty_text, st.text(max_size=40)))
    record = draw(st.sampled_from(_trained(dataset)[0]))
    for _ in range(draw(st.integers(0, 3))):
        position = draw(st.integers(0, len(record)))
        edit = draw(st.sampled_from(("insert", "delete", "substitute")))
        character = draw(st.sampled_from(NASTY))
        if edit == "insert":
            record = record[:position] + character + record[position:]
        elif edit == "delete":
            record = record[:position] + record[position + 1 :]
        else:
            record = record[:position] + character + record[position + 1 :]
    return record


@pytest.mark.parametrize("dataset", ["kv1", "hdfs"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_roundtrip_never_raises_for_any_text(dataset, data):
    record = data.draw(mutated_records(dataset))
    for coder in _trained(dataset)[1:]:
        assert coder.decompress(coder.compress(record)) == record


class TestReproducedFailures:
    """The exact values of the issue, each of which raised before the fix."""

    def test_unicode_digits_in_a_typed_field_become_an_outlier(self):
        records, pbc, pbc_f = _trained("kv1")
        record = next(r for r in records if not pbc.compress(r).startswith(OUTLIER_PREFIX))
        assert record[-6:].isascii() and record[-6:].isdigit()
        poisoned = record[:-6] + "١٠٤٧١٣"  # Arabic-Indic: \d matches, INT cannot store
        for coder in (pbc, pbc_f):
            payload = coder.compress(poisoned)
            assert payload.startswith(OUTLIER_PREFIX)
            assert coder.decompress(payload) == poisoned

    def test_non_ascii_characters_do_not_match_a_char_field(self):
        dictionary = PatternDictionary()
        dictionary.add(
            Pattern(
                pattern_id=1,
                literals=("id=", ";n=", ";c=", ""),
                encoders=(IntEncoder(3), VarintEncoder(), CharEncoder(2)),
            )
        )
        coder = PBCCompressor(dictionary=dictionary)
        assert not coder.compress("id=123;n=45;c=a!").startswith(OUTLIER_PREFIX)
        for record in ("id=123;n=45;c=é!", "id=12٣;n=45;c=a!", "id=123;n=٤5;c=a!"):
            payload = coder.compress(record)
            assert payload.startswith(OUTLIER_PREFIX), record
            assert coder.decompress(payload) == record

    @pytest.mark.parametrize("record", ["num=1234\n", "GET /index\n", "GET /index\n\n"])
    def test_a_trailing_newline_survives(self, record):
        # ``$`` also matches before a final newline: the record used to match
        # and come back without it.
        dictionary = PatternDictionary()
        dictionary.add(Pattern(pattern_id=1, literals=("num=", ""), encoders=(IntEncoder(4),)))
        dictionary.add(Pattern(pattern_id=2, literals=("GET /", ""), encoders=(VarcharEncoder(),)))
        coder = PBCCompressor(dictionary=dictionary)
        assert coder.decompress(coder.compress(record)) == record

    @pytest.mark.parametrize("backend", ["tierbase", "lsm"])
    def test_a_served_write_of_such_a_value_is_stored(self, backend, tmp_path):
        """Over the wire: ``SET``/``MSET`` used to answer ``ERR EncodingError``."""
        records = _trained("kv1")[0]
        poisoned = records[0][:-6] + "١٠٤٧١٣"
        config = ServiceConfig(
            shard_count=1, backend=backend, directory=tmp_path if backend == "lsm" else None
        )
        with KVService(config) as service:
            service.train(records[:256])
            served = KVServer(service, ServerConfig(port=0))
            served.start()
            try:
                with KVClient(*served.address, pool_size=1, timeout=30.0) as client:
                    client.set("single", poisoned)
                    client.mset([("a", records[1]), ("b", poisoned), ("c", records[2])])
                    assert client.mget(["single", "a", "b", "c"]) == [
                        poisoned, records[1], poisoned, records[2]
                    ]
            finally:
                served.stop()
