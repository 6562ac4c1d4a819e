"""Tests for the multi-pattern matcher (Hyperscan substitute)."""

import functools

from hypothesis import given, settings, strategies as st

from repro.core.encoders import CharEncoder, IntEncoder, VarcharEncoder, VarintEncoder
from repro.core.matcher import MatchResult, MultiPatternMatcher, _CompiledPattern
from repro.core.pattern import Pattern, PatternDictionary


class LinearScanMatcher:
    """Reference oracle, the definition itself: every pattern's regex tried
    per record, longest pattern first — no candidate index and no literal
    prefilter, the two things the live loop adds.

    Shares :class:`repro.core.matcher._CompiledPattern` with the live matcher
    so the regexes are identical and the comparison isolates exactly those two.
    """

    def __init__(self, dictionary) -> None:
        self._compiled = sorted(
            (_CompiledPattern(pattern) for pattern in dictionary),
            key=lambda compiled: compiled.literal_size,
            reverse=True,
        )

    def match(self, record: str):
        for compiled in self._compiled:
            matched = compiled.regex.match(record)
            if matched is not None:
                return MatchResult(compiled.pattern, matched.groups())
        return None


def build_dictionary() -> PatternDictionary:
    dictionary = PatternDictionary()
    dictionary.add(
        Pattern(pattern_id=1, literals=("", "ob", ""), encoders=(VarcharEncoder(), VarcharEncoder()))
    )  # matches "*ob*"
    dictionary.add(
        Pattern(pattern_id=2, literals=("", "ooba", ""), encoders=(VarcharEncoder(), VarcharEncoder()))
    )  # matches "*ooba*"
    dictionary.add(
        Pattern(pattern_id=3, literals=("num=", ""), encoders=(IntEncoder(4),))
    )
    return dictionary


class TestMatching:
    def test_longest_pattern_wins(self):
        # The paper's Section 3.2 example: "foobar" matches both "*ob*" and
        # "*ooba*"; the longer pattern must be selected.
        matcher = MultiPatternMatcher(build_dictionary())
        match = matcher.match("foobar")
        assert match is not None
        assert match.pattern.pattern_id == 2
        assert match.pattern.reconstruct(match.field_values) == "foobar"

    def test_all_matches_are_returned_by_match_all(self):
        matcher = MultiPatternMatcher(build_dictionary())
        ids = {match.pattern.pattern_id for match in matcher.match_all("foobar")}
        assert ids == {1, 2}

    def test_typed_field_constrains_match(self):
        matcher = MultiPatternMatcher(build_dictionary())
        assert matcher.match("num=1234").pattern.pattern_id == 3
        # Non-digit payload cannot match the INT-typed pattern; no other pattern fits.
        assert matcher.match("num=abcd") is None

    def test_outlier_returns_none(self):
        matcher = MultiPatternMatcher(build_dictionary())
        assert matcher.match("zzz") is None

    def test_prefix_and_suffix_prefilter(self):
        dictionary = PatternDictionary()
        dictionary.add(Pattern(pattern_id=1, literals=("GET /", " HTTP/1.1"), encoders=(VarcharEncoder(),)))
        matcher = MultiPatternMatcher(dictionary)
        assert matcher.match("GET /index.html HTTP/1.1") is not None
        assert matcher.match("POST /index.html HTTP/1.1") is None
        assert matcher.match("GET /index.html HTTP/2") is None

    def test_empty_dictionary_matches_nothing(self):
        matcher = MultiPatternMatcher(PatternDictionary())
        assert len(matcher) == 0
        assert matcher.match("anything") is None

    def test_field_values_align_with_encoders(self):
        matcher = MultiPatternMatcher(build_dictionary())
        match = matcher.match("num=0042")
        assert match.field_values == ("0042",)


class TestCandidateIndex:
    """The first-character candidate buckets must be behaviourally invisible:
    same winner and same field values as the try-every-pattern loop."""

    def test_candidate_index_agrees_with_linear_scan(self):
        """The bucket index must select the same longest pattern as the
        try-every-pattern loop (``LinearScanMatcher`` above)."""
        from repro import PBCCompressor
        from repro.datasets import load_dataset

        sample = load_dataset("hdfs", count=128, seed=7)
        dictionary = PBCCompressor().train(sample).dictionary
        legacy = LinearScanMatcher(dictionary)
        current = MultiPatternMatcher(dictionary)
        probes = load_dataset("hdfs", count=64, seed=11) + ["", "zzz no match", sample[0] * 2]
        for record in probes:
            expected = legacy.match(record)
            actual = current.match(record)
            if expected is None:
                assert actual is None, record
            else:
                assert actual is not None, record
                assert actual.pattern.pattern_id == expected.pattern.pattern_id
                assert actual.field_values == expected.field_values

    def test_unprefixed_patterns_reach_every_first_character(self):
        dictionary = PatternDictionary()
        dictionary.add(
            Pattern(pattern_id=1, literals=("", "mid", ""), encoders=(VarcharEncoder(), VarcharEncoder()))
        )
        dictionary.add(Pattern(pattern_id=2, literals=("pre", ""), encoders=(VarcharEncoder(),)))
        matcher = MultiPatternMatcher(dictionary)
        # 'q' has no bucket of its own: the unprefixed fallback must serve it.
        assert matcher.match("q-mid-q").pattern.pattern_id == 1
        assert matcher.match("pretail").pattern.pattern_id == 2
        assert matcher.match("") is None


@functools.lru_cache(maxsize=None)
def _trained():
    """``(patterns, oracle, live matcher)`` over one trained hdfs dictionary."""
    from repro import PBCCompressor
    from repro.datasets import load_dataset

    dictionary = PBCCompressor().train(load_dataset("hdfs", count=128, seed=7)).dictionary
    return list(dictionary), LinearScanMatcher(dictionary), MultiPatternMatcher(dictionary)


#: Characters for field values and edits: literals of the hdfs patterns, digits,
#: and what a typed field must reject (non-ASCII digits and letters, newline).
_ALPHABET = "0123456789abcXYZ _-:./*٣９é\n"


@st.composite
def _near_pattern_records(draw):
    """A record instantiated from one of the trained patterns — every field
    filled with a value its encoder accepts — then mutated by at most one
    insert, delete or substitute; or the empty record."""
    if draw(st.integers(0, 19)) == 0:
        return ""
    pattern = draw(st.sampled_from(_trained()[0]))
    values = []
    for encoder in pattern.encoders:
        if isinstance(encoder, IntEncoder):
            values.append(draw(st.text("0123456789", min_size=encoder.digits, max_size=encoder.digits)))
        elif isinstance(encoder, VarintEncoder):
            values.append(str(draw(st.integers(0, 10**9))))
        elif isinstance(encoder, CharEncoder):
            values.append(draw(st.text("abcXYZ09 _", min_size=encoder.length, max_size=encoder.length)))
        else:
            values.append(draw(st.text(_ALPHABET, max_size=6)))
    record = pattern.reconstruct(values)
    edit = draw(st.sampled_from(("none", "insert", "delete", "substitute")))
    position = draw(st.integers(0, len(record)))
    character = draw(st.sampled_from(_ALPHABET))
    if edit == "insert":
        record = record[:position] + character + record[position:]
    elif edit == "delete":
        record = record[:position] + record[position + 1 :]
    elif edit == "substitute":
        record = record[:position] + character + record[position + 1 :]
    return record


class TestAgainstLinearScanOracle:
    @settings(max_examples=400, deadline=None)
    @given(record=_near_pattern_records())
    def test_same_winner_and_field_values(self, record):
        _, oracle, matcher = _trained()
        expected = oracle.match(record)
        actual = matcher.match(record)
        assert actual == expected
        if actual is not None:
            assert actual.pattern.reconstruct(actual.field_values) == record
            assert all(
                encoder.can_encode(value)
                for encoder, value in zip(actual.pattern.encoders, actual.field_values)
            )
