"""Tests for the multi-pattern matcher (Hyperscan substitute)."""

from repro.core.encoders import IntEncoder, VarcharEncoder
from repro.core.matcher import MultiPatternMatcher, _CompiledPattern
from repro.core.pattern import Pattern, PatternDictionary


class LinearScanMatcher:
    """Reference oracle: the original matcher loop, every compiled pattern
    prefiltered per record, longest first (no candidate index, no memo).

    Shares :class:`repro.core.matcher._CompiledPattern` with the live matcher
    so the per-candidate regex/prefilter is identical — the equivalence check
    isolates exactly what the optimization changed (candidate selection).
    """

    def __init__(self, dictionary) -> None:
        self._compiled = sorted(
            (_CompiledPattern(pattern) for pattern in dictionary),
            key=lambda compiled: compiled.literal_size,
            reverse=True,
        )

    def match(self, record: str):
        for compiled in self._compiled:
            if not compiled.prefilter(record):
                continue
            result = compiled.match(record)
            if result is not None:
                return result
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


class TestCandidateIndexAndMemo:
    """The PR-8 fast paths (first-char candidate buckets + match memo) must be
    behaviourally invisible: same winner, same field values, bounded memory."""

    RECORDS = [
        "foobar", "fooba", "ob", "num=0042", "num=abcd", "zzz",
        "", "foobarfoobar", "num=0042extra",
    ]

    def test_memo_on_and_off_agree(self):
        dictionary = build_dictionary()
        memoized = MultiPatternMatcher(dictionary)
        unmemoized = MultiPatternMatcher(dictionary, memo_entries=0)
        for _ in range(3):  # repeats exercise the memo-hit path
            for record in self.RECORDS:
                expected = unmemoized.match(record)
                actual = memoized.match(record)
                if expected is None:
                    assert actual is None, record
                else:
                    assert actual is not None, record
                    assert actual.pattern.pattern_id == expected.pattern.pattern_id
                    assert actual.field_values == expected.field_values

    def test_memo_is_cleared_at_capacity_not_grown(self):
        matcher = MultiPatternMatcher(build_dictionary(), memo_entries=4)
        for index in range(100):
            matcher.match(f"num={index:04d}")
        assert len(matcher._memo) <= 4

    def test_memo_disabled_stores_nothing(self):
        matcher = MultiPatternMatcher(build_dictionary(), memo_entries=0)
        for record in self.RECORDS:
            matcher.match(record)
        assert matcher._memo == {}

    def test_candidate_index_agrees_with_linear_scan(self):
        """The bucket index must select the same longest pattern as the
        original prefilter-every-pattern loop (``LinearScanMatcher`` above)."""
        from repro import PBCCompressor
        from repro.datasets import load_dataset

        sample = load_dataset("hdfs", count=128, seed=7)
        dictionary = PBCCompressor().train(sample).dictionary
        legacy = LinearScanMatcher(dictionary)
        current = MultiPatternMatcher(dictionary, memo_entries=0)
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
