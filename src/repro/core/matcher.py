"""Multi-pattern matching with longest-pattern-wins selection (Figure 1b).

The paper uses Hyperscan to match every record against the regular expressions
of all patterns and keeps the longest matching pattern.  This module provides a
pure-Python substitute with the same contract:

* every pattern is compiled to an anchored regex with one capture group per
  field (typed by the field encoder);
* candidate patterns are pre-filtered with a cheap literal-segment containment
  check (all literal segments must occur in the record, in order), which plays
  the role of Hyperscan's literal pre-matching;
* surviving candidates are tried in decreasing order of literal size and the
  first full match wins, which is exactly "select the longest pattern".
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.core.pattern import Pattern, PatternDictionary


class MatchResult(NamedTuple):
    """A successful pattern match: the pattern and the extracted field values."""

    pattern: Pattern
    field_values: tuple[str, ...]


class _CompiledPattern:
    """A pattern with its compiled regex and pre-filter literals."""

    __slots__ = ("pattern", "regex", "prefix", "suffix", "inner_literals", "literal_size")

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self.regex = re.compile(pattern.to_regex(), re.DOTALL)
        literals = pattern.literals
        self.prefix = literals[0]
        self.suffix = literals[-1] if len(literals) > 1 else ""
        self.inner_literals = tuple(segment for segment in literals[1:-1] if segment)
        self.literal_size = pattern.literal_size


class MultiPatternMatcher:
    """Matches records against a pattern dictionary, longest pattern first.

    Patterns are bucketed by the first character of their literal prefix: a
    record can only match a pattern whose prefix starts with the record's
    first character (or whose prefix is empty), so one dict lookup replaces
    most of the per-pattern prefilters.  Bucket lists are built from the
    globally sorted pattern list, so longest-pattern-wins order is preserved
    exactly — ``tests/test_matcher.py`` checks this class against the plain
    try-every-regex loop.  Deliberately not one alternation regex: a failing
    branch with lazy ``(.*?)`` fields backtracks inside ``re`` where the
    ``str.find`` prefilter rejects it in one pass (ROADMAP item 6).
    """

    def __init__(self, dictionary: PatternDictionary) -> None:
        self._compiled = sorted(
            (_CompiledPattern(pattern) for pattern in dictionary),
            key=lambda compiled: compiled.literal_size,
            reverse=True,
        )
        # Patterns with no prefix literal can match any first character, so
        # they appear in every bucket and form the empty-record fallback.
        self._unprefixed = tuple(
            compiled for compiled in self._compiled if not compiled.prefix
        )
        self._candidates: dict[str, tuple[_CompiledPattern, ...]] = {}
        for first in {compiled.prefix[0] for compiled in self._compiled if compiled.prefix}:
            self._candidates[first] = tuple(
                compiled
                for compiled in self._compiled
                if not compiled.prefix or compiled.prefix[0] == first
            )

    def __len__(self) -> int:
        return len(self._compiled)

    def match(self, record: str) -> MatchResult | None:
        """Return the longest-pattern match for ``record``, or ``None`` (outlier)."""
        size = len(record)
        # ``record[:1]`` is "" for the empty record, which has no bucket.
        for compiled in self._candidates.get(record[:1], self._unprefixed):
            # Prefilter, a cheap necessary condition: the literal segments
            # occur in the record, in order.
            if compiled.literal_size > size:
                continue
            prefix = compiled.prefix
            if prefix and not record.startswith(prefix):
                continue
            suffix = compiled.suffix
            if suffix and not record.endswith(suffix):
                continue
            position = len(prefix)
            for segment in compiled.inner_literals:
                position = record.find(segment, position)
                if position < 0:
                    break
                position += len(segment)
            else:
                matched = compiled.regex.match(record)
                if matched is not None:
                    return MatchResult(compiled.pattern, matched.groups())
        return None

    def match_all(self, record: str) -> list[MatchResult]:
        """All pattern matches for ``record``, longest first (tests and diagnostics)."""
        return [
            MatchResult(compiled.pattern, matched.groups())
            for compiled in self._compiled
            if (matched := compiled.regex.match(record)) is not None
        ]
