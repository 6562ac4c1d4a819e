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
from dataclasses import dataclass

from repro.core.pattern import Pattern, PatternDictionary


@dataclass(frozen=True)
class MatchResult:
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

    def prefilter(self, record: str) -> bool:
        """Cheap necessary condition for a match (ordered literal containment)."""
        if self.literal_size > len(record):
            return False
        if self.prefix and not record.startswith(self.prefix):
            return False
        if self.suffix and not record.endswith(self.suffix):
            return False
        position = len(self.prefix)
        for segment in self.inner_literals:
            found = record.find(segment, position)
            if found < 0:
                return False
            position = found + len(segment)
        return True

    def match(self, record: str) -> MatchResult | None:
        """Full regex match; returns the extracted field values on success."""
        matched = self.regex.match(record)
        if matched is None:
            return None
        return MatchResult(pattern=self.pattern, field_values=matched.groups())


class MultiPatternMatcher:
    """Matches records against a pattern dictionary, longest pattern first.

    Two optimizations on top of the straight prefilter-every-pattern loop
    (both preserved behaviourally — ``tests/test_matcher.py`` keeps the
    original loop as a reference oracle and checks this class against it; the
    frozen ``matcher_candidate_index`` row in ``BENCH_service.json`` is the
    measured pair):

    * **candidate index** — patterns are bucketed by the first character of
      their literal prefix.  A record can only match a pattern whose prefix
      starts with the record's first character (or whose prefix is empty),
      so one dict lookup replaces most of the per-pattern ``startswith``
      prefilters.  Bucket lists are built from the globally sorted pattern
      list, so longest-pattern-wins order is preserved exactly.
    * **match memo** — machine-generated streams repeat records heavily
      (Section 2's observation that log/telemetry data is template-shaped),
      so up to ``memo_entries`` distinct records memoize their
      :class:`MatchResult`.  The memo is cleared wholesale when full, which
      bounds memory without LRU bookkeeping.  ``memo_entries=0`` disables
      memoization (the dictionary is immutable after construction, so a
      memoized result can never go stale).
    """

    #: default bound on distinct records memoized per matcher.
    DEFAULT_MEMO_ENTRIES = 4096

    def __init__(
        self, dictionary: PatternDictionary, memo_entries: int = DEFAULT_MEMO_ENTRIES
    ) -> None:
        self._compiled = sorted(
            (_CompiledPattern(pattern) for pattern in dictionary),
            key=lambda compiled: compiled.literal_size,
            reverse=True,
        )
        # Patterns with no prefix literal can match any first character, so
        # they appear in every bucket and form the empty-record fallback.
        unprefixed = tuple(
            compiled for compiled in self._compiled if not compiled.prefix
        )
        self._candidates: dict[str, tuple[_CompiledPattern, ...]] = {}
        for first in {compiled.prefix[0] for compiled in self._compiled if compiled.prefix}:
            self._candidates[first] = tuple(
                compiled
                for compiled in self._compiled
                if not compiled.prefix or compiled.prefix[0] == first
            )
        self._unprefixed = unprefixed
        self._memo_entries = max(0, memo_entries)
        self._memo: dict[str, MatchResult | None] = {}

    def __len__(self) -> int:
        return len(self._compiled)

    def match(self, record: str) -> MatchResult | None:
        """Return the longest-pattern match for ``record``, or ``None`` (outlier)."""
        memo = self._memo
        if self._memo_entries:
            try:
                return memo[record]
            except KeyError:
                pass
        candidates = (
            self._candidates.get(record[0], self._unprefixed)
            if record
            else self._unprefixed
        )
        result = None
        for compiled in candidates:
            if not compiled.prefilter(record):
                continue
            result = compiled.match(record)
            if result is not None:
                break
        if self._memo_entries:
            if len(memo) >= self._memo_entries:
                memo.clear()
            memo[record] = result
        return result

    def match_all(self, record: str) -> list[MatchResult]:
        """All pattern matches for ``record`` (used by tests and diagnostics)."""
        results = []
        for compiled in self._compiled:
            if not compiled.prefilter(record):
                continue
            result = compiled.match(record)
            if result is not None:
                results.append(result)
        return results
