"""Agglomerative minimal encoding-length clustering (Figure 3, Sections 4-5).

Each record starts as its own cluster; in every iteration the pair of clusters
with the minimal criterion score (encoding-length increment for the paper's
method) is merged, until ``k`` clusters remain.  The 1-gram distance pruning of
Section 5.1 is applied when the criterion supports it:

1. the first candidate's exact score initialises the running minimum ``MIN``;
2. for subsequent candidates the 1-gram lower bound is computed first and the
   exact DP is skipped when the bound already exceeds ``MIN``;
3. the DP itself is abandoned early once a full row exceeds ``MIN``
   (:func:`repro.core.alignment.merge_increment_bounded`).

Two engineering knobs exist for the pure-Python substrate and are documented in
docs/ARCHITECTURE.md: an optional *signature pre-grouping* stage that merges records with
an identical literal/digit-run shape before the quadratic loop starts, and a cap
on the number of seed clusters.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.core.alignment import merge_increment_bounded, merge_increment_peak, monotonic_merge
from repro.core.criteria import ClusterState, EncodingLengthCriterion, MergeCriterion
from repro.core.distance import one_gram_distance_counters, symbol_counter
from repro.core.pattern import WILDCARD, tokens_from_string
from repro.exceptions import ClusteringError

_ALNUM_RUN = re.compile(r"[0-9A-Za-z]+")


def _classify_run(match: re.Match) -> str:
    run = match.group(0)
    if run.isdigit():
        return "#"
    if any(character.isdigit() for character in run):
        return "X"
    return "A"


def record_signature(record: str) -> str:
    """Cheap structural signature used for seed pre-grouping.

    Every maximal alphanumeric run is collapsed to one class character: ``#``
    for all-digit runs, ``X`` for mixed digit/letter runs (hex ids, UUID parts,
    hashes), ``A`` for all-letter runs; punctuation is kept verbatim.  Records
    that share a signature are generated by the same template with only field
    values differing, so merging them is always beneficial; doing it before the
    quadratic agglomerative loop dramatically reduces the number of seed
    clusters without changing which patterns can be discovered.
    """
    return _ALNUM_RUN.sub(_classify_run, record)


@dataclass
class ClusteringStats:
    """Instrumentation of one clustering run (used by the Figure 8 benchmark)."""

    initial_clusters: int = 0
    final_clusters: int = 0
    merges: int = 0
    dp_calls: int = 0
    dp_pruned_by_bound: int = 0
    dp_pruned_by_early_exit: int = 0
    elapsed_seconds: float = 0.0
    pair_evaluations: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view for report rendering."""
        return {
            "initial_clusters": self.initial_clusters,
            "final_clusters": self.final_clusters,
            "merges": self.merges,
            "dp_calls": self.dp_calls,
            "dp_pruned_by_bound": self.dp_pruned_by_bound,
            "dp_pruned_by_early_exit": self.dp_pruned_by_early_exit,
            "pair_evaluations": self.pair_evaluations,
            "elapsed_seconds": self.elapsed_seconds,
        }


class _PairMemo:
    """What earlier rounds learned about a pair of clusters no merge has touched since.

    The bounded DP is abandoned exactly under bounds below its *peak*, the
    highest row minimum, which does not depend on the bound: a run that
    finished under one bound returns the same increment under any larger one,
    and a run abandoned under one bound is abandoned under any smaller one.
    """

    __slots__ = ("bound", "score", "finished", "abandoned")

    def __init__(self, bound: float) -> None:
        self.bound = bound  # the 1-gram lower bound
        self.score: float | None = None  # criterion.score, without the merged pattern
        self.finished: tuple[float, int] | None = None  # (a bound it finishes under, increment)
        self.abandoned: float | None = None  # a bound it is abandoned under

    def increment_under(
        self, limit: int, cluster_a: ClusterState, cluster_b: ClusterState, stats: ClusteringStats
    ) -> int | None:
        """What ``merge_increment_bounded(..., limit)`` returns, running a DP only when needed."""
        if self.finished is not None and self.finished[0] <= limit:
            return self.finished[1]
        if self.abandoned is not None and limit <= self.abandoned:
            return None
        stats.dp_calls += 1
        pair = (cluster_a.tokens, cluster_b.tokens, cluster_a.size, cluster_b.size)
        if self.finished is None and self.abandoned is None:
            increment = merge_increment_bounded(*pair, limit)
            if increment is None:
                self.abandoned = limit
            else:
                self.finished = (limit, increment)
            return increment
        # A second question the first run cannot answer: run to the end once,
        # and the peak answers every bound from now on.
        increment, peak = merge_increment_peak(*pair)
        self.finished, self.abandoned = (peak, increment), peak - 1
        return increment if peak <= limit else None


@dataclass
class ClusteringResult:
    """Final clusters plus instrumentation."""

    clusters: list[ClusterState]
    stats: ClusteringStats = field(default_factory=ClusteringStats)


class AgglomerativeClusterer:
    """Greedy minimal-score agglomerative clustering over record samples."""

    def __init__(
        self,
        target_clusters: int = 16,
        criterion: MergeCriterion | None = None,
        use_pruning: bool = True,
        pre_group: bool = True,
        max_seed_clusters: int | None = 256,
        max_pattern_prefix: int | None = 512,
        max_group_representatives: int = 16,
    ) -> None:
        if target_clusters < 1:
            raise ClusteringError("target_clusters must be at least 1")
        self.target_clusters = target_clusters
        self.criterion = criterion if criterion is not None else EncodingLengthCriterion()
        self.use_pruning = use_pruning
        self.pre_group = pre_group
        self.max_seed_clusters = max_seed_clusters
        self.max_pattern_prefix = max_pattern_prefix
        self.max_group_representatives = max(1, max_group_representatives)

    # ------------------------------------------------------------------ seeds

    def _record_tokens(self, record: str) -> list:
        """Token sequence for one record, capped to ``max_pattern_prefix`` characters.

        Records longer than the cap contribute only their prefix to the pattern
        search; the tail is covered by a trailing wildcard and therefore lands
        in the residual subsequence.  This bounds the O(n*m) merge DP on very
        long records (a Python-substrate engineering knob, see docs/ARCHITECTURE.md).
        """
        cap = self.max_pattern_prefix
        if cap is not None and len(record) > cap:
            return tokens_from_string(record[:cap]) + [WILDCARD]
        return tokens_from_string(record)

    def _seed_clusters(self, records: list[str], stats: ClusteringStats) -> list[ClusterState]:
        """Build the initial cluster list, optionally pre-grouping by signature."""
        clusters: list[ClusterState] = []
        if self.pre_group:
            groups: dict[str, list[int]] = {}
            for index, record in enumerate(records):
                groups.setdefault(record_signature(record), []).append(index)
            for indices in groups.values():
                clusters.append(self._cluster_from_members(records, indices, stats))
        else:
            for index, record in enumerate(records):
                tokens = self._record_tokens(record)
                clusters.append(
                    ClusterState(
                        tokens=tokens,
                        members=[index],
                        size=1,
                        counter=symbol_counter(tokens),
                        total_record_length=len(record),
                    )
                )
        return clusters

    def _cluster_from_members(
        self, records: list[str], indices: list[int], stats: ClusteringStats
    ) -> ClusterState:
        """Merge all records of one signature group into a single cluster.

        Only the first ``max_group_representatives`` members take part in the
        pattern-merging DP; the remaining members join the cluster without a DP
        pass (their residuals are extracted later, at pattern-build time).  This
        keeps pre-grouping linear in the group size.
        """
        tokens = self._record_tokens(records[indices[0]])
        size = 1
        total_length = len(records[indices[0]])
        for position, index in enumerate(indices[1:], start=1):
            if position < self.max_group_representatives:
                result = monotonic_merge(tokens, self._record_tokens(records[index]), size, 1)
                stats.dp_calls += 1
                tokens = result.tokens
            size += 1
            total_length += len(records[index])
        counter = Counter()
        for index in indices:
            counter.update(records[index])
        cluster = ClusterState(
            tokens=tokens,
            members=list(indices),
            size=size,
            counter=counter,
            total_record_length=total_length,
        )
        return cluster

    # ------------------------------------------------------------------- loop

    def cluster(self, records: list[str]) -> ClusteringResult:
        """Cluster ``records`` down to at most ``target_clusters`` clusters."""
        if not records:
            raise ClusteringError("cannot cluster an empty record sample")
        stats = ClusteringStats()
        started = time.perf_counter()

        clusters = self._seed_clusters(records, stats)
        stats.initial_clusters = len(clusters)

        if self.max_seed_clusters is not None and len(clusters) > self.max_seed_clusters:
            # Keep the largest groups as-is and fold the long tail into the most
            # similar retained cluster; this bounds the quadratic loop.
            clusters.sort(key=lambda cluster: cluster.size, reverse=True)
            retained = clusters[: self.max_seed_clusters]
            for extra in clusters[self.max_seed_clusters :]:
                best_index = min(
                    range(len(retained)),
                    key=lambda i: one_gram_distance_counters(retained[i].counter, extra.counter),
                )
                self._merge_into(retained, best_index, extra, stats)
            clusters = retained

        # Pairs are remembered by their clusters' first members, which a merge
        # never changes; a merge forgets every pair it touched.
        memo: dict[tuple[int, int], _PairMemo] = {}
        while len(clusters) > self.target_clusters:
            pair = self._closest_pair(clusters, stats, memo)
            if pair is None:
                break
            index_a, index_b, merged_tokens = pair
            touched = {clusters[index_a].members[0], clusters[index_b].members[0]}
            self._merge_pair(clusters, index_a, index_b, merged_tokens)
            memo = {key: known for key, known in memo.items() if touched.isdisjoint(key)}
            stats.merges += 1

        stats.final_clusters = len(clusters)
        stats.elapsed_seconds = time.perf_counter() - started
        return ClusteringResult(clusters=clusters, stats=stats)

    # ----------------------------------------------------------------- helpers

    def _closest_pair(
        self, clusters: list[ClusterState], stats: ClusteringStats, memo: dict[tuple[int, int], _PairMemo]
    ) -> tuple[int, int, list] | None:
        """Find the cluster pair with minimal criterion score (with pruning).

        When the criterion supports it, candidate pairs are visited in ascending
        order of their 1-gram lower bound: the running minimum then becomes
        tight after the first few exact evaluations and the remaining pairs are
        either skipped outright (bound already above the minimum) or abandoned
        early inside the bounded DP — the Section 5.1 strategy.

        A bound or DP outcome is a function of the two clusters alone, so
        ``memo`` carries them from round to round and only pairs that touch
        the last merged cluster are evaluated again; every decision, and so the
        merge sequence, is the one a from-scratch evaluation makes.
        ``stats.dp_calls`` counts the DPs actually run.
        """
        best_score: float | None = None
        best: tuple[int, int, list] | None = None
        use_bound = self.use_pruning and self.criterion.supports_bounded_search()
        pairs: list[tuple[int, int, _PairMemo]] = []
        for index_a, cluster_a in enumerate(clusters):
            for index_b in range(index_a + 1, len(clusters)):
                cluster_b = clusters[index_b]
                key = (cluster_a.members[0], cluster_b.members[0])
                known = memo.get(key)
                if known is None:
                    bound = self.criterion.lower_bound(cluster_a, cluster_b) if use_bound else 0.0
                    known = memo[key] = _PairMemo(bound)
                pairs.append((index_a, index_b, known))
        if use_bound:
            pairs.sort(key=lambda pair: pair[2].bound)
        for index_a, index_b, known in pairs:
            cluster_a = clusters[index_a]
            cluster_b = clusters[index_b]
            stats.pair_evaluations += 1
            if best_score is not None and use_bound:
                if known.bound > best_score:
                    stats.dp_pruned_by_bound += 1
                    continue
                pruned = known.increment_under(int(best_score), cluster_a, cluster_b, stats)
                if pruned is None:
                    stats.dp_pruned_by_early_exit += 1
                    continue
                if pruned >= best_score:
                    continue
            # With pruning the traceback DP runs only for the first pair and for
            # a new best.  Only its score is remembered: a merged pattern per
            # pair would be quadratic in memory.
            merged_tokens = None
            if known.score is None:
                known.score, merged_tokens = self.criterion.score(cluster_a, cluster_b)
                stats.dp_calls += 1
            if best_score is None or known.score < best_score:
                best_score = known.score
                best = (index_a, index_b, merged_tokens)
        if best is not None and best[2] is None:
            index_a, index_b, _ = best
            _score, merged_tokens = self.criterion.score(clusters[index_a], clusters[index_b])
            stats.dp_calls += 1
            best = (index_a, index_b, merged_tokens)
        return best

    def _merge_pair(self, clusters: list[ClusterState], index_a: int, index_b: int, merged_tokens: list) -> None:
        """Merge cluster ``index_b`` into ``index_a`` using precomputed tokens."""
        cluster_a = clusters[index_a]
        cluster_b = clusters[index_b]
        cluster_a.tokens = merged_tokens
        cluster_a.members.extend(cluster_b.members)
        cluster_a.size += cluster_b.size
        cluster_a.counter = cluster_a.counter + cluster_b.counter
        cluster_a.total_record_length += cluster_b.total_record_length
        del clusters[index_b]

    def _merge_into(
        self, clusters: list[ClusterState], index: int, extra: ClusterState, stats: ClusteringStats
    ) -> None:
        """Fold ``extra`` into ``clusters[index]`` (seed-cap overflow path)."""
        target = clusters[index]
        result = monotonic_merge(target.tokens, extra.tokens, target.size, extra.size)
        stats.dp_calls += 1
        target.tokens = result.tokens
        target.members.extend(extra.members)
        target.size += extra.size
        target.counter = target.counter + extra.counter
        target.total_record_length += extra.total_record_length
