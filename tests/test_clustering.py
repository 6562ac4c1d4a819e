"""Tests for the agglomerative clustering loop and its optimisations."""

import pytest

from repro.core.clustering import AgglomerativeClusterer, record_signature
from repro.core.criteria import make_criterion
from repro.core.pattern import WILDCARD, tokens_to_display
from repro.datasets import load_dataset
from repro.exceptions import ClusteringError


def two_template_records() -> list[str]:
    group_a = [f"user-{index:03d}-login" for index in range(12)]
    group_b = [f"GET /api/v1/items/{index * 7} HTTP/1.1" for index in range(12)]
    return group_a + group_b


class TestRecordSignature:
    def test_digits_collapse(self):
        assert record_signature("abc-123") == "A-#"

    def test_mixed_runs_collapse_to_x(self):
        assert record_signature("id=7f3a9") == "A=X"

    def test_same_template_same_signature(self):
        assert record_signature("user-001-login") == record_signature("user-999-login")

    def test_different_templates_differ(self):
        assert record_signature("user-001-login") != record_signature("GET /x/1 HTTP/1.1")

    def test_punctuation_preserved(self):
        assert record_signature("a:b;c,d") == "A:A;A,A"


class TestClustering:
    def test_empty_input_rejected(self):
        with pytest.raises(ClusteringError):
            AgglomerativeClusterer().cluster([])

    def test_invalid_target_rejected(self):
        with pytest.raises(ClusteringError):
            AgglomerativeClusterer(target_clusters=0)

    def test_two_templates_yield_two_clusters(self):
        clusterer = AgglomerativeClusterer(target_clusters=2, pre_group=False)
        result = clusterer.cluster(two_template_records())
        assert len(result.clusters) == 2
        sizes = sorted(cluster.size for cluster in result.clusters)
        assert sizes == [12, 12]

    def test_cluster_patterns_contain_template_literals(self):
        clusterer = AgglomerativeClusterer(target_clusters=2, pre_group=False)
        result = clusterer.cluster(two_template_records())
        displays = sorted(tokens_to_display(cluster.tokens) for cluster in result.clusters)
        assert any("user-" in display for display in displays)
        assert any("HTTP/1.1" in display for display in displays)

    def test_pre_grouping_gives_same_cluster_count(self):
        records = two_template_records()
        plain = AgglomerativeClusterer(target_clusters=2, pre_group=False).cluster(records)
        grouped = AgglomerativeClusterer(target_clusters=2, pre_group=True).cluster(records)
        assert len(plain.clusters) == len(grouped.clusters) == 2

    def test_pruning_does_not_change_cluster_membership(self):
        records = two_template_records()
        with_pruning = AgglomerativeClusterer(target_clusters=2, use_pruning=True, pre_group=False).cluster(records)
        without_pruning = AgglomerativeClusterer(target_clusters=2, use_pruning=False, pre_group=False).cluster(records)
        as_sets = lambda result: {frozenset(cluster.members) for cluster in result.clusters}
        assert as_sets(with_pruning) == as_sets(without_pruning)

    def test_pruning_reduces_dp_work(self):
        records = two_template_records()
        with_pruning = AgglomerativeClusterer(target_clusters=2, use_pruning=True, pre_group=False).cluster(records)
        stats = with_pruning.stats
        assert stats.dp_pruned_by_bound + stats.dp_pruned_by_early_exit > 0

    def test_every_record_assigned_exactly_once(self):
        records = two_template_records()
        result = AgglomerativeClusterer(target_clusters=3, pre_group=False).cluster(records)
        members = sorted(index for cluster in result.clusters for index in cluster.members)
        assert members == list(range(len(records)))

    def test_max_seed_clusters_cap(self):
        records = [f"rec{index}{'x' * (index % 5)}" for index in range(30)]
        clusterer = AgglomerativeClusterer(target_clusters=4, pre_group=False, max_seed_clusters=8)
        result = clusterer.cluster(records)
        assert len(result.clusters) <= 8
        members = sorted(index for cluster in result.clusters for index in cluster.members)
        assert members == list(range(len(records)))

    def test_max_pattern_prefix_appends_trailing_wildcard(self):
        long_records = ["HEADER-" + str(index) + "x" * 100 for index in range(4)]
        clusterer = AgglomerativeClusterer(target_clusters=1, pre_group=False, max_pattern_prefix=10)
        result = clusterer.cluster(long_records)
        tokens = result.clusters[0].tokens
        assert tokens[-1] is WILDCARD
        assert len(tokens) <= 12

    def test_alternative_criteria_also_cluster(self):
        records = two_template_records()
        for name in ("entropy", "ed"):
            clusterer = AgglomerativeClusterer(
                target_clusters=2, criterion=make_criterion(name), pre_group=False
            )
            result = clusterer.cluster(records)
            assert len(result.clusters) == 2

    def test_stats_populated(self):
        result = AgglomerativeClusterer(target_clusters=2, pre_group=False).cluster(two_template_records())
        assert result.stats.initial_clusters == 24
        assert result.stats.final_clusters == 2
        assert result.stats.merges == 22
        assert result.stats.elapsed_seconds >= 0
        assert isinstance(result.stats.as_dict(), dict)


class FromScratchClusterer(AgglomerativeClusterer):
    """Oracle: forgets everything between rounds, so every round evaluates every pair."""

    def _closest_pair(self, clusters, stats, memo):
        return super()._closest_pair(clusters, stats, {})


class TestPairMemo:
    """Remembering untouched pairs across rounds must not move a single decision."""

    @pytest.mark.parametrize(
        "dataset, criterion, use_pruning",
        [("kv1", "el", True), ("kv1", "el", False), ("kv1", "entropy", False), ("apache", "el", True)],
    )
    def test_same_merges_and_pruning_decisions_as_from_scratch(self, dataset, criterion, use_pruning):
        records = list(load_dataset(dataset, count=14))
        options = dict(
            target_clusters=3, criterion=make_criterion(criterion), use_pruning=use_pruning, pre_group=False
        )
        remembered = AgglomerativeClusterer(**options).cluster(records)
        scratch = FromScratchClusterer(**options).cluster(records)

        describe = lambda result: [(cluster.members, cluster.tokens, cluster.size) for cluster in result.clusters]
        assert describe(remembered) == describe(scratch)
        decisions = ("merges", "pair_evaluations", "dp_pruned_by_bound", "dp_pruned_by_early_exit")
        assert [getattr(remembered.stats, name) for name in decisions] == [
            getattr(scratch.stats, name) for name in decisions
        ]
        # dp_calls counts DPs actually run: only for pairs touching the last merge.
        assert remembered.stats.dp_calls < scratch.stats.dp_calls
