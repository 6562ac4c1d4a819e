"""Tests for the scenario suite: key distributions, the mix registry, runner.

The distribution tests pin determinism (same seed → same picks), bounds
(every pick lands in ``[0, n)`` even while ``n`` grows), and shape (zipfian
skews to a small hot set, latest skews to the newest records).  The runner
tests pin the acknowledged-counter insert scheme and run a real two-mix
suite in-process, asserting the oracle's zero-lost/zero-corrupt bar and
the machine-readable row schema the CI artifact is built from.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.scenarios import (
    SCENARIOS,
    LatestKeyChooser,
    ScenarioSpec,
    UniformKeyChooser,
    ZipfianKeyChooser,
    get_scenario,
    key_for,
    make_chooser,
    run_suite,
    scenario_names,
)
from repro.scenarios.runner import _Accounting


class TestKeyDistributions:
    @pytest.mark.parametrize("name", ["uniform", "zipfian", "latest"])
    def test_picks_are_deterministic_and_in_bounds(self, name):
        chooser = make_chooser(name)
        picks = [chooser.choose(random.Random(seed), 100) for seed in range(300)]
        again = [chooser.choose(random.Random(seed), 100) for seed in range(300)]
        assert picks == again
        assert all(0 <= pick < 100 for pick in picks)

    @pytest.mark.parametrize("name", ["uniform", "zipfian", "latest"])
    def test_bounds_hold_while_the_record_space_grows(self, name):
        chooser = make_chooser(name)
        rng = random.Random(7)
        for count in (1, 2, 3, 10, 50, 500, 501, 499, 2000):
            for _ in range(50):
                assert 0 <= chooser.choose(rng, count) < count

    def test_zipfian_rank_zero_is_the_hottest(self):
        chooser = ZipfianKeyChooser(scrambled=False)
        rng = random.Random(2023)
        counts = Counter(chooser.rank(rng, 1000) for _ in range(5000))
        assert counts[0] == max(counts.values())
        # YCSB-grade skew: 1% of the ranks draw well over a third of the
        # traffic (theta=0.99 over 1000 records puts ~39% on the top 10).
        assert sum(counts[rank] for rank in range(10)) > 1500

    def test_scrambled_zipfian_spreads_the_hot_set(self):
        chooser = ZipfianKeyChooser()
        rng = random.Random(2023)
        counts = Counter(chooser.choose(rng, 1000) for _ in range(5000))
        # Still heavily skewed overall, but not clustered at the low indexes.
        assert max(counts.values()) > 100
        assert any(index >= 500 for index, _ in counts.most_common(5))

    def test_latest_favours_the_newest_records(self):
        chooser = LatestKeyChooser()
        rng = random.Random(11)
        picks = [chooser.choose(rng, 1000) for _ in range(3000)]
        assert sum(1 for pick in picks if pick >= 900) > len(picks) // 2

    def test_uniform_covers_the_space(self):
        chooser = UniformKeyChooser()
        rng = random.Random(5)
        picks = {chooser.choose(rng, 20) for _ in range(2000)}
        assert picks == set(range(20))

    def test_single_record_space(self):
        for name in ("uniform", "zipfian", "latest"):
            assert make_chooser(name).choose(random.Random(0), 1) == 0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            make_chooser("pareto")
        with pytest.raises(ValueError):
            UniformKeyChooser().choose(random.Random(0), 0)
        with pytest.raises(ValueError):
            ZipfianKeyChooser(theta=1.0)


class TestMixRegistry:
    def test_registry_holds_ycsb_and_paper_mixes(self):
        names = scenario_names()
        assert [name for name in names if name.startswith("ycsb_")] == [
            "ycsb_a", "ycsb_b", "ycsb_c", "ycsb_d", "ycsb_e", "ycsb_f",
        ]
        assert {"paper_logs", "paper_json", "paper_trades"} <= set(names)
        assert len(names) == 9

    def test_all_fractions_sum_to_one(self):
        for spec in SCENARIOS.values():
            total = spec.read + spec.update + spec.insert + spec.scan + spec.rmw
            assert total == pytest.approx(1.0)

    def test_scan_mixes_declare_a_scan_length(self):
        for spec in SCENARIOS.values():
            if spec.scan > 0:
                assert spec.max_scan_length >= 1

    def test_lookup_is_case_insensitive_and_typed(self):
        assert get_scenario("YCSB_A") is SCENARIOS["ycsb_a"]
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("ycsb_z")

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            ScenarioSpec("bad", "", dataset="kv1", distribution="zipfian", read=0.5)
        with pytest.raises(ValueError, match="max_scan_length"):
            ScenarioSpec("bad", "", dataset="kv1", distribution="zipfian", scan=1.0)
        with pytest.raises(ValueError, match="distribution"):
            ScenarioSpec("bad", "", dataset="kv1", distribution="pareto", read=1.0)
        with pytest.raises(ValueError, match="negative"):
            ScenarioSpec(
                "bad", "", dataset="kv1", distribution="zipfian", read=1.5, update=-0.5
            )


class TestRunnerPlumbing:
    def test_key_order_equals_insert_order(self):
        keys = [key_for(index) for index in (0, 1, 9, 10, 99, 100, 12345678)]
        assert keys == sorted(keys)

    def test_acknowledged_counter_advances_contiguously(self):
        accounting = _Accounting(10)
        first, second, third = (accounting.reserve_insert() for _ in range(3))
        assert (first, second, third) == (10, 11, 12)
        accounting.acknowledge_insert(second)  # gap at `first`: not visible yet
        assert accounting.snapshot_visible() == 10
        accounting.acknowledge_insert(first)  # gap closed: both become visible
        assert accounting.snapshot_visible() == 12
        accounting.acknowledge_insert(third)
        assert accounting.snapshot_visible() == 13


ROW_FIELDS = {
    "scenario", "backend", "operations", "errors", "offered_rate",
    "achieved_rate", "p50_ms", "p95_ms", "p99_ms", "ops", "error_kinds",
    "scan_count", "scan_items", "avg_scan_len", "max_scan_len", "records",
    "lost", "corrupt", "unordered",
}


class TestSuiteSmoke:
    def test_two_mix_suite_is_clean_on_both_backends(self):
        results = run_suite(
            ["ycsb_a", "ycsb_e"],
            backends=("tierbase", "lsm"),
            operations=120,
            rate=3000.0,
            records=64,
            value_count=64,
            compressor="none",
        )
        assert [(result.backend, result.scenario) for result in results] == [
            ("tierbase", "ycsb_a"), ("tierbase", "ycsb_e"),
            ("lsm", "ycsb_a"), ("lsm", "ycsb_e"),
        ]
        for result in results:
            row = result.row()
            assert set(row) == ROW_FIELDS
            assert result.clean, row
            assert row["operations"] + row["errors"] == 120
            assert row["errors"] == 0
        scan_rows = [r.row() for r in results if r.scenario == "ycsb_e"]
        for row in scan_rows:
            assert row["scan_count"] > 0
            assert row["scan_items"] > 0
            assert 1 <= row["max_scan_len"] <= 64
            assert row["records"] >= 64  # inserts landed and were acknowledged

    def test_trainable_compressor_suite_decodes_cleanly(self):
        """The oracle's corrupt tally doubles as a stale-decode detector."""
        results = run_suite(
            ["paper_trades"],
            backends=("tierbase",),
            operations=100,
            rate=3000.0,
            records=48,
            value_count=48,
            compressor="pbc_f",
        )
        (result,) = results
        assert result.clean, result.row()
        assert result.load.errors == 0
