"""Tests for the paper-experiment package (reporting, Pareto analysis, registry, runners)."""

import random
from pathlib import Path

import pytest

from repro.bench import (
    BenchmarkSettings,
    EXPERIMENTS,
    ParetoPoint,
    experiment_ids,
    get_experiment,
    is_pareto_optimal,
    pareto_frontier,
    render_comparison,
    render_table,
    run_all,
    run_experiment,
    run_fig9_pattern_size,
    run_table2_dataset_statistics,
)
from repro.bench import paper_reference
from repro.bench.reporting import format_value

REPO_ROOT = Path(__file__).resolve().parent.parent

TINY = BenchmarkSettings(
    record_count=60,
    train_count=40,
    max_patterns=4,
    sample_size=24,
    datasets=("kv1", "kv4"),
)


class TestReporting:
    def test_render_empty(self):
        assert "(no rows)" in render_table([], title="empty")

    def test_render_alignment_and_title(self):
        rows = [{"dataset": "kv1", "ratio": 0.236}, {"dataset": "alilogs", "ratio": 0.425}]
        text = render_table(rows, title="Table X")
        lines = text.splitlines()
        assert lines[0] == "Table X"
        assert "dataset" in lines[1] and "ratio" in lines[1]
        assert "0.236" in text and "alilogs" in text

    def test_column_selection_and_missing_cells(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        text = render_table(rows, columns=["b", "a"])
        assert text.splitlines()[0].startswith("b")

    @pytest.mark.parametrize(
        ("value", "precision", "expected"),
        [
            (True, 3, "True"),
            (0.5, 3, "0.500"),
            (1 / 3, 1, "0.3"),
            (42, 3, "42"),
            ("kv1", 3, "kv1"),
            (None, 3, "None"),
        ],
    )
    def test_format_value(self, value, precision, expected):
        assert format_value(value, precision) == expected

    def test_every_line_shares_the_column_widths(self):
        rows = [{"method": "PBC_F", "ratio": 0.147}, {"method": "LZ4", "ratio": 0.5}]
        header, separator, *body = render_table(rows).splitlines()
        assert separator == "-" * len("method") + "-+-" + "-" * len("ratio")
        assert {len(line) for line in body} == {len(header)}
        assert [line.index("|") for line in (header, *body)] == [header.index("|")] * 3

    def test_precision_applies_to_float_cells_only(self):
        text = render_table([{"count": 7, "ratio": 0.23456}], precision=1)
        assert text.splitlines()[-1].split(" | ") == ["7    ", "0.2  "]

    def test_comparison_orders_label_paper_measured(self):
        rows = [{"measured": 0.25, "dataset": "kv1", "paper": 0.236, "extra": "x"}]
        header = render_comparison(rows, "measured", "paper", title="T3").splitlines()[1]
        assert [cell.strip() for cell in header.split("|")] == ["dataset", "paper", "measured"]


class TestPareto:
    def test_dominated_points_excluded(self):
        points = [
            ParetoPoint("good-ratio", 0.1, 10.0),
            ParetoPoint("good-speed", 0.5, 100.0),
            ParetoPoint("dominated", 0.6, 5.0),
        ]
        frontier = {point.name for point in pareto_frontier(points)}
        assert frontier == {"good-ratio", "good-speed"}
        assert is_pareto_optimal("good-ratio", points)
        assert not is_pareto_optimal("dominated", points)

    def test_single_point_is_optimal(self):
        points = [ParetoPoint("only", 0.3, 1.0)]
        assert pareto_frontier(points) == points

    def test_duplicate_points_both_kept(self):
        points = [ParetoPoint("a", 0.3, 1.0), ParetoPoint("b", 0.3, 1.0)]
        assert {point.name for point in pareto_frontier(points)} == {"a", "b"}

    def test_empty_input_has_empty_frontier(self):
        assert pareto_frontier([]) == []
        assert not is_pareto_optimal("anything", [])

    def test_unknown_name_is_not_optimal(self):
        assert not is_pareto_optimal("missing", [ParetoPoint("only", 0.3, 1.0)])

    def test_dominance_is_irreflexive_and_asymmetric(self):
        better, worse = ParetoPoint("better", 0.2, 50.0), ParetoPoint("worse", 0.2, 40.0)
        assert better.dominates(worse) and not worse.dominates(better)
        assert not better.dominates(better)
        traded = ParetoPoint("traded", 0.1, 10.0)
        assert not better.dominates(traded) and not traded.dominates(better)

    @pytest.mark.parametrize("seed", range(5))
    def test_frontier_splits_points_into_optimal_and_dominated(self, seed):
        rng = random.Random(seed)
        points = [
            ParetoPoint(f"m{index}", round(rng.uniform(0.05, 1.0), 2), round(rng.uniform(1, 200), 0))
            for index in range(30)
        ]
        frontier = pareto_frontier(points)
        assert frontier == sorted(frontier, key=lambda point: (point.ratio, -point.speed))
        for point in frontier:
            assert not any(other.dominates(point) for other in points)
        for point in set(points) - set(frontier):
            assert any(optimal.dominates(point) for optimal in frontier)


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        ids = set(experiment_ids())
        assert {"table2", "table3", "table4", "table5", "table6", "table7", "table8",
                "fig5", "fig6", "fig7", "fig8", "fig9a", "fig9b"} <= ids

    def test_experiments_carry_bench_module_paths(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.bench_module.startswith("benchmarks/")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            get_experiment("table99")

    @pytest.mark.parametrize("experiment_id", experiment_ids())
    def test_entry_names_an_existing_driver(self, experiment_id):
        experiment = EXPERIMENTS[experiment_id]
        assert experiment.experiment_id == experiment_id
        assert callable(experiment.runner)
        assert (REPO_ROOT / experiment.bench_module).is_file()

    def test_lookup_is_case_insensitive(self):
        assert get_experiment("FIG9A") is EXPERIMENTS["fig9a"]

    def test_run_all_keeps_only_the_selected_ids(self):
        results = run_all(TINY, ids=["table2"])
        assert list(results) == ["table2"]
        assert {row["dataset"] for row in results["table2"]} == set(TINY.datasets)


class TestPaperReference:
    def test_reference_datasets_are_table2_datasets(self):
        known = set(paper_reference.TABLE2_DATASETS)
        for table in (paper_reference.TABLE3_RATIOS, paper_reference.TABLE4_RATIOS,
                      paper_reference.TABLE7_JSON):
            assert set(table) <= known
        assert set(paper_reference.FIGURE7_DATASETS) <= known

    def test_reference_ratios_are_fractions(self):
        for table in (paper_reference.TABLE3_RATIOS, paper_reference.TABLE4_RATIOS,
                      paper_reference.TABLE7_JSON):
            for methods in table.values():
                assert all(0 < ratio < 1 for ratio in methods.values())
        assert all(0 < ratio < 1 for ratio in paper_reference.TABLE6_JSON.values())

    def test_table3_pbc_f_beats_pbc_on_every_dataset(self):
        for dataset, methods in paper_reference.TABLE3_RATIOS.items():
            assert methods["PBC_F"] < methods["PBC"], dataset

    def test_table4_pbc_l_beats_pbc_z_on_every_dataset(self):
        for dataset, methods in paper_reference.TABLE4_RATIOS.items():
            assert methods["PBC_L"] < methods["PBC_Z"], dataset


class TestRunners:
    def test_table2_rows(self):
        rows = run_table2_dataset_statistics(TINY)
        assert {row["dataset"] for row in rows} == set(TINY.datasets)
        for row in rows:
            assert row["generated_records"] == TINY.record_count
            assert row["generated_avg_len"] > 0

    def test_fig9_pattern_size_rows(self):
        rows = run_fig9_pattern_size(TINY, datasets=("kv1",), pattern_counts=(1, 4))
        assert len(rows) == 2
        assert all(0 < row["ratio"] <= 1.5 for row in rows)
        assert rows[0]["dictionary_bytes"] > 0

    def test_run_experiment_by_id(self):
        rows = run_experiment("table2", TINY)
        assert rows and "dataset" in rows[0]

    def test_table3_rows_have_expected_methods(self):
        rows = run_experiment("table3", TINY)
        methods = {row["method"] for row in rows}
        assert methods == {"FSST", "LZ4", "Zstd", "PBC", "PBC_F"}
        for row in rows:
            assert 0 < row["ratio"] <= 2.5
            assert row["comp_mb_s"] >= 0

    def test_fig7_criteria_rows(self):
        rows = run_experiment("fig7", TINY, datasets=("kv1",))
        criteria = {row["criterion"] for row in rows}
        assert criteria == {"ed", "entropy", "el"}
