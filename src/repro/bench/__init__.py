"""Paper experiments: registry, runners, Pareto analysis and table rendering.

Every table and figure of the paper's evaluation (Section 7) has a runner in
:mod:`repro.bench.experiments`, registered by id in :data:`repro.bench.EXPERIMENTS`;
the pytest benchmarks under ``benchmarks/`` are thin drivers around these
runners.
"""

from repro.bench.ablations import (
    run_ablation_extraction,
    run_ablation_residual,
    run_columnar_comparison,
    run_lsm_integration,
)
from repro.bench.experiments import (
    BenchmarkSettings,
    DEFAULT_SETTINGS,
    run_fig5_random_access,
    run_fig6_pareto,
    run_fig7_criteria,
    run_fig8_pruning,
    run_fig9_pattern_size,
    run_fig9_training_size,
    run_table2_dataset_statistics,
    run_table3_line_by_line,
    run_table4_file_compression,
    run_table5_log_compression,
    run_table6_json_compression,
    run_table7_json_per_dataset,
    run_table8_tierbase,
)
from repro.bench.pareto import ParetoPoint, is_pareto_optimal, pareto_frontier
from repro.bench.registry import EXPERIMENTS, Experiment, experiment_ids, get_experiment, run_all, run_experiment
from repro.bench.reporting import render_comparison, render_table

__all__ = [
    "BenchmarkSettings",
    "DEFAULT_SETTINGS",
    "EXPERIMENTS",
    "Experiment",
    "ParetoPoint",
    "experiment_ids",
    "get_experiment",
    "is_pareto_optimal",
    "pareto_frontier",
    "render_comparison",
    "render_table",
    "run_ablation_extraction",
    "run_ablation_residual",
    "run_all",
    "run_columnar_comparison",
    "run_experiment",
    "run_lsm_integration",
    "run_fig5_random_access",
    "run_fig6_pareto",
    "run_fig7_criteria",
    "run_fig8_pruning",
    "run_fig9_pattern_size",
    "run_fig9_training_size",
    "run_table2_dataset_statistics",
    "run_table3_line_by_line",
    "run_table4_file_compression",
    "run_table5_log_compression",
    "run_table6_json_compression",
    "run_table7_json_per_dataset",
    "run_table8_tierbase",
]
