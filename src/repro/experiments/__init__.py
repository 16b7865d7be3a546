"""Experiment harness: everything needed to regenerate the paper's
tables and figures plus the ablations A1-A5 (see :mod:`.ablations`)."""

from .ablations import (
    BASELINE_LABELS,
    AblationRow,
    default_ablation_systems,
    run_baseline_comparison,
    run_exchange_ablation,
    run_fidelity_ablation,
    run_guidance_ablation,
    run_refinement_ablation,
    run_scaling_study,
)
from .clusterings import (
    ClusteringStudyRow,
    format_clustering_study,
    run_clustering_study,
)
from .counterexamples import (
    CounterexampleReport,
    format_counterexample,
    run_bokhari_counterexample,
    run_lee_counterexample,
)
from .runner import ExperimentConfig, run_experiment, run_table
from .sensitivity import (
    SensitivityPoint,
    format_sweep,
    sweep_comm_ratio,
    sweep_edge_density,
    sweep_problem_size,
)
from .tables import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    TABLE3_ROWS,
    format_figure,
    format_table,
    run_table1,
    run_table2,
    run_table3,
    table1_systems,
    table2_systems,
    table3_systems,
)
from .worked_example import (
    WorkedExampleReport,
    format_worked_example,
    run_worked_example,
)

__all__ = [
    "AblationRow",
    "BASELINE_LABELS",
    "ClusteringStudyRow",
    "CounterexampleReport",
    "ExperimentConfig",
    "format_clustering_study",
    "run_clustering_study",
    "SensitivityPoint",
    "TABLE1_ROWS",
    "TABLE2_ROWS",
    "TABLE3_ROWS",
    "WorkedExampleReport",
    "format_sweep",
    "default_ablation_systems",
    "format_counterexample",
    "format_figure",
    "format_table",
    "format_worked_example",
    "run_baseline_comparison",
    "run_bokhari_counterexample",
    "run_exchange_ablation",
    "run_experiment",
    "run_fidelity_ablation",
    "run_guidance_ablation",
    "run_lee_counterexample",
    "run_refinement_ablation",
    "run_scaling_study",
    "run_table",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_worked_example",
    "sweep_comm_ratio",
    "sweep_edge_density",
    "sweep_problem_size",
    "table1_systems",
    "table2_systems",
    "table3_systems",
]
