"""Experiment harness: a declarative scenario registry plus a generic pipeline.

Each paper table/figure module contributes only its paper-specific task,
merge and check logic as a registered :class:`ScenarioSpec`; expansion,
(parallel) execution, result caching and deterministic merging are the
pipeline's job (:mod:`repro.experiments.pipeline`), and re-run caching is the
store's (:mod:`repro.experiments.store`).
"""

from .ablation import (
    epsilon_ablation_spec,
    kappa_ablation_spec,
    rho_ablation_spec,
    run_all_ablations,
    run_epsilon_ablation,
    run_kappa_ablation,
    run_rho_ablation,
)
from .families import run_family
from .figures import (
    ALL_FIGURES,
    build_result,
    figure1_superclustering,
    figure2_bfs_trees,
    figure3_ruling_set,
    figure4_forest_paths,
    figure5_interconnection,
    figure6_cluster_hop,
    figure7_stretch_decomposition,
    figure8_segment_argument,
    figure_spec,
    run_all_figures,
)
from .pipeline import (
    FAILURE_MANIFEST_SCHEMA,
    ScenarioOutcome,
    SuiteResult,
    TaskError,
    TaskSpec,
    run_scenario,
    run_suite,
    validate_failure_manifest,
)
from .registry import (
    ScenarioSpec,
    all_specs,
    ensure_builtin_specs,
    get_spec,
    register,
    scenario_names,
)
from .results import ExperimentRecord, save_records
from .runner import (
    Measurement,
    fit_power_law,
    measure_algorithm,
    measurement_row,
)
from .scaling import run_scaling, scaling_spec
from .store import ResultStore
from .table1 import run_table1, table1_spec
from .table2 import run_table2, table2_spec
from .workloads import default_parameters, experiment_workloads, scaling_graphs, scaling_sizes

__all__ = [
    "ALL_FIGURES",
    "ExperimentRecord",
    "FAILURE_MANIFEST_SCHEMA",
    "Measurement",
    "ResultStore",
    "ScenarioOutcome",
    "ScenarioSpec",
    "SuiteResult",
    "TaskError",
    "TaskSpec",
    "all_specs",
    "build_result",
    "default_parameters",
    "ensure_builtin_specs",
    "epsilon_ablation_spec",
    "experiment_workloads",
    "figure1_superclustering",
    "figure2_bfs_trees",
    "figure3_ruling_set",
    "figure4_forest_paths",
    "figure5_interconnection",
    "figure6_cluster_hop",
    "figure7_stretch_decomposition",
    "figure8_segment_argument",
    "figure_spec",
    "fit_power_law",
    "get_spec",
    "kappa_ablation_spec",
    "measure_algorithm",
    "measurement_row",
    "register",
    "rho_ablation_spec",
    "run_all_ablations",
    "run_all_figures",
    "run_epsilon_ablation",
    "run_family",
    "run_kappa_ablation",
    "run_rho_ablation",
    "run_scaling",
    "run_scenario",
    "run_suite",
    "run_table1",
    "run_table2",
    "save_records",
    "scaling_graphs",
    "scaling_sizes",
    "scaling_spec",
    "scenario_names",
    "table1_spec",
    "table2_spec",
    "validate_failure_manifest",
]
