"""Experiment harness: runners, metrics, per-figure experiments and report formatting."""

from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.metrics import arithmetic_mean, geometric_mean, relative_change, speedups
from repro.analysis.predictor_eval import PredictorEvaluation, evaluate_predictor
from repro.analysis.report import ExperimentResult, ExperimentSeries, format_table
from repro.analysis.runner import (
    CellFailed,
    ResultCache,
    default_max_uops,
    default_warmup_uops,
    run_grid,
    run_suite,
    run_workload,
    shared_cache,
    suite_ipcs,
)

__all__ = [
    "CellFailed",
    "EXPERIMENTS",
    "ExperimentResult",
    "ExperimentSeries",
    "PredictorEvaluation",
    "ResultCache",
    "arithmetic_mean",
    "default_max_uops",
    "default_warmup_uops",
    "evaluate_predictor",
    "format_table",
    "geometric_mean",
    "relative_change",
    "run_grid",
    "run_suite",
    "run_workload",
    "shared_cache",
    "speedups",
    "suite_ipcs",
]
