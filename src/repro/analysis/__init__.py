"""Experiment harness: one entry point per paper table/figure + reporting."""

from . import paper_values
from .experiments import (
    DEFAULT_NUM_OPS,
    EXPERIMENTS,
    BatteryTable,
    BmtUpdatesResult,
    SchemeOverheads,
    SizeBatteryTable,
    SizeSweepResult,
    run_experiment,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table4,
    run_table5,
    run_table6,
)
from .report import format_table, paper_vs_measured, series_table
from .runner import (
    JobFailure,
    SimJob,
    SimSpec,
    clear_result_memo,
    execute_job,
    run_jobs,
    run_tasks,
)
from .serialize import load_result, result_to_dict, save_result, to_jsonable

__all__ = [
    "BatteryTable",
    "BmtUpdatesResult",
    "DEFAULT_NUM_OPS",
    "EXPERIMENTS",
    "JobFailure",
    "SchemeOverheads",
    "SimJob",
    "SimSpec",
    "SizeBatteryTable",
    "SizeSweepResult",
    "clear_result_memo",
    "execute_job",
    "format_table",
    "load_result",
    "paper_values",
    "paper_vs_measured",
    "run_experiment",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_table4",
    "run_table5",
    "result_to_dict",
    "run_jobs",
    "run_table6",
    "run_tasks",
    "save_result",
    "series_table",
    "to_jsonable",
]
