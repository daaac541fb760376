"""Benchmark harness: one runner per paper table/figure."""
from .experiments import (
    ExperimentResult,
    run_figure4,
    run_figure5,
    run_section4,
    run_table1,
    run_table2,
    run_table3,
)
from .tables import format_table

__all__ = [
    "ExperimentResult",
    "run_figure4",
    "run_figure5",
    "run_section4",
    "run_table1",
    "run_table2",
    "run_table3",
    "format_table",
]
