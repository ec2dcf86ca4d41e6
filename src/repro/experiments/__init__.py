"""Experiment harness: one function per table/figure of the paper.

Every runner takes ``jobs=`` and executes its point grid
through :mod:`repro.experiments.parallel`; serial and parallel output
are identical (see that module for the determinism contract).
"""

from repro.experiments.export import to_csv, to_json, write_report
from repro.experiments.figures import run_fig5, run_fig6, run_fig7, run_fig8
from repro.experiments.injector import TenantProfile, poisson_jobs
from repro.experiments.parallel import (
    PointStats,
    SweepResult,
    SweepStats,
    resolve_jobs,
    run_sweep,
    sweep_grid,
)
from repro.experiments.registry import ScenarioRegistry
from repro.experiments.scatter_sweep import run_scatter_packet_sweep
from repro.experiments.scenarios import SCENARIOS, Scenario, get_scenario
from repro.experiments.harness import TableReport, format_table, relative_error
from repro.experiments.tables import (
    PAPER_TABLE5,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
)

__all__ = [
    "PointStats",
    "SCENARIOS",
    "Scenario",
    "ScenarioRegistry",
    "SweepResult",
    "SweepStats",
    "TenantProfile",
    "get_scenario",
    "poisson_jobs",
    "resolve_jobs",
    "run_sweep",
    "sweep_grid",
    "to_csv",
    "to_json",
    "write_report",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_scatter_packet_sweep",
    "TableReport",
    "format_table",
    "relative_error",
    "PAPER_TABLE5",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
]
