"""Workloads: DAGs of collective phases executed end to end.

The layer above single collectives and the multi-tenant service: a
*workload* is a multi-step DAG of collective phases with compute gaps
(data-parallel training steps, pipeline stages, expert-parallel
alltoall, background mice flows), lowered step by step onto the
merged-program machinery and reported with per-step timing, link
utilization, critical-path and straggler analyses.

Typical use::

    from repro.workloads import WORKLOAD_SCENARIOS, run_workload

    workload = WORKLOAD_SCENARIOS["dp-train-n10"].build(seed=0)
    report = run_workload(workload, steps=3)
    print(report.summary())
"""

from repro.workloads.dag import PhaseSpec, Workload, WorkloadDAG
from repro.workloads.exec import run_workload
from repro.workloads.report import (
    CriticalPath,
    LinkUtilization,
    PhaseReport,
    StepReport,
    StragglerReport,
    WorkloadReport,
)
from repro.workloads.scenarios import (
    WORKLOAD_SCENARIOS,
    WorkloadScenario,
    get_workload_scenario,
)

__all__ = [
    "CriticalPath",
    "LinkUtilization",
    "PhaseReport",
    "PhaseSpec",
    "StepReport",
    "StragglerReport",
    "WORKLOAD_SCENARIOS",
    "Workload",
    "WorkloadDAG",
    "WorkloadReport",
    "WorkloadScenario",
    "get_workload_scenario",
    "run_workload",
]
