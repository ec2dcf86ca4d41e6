"""Fault plans are checked where they meet a topology.

A dead node must be an integer address of the host, and a dead link one
of its links.  Anything else is a ``ValueError`` at every entry point
that takes a plan, even under ``on_fault="report"``, instead of a
non-degraded result that ignored the plan (or, for ``True``, node 1
silently dead).
"""

from __future__ import annotations

import pytest

from repro.collectives import broadcast, scatter
from repro.runtime import build_cluster_program, run_collective, run_program
from repro.service import JobSpec, run_service
from repro.sim.faults import FaultPlan
from repro.sim.ports import PortModel
from repro.topology import Hypercube
from repro.workloads import PhaseSpec, Workload, WorkloadDAG, run_workload

CUBE = Hypercube(3)
FULL = PortModel.ONE_PORT_FULL

BAD_PLANS = {
    "node-out-of-range": dict(dead_nodes=[99]),
    "node-negative": dict(dead_nodes=[-1]),
    "node-float": dict(dead_nodes=[2.5]),
    "node-bool": dict(dead_nodes=[True]),
    "link-not-an-edge": dict(dead_links=[(0, 3)]),
    "link-out-of-range": dict(dead_links=[(0, 99)]),
    "link-float": dict(dead_links=[(0.5, 1)]),
    "link-bool": dict(dead_links=[(True, 0)]),
}


def _workload(plan: FaultPlan) -> Workload:
    dag = WorkloadDAG((PhaseSpec("b", op="broadcast", algorithm="sbt", message_elems=4),))
    return Workload(
        name="bad-plan", dimension=3, dag_builder=lambda s: dag,
        faults=plan, on_fault="report",
    )


ENTRY_POINTS = {
    "plan": lambda plan_kw: FaultPlan(**plan_kw, topology=CUBE),
    "broadcast": lambda plan_kw: broadcast(
        CUBE, 0, "sbt", 4, 2, faults=FaultPlan(**plan_kw), on_fault="report"
    ),
    "broadcast-runtime": lambda plan_kw: broadcast(
        CUBE, 0, "sbt", 4, 2, faults=FaultPlan(**plan_kw), on_fault="report",
        backend="runtime",
    ),
    "scatter": lambda plan_kw: scatter(
        CUBE, 0, "sbt", 4, 2, faults=FaultPlan(**plan_kw), on_fault="report"
    ),
    "run_service": lambda plan_kw: run_service(
        CUBE, [JobSpec("t", source=0, message_elems=4)],
        faults=FaultPlan(**plan_kw), on_fault="report",
    ),
    "run_workload": lambda plan_kw: run_workload(_workload(FaultPlan(**plan_kw))),
    "run_collective": lambda plan_kw: run_collective(
        CUBE, "broadcast", "sbt", 0, 4, 2, FULL,
        faults=FaultPlan(**plan_kw), on_fault="report",
    ),
    "run_program": lambda plan_kw: run_program(
        CUBE, build_cluster_program(CUBE, "broadcast", "sbt", 0, 4, 2, FULL),
        faults=FaultPlan(**plan_kw), on_fault="report",
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("plan", BAD_PLANS)
def test_bad_plan_rejected(plan, entry):
    with pytest.raises(ValueError, match="integer|outside|not a link"):
        ENTRY_POINTS[entry](BAD_PLANS[plan])


def test_out_of_range_node_is_not_a_fault_error():
    """Under ``on_fault="raise"`` a node that names nothing is a bad
    argument, not a disconnection of zero live nodes."""
    with pytest.raises(ValueError, match="node 99 outside"):
        broadcast(CUBE, 0, "sbt", 4, 2, faults=FaultPlan(dead_nodes=[99]))


@pytest.mark.parametrize(
    "plan_kw",
    [dict(dead_nodes=[7, (3, 2.0)]), dict(dead_links=[(0, 1), (6, 2, 1.0)])],
    ids=["nodes", "links"],
)
def test_valid_plan_accepted(plan_kw):
    assert FaultPlan(**plan_kw, topology=CUBE) == FaultPlan(**plan_kw, topology=CUBE)
    res = broadcast(CUBE, 0, "sbt", 4, 2, faults=FaultPlan(**plan_kw), on_fault="report")
    assert res.faults is not None
