"""Differential: a single-phase workload must reproduce the standalone
collective bit for bit — same finish time, same traffic — because the
merged-program lowering of one entry with release 0 is exactly the
schedule the standalone vectorized run executes."""

from __future__ import annotations

import pytest

from repro.collectives import (
    allgather,
    allreduce,
    alltoall_personalized,
    broadcast,
    gather,
    reduce,
    scatter,
)
from repro.topology import Hypercube
from repro.workloads import PhaseSpec, Workload, WorkloadDAG, run_workload

DIM = 4

#: (phase spec kwargs, standalone runner)
GRID = [
    (
        dict(op="broadcast", algorithm="msbt", source=3,
             message_elems=16, packet_elems=4),
        lambda cube: broadcast(cube, 3, "msbt", 16, 4,
                               run_event_sim=True),
    ),
    (
        dict(op="broadcast", algorithm="sbt", source=0, message_elems=8),
        lambda cube: broadcast(cube, 0, "sbt", 8,
                               run_event_sim=True),
    ),
    (
        dict(op="scatter", algorithm="bst", source=5,
             message_elems=4, packet_elems=2),
        lambda cube: scatter(cube, 5, "bst", 4, 2,
                             run_event_sim=True),
    ),
    (
        dict(op="gather", algorithm="bst", source=2, message_elems=4),
        lambda cube: gather(cube, 2, "bst", 4,
                            run_event_sim=True),
    ),
    (
        dict(op="reduce", source=1, message_elems=4, packet_elems=2),
        lambda cube: reduce(cube, 1, 4, 2,
                            run_event_sim=True),
    ),
    (
        dict(op="allgather", message_elems=2),
        lambda cube: allgather(cube, 2,
                               run_event_sim=True),
    ),
    (
        dict(op="alltoall", message_elems=2),
        lambda cube: alltoall_personalized(
            cube, 2, run_event_sim=True),
    ),
]


def _single_phase_report(kwargs):
    dag = WorkloadDAG((PhaseSpec("only", **kwargs),))
    w = Workload(name="diff", dimension=DIM, dag_builder=lambda s: dag)
    return run_workload(w).steps[0].phase("only")


class TestSinglePhaseMatchesStandalone:
    @pytest.mark.parametrize(
        "kwargs,runner", GRID,
        ids=[f"{k['op']}-{k.get('algorithm', 'default')}" for k, _ in GRID],
    )
    def test_time_and_traffic_bit_identical(self, kwargs, runner):
        std = runner(Hypercube(DIM))
        phase = _single_phase_report(kwargs)
        assert phase.finish == std.time  # bit-for-bit, no tolerance
        assert phase.transfers_executed == std.schedule.num_transfers
        assert phase.elems == std.link_stats.total_elems()
        assert not phase.degraded


class TestSerialChainMatchesComposition:
    def test_reduce_then_broadcast_equals_allreduce(self):
        """The dp-train gradient pattern — an SBT reduce phase feeding
        an SBT broadcast phase — must cost exactly what the allreduce
        composition reports (its phases run back to back)."""
        cube = Hypercube(DIM)
        std = allreduce(cube, 8, 4, run_event_sim=True, root=0)
        dag = WorkloadDAG((
            PhaseSpec("red", op="reduce", source=0,
                      message_elems=8, packet_elems=4),
            PhaseSpec("bc", op="broadcast", algorithm="sbt", source=0,
                      message_elems=8, packet_elems=4, deps=("red",)),
        ))
        w = Workload(name="ar", dimension=DIM, dag_builder=lambda s: dag)
        step = run_workload(w).steps[0]
        assert step.duration == std.time
        assert step.phase("red").finish == std.reduce.time
        assert (
            step.phase("bc").finish - step.phase("bc").release
            == std.broadcast.time
        )
