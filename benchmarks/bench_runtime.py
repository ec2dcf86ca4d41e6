"""Benchmark suite for the actor runtime: baselines in BENCH_RUNTIME.json.

Pins the cost of executing collectives on the message-passing runtime
(actors + virtual clock + port admission), of the repair path under
faults, and of one differential runtime-vs-engine check.  Compare or refresh with::

    python scripts/bench_compare.py --suite runtime [--update]

The names of these tests are the keys of the baseline file — renaming
one orphans its baseline entry.
"""

import pytest

from repro.runtime import differential_check, run_collective
from repro.sim.faults import FaultPlan
from repro.sim.ports import PortModel
from repro.topology import Hypercube


@pytest.fixture(scope="module")
def cube6():
    return Hypercube(6)


def test_runtime_broadcast_msbt_n6(benchmark, cube6):
    res = benchmark(
        run_collective,
        cube6, "broadcast", "msbt", 0, 64, 8, PortModel.ONE_PORT_FULL,
    )
    assert res.transfers_executed > 0


def test_runtime_broadcast_sbt_allport_n6(benchmark, cube6):
    res = benchmark(
        run_collective,
        cube6, "broadcast", "sbt", 0, 64, 8, PortModel.ALL_PORT,
    )
    assert res.transfers_executed > 0


def test_runtime_scatter_bst_n6(benchmark, cube6):
    res = benchmark(
        run_collective,
        cube6, "scatter", "bst", 0, 16, 4, PortModel.ONE_PORT_FULL,
    )
    assert res.transfers_executed > 0


def test_runtime_repair_broadcast_n5(benchmark):
    cube = Hypercube(5)
    faults = FaultPlan(dead_links=[(0, 1), (0, 2)])

    def repaired():
        return run_collective(
            cube, "broadcast", "sbt", 0, 32, 8, PortModel.ONE_PORT_FULL,
            faults=faults, on_fault="repair",
        )

    res = benchmark(repaired)
    assert res.repair_rounds >= 1


def test_runtime_differential_point_n5(benchmark):
    cube = Hypercube(5)
    benchmark(
        differential_check,
        cube, "broadcast", "msbt", 0, 64, 8, PortModel.ONE_PORT_FULL,
    )
