"""Benchmark suite for the distributed runtime: baselines in BENCH_RUNTIME.json.

Pins the cost of executing collectives on the runtime (local rule
derivation + the engine run of the key-sorted sends), of the repair
path under faults, and of one differential runtime-vs-engine check.
Broadcasts are derived once at source 0 and served to every other
source from that entry: the first round's schedule and lowering
translated, the programs on first read.  So the source-0 broadcast
entries time a cache hit plus the engine run;
``test_runtime_build_msbt_new_source_n9`` times serving a new source,
``test_runtime_build_msbt_cold_n9`` the derivation itself, and
``test_runtime_broadcast_msbt_new_source_n9`` a whole public runtime
broadcast at a new source (the path the e2e ``runtime-n9`` workload
times).  Scatter programs are derived per call:
``test_runtime_scatter_bst_allport_n9_new_source`` times a whole public
all-port BST scatter (lemma 4.2) at a new source, the op that sets the
``runtime-n9`` tail: the runtime rules, the central schedule and its
lowering, and both runs.  Compare or refresh with::

    python scripts/bench_compare.py --suite runtime [--update]

The names of these tests are the keys of the baseline file — renaming
one orphans its baseline entry.
"""

import itertools

import pytest

from repro.collectives import broadcast, scatter
from repro.runtime import (
    build_cluster_program,
    differential_check,
    run_collective,
)
from repro.runtime.rules import _msbt_broadcast
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


def test_runtime_build_msbt_new_source_n9(benchmark):
    # every round builds from a source not asked for before, so the
    # programs are the cached source-0 programs translated
    cube = Hypercube(9)
    pm = PortModel.ONE_PORT_FULL
    build_cluster_program(cube, "broadcast", "msbt", 0, 64, 32, pm)  # warm
    sources = itertools.cycle(range(1, cube.num_nodes))
    prog = benchmark(
        lambda: build_cluster_program(
            cube, "broadcast", "msbt", next(sources), 64, 32, pm
        )
    )
    assert prog.total_sends() == 2 * (cube.num_nodes - 1)


def test_runtime_build_msbt_cold_n9(benchmark):
    # the source-0 derivation a memo miss runs
    cube = Hypercube(9)
    programs = benchmark(
        _msbt_broadcast, cube, 0, 64, 32, PortModel.ONE_PORT_FULL
    )
    assert sum(len(p.sends) for p in programs.values()) == 2 * (cube.num_nodes - 1)


def test_runtime_broadcast_msbt_new_source_n9(benchmark):
    # warm: every round serves a source not asked for before from the
    # cached source-0 entries of both memos
    cube = Hypercube(9)
    pm = PortModel.ONE_PORT_FULL
    broadcast(cube, 0, "msbt", 64, 32, pm, backend="runtime")
    sources = itertools.cycle(range(1, cube.num_nodes))
    res = benchmark(
        lambda: broadcast(
            cube, next(sources), "msbt", 64, 32, pm, backend="runtime"
        )
    )
    assert res.async_.transfers_executed == 2 * (cube.num_nodes - 1)


def test_runtime_scatter_bst_allport_n9_new_source(benchmark):
    # warm: every round scatters from a source not asked for before, so
    # both the runtime rules and the central schedule are derived afresh
    cube = Hypercube(9)
    pm = PortModel.ALL_PORT
    scatter(cube, 0, "bst", 1, 1, pm, backend="runtime")
    sources = itertools.cycle(range(1, cube.num_nodes))
    res = benchmark(
        lambda: scatter(cube, next(sources), "bst", 1, 1, pm, backend="runtime")
    )
    assert res.async_.transfers_executed > 0
