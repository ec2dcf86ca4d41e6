"""Raw performance of the library itself (not a paper exhibit).

Keeps the engines and generators honest as the repo evolves: schedule
generation, lock-step execution and event-driven execution all get a
timed budget.
"""

import pytest

from repro.collectives import collective_program
from repro.routing import bst_scatter_schedule, msbt_broadcast_schedule
from repro.sim import IPSC_D7, PortModel, run_async, run_synchronous
from repro.topology import Hypercube


@pytest.fixture(scope="module")
def big_broadcast():
    cube = Hypercube(7)
    sched = msbt_broadcast_schedule(cube, 0, 61440, 1024, PortModel.ONE_PORT_FULL)
    return cube, sched


@pytest.fixture(scope="module")
def huge_broadcast():
    cube = Hypercube(10)
    sched = msbt_broadcast_schedule(cube, 0, 61440, 1024, PortModel.ONE_PORT_FULL)
    return cube, sched


def test_perf_generate_msbt_schedule(benchmark):
    # cold generation: the generators keep no memo
    cube = Hypercube(7)
    sched = benchmark(
        msbt_broadcast_schedule, cube, 0, 61440, 1024, PortModel.ONE_PORT_FULL
    )
    assert sched.num_transfers > 0


def test_perf_generate_msbt_schedule_cached(benchmark):
    call = (Hypercube(7), "broadcast", "msbt", 0, 61440, 1024, PortModel.ONE_PORT_FULL)
    collective_program(*call)  # warm
    sched, _, _ = benchmark(collective_program, *call)
    assert sched.num_transfers > 0


def test_perf_generate_bst_scatter(benchmark):
    cube = Hypercube(6)
    sched = benchmark(
        bst_scatter_schedule, cube, 0, 1024, 1024, PortModel.ONE_PORT_FULL
    )
    assert sched.num_transfers >= cube.num_nodes - 1


def test_perf_lockstep_engine(benchmark, big_broadcast):
    cube, sched = big_broadcast
    init = {0: set(sched.chunk_sizes)}
    res = benchmark(run_synchronous, cube, sched, PortModel.ONE_PORT_FULL, init)
    assert res.cycles > 0


def test_perf_event_engine(benchmark, big_broadcast):
    cube, sched = big_broadcast
    init = {0: set(sched.chunk_sizes)}
    res = benchmark(run_async, cube, sched, PortModel.ONE_PORT_FULL, init, IPSC_D7)
    assert res.time > 0


def test_perf_event_engine_n10(benchmark, huge_broadcast):
    # ~60k transfers (the reference rescan engine needs minutes here);
    # a single round keeps wall time low
    cube, sched = huge_broadcast
    init = {0: set(sched.chunk_sizes)}
    res = benchmark.pedantic(
        run_async,
        args=(cube, sched, PortModel.ONE_PORT_FULL, init, IPSC_D7),
        rounds=1,
        iterations=1,
    )
    assert res.time > 0
