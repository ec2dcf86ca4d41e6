"""Benchmark-regression suite: canonical workloads pinned in BENCH_ENGINE.json.

The workloads cover the event engine (large cubes, and deep per-link
packet queues) and the lock-step engine, cold schedule generation,
hits of the collective-call memo (``collective_program``) at source 0
and translated to a new source, a public broadcast served from the
translated source-0 schedule and lowering, and the engine result build
(holdings and link counters) that such a call's reader pays for.
``scripts/bench_compare.py`` runs this file with
``--benchmark-json``, extracts each benchmark's median, and compares it
against the medians recorded in ``BENCH_ENGINE.json`` at the repo root;
``--update`` refreshes the baseline.  Run the suite directly with::

    PYTHONPATH=src python -m pytest benchmarks/bench_regression.py

The names of these tests are the keys of the baseline file — renaming
one orphans its baseline entry.
"""

import itertools

import pytest

from repro import cache
from repro.collectives import broadcast, collective_program
from repro.routing import msbt_broadcast_schedule, sbt_broadcast_schedule
from repro.sim import (
    IPSC_D7,
    PortModel,
    run_async,
    run_async_vectorized,
    run_synchronous,
)
from repro.topology import Hypercube


def _msbt_workload(n: int):
    cube = Hypercube(n)
    sched = msbt_broadcast_schedule(cube, 0, 61440, 1024, PortModel.ONE_PORT_FULL)
    return cube, sched


@pytest.fixture(scope="module")
def workload_n7():
    return _msbt_workload(7)


@pytest.fixture(scope="module")
def workload_n10():
    return _msbt_workload(10)


def test_regress_event_engine_n7(benchmark, workload_n7):
    cube, sched = workload_n7
    init = {0: set(sched.chunk_sizes)}
    res = benchmark(run_async, cube, sched, PortModel.ONE_PORT_FULL, init, IPSC_D7)
    assert res.time > 0


def test_regress_vectorized_engine_n10(benchmark, workload_n10):
    # ~60k transfers; a single round keeps total wall time reasonable
    cube, sched = workload_n10
    init = {0: set(sched.chunk_sizes)}
    res = benchmark.pedantic(
        run_async_vectorized,
        args=(cube, sched, PortModel.ONE_PORT_FULL, init, IPSC_D7),
        rounds=1,
        iterations=1,
    )
    assert res.time > 0


def test_regress_vectorized_engine_n12(benchmark):
    # ~246k transfers
    cube, sched = _msbt_workload(12)
    init = {0: set(sched.chunk_sizes)}
    res = benchmark.pedantic(
        run_async_vectorized,
        args=(cube, sched, PortModel.ONE_PORT_FULL, init, IPSC_D7),
        rounds=1,
        iterations=1,
    )
    assert res.time > 0


def _run_sbt_event(benchmark, n, m, b, pm):
    cube = Hypercube(n)
    sched = sbt_broadcast_schedule(cube, 0, m, b, pm)
    init = {0: set(sched.chunk_sizes)}
    res = benchmark.pedantic(
        run_async_vectorized,
        args=(cube, sched, pm, init, IPSC_D7),
        rounds=3,
        iterations=1,
    )
    assert res.time > 0


def test_regress_event_engine_deep_queue_n3(benchmark):
    # 7,000 one-element packets, up to 1,000 queued on one directed
    # link: the engine's cost must stay linear in the packets per link
    _run_sbt_event(benchmark, 3, 1000, 1, PortModel.ONE_PORT_HALF)


def test_regress_event_engine_fig5_b256_n6(benchmark):
    # Fig. 5's slowest point: n=6, M=60 KB, B=256, 15,120 packets
    _run_sbt_event(benchmark, 6, 61440, 256, PortModel.ONE_PORT_FULL)


def test_regress_lockstep_engine_n7(benchmark, workload_n7):
    cube, sched = workload_n7
    init = {0: set(sched.chunk_sizes)}
    res = benchmark(run_synchronous, cube, sched, PortModel.ONE_PORT_FULL, init)
    assert res.cycles > 0


def test_regress_generate_msbt_cold(benchmark):
    cube = Hypercube(7)
    sched = benchmark(
        msbt_broadcast_schedule, cube, 0, 61440, 1024, PortModel.ONE_PORT_FULL
    )
    assert sched.num_transfers > 0


def test_regress_generate_msbt_cached(benchmark):
    # a memo hit at source 0: the entry's schedule copied, its lowering
    # shared
    call = (Hypercube(7), "broadcast", "msbt", 0, 61440, 1024, PortModel.ONE_PORT_FULL)
    collective_program(*call)  # warm
    sched, _, _ = benchmark(collective_program, *call)
    assert sched.num_transfers > 0


def test_regress_generate_msbt_new_source_n10(benchmark):
    # every round broadcasts from a source not asked for before, so the
    # schedule and the lowering are the cached source-0 ones translated
    cube = Hypercube(10)
    cache.clear_caches()
    args = (1024, 1024, PortModel.ONE_PORT_FULL)
    collective_program(cube, "broadcast", "msbt", 0, *args)  # warm
    sources = itertools.cycle(range(1, cube.num_nodes))
    sched, _, _ = benchmark(
        lambda: collective_program(cube, "broadcast", "msbt", next(sources), *args)
    )
    assert sched.num_transfers == cube.num_nodes - 1


def test_regress_broadcast_translated_n10(benchmark):
    # the public call from a source not asked for before, on a warm
    # cache: schedule and lowering are the source-0 ones translated, the
    # lock-step run only prices the lowering, and the event engine runs it
    cube = Hypercube(10)
    cache.clear_caches()
    args = ("msbt", 1024, 1024, PortModel.ONE_PORT_FULL, IPSC_D7)
    broadcast(cube, 0, *args, run_event_sim=True)  # warm
    sources = itertools.cycle(range(1, cube.num_nodes))
    res = benchmark(lambda: broadcast(cube, next(sources), *args, run_event_sim=True))
    assert res.time > 0


def test_regress_engine_result_n10(benchmark):
    # the public call, reading what the e2e check and digest read: the
    # event run's holdings and its per-link packet counter, both built
    # from the run's arrays on that first read
    cube = Hypercube(10)
    cache.clear_caches()
    args = ("sbt", 2048, 1024, PortModel.ONE_PORT_FULL, IPSC_D7)
    broadcast(cube, 0, *args, run_event_sim=True)  # warm
    sources = itertools.cycle(range(1, cube.num_nodes))

    def run():
        res = broadcast(cube, next(sources), *args, run_event_sim=True)
        return len(res.async_.holdings), sum(res.async_.link_stats.packets.values())

    nodes, packets = benchmark(run)
    assert nodes == cube.num_nodes
    assert packets == 2 * (cube.num_nodes - 1)
