"""Cached schedules are bit-identical to uncached generation.

Randomized ``(n, source, M, B, port_model)`` samples for every memoized
generator: the schedule produced through the cache (miss *and* hit)
must equal the one generated with caching disabled, and running both
through the engines must give identical results.  Also covers the
copy-on-hit isolation guarantee, and the translated broadcasts: their
schedules (rounds built on first read) and their lowerings (the
source-0 entry of ``collective_lowering`` translated in NumPy) must
equal what the uncached path builds, as must every result of the public
calls served by them.
"""

from __future__ import annotations

import copy
import pickle
import random

import numpy as np
import pytest

from repro.cache import cache_stats, clear_caches, disabled
from repro.collectives import broadcast, collective_lowering
from repro.routing import (
    allgather_schedule,
    alltoall_personalized_schedule,
    bst_scatter_schedule,
    dual_hp_broadcast_schedule,
    msbt_broadcast_schedule,
    sbt_broadcast_schedule,
    sbt_reduce_schedule,
    sbt_scatter_schedule,
)
from repro.sim import run_async
from repro.sim.faults import FaultPlan
from repro.sim.lowering import ARRAYS, lower_schedule
from repro.sim.machine import IPSC_D7, MachineParams
from repro.sim.ports import PortModel
from repro.sim.synchronous import run_synchronous
from repro.topology.hypercube import Hypercube


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def assert_same_schedule(a, b):
    assert a.rounds == b.rounds
    assert a.chunk_sizes == b.chunk_sizes
    assert a.algorithm == b.algorithm
    assert a.meta == b.meta


def assert_same_lowering(a, b):
    """Column for column, dtype included."""
    assert (a.n_transfers, a.n_slots, a.n_links) == (b.n_transfers, b.n_slots, b.n_links)
    assert a.chunk_objects == b.chunk_objects
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


GENERATORS = [
    ("sbt-broadcast", lambda cube, s, M, B, pm: sbt_broadcast_schedule(cube, s, M, B, pm)),
    ("msbt-broadcast", lambda cube, s, M, B, pm: msbt_broadcast_schedule(cube, s, M, B, pm)),
    ("dual-hp-broadcast", lambda cube, s, M, B, pm: dual_hp_broadcast_schedule(cube, s, M, B, pm)),
    ("bst-scatter", lambda cube, s, M, B, pm: bst_scatter_schedule(cube, s, M, B, pm)),
    ("sbt-scatter", lambda cube, s, M, B, pm: sbt_scatter_schedule(cube, s, M, B, pm)),
    ("sbt-reduce", lambda cube, s, M, B, pm: sbt_reduce_schedule(cube, s, M, B, pm)),
    ("allgather", lambda cube, s, M, B, pm: allgather_schedule(cube, M, pm)),
    ("alltoall", lambda cube, s, M, B, pm: alltoall_personalized_schedule(cube, M, pm)),
]


@pytest.mark.parametrize("name,gen", GENERATORS, ids=[g[0] for g in GENERATORS])
def test_cached_schedule_identical_to_uncached_randomized(name, gen):
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(6):
        n = rng.choice([3, 4, 5])
        cube = Hypercube(n)
        source = rng.randrange(cube.num_nodes)
        M = rng.choice([1, 5, 17, 64])
        B = rng.choice([1, 4, 16])
        pm = rng.choice(list(PortModel))
        with disabled():
            cold = gen(cube, source, M, B, pm)
        miss = gen(cube, source, M, B, pm)  # populates the cache
        hit = gen(cube, source, M, B, pm)  # served from it
        assert_same_schedule(miss, cold)
        assert_same_schedule(hit, cold)


def test_cached_schedule_runs_identically_on_the_engine():
    cube = Hypercube(4)
    pm = PortModel.ONE_PORT_FULL
    with disabled():
        cold = msbt_broadcast_schedule(cube, 6, 40, 8, pm)
    msbt_broadcast_schedule(cube, 6, 40, 8, pm)
    warm = msbt_broadcast_schedule(cube, 6, 40, 8, pm)
    res_cold = run_async(cube, cold, pm, {6: set(cold.chunk_sizes)}, IPSC_D7)
    res_warm = run_async(cube, warm, pm, {6: set(warm.chunk_sizes)}, IPSC_D7)
    assert res_cold.time == res_warm.time
    assert res_cold.holdings == res_warm.holdings
    assert res_cold.link_stats == res_warm.link_stats
    assert res_cold.start_times == res_warm.start_times


def test_cache_hit_returns_isolated_copies():
    """Source 0 hits are copies of the entry, other sources translations
    of it (rounds built on read); neither shares mutable state with the
    entry or with another hit."""
    cube = Hypercube(3)
    pm = PortModel.ONE_PORT_FULL
    for source in (0, 2):
        first = sbt_broadcast_schedule(cube, source, 16, 4, pm)
        first.meta["poison"] = True
        first.chunk_sizes["poison"] = 1
        first.rounds.append(())
        for s in (source, 0, 5):
            again = sbt_broadcast_schedule(cube, s, 16, 4, pm)
            assert "poison" not in again.meta
            assert "poison" not in again.chunk_sizes
            assert again.rounds[-1] != ()
        # two hits are themselves independent
        a = sbt_broadcast_schedule(cube, source, 16, 4, pm)
        b = sbt_broadcast_schedule(cube, source, 16, 4, pm)
        assert a is not b
        assert a.meta is not b.meta
        assert a.chunk_sizes is not b.chunk_sizes
        assert a.rounds is not b.rounds


def test_positional_and_keyword_calls_share_an_entry():
    cube = Hypercube(3)
    pm = PortModel.ONE_PORT_HALF
    clear_caches()
    sbt_broadcast_schedule(cube, 1, 8, 2, pm)
    sbt_broadcast_schedule(
        cube, source=1, message_elems=8, packet_elems=2, port_model=pm
    )
    stats = sbt_broadcast_schedule.cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 1


def test_source_is_part_of_the_key():
    """Scatter schedules are not equivariant; distinct sources must be
    distinct entries, not translated hits."""
    cube = Hypercube(4)
    pm = PortModel.ONE_PORT_FULL
    s0 = bst_scatter_schedule(cube, 0, 12, 4, pm)
    s5 = bst_scatter_schedule(cube, 5, 12, 4, pm)
    assert s0.meta["source"] == 0
    assert s5.meta["source"] == 5
    assert s0.rounds != s5.rounds


BROADCASTS = [
    ("sbt-port", lambda cube, s, M, B, pm: sbt_broadcast_schedule(cube, s, M, B, pm, "port")),
    ("sbt-packet", lambda cube, s, M, B, pm: sbt_broadcast_schedule(cube, s, M, B, pm, "packet")),
    ("msbt", lambda cube, s, M, B, pm: msbt_broadcast_schedule(cube, s, M, B, pm)),
]


@pytest.mark.parametrize("name,gen", BROADCASTS, ids=[g[0] for g in BROADCASTS])
def test_broadcast_from_any_source_is_the_translated_source_0_schedule(name, gen):
    """Generated directly, the SBT and MSBT broadcast from every source
    equals the source-0 schedule translated, round order included, and
    its lowering equals the source-0 lowering translated — what lets the
    cache serve every source from one entry of each."""
    with disabled():
        for n in range(1, 7):
            cube = Hypercube(n)
            for pm in PortModel:
                for M, B in ((1, 1), (17, 4), (64, 16), (9, 1)):
                    base = gen(cube, 0, M, B, pm)
                    low0 = lower_schedule(cube, base, {0: set(base.chunk_sizes)})
                    for s in cube.nodes():
                        sched = gen(cube, s, M, B, pm)
                        moved = base.translated(cube, s)
                        assert sched.rounds == moved.rounds, (n, pm, M, B, s)
                        assert sched.meta == moved.meta
                        assert sched.chunk_sizes == moved.chunk_sizes
                        assert sched.algorithm == moved.algorithm
                        assert_same_lowering(
                            low0.translated(cube, s),
                            lower_schedule(cube, sched, {s: set(sched.chunk_sizes)}),
                        )


@pytest.mark.parametrize("gen", [sbt_broadcast_schedule, msbt_broadcast_schedule])
def test_broadcasts_from_two_sources_share_one_entry(gen):
    cube = Hypercube(4)
    pm = PortModel.ONE_PORT_HALF
    first = gen(cube, 3, 12, 4, pm)
    second = gen(cube, 9, 12, 4, pm)
    stats = gen.cache.stats()
    assert (stats["misses"], stats["hits"]) == (1, 1)
    assert first.meta["source"] == 3
    assert second.meta["source"] == 9


def test_degraded_msbt_keeps_the_source_in_the_key():
    cube = Hypercube(4)
    pm = PortModel.ONE_PORT_FULL
    dead = ((0, 1),)
    a = msbt_broadcast_schedule(cube, 2, 12, 4, pm, dead_links=dead)
    b = msbt_broadcast_schedule(cube, 6, 12, 4, pm, dead_links=dead)
    assert msbt_broadcast_schedule.cache.stats()["misses"] == 2
    assert a.meta["source"] == 2 and b.meta["source"] == 6


# -- translated lowerings ----------------------------------------------


def assert_same_lockstep(a, b):
    assert a.cycles == b.cycles
    assert a.time == b.time
    assert a.step_costs == b.step_costs
    assert a.holdings == b.holdings
    assert a.link_stats == b.link_stats
    # links in the order the round loop first used them
    assert list(a.link_stats.elems) == list(b.link_stats.elems)
    assert list(a.link_stats.packets) == list(b.link_stats.packets)


#: the lowering ``collective_lowering`` serves each ``BROADCASTS``
#: generator's calls (packet-order SBT is no collective call)
LOWERINGS = {
    "sbt-port": lambda cube, s, M, B, pm: collective_lowering(cube, "broadcast", "sbt", s, M, B, pm),
    "msbt": lambda cube, s, M, B, pm: collective_lowering(cube, "broadcast", "msbt", s, M, B, pm),
}
SERVED = [g for g in BROADCASTS if g[0] in LOWERINGS]


@pytest.mark.parametrize("name,gen", BROADCASTS, ids=[g[0] for g in BROADCASTS])
def test_translated_lowering_at_n10(name, gen):
    cube = Hypercube(10)
    rng = random.Random(10)
    for pm in PortModel:
        with disabled():
            base = gen(cube, 0, 2048, 1024, pm)
            low0 = lower_schedule(cube, base, {0: set(base.chunk_sizes)})
            for s in rng.sample(range(1, cube.num_nodes), 2):
                sched = gen(cube, s, 2048, 1024, pm)
                assert_same_lowering(
                    low0.translated(cube, s),
                    lower_schedule(cube, sched, {s: set(sched.chunk_sizes)}),
                )


@pytest.mark.parametrize("name,gen", SERVED, ids=[g[0] for g in SERVED])
def test_cached_lowering_runs_lockstep_like_the_uncached_schedule(name, gen):
    """The served lowering carries the source-0 verdict, so the lock-step
    run only prices it; that pricing, its holdings and its link stats
    must match the round loop over the uncached schedule."""
    lowering = LOWERINGS[name]
    for n in range(1, 5):
        cube = Hypercube(n)
        for pm in PortModel:
            for M, B in ((1, 1), (17, 4), (9, 1)):
                for s in cube.nodes():
                    low = lowering(cube, s, M, B, pm)
                    assert low.checked_under is pm
                    with disabled():
                        sched = gen(cube, s, M, B, pm)
                    initial = {s: set(sched.chunk_sizes)}
                    for machine in (MachineParams(), IPSC_D7):
                        assert_same_lockstep(
                            run_synchronous(cube, sched, pm, initial, machine, lowered=low),
                            run_synchronous(cube, sched, pm, initial, machine),
                        )


def _public_run(result):
    sync, timed = result.sync, result.async_
    return (
        result.time, result.cycles, sync.step_costs, sync.holdings,
        timed.start_times, timed.holdings,
        sync.link_stats, list(sync.link_stats.elems), list(sync.link_stats.packets),
        timed.link_stats, list(timed.link_stats.elems), list(timed.link_stats.packets),
    )


@pytest.mark.parametrize("backend", ["sim", "runtime"])
@pytest.mark.parametrize("algorithm", ["sbt", "msbt"])
@pytest.mark.parametrize("pm", list(PortModel), ids=lambda pm: pm.value)
def test_public_broadcast_is_unchanged_by_the_translated_path(backend, algorithm, pm):
    cube = Hypercube(4)
    extra = {"backend": "runtime"} if backend == "runtime" else {"run_event_sim": True}
    for s in (5, 12, 15):
        warm = broadcast(cube, s, algorithm, 12, 4, pm, IPSC_D7, **extra)
        with disabled():
            cold = broadcast(cube, s, algorithm, 12, 4, pm, IPSC_D7, **extra)
        assert _public_run(warm) == _public_run(cold)


# -- rounds built on first read ------------------------------------------


@pytest.mark.parametrize("algorithm", ["sbt", "msbt"])
def test_translated_path_builds_no_rounds_until_read(algorithm):
    cube = Hypercube(5)
    pm = PortModel.ONE_PORT_FULL
    res = broadcast(cube, 19, algorithm, 40, 8, pm, IPSC_D7, run_event_sim=True)
    assert "rounds" not in vars(res.schedule)
    with disabled():
        res_cold = broadcast(cube, 19, algorithm, 40, 8, pm, IPSC_D7, run_event_sim=True)
    assert "rounds" in vars(res_cold.schedule)
    assert res.schedule == res_cold.schedule  # the read builds them
    assert "rounds" in vars(res.schedule)
    assert repr(res.schedule) == repr(res_cold.schedule)


@pytest.mark.parametrize("clone", [
    lambda s: pickle.loads(pickle.dumps(s)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_translated_schedule_round_trips(clone):
    cube = Hypercube(4)
    pm = PortModel.ONE_PORT_HALF
    with disabled():
        want = msbt_broadcast_schedule(cube, 11, 17, 4, pm)
    msbt_broadcast_schedule(cube, 0, 17, 4, pm)
    moved = msbt_broadcast_schedule(cube, 11, 17, 4, pm)
    assert "rounds" not in vars(moved)
    twin = clone(moved)
    assert "_on_read" not in vars(twin)
    assert twin == want
    assert moved == want


# -- cached lowerings ----------------------------------------------------


def _msbt_lowering(cube, s, pm):
    return collective_lowering(cube, "broadcast", "msbt", s, 12, 4, pm)


def test_cached_lowering_arrays_are_read_only():
    """A write into a shared lowering must raise rather than corrupt every
    later source served from it."""
    cube = Hypercube(4)
    pm = PortModel.ONE_PORT_FULL
    low0 = _msbt_lowering(cube, 0, pm)
    for name in ARRAYS:
        assert not getattr(low0, name).flags.writeable, name
    with pytest.raises(ValueError, match="read-only"):
        low0.src[0] = 1
    moved = _msbt_lowering(cube, 9, pm)
    with pytest.raises(ValueError, match="read-only"):
        moved.port[0] = 3  # shared with the source-0 entry
    with disabled():
        sched = msbt_broadcast_schedule(cube, 9, 12, 4, pm)
    assert_same_lowering(
        _msbt_lowering(cube, 9, pm),
        lower_schedule(cube, sched, {9: set(sched.chunk_sizes)}),
    )


def test_translated_lowering_is_isolated_from_its_entry():
    """A translated hit is a new object: rebinding its columns or its
    verdict leaves the entry, and every later source, as they were."""
    cube = Hypercube(4)
    pm = PortModel.ONE_PORT_HALF
    moved = _msbt_lowering(cube, 5, pm)
    moved.src = np.zeros_like(moved.src)
    moved.chunk_objects = []
    moved.checked_under = None
    for s in (0, 5, 11):
        again = _msbt_lowering(cube, s, pm)
        assert again.checked_under is pm
        with disabled():
            sched = msbt_broadcast_schedule(cube, s, 12, 4, pm)
        assert_same_lowering(
            again, lower_schedule(cube, sched, {s: set(sched.chunk_sizes)})
        )


def test_lowering_is_served_only_for_cached_fault_free_calls():
    cube = Hypercube(4)
    pm = PortModel.ONE_PORT_FULL
    with disabled():
        fresh = _msbt_lowering(cube, 3, pm)
        broadcast(cube, 3, "msbt", 12, 4, pm, run_event_sim=True)
    assert fresh.checked_under is None and fresh.src.flags.writeable
    assert cache_stats()["lowerings"]["misses"] == 0
    # a faulted call lowers its own fault-routed schedule, uncached
    broadcast(cube, 3, "msbt", 12, 4, pm, faults=FaultPlan(dead_links=[(0, 1)]))
    assert cache_stats()["lowerings"]["misses"] == 0
    _msbt_lowering(cube, 3, pm)
    _msbt_lowering(cube, 7, pm)
    stats = cache_stats()["lowerings"]
    assert (stats["misses"], stats["hits"], stats["size"]) == (1, 1, 1)
    for gen in (sbt_broadcast_schedule, msbt_broadcast_schedule, bst_scatter_schedule):
        assert not hasattr(gen, "lowering")
