"""Cached schedules are bit-identical to uncached generation.

Randomized ``(n, source, M, B, port_model)`` samples for every memoized
generator: the schedule produced through the cache (miss *and* hit)
must equal the one generated with caching disabled, and running both
through the engines must give identical results.  Also covers the
copy-on-hit isolation guarantee.
"""

from __future__ import annotations

import random

import pytest

from repro.cache import clear_caches, disabled
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
from repro.sim.machine import IPSC_D7
from repro.sim.ports import PortModel
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
    cube = Hypercube(3)
    pm = PortModel.ONE_PORT_FULL
    first = sbt_broadcast_schedule(cube, 2, 16, 4, pm)
    first.meta["poison"] = True
    first.rounds.append(())
    again = sbt_broadcast_schedule(cube, 2, 16, 4, pm)
    assert "poison" not in again.meta
    assert again.rounds[-1] != ()
    # two hits are themselves independent
    a = sbt_broadcast_schedule(cube, 2, 16, 4, pm)
    b = sbt_broadcast_schedule(cube, 2, 16, 4, pm)
    assert a is not b
    assert a.meta is not b.meta
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
    equals the source-0 schedule translated, round order included —
    what lets the cache serve every source from one entry."""
    with disabled():
        for n in range(2, 7):
            cube = Hypercube(n)
            for pm in PortModel:
                for M, B in ((1, 1), (17, 4), (64, 16), (9, 1)):
                    base = gen(cube, 0, M, B, pm)
                    for s in cube.nodes():
                        sched = gen(cube, s, M, B, pm)
                        moved = base.translated(cube, s)
                        assert sched.rounds == moved.rounds, (n, pm, M, B, s)
                        assert sched.meta == moved.meta
                        assert sched.chunk_sizes == moved.chunk_sizes
                        assert sched.algorithm == moved.algorithm


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
