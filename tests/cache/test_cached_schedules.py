"""Cached collective programs are bit-identical to uncached generation.

Randomized ``(n, source, M, B, port_model)`` samples for every kind of
collective call: the schedule :func:`repro.collectives.collective_program`
serves (miss *and* hit) must equal the one built afresh, and running
both through the engines must give identical
results.  Also covers the copy-on-hit isolation guarantee, that a warm
call builds nothing, and the translated broadcasts: their schedules
(rounds built on first read) and their lowerings (the source-0 entry
translated in NumPy) must equal what the uncached builders build, as
must every result of the public calls served by them.
"""

from __future__ import annotations

import copy
import pickle
import random
from itertools import product

import numpy as np
import pytest

from repro.cache import cache_stats, clear_caches
import repro.collectives.api as api
from repro.collectives import broadcast, collective_program
from repro.routing import (
    bst_scatter_schedule,
    msbt_broadcast_schedule,
    sbt_broadcast_schedule,
)
from repro.sim import run_async
from repro.sim.faults import FaultPlan
from repro.sim.lowering import ARRAYS, lower_schedule
from repro.sim.machine import IPSC_D7, MachineParams
from repro.sim.ports import PortModel
from repro.sim.synchronous import run_synchronous
from repro.topology.hypercube import Hypercube
from tests.fresh import fresh_program, uncached


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


#: (id, op, algorithm) of every kind of call the memo serves
CALLS = [
    ("sbt-broadcast", "broadcast", "sbt"),
    ("msbt-broadcast", "broadcast", "msbt"),
    ("dual-hp-broadcast", "broadcast", "hp-dual"),
    ("bst-scatter", "scatter", "bst"),
    ("sbt-scatter", "scatter", "sbt"),
    ("sbt-reduce", "reduce", "sbt"),
    ("allgather", "allgather", None),
    ("alltoall", "alltoall", None),
]


def _schedule(cube, op, algorithm, s, M, B, pm):
    return collective_program(cube, op, algorithm, s, M, B, pm)[0]


@pytest.mark.parametrize("name,op,algorithm", CALLS, ids=[c[0] for c in CALLS])
def test_cached_schedule_identical_to_uncached_randomized(name, op, algorithm):
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(6):
        n = rng.choice([3, 4, 5])
        cube = Hypercube(n)
        call = (cube, op, algorithm, rng.randrange(cube.num_nodes),
                rng.choice([1, 5, 17, 64]), rng.choice([1, 4, 16]),
                rng.choice(list(PortModel)))
        cold, cold_initial, _ = fresh_program(*call)
        miss = collective_program(*call)  # populates the cache
        hit = collective_program(*call)  # served from it
        for sched, initial, _ in (miss, hit):
            assert_same_schedule(sched, cold)
            assert initial == cold_initial


def test_cached_schedule_runs_identically_on_the_engine():
    cube = Hypercube(4)
    pm = PortModel.ONE_PORT_FULL
    call = (cube, "broadcast", "msbt", 6, 40, 8, pm)
    cold = fresh_program(*call)[0]
    _schedule(*call)
    warm = _schedule(*call)
    res_cold = run_async(cube, cold, pm, {6: set(cold.chunk_sizes)}, IPSC_D7)
    res_warm = run_async(cube, warm, pm, {6: set(warm.chunk_sizes)}, IPSC_D7)
    assert res_cold.time == res_warm.time
    assert res_cold.holdings == res_warm.holdings
    assert res_cold.link_stats == res_warm.link_stats
    assert res_cold.start_times == res_warm.start_times


def test_cache_hit_returns_isolated_copies():
    """Source 0 hits are copies of the entry, translated broadcasts from
    other sources translations of it (rounds built on read); neither
    shares mutable state with the entry or with another hit, and
    neither do their initial holdings."""
    cube = Hypercube(3)
    pm = PortModel.ONE_PORT_FULL
    for (op, algorithm), source in product([("broadcast", "sbt"), ("scatter", "bst")], (0, 2)):
        first, initial, _ = collective_program(cube, op, algorithm, source, 16, 4, pm)
        first.meta["poison"] = True
        first.chunk_sizes["poison"] = 1
        first.rounds.append(())
        initial[source].add("poison")
        initial[7] = {"poison"}
        for s in (source, 0, 5):
            again, again_initial, _ = collective_program(cube, op, algorithm, s, 16, 4, pm)
            assert "poison" not in again.meta
            assert "poison" not in again.chunk_sizes
            assert again.rounds[-1] != ()
            assert again_initial == {s: set(again.chunk_sizes)}
        # two hits are themselves independent
        a, a_initial, _ = collective_program(cube, op, algorithm, source, 16, 4, pm)
        b, b_initial, _ = collective_program(cube, op, algorithm, source, 16, 4, pm)
        assert a is not b
        assert a.meta is not b.meta
        assert a.chunk_sizes is not b.chunk_sizes
        assert a.rounds is not b.rounds
        assert a_initial[source] is not b_initial[source]


def test_positional_and_keyword_calls_share_an_entry():
    cube = Hypercube(3)
    pm = PortModel.ONE_PORT_HALF
    clear_caches()
    collective_program(cube, "broadcast", "sbt", 1, 8, 2, pm)
    collective_program(
        cube, op="broadcast", algorithm="sbt", source=1, message_elems=8,
        packet_elems=2, port_model=pm,
    )
    stats = cache_stats()["lowerings"]
    assert stats["misses"] == 1
    assert stats["hits"] == 1


def test_source_is_part_of_the_key():
    """Scatter schedules are not equivariant; distinct sources must be
    distinct entries, not translated hits."""
    cube = Hypercube(4)
    pm = PortModel.ONE_PORT_FULL
    s0 = _schedule(cube, "scatter", "bst", 0, 12, 4, pm)
    s5 = _schedule(cube, "scatter", "bst", 5, 12, 4, pm)
    assert s0.meta["source"] == 0
    assert s5.meta["source"] == 5
    assert s0.rounds != s5.rounds
    assert cache_stats()["lowerings"]["misses"] == 2


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
    """Each served schedule equals what ``gen`` builds from its source."""
    algorithm = "sbt" if gen is sbt_broadcast_schedule else "msbt"
    cube = Hypercube(4)
    pm = PortModel.ONE_PORT_HALF
    first = _schedule(cube, "broadcast", algorithm, 3, 12, 4, pm)
    second = _schedule(cube, "broadcast", algorithm, 9, 12, 4, pm)
    stats = cache_stats()["lowerings"]
    assert (stats["misses"], stats["hits"]) == (1, 1)
    assert first.meta["source"] == 3
    assert second.meta["source"] == 9
    assert_same_schedule(first, gen(cube, 3, 12, 4, pm))
    assert_same_schedule(second, gen(cube, 9, 12, 4, pm))


@pytest.mark.parametrize("source", [0, 6])
@pytest.mark.parametrize("name,op,algorithm", CALLS, ids=[c[0] for c in CALLS])
def test_warm_call_builds_nothing(name, op, algorithm, source, monkeypatch):
    """A repeated call is one memo lookup: no ``repro.routing`` generator
    runs, and neither do the schedule builder and the lowering."""
    cube = Hypercube(4)
    call = (cube, op, algorithm, source, 12, 4, PortModel.ONE_PORT_FULL)
    collective_program(*call)
    built = []

    def refuse(name):
        return lambda *args, **kwargs: built.append(name)

    for attr, obj in vars(api).items():
        module = getattr(obj, "__module__", "") or ""
        # every builder; argument checks such as check_subtree_order run
        if module.startswith("repro.routing") and not attr.startswith("check_"):
            monkeypatch.setattr(api, attr, refuse(attr))
    for attr in ("collective_schedule", "lower_schedule", "lowered_constraints_hold"):
        monkeypatch.setattr(api, attr, refuse(attr))
    sched, initial, low = collective_program(*call)
    assert built == []
    monkeypatch.undo()
    cold, cold_initial, cold_low = fresh_program(*call)
    assert_same_schedule(sched, cold)
    assert initial == cold_initial
    assert_same_lowering(low, cold_low)


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


#: the lowering ``collective_program`` serves each ``BROADCASTS``
#: generator's calls (packet-order SBT is no collective call)
LOWERINGS = {
    "sbt-port": lambda cube, s, M, B, pm: collective_program(cube, "broadcast", "sbt", s, M, B, pm)[2],
    "msbt": lambda cube, s, M, B, pm: collective_program(cube, "broadcast", "msbt", s, M, B, pm)[2],
}
SERVED = [g for g in BROADCASTS if g[0] in LOWERINGS]


@pytest.mark.parametrize("name,gen", BROADCASTS, ids=[g[0] for g in BROADCASTS])
def test_translated_lowering_at_n10(name, gen):
    cube = Hypercube(10)
    rng = random.Random(10)
    for pm in PortModel:
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
        with uncached():
            cold = broadcast(cube, s, algorithm, 12, 4, pm, IPSC_D7, **extra)
        assert _public_run(warm) == _public_run(cold)


# -- rounds built on first read ------------------------------------------


@pytest.mark.parametrize("algorithm", ["sbt", "msbt"])
def test_translated_path_builds_no_rounds_until_read(algorithm):
    cube = Hypercube(5)
    pm = PortModel.ONE_PORT_FULL
    res = broadcast(cube, 19, algorithm, 40, 8, pm, IPSC_D7, run_event_sim=True)
    assert "rounds" not in vars(res.schedule)
    with uncached():
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
    want = msbt_broadcast_schedule(cube, 11, 17, 4, pm)
    _schedule(cube, "broadcast", "msbt", 0, 17, 4, pm)
    moved = _schedule(cube, "broadcast", "msbt", 11, 17, 4, pm)
    assert "rounds" not in vars(moved)
    twin = clone(moved)
    assert "_on_read" not in vars(twin)
    assert twin == want
    assert moved == want


# -- cached lowerings ----------------------------------------------------


def _msbt_lowering(cube, s, pm):
    return collective_program(cube, "broadcast", "msbt", s, 12, 4, pm)[2]


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
        sched = msbt_broadcast_schedule(cube, s, 12, 4, pm)
        assert_same_lowering(
            again, lower_schedule(cube, sched, {s: set(sched.chunk_sizes)})
        )


def test_lowering_is_served_only_for_cached_fault_free_calls():
    cube = Hypercube(4)
    pm = PortModel.ONE_PORT_FULL
    # a faulted call lowers its own fault-routed schedule, uncached
    broadcast(cube, 3, "msbt", 12, 4, pm, faults=FaultPlan(dead_links=[(0, 1)]))
    assert cache_stats()["lowerings"]["misses"] == 0
    _msbt_lowering(cube, 3, pm)
    _msbt_lowering(cube, 7, pm)
    stats = cache_stats()["lowerings"]
    assert (stats["misses"], stats["hits"], stats["size"]) == (1, 1, 1)
    for gen in (sbt_broadcast_schedule, msbt_broadcast_schedule, bst_scatter_schedule):
        assert not hasattr(gen, "cache")  # generators keep no memo of their own
