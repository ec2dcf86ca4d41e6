"""Engine results whose holdings and link counters are built on first read.

A fault-free lock-step run priced from its lowering (``run_synchronous``
with ``lowered=``) and a fault-free vectorized event run keep their
``holdings`` and their ``LinkStats`` counters as arrays until something
reads them.  Read or not, they must behave like the same results built
eagerly: same ``==``, ``repr`` and counter key order, the same pickle
and copy behaviour, and no state shared with another result or with a
cached lowering.  Faulted results stay eager.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from repro.collectives import api, broadcast
from repro.routing import msbt_broadcast_schedule, sbt_broadcast_schedule
from repro.sim import LinkStats, run_async
from repro.sim._engine_reference import run_async_reference
from repro.sim.faults import DegradedResult, FaultPlan
from repro.sim.lowering import lower_schedule
from repro.sim.machine import IPSC_D7
from repro.sim.ports import PortModel
from repro.sim.synchronous import run_synchronous
from repro.topology.hypercube import DirectedEdge, Hypercube
from tests.fresh import uncached

CUBE = Hypercube(4)
FULL = PortModel.ONE_PORT_FULL

CLONES = [
    lambda x: pickle.loads(pickle.dumps(x)),
    copy.deepcopy,
    copy.copy,
]
CLONE_IDS = ["pickle", "deepcopy", "copy"]


def _runs(source: int = 5, port_model: PortModel = FULL):
    """(schedule, initial holdings, lowering) of an n=4 MSBT broadcast."""
    sched = msbt_broadcast_schedule(CUBE, source, 37, 8, port_model)
    init = {source: set(sched.chunk_sizes)}
    return sched, init, lower_schedule(CUBE, sched, init)


def _lazy_sync(port_model: PortModel = FULL):
    sched, init, low = _runs(port_model=port_model)
    return run_synchronous(CUBE, sched, port_model, init, IPSC_D7, lowered=low)


def _lazy_async(port_model: PortModel = FULL):
    sched, init, low = _runs(port_model=port_model)
    return run_async(CUBE, sched, port_model, init, IPSC_D7, lowered=low)


def _unbuilt(result) -> bool:
    stats = vars(result.link_stats)
    return (
        "holdings" not in vars(result)
        and "elems" not in stats
        and "packets" not in stats
    )


# -- LinkStats.from_links ------------------------------------------------


def _edge_arrays():
    src = np.array([3, 0, 1], dtype=np.int32)
    dst = np.array([1, 1, 5], dtype=np.int32)
    packets = np.array([2, 1, 4], dtype=np.int64)
    elems = np.array([7, 9, 20], dtype=np.int64)
    return src, dst, packets, elems


def _eager_stats() -> LinkStats:
    s = LinkStats()
    for src, dst, n in [(3, 1, 3), (0, 1, 9), (3, 1, 4)]:
        s.record(src, dst, n)
    for _ in range(4):
        s.record(1, 5, 5)
    return s


class TestFromLinks:
    def test_matches_the_recorded_stats_in_key_order(self):
        lazy = LinkStats.from_links(*_edge_arrays())
        eager = _eager_stats()
        assert lazy == eager
        assert repr(lazy) == repr(eager)
        assert list(lazy.elems) == list(eager.elems)
        assert list(lazy.packets) == list(eager.packets)

    def test_totals_answer_from_the_arrays(self):
        lazy = LinkStats.from_links(*_edge_arrays())
        eager = _eager_stats()
        for name in (
            "total_elems", "total_packets", "links_used",
            "max_edge_elems", "max_edge_packets",
        ):
            got = getattr(lazy, name)()
            assert got == getattr(eager, name)(), name
            assert type(got) is int, name
        assert "elems" not in vars(lazy)
        assert "packets" not in vars(lazy)

    def test_counters_build_separately_from_one_edge_list(self):
        lazy = LinkStats.from_links(*_edge_arrays())
        packets = lazy.packets
        assert "elems" not in vars(lazy)
        assert lazy.elems.keys() == packets.keys()
        first = next(iter(packets))
        assert next(iter(lazy.elems)) is first  # one DirectedEdge per link
        assert set(vars(lazy)) == {"elems", "packets"}

    def test_a_built_counter_answers_after_a_write(self):
        lazy = LinkStats.from_links(*_edge_arrays())
        lazy.elems[DirectedEdge(0, 1)] += 100
        assert lazy.total_elems() == 136
        assert lazy.max_edge_elems() == 109
        lazy.packets[DirectedEdge(2, 3)] += 1
        assert lazy.total_packets() == 8
        assert lazy.links_used() == 4

    def test_record_and_merge_build_the_counters_first(self):
        lazy = LinkStats.from_links(*_edge_arrays())
        lazy.record(3, 1, 1)
        assert lazy.elems[DirectedEdge(3, 1)] == 8
        assert lazy.packets[DirectedEdge(3, 1)] == 3
        other = LinkStats.from_links(*_edge_arrays())
        merged = LinkStats().merge(other, LinkStats.from_links(*_edge_arrays()))
        assert merged.packets[DirectedEdge(1, 5)] == 8
        assert merged.total_elems() == 2 * other.total_elems()

    def test_empty(self):
        none = np.zeros(0, dtype=np.int64)
        lazy = LinkStats.from_links(none, none, none, none)
        assert lazy == LinkStats()
        assert lazy.total_elems() == lazy.total_packets() == 0
        assert lazy.links_used() == lazy.max_edge_elems() == 0
        assert lazy.max_edge_packets() == 0

    @pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
    def test_round_trips(self, clone):
        lazy = LinkStats.from_links(*_edge_arrays())
        twin = clone(lazy)
        assert set(vars(twin)) == {"elems", "packets"}
        assert twin == _eager_stats()
        assert list(twin.packets) == list(_eager_stats().packets)


# -- results built on read -----------------------------------------------


def _eager_twin(result):
    """An eagerly built result equal to ``result``, read in full."""
    values = {f.name: getattr(result, f.name) for f in fields(result)}
    stats = result.link_stats
    values["link_stats"] = LinkStats(
        elems=Counter(stats.elems), packets=Counter(stats.packets)
    )
    return type(result)(**values)


@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
@pytest.mark.parametrize("make", [_lazy_sync, _lazy_async], ids=["sync", "async"])
def test_unread_result_equals_its_eager_twin(make, port_model):
    eager = _eager_twin(make(port_model))
    lazy = make(port_model)
    assert _unbuilt(lazy)
    assert repr(lazy) == repr(eager)
    lazy = make(port_model)
    assert _unbuilt(lazy)
    assert lazy == eager
    assert list(lazy.holdings) == list(CUBE.nodes())
    assert list(lazy.link_stats.elems) == list(lazy.link_stats.packets)


@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
def test_lowered_lockstep_result_equals_the_round_loop(port_model):
    """Same values and counter key order (first use) as the eager loop."""
    sched, init, low = _runs(port_model=port_model)
    lazy = run_synchronous(CUBE, sched, port_model, init, IPSC_D7, lowered=low)
    eager = run_synchronous(CUBE, sched, port_model, init, IPSC_D7)
    assert "holdings" in vars(eager)
    assert lazy == eager
    assert list(lazy.link_stats.elems) == list(eager.link_stats.elems)
    assert list(lazy.link_stats.packets) == list(eager.link_stats.packets)


@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
def test_event_result_equals_the_reference_engine(port_model):
    """Same values as the eager oracle, counters in ascending link order."""
    lazy = _lazy_async(port_model)
    sched, init, _ = _runs(port_model=port_model)
    ref = run_async_reference(CUBE, sched, port_model, init, IPSC_D7)
    assert lazy.holdings == ref.holdings
    assert lazy.link_stats == ref.link_stats
    keys = list(lazy.link_stats.packets)
    assert keys == sorted(keys, key=lambda e: e.src * CUBE.num_nodes + e.dst)


@pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
@pytest.mark.parametrize("make", [_lazy_sync, _lazy_async], ids=["sync", "async"])
def test_results_round_trip(make, clone):
    want = make()
    want.holdings, want.link_stats.packets, want.link_stats.elems
    lazy = make()
    twin = clone(lazy)
    assert "_on_read" not in vars(twin)
    if clone is not copy.copy:  # a shallow copy shares the stats object
        assert "_on_read" not in vars(twin.link_stats)
    assert twin == want
    assert repr(twin) == repr(want)
    assert lazy == want


def test_each_result_owns_its_holdings_and_counters():
    """Two broadcasts served from one cached lowering, and a later call,
    share no set, dict or counter."""
    cube = Hypercube(5)

    def run():
        return broadcast(cube, 19, "msbt", 40, 8, FULL, IPSC_D7, run_event_sim=True)

    with uncached():
        want = run()
    first, second = run(), run()
    edge = next(iter(first.link_stats.packets))
    for res in (first.sync, first.async_):
        for chunks in res.holdings.values():
            chunks.clear()
        res.holdings[0] = {"poison"}
        res.link_stats.packets[edge] += 5
        res.link_stats.elems[edge] += 5
    for other in (second, run()):
        for a, b in ((other.sync, want.sync), (other.async_, want.async_)):
            assert a.holdings == b.holdings
            assert a.link_stats == b.link_stats
    assert first.async_.holdings is not second.async_.holdings


def test_public_broadcast_builds_nothing_it_does_not_read():
    """The delivery check reads the cached lowering's verdict, not the
    holdings; metrics and summaries read totals from the arrays."""
    res = broadcast(CUBE, 5, "msbt", 37, 8, FULL, IPSC_D7, run_event_sim=True)
    assert res.metrics["packets_sent"] == res.link_stats.total_packets()
    assert "holdings" not in vars(res.sync)
    assert "holdings" not in vars(res.async_)
    for stats in (res.link_stats, res.async_.link_stats):
        assert "packets" not in vars(stats)
        assert "elems" not in vars(stats)
    res.async_.link_stats.packets
    assert "elems" not in vars(res.async_.link_stats)

    res = broadcast(CUBE, 5, "sbt", 37, 8, FULL)
    assert res.async_ is None
    assert "holdings" not in vars(res.sync)
    assert "packets" not in vars(res.link_stats)


def test_faulted_and_reference_results_stay_eager():
    sched, init, _ = _runs()
    plan = FaultPlan(dead_links=[(5, 4)])
    for res in (
        run_async(CUBE, sched, FULL, init, IPSC_D7, faults=plan, on_fault="report"),
        run_synchronous(
            CUBE, sched, FULL, init, IPSC_D7, faults=plan, on_fault="report"
        ),
    ):
        assert isinstance(res, DegradedResult)
        assert "holdings" in vars(res)
    ref = run_async_reference(CUBE, sched, FULL, init, IPSC_D7)
    assert "holdings" in vars(ref)
    assert "packets" in vars(ref.link_stats)
    eager = run_synchronous(CUBE, sched, FULL, init, IPSC_D7)
    assert "holdings" in vars(eager)


# -- the delivery check follows the timed run -----------------------------


def test_delivery_check_reads_the_event_run(monkeypatch):
    """An event result short of one delivered slot fails the call even
    though the lock-step run delivered everything."""
    real = api.get_engine

    def short_engine():
        run = real()

        def short(*args, **kwargs):
            res = run(*args, **kwargs)
            held = res.holdings[3]
            held.discard(next(iter(held)))
            return res

        return short

    monkeypatch.setattr(api, "get_engine", short_engine)
    for gen in (sbt_broadcast_schedule, msbt_broadcast_schedule):
        algorithm = gen.__name__.split("_")[0]
        with pytest.raises(AssertionError, match="node 3 short of 1 chunk"):
            broadcast(CUBE, 5, algorithm, 37, 8, FULL, IPSC_D7, run_event_sim=True)
        # the lock-step run alone delivers
        broadcast(CUBE, 5, algorithm, 37, 8, FULL, IPSC_D7)
