"""Result-object behaviour of both engines."""

import pytest

from repro.sim import PortModel, Schedule, Transfer
from repro.sim import run_async
from repro.sim.synchronous import run_synchronous
from repro.topology import Hypercube


def _t(src, dst, *chunks):
    return Transfer(src, dst, frozenset(chunks))


class TestSyncResult:
    def test_holds_accessor(self, cube4):
        sched = Schedule(rounds=[(_t(0, 1, "a"),)], chunk_sizes={"a": 1})
        res = run_synchronous(cube4, sched, PortModel.ALL_PORT, {0: {"a"}})
        assert res.holds(1, "a")
        assert res.holds(0, "a")
        assert not res.holds(2, "a")
        assert not res.holds(1, "zzz")

    def test_step_costs_align_with_time(self, cube4):
        sched = Schedule(
            rounds=[(_t(0, 1, "a"),), (_t(1, 3, "a"),)],
            chunk_sizes={"a": 3},
        )
        res = run_synchronous(cube4, sched, PortModel.ALL_PORT, {0: {"a"}})
        assert len(res.step_costs) == res.cycles == 2
        assert sum(res.step_costs) == res.time

    def test_initial_holdings_not_mutated(self, cube4):
        init = {0: {"a"}}
        sched = Schedule(rounds=[(_t(0, 1, "a"),)], chunk_sizes={"a": 1})
        run_synchronous(cube4, sched, PortModel.ALL_PORT, init)
        assert init == {0: {"a"}}


class TestAsyncResult:
    def test_holdings_complete(self, cube4):
        sched = Schedule(
            rounds=[(_t(0, 1, "a"),), (_t(1, 3, "a"),)],
            chunk_sizes={"a": 3},
        )
        res = run_async(cube4, sched, PortModel.ALL_PORT, {0: {"a"}})
        assert "a" in res.holdings[0]
        assert "a" in res.holdings[1]
        assert "a" in res.holdings[3]
        assert "a" not in res.holdings[2]

    def test_empty_schedule(self, cube4):
        res = run_async(cube4, Schedule(rounds=[], chunk_sizes={}), PortModel.ALL_PORT, {})
        assert res.time == 0.0
        assert res.transfers_executed == 0

    def test_link_stats_match_sync(self, cube4):
        from repro.routing import msbt_broadcast_schedule

        sched = msbt_broadcast_schedule(cube4, 0, 16, 4, PortModel.ONE_PORT_FULL)
        init = {0: set(sched.chunk_sizes)}
        s = run_synchronous(cube4, sched, PortModel.ONE_PORT_FULL, init)
        a = run_async(cube4, sched, PortModel.ONE_PORT_FULL, init)
        assert s.link_stats.elems == a.link_stats.elems
        assert s.link_stats.packets == a.link_stats.packets
