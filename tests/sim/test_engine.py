"""Unit tests for the asynchronous event-driven engine."""

import pytest

from repro.sim import MachineParams, PortModel, Schedule, Transfer
from repro.sim import run_async
from repro.topology import Hypercube


def _one(src, dst, *chunks):
    return Transfer(src, dst, frozenset(chunks))


def _m(tau=1.0, t_c=1.0, overlap=0.0):
    return MachineParams(tau=tau, t_c=t_c, overlap=overlap)


class TestBasics:
    def test_chain_times_add_up(self, cube4):
        sched = Schedule(
            rounds=[(_one(0, 1, "a"),), (_one(1, 3, "a"),)],
            chunk_sizes={"a": 4},
        )
        res = run_async(cube4, sched, PortModel.ONE_PORT_FULL, {0: {"a"}}, _m())
        # two sequential hops of cost tau + 4 tc = 5 each
        assert res.time == pytest.approx(10.0)
        assert "a" in res.holdings[3]

    def test_parallel_transfers_overlap_fully(self, cube4):
        sched = Schedule(
            rounds=[(_one(0, 1, "a"), _one(2, 3, "b"))],
            chunk_sizes={"a": 4, "b": 4},
        )
        res = run_async(
            cube4, sched, PortModel.ONE_PORT_FULL, {0: {"a"}, 2: {"b"}}, _m()
        )
        assert res.time == pytest.approx(5.0)

    def test_one_port_serializes_sends(self, cube4):
        sched = Schedule(
            rounds=[(_one(0, 1, "a"),), (_one(0, 2, "b"),)],
            chunk_sizes={"a": 4, "b": 4},
        )
        res = run_async(cube4, sched, PortModel.ONE_PORT_FULL, {0: {"a", "b"}}, _m())
        assert res.time == pytest.approx(10.0)

    def test_all_port_sends_concurrently(self, cube4):
        sched = Schedule(
            rounds=[(_one(0, 1, "a"),), (_one(0, 2, "b"),)],
            chunk_sizes={"a": 4, "b": 4},
        )
        res = run_async(cube4, sched, PortModel.ALL_PORT, {0: {"a", "b"}}, _m())
        assert res.time == pytest.approx(5.0)

    def test_deadlock_detected(self, cube4):
        sched = Schedule(
            rounds=[(_one(1, 3, "ghost"),)],
            chunk_sizes={"ghost": 1},
        )
        with pytest.raises(RuntimeError, match="deadlock"):
            run_async(cube4, sched, PortModel.ALL_PORT, {0: set()}, _m())


class TestPortModels:
    def test_half_duplex_serializes_send_and_receive(self, cube4):
        # node 1 receives then forwards: half duplex cannot overlap them
        sched = Schedule(
            rounds=[(_one(0, 1, "a"),), (_one(1, 3, "b"),)],
            chunk_sizes={"a": 4, "b": 4},
        )
        init = {0: {"a"}, 1: {"b"}}
        half = run_async(cube4, sched, PortModel.ONE_PORT_HALF, init, _m())
        full = run_async(cube4, sched, PortModel.ONE_PORT_FULL, init, _m())
        assert half.time == pytest.approx(10.0)
        assert full.time == pytest.approx(5.0)  # concurrent send + receive

    def test_link_exclusive_even_all_port(self, cube4):
        sched = Schedule(
            rounds=[(_one(0, 1, "a"),), (_one(0, 1, "b"),)],
            chunk_sizes={"a": 4, "b": 4},
        )
        res = run_async(cube4, sched, PortModel.ALL_PORT, {0: {"a", "b"}}, _m())
        assert res.time == pytest.approx(10.0)


class TestOverlap:
    def test_cross_port_overlap_shortens_makespan(self, cube4):
        sched = Schedule(
            rounds=[(_one(0, 1, "a"),), (_one(0, 2, "b"),)],
            chunk_sizes={"a": 9, "b": 9},
        )
        t0 = run_async(
            cube4, sched, PortModel.ONE_PORT_FULL, {0: {"a", "b"}}, _m(overlap=0.0)
        ).time
        t2 = run_async(
            cube4, sched, PortModel.ONE_PORT_FULL, {0: {"a", "b"}}, _m(overlap=0.2)
        ).time
        assert t0 == pytest.approx(20.0)
        assert t2 == pytest.approx(18.0)  # second send starts at 8.0

    def test_same_port_never_overlaps(self, cube4):
        sched = Schedule(
            rounds=[(_one(0, 1, "a"),), (_one(0, 1, "b"),)],
            chunk_sizes={"a": 9, "b": 9},
        )
        t = run_async(
            cube4, sched, PortModel.ONE_PORT_FULL, {0: {"a", "b"}}, _m(overlap=0.5)
        ).time
        assert t == pytest.approx(20.0)


class TestHardwarePacketization:
    def test_internal_splitting_charges_extra_startups(self, cube4):
        sched = Schedule(
            rounds=[(_one(0, 1, "a"),)],
            chunk_sizes={"a": 2048},
        )
        m = MachineParams(tau=1.0, t_c=0.0, internal_packet_elems=1024)
        res = run_async(cube4, sched, PortModel.ONE_PORT_FULL, {0: {"a"}}, m)
        assert res.time == pytest.approx(2.0)


class TestAgainstSynchronous:
    def test_async_never_slower_than_lockstep_uniform(self, cube4):
        # with uniform packets and no overlap, the async makespan is at
        # most the lock-step bound rounds * (tau + B tc)
        from repro.routing import msbt_broadcast_schedule
        from repro.sim.synchronous import run_synchronous

        sched = msbt_broadcast_schedule(cube4, 0, 32, 4, PortModel.ONE_PORT_FULL)
        init = {0: set(sched.chunk_sizes)}
        sync = run_synchronous(cube4, sched, PortModel.ONE_PORT_FULL, init, _m())
        asy = run_async(cube4, sched, PortModel.ONE_PORT_FULL, init, _m())
        assert asy.time <= sync.time + 1e-9
        assert asy.transfers_executed == sched.num_transfers
