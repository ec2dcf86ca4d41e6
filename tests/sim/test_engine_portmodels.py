"""Deeper asynchronous-engine tests: contention chains, overlap stacks,
receive-side blocking, and cross-model orderings."""

import pytest

from repro.sim import MachineParams, PortModel, Schedule, Transfer
from repro.sim import run_async
from repro.topology import Hypercube


def _t(src, dst, *chunks):
    return Transfer(src, dst, frozenset(chunks))


def _m(tau=0.0, t_c=1.0, overlap=0.0):
    return MachineParams(tau=tau, t_c=t_c, overlap=overlap)


class TestReceiveContention:
    def test_receiver_serializes_inbound_under_one_port(self, cube4):
        # two different senders target node 3: one-port recv serializes
        sched = Schedule(
            rounds=[(_t(1, 3, "a"), _t(2, 3, "b"))],
            chunk_sizes={"a": 10, "b": 10},
        )
        init = {1: {"a"}, 2: {"b"}}
        one = run_async(cube4, sched, PortModel.ONE_PORT_FULL, init, _m())
        allp = run_async(cube4, sched, PortModel.ALL_PORT, init, _m())
        assert one.time == pytest.approx(20.0)
        assert allp.time == pytest.approx(10.0)

    def test_sender_blocked_by_busy_receiver_half_duplex(self, cube4):
        # node 1 is sending (busy); an inbound transfer to node 1 must
        # wait under half duplex but not under full duplex
        sched = Schedule(
            rounds=[(_t(1, 3, "a"),), (_t(0, 1, "b"),)],
            chunk_sizes={"a": 10, "b": 10},
        )
        init = {1: {"a"}, 0: {"b"}}
        half = run_async(cube4, sched, PortModel.ONE_PORT_HALF, init, _m())
        full = run_async(cube4, sched, PortModel.ONE_PORT_FULL, init, _m())
        assert half.time == pytest.approx(20.0)
        assert full.time == pytest.approx(10.0)


class TestOverlapChains:
    def test_three_port_chain_accumulates_overlap(self, cube4):
        # sends on ports 0, 1, 2 from node 0: each successive send may
        # start at 80% of the previous one
        sched = Schedule(
            rounds=[(_t(0, 1, "a"),), (_t(0, 2, "b"),), (_t(0, 4, "c"),)],
            chunk_sizes={"a": 10, "b": 10, "c": 10},
        )
        init = {0: {"a", "b", "c"}}
        res = run_async(cube4, sched, PortModel.ONE_PORT_FULL, init, _m(overlap=0.2))
        # starts at 0, 8, 16 -> finish 26 (not 30)
        assert res.time == pytest.approx(26.0)

    def test_overlap_does_not_apply_to_reuse_of_same_port(self, cube4):
        sched = Schedule(
            rounds=[(_t(0, 1, "a"),), (_t(0, 2, "b"),), (_t(0, 1, "c"),)],
            chunk_sizes={"a": 10, "b": 10, "c": 10},
        )
        init = {0: {"a", "b", "c"}}
        res = run_async(cube4, sched, PortModel.ONE_PORT_FULL, init, _m(overlap=0.2))
        # third send reuses port 0: must wait for the first to END (10),
        # and for 80% of the second (8 + 8 = 16) -> starts at 16
        assert res.time == pytest.approx(26.0)


class TestCrossModelOrdering:
    @pytest.mark.parametrize("gen", ["msbt", "sbt"])
    def test_more_ports_never_slower(self, cube5, gen):
        from repro.routing import msbt_broadcast_schedule, sbt_broadcast_schedule

        gen_fn = msbt_broadcast_schedule if gen == "msbt" else sbt_broadcast_schedule
        times = {}
        for pm in PortModel:
            sched = gen_fn(cube5, 0, 48, 4, pm)
            init = {0: set(sched.chunk_sizes)}
            times[pm] = run_async(cube5, sched, pm, init, _m(tau=1.0)).time
        assert times[PortModel.ALL_PORT] <= times[PortModel.ONE_PORT_FULL] + 1e-9
        assert times[PortModel.ONE_PORT_FULL] <= times[PortModel.ONE_PORT_HALF] + 1e-9

    def test_start_times_are_reported(self, cube4):
        sched = Schedule(
            rounds=[(_t(0, 1, "a"),), (_t(1, 3, "a"),)],
            chunk_sizes={"a": 5},
        )
        res = run_async(cube4, sched, PortModel.ALL_PORT, {0: {"a"}}, _m())
        assert res.start_times == [0.0, 5.0]
        assert res.transfers_executed == 2


class TestZeroSizeTransfers:
    def test_marker_chunks_cost_one_startup(self, cube4):
        sched = Schedule(
            rounds=[(_t(0, 1, ("done", 0, 0)),)],
            chunk_sizes={("done", 0, 0): 0},
        )
        res = run_async(
            cube4, sched, PortModel.ONE_PORT_FULL,
            {0: {("done", 0, 0)}}, MachineParams(tau=2.0, t_c=1.0),
        )
        assert res.time == pytest.approx(2.0)
