"""Failure injection: corrupted schedules must be caught, not absorbed.

The engines' guarantees are only meaningful if violations are actually
detected.  These tests take known-good schedules and break them in
targeted ways — dropped transfers, reordered rounds, duplicated sends,
misrouted packets — asserting that validation or the delivery checks
fail loudly in every case.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import msbt_broadcast_schedule, sbt_scatter_schedule
from repro.sim import PortModel, Schedule, Transfer, run_synchronous
from repro.sim.synchronous import ScheduleViolation
from repro.topology import Hypercube


def _complete_broadcast(cube, sched, pm, source):
    res = run_synchronous(cube, sched, pm, {source: set(sched.chunk_sizes)})
    return all(
        res.holdings[v] >= set(sched.chunk_sizes) for v in cube.nodes()
    )


class TestDroppedTransfers:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_dropping_any_transfer_breaks_broadcast(self, seed):
        cube = Hypercube(3)
        sched = msbt_broadcast_schedule(cube, 0, 6, 2, PortModel.ONE_PORT_FULL)
        rng = random.Random(seed)
        flat = [(ri, ti) for ri, r in enumerate(sched.rounds) for ti in range(len(r))]
        ri, ti = rng.choice(flat)
        rounds = [list(r) for r in sched.rounds]
        del rounds[ri][ti]
        broken = Schedule(
            rounds=[tuple(r) for r in rounds], chunk_sizes=sched.chunk_sizes
        )
        # either a later sender no longer holds its payload (violation)
        # or some node ends up missing data — never a silent pass
        try:
            ok = _complete_broadcast(cube, broken, PortModel.ONE_PORT_FULL, 0)
        except ScheduleViolation:
            return
        assert not ok


class TestReorderedRounds:
    def test_swapping_dependent_rounds_detected(self, cube4):
        sched = msbt_broadcast_schedule(cube4, 0, 1, 1, PortModel.ONE_PORT_FULL)
        rounds = [r for r in sched.rounds if r]
        swapped = Schedule(
            rounds=[rounds[-1]] + rounds[1:-1] + [rounds[0]],
            chunk_sizes=sched.chunk_sizes,
        )
        with pytest.raises(ScheduleViolation):
            run_synchronous(
                cube4, swapped, PortModel.ONE_PORT_FULL, {0: set(sched.chunk_sizes)}
            )


class TestDuplicatedTransfers:
    def test_duplicate_send_violates_port_model(self, cube4):
        sched = sbt_scatter_schedule(cube4, 0, 2, 4, PortModel.ONE_PORT_FULL)
        target = next(r for r in sched.rounds if r)
        extra = Transfer(target[0].src, target[0].src ^ 8, target[0].chunks)
        if extra.dst == target[0].dst:
            extra = Transfer(target[0].src, target[0].src ^ 4, target[0].chunks)
        corrupted = Schedule(
            rounds=[tuple(list(sched.rounds[0]) + [extra])] + list(sched.rounds[1:]),
            chunk_sizes=sched.chunk_sizes,
        )
        with pytest.raises(ScheduleViolation, match="sends 2"):
            run_synchronous(
                cube4, corrupted, PortModel.ONE_PORT_FULL,
                {0: set(sched.chunk_sizes)},
            )


class TestMisroutedPackets:
    def test_wrong_payload_source_detected(self, cube4):
        # a node sending data it never had
        sched = Schedule(
            rounds=[(Transfer(2, 3, frozenset({("b", 0)})),)],
            chunk_sizes={("b", 0): 1},
        )
        with pytest.raises(ScheduleViolation, match="does not hold"):
            run_synchronous(cube4, sched, PortModel.ALL_PORT, {0: {("b", 0)}})

    def test_non_adjacent_hop_detected(self, cube4):
        sched = Schedule(
            rounds=[(Transfer(0, 3, frozenset({("b", 0)})),)],
            chunk_sizes={("b", 0): 1},
        )
        with pytest.raises(ScheduleViolation, match="not a cube edge"):
            run_synchronous(cube4, sched, PortModel.ALL_PORT, {0: {("b", 0)}})


class TestAsyncEngineAgreement:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_async_deadlocks_where_sync_raises(self, seed):
        # dropping an early transfer starves the pipeline: the async
        # engine must deadlock (never hang or silently finish)
        from repro.sim import run_async

        cube = Hypercube(3)
        sched = msbt_broadcast_schedule(cube, 0, 3, 1, PortModel.ONE_PORT_FULL)
        rng = random.Random(seed)
        rounds = [list(r) for r in sched.rounds if r]
        ri = rng.randrange(len(rounds) // 2)  # early round
        if not rounds[ri]:
            return
        victim = rounds[ri].pop(rng.randrange(len(rounds[ri])))
        broken = Schedule(
            rounds=[tuple(r) for r in rounds], chunk_sizes=sched.chunk_sizes
        )
        init = {0: set(sched.chunk_sizes)}
        try:
            res = run_async(cube, broken, PortModel.ONE_PORT_FULL, init)
        except RuntimeError:
            return  # deadlock detected: good
        # or the only consumers of the dropped edge were leaves: then
        # delivery must be incomplete exactly at the victim's subtree
        missing = [
            v for v in cube.nodes() if not res.holdings[v] >= set(sched.chunk_sizes)
        ]
        assert victim.dst in missing
