"""Unit tests for the fault-injection primitives (repro.sim.faults).

Covers FaultPlan normalization and queries, the structured FaultError,
DegradedResult accounting, time-activation semantics on hand-built
schedules, and the on_fault mode validation in all three engines.
"""

from __future__ import annotations

import pytest

from repro.sim import (
    DegradedResult,
    FaultError,
    FaultEvent,
    FaultPlan,
    PortModel,
    Schedule,
    Transfer,
    run_async,
    run_synchronous,
)
from repro.sim._engine_reference import run_async_reference
from repro.sim.faults import undelivered_map
from repro.sim.machine import MachineParams
from repro.topology import Hypercube

CUBE = Hypercube(3)

# ``run_async`` is the public name of the vectorized engine; the explicit
# id keeps the test ids on the public name.
ASYNC_ENGINES = [pytest.param(run_async, id="run_async"), run_async_reference]
ALL_ENGINES = [*ASYNC_ENGINES, run_synchronous]


class TestFaultPlan:
    def test_links_are_direction_agnostic_and_deduped(self):
        plan = FaultPlan(dead_links=[(1, 0), (0, 1, 5.0)])
        assert plan.dead_links == frozenset({(0, 1)})
        # earliest activation wins for duplicates
        assert plan.link_activation(1, 0) == 0.0

    def test_node_spellings(self):
        plan = FaultPlan(dead_nodes=[3, (5, 2.5)])
        assert plan.dead_nodes == frozenset({3, 5})
        assert plan.node_activation(5) == 2.5
        assert plan.node_activation(7) is None

    def test_blocks_prefers_node_over_link(self):
        plan = FaultPlan(dead_links=[(0, 1)], dead_nodes=[0])
        assert plan.blocks(0, 1) == ("node", 0)
        assert plan.blocks(2, 3) is None

    def test_time_activation_gates_blocks(self):
        plan = FaultPlan(dead_links=[(2, 6, 4.0)])
        assert plan.blocks(6, 2, 3.9) is None
        assert plan.blocks(6, 2, 4.0) == ("link", (2, 6))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            FaultPlan(dead_links=[(3, 3)])
        with pytest.raises(ValueError, match=">= 0"):
            FaultPlan(dead_links=[(0, 1, -1.0)])
        with pytest.raises(ValueError, match=">= 0"):
            FaultPlan(dead_nodes=[(2, -0.5)])
        with pytest.raises(ValueError, match=">= 0"):
            FaultPlan(dead_links=[(0, 1, float("nan"))])
        with pytest.raises(ValueError, match=">= 0"):
            FaultPlan(dead_nodes=[(3, float("nan"))])
        with pytest.raises(ValueError, match="dead link"):
            FaultPlan(dead_links=[(0,)])

    def test_truthiness_equality_hash(self):
        assert not FaultPlan()
        assert FaultPlan(dead_nodes=[1])
        a = FaultPlan(dead_links=[(0, 1)], dead_nodes=[2])
        b = FaultPlan(dead_links=[(1, 0)], dead_nodes=[(2, 0.0)])
        assert a == b and hash(a) == hash(b)
        assert a != FaultPlan(dead_links=[(0, 1, 9.0)], dead_nodes=[2])

    def test_is_immediate(self):
        assert FaultPlan(dead_links=[(0, 1)]).is_immediate
        assert not FaultPlan(dead_nodes=[(4, 1.0)]).is_immediate

    def test_schedule_is_clean(self):
        sched = Schedule(
            rounds=[(Transfer(0, 1, frozenset({("b", 0)})),)],
            chunk_sizes={("b", 0): 1},
        )
        assert FaultPlan(dead_links=[(2, 6)]).schedule_is_clean(sched)
        assert not FaultPlan(dead_links=[(1, 0)]).schedule_is_clean(sched)
        assert not FaultPlan(dead_nodes=[1]).schedule_is_clean(sched)


class TestEngineModes:
    def _sched(self):
        return Schedule(
            rounds=[
                (Transfer(0, 1, frozenset({("b", 0)})),),
                (Transfer(1, 3, frozenset({("b", 0)})),),
            ],
            chunk_sizes={("b", 0): 2},
        )

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_bad_on_fault_mode_rejected(self, engine):
        with pytest.raises(ValueError, match="on_fault"):
            engine(
                CUBE, self._sched(), PortModel.ONE_PORT_FULL,
                {0: {("b", 0)}},
                faults=FaultPlan(dead_nodes=[5]),
                on_fault="explode",
            )

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_empty_plan_runs_clean(self, engine):
        res = engine(
            CUBE, self._sched(), PortModel.ONE_PORT_FULL,
            {0: {("b", 0)}}, faults=FaultPlan(), on_fault="report",
        )
        assert not isinstance(res, DegradedResult)
        assert res.holdings[3] == {("b", 0)}

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_raise_mode_structured_error(self, engine):
        with pytest.raises(FaultError) as excinfo:
            engine(
                CUBE, self._sched(), PortModel.ONE_PORT_FULL,
                {0: {("b", 0)}}, faults=FaultPlan(dead_links=[(3, 1)]),
            )
        err = excinfo.value
        assert err.edge == (1, 3)
        assert err.time == pytest.approx(3.0)  # tau + 2*t_c of the first hop
        assert err.chunks == frozenset({("b", 0)})

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_report_mode_cascade_and_accounting(self, engine):
        # killing the first hop starves the second: both are lost and
        # nodes 1 and 3 are reported undelivered
        res = engine(
            CUBE, self._sched(), PortModel.ONE_PORT_FULL,
            {0: {("b", 0)}}, faults=FaultPlan(dead_links=[(0, 1)]),
            on_fault="report",
        )
        assert isinstance(res, DegradedResult)
        assert res.transfers_executed == 0
        assert res.transfers_lost == 2
        assert res.undelivered == {
            1: frozenset({("b", 0)}),
            3: frozenset({("b", 0)}),
        }
        assert res.undelivered_nodes == (1, 3)
        assert not res.complete
        assert len(res.fault_events) == 1
        ev = res.fault_events[0]
        assert isinstance(ev, FaultEvent)
        assert ev.kind == "link" and ev.subject == (0, 1)

    @pytest.mark.parametrize("engine", ASYNC_ENGINES)
    def test_in_flight_transfer_outruns_activation(self, engine):
        # the hop starts at t=0 and takes 3; a fault activating at 1.0
        # must not clip it (store-and-forward keeps in-flight packets)
        sched = Schedule(
            rounds=[(Transfer(0, 1, frozenset({("b", 0)})),)],
            chunk_sizes={("b", 0): 2},
        )
        res = engine(
            CUBE, sched, PortModel.ONE_PORT_FULL, {0: {("b", 0)}},
            faults=FaultPlan(dead_links=[(0, 1, 1.0)]), on_fault="report",
        )
        assert not isinstance(res, DegradedResult)
        assert res.holdings[1] == {("b", 0)}

    @pytest.mark.parametrize("engine", ASYNC_ENGINES)
    def test_activation_blocks_later_starts(self, engine):
        # second hop would start at t=3, after the link dies at 1.5
        res = engine(
            CUBE, self._sched(), PortModel.ONE_PORT_FULL, {0: {("b", 0)}},
            faults=FaultPlan(dead_links=[(1, 3, 1.5)]), on_fault="report",
        )
        assert isinstance(res, DegradedResult)
        assert res.undelivered == {3: frozenset({("b", 0)})}

    def test_dead_node_blocks_send_and_receive(self):
        sched = Schedule(
            rounds=[
                (Transfer(0, 1, frozenset({("b", 0)})),),
                (Transfer(0, 2, frozenset({("b", 1)})),),
            ],
            chunk_sizes={("b", 0): 1, ("b", 1): 1},
        )
        res = run_synchronous(
            CUBE, sched, PortModel.ONE_PORT_FULL,
            {0: {("b", 0), ("b", 1)}},
            faults=FaultPlan(dead_nodes=[1]), on_fault="report",
        )
        assert isinstance(res, DegradedResult)
        assert res.undelivered_nodes == (1,)
        assert res.holdings[2] == {("b", 1)}  # unaffected branch ran

    def test_sync_cycles_and_step_costs_populated(self):
        res = run_synchronous(
            CUBE, self._sched(), PortModel.ONE_PORT_FULL, {0: {("b", 0)}},
            faults=FaultPlan(dead_links=[(1, 3)]), on_fault="report",
            machine=MachineParams(tau=1.0, t_c=1.0),
        )
        assert isinstance(res, DegradedResult)
        assert res.cycles == 1  # only the surviving first round ran
        assert res.step_costs == [3.0]  # tau + 2 * t_c

    def test_genuine_deadlock_still_raises_in_report_mode(self):
        # a causally broken schedule with NO fault events must keep
        # raising RuntimeError — report mode only absorbs fault cascades
        sched = Schedule(
            rounds=[(Transfer(2, 3, frozenset({("b", 0)})),)],
            chunk_sizes={("b", 0): 1},
        )
        with pytest.raises(RuntimeError, match="deadlock"):
            run_async(
                CUBE, sched, PortModel.ONE_PORT_FULL, {1: {("b", 0)}},
                faults=FaultPlan(dead_links=[(4, 5)]), on_fault="report",
            )


class TestUndeliveredMap:
    def test_redundant_delivery_not_counted(self):
        lost = [Transfer(0, 1, frozenset({("b", 0)}))]
        holdings = {1: {("b", 0)}}  # arrived over another path anyway
        assert undelivered_map(lost, holdings) == {}

    def test_merges_chunks_per_destination(self):
        lost = [
            Transfer(0, 1, frozenset({("b", 0)})),
            Transfer(2, 1, frozenset({("b", 1)})),
        ]
        assert undelivered_map(lost, {1: set()}) == {
            1: frozenset({("b", 0), ("b", 1)})
        }

    def test_degraded_result_holds(self):
        res = DegradedResult(
            time=1.0,
            holdings={0: {("b", 0)}},
            link_stats=None,
        )
        assert res.holds(0, ("b", 0))
        assert not res.holds(1, ("b", 0))
        assert res.complete
