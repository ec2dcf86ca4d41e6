"""Fault plumbing of the high-level collectives (broadcast/scatter).

The collectives must (a) route around a FaultPlan, (b) run the engines
*under* that plan as proof the schedule avoids every fault, (c) raise a
structured FaultError when faults disconnect live nodes and raising was
requested, and (d) in report mode serve the surviving component and
name everyone else.
"""

from __future__ import annotations

import pytest

from repro.collectives import broadcast, scatter
from repro.routing.common import MSG
from repro.sim import FaultError, FaultPlan, PortModel
from repro.topology import Hypercube

CUBE = Hypercube(4)
N = CUBE.dimension


def _isolating(victim: int, n: int) -> FaultPlan:
    return FaultPlan(
        dead_links=[(victim, victim ^ (1 << d)) for d in range(n)]
    )


class TestBroadcastFaults:
    @pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
    def test_msbt_keeps_pipelining_on_link_faults(self, port_model):
        plan = FaultPlan(dead_links=[(0, 1), (2, 6), (8, 12)])
        result = broadcast(
            CUBE, 0, "msbt", 4 * N, 4, port_model, faults=plan,
            run_event_sim=True,
        )
        assert result.algorithm == "msbt-broadcast-degraded"
        assert result.faults == plan
        assert not result.degraded and not result.undelivered_nodes
        want = set(result.schedule.chunk_sizes)
        for v in CUBE.nodes():
            assert result.sync.holdings[v] >= want
            assert result.async_.holdings[v] >= want

    def test_dead_node_falls_back_to_survivor_tree(self):
        plan = FaultPlan(dead_links=[(0, 1)], dead_nodes=[6])
        result = broadcast(CUBE, 0, "msbt", 8, 4, faults=plan)
        assert result.algorithm == "survivortree-broadcast"
        assert result.undelivered_nodes == frozenset({6})
        assert result.degraded
        want = set(result.schedule.chunk_sizes)
        for v in CUBE.nodes():
            if v != 6:
                assert result.sync.holdings[v] >= want

    @pytest.mark.parametrize("algorithm", ["sbt", "tcbt", "hp"])
    def test_other_algorithms_fall_back(self, algorithm):
        plan = FaultPlan(dead_links=[(0, 1)])
        result = broadcast(CUBE, 0, algorithm, 4, 2, faults=plan)
        assert result.algorithm == "survivortree-broadcast"
        assert plan.schedule_is_clean(result.schedule)
        assert not result.undelivered_nodes

    def test_disconnection_raises_by_default(self):
        with pytest.raises(FaultError) as excinfo:
            broadcast(CUBE, 0, "msbt", 4, 2, faults=_isolating(9, N))
        assert 9 in excinfo.value.undelivered

    def test_disconnection_reported_on_request(self):
        result = broadcast(
            CUBE, 0, "msbt", 4, 2, faults=_isolating(9, N), on_fault="report"
        )
        assert result.undelivered_nodes == frozenset({9})
        want = set(result.schedule.chunk_sizes)
        for v in CUBE.nodes():
            if v != 9:
                assert result.sync.holdings[v] >= want

    def test_dead_source_raises(self):
        with pytest.raises(FaultError) as excinfo:
            broadcast(CUBE, 6, "msbt", 4, 2, faults=FaultPlan(dead_nodes=[6]))
        assert excinfo.value.node == 6

    def test_unknown_algorithm_still_rejected_with_faults(self):
        with pytest.raises(ValueError, match="unknown broadcast algorithm"):
            broadcast(CUBE, 0, "nope", 4, 2, faults=FaultPlan(dead_nodes=[1]))

    def test_bad_on_fault_mode_rejected(self):
        with pytest.raises(ValueError, match="on_fault"):
            broadcast(
                CUBE, 0, "msbt", 4, 2,
                faults=FaultPlan(dead_links=[(0, 1)]), on_fault="maybe",
            )
        # checked on every call, not only when a fault plan is given;
        # "repair" exists on the runtime backend only
        for kwargs in (
            dict(on_fault="bogus"),
            dict(on_fault="repair"),
            dict(on_fault="bogus", backend="runtime"),
        ):
            with pytest.raises(ValueError, match="on_fault"):
                broadcast(Hypercube(3), 0, "sbt", 8, 4, **kwargs)

    def test_fault_free_result_unaffected_after_faulted_calls(self):
        plan = FaultPlan(dead_links=[(0, 2)])
        broadcast(CUBE, 0, "msbt", 8, 4, faults=plan)
        clean = broadcast(CUBE, 0, "msbt", 8, 4)
        assert clean.algorithm == "msbt-broadcast"
        assert clean.faults is None and not clean.degraded
        # the clean schedule is free to use the previously-dead link
        assert not plan.schedule_is_clean(clean.schedule)


class TestScatterFaults:
    @pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
    def test_scatter_routes_around_links(self, port_model):
        plan = FaultPlan(dead_links=[(0, 1), (4, 12)])
        result = scatter(
            CUBE, 0, "bst", 4, 2, port_model, faults=plan, run_event_sim=True
        )
        assert result.algorithm == "fault-avoiding-scatter"
        assert plan.schedule_is_clean(result.schedule)
        assert not result.undelivered_nodes
        for v in CUBE.nodes():
            if v == 0:
                continue
            mine = {
                c for c in result.schedule.chunk_sizes
                if c[0] == MSG and c[1] == v
            }
            assert mine and result.sync.holdings[v] >= mine

    def test_dead_destination_reported(self):
        plan = FaultPlan(dead_nodes=[11])
        result = scatter(CUBE, 0, "bst", 2, 2, faults=plan, on_fault="report")
        assert result.undelivered_nodes == frozenset({11})
        # no message chunk was even cut for the dead node
        assert not any(
            c[0] == MSG and c[1] == 11 for c in result.schedule.chunk_sizes
        )

    def test_scatter_disconnection_raises(self):
        with pytest.raises(FaultError):
            scatter(CUBE, 0, "bst", 2, 2, faults=_isolating(5, N))
