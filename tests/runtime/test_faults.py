"""Fault injection on the runtime: report-mode degradation and the
repair-mode survivor-tree recovery (the paper's degraded operation)."""

from __future__ import annotations

import pytest

from repro.runtime import RuntimeResult, run_collective
from repro.sim.faults import DegradedResult, FaultPlan
from repro.sim.machine import IPSC_D7, MachineParams
from repro.sim.ports import PortModel
from repro.topology import Hypercube

PMS = tuple(PortModel)


def _full_message(res, source):
    return set(res.holdings[source])


class TestReportMode:
    def test_dead_link_degrades_honestly(self):
        cube = Hypercube(4)
        res = run_collective(
            cube, "broadcast", "sbt", 0, 8, 4,
            PortModel.ONE_PORT_HALF,
            faults=FaultPlan(dead_links=[(0, 8)]),
            on_fault="report",
        )
        assert isinstance(res, DegradedResult)
        assert not res.complete
        assert res.fault_events
        assert all(e.kind == "link" for e in res.fault_events)
        # every node the tree reaches through the dead edge is reported
        assert res.undelivered_nodes
        for node in res.undelivered_nodes:
            missing = res.undelivered[node]
            assert missing
            assert not (set(missing) & res.holdings[node])

    def test_clean_plan_stays_healthy(self):
        cube = Hypercube(3)
        res = run_collective(
            cube, "broadcast", "sbt", 0, 4, 2,
            PortModel.ONE_PORT_FULL,
            # link not on the SBT from source 0
            faults=FaultPlan(dead_links=[(4, 6)]),
            on_fault="report",
        )
        assert isinstance(res, RuntimeResult)
        assert res.fault_events == []
        chunks = _full_message(res, 0)
        assert all(res.holdings[v] == chunks for v in cube.nodes())


class TestRepairMode:
    @pytest.mark.parametrize("pm", PMS)
    @pytest.mark.parametrize("algorithm", ["sbt", "msbt"])
    def test_dead_link_broadcast_still_delivers_everywhere(
        self, algorithm, pm
    ):
        cube = Hypercube(4)
        res = run_collective(
            cube, "broadcast", algorithm, 0, 8, 4, pm,
            faults=FaultPlan(dead_links=[(0, 1)]),
            on_fault="repair",
            trace=True,
        )
        assert isinstance(res, RuntimeResult)
        assert res.fault_events  # the fault really fired
        assert res.repair_rounds >= 1
        chunks = _full_message(res, 0)
        for v in cube.nodes():
            assert res.holdings[v] == chunks, f"node {v} incomplete"
        # repair took longer than a clean run would have
        kinds = {e.kind for e in res.trace}
        assert "timeout" in kinds and "fault" in kinds

    def test_dead_node_delivers_to_all_live_nodes(self):
        cube = Hypercube(4)
        dead = 5
        res = run_collective(
            cube, "broadcast", "sbt", 0, 12, 4,
            PortModel.ONE_PORT_FULL,
            faults=FaultPlan(dead_nodes=[dead]),
            on_fault="repair",
        )
        # the dead node can never be repaired, so the result is
        # degraded — but every *live* node must hold the full message
        assert isinstance(res, DegradedResult)
        chunks = _full_message(res, 0)
        for v in cube.nodes():
            if v == dead:
                continue
            assert res.holdings[v] == chunks, f"live node {v} incomplete"
        assert res.undelivered_nodes == (dead,)

    def test_mid_schedule_link_death(self):
        cube = Hypercube(3)
        # the 0->4 edge dies after the first packet crosses it
        res = run_collective(
            cube, "broadcast", "sbt", 0, 8, 2,
            PortModel.ONE_PORT_HALF,
            faults=FaultPlan(dead_links=[(0, 4, 1.5)]),
            on_fault="repair",
        )
        assert isinstance(res, RuntimeResult)
        assert res.repair_rounds >= 1
        chunks = _full_message(res, 0)
        assert all(res.holdings[v] == chunks for v in cube.nodes())

    def test_multiple_dead_links(self):
        cube = Hypercube(4)
        res = run_collective(
            cube, "broadcast", "sbt", 0, 8, 4,
            PortModel.ONE_PORT_FULL,
            faults=FaultPlan(dead_links=[(0, 1), (0, 2), (4, 5)]),
            on_fault="repair",
        )
        assert isinstance(res, RuntimeResult)
        chunks = _full_message(res, 0)
        assert all(res.holdings[v] == chunks for v in cube.nodes())

    def test_scatter_repair(self):
        cube = Hypercube(3)
        res = run_collective(
            cube, "scatter", "sbt", 0, 16, 4,
            PortModel.ONE_PORT_FULL,
            faults=FaultPlan(dead_links=[(0, 4)]),
            on_fault="repair",
        )
        assert isinstance(res, RuntimeResult)
        for v in cube.nodes():
            if v == 0:
                continue
            assert {c for c in res.holdings[v] if c[1] == v}, (
                f"node {v} missing its slice"
            )

    def test_repair_time_accounts_for_timeouts(self):
        cube = Hypercube(3)
        clean = run_collective(
            cube, "broadcast", "sbt", 0, 4, 4, PortModel.ONE_PORT_HALF
        )
        repaired = run_collective(
            cube, "broadcast", "sbt", 0, 4, 4, PortModel.ONE_PORT_HALF,
            faults=FaultPlan(dead_links=[(0, 1)]),
            on_fault="repair",
            detect_timeout=10.0,
        )
        assert repaired.time > clean.time + 10.0


_STARTUP = MachineParams(tau=2.5, t_c=0.75)
_HALF, _FULL = PortModel.ONE_PORT_HALF, PortModel.ONE_PORT_FULL


@pytest.mark.parametrize(
    "mode,n,op,algorithm,M,B,pm,machine,plan,expected",
    [
        pytest.param(
            "report", 4, "broadcast", "sbt", 8, 4, _HALF, None,
            dict(dead_links=[(0, 8)]), (40.0, None, 28, (8,)),
            id="report-sbt-dead-link",
        ),
        pytest.param(
            "report", 3, "scatter", "bst", 17, 4, _FULL, IPSC_D7,
            dict(dead_nodes=[5]), (0.027866, None, 50, (5,)),
            id="report-bst-dead-node-ipsc",
        ),
        pytest.param(
            "report", 4, "broadcast", "msbt", 17, 4, _FULL, _STARTUP,
            dict(dead_links=[(0, 1), (0, 2)]),
            (33.0, None, 30, tuple(range(1, 16))),
            id="report-msbt-two-links-startup",
        ),
        pytest.param(
            "repair", 4, "broadcast", "sbt", 8, 4, _HALF, None,
            dict(dead_links=[(0, 1)]), (90.0, 1, 36, ()),
            id="repair-sbt-dead-link",
        ),
        pytest.param(
            "repair", 3, "broadcast", "sbt", 8, 2, _HALF, None,
            dict(dead_links=[(0, 4, 1.5)]), (66.0, 1, 36, ()),
            id="repair-sbt-link-dies-at-1.5",
        ),
        pytest.param(
            "repair", 4, "broadcast", "sbt", 12, 4, _FULL, None,
            dict(dead_nodes=[5]), (85.0, None, 48, (5,)),
            id="repair-sbt-dead-node",
        ),
        pytest.param(
            "repair", 3, "scatter", "sbt", 16, 4, _FULL, IPSC_D7,
            dict(dead_links=[(0, 4)]), (0.029088000000000006, 1, 56, ()),
            id="repair-sbt-scatter-ipsc",
        ),
        pytest.param(
            "repair", 4, "broadcast", "msbt", 17, 4, PortModel.ALL_PORT,
            _STARTUP, dict(dead_links=[(0, 1), (0, 2)]), (69.25, 1, 75, ()),
            id="repair-msbt-two-links-startup",
        ),
        pytest.param(
            "repair", 4, "scatter", "bst", 17, 4, _HALF, _STARTUP,
            dict(dead_links=[(0, 1), (0, 2)]), (615.75, 1, 171, ()),
            id="repair-bst-two-links-startup",
        ),
        # The link to a subtree head dies once the head's own piece is
        # on its way: the head completes, but its forwarding sends never
        # get their payload and must stay pending through the repair.
        pytest.param(
            "repair", 3, "scatter", "bst", 1, 1, _HALF, None,
            dict(dead_links=[(0, 1, 0.5)]), (26.0, 1, 12, ()),
            id="repair-bst-head-link-dies-after-first-packet",
        ),
        pytest.param(
            "repair", 4, "scatter", "bst", 2, 1, _FULL, None,
            dict(dead_links=[(0, 1, 10.0)]), (68.0, 1, 64, ()),
            id="repair-bst-head-complete-then-link-dies",
        ),
    ],
)
def test_fault_mode_results_pinned(
    mode, n, op, algorithm, M, B, pm, machine, plan, expected
):
    """Exact outcomes of faulted runs: completion time (``==``), repair
    rounds (``None`` on a degraded result, which does not carry them),
    executed transfers and undelivered nodes."""
    res = run_collective(
        Hypercube(n), op, algorithm, 0, M, B, pm, machine=machine,
        faults=FaultPlan(**plan), on_fault=mode,
    )
    assert (
        res.time,
        getattr(res, "repair_rounds", None),
        res.transfers_executed,
        getattr(res, "undelivered_nodes", ()),
    ) == expected
