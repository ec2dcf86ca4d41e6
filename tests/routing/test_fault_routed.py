"""Fault-routed broadcast schedules avoid their faults.

The degraded MSBT broadcast (link faults only) keeps the MSBT
pipelining around the dead links it is given, names its own source,
and a call without faults still gets the plain MSBT schedule.
"""

from __future__ import annotations

from repro.routing import msbt_broadcast_schedule
from repro.sim import FaultPlan, PortModel, run_synchronous
from repro.topology import Hypercube

CUBE = Hypercube(3)
PM = PortModel.ONE_PORT_FULL


def test_degraded_msbt_avoids_its_dead_link():
    clean = msbt_broadcast_schedule(CUBE, 0, 6, 2, PM)
    damaged = msbt_broadcast_schedule(CUBE, 0, 6, 2, PM, dead_links=((0, 1),))
    assert clean.algorithm == "msbt-broadcast"
    assert damaged.algorithm == "msbt-broadcast-degraded"
    # the degraded schedule genuinely avoids the dead link
    assert FaultPlan(dead_links=[(0, 1)]).schedule_is_clean(damaged)
    assert not FaultPlan(dead_links=[(0, 1)]).schedule_is_clean(clean)
    # and asking for the clean cube again returns the clean schedule
    again = msbt_broadcast_schedule(CUBE, 0, 6, 2, PM)
    assert again.algorithm == "msbt-broadcast"
    assert again.rounds == clean.rounds


def test_different_fault_sets_get_different_schedules():
    a = msbt_broadcast_schedule(CUBE, 0, 6, 2, PM, dead_links=((0, 1),))
    b = msbt_broadcast_schedule(CUBE, 0, 6, 2, PM, dead_links=((0, 2),))
    assert not FaultPlan(dead_links=[(0, 2)]).schedule_is_clean(a) or (
        a.rounds != b.rounds
    )
    assert FaultPlan(dead_links=[(0, 2)]).schedule_is_clean(b)


def test_degraded_msbt_names_its_source():
    cube = Hypercube(4)
    plan = FaultPlan(dead_links=[(0, 1)])
    for source in (2, 6):
        sched = msbt_broadcast_schedule(
            cube, source, 12, 4, PM, dead_links=((0, 1),)
        )
        assert sched.meta["source"] == source
        assert plan.schedule_is_clean(sched)
        run = run_synchronous(
            cube, sched, PM, {source: set(sched.chunk_sizes)}, faults=plan
        )
        assert all(run.holdings[v] == set(sched.chunk_sizes) for v in cube.nodes())
