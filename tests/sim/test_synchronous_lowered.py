"""The lock-step run's whole-schedule array pass against its round loop.

``run_synchronous(..., lowered=...)`` checks and prices a fault-free
run in one NumPy pass over the :class:`~repro.sim.lowering.LoweredSchedule`
columns; without ``lowered`` the per-round loop runs.  The two must
agree exactly: on every result field for every valid schedule, and on
the :class:`ScheduleViolation` message for every broken one (a failing
pass reruns the loop for its diagnostic).
"""

from __future__ import annotations

import pytest

from repro.collectives.api import SCHEDULE_OPS, collective_schedule
from repro.sim import MachineParams, PortModel, Schedule, Transfer
from repro.sim.lowering import lower_schedule
from repro.sim.machine import IPSC_D7
from repro.sim.synchronous import ScheduleViolation, run_synchronous
from repro.topology import Hypercube
from repro.topology.torus import Torus

HALF, FULL, ALL = PortModel.ONE_PORT_HALF, PortModel.ONE_PORT_FULL, PortModel.ALL_PORT


def _t(src, dst, *chunks):
    return Transfer(src, dst, frozenset(chunks))


def _sched(*rounds):
    return Schedule(rounds=list(rounds), chunk_sizes={"a": 4, "b": 2})


#: (id, schedule, port model, initial holdings) — each breaks one rule
SABOTAGE = [
    ("link-used-twice", _sched((_t(0, 1, "a"), _t(0, 1, "b"))), ALL, {0: {"a", "b"}}),
    ("two-sends", _sched((_t(0, 1, "a"), _t(0, 2, "a"))), FULL, {0: {"a"}}),
    ("two-receives", _sched((_t(1, 0, "a"), _t(2, 0, "a"))), FULL, {1: {"a"}, 2: {"a"}}),
    (
        "send-and-receive-half-duplex",
        _sched((_t(0, 1, "a"), _t(2, 0, "b"))),
        HALF,
        {0: {"a"}, 2: {"b"}},
    ),
    ("chunk-not-yet-arrived", _sched((_t(1, 3, "a"),), (_t(0, 1, "a"),)), FULL, {0: {"a"}}),
    ("chunk-never-arrives", _sched((_t(0, 1, "a"),), (_t(3, 7, "a"),)), FULL, {0: {"a"}}),
    ("chunk-sent-in-arrival-round", _sched((_t(0, 1, "a"), _t(1, 3, "a"))), ALL, {0: {"a"}}),
    (
        "violation-after-clean-rounds",
        _sched((), (_t(0, 1, "a"),), (_t(1, 3, "a"), _t(1, 5, "a"))),
        FULL,
        {0: {"a"}},
    ),
]


@pytest.mark.parametrize(
    "sched,pm,initial", [c[1:] for c in SABOTAGE], ids=[c[0] for c in SABOTAGE]
)
def test_array_pass_raises_the_round_loop_violation(sched, pm, initial):
    cube = Hypercube(3)
    with pytest.raises(ScheduleViolation) as loop:
        run_synchronous(cube, sched, pm, initial)
    lowered = lower_schedule(cube, sched, initial)
    with pytest.raises(ScheduleViolation) as array:
        run_synchronous(cube, sched, pm, initial, lowered=lowered)
    assert str(array.value) == str(loop.value)


def test_non_edge_never_reaches_the_array_pass():
    """A non-edge cannot be lowered, so the pass never sees one; the
    round loop still names it."""
    cube = Hypercube(3)
    sched = _sched((_t(0, 3, "a"),))
    with pytest.raises(ScheduleViolation, match="round 0: transfer 0->3 is not a cube edge"):
        run_synchronous(cube, sched, ALL, {0: {"a"}})
    with pytest.raises(ValueError, match="not adjacent"):
        lower_schedule(cube, sched, {0: {"a"}})


def _assert_same_run(a, b):
    assert a.cycles == b.cycles
    assert a.time == b.time
    assert a.step_costs == b.step_costs
    assert a.holdings == b.holdings
    assert a.link_stats == b.link_stats
    # links in the order the round loop first used them
    assert list(a.link_stats.elems) == list(b.link_stats.elems)
    assert list(a.link_stats.packets) == list(b.link_stats.packets)


def _algorithms(cube, op):
    if isinstance(cube, Torus):
        return ["ring"]
    return {
        "broadcast": ["sbt", "msbt", "tcbt", "hp", "hp-centered", "hp-dual", "ring"],
        "scatter": ["sbt", "bst", "tcbt", "ring"],
        "gather": ["sbt", "bst", "tcbt", "ring"],
        "reduce": ["sbt", "ring"],
        "allgather": ["dimension-exchange"],
        "alltoall": ["dimension-exchange", "bst"],
        "all_broadcast": ["dimension-exchange"],
    }[op]


TORUS_OPS = ("broadcast", "scatter", "gather", "reduce", "all_broadcast")
CASES = [
    pytest.param(cube, op, id=f"{cube!r}-{op}")
    for cube in [Hypercube(n) for n in range(2, 6)]
    + [Torus(2, 3), Torus(2, 4), Torus(3, 3)]
    for op in SCHEDULE_OPS
    if isinstance(cube, Hypercube) or op in TORUS_OPS
]


@pytest.mark.parametrize("cube,op", CASES)
@pytest.mark.parametrize("pm", list(PortModel), ids=lambda pm: pm.value)
def test_array_pass_equals_round_loop(cube, op, pm):
    for algorithm in _algorithms(cube, op):
        if algorithm == "bst" and op == "alltoall" and pm is not ALL:
            continue  # the N-BST total exchange requires all-port
        for M, B in ((5, 2), (12, 12)):
            sched, initial = collective_schedule(
                cube, op, algorithm, cube.num_nodes - 1, M, B, pm
            )
            lowered = lower_schedule(cube, sched, initial)
            for machine in (MachineParams(), IPSC_D7):
                loop = run_synchronous(cube, sched, pm, initial, machine)
                array = run_synchronous(
                    cube, sched, pm, initial, machine, lowered=lowered
                )
                _assert_same_run(array, loop)


def test_unvalidated_run_delivers_like_the_round_loop():
    cube = Hypercube(3)
    sched = _sched((_t(0, 1, "a"), _t(1, 3, "a")), (), (_t(3, 7, "b"),))
    initial = {0: {"a"}}
    lowered = lower_schedule(cube, sched, initial)
    loop = run_synchronous(cube, sched, FULL, initial, validate=False)
    array = run_synchronous(cube, sched, FULL, initial, validate=False, lowered=lowered)
    _assert_same_run(array, loop)
    assert array.holds(7, "b")
