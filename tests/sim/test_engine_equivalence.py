"""The production event engine is bit-identical to the reference engine.

``repro.sim.run_async`` (the vectorized array-core engine) replaced the
original quadratic rescan-everything engine with a dependency-indexed
design; the original is preserved verbatim as
``repro.sim._engine_reference.run_async_reference`` and serves as the
oracle here.  Equivalence is *exact*: simulated completion time,
holdings, link statistics and start times must match to the last ulp
(the production engine reproduces the reference's eps-coalesced wake
ordering, not merely its semantics).

Also pins the :class:`AsyncResult.start_times` ordering contract and
the deadlock diagnosis of the production engine.
"""

from __future__ import annotations

import pytest

from repro.routing import (
    allgather_schedule,
    bst_scatter_schedule,
    dual_hp_broadcast_schedule,
    msbt_broadcast_schedule,
    sbt_broadcast_schedule,
    sbt_scatter_schedule,
    tree_broadcast_schedule,
)
from repro.sim import run_async
from repro.sim._engine_reference import run_async_reference
from repro.sim.faults import DegradedResult, FaultError, FaultPlan
from repro.sim.lowering import lower_schedule
from repro.sim.machine import IPSC_D7, UNIT_COST, MachineParams
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule, Transfer
from repro.sim.synchronous import run_synchronous
from repro.topology.hypercube import DirectedEdge, Hypercube
from repro.trees.hamiltonian import HamiltonianPathTree
from repro.trees.tcbt import TwoRootedCompleteBinaryTree

MACHINES = [
    IPSC_D7,
    UNIT_COST,
    MachineParams(tau=0.5, t_c=2.0, overlap=0.3, name="overlap-heavy"),
]

CUBE = Hypercube(4)


def _schedules(source: int, port_model: PortModel):
    """(name, schedule, initial holdings) for every algorithm family."""
    out = []
    for name, sched in [
        ("sbt-broadcast", sbt_broadcast_schedule(CUBE, source, 37, 8, port_model)),
        ("msbt-broadcast", msbt_broadcast_schedule(CUBE, source, 37, 8, port_model)),
        (
            "tcbt-broadcast",
            tree_broadcast_schedule(
                TwoRootedCompleteBinaryTree(CUBE, source), 37, 8, port_model
            ),
        ),
        (
            "hp-broadcast",
            tree_broadcast_schedule(
                HamiltonianPathTree(CUBE, source), 37, 8, port_model
            ),
        ),
        (
            "dual-hp-broadcast",
            dual_hp_broadcast_schedule(CUBE, source, 37, 8, port_model),
        ),
        ("bst-scatter", bst_scatter_schedule(CUBE, source, 37, 8, port_model)),
        ("sbt-scatter", sbt_scatter_schedule(CUBE, source, 37, 8, port_model)),
    ]:
        out.append((name, sched, {source: set(sched.chunk_sizes)}))
    ag = allgather_schedule(CUBE, 11, port_model)
    out.append(
        (
            "allgather",
            ag,
            {v: {c for c in ag.chunk_sizes if c[1] == v} for v in CUBE.nodes()},
        )
    )
    return out


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
@pytest.mark.parametrize("source", [0, 5])
def test_indexed_engine_matches_reference(source, port_model, machine):
    """The dependency-indexed production engine matches the rescan oracle."""
    for name, sched, init in _schedules(source, port_model):
        new = run_async(
            CUBE, sched, port_model, {k: set(v) for k, v in init.items()}, machine
        )
        ref = run_async_reference(
            CUBE, sched, port_model, {k: set(v) for k, v in init.items()}, machine
        )
        assert new.time == ref.time, name
        assert new.holdings == ref.holdings, name
        assert new.link_stats == ref.link_stats, name
        assert new.transfers_executed == ref.transfers_executed, name
        # the reference appends in execution order; the production
        # engine's contract is sorted ascending, so compare the sort
        assert new.start_times == sorted(ref.start_times), name



@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
@pytest.mark.parametrize("source", [0, 5])
def test_fault_free_lockstep_and_event_holdings_agree(source, port_model):
    """Both hold the initial holdings plus every output slot, which lets
    a public call check delivery on the event run's holdings alone."""
    for name, sched, init in _schedules(source, port_model):
        low = lower_schedule(CUBE, sched, init)
        event = run_async(CUBE, sched, port_model, init, IPSC_D7, lowered=low)
        priced = run_synchronous(
            CUBE, sched, port_model, init, IPSC_D7, lowered=low
        )
        looped = run_synchronous(CUBE, sched, port_model, init, IPSC_D7)
        assert event.holdings == priced.holdings == looped.holdings, name

#: fault plans for the differential matrix — immediate links/nodes,
#: combinations, and time-activated variants (cube-4 addresses)
FAULT_PLANS = [
    FaultPlan(dead_links=[(0, 1)]),
    FaultPlan(dead_links=[(2, 6), (4, 5)]),
    FaultPlan(dead_nodes=[6]),
    FaultPlan(dead_links=[(0, 8)], dead_nodes=[9]),
    FaultPlan(dead_links=[(0, 1, 40.0)]),
    FaultPlan(dead_nodes=[(3, 25.0)]),
]


def _run_or_fault(
    engine, sched, port_model, init, machine, plan, mode, cube=CUBE
):
    try:
        return engine(
            cube, sched, port_model, {k: set(v) for k, v in init.items()},
            machine, faults=plan, on_fault=mode,
        )
    except FaultError as err:
        return err


@pytest.mark.parametrize("mode", ["raise", "report"])
@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
def test_fault_matrix_async_engines_agree(port_model, mode):
    """Under every fault plan, the production engine and the reference
    oracle agree on the full outcome: same FaultError (edge and time)
    in raise mode, bit-identical results — degraded or not — in report
    mode, including the undelivered map and the cancelled-event set."""
    for name, sched, init in _schedules(0, port_model):
        for plan in FAULT_PLANS:
            new = _run_or_fault(
                run_async, sched, port_model, init, UNIT_COST, plan, mode
            )
            ref = _run_or_fault(
                run_async_reference, sched, port_model, init, UNIT_COST, plan, mode
            )
            label = f"{name}/{plan!r}/{mode}"
            assert type(new) is type(ref), label
            if isinstance(new, FaultError):
                assert new.edge == ref.edge, label
                assert new.node == ref.node, label
                assert new.time == ref.time, label
                assert new.chunks == ref.chunks, label
                continue
            assert new.time == ref.time, label
            assert new.holdings == ref.holdings, label
            assert new.link_stats == ref.link_stats, label
            assert sorted(new.start_times) == sorted(ref.start_times), label
            if isinstance(new, DegradedResult):
                assert new.undelivered == ref.undelivered, label
                assert new.transfers_lost == ref.transfers_lost, label
                assert set(new.fault_events) == set(ref.fault_events), label


#: deep per-link queues: at n=3, B=1, M=48 up to 48 packets wait on one
#: directed link, against at most 5 in the grid above
DEEP_CUBE = Hypercube(3)
ZERO_COST = MachineParams(tau=0.0, t_c=0.0, name="zero-cost")


def _deep_schedules(port_model: PortModel):
    return [
        (name, build(DEEP_CUBE, 0, 48, 1, port_model))
        for name, build in (
            ("sbt-broadcast", sbt_broadcast_schedule),
            ("msbt-broadcast", msbt_broadcast_schedule),
            ("sbt-scatter", sbt_scatter_schedule),
            ("bst-scatter", bst_scatter_schedule),
        )
    ]


@pytest.mark.parametrize(
    "machine", [*MACHINES, ZERO_COST], ids=lambda m: m.name
)
@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
def test_deep_queues_match_reference(port_model, machine):
    """Many packets queued on one link: the per-link queues admit the
    same transfers at the same instants as the rescan oracle, also when
    every transfer takes no time."""
    for name, sched in _deep_schedules(port_model):
        new = run_async(
            DEEP_CUBE, sched, port_model, {0: set(sched.chunk_sizes)}, machine
        )
        ref = run_async_reference(
            DEEP_CUBE, sched, port_model, {0: set(sched.chunk_sizes)}, machine
        )
        assert new.time == ref.time, name
        assert new.holdings == ref.holdings, name
        assert new.link_stats == ref.link_stats, name
        assert new.transfers_executed == ref.transfers_executed, name
        assert new.start_times == sorted(ref.start_times), name


@pytest.mark.parametrize("mode", ["raise", "report"])
@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
def test_dead_link_mid_queue_matches_reference(port_model, mode):
    """A link dies while packets still queue on it: the cancelled head
    never occupies the link, so the next packet is examined in the same
    pass — and cancelled too, like the oracle does."""
    sched = sbt_broadcast_schedule(DEEP_CUBE, 0, 48, 1, port_model)
    plan = FaultPlan(dead_links=[(0, 1, 30.0)])
    new = _run_or_fault(
        run_async, sched, port_model, {0: set(sched.chunk_sizes)},
        UNIT_COST, plan, mode, cube=DEEP_CUBE,
    )
    ref = _run_or_fault(
        run_async_reference, sched, port_model, {0: set(sched.chunk_sizes)},
        UNIT_COST, plan, mode, cube=DEEP_CUBE,
    )
    assert type(new) is type(ref)
    if isinstance(new, FaultError):
        assert new.edge == ref.edge == (0, 1)
        assert new.node == ref.node
        assert new.time == ref.time
        assert new.chunks == ref.chunks
        return
    assert isinstance(new, DegradedResult)
    # the fault hit the queue mid-way: some packets crossed, some did not
    crossed = new.link_stats.packets[DirectedEdge(0, 1)]
    assert 0 < crossed < 48
    assert new.time == ref.time
    assert new.holdings == ref.holdings
    assert new.link_stats == ref.link_stats
    assert new.start_times == sorted(ref.start_times)
    assert new.undelivered == ref.undelivered
    assert new.transfers_lost == ref.transfers_lost
    assert set(new.fault_events) == set(ref.fault_events)


@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
def test_fault_matrix_sync_delivers_same_set(port_model):
    """For *immediate* faults the lock-step engine must end with the
    same holdings as the event engines on every generated schedule —
    a fault active from time 0 cancels the same transfers regardless of
    how rounds map to wall-clock instants.  (Time-activated faults may
    legitimately diverge: the engines place round starts at different
    times; that boundary is documented, not asserted.)"""
    for name, sched, init in _schedules(0, port_model):
        for plan in FAULT_PLANS:
            if not plan.is_immediate:
                continue
            sync = run_synchronous(
                CUBE, sched, port_model, {k: set(v) for k, v in init.items()},
                faults=plan, on_fault="report",
            )
            ref = run_async_reference(
                CUBE, sched, port_model, {k: set(v) for k, v in init.items()},
                faults=plan, on_fault="report",
            )
            label = f"{name}/{plan!r}"
            assert type(sync).__name__ in ("SyncResult", "DegradedResult"), label
            assert sync.holdings == ref.holdings, label
            if isinstance(sync, DegradedResult):
                assert sync.undelivered == ref.undelivered, label


def test_start_times_sorted_ascending():
    """Pin the documented AsyncResult.start_times contract."""
    sched = msbt_broadcast_schedule(CUBE, 3, 64, 4, PortModel.ONE_PORT_FULL)
    res = run_async(
        CUBE, sched, PortModel.ONE_PORT_FULL, {3: set(sched.chunk_sizes)}, IPSC_D7
    )
    assert res.start_times == sorted(res.start_times)
    assert len(res.start_times) == res.transfers_executed == sched.num_transfers


def test_causally_broken_schedule_deadlocks_with_diagnosis():
    """A schedule whose payload never becomes available must raise,
    not spin: node 2 sends a chunk only node 1 ever holds, and nothing
    delivers it to node 2."""
    sched = Schedule(
        rounds=[
            (Transfer(2, 3, frozenset({("b", 0)})),),
        ],
        chunk_sizes={("b", 0): 4},
        algorithm="broken",
        meta={},
    )
    with pytest.raises(RuntimeError, match="deadlock"):
        run_async(CUBE, sched, PortModel.ONE_PORT_FULL, {1: {("b", 0)}}, UNIT_COST)


def test_circular_dependency_deadlocks():
    """Two transfers each waiting on the other's delivery."""
    sched = Schedule(
        rounds=[
            (
                Transfer(0, 1, frozenset({("b", 0)})),
                Transfer(1, 0, frozenset({("b", 1)})),
            ),
        ],
        chunk_sizes={("b", 0): 4, ("b", 1): 4},
        algorithm="broken",
        meta={},
    )
    # node 0 holds chunk 1 (not 0), node 1 holds chunk 0 (not 1):
    # each send's payload is forever on the wrong side
    with pytest.raises(RuntimeError, match="deadlock"):
        run_async(
            CUBE,
            sched,
            PortModel.ONE_PORT_FULL,
            {0: {("b", 1)}, 1: {("b", 0)}},
            UNIT_COST,
        )
