"""Schedule-level tests for collective_schedule / check_delivery.

Exercises the gather and reduce schedule ops directly — build the
schedule, run the lock-step engine, audit delivery with
``check_delivery`` — plus the delivery auditor's negative paths
(tampered holdings must be reported, not silently passed), and the
public collectives' use of the same two functions: every one returns
``collective_schedule``'s schedule and raises on a short node.
"""

from __future__ import annotations

import re

import pytest

import repro.collectives.api as api
from repro.collectives import (
    SCHEDULE_OPS,
    all_broadcast,
    allgather,
    allreduce,
    alltoall_personalized,
    broadcast,
    check_delivery,
    collective_schedule,
    default_algorithm,
    gather,
    reduce,
    scatter,
)
from repro.collectives.api import DEFAULT_ALGORITHMS
from repro.sim.faults import FaultPlan
from repro.sim.ports import PortModel
from repro.sim.synchronous import run_synchronous
from repro.topology import Hypercube, Torus

TOPOLOGIES = [
    pytest.param(Hypercube(3), id="hypercube-3"),
    pytest.param(Torus(2, 3), id="torus-2x3"),
]

#: ops collective_schedule builds on the hypercube only
HYPERCUBE_ONLY = ("allgather", "alltoall")


def _last_delivery(schedule):
    """A ``(node, chunk)`` pair of the schedule's final transfer.

    Nothing moves after the last round, so each of its chunks has
    reached a node that must keep it: every op's delivery rule
    requires the chunk there.
    """
    last = next(t for r in reversed(schedule.rounds) for t in r)
    return last.dst, next(iter(last.chunks))


@pytest.mark.parametrize("pm", list(PortModel))
@pytest.mark.parametrize("topo", TOPOLOGIES)
class TestGatherScheduleOp:
    def test_complete_delivery(self, topo, pm):
        root = 1
        sched, initial = collective_schedule(
            topo, "gather", source=root, message_elems=4, packet_elems=2,
            port_model=pm,
        )
        res = run_synchronous(topo, sched, pm, initial)
        assert check_delivery(topo, "gather", root, sched, res.holdings) == {}
        # the root really holds every node's message
        assert res.holdings[root] >= set(sched.chunk_sizes)

    def test_tampered_root_reported(self, topo, pm):
        root = 1
        sched, initial = collective_schedule(
            topo, "gather", source=root, message_elems=4, packet_elems=2,
            port_model=pm,
        )
        res = run_synchronous(topo, sched, pm, initial)
        broken = dict(res.holdings)
        dropped = next(iter(broken[root]))
        broken[root] = broken[root] - {dropped}
        missing = check_delivery(topo, "gather", root, sched, broken)
        assert missing == {root: {dropped}}

    def test_non_root_nodes_have_no_obligation(self, topo, pm):
        root = 1
        sched, initial = collective_schedule(
            topo, "gather", source=root, message_elems=2, port_model=pm,
        )
        res = run_synchronous(topo, sched, pm, initial)
        empty_elsewhere = {root: res.holdings[root]}
        assert check_delivery(
            topo, "gather", root, sched, empty_elsewhere
        ) == {}


@pytest.mark.parametrize("pm", list(PortModel))
@pytest.mark.parametrize("topo", TOPOLOGIES)
class TestReduceScheduleOp:
    def test_complete_delivery(self, topo, pm):
        root = 2
        sched, initial = collective_schedule(
            topo, "reduce", source=root, message_elems=4, packet_elems=2,
            port_model=pm,
        )
        res = run_synchronous(topo, sched, pm, initial)
        assert check_delivery(topo, "reduce", root, sched, res.holdings) == {}

    def test_root_obligation_includes_child_partials(self, topo, pm):
        """The root must hold its own operand plus the partial each
        tree child sends in; dropping an incoming partial is caught."""
        root = 2
        sched, initial = collective_schedule(
            topo, "reduce", source=root, message_elems=4, packet_elems=2,
            port_model=pm,
        )
        res = run_synchronous(topo, sched, pm, initial)
        incoming = set()
        for r in sched.rounds:
            for t in r:
                if t.dst == root:
                    incoming.update(t.chunks)
        assert incoming, "reduce schedule has no transfers into the root"
        broken = dict(res.holdings)
        dropped = next(iter(incoming))
        broken[root] = broken[root] - {dropped}
        missing = check_delivery(topo, "reduce", root, sched, broken)
        assert missing == {root: {dropped}}

    def test_sbt_equivalent_owner_formula(self, topo, pm):
        """On the hypercube SBT the generalized obligation reduces to
        the classic owners formula: root plus ``root ^ 2**j``."""
        if not isinstance(topo, Hypercube):
            pytest.skip("owner formula is hypercube-specific")
        root = 2
        sched, _ = collective_schedule(
            topo, "reduce", source=root, message_elems=4, packet_elems=2,
            port_model=pm,
        )
        owners = {root} | {root ^ (1 << j) for j in range(topo.dimension)}
        want_old = {c for c in sched.chunk_sizes if c[1] in owners}
        want_new = {c for c in sched.chunk_sizes if c[1] == root}
        for r in sched.rounds:
            for t in r:
                if t.dst == root:
                    want_new.update(t.chunks)
        assert want_new == want_old


@pytest.mark.parametrize("pm", list(PortModel))
@pytest.mark.parametrize(
    "topo,op",
    [
        pytest.param(topo.values[0], op, id=f"{topo.id}-{op}")
        for topo in TOPOLOGIES
        for op in SCHEDULE_OPS
        if isinstance(topo.values[0], Hypercube) or op not in HYPERCUBE_ONLY
    ],
)
def test_tampered_holdings_reported(topo, op, pm):
    """Dropping one delivered chunk is reported at exactly that node."""
    sched, initial = collective_schedule(
        topo, op, source=1, message_elems=4, packet_elems=2, port_model=pm,
    )
    res = run_synchronous(topo, sched, pm, initial)
    assert check_delivery(topo, op, 1, sched, res.holdings) == {}
    node, dropped = _last_delivery(sched)
    broken = dict(res.holdings)
    broken[node] = broken[node] - {dropped}
    assert check_delivery(topo, op, 1, sched, broken) == {node: {dropped}}


#: public collective -> (op, algorithm) of the schedule it runs, and the
#: call itself on a cube: root 1, M = 4, B = 2 (the rootless ops take
#: neither a root nor a packet size)
PUBLIC_CALLS = {
    "broadcast": ("broadcast", "msbt", lambda c: broadcast(c, 1, "msbt", 4, 2)),
    "scatter": ("scatter", "bst", lambda c: scatter(c, 1, "bst", 4, 2)),
    "gather": ("gather", "bst", lambda c: gather(c, 1, "bst", 4, 2)),
    "reduce": ("reduce", "sbt", lambda c: reduce(c, 1, 4, 2, algorithm="sbt")),
    "allgather": ("allgather", "dimension-exchange", lambda c: allgather(c, 4)),
    "all_broadcast": (
        "all_broadcast", "dimension-exchange", lambda c: all_broadcast(c, 4),
    ),
    "alltoall_personalized": (
        "alltoall", "dimension-exchange", lambda c: alltoall_personalized(c, 4),
    ),
}


@pytest.mark.parametrize("name", PUBLIC_CALLS)
def test_public_schedule_is_collective_schedule(name):
    op, algorithm, call = PUBLIC_CALLS[name]
    cube = Hypercube(3)
    sched, _ = collective_schedule(
        cube, op, algorithm, source=1, message_elems=4, packet_elems=2
    )
    assert call(cube).schedule == sched


def _drop_last_delivery(real, dropped_at):
    """``run_synchronous`` that loses the schedule's final delivery and
    appends the node it lost it at to ``dropped_at``."""
    def tampered(cube, schedule, *args, **kwargs):
        res = real(cube, schedule, *args, **kwargs)
        node, dropped = _last_delivery(schedule)
        res.holdings[node] = res.holdings[node] - {dropped}
        dropped_at.append(node)
        return res

    return tampered


@pytest.mark.parametrize(
    "call",
    [
        *(call for _, _, call in PUBLIC_CALLS.values()),
        lambda cube: allreduce(cube, 4, 2),
        lambda cube: broadcast(
            cube, 1, "msbt", 4, 2,
            faults=FaultPlan(dead_nodes=[6]), on_fault="report",
        ),
    ],
    ids=[*PUBLIC_CALLS, "allreduce", "broadcast-faults"],
)
def test_public_collective_raises_on_missing_chunk(call, monkeypatch):
    dropped_at: list[int] = []
    monkeypatch.setattr(
        api, "run_synchronous",
        _drop_last_delivery(api.run_synchronous, dropped_at),
    )
    with pytest.raises(AssertionError) as exc:
        call(Hypercube(3))
    assert re.search(rf"\bnode {dropped_at[0]}\b", str(exc.value))


def test_runtime_backend_raises_on_missing_chunk(monkeypatch):
    """The runtime's own holdings are checked, not only the lock-step
    replay of the central schedule."""
    real = api.run_collective

    def tampered(cube, *args, **kwargs):
        res = real(cube, *args, **kwargs)
        res.holdings[7] = set(list(res.holdings[7])[1:])
        return res

    monkeypatch.setattr(api, "run_collective", tampered)
    with pytest.raises(AssertionError, match=r"\bnode 7\b"):
        broadcast(Hypercube(3), 0, "sbt", 4, 2, backend="runtime")


class TestScheduleOpSurface:
    def test_all_broadcast_registered(self):
        assert "all_broadcast" in SCHEDULE_OPS
        assert DEFAULT_ALGORITHMS["all_broadcast"] == "dimension-exchange"

    def test_default_algorithm_per_topology(self):
        assert default_algorithm(Hypercube(3), "broadcast") == "msbt"
        assert default_algorithm(Hypercube(3), "reduce") == "sbt"
        assert default_algorithm(Torus(2, 3), "broadcast") == "ring"
        assert default_algorithm(Torus(2, 3), "reduce") == "ring"
        assert default_algorithm(Torus(2, 3), "all_broadcast") == "ring"

    def test_torus_has_no_alltoall(self):
        with pytest.raises(ValueError):
            default_algorithm(Torus(2, 3), "alltoall")

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            collective_schedule(Hypercube(3), "bogus")

    def test_reduce_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            collective_schedule(Hypercube(3), "reduce", algorithm="msbt")
