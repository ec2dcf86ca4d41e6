"""Differential grid: every (topology, collective, port model) point.

The tentpole guarantee of the topology abstraction: each schedule a
collective generates on any topology must

* satisfy the port model in every round (link serialization, checked
  structurally with :func:`assert_schedule_valid`);
* deliver completely on the synchronous lock-step engine
  (:func:`check_delivery` returns nothing missing);
* execute bit-identically on the event-driven engines — the vectorized
  engine and the reference oracle must agree with each other and with
  the synchronous engine on final holdings, and their link
  statistics (per-edge packets *and* elements — the total busy time
  each link serializes) must equal the synchronous engine's.
"""

from __future__ import annotations

import pytest

from repro.collectives import (
    allreduce,
    broadcast,
    check_delivery,
    collective_schedule,
    reduce,
)
from repro.sim import run_async
from repro.sim.ports import PortModel
from repro.sim.synchronous import run_synchronous
from repro.sim.validate import assert_schedule_valid
from repro.topology import Hypercube, Torus
from tests.engine_reference import run_async_reference

TOPOLOGIES = [
    pytest.param(Hypercube(3), id="hypercube-3"),
    pytest.param(Torus(1, 5), id="torus-1x5"),
    pytest.param(Torus(2, 3), id="torus-2x3"),
    pytest.param(Torus(2, 4), id="torus-2x4"),
    pytest.param(Torus(3, 2), id="torus-3x2"),
]
OPS = ["broadcast", "scatter", "gather", "reduce", "all_broadcast"]
RUNNERS = [run_async, run_async_reference]


@pytest.mark.parametrize("pm", list(PortModel))
@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_point_matches_synchronous_engine(topo, op, pm):
    source = topo.num_nodes // 2
    sched, initial = collective_schedule(
        topo, op, source=source, message_elems=6, packet_elems=3,
        port_model=pm,
    )
    # 1. link serialization: every round respects the port model
    assert_schedule_valid(topo, sched, pm)

    # 2. complete delivery on the lock-step engine
    sync = run_synchronous(topo, sched, pm, initial)
    assert check_delivery(topo, op, source, sched, sync.holdings) == {}

    # 3. the event engine and its oracle agree with the lock-step engine
    results = []
    for run in RUNNERS:
        res = run(topo, sched, pm, initial)
        assert res.holdings == sync.holdings
        # busy-time conservation: identical per-edge packets/elements
        assert res.link_stats.packets == sync.link_stats.packets
        assert res.link_stats.elems == sync.link_stats.elems
        results.append(res)
    # and bit-identically with each other (time to the last ulp)
    assert results[0].time == results[1].time
    assert results[0].holdings == results[1].holdings


@pytest.mark.parametrize("pm", list(PortModel))
@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_allreduce_is_reduce_plus_broadcast(topo, pm):
    """allreduce == reduce + broadcast, bit for bit, on any topology."""
    root = topo.num_nodes - 1
    combined = allreduce(
        topo, message_elems=4, packet_elems=2, port_model=pm,
        run_event_sim=True, root=root,
    )
    alone_reduce = reduce(
        topo, root, message_elems=4, packet_elems=2, port_model=pm,
        run_event_sim=True,
    )
    alone_bcast = broadcast(
        topo, root,
        algorithm="sbt" if isinstance(topo, Hypercube) else "ring",
        message_elems=4, packet_elems=2, port_model=pm,
        run_event_sim=True,
    )
    assert combined.reduce.schedule.rounds == alone_reduce.schedule.rounds
    assert combined.broadcast.schedule.rounds == alone_bcast.schedule.rounds
    assert combined.reduce.time == alone_reduce.time
    assert combined.broadcast.time == alone_bcast.time
    assert combined.time == alone_reduce.time + alone_bcast.time
    assert combined.cycles == alone_reduce.cycles + alone_bcast.cycles
    assert (
        combined.reduce.sync.holdings == alone_reduce.sync.holdings
    )
    assert (
        combined.broadcast.sync.holdings == alone_bcast.sync.holdings
    )


def test_torus_k2_matches_hypercube_all_broadcast():
    """Torus(n, 2) is the hypercube (same nodes, same port numbering),
    so the ring all-broadcast degenerates to the dimension-exchange
    allgather: same round count and completion time."""
    from repro.collectives import all_broadcast

    t, h = Torus(3, 2), Hypercube(3)
    for pm in PortModel:
        rt = all_broadcast(t, message_elems=2, port_model=pm,
                           run_event_sim=True)
        rh = all_broadcast(h, message_elems=2, port_model=pm,
                           run_event_sim=True)
        assert rt.cycles == rh.cycles
        assert rt.time == rh.time


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_metrics_carry_topology(topo):
    res = broadcast(topo, 0, message_elems=2)
    assert res.metrics["topology"] == topo.kind
    assert res.metrics["op"] == "broadcast"
