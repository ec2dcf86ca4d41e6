"""Dual-direction Hamiltonian broadcasting (§3.4 variation).

The Gray-code Hamiltonian *cycle* gives the source two disjoint
directed rings through all other nodes.  Splitting the message in half
and pipelining one half clockwise and the other counter-clockwise
doubles the injection bandwidth: in steady state, two distinct packets
leave the source per cycle instead of one, cutting the HP's packet
term by the paper's promised factor of (up to) two.

The transfer list (one hop per packet per ring position, wavefront
order) is packed by the greedy list scheduler, so a single generator
serves all three port models: under ALL_PORT the rings run fully
concurrently; under ONE_PORT_FULL each node interleaves the two
directions; under ONE_PORT_HALF everything serializes further.
"""

from __future__ import annotations

from repro.routing.common import BCAST, broadcast_chunks
from repro.routing.scheduler import list_schedule
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule, Transfer
from repro.topology.hypercube import Hypercube
from repro.trees.hp_variants import hamiltonian_cycle

__all__ = ["dual_hp_broadcast_schedule"]


def dual_hp_broadcast_schedule(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
) -> Schedule:
    """Broadcast using two opposite-direction Hamiltonian paths.

    Packets with even index travel clockwise around the Gray cycle,
    odd ones counter-clockwise; every node receives the full message
    because each ring visits all nodes.

    Args:
        cube: host cube (dimension >= 2).
        source: broadcasting node.
        message_elems: total message size ``M``.
        packet_elems: maximum packet size ``B``.
        port_model: port model the schedule must respect.
    """
    cube.check_node(source)
    sizes = broadcast_chunks(message_elems, packet_elems)
    n_packets = len(sizes)
    cycle = hamiltonian_cycle(cube.dimension, start=source)
    N = cube.num_nodes

    forward = [(cycle[i], cycle[(i + 1) % N]) for i in range(N - 1)]
    backward = [(cycle[-i % N], cycle[-(i + 1) % N]) for i in range(N - 1)]

    items: list[tuple[int, int, int, Transfer]] = []
    for p in range(n_packets):
        ring = forward if p % 2 == 0 else backward
        wave_offset = p // 2
        chunk = frozenset({(BCAST, p)})
        for hop, (u, v) in enumerate(ring):
            items.append((wave_offset + hop, p, hop, Transfer(u, v, chunk)))
    items.sort(key=lambda x: (x[0], x[1], x[2]))

    return list_schedule(
        cube,
        [t for *_, t in items],
        sizes,
        port_model,
        {source: set(sizes)},
        algorithm="dual-hp-broadcast",
        meta={"port_model": port_model.value, "source": source},
    )
