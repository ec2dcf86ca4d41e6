"""Generic pipelined tree broadcasting — drives the TCBT and HP baselines.

For an arbitrary spanning tree no closed-form labelling exists, so the
schedule is produced by greedy list scheduling: for every packet, its
chain of hops root -> ... -> leaf in tree order, prioritized so that
packet 0's wavefront leads and heavier subtrees are served first.  The
greedy packing reproduces the classic pipelined step counts:

* Hamiltonian path, full duplex: ``ceil(M/B) + N - 2`` rounds (every
  hop forwards while receiving); half duplex: about twice the packet
  term (Table 1/2's HP rows).
* TCBT: internal nodes have two children, so the packet term doubles
  under one-port models (``2 ceil(M/B) + ...``, Table 3's TCBT rows).
"""

from __future__ import annotations

from repro.routing.common import BCAST, broadcast_chunks
from repro.routing.scheduler import list_schedule
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule, Transfer
from repro.trees.base import SpanningTree

__all__ = ["tree_broadcast_schedule"]


def tree_broadcast_schedule(
    tree: SpanningTree,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
) -> Schedule:
    """Broadcast from ``tree.root`` along an arbitrary spanning tree.

    Args:
        tree: any spanning tree (its root is the source).
        message_elems: total message size ``M``.
        packet_elems: maximum packet size ``B``.
        port_model: port model the schedule must respect.

    Returns:
        A constraint-valid schedule produced by greedy list scheduling.
    """
    sizes = broadcast_chunks(message_elems, packet_elems)
    n_packets = len(sizes)
    cube = tree.cube

    # Edges in wavefront priority: BFS order, heavier subtrees first.
    edge_order: list[tuple[int, int]] = []
    frontier = [tree.root]
    subtree = tree.subtree_sizes
    while frontier:
        nxt: list[int] = []
        for node in sorted(frontier, key=lambda v: -subtree[v]):
            kids = sorted(tree.children_map[node], key=lambda v: -subtree[v])
            for child in kids:
                edge_order.append((node, child))
            nxt.extend(kids)
        frontier = nxt

    # Interleave packets so pipelining can happen: order primarily by
    # (packet index + edge depth) — the diagonal wavefront — then by
    # the subtree-priority edge order.
    levels = tree.levels
    items: list[tuple[int, int, int, Transfer]] = []
    for e_idx, (u, v) in enumerate(edge_order):
        for p in range(n_packets):
            wave = p + levels[u]
            items.append(
                (wave, p, e_idx, Transfer(u, v, frozenset({(BCAST, p)})))
            )
    items.sort(key=lambda x: (x[0], x[1], x[2]))
    transfers = [t for *_ , t in items]

    schedule = list_schedule(
        cube,
        transfers,
        sizes,
        port_model,
        {tree.root: set(sizes)},
        algorithm=f"{type(tree).__name__.lower()}-broadcast",
        meta={"port_model": port_model.value, "source": tree.root},
    )
    return schedule
