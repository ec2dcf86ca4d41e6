"""BST-based personalized communication (§4.2.2 and §5.2).

* **one port at a time** — the root serves its ``n`` subtrees
  cyclically (port ``j`` in cycles congruent to ``j`` mod ``n``), each
  packet carrying the next bundle of at most ``B`` elements of that
  subtree's messages in the chosen transmission order.  Since a subtree
  receives a new packet only every ``n`` cycles, internal nodes have
  slack to forward — which is exactly the overlap the paper measures as
  the BST's one-port advantage on the iPSC.  Orders supported (§5.2):
  ``"depth_first"`` (the measured implementation) and
  ``"reversed_breadth_first"`` (most remote data first).

* **all ports** — level-by-level (the lemma 4.2 order applied to the
  BST), reaching ``T = (N-1)/log N * M t_c + log N * tau`` — lower than
  the SBT by a factor of about ``log N / 2`` (Table 6).
"""

from __future__ import annotations

from repro.routing.common import scatter_chunks
from repro.routing.scatter_common import (
    distribute_packet,
    pieces_by_dest,
    wave_scatter_schedule,
)
from repro.routing.scheduler import greedy_partition, list_schedule
from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.topology.hypercube import Hypercube
from repro.trees.bst import BalancedSpanningTree

__all__ = ["bst_scatter_schedule", "check_subtree_order", "SUBTREE_ORDERS"]

#: transmission orders supported within a subtree (§5.2)
SUBTREE_ORDERS = ("depth_first", "reversed_breadth_first")


def check_subtree_order(subtree_order: str) -> None:
    """Raise ``ValueError`` unless ``subtree_order`` is in ``SUBTREE_ORDERS``."""
    if subtree_order not in SUBTREE_ORDERS:
        raise ValueError(
            f"unknown subtree order {subtree_order!r}; pick one of {SUBTREE_ORDERS}"
        )


def bst_scatter_schedule(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
    subtree_order: str = "depth_first",
) -> Schedule:
    """Scatter ``message_elems`` per destination from ``source`` via the BST.

    Args:
        cube: host cube.
        source: the distributing node.
        message_elems: per-destination message size ``M``.
        packet_elems: maximum packet size ``B``.
        port_model: port model the schedule must respect.
        subtree_order: ``"depth_first"`` or ``"reversed_breadth_first"``
            transmission order within each subtree (one-port models
            only; the all-port schedule is level-by-level).
    """
    cube.check_node(source)
    check_subtree_order(subtree_order)
    tree = BalancedSpanningTree(cube, source)
    if port_model is PortModel.ALL_PORT:
        return wave_scatter_schedule(
            tree, message_elems, packet_elems, algorithm="bst-scatter"
        )
    return _cyclic_one_port(
        tree, message_elems, packet_elems, port_model, subtree_order
    )


def _subtree_head(tree: BalancedSpanningTree, j: int) -> int | None:
    """The root child that subtree ``j`` hangs off (None when empty)."""
    members = set(tree.subtree_node_lists[j])
    for child in tree.children_map[tree.root]:
        if child in members:
            return child
    return None


def _subtree_dest_order(
    tree: BalancedSpanningTree,
    j: int,
    subtree_order: str,
) -> list[int]:
    """Destination order for subtree ``j`` under the chosen policy."""
    members = set(tree.subtree_node_lists[j])
    head = _subtree_head(tree, j)
    if head is None:
        return []
    if subtree_order == "depth_first":
        order = tree.preorder(head)
    else:
        order = tree.reversed_breadth_first(head)
    return [v for v in order if v in members]


def _cyclic_one_port(
    tree: BalancedSpanningTree,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
    subtree_order: str,
) -> Schedule:
    cube = tree.cube
    source = tree.root
    dests = [d for d in cube.nodes() if d != source]
    sizes = scatter_chunks(dests, message_elems, packet_elems)
    by_dest = pieces_by_dest(sizes)
    n = cube.dimension

    # Per-subtree packet queues: bundles of at most B elements, filled
    # in the chosen transmission order.
    queues: list[list[frozenset[Chunk]]] = []
    heads: list[int | None] = []
    for j in range(n):
        order = _subtree_dest_order(tree, j, subtree_order)
        pieces: list[Chunk] = []
        for d in order:
            pieces.extend(by_dest[d])
        queues.append([frozenset(g) for g in greedy_partition(pieces, sizes, packet_elems)])
        heads.append(_subtree_head(tree, j))

    # Priority list: root sends round-robin over subtrees; right after
    # each root packet, its fan-out transfers below the subtree head.
    transfers: list[Transfer] = []
    k = 0
    while any(queues):
        j = k % n
        k += 1
        if not queues[j]:
            continue
        packet = queues[j].pop(0)
        head = heads[j]
        assert head is not None
        transfers.append(Transfer(source, head, packet))
        transfers.extend(distribute_packet(tree, head, set(packet)))

    return list_schedule(
        cube,
        transfers,
        sizes,
        port_model,
        {source: set(sizes)},
        algorithm="bst-scatter",
        meta={
            "port_model": port_model.value,
            "source": source,
            "message_elems": message_elems,
            "packet_elems": packet_elems,
            "subtree_order": subtree_order,
        },
    )
