"""Shared machinery for one-to-all personalized (scatter) schedules.

Every scatter routes each destination's message along its unique tree
path from the root.  What distinguishes the algorithms is *when* each
piece leaves the root and *how* pieces are bundled into packets:

* :func:`wave_scatter_schedule` — the paper's *level-by-level* order
  (lemma 4.2): data for nodes at tree distance ``l`` leaves the root in
  step ``height - l``, so the farthest messages depart first and every
  hop happens exactly one step after the previous one.  Bundles all
  pieces sharing an (edge, step) into one packet, then splits packets
  larger than ``B``.  This is the optimal all-port shape for the SBT,
  the BST and the TCBT.
* :func:`distribute_packet` — forwarding transfers for a packet that
  has just arrived at a subtree root, recursively fanning its pieces
  out; used by the one-port BST scatter.
"""

from __future__ import annotations

from operator import itemgetter

from repro.routing.common import MSG, scatter_chunks
from repro.routing.scheduler import split_oversized
from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.trees.base import SpanningTree

__all__ = [
    "pieces_by_dest",
    "tree_path_from_root",
    "wave_scatter_schedule",
    "distribute_packet",
]


def pieces_by_dest(sizes: dict[Chunk, int]) -> dict[int, list[Chunk]]:
    """The pieces ``("m", dest, p)`` of every destination, in piece order."""
    out: dict[int, list[Chunk]] = {}
    for c in sizes:
        if c[0] == MSG:
            out.setdefault(c[1], []).append(c)
    for pieces in out.values():
        pieces.sort(key=itemgetter(2))
    return out


def tree_path_from_root(tree: SpanningTree, dest: int) -> list[int]:
    """The node path ``root -> ... -> dest`` (inclusive)."""
    path = [dest]
    node = dest
    while node != tree.root:
        parent = tree.parents_map[node]
        assert parent is not None
        node = parent
        path.append(node)
    path.reverse()
    return path


def wave_scatter_schedule(
    tree: SpanningTree,
    message_elems: int,
    packet_elems: int,
    algorithm: str,
    dests: tuple[int, ...] | None = None,
) -> Schedule:
    """Level-by-level scatter over an arbitrary spanning tree (lemma 4.2).

    The message for a destination at tree level ``l`` leaves the root in
    step ``height - l`` and advances one hop per step; pieces sharing an
    (edge, step) pair are bundled, and bundles beyond ``packet_elems``
    are split into micro-rounds.  Valid under the all-port model by
    construction (one bundle per directed edge per step).

    Args:
        dests: destination nodes (default: every non-root cube node).
            Degraded-mode callers restrict this to the nodes a partial
            survivor tree actually covers.
    """
    cube = tree.cube
    if dests is None:
        dests = tuple(d for d in cube.nodes() if d != tree.root)
    else:
        dests = tuple(sorted(set(dests) - {tree.root}))
    sizes = scatter_chunks(dests, message_elems, packet_elems)
    by_dest = pieces_by_dest(sizes)
    height = tree.height

    bundles: dict[tuple[int, int, int], set[Chunk]] = {}
    total_steps = 0
    for d in dests:
        path = tree_path_from_root(tree, d)
        l = len(path) - 1  # tree level of d
        depart = height - l
        pieces = frozenset(by_dest[d])
        for h in range(l):
            step = depart + h
            key = (step, path[h], path[h + 1])
            bundles.setdefault(key, set()).update(pieces)
            total_steps = max(total_steps, step + 1)

    rounds: list[list[Transfer]] = [[] for _ in range(total_steps)]
    for (step, u, v), chunks in sorted(bundles.items(), key=lambda kv: kv[0]):
        rounds[step].append(Transfer(u, v, frozenset(chunks)))

    schedule = Schedule(
        rounds=[tuple(r) for r in rounds],
        chunk_sizes=sizes,
        algorithm=algorithm,
        meta={
            "port_model": PortModel.ALL_PORT.value,
            "source": tree.root,
            "message_elems": message_elems,
            "packet_elems": packet_elems,
        },
    )
    return split_oversized(schedule, packet_elems).compact()


def distribute_packet(
    tree: SpanningTree,
    at: int,
    chunks: set[Chunk],
) -> list[Transfer]:
    """Forwarding transfers fanning a received packet out below ``at``.

    The packet sits at node ``at``; every chunk ``("m", dest, p)`` with
    ``dest != at`` moves one subtree-hop at a time.  Transfers are
    returned in BFS order of the fan-out (a valid causal priority
    order for :func:`repro.routing.scheduler.list_schedule`).
    """
    out: list[Transfer] = []
    frontier: list[tuple[int, set[Chunk]]] = [(at, set(chunks))]
    while frontier:
        nxt: list[tuple[int, set[Chunk]]] = []
        for node, payload in frontier:
            by_child: dict[int, set[Chunk]] = {}
            for c in payload:
                dest = c[1]
                if dest == node:
                    continue
                hop = _next_hop(tree, node, dest)
                by_child.setdefault(hop, set()).add(c)
            for child in sorted(by_child):
                out.append(Transfer(node, child, frozenset(by_child[child])))
                nxt.append((child, by_child[child]))
        frontier = nxt
    return out


def _next_hop(tree: SpanningTree, node: int, dest: int) -> int:
    """The child of ``node`` on the tree path towards ``dest``."""
    cur = dest
    while True:
        parent = tree.parents_map[cur]
        if parent is None:
            raise ValueError(f"{dest} is not below {node} in the tree")
        if parent == node:
            return cur
        cur = parent
