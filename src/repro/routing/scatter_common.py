"""Shared machinery for one-to-all personalized (scatter) schedules.

Every scatter routes each destination's message along its unique tree
path from the root.  What distinguishes the algorithms is *when* each
piece leaves the root and *how* pieces are bundled into packets:

* :func:`wave_scatter_schedule` — the paper's *level-by-level* order
  (lemma 4.2): data for nodes at tree distance ``l`` leaves the root in
  step ``height - l``, so the farthest messages depart first and every
  hop happens exactly one step after the previous one.  The pieces
  sharing an (edge, step) form one bundle, filled in one rank order and
  first-fit split into packets of at most ``B``.  This is the optimal
  all-port shape for the SBT, the BST and the TCBT.
* :func:`distribute_packet` — forwarding transfers for a packet that
  has just arrived at a subtree root, recursively fanning its pieces
  out; used by the one-port BST scatter.
"""

from __future__ import annotations

from operator import itemgetter

from repro.routing.common import MSG, scatter_chunks
from repro.routing.scheduler import greedy_partition
from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.trees.base import SpanningTree

__all__ = [
    "pieces_by_dest",
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


def wave_scatter_schedule(
    tree: SpanningTree,
    message_elems: int,
    packet_elems: int,
    algorithm: str,
    dests: tuple[int, ...] | None = None,
) -> Schedule:
    """Level-by-level scatter over an arbitrary spanning tree (lemma 4.2).

    The message for a destination at tree level ``l`` leaves the root in
    step ``height - l`` and advances one hop per step.  The pieces
    sharing an (edge, step) pair form one bundle, and every bundle is
    first-fit split into micro-rounds of at most ``packet_elems``.
    Valid under the all-port model by construction (one packet per
    directed edge per micro-round).

    One pass: the pieces are ranked once by ``(-size, repr)`` and
    appended in that order to the bundles along their paths, so every
    bundle is already in split order; step ``s`` becomes as many
    micro-rounds as its largest bundle needs, with the bundles in
    ``(u, v)`` order within each.

    Args:
        dests: destination nodes (default: every non-root cube node).
            Degraded-mode callers restrict this to the nodes a partial
            survivor tree actually covers.
    """
    root = tree.root
    if dests is None:
        dests = tuple(d for d in tree.cube.nodes() if d != root)
    else:
        dests = tuple(sorted(set(dests) - {root}))
    sizes = scatter_chunks(dests, message_elems, packet_elems)

    # root-to-node paths, each built from its parent's
    parents = tree.parents_map
    known: dict[int, list[int]] = {root: [root]}
    for d in dests:
        chain = []
        v = d
        while v not in known:
            chain.append(v)
            v = parents[v]
        for u in reversed(chain):
            known[u] = known[v] + [u]
            v = u
    height = max((len(known[d]) - 1 for d in dests), default=0)

    # (step, u, v) -> the pieces crossing u -> v in that step; each
    # destination's piece goes into the bundles of every hop on its path
    bundles: dict[tuple[int, int, int], list[Chunk]] = {}
    hops: dict[int, list[list[Chunk]]] = {}
    for d in dests:
        path = known[d]
        depart = height - len(path) + 1
        hops[d] = [
            bundles.setdefault((depart + h, path[h], path[h + 1]), [])
            for h in range(len(path) - 1)
        ]
    for c in sorted(sizes, key=lambda c: (-sizes[c], repr(c))):
        for bundle in hops[c[1]]:
            bundle.append(c)

    rounds: list[tuple[Transfer, ...]] = []
    micro: list[list[Transfer]] = []
    step = 0
    for key in sorted(bundles):
        s, u, v = key
        if s != step:
            rounds.extend(map(tuple, micro))
            micro = []
            step = s
        groups = greedy_partition(bundles[key], sizes, packet_elems)
        for m, group in enumerate(groups):
            if m == len(micro):
                micro.append([])
            micro[m].append(Transfer(u, v, frozenset(group)))
    rounds.extend(map(tuple, micro))

    return Schedule(
        rounds=rounds,
        chunk_sizes=sizes,
        algorithm=algorithm,
        meta={
            "port_model": PortModel.ALL_PORT.value,
            "source": root,
            "message_elems": message_elems,
            "packet_elems": packet_elems,
            "split_packet_elems": packet_elems,
        },
    )


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
