"""Reverse operations: gather (all-to-one personalized) and reduce.

The paper (§1, §4) treats these as the mirror images of scatter and
broadcast: running a distribution schedule backwards collects instead.

* **gather** — exactly a reversed scatter schedule: every transfer
  flips direction and the rounds play backwards, so each node's message
  climbs its tree path to the root with identical step counts and link
  loads (transposed).
* **reduce** — the combining mirror of an SBT broadcast.  Payload
  *shrinks* upward (each hop carries one combined partial of the
  message size), so it is generated directly rather than by reversal:
  dimensions are folded in ascending order (recursive halving) under
  the one-port models, or pipelined up the tree per packet under the
  all-port model.  A chunk ``("acc", v, p)`` stands for packet ``p`` of
  the partial result combined over the SBT subtree rooted at ``v``.
"""

from __future__ import annotations

from repro.routing.common import broadcast_chunks, validate_message_args
from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.topology.hypercube import Hypercube
from repro.trees.sbt import SpanningBinomialTree

__all__ = [
    "gather_from_scatter",
    "sbt_reduce_schedule",
    "tree_reduce_schedule",
    "tree_reduce_initial_holdings",
    "reduce_initial_holdings",
    "reduce_combine_rule",
    "ACC",
    "DONE",
]

#: zero-size marker chunk: "node v's subtree is fully combined into the
#: partial travelling with it" — encodes the combining dependency in
#: the chunk-causality model without distorting transfer sizes.
DONE = "done"

#: chunk tag for combined partial results
ACC = "acc"


def gather_from_scatter(scatter_schedule: Schedule) -> Schedule:
    """The gather schedule mirroring a scatter schedule.

    Initial holdings for running it: every node holds its own pieces
    ``("m", node, p)``; the root ends up holding all of them.
    """
    g = scatter_schedule.reversed()
    g.algorithm = scatter_schedule.algorithm.replace("scatter", "gather")
    return g


def sbt_reduce_schedule(
    cube: Hypercube,
    root: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
) -> Schedule:
    """Reduce ``message_elems`` from all nodes to ``root`` over the SBT.

    Every node contributes an ``M``-element operand; combining is
    elementwise, so every tree edge carries exactly ``M`` elements
    regardless of subtree size.  Initial holdings for running the
    schedule: node ``v`` holds ``("acc", v, p)`` for all packets ``p``
    (its own operand, i.e. the partial combined over the leaf set
    ``{v}``).  The root ends holding ``("acc", root ^ 2^j, p)`` for all
    its children — the fully combined operand pieces.
    """
    cube.check_node(root)
    validate_message_args(message_elems, packet_elems)
    packet_sizes = broadcast_chunks(message_elems, packet_elems)
    n_packets = len(packet_sizes)
    n = cube.dimension
    tree = SpanningBinomialTree(cube, root)

    sizes: dict[Chunk, int] = {}
    for node in cube.nodes():
        for p in range(n_packets):
            sizes[(ACC, node, p)] = packet_sizes[("b", p)]

    if port_model is PortModel.ALL_PORT:
        # Pipelined: a node at level l sends its combined packet p to
        # its parent in round (n - l) + p — its children (level l + 1)
        # sent packet p one round earlier, and the deepest leaves start
        # at round 0.
        total_rounds = n + n_packets - 1
        rounds: list[list[Transfer]] = [[] for _ in range(total_rounds)]
        for node in cube.nodes():
            parent = tree.parent(node)
            if parent is None:
                continue
            level = tree.level(node)
            for p in range(n_packets):
                rounds[(n - level) + p].append(
                    Transfer(node, parent, frozenset({(ACC, node, p)}))
                )
        schedule_rounds = [tuple(r) for r in rounds]
    else:
        # Recursive folding of dimensions in descending order — the
        # exact mirror of the one-port SBT broadcast.  In step s (dim
        # d = n-1-s) the nodes whose relative address has highest bit d
        # send their accumulated partial to their SBT parent (strip the
        # highest bit); they have already combined everything from
        # their own subtrees in earlier steps.
        schedule_rounds = []
        for s in range(n):
            d = n - 1 - s
            senders_rel = range(1 << d, 1 << (d + 1))
            for p in range(n_packets):
                schedule_rounds.append(
                    tuple(
                        Transfer(
                            root ^ c,
                            root ^ (c ^ (1 << d)),
                            frozenset({(ACC, root ^ c, p)}),
                        )
                        for c in senders_rel
                    )
                )

    return Schedule(
        rounds=schedule_rounds,
        chunk_sizes=sizes,
        algorithm="sbt-reduce",
        meta={
            "port_model": port_model.value,
            "root": root,
            "message_elems": message_elems,
            "packet_elems": packet_elems,
        },
    )


def tree_reduce_schedule(
    tree,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
) -> Schedule:
    """Reduce to ``tree.root`` along an *arbitrary* spanning tree.

    Generic counterpart of :func:`sbt_reduce_schedule` (which keeps its
    closed-form step structure): every node sends its combined partial
    (``M`` elements as ``ceil(M/B)`` packets) to its parent once all of
    its children have reported.  The combining dependency — invisible
    to the engines' chunk-causality model, since a node "holds" its own
    partial from the start — is encoded with zero-size ``("done", v,
    p)`` marker chunks that children deliver alongside their payloads;
    greedy list scheduling then packs the upward sweep under the port
    model.

    Initial holdings: :func:`tree_reduce_initial_holdings`.
    """
    from repro.routing.scheduler import list_schedule

    validate_message_args(message_elems, packet_elems)
    packet_sizes = broadcast_chunks(message_elems, packet_elems)
    n_packets = len(packet_sizes)
    cube = tree.cube

    sizes: dict[Chunk, int] = {}
    for node in cube.nodes():
        for p in range(n_packets):
            sizes[(ACC, node, p)] = packet_sizes[("b", p)]
            sizes[(DONE, node, p)] = 0

    # deepest levels first: children report before parents need to send
    order = sorted(
        (v for v in cube.nodes() if v != tree.root),
        key=lambda v: -tree.levels[v],
    )
    transfers = []
    for v in order:
        parent = tree.parents_map[v]
        assert parent is not None
        members = tree.subtree_of(v)
        for p in range(n_packets):
            chunks = {(ACC, v, p)} | {(DONE, u, p) for u in members}
            transfers.append(Transfer(v, parent, frozenset(chunks)))

    return list_schedule(
        cube,
        transfers,
        sizes,
        port_model,
        tree_reduce_initial_holdings(tree, message_elems, packet_elems),
        algorithm=f"{type(tree).__name__.lower()}-reduce",
        meta={
            "port_model": port_model.value,
            "root": tree.root,
            "message_elems": message_elems,
            "packet_elems": packet_elems,
        },
    )


def tree_reduce_initial_holdings(
    tree, message_elems: int, packet_elems: int
) -> dict[int, set[Chunk]]:
    """Initial holdings for :func:`tree_reduce_schedule`."""
    n_packets = len(broadcast_chunks(message_elems, packet_elems))
    return {
        node: {(ACC, node, p) for p in range(n_packets)}
        | {(DONE, node, p) for p in range(n_packets)}
        for node in tree.cube.nodes()
    }


def reduce_initial_holdings(
    cube: Hypercube, message_elems: int, packet_elems: int
) -> dict[int, set[Chunk]]:
    """Initial holdings for :func:`sbt_reduce_schedule`."""
    n_packets = len(broadcast_chunks(message_elems, packet_elems))
    return {
        node: {(ACC, node, p) for p in range(n_packets)} for node in cube.nodes()
    }


def reduce_combine_rule(
    cube: Hypercube, root: int
) -> dict[int, list[int]]:
    """Which partials each node combines: node -> SBT children (at root).

    Combination is associative/commutative elementwise; node ``v``'s
    outgoing partial ``("acc", v, p)`` semantically equals its own
    operand combined with the partials of its SBT children.  The
    simulation tracks only chunk movement; this map lets tests verify
    the combining dataflow is complete.
    """
    tree = SpanningBinomialTree(cube, root)
    return {node: list(tree.children(node)) for node in cube.nodes()}
