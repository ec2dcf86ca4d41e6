"""All-to-all extensions (the companion report [8], referenced in §1).

The paper notes that lower-bound algorithms for broadcasting from every
node and for personalized communication from every node follow from
running ``N`` translated spanning trees concurrently.  This module
implements the standard dimension-exchange realizations, which achieve
the same step counts with far simpler bookkeeping:

* **all-to-all broadcast (allgather)** — ``log N`` exchange steps; in
  step ``t`` every node swaps everything it has gathered so far with
  its neighbour across dimension ``t`` (payload doubles each step).
* **all-to-all personalized (total exchange)** — ``log N`` exchange
  steps; in step ``t`` every node forwards across dimension ``t`` the
  messages for all destinations whose bit ``t`` differs from its own
  (a constant ``N/2 * M`` elements per step — the transpose pattern of
  §1's matrix examples).

Both schedules use every one of the ``N log N`` directed edges in every
step, i.e. full bandwidth, and both are full-duplex (every node sends
and receives exactly one packet per step); the half-duplex variants
serialize each step into two.
"""

from __future__ import annotations

from repro.bits.ops import bit
from repro.routing.common import validate_message_args
from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.topology.hypercube import Hypercube

__all__ = [
    "allgather_schedule",
    "alltoall_personalized_schedule",
    "alltoall_bst_schedule",
    "allgather_initial_holdings",
    "alltoall_initial_holdings",
    "GATHER_TAG",
    "EXCHANGE_TAG",
]

GATHER_TAG = "g"
EXCHANGE_TAG = "x"


def allgather_schedule(
    cube: Hypercube,
    message_elems: int,
    port_model: PortModel,
) -> Schedule:
    """All-to-all broadcast by recursive doubling.

    Every node contributes ``message_elems`` and ends holding all ``N``
    contributions.  Chunk ``("g", origin)`` is node ``origin``'s
    contribution.  Full-duplex (and all-port) runs take ``log N``
    steps; half-duplex doubles each step.
    """
    validate_message_args(message_elems)
    n = cube.dimension
    sizes: dict[Chunk, int] = {
        (GATHER_TAG, v): message_elems for v in cube.nodes()
    }
    rounds: list[tuple[Transfer, ...]] = []
    held = {v: frozenset({(GATHER_TAG, v)}) for v in cube.nodes()}
    for t in range(n):
        step: list[Transfer] = []
        for v in cube.nodes():
            step.append(Transfer(v, v ^ (1 << t), held[v]))
        if port_model.half_duplex:
            rounds.append(tuple(s for s in step if bit(s.src, t) == 0))
            rounds.append(tuple(s for s in step if bit(s.src, t) == 1))
        else:
            rounds.append(tuple(step))
        held = {v: held[v] | held[v ^ (1 << t)] for v in cube.nodes()}
    return Schedule(
        rounds=rounds,
        chunk_sizes=sizes,
        algorithm="allgather",
        meta={"port_model": port_model.value, "message_elems": message_elems},
    )


def allgather_initial_holdings(cube: Hypercube) -> dict[int, set[Chunk]]:
    """Initial holdings for :func:`allgather_schedule`."""
    return {v: {(GATHER_TAG, v)} for v in cube.nodes()}


def alltoall_personalized_schedule(
    cube: Hypercube,
    message_elems: int,
    port_model: PortModel,
) -> Schedule:
    """Total exchange by dimension folding.

    Every node holds a distinct ``message_elems`` message for every
    other node (chunk ``("x", src, dest)``); after ``log N`` full-duplex
    steps each destination holds all messages addressed to it.  Step
    ``t`` moves every chunk whose destination differs from its current
    holder in bit ``t``.
    """
    validate_message_args(message_elems)
    n = cube.dimension
    sizes: dict[Chunk, int] = {}
    location: dict[Chunk, int] = {}
    for s in cube.nodes():
        for d in cube.nodes():
            if s == d:
                continue
            c = (EXCHANGE_TAG, s, d)
            sizes[c] = message_elems
            location[c] = s
    rounds: list[tuple[Transfer, ...]] = []
    for t in range(n):
        payload: dict[int, set[Chunk]] = {}
        for c, holder in location.items():
            dest = c[2]
            if bit(dest, t) != bit(holder, t):
                payload.setdefault(holder, set()).add(c)
        step = [
            Transfer(v, v ^ (1 << t), frozenset(chunks))
            for v, chunks in sorted(payload.items())
        ]
        if port_model.half_duplex:
            rounds.append(tuple(s for s in step if bit(s.src, t) == 0))
            rounds.append(tuple(s for s in step if bit(s.src, t) == 1))
        else:
            rounds.append(tuple(step))
        for v, chunks in payload.items():
            for c in chunks:
                location[c] = v ^ (1 << t)
    return Schedule(
        rounds=rounds,
        chunk_sizes=sizes,
        algorithm="alltoall-personalized",
        meta={"port_model": port_model.value, "message_elems": message_elems},
    )


def alltoall_initial_holdings(cube: Hypercube) -> dict[int, set[Chunk]]:
    """Initial holdings for :func:`alltoall_personalized_schedule`."""
    return {
        s: {(EXCHANGE_TAG, s, d) for d in cube.nodes() if d != s}
        for s in cube.nodes()
    }


def alltoall_bst_schedule(
    cube: Hypercube,
    message_elems: int,
    packet_elems: int | None = None,
) -> Schedule:
    """Total exchange over ``N`` concurrently running translated BSTs.

    The construction §1 attributes to the companion report [8]: every
    source ``s`` scatters its messages along the BST rooted at ``s``
    (the XOR-translate of the BST at 0), all sources level-by-level and
    concurrently.  Each message travels a minimal path, and because the
    BSTs load all ``N log N`` directed links almost uniformly in every
    step — instead of the dimension-exchange algorithm's one dimension
    (a ``1/log N`` fraction of the links) per step — the bandwidth
    term improves by a factor of about ``log N``.

    Valid under the all-port model; shares
    :func:`alltoall_initial_holdings`.

    Args:
        cube: host cube.
        message_elems: elements per (source, destination) message.
        packet_elems: optional maximum packet size; bundles beyond it
            are split into micro-rounds.
    """
    validate_message_args(message_elems)
    from repro.routing.scheduler import split_oversized
    from repro.sim.schedule import Transfer as _Transfer
    from repro.trees.bst import BalancedSpanningTree

    base_tree = BalancedSpanningTree(cube, 0)
    height = base_tree.height
    sizes: dict[Chunk, int] = {}
    bundles: dict[tuple[int, int, int], set[Chunk]] = {}
    total_steps = 0

    # Path of destination (relative) c in the BST at 0, as an edge list;
    # translate by s for the tree rooted at s.
    rel_paths: dict[int, list[tuple[int, int]]] = {}
    for c in cube.nodes():
        if c == 0:
            continue
        path = [c]
        node = c
        while node != 0:
            node = base_tree.parents_map[node]  # type: ignore[assignment]
            path.append(node)
        path.reverse()
        rel_paths[c] = list(zip(path, path[1:]))

    for s in cube.nodes():
        for c, edges in rel_paths.items():
            d = s ^ c
            chunk = (EXCHANGE_TAG, s, d)
            sizes[chunk] = message_elems
            depart = height - len(edges)
            for h, (a, b) in enumerate(edges):
                step = depart + h
                bundles.setdefault((step, a ^ s, b ^ s), set()).add(chunk)
                total_steps = max(total_steps, step + 1)

    rounds: list[list[Transfer]] = [[] for _ in range(total_steps)]
    for (step, u, v), chunks in sorted(bundles.items(), key=lambda kv: kv[0]):
        rounds[step].append(_Transfer(u, v, frozenset(chunks)))
    schedule = Schedule(
        rounds=[tuple(r) for r in rounds],
        chunk_sizes=sizes,
        algorithm="alltoall-bst",
        meta={
            "port_model": PortModel.ALL_PORT.value,
            "message_elems": message_elems,
        },
    )
    if packet_elems is not None:
        schedule = split_oversized(schedule, packet_elems).compact()
    return schedule
