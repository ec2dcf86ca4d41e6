"""MSBT-based broadcasting (§3.3.2).

The message is cut into ``P = ceil(M/B)`` packets; packet ``p`` travels
down ERSBT ``p mod n`` as batch ``p // n``.  Under one send *and* one
receive per node, batch ``q`` of tree ``j`` crosses the edge labelled
``f`` in round ``f + q*n`` — the labelling's three conditions make this
collision-free, the first batch drains in ``2 log N`` rounds and the
whole message in ``ceil(M/B) + log N`` rounds (the paper's strict lower
bound for ``M/B > 1``).

Under one send *or* one receive the full-duplex schedule is re-packed
greedily (§3.3.2's two-cycles transformation), landing within the
``2 ceil(M/B) + log N - 1`` bound.  Under the all-port model each tree
pipelines its batches independently — the trees are edge-disjoint, so
``n`` packets are injected per round and the run takes
``ceil(M/(B log N)) + log N`` rounds.

With ``dead_links`` the generator degrades gracefully: each packet
still pipelines down its assigned ERSBT wherever that tree survives,
and the subtrees cut off below a dead edge are re-attached through
fault-avoiding BFS paths (§1's disjoint-path guarantee makes this
always possible for up to ``log N - 1`` link faults).  The degraded
schedule never touches a dead link, so it runs clean under the
matching :class:`~repro.sim.faults.FaultPlan`.
"""

from __future__ import annotations

from collections.abc import Collection
from math import ceil

from repro.routing.common import BCAST, broadcast_chunks
from repro.routing.scheduler import list_schedule, reschedule
from repro.sim.faults import FaultError
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule, Transfer
from repro.topology.fault import fault_avoiding_spanning_tree
from repro.topology.hypercube import Hypercube
from repro.trees.msbt import MSBTGraph

__all__ = ["msbt_broadcast_schedule"]


def msbt_broadcast_schedule(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
    dead_links: Collection[tuple[int, int]] = (),
) -> Schedule:
    """Broadcast ``message_elems`` from ``source`` over the MSBT graph.

    Returns a constraint-valid schedule for the requested port model;
    ``meta["predicted_rounds"]`` carries the paper's closed-form step
    count (for ``ONE_PORT_HALF`` it is the paper's upper bound — the
    greedy serialization may do one round better on tiny cases).

    Args:
        dead_links: failed links as (a, b) pairs, direction-agnostic.
            When non-empty the schedule routes around them (see the
            module docstring); the closed-form round counts no longer
            apply, so ``predicted_rounds`` is omitted and the
            algorithm tag becomes ``"msbt-broadcast-degraded"``.

    Raises:
        FaultError: when ``dead_links`` disconnect some node from the
            source (requires at least ``log N`` faults); the error's
            ``undelivered`` names the unreachable nodes.
    """
    cube.check_node(source)
    sizes = broadcast_chunks(message_elems, packet_elems)
    n_packets = len(sizes)
    n = cube.dimension
    graph = MSBTGraph(cube, source)

    dead = {(min(a, b), max(a, b)) for a, b in dead_links}
    if dead:
        return _degraded(graph, sizes, n_packets, port_model, dead)

    if port_model is PortModel.ALL_PORT:
        return _all_port(graph, sizes, n_packets)

    full = _full_duplex(graph, sizes, n_packets)
    if port_model is PortModel.ONE_PORT_FULL:
        return full
    # ONE_PORT_HALF: greedy two-cycle serialization of the labelled schedule.
    half = reschedule(
        cube, full, PortModel.ONE_PORT_HALF, {source: set(sizes)}
    )
    half.algorithm = "msbt-broadcast"
    half.meta.update(
        port_model=port_model.value,
        predicted_rounds=2 * n_packets + n - 1,
    )
    return half


def _relative_order(cube: Hypercube, source: int) -> list[int]:
    """Every node, by ascending relative address ``node ^ source``.

    Walking nodes in this order makes a fault-free schedule from any
    source the source-0 schedule translated, round order included
    (labels, parents and levels of the ERSBTs translate with the root),
    which lets :func:`repro.collectives.api.collective_program` serve
    every source from one source-0 entry.
    """
    return [source ^ c for c in range(cube.num_nodes)]


def _full_duplex(graph: MSBTGraph, sizes: dict, n_packets: int) -> Schedule:
    n = graph.n
    total_rounds = 0
    placed: list[tuple[int, Transfer]] = []
    nodes = _relative_order(graph.cube, graph.source)
    for p in range(n_packets):
        j = p % n
        q = p // n
        tree = graph.trees[j]
        chunk = frozenset({(BCAST, p)})
        for node in nodes:
            lab = tree.label(node)
            if lab is None:
                continue
            parent = tree.parent(node)
            assert parent is not None
            r = lab + q * n
            placed.append((r, Transfer(parent, node, chunk)))
            total_rounds = max(total_rounds, r + 1)
    rounds: list[list[Transfer]] = [[] for _ in range(total_rounds)]
    for r, t in placed:
        rounds[r].append(t)
    return Schedule(
        rounds=[tuple(r) for r in rounds],
        chunk_sizes=sizes,
        algorithm="msbt-broadcast",
        meta={
            "port_model": PortModel.ONE_PORT_FULL.value,
            "source": graph.source,
            "predicted_rounds": n_packets + n if n_packets > 1 else 2 * n,
        },
    )


def _all_port(graph: MSBTGraph, sizes: dict, n_packets: int) -> Schedule:
    n = graph.n
    # Tree j carries packets p ≡ j (mod n); batch q = p // n pipelines
    # one round behind batch q - 1 within its (edge-disjoint) tree.
    placed: list[tuple[int, Transfer]] = []
    total_rounds = 0
    levels = [graph.trees[j].levels for j in range(n)]
    nodes = _relative_order(graph.cube, graph.source)
    for p in range(n_packets):
        j = p % n
        q = p // n
        tree = graph.trees[j]
        chunk = frozenset({(BCAST, p)})
        for node in nodes:
            parent = tree.parent(node)
            if parent is None:
                continue
            r = levels[j][node] - 1 + q
            placed.append((r, Transfer(parent, node, chunk)))
            total_rounds = max(total_rounds, r + 1)
    rounds: list[list[Transfer]] = [[] for _ in range(total_rounds)]
    for r, t in placed:
        rounds[r].append(t)
    return Schedule(
        rounds=[tuple(r) for r in rounds],
        chunk_sizes=sizes,
        algorithm="msbt-broadcast",
        meta={
            "port_model": PortModel.ALL_PORT.value,
            "source": graph.source,
            "predicted_rounds": ceil(n_packets / n) + n,
        },
    )


def _degraded(
    graph: MSBTGraph,
    sizes: dict,
    n_packets: int,
    port_model: PortModel,
    dead: set[tuple[int, int]],
) -> Schedule:
    """MSBT broadcast over a cube with failed links.

    A single link fault can damage up to two of the ``n`` edge-disjoint
    trees, so with ``n - 1`` faults every tree may be broken — dropping
    damaged trees wholesale cannot meet §1's tolerance bound.  Instead
    each packet keeps the intact portion of its assigned tree, and the
    *orphans* (nodes whose tree path to the source crosses a dead edge)
    are re-attached through their fault-avoiding BFS path: walking the
    survivor tree upward from each orphan until a node that still
    receives the packet through the tree, then relaying down that chain.
    The resulting transfer list is packed by :func:`list_schedule`, so
    the output is constraint-valid under any port model by construction.
    """
    cube = graph.cube
    n = graph.n
    source = graph.source

    fast = fault_avoiding_spanning_tree(cube, source, dead_links=dead, partial=True)
    missing = sorted(v for v in cube.nodes() if v not in fast)
    if missing:
        raise FaultError(
            f"{len(dead)} dead links disconnect {len(missing)} nodes from "
            f"source {source} (e.g. {missing[:4]})",
            undelivered=missing,
        )
    fast_level: dict[int, int] = {}
    for v in fast:
        depth, u = 0, v
        while fast[u] is not None:
            u = fast[u]  # type: ignore[assignment]
            depth += 1
        fast_level[v] = depth

    items: list[tuple[tuple[int, int, int], Transfer]] = []
    for p in range(n_packets):
        j = p % n
        tree = graph.trees[j]
        chunk = frozenset({(BCAST, p)})

        orphan: set[int] = set()
        for v in sorted(cube.nodes(), key=tree.levels.__getitem__):
            parent = tree.parent(v)
            if parent is None:
                continue
            if (min(parent, v), max(parent, v)) in dead or parent in orphan:
                orphan.add(v)

        for v in cube.nodes():
            lab = tree.label(v)
            if lab is None or v in orphan:
                continue
            parent = tree.parent(v)
            assert parent is not None
            items.append(((p, 0, lab), Transfer(parent, v, chunk)))

        # Patch chains, deduplicated: orphans sharing a survivor-tree
        # prefix receive through one relay of the packet, not several.
        patch: dict[tuple[int, int], int] = {}
        for v in sorted(orphan):
            u = v
            while u in orphan:
                pu = fast[u]
                assert pu is not None  # the source is never an orphan
                patch[(pu, u)] = fast_level[u]
                u = pu
        for (a, b), lvl in sorted(patch.items(), key=lambda kv: (kv[1], kv[0])):
            items.append(((p, 1, lvl), Transfer(a, b, chunk)))

    items.sort(key=lambda kv: kv[0])
    return list_schedule(
        cube,
        [t for _, t in items],
        sizes,
        port_model,
        {source: set(sizes)},
        algorithm="msbt-broadcast-degraded",
        meta={
            "port_model": port_model.value,
            "source": source,
            "dead_links": tuple(sorted(dead)),
        },
    )
