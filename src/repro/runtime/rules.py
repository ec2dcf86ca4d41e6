"""Local routing rules: what each node sends, computed from its address.

The event engine (:mod:`repro.sim.vectorized`) *replays* a centrally
generated :class:`~repro.sim.schedule.Schedule`.  The runtime executes
the same algorithms the way the paper states them (§3.3, §4.2): every
node derives its own transmissions from its **own address**, the
operation parameters ``(source, M, B, port model)``, and the pure
address arithmetic of the tree families — SBT children by
leading-zero-bit complement, the MSBT edge labelling ``f(i, j)``, BST
subtree splits by necklace base.  No node ever reads a central
schedule.

Priority keys
-------------
The engine resolves contention in *program order* (schedule order).  A
distributed execution has no program order, so each planned send
carries a **priority key**: a tuple, computed locally, with the
property that sorting every node's sends by key reproduces exactly the
order in which the central generator would have emitted them.  The key
is pure address arithmetic (step, packet, relative address, ...); the
runtime orders sends by it the way real routers use header fields —
deterministic tie-breaking — which is what makes runtime executions
reproducible and bit-comparable against the engine (see
:mod:`repro.runtime.validate`).

Common knowledge
----------------
Every rule below is a deterministic function of ``(n, source, M, B)``
and per-node addresses.  Some rules (BST packet fan-out, wave-scatter
bundling) need the *same* deterministic derivation at several nodes;
:func:`build_cluster_program` computes those shared structures once and
hands each node its slice.  That is memoized common knowledge — any
node could recompute it alone from the parameters — not schedule
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.bits.ops import highest_set_bit, popcount
from repro.routing.common import BCAST, MSG, validate_message_args
from repro.routing.scheduler import greedy_partition
from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk
from repro.topology.hypercube import Hypercube
from repro.trees.bst import bst_children, bst_parent, bst_subtree_index
from repro.trees.msbt import ersbt_children, ersbt_parent, msbt_label
from repro.trees.sbt import sbt_children

__all__ = [
    "PlannedSend",
    "NodeProgram",
    "ClusterProgram",
    "build_cluster_program",
    "RUNTIME_BROADCAST_ALGORITHMS",
    "RUNTIME_SCATTER_ALGORITHMS",
]

RUNTIME_BROADCAST_ALGORITHMS = ("sbt", "msbt")
RUNTIME_SCATTER_ALGORITHMS = ("sbt", "bst")


@dataclass(frozen=True, slots=True)
class PlannedSend:
    """One transmission a node has locally decided to perform.

    Attributes:
        key: globally consistent priority (see the module docstring).
        dst: receiving neighbour.
        chunks: the chunk ids to carry (sent once all are held).
    """

    key: tuple
    dst: int
    chunks: frozenset[Chunk]


@dataclass
class NodeProgram:
    """A node's complete local plan for one collective operation.

    Attributes:
        node: the node this program belongs to.
        sends: planned transmissions, ascending by key.
        initial: chunks held before the operation starts.
        expected: chunks the node must hold when the operation is
            complete (drives the receive-timeout fault detector).
    """

    node: int
    sends: tuple[PlannedSend, ...]
    initial: frozenset[Chunk]
    expected: frozenset[Chunk]


@dataclass
class ClusterProgram:
    """The local programs of every node, plus shared parameters.

    ``chunk_sizes`` is itself locally derivable (every chunk id encodes
    its packet index, and sizes follow from ``(M, B)``); it is carried
    here so the engine prices transfers without re-deriving it.
    """

    programs: dict[int, NodeProgram]
    chunk_sizes: dict[Chunk, int]
    op: str
    algorithm: str
    source: int
    port_model: PortModel

    def total_sends(self) -> int:
        """Number of planned transmissions across the cluster."""
        return sum(len(p.sends) for p in self.programs.values())


def _bcast_sizes(message_elems: int, packet_elems: int) -> dict[Chunk, int]:
    n_packets = ceil(message_elems / packet_elems)
    return {
        (BCAST, p): min(packet_elems, message_elems - p * packet_elems)
        for p in range(n_packets)
    }


def _piece_sizes(dest: int, message_elems: int, packet_elems: int) -> dict[Chunk, int]:
    per_dest = ceil(message_elems / packet_elems)
    return {
        (MSG, dest, p): min(packet_elems, message_elems - p * packet_elems)
        for p in range(per_dest)
    }


def build_cluster_program(
    cube: Hypercube,
    op: str,
    algorithm: str,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
    order: str = "port",
    subtree_order: str = "depth_first",
) -> ClusterProgram:
    """Local programs for every node of ``cube`` for one collective.

    Args:
        op: ``"broadcast"`` or ``"scatter"``.
        algorithm: broadcast ``"sbt"``/``"msbt"``; scatter ``"sbt"``/``"bst"``.
        source: root of the operation.
        message_elems: ``M`` (total for broadcast, per destination for
            scatter).
        packet_elems: packet bound ``B``.
        port_model: active port model (selects the paper's one-port or
            all-port rule variant).
        order: SBT one-port transmission order (``"port"``/``"packet"``).
        subtree_order: BST in-subtree order (§5.2).

    Returns:
        a :class:`ClusterProgram` with one :class:`NodeProgram` per node.
    """
    cube.check_node(source)
    validate_message_args(message_elems, packet_elems)
    if op == "broadcast":
        sizes = _bcast_sizes(message_elems, packet_elems)
        if algorithm == "sbt":
            programs = _sbt_broadcast(
                cube, source, message_elems, packet_elems, port_model, order
            )
        elif algorithm == "msbt":
            programs = _msbt_broadcast(
                cube, source, message_elems, packet_elems, port_model
            )
        else:
            raise ValueError(
                f"runtime broadcast supports {RUNTIME_BROADCAST_ALGORITHMS}, "
                f"got {algorithm!r}"
            )
    elif op == "scatter":
        sizes = {}
        for d in cube.nodes():
            if d != source:
                sizes.update(_piece_sizes(d, message_elems, packet_elems))
        if algorithm == "sbt":
            if port_model is PortModel.ALL_PORT:
                programs = _wave_scatter(
                    cube, source, message_elems, packet_elems, family="sbt"
                )
            else:
                programs = _sbt_scatter_halving(
                    cube, source, message_elems, packet_elems
                )
        elif algorithm == "bst":
            if port_model is PortModel.ALL_PORT:
                programs = _wave_scatter(
                    cube, source, message_elems, packet_elems, family="bst"
                )
            else:
                programs = _bst_scatter_cyclic(
                    cube, source, message_elems, packet_elems, subtree_order
                )
        else:
            raise ValueError(
                f"runtime scatter supports {RUNTIME_SCATTER_ALGORITHMS}, "
                f"got {algorithm!r}"
            )
    else:
        raise ValueError(f"op must be 'broadcast' or 'scatter', got {op!r}")
    return ClusterProgram(
        programs=programs,
        chunk_sizes=sizes,
        op=op,
        algorithm=algorithm,
        source=source,
        port_model=port_model,
    )


# ---------------------------------------------------------------------------
# broadcast


def _sbt_broadcast(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
    order: str,
) -> dict[int, NodeProgram]:
    """§3.3.1: recursive doubling (one-port) / pipelining (all-port).

    One-port, node ``i`` with relative address ``c = i ^ source``: in
    step ``t`` every holder (``c < 2**t``) sends packet ``p`` across
    dimension ``t``.  Key ``(t, p, c)`` (port-oriented) or ``(p, t, c)``
    (packet-oriented) — step-major resp. packet-major, holders in
    relative-address order within a step.

    All-port: a node at tree level ``l = popcount(c)`` forwards packet
    ``p`` to all its SBT children in round ``l + p``; key
    ``(l + p, i, port)`` — children in ascending-dimension (port)
    order, the natural SBT child order.
    """
    if order not in ("port", "packet"):
        raise ValueError(f"unknown SBT order {order!r}; pick 'port' or 'packet'")
    sizes = _bcast_sizes(message_elems, packet_elems)
    n_packets = len(sizes)
    n = cube.dimension
    allport = port_model is PortModel.ALL_PORT
    all_chunks = frozenset(sizes)

    programs: dict[int, NodeProgram] = {}
    for i in cube.nodes():
        c = i ^ source
        sends: list[PlannedSend] = []
        if allport:
            level = popcount(c)
            for port, child in enumerate(sbt_children(i, source, n)):
                for p in range(n_packets):
                    sends.append(
                        PlannedSend(
                            (level + p, i, port), child, frozenset({(BCAST, p)})
                        )
                    )
        else:
            for t in range(n):
                if c >= (1 << t):
                    continue  # not yet a holder in step t
                dst = i ^ (1 << t)
                for p in range(n_packets):
                    key = (t, p, c) if order == "port" else (p, t, c)
                    sends.append(PlannedSend(key, dst, frozenset({(BCAST, p)})))
        sends.sort(key=lambda s: s.key)
        programs[i] = NodeProgram(
            node=i,
            sends=tuple(sends),
            initial=all_chunks if i == source else frozenset(),
            expected=frozenset() if i == source else all_chunks,
        )
    return programs


def _msbt_broadcast(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
) -> dict[int, NodeProgram]:
    """§3.3.2: packet ``p`` pipelines down ERSBT ``j = p mod n``.

    One-port (both variants): the edge into ``child`` in tree ``j``
    fires in round ``f(child, j) + q*n`` for batch ``q = p // n``;
    key ``(round, p, child)``.  Under one-send-*or*-receive the same
    local plan is run and the engine's port model serializes it (the
    §3.3.2 two-cycle transformation realized greedily, as in the
    central generator).

    All-port: the trees are edge-disjoint, so each pipelines
    independently — batch ``q`` runs one round behind batch ``q - 1``
    and packet ``p`` crosses the edge into ``child`` in round
    ``level_j(child) - 1 + q``.
    """
    sizes = _bcast_sizes(message_elems, packet_elems)
    n_packets = len(sizes)
    n = cube.dimension
    allport = port_model is PortModel.ALL_PORT
    all_chunks = frozenset(sizes)

    def level_in_tree(node: int, j: int) -> int:
        depth, u = 0, node
        while True:
            parent = ersbt_parent(u, j, source, n)
            if parent is None:
                return depth
            u = parent
            depth += 1

    programs: dict[int, NodeProgram] = {}
    for i in cube.nodes():
        sends: list[PlannedSend] = []
        for j in range(n):
            for child in ersbt_children(i, j, source, n):
                if allport:
                    base_round = level_in_tree(child, j) - 1
                else:
                    lab = msbt_label(child, j, source, n)
                    assert lab is not None
                    base_round = lab
                for p in range(j, n_packets, n):
                    q = p // n
                    r = base_round + (q if allport else q * n)
                    sends.append(
                        PlannedSend((r, p, child), child, frozenset({(BCAST, p)}))
                    )
        sends.sort(key=lambda s: s.key)
        programs[i] = NodeProgram(
            node=i,
            sends=tuple(sends),
            initial=all_chunks if i == source else frozenset(),
            expected=frozenset() if i == source else all_chunks,
        )
    return programs


# ---------------------------------------------------------------------------
# scatter


def _sbt_scatter_halving(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
) -> dict[int, NodeProgram]:
    """§4.2.1 one-port: recursive halving along the SBT.

    In step ``t`` a holder with relative address ``c < 2**t`` bundles,
    across dimension ``t``, the messages of every destination whose low
    ``t+1`` relative bits equal ``c | 2**t`` — descending relative
    order, first-fit packed into packets of at most ``B`` elements.
    Key ``(t, micro, c)``: micro-packets of a step interleave across
    senders exactly like the central generator's micro-rounds.
    """
    n = cube.dimension
    num_nodes = cube.num_nodes

    programs: dict[int, NodeProgram] = {}
    source_holdings: set[Chunk] = set()
    for i in cube.nodes():
        c = i ^ source
        sends: list[PlannedSend] = []
        for t in range(n):
            if c >= (1 << t):
                continue
            suffix = c | (1 << t)
            mask = (1 << (t + 1)) - 1
            pieces: list[Chunk] = []
            sizes: dict[Chunk, int] = {}
            for rel in range(num_nodes - 1, 0, -1):
                if rel & mask != suffix:
                    continue
                dest_sizes = _piece_sizes(source ^ rel, message_elems, packet_elems)
                sizes.update(dest_sizes)
                pieces.extend(dest_sizes)
            if not pieces:
                continue
            dst = i ^ (1 << t)
            for m, group in enumerate(greedy_partition(pieces, sizes, packet_elems)):
                sends.append(PlannedSend((t, m, c), dst, frozenset(group)))
        sends.sort(key=lambda s: s.key)
        mine = frozenset(
            _piece_sizes(i, message_elems, packet_elems)
        ) if i != source else frozenset()
        programs[i] = NodeProgram(
            node=i, sends=tuple(sends), initial=frozenset(), expected=mine
        )
        if i != source:
            source_holdings.update(_piece_sizes(i, message_elems, packet_elems))
    src_prog = programs[source]
    programs[source] = NodeProgram(
        node=source,
        sends=src_prog.sends,
        initial=frozenset(source_holdings),
        expected=frozenset(),
    )
    return programs


def _wave_scatter(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
    family: str,
) -> dict[int, NodeProgram]:
    """Lemma 4.2 all-port scatter over the SBT or BST.

    The message for a destination at tree level ``l`` departs in step
    ``height - l`` and advances one hop per step; every node on the
    path bundles the pieces sharing its outgoing (edge, step) pair and
    first-fit splits bundles beyond ``B``.  Key
    ``(step, micro, node, child)``.

    Each node derives the paths crossing it from the pure parent
    functions alone; the parent map is computed once here as shared
    common knowledge.
    """
    n = cube.dimension

    if family == "sbt":
        def parent_of(v: int) -> int | None:
            c = v ^ source
            if c == 0:
                return None
            return v ^ (1 << highest_set_bit(c))
    else:
        def parent_of(v: int) -> int | None:
            return bst_parent(v, source, n)

    paths: dict[int, list[int]] = {}
    for d in cube.nodes():
        if d == source:
            continue
        path = [d]
        v = d
        while v != source:
            p = parent_of(v)
            assert p is not None
            v = p
            path.append(v)
        path.reverse()
        paths[d] = path
    height = max(len(p) - 1 for p in paths.values())

    sizes: dict[Chunk, int] = {}
    for d in paths:
        sizes.update(_piece_sizes(d, message_elems, packet_elems))

    # (step, u, v) -> pieces crossing that edge in that step
    bundles: dict[tuple[int, int, int], set[Chunk]] = {}
    for d, path in paths.items():
        hops = len(path) - 1
        depart = height - hops
        pieces = frozenset(_piece_sizes(d, message_elems, packet_elems))
        for h in range(hops):
            bundles.setdefault((depart + h, path[h], path[h + 1]), set()).update(
                pieces
            )

    sends_by_node: dict[int, list[PlannedSend]] = {i: [] for i in cube.nodes()}
    for (step, u, v), chunks in bundles.items():
        ordered = sorted(chunks, key=lambda ch: (-sizes[ch], repr(ch)))
        for m, group in enumerate(greedy_partition(ordered, sizes, packet_elems)):
            sends_by_node[u].append(
                PlannedSend((step, m, u, v), v, frozenset(group))
            )

    programs: dict[int, NodeProgram] = {}
    for i in cube.nodes():
        sends = sorted(sends_by_node[i], key=lambda s: s.key)
        programs[i] = NodeProgram(
            node=i,
            sends=tuple(sends),
            initial=frozenset(sizes) if i == source else frozenset(),
            expected=(
                frozenset() if i == source
                else frozenset(_piece_sizes(i, message_elems, packet_elems))
            ),
        )
    return programs


def _bst_scatter_cyclic(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
    subtree_order: str,
) -> dict[int, NodeProgram]:
    """§4.2.2 one-port: the root serves its ``n`` BST subtrees cyclically.

    The root's ``k``-th cycle serves subtree ``k mod n`` (skipping
    drained queues); each packet then fans out below the subtree head
    in BFS order.  Key ``(m, pos)`` where ``m`` numbers root packets
    globally and ``pos`` is the position within packet ``m``'s
    deterministic fan-out (0 = the root's own send).

    The queues and fan-outs are deterministic in the operation
    parameters, so every node derives the same numbering; the BST
    child map is built once from the necklace-base formulas as shared
    common knowledge.
    """
    if subtree_order not in ("depth_first", "reversed_breadth_first"):
        raise ValueError(
            f"unknown subtree order {subtree_order!r}; pick "
            "'depth_first' or 'reversed_breadth_first'"
        )
    n = cube.dimension

    # Tree structure from the pure parent/children formulas, with
    # children ascending (the convention every traversal order uses).
    children: dict[int, tuple[int, ...]] = {
        i: tuple(sorted(bst_children(i, source, n))) for i in cube.nodes()
    }
    levels: dict[int, int] = {source: 0}
    stack = [source]
    order_bfs: dict[int, list[int]] = {}
    while stack:
        u = stack.pop()
        for ch in children[u]:
            levels[ch] = levels[u] + 1
            stack.append(ch)

    members: dict[int, list[int]] = {j: [] for j in range(n)}
    for i in cube.nodes():
        if i == source:
            continue
        members[bst_subtree_index(i, source, n)].append(i)

    def subtree_head(j: int) -> int | None:
        mem = set(members[j])
        for child in children[source]:
            if child in mem:
                return child
        return None

    def dest_order(j: int, head: int) -> list[int]:
        mem = set(members[j])
        if subtree_order == "depth_first":
            out: list[int] = []
            st = [head]
            while st:
                u = st.pop()
                out.append(u)
                st.extend(reversed(children[u]))
        else:
            out = []
            queue = [head]
            while queue:
                u = queue.pop(0)
                out.append(u)
                queue.extend(children[u])
            out = sorted(out, key=lambda v: -levels[v])
        return [v for v in out if v in mem]

    sizes: dict[Chunk, int] = {}
    for d in cube.nodes():
        if d != source:
            sizes.update(_piece_sizes(d, message_elems, packet_elems))

    queues: list[list[frozenset[Chunk]]] = []
    heads: list[int | None] = []
    for j in range(n):
        head = subtree_head(j)
        heads.append(head)
        if head is None:
            queues.append([])
            continue
        pieces: list[Chunk] = []
        for d in dest_order(j, head):
            dp = sorted(_piece_sizes(d, message_elems, packet_elems), key=lambda c: c[2])
            pieces.extend(dp)
        queues.append(
            [frozenset(g) for g in greedy_partition(pieces, sizes, packet_elems)]
        )

    def next_hop(node: int, dest: int) -> int:
        cur = dest
        while True:
            parent = bst_parent(cur, source, n)
            assert parent is not None
            if parent == node:
                return cur
            cur = parent

    def fan_out(head: int, chunks: set[Chunk]) -> list[tuple[int, int, frozenset]]:
        out: list[tuple[int, int, frozenset]] = []
        frontier: list[tuple[int, set[Chunk]]] = [(head, set(chunks))]
        while frontier:
            nxt: list[tuple[int, set[Chunk]]] = []
            for node, payload in frontier:
                by_child: dict[int, set[Chunk]] = {}
                for ch in payload:
                    dest = ch[1]
                    if dest == node:
                        continue
                    hop = next_hop(node, dest)
                    by_child.setdefault(hop, set()).add(ch)
                for child in sorted(by_child):
                    out.append((node, child, frozenset(by_child[child])))
                    nxt.append((child, by_child[child]))
            frontier = nxt
        return out

    sends_by_node: dict[int, list[PlannedSend]] = {i: [] for i in cube.nodes()}
    m = 0
    k = 0
    while any(queues):
        j = k % n
        k += 1
        if not queues[j]:
            continue
        packet = queues[j].pop(0)
        head = heads[j]
        assert head is not None
        sends_by_node[source].append(PlannedSend((m, 0), head, packet))
        for pos, (u, v, group) in enumerate(fan_out(head, set(packet)), start=1):
            sends_by_node[u].append(PlannedSend((m, pos), v, group))
        m += 1

    programs: dict[int, NodeProgram] = {}
    for i in cube.nodes():
        sends = sorted(sends_by_node[i], key=lambda s: s.key)
        programs[i] = NodeProgram(
            node=i,
            sends=tuple(sends),
            initial=frozenset(sizes) if i == source else frozenset(),
            expected=(
                frozenset() if i == source
                else frozenset(_piece_sizes(i, message_elems, packet_elems))
            ),
        )
    return programs
