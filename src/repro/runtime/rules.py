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

Translated broadcasts
---------------------
The SBT and MSBT broadcast rules read a node's address only relative
to the source, ``i ^ source``, and their keys are relative too.  The
hypercube is a Cayley graph, so the programs from source ``s`` are the
source-0 programs relabelled: node ``i ^ s`` plans node ``i``'s sends
with every ``dst`` XORed by ``s`` and the same keys, chunks, initial
and expected sets.  Keys are unique and relative, so the key-sorted
first round is relabelled the same way.  :func:`build_cluster_program`
derives each broadcast once at source 0 per ``(n, algorithm, M, B,
port model, order)`` and keeps it in the ``runtime.cluster_programs``
LRU: the programs, and their first round (:class:`SendRound`) with its
lowering and that lowering's delivery verdict.  A source is served by
relabelling: the first round's schedule and lowering at once
(:meth:`SendRound.translated`), the programs on first read.  Scatter
programs are derived per call: their chunk ids, bundle order and BST
child order follow absolute addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import NamedTuple

from repro.bits.ops import highest_set_bit, popcount
from repro.cache import MISSING, LRUCache
from repro.routing.broadcast_sbt import SBT_ORDERS
from repro.routing.common import BCAST, MSG, validate_message_args
from repro.routing.scatter_bst import check_subtree_order
from repro.routing.scheduler import greedy_partition
from repro.sim.lowering import LoweredSchedule, lower_schedule
from repro.sim.onread import OnRead
from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.topology.hypercube import Hypercube
from repro.trees.bst import bst_children, bst_parent, bst_subtree_index
from repro.trees.msbt import ersbt_children, ersbt_parent, msbt_label
from repro.trees.sbt import sbt_children

__all__ = [
    "PlannedSend",
    "NodeProgram",
    "ClusterProgram",
    "SendRound",
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


@dataclass(frozen=True, slots=True)
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


#: one planned send with its sending node
Send = tuple[int, PlannedSend]


def _moved_sends(rnd: "SendRound") -> list[Send]:
    base, by = rnd._on_read
    return [
        (node ^ by, PlannedSend(s.key, s.dst ^ by, s.chunks))
        for node, s in base.sends
    ]


def _moved_initial(rnd: "SendRound") -> dict[int, set[Chunk]]:
    base, by = rnd._on_read
    return {v: set(base.initial[v ^ by]) for v in base.initial}


@dataclass
class SendRound(OnRead):
    """Planned sends run as one engine round: sorted by key and
    released together from the given holdings.

    Attributes:
        sends: ``(node, send)`` pairs in key order; transfer ``i`` of
            ``schedule`` is ``sends[i]``.
        initial: every node's holdings before the round.
        schedule: the sends as a one-round :class:`Schedule`.
        lowering: ``schedule`` lowered with ``initial`` (left out of
            ``==`` and ``repr``: those two fields determine it).

    A round :meth:`translated` from a cached one builds ``sends`` and
    ``initial`` on first read.
    """

    sends: list[Send]
    initial: dict[int, set[Chunk]]
    schedule: Schedule
    lowering: LoweredSchedule = field(repr=False, compare=False)

    _builders = {"sends": _moved_sends, "initial": _moved_initial}

    @classmethod
    def of(
        cls,
        cube: Hypercube,
        sends: list[Send],
        initial: dict[int, set[Chunk]],
        chunk_sizes: dict[Chunk, int],
        release: float = 0.0,
    ) -> "SendRound":
        """``sends`` sorted by key and lowered from ``initial``, every
        chunk released at ``release``."""
        sends = sorted(sends, key=lambda send: send[1].key)
        schedule = Schedule(
            rounds=[tuple(Transfer(node, s.dst, s.chunks) for node, s in sends)],
            chunk_sizes=chunk_sizes,
        )
        lowering = lower_schedule(
            cube, schedule, initial,
            release_times=dict.fromkeys(chunk_sizes, release),
        )
        return cls(sends, initial, schedule, lowering)

    def translated(self, cube: Hypercube, by: int) -> "SendRound":
        """This round relabelled by XOR with ``by``: the schedule and
        lowering at once (:meth:`Schedule.translated`,
        :meth:`LoweredSchedule.translated`, which keep the delivery
        verdict), the sends and initial holdings on first read."""
        return SendRound.on_read(
            (self, by),
            schedule=self.schedule.translated(cube, by),
            lowering=(
                self.lowering.translated(cube, by).read_only()
                if by else self.lowering
            ),
        )


class _Source0(NamedTuple):
    """A ``runtime.cluster_programs`` entry: a broadcast's source-0
    programs, chunk sizes and first round."""

    programs: dict[int, NodeProgram]
    chunk_sizes: dict[Chunk, int]
    first: SendRound


def _translated_programs(program: "ClusterProgram") -> dict[int, NodeProgram]:
    base, by = program._on_read.programs, program.source
    if not by:
        return dict(base)
    return {
        v: NodeProgram(
            node=v,
            sends=tuple(
                PlannedSend(s.key, s.dst ^ by, s.chunks) for s in p.sends
            ),
            initial=p.initial,
            expected=p.expected,
        )
        for v in base
        for p in (base[v ^ by],)
    }


@dataclass
class ClusterProgram(OnRead):
    """The local programs of every node, plus shared parameters.

    ``chunk_sizes`` is itself locally derivable (every chunk id encodes
    its packet index, and sizes follow from ``(M, B)``); it is carried
    here so the engine prices transfers without re-deriving it.

    A broadcast served from the ``runtime.cluster_programs`` memo
    builds ``programs`` on first read (see "Translated broadcasts" in
    the module docstring).
    """

    programs: dict[int, NodeProgram]
    chunk_sizes: dict[Chunk, int]
    op: str
    algorithm: str
    source: int
    port_model: PortModel

    _builders = {"programs": _translated_programs}

    def total_sends(self) -> int:
        """Number of planned transmissions across the cluster."""
        return sum(len(p.sends) for p in self.programs.values())

    def first_round(self, cube: Hypercube) -> SendRound:
        """Every planned send as one round from the initial holdings.

        A served broadcast whose ``programs`` were never read takes it
        from its memo entry, lowering and delivery verdict included.
        Any other program (a scatter, one built by hand, or one whose
        ``programs`` were read and so may have been edited) derives and
        lowers it from its ``programs``.
        """
        if self._unbuilt("programs"):
            return self._on_read.first.translated(cube, self.source)
        return _first_round(cube, self.programs, self.chunk_sizes)


def _first_round(
    cube: Hypercube,
    programs: dict[int, NodeProgram],
    chunk_sizes: dict[Chunk, int],
) -> SendRound:
    """Every send of ``programs`` as one round from their initial sets."""
    return SendRound.of(
        cube,
        [(node, s) for node, p in programs.items() for s in p.sends],
        {node: set(p.initial) for node, p in programs.items()},
        chunk_sizes,
    )


def _bcast_sizes(message_elems: int, packet_elems: int) -> dict[Chunk, int]:
    n_packets = ceil(message_elems / packet_elems)
    return {
        (BCAST, p): min(packet_elems, message_elems - p * packet_elems)
        for p in range(n_packets)
    }


def _scatter_pieces(
    cube: Hypercube, source: int, message_elems: int, packet_elems: int,
) -> tuple[dict[Chunk, int], dict[int, list[Chunk]]]:
    """A scatter's chunk sizes, every destination's in node order, and
    each destination's pieces ``("m", dest, p)`` in piece order."""
    piece_sizes = [
        min(packet_elems, message_elems - p * packet_elems)
        for p in range(ceil(message_elems / packet_elems))
    ]
    sizes: dict[Chunk, int] = {}
    pieces: dict[int, list[Chunk]] = {}
    for d in cube.nodes():
        if d != source:
            mine = [(MSG, d, p) for p in range(len(piece_sizes))]
            pieces[d] = mine
            sizes.update(zip(mine, piece_sizes))
    return sizes, pieces


#: source-0 broadcasts (:class:`_Source0`), keyed by
#: ``(cube token, algorithm, M, B, port model, order)``
_BROADCASTS = LRUCache("runtime.cluster_programs", maxsize=32)


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

    Broadcast programs are derived once at source 0 and translated to
    ``source`` on first read (see "Translated broadcasts" in the module
    docstring); scatter programs are derived per call.  Every call
    returns a new :class:`ClusterProgram` with its own ``programs`` and
    ``chunk_sizes`` dicts, so callers may replace entries freely.

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
    if not isinstance(port_model, PortModel):
        raise ValueError(f"port_model must be a PortModel, got {port_model!r}")
    if order not in SBT_ORDERS:
        raise ValueError(f"unknown SBT order {order!r}; pick one of {SBT_ORDERS}")
    check_subtree_order(subtree_order)
    if op == "broadcast":
        if algorithm not in RUNTIME_BROADCAST_ALGORITHMS:
            raise ValueError(
                f"runtime broadcast supports {RUNTIME_BROADCAST_ALGORITHMS}, "
                f"got {algorithm!r}"
            )
        return _broadcast(
            cube, algorithm, source, message_elems, packet_elems,
            port_model, order,
        )
    if op == "scatter":
        if algorithm == "sbt":
            if port_model is PortModel.ALL_PORT:
                programs, sizes = _wave_scatter(
                    cube, source, message_elems, packet_elems, family="sbt"
                )
            else:
                programs, sizes = _sbt_scatter_halving(
                    cube, source, message_elems, packet_elems
                )
        elif algorithm == "bst":
            if port_model is PortModel.ALL_PORT:
                programs, sizes = _wave_scatter(
                    cube, source, message_elems, packet_elems, family="bst"
                )
            else:
                programs, sizes = _bst_scatter_cyclic(
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


def _broadcast(
    cube: Hypercube,
    algorithm: str,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
    order: str,
) -> ClusterProgram:
    """A broadcast's program from ``source``, served from its cached
    source-0 entry: its first round translated at once, its programs on
    first read.

    An entry takes the delivery verdict of its first round's lowering
    (``n_fillable``, ``delivers``) from one ``check_delivery`` over the
    holdings of its fillable slots when it is filled, as
    :func:`~repro.collectives.api.collective_program` does."""
    if algorithm == "msbt":
        order = "port"  # one transmission order; share one entry
    key = (
        cube.cache_token(), algorithm, message_elems, packet_elems,
        port_model, order,
    )
    entry = _BROADCASTS.get(key)
    if entry is MISSING:
        # imported here: repro.collectives.api imports repro.runtime
        from repro.collectives.api import check_delivery

        if algorithm == "sbt":
            base = _sbt_broadcast(
                cube, 0, message_elems, packet_elems, port_model, order
            )
        else:
            base = _msbt_broadcast(
                cube, 0, message_elems, packet_elems, port_model
            )
        sizes = _bcast_sizes(message_elems, packet_elems)
        first = _first_round(cube, base, sizes)
        first.lowering.judge_delivery(
            cube.nodes(),
            lambda held: check_delivery(
                cube, "broadcast", 0, first.schedule, held
            ),
        )
        first.lowering.read_only()
        entry = _Source0(base, sizes, first)
        _BROADCASTS.put(key, entry)
    return ClusterProgram.on_read(
        entry,
        chunk_sizes=dict(entry.chunk_sizes),
        op="broadcast",
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
    ``(l + p, c, port)`` — senders in relative-address order, children
    in ascending-dimension (port) order, the natural SBT child order.
    """
    sizes = _bcast_sizes(message_elems, packet_elems)
    # one payload set per packet, shared by every send of that packet
    payloads = [frozenset({chunk}) for chunk in sizes]
    n_packets = len(payloads)
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
                        PlannedSend((level + p, c, port), child, payloads[p])
                    )
        else:
            for t in range(n):
                if c >= (1 << t):
                    continue  # not yet a holder in step t
                dst = i ^ (1 << t)
                for p in range(n_packets):
                    key = (t, p, c) if order == "port" else (p, t, c)
                    sends.append(PlannedSend(key, dst, payloads[p]))
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
    key ``(round, p, child ^ source)`` — receivers in relative-address
    order within a round and packet.  Under one-send-*or*-receive the same
    local plan is run and the engine's port model serializes it (the
    §3.3.2 two-cycle transformation realized greedily, as in the
    central generator).

    All-port: the trees are edge-disjoint, so each pipelines
    independently — batch ``q`` runs one round behind batch ``q - 1``
    and packet ``p`` crosses the edge into ``child`` in round
    ``level_j(child) - 1 + q``.
    """
    sizes = _bcast_sizes(message_elems, packet_elems)
    # one payload set per packet, shared by every send of that packet
    payloads = [frozenset({chunk}) for chunk in sizes]
    n_packets = len(payloads)
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
                        PlannedSend((r, p, child ^ source), child, payloads[p])
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
) -> tuple[dict[int, NodeProgram], dict[Chunk, int]]:
    """§4.2.1 one-port: recursive halving along the SBT.

    In step ``t`` a holder with relative address ``c < 2**t`` bundles,
    across dimension ``t``, the messages of every destination whose low
    ``t+1`` relative bits equal ``c | 2**t`` — descending relative
    order, first-fit packed into packets of at most ``B`` elements.
    Key ``(t, micro, c)``: micro-packets of a step interleave across
    senders exactly like the central generator's micro-rounds.

    Returns the programs and the chunk sizes.
    """
    n = cube.dimension
    top = cube.num_nodes - 1
    sizes, pieces_of = _scatter_pieces(cube, source, message_elems, packet_elems)

    programs: dict[int, NodeProgram] = {}
    for i in cube.nodes():
        c = i ^ source
        sends: list[PlannedSend] = []
        for t in range(n):
            if c >= (1 << t):
                continue
            suffix = c | (1 << t)
            stride = 1 << (t + 1)
            # the relative addresses ending in `suffix`, descending
            pieces: list[Chunk] = []
            for rel in range(top - (top - suffix) % stride, 0, -stride):
                pieces.extend(pieces_of[source ^ rel])
            dst = i ^ (1 << t)
            for m, group in enumerate(greedy_partition(pieces, sizes, packet_elems)):
                sends.append(PlannedSend((t, m, c), dst, frozenset(group)))
        sends.sort(key=lambda s: s.key)
        programs[i] = NodeProgram(
            node=i,
            sends=tuple(sends),
            initial=frozenset(sizes) if i == source else frozenset(),
            expected=frozenset() if i == source else frozenset(pieces_of[i]),
        )
    return programs, sizes


def _wave_scatter(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
    family: str,
) -> tuple[dict[int, NodeProgram], dict[Chunk, int]]:
    """Lemma 4.2 all-port scatter over the SBT or BST.

    The message for a destination at tree level ``l`` departs in step
    ``height - l`` and advances one hop per step; every node on the
    path bundles the pieces sharing its outgoing (edge, step) pair and
    first-fit splits bundles beyond ``B``.  Key
    ``(step, micro, node, child)``.

    Each node derives the paths crossing it from the pure parent
    functions alone; the paths are computed once here, each node's from
    its parent's, as shared common knowledge.  The pieces are ranked
    once by ``(-size, repr)`` and appended in that order to the bundles
    along their paths, so every bundle is already in split order.

    Returns the programs and the chunk sizes.
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

    # root-to-node paths, each from its parent's: one parent per node
    known: dict[int, list[int]] = {source: [source]}
    paths: dict[int, list[int]] = {}
    for d in cube.nodes():
        if d == source:
            continue
        chain = []
        v = d
        while v not in known:
            chain.append(v)
            p = parent_of(v)
            assert p is not None
            v = p
        for u in reversed(chain):
            known[u] = known[v] + [u]
            v = u
        paths[d] = known[d]
    height = max(len(p) - 1 for p in paths.values())
    sizes, pieces_of = _scatter_pieces(cube, source, message_elems, packet_elems)

    # (step, u, v) -> pieces crossing that edge in that step, in rank order
    bundles: dict[tuple[int, int, int], list[Chunk]] = {}
    hops: dict[int, list[list[Chunk]]] = {}
    for d, path in paths.items():
        depart = height - len(path) + 1
        hops[d] = [
            bundles.setdefault((depart + h, path[h], path[h + 1]), [])
            for h in range(len(path) - 1)
        ]
    for ch in sorted(sizes, key=lambda ch: (-sizes[ch], repr(ch))):
        for bundle in hops[ch[1]]:
            bundle.append(ch)

    sends_by_node: dict[int, list[PlannedSend]] = {i: [] for i in cube.nodes()}
    for (step, u, v), chunks in bundles.items():
        for m, group in enumerate(greedy_partition(chunks, sizes, packet_elems)):
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
            expected=frozenset() if i == source else frozenset(pieces_of[i]),
        )
    return programs, sizes


def _bst_scatter_cyclic(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
    subtree_order: str,
) -> tuple[dict[int, NodeProgram], dict[Chunk, int]]:
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

    Returns the programs and the chunk sizes.
    """
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

    sizes, pieces_of = _scatter_pieces(cube, source, message_elems, packet_elems)

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
            pieces.extend(pieces_of[d])
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
            expected=frozenset() if i == source else frozenset(pieces_of[i]),
        )
    return programs, sizes
