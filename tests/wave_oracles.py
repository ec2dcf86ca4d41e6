"""Two-pass constructions of the lemma 4.2 all-port scatter, as test oracles.

The library derives the level-by-level scatter in one pass: it ranks
the pieces once and fills every (step, edge) bundle in that order.
These are the straightforward constructions it replaced, kept so the
one-pass derivations can be compared with them ``==``:

* :func:`two_pass_wave_schedule` — the central schedule: set bundles
  per (step, edge), then :func:`~repro.routing.scheduler.split_oversized`
  (which sorts each bundle by ``(-size, repr)``), then ``compact``.
* :func:`two_pass_wave_programs` — the runtime's node programs: the
  same set bundles, each sorted and first-fit split on its own, and the
  chunk sizes built by a separate loop over the destinations.
"""

from __future__ import annotations

from math import ceil

from repro.bits.ops import highest_set_bit
from repro.routing.common import MSG, scatter_chunks
from repro.routing.scatter_common import pieces_by_dest
from repro.routing.scheduler import greedy_partition, split_oversized
from repro.runtime.rules import NodeProgram, PlannedSend
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule, Transfer
from repro.trees.bst import bst_parent


def tree_path_from_root(tree, dest):
    """The node path ``root -> ... -> dest`` (inclusive), walked up the
    tree's parent map."""
    path = [dest]
    node = dest
    while node != tree.root:
        parent = tree.parents_map[node]
        assert parent is not None
        node = parent
        path.append(node)
    path.reverse()
    return path


def two_pass_wave_schedule(tree, message_elems, packet_elems, algorithm, dests=None):
    """The central wave scatter: set bundles, split, compact."""
    cube = tree.cube
    if dests is None:
        dests = tuple(d for d in cube.nodes() if d != tree.root)
    else:
        dests = tuple(sorted(set(dests) - {tree.root}))
    sizes = scatter_chunks(dests, message_elems, packet_elems)
    by_dest = pieces_by_dest(sizes)
    height = tree.height

    bundles = {}
    total_steps = 0
    for d in dests:
        path = tree_path_from_root(tree, d)
        l = len(path) - 1
        depart = height - l
        pieces = frozenset(by_dest[d])
        for h in range(l):
            step = depart + h
            bundles.setdefault((step, path[h], path[h + 1]), set()).update(pieces)
            total_steps = max(total_steps, step + 1)

    rounds = [[] for _ in range(total_steps)]
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


def _piece_sizes(dest, message_elems, packet_elems):
    per_dest = ceil(message_elems / packet_elems)
    return {
        (MSG, dest, p): min(packet_elems, message_elems - p * packet_elems)
        for p in range(per_dest)
    }


def two_pass_wave_programs(cube, source, message_elems, packet_elems, family):
    """The runtime wave scatter: ``(programs, chunk sizes)``."""
    n = cube.dimension

    if family == "sbt":
        def parent_of(v):
            c = v ^ source
            return None if c == 0 else v ^ (1 << highest_set_bit(c))
    else:
        def parent_of(v):
            return bst_parent(v, source, n)

    paths = {}
    for d in cube.nodes():
        if d == source:
            continue
        path = [d]
        while path[-1] != source:
            path.append(parent_of(path[-1]))
        paths[d] = path[::-1]
    height = max(len(p) - 1 for p in paths.values())

    sizes = {}
    for d in paths:
        sizes.update(_piece_sizes(d, message_elems, packet_elems))

    bundles = {}
    for d, path in paths.items():
        hops = len(path) - 1
        depart = height - hops
        pieces = frozenset(_piece_sizes(d, message_elems, packet_elems))
        for h in range(hops):
            bundles.setdefault((depart + h, path[h], path[h + 1]), set()).update(
                pieces
            )

    sends_by_node = {i: [] for i in cube.nodes()}
    for (step, u, v), chunks in bundles.items():
        ordered = sorted(chunks, key=lambda ch: (-sizes[ch], repr(ch)))
        for m, group in enumerate(greedy_partition(ordered, sizes, packet_elems)):
            sends_by_node[u].append(PlannedSend((step, m, u, v), v, frozenset(group)))

    programs = {}
    for i in cube.nodes():
        programs[i] = NodeProgram(
            node=i,
            sends=tuple(sorted(sends_by_node[i], key=lambda s: s.key)),
            initial=frozenset(sizes) if i == source else frozenset(),
            expected=(
                frozenset() if i == source
                else frozenset(_piece_sizes(i, message_elems, packet_elems))
            ),
        )

    chunk_sizes = {}
    for d in cube.nodes():
        if d != source:
            chunk_sizes.update(_piece_sizes(d, message_elems, packet_elems))
    return programs, chunk_sizes
