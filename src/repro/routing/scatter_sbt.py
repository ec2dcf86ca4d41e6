"""SBT-based personalized communication (§4.2.1 and §5.2).

* **one port at a time** — recursive halving: in step ``t`` every node
  already holding data sends, across dimension ``n-1-t``, the
  cumulative messages for the opposite half of its remaining subcube
  (the largest subtree first, as the paper prescribes).  Within a
  bundle, destinations are processed in descending relative-address
  order, which makes the root's port usage follow the binary-reflected
  Gray-code transition sequence (§5.2).  Bundles larger than ``B`` go
  out as consecutive packets.  With ``B >= NM/2`` this meets
  ``T = (N-1) M t_c + log N * tau`` (Table 6).

* **all ports** — the level-by-level order of lemma 4.2, meeting
  ``T = N/2 * M t_c + log N * tau``.
"""

from __future__ import annotations

from repro.routing.common import scatter_chunks
from repro.routing.scatter_common import pieces_by_dest, wave_scatter_schedule
from repro.routing.scheduler import greedy_partition
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule, Transfer
from repro.topology.hypercube import Hypercube
from repro.trees.sbt import SpanningBinomialTree

__all__ = ["sbt_scatter_schedule"]


def sbt_scatter_schedule(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
) -> Schedule:
    """Scatter ``message_elems`` per destination from ``source`` via the SBT.

    Args:
        cube: host cube.
        source: the distributing node (holds ``(N-1) * M`` elements).
        message_elems: per-destination message size ``M``.
        packet_elems: maximum packet size ``B``.
        port_model: port model the schedule must respect.
    """
    cube.check_node(source)
    if port_model is PortModel.ALL_PORT:
        tree = SpanningBinomialTree(cube, source)
        return wave_scatter_schedule(
            tree, message_elems, packet_elems, algorithm="sbt-scatter"
        )
    return _recursive_halving(cube, source, message_elems, packet_elems, port_model)


def _recursive_halving(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
) -> Schedule:
    n = cube.dimension
    dests = [d for d in cube.nodes() if d != source]
    sizes = scatter_chunks(dests, message_elems, packet_elems)
    by_dest = pieces_by_dest(sizes)

    # Recursive halving along the SBT: in step t, every node whose
    # relative address fits in the low t bits sends across dimension t
    # the cumulative messages for all destinations sharing its low-bit
    # suffix and having bit t set.  Step 0 moves half of everything to
    # the root of the largest subtree (port 0), as §4.2.1 prescribes;
    # each hop is an SBT edge, and every message follows its SBT path
    # (set bits corrected in ascending order).  Within a bundle,
    # destinations go in descending relative order (§5.2).
    rounds: list[tuple[Transfer, ...]] = []
    for t in range(n):
        per_sender_packets: list[list[Transfer]] = []
        for c in range(1 << t):
            # relative addresses whose low t+1 bits are c | 2^t, descending
            step = 1 << (t + 1)
            pieces = []
            for rel in range(cube.num_nodes - step + (c | (1 << t)), 0, -step):
                pieces.extend(by_dest[source ^ rel])
            if not pieces:
                continue
            groups = greedy_partition(pieces, sizes, packet_elems)
            src = source ^ c
            dst = src ^ (1 << t)
            per_sender_packets.append(
                [Transfer(src, dst, frozenset(g)) for g in groups]
            )
        micro = max(len(pkts) for pkts in per_sender_packets)
        for m in range(micro):
            rounds.append(
                tuple(pkts[m] for pkts in per_sender_packets if m < len(pkts))
            )

    return Schedule(
        rounds=rounds,
        chunk_sizes=sizes,
        algorithm="sbt-scatter",
        meta={
            "port_model": port_model.value,
            "source": source,
            "message_elems": message_elems,
            "packet_elems": packet_elems,
        },
    )
