"""SBT-based broadcasting (§3.3.1).

Two schedules:

* **one port at a time** (recursive doubling): in step ``t`` every node
  that already holds the message sends it across dimension ``n-1-t`` —
  to the root of the largest remaining subtree first.  ``ceil(M/B)``
  packets per step, ``log N`` steps, giving the paper's
  ``T = ceil(M/B) * log N * (tau + B t_c)``.  The same schedule is valid
  under both one-port models (each node does a single send *or* a
  single receive per round).

* **all ports concurrently** (pipelining): packets stream down the
  tree; a node at level ``l`` forwards packet ``p`` to all its children
  in round ``l + p``, giving ``ceil(M/B) + log N - 1`` rounds.
"""

from __future__ import annotations

from repro.bits.ops import popcount
from repro.routing.common import BCAST, broadcast_chunks
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule, Transfer
from repro.topology.hypercube import Hypercube
from repro.trees.sbt import sbt_children

__all__ = ["sbt_broadcast_schedule"]


#: one-port transmission orders (§2): port-oriented sends everything on
#: one port before touching the next; packet-oriented cycles the ports
#: per packet.
SBT_ORDERS = ("port", "packet")


def sbt_broadcast_schedule(
    cube: Hypercube,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
    order: str = "port",
) -> Schedule:
    """Broadcast ``message_elems`` from ``source`` over the SBT.

    Args:
        cube: host cube.
        source: broadcasting node.
        message_elems: total message size ``M`` in elements.
        packet_elems: maximum packet size ``B`` in elements.
        port_model: which port model the schedule must respect.
        order: one-port transmission order, ``"port"`` (the paper's
            port-oriented algorithm, §3.3.1) or ``"packet"``
            (packet-oriented, §2).  Both take ``ceil(M/B) * log N``
            lock-step cycles; they differ in how early the far subtrees
            start filling, which the event-driven engine can observe.

    Returns:
        A constraint-valid :class:`~repro.sim.schedule.Schedule`;
        ``meta["predicted_rounds"]`` holds the closed-form step count.
    """
    cube.check_node(source)
    if order not in SBT_ORDERS:
        raise ValueError(f"unknown SBT order {order!r}; pick one of {SBT_ORDERS}")
    sizes = broadcast_chunks(message_elems, packet_elems)
    n_packets = len(sizes)
    n = cube.dimension

    if port_model is PortModel.ALL_PORT:
        return _pipelined(cube, source, sizes, n_packets)

    # Recursive doubling along the SBT: in step t the holders (relative
    # addresses below 2**t) send across dimension t.  Step 0 goes to the
    # root of the largest subtree (port 0), as §3.3.1 prescribes, and
    # every (holder, partner) pair is an SBT edge: the partner's highest
    # relative bit is t, so its SBT parent is exactly the holder.
    def step_round(t: int, p: int) -> tuple[Transfer, ...]:
        return tuple(
            Transfer(source ^ c, source ^ c ^ (1 << t), frozenset({(BCAST, p)}))
            for c in range(1 << t)
        )

    if order == "port":
        pairs = [(t, p) for t in range(n) for p in range(n_packets)]
    else:
        pairs = [(t, p) for p in range(n_packets) for t in range(n)]
        # packet-oriented is only causal if packet p finishes dimension
        # t before packet p needs dimension t+1 — which holds because
        # each packet's own (t, p) pairs stay in ascending-t order.
    rounds = [step_round(t, p) for t, p in pairs]
    return Schedule(
        rounds=rounds,
        chunk_sizes=sizes,
        algorithm="sbt-broadcast",
        meta={
            "port_model": port_model.value,
            "source": source,
            "order": order,
            "predicted_rounds": n_packets * n,
        },
    )


def _pipelined(
    cube: Hypercube,
    source: int,
    sizes: dict,
    n_packets: int,
) -> Schedule:
    # Nodes and their children are walked by relative address
    # ``c = node ^ source`` (``sbt_children`` lists them by ascending
    # relative address), so the schedule from any source is the
    # source-0 schedule translated, round order included.
    n = cube.dimension
    total_rounds = n_packets + n - 1
    rounds: list[list[Transfer]] = [[] for _ in range(total_rounds)]
    for c in range(cube.num_nodes):
        node = source ^ c
        kids = sbt_children(node, source, n)
        if not kids:
            continue
        level = popcount(c)
        for p in range(n_packets):
            chunk = frozenset({(BCAST, p)})
            rounds[level + p].extend(Transfer(node, child, chunk) for child in kids)
    return Schedule(
        rounds=[tuple(r) for r in rounds],
        chunk_sizes=sizes,
        algorithm="sbt-broadcast",
        meta={
            "port_model": PortModel.ALL_PORT.value,
            "source": source,
            "predicted_rounds": total_rounds,
        },
    )
