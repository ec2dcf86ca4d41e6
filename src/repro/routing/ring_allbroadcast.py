"""All-to-all broadcast on k-ary n-cube tori (Jung & Sakho).

The torus factors into ``n`` families of disjoint ``k``-node rings.
The all-to-all broadcast runs one *phase per dimension*: entering phase
``i`` every node holds the contributions of its entire sub-torus over
dimensions ``< i`` (``k**i`` chunks), and the phase circulates those
accumulated super-chunks around the dimension-``i`` rings so that every
ring member ends the phase holding the union.  After ``n`` phases every
node holds all ``N = k**n`` contributions.

Round structure per port model (Träff's one-port/all-port axis):

* **all-port** — bidirectional circulation: ``ceil((k-1)/2)`` forward
  steps overlap ``floor((k-1)/2)`` backward steps on the opposite port,
  so a phase takes ``ceil((k-1)/2)`` rounds.
* **one-port full-duplex** — unidirectional circulation: ``k - 1``
  steps, each a directed ring cycle in which every node sends and
  receives exactly one super-chunk.
* **one-port half-duplex** — the directed cycle cannot run in one round
  (every node would both send and receive); each step splits into
  alternating arc matchings: 2 rounds for even ``k``, 3 for odd ``k``
  (a directed odd cycle needs three matchings).

For ``k = 2`` every ring is a single exchange and the schedule
coincides with the hypercube's dimension-exchange allgather.  Chunk
``("g", origin)`` is node ``origin``'s contribution, matching
:mod:`repro.routing.alltoall`.
"""

from __future__ import annotations

from repro.routing.alltoall import GATHER_TAG, allgather_schedule
from repro.routing.common import validate_message_args
from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.topology.base import Topology
from repro.topology.hypercube import Hypercube
from repro.topology.torus import Torus

__all__ = [
    "torus_all_broadcast_schedule",
    "all_broadcast_schedule",
    "all_broadcast_initial_holdings",
]


def torus_all_broadcast_schedule(
    cube: Torus,
    message_elems: int,
    port_model: PortModel,
) -> Schedule:
    """All-to-all broadcast by per-dimension ring circulation.

    Every node contributes ``message_elems`` and ends holding all ``N``
    contributions (chunk ``("g", origin)``).
    """
    validate_message_args(message_elems)
    n, k = cube.dimension, cube.arity
    sizes: dict[Chunk, int] = {(GATHER_TAG, v): message_elems for v in cube.nodes()}
    held: dict[int, frozenset[Chunk]] = {
        v: frozenset({(GATHER_TAG, v)}) for v in cube.nodes()
    }
    rounds: list[tuple[Transfer, ...]] = []

    def ring_digit(v: int, dim: int) -> int:
        return (v // k**dim) % k

    for dim in range(n):
        succ = {v: cube.ring_step(v, dim, +1) for v in cube.nodes()}
        pred = {v: cube.ring_step(v, dim, -1) for v in cube.nodes()}
        if port_model is PortModel.ALL_PORT:
            fwd = {v: held[v] for v in cube.nodes()}
            bwd = {v: held[v] for v in cube.nodes()}
            n_fwd = (k - 1) - (k - 1) // 2
            n_bwd = (k - 1) // 2
            for step in range(1, max(n_fwd, n_bwd) + 1):
                batch: list[Transfer] = []
                if step <= n_fwd:
                    batch.extend(Transfer(v, succ[v], fwd[v]) for v in cube.nodes())
                if step <= n_bwd:
                    batch.extend(Transfer(v, pred[v], bwd[v]) for v in cube.nodes())
                rounds.append(tuple(batch))
                if step <= n_fwd:
                    for v in cube.nodes():
                        held[succ[v]] = held[succ[v]] | fwd[v]
                    fwd = {succ[v]: fwd[v] for v in cube.nodes()}
                if step <= n_bwd:
                    for v in cube.nodes():
                        held[pred[v]] = held[pred[v]] | bwd[v]
                    bwd = {pred[v]: bwd[v] for v in cube.nodes()}
        else:
            carry = {v: held[v] for v in cube.nodes()}
            for _step in range(1, k):
                batch = [Transfer(v, succ[v], carry[v]) for v in cube.nodes()]
                if port_model.half_duplex and k > 1:
                    # Split the directed ring cycle into arc matchings so
                    # no node both sends and receives within a round.
                    groups = 2 if k % 2 == 0 else 3
                    for g in range(groups):
                        part = tuple(
                            t
                            for t in batch
                            if _arc_group(ring_digit(t.src, dim), k) == g
                        )
                        if part:
                            rounds.append(part)
                else:
                    rounds.append(tuple(batch))
                for v in cube.nodes():
                    held[succ[v]] = held[succ[v]] | carry[v]
                carry = {succ[v]: carry[v] for v in cube.nodes()}
    return Schedule(
        rounds=rounds,
        chunk_sizes=sizes,
        algorithm="ring",
        meta={"port_model": port_model.value, "message_elems": message_elems},
    )


def _arc_group(digit: int, k: int) -> int:
    """Matching index of the ring arc leaving position ``digit``."""
    if k % 2 == 0:
        return digit % 2
    return digit % 2 if digit < k - 1 else 2


def all_broadcast_schedule(
    cube: Topology,
    message_elems: int,
    port_model: PortModel,
) -> Schedule:
    """Topology dispatch: dimension-exchange on cubes, ring circulation on tori."""
    if isinstance(cube, Hypercube):
        return allgather_schedule(cube, message_elems, port_model)
    if isinstance(cube, Torus):
        return torus_all_broadcast_schedule(cube, message_elems, port_model)
    raise TypeError(f"no all-broadcast construction for {type(cube).__name__}")


def all_broadcast_initial_holdings(cube: Topology) -> dict[int, set[Chunk]]:
    """Initial holdings: every node holds its own contribution."""
    return {v: {(GATHER_TAG, v)} for v in cube.nodes()}
