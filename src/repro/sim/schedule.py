"""The routing-schedule data model shared by the generators and engines.

A :class:`Schedule` is a list of *rounds* (the paper's routing steps or
cycles); each round is a tuple of :class:`Transfer` objects that are
intended to happen concurrently.  Payloads are symbolic: a transfer
carries a frozenset of *chunk identifiers*, and the schedule maps each
chunk to its size in elements.  This lets the engines verify actual
data delivery (who holds what, when) rather than merely counting
messages.

Chunk identifiers are opaque hashables.  Conventions used by the
generators in :mod:`repro.routing`:

* broadcast:  ``("b", p)`` — packet ``p`` of the broadcast message;
* scatter:    ``("m", dest, p)`` — packet ``p`` of the message
  personalized for node ``dest``;
* all-to-all: ``("m", src, dest, p)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from repro.sim.onread import OnRead

if TYPE_CHECKING:
    from repro.topology.base import Topology

__all__ = ["Transfer", "Schedule", "Chunk", "merge_schedules"]

Chunk = Hashable


@dataclass(frozen=True)
class Transfer:
    """One packet moving over one directed cube edge.

    Large schedules materialize one instance per packet (an n=14 MSBT
    broadcast is close to a million), hence ``__slots__``.

    Attributes:
        src: sending node.
        dst: receiving node (must be a cube neighbour of ``src``).
        chunks: the chunk ids carried (the engines verify ``src`` holds
            them all when the transfer starts).
    """

    __slots__ = ("src", "dst", "chunks")

    src: int
    dst: int
    chunks: frozenset[Chunk]

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-transfer at node {self.src}")
        if not isinstance(self.chunks, frozenset):
            object.__setattr__(self, "chunks", frozenset(self.chunks))

    # frozen + manual __slots__ needs explicit pickle support (the
    # default slot-state restore goes through the frozen __setattr__)
    def __getstate__(self):
        return (self.src, self.dst, self.chunks)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"Transfer({self.src}->{self.dst}, {len(self.chunks)} chunks)"


def _translated_rounds(sched: "Schedule") -> list[tuple[Transfer, ...]]:
    """The rounds of a :meth:`Schedule.translated` schedule."""
    perm, rounds = sched._on_read
    return [
        tuple(Transfer(perm[t.src], perm[t.dst], t.chunks) for t in r)
        for r in rounds
    ]


@dataclass
class Schedule(OnRead):
    """A complete routing schedule for one collective operation.

    Attributes:
        rounds: transfers grouped by routing step.
        chunk_sizes: elements per chunk id.
        algorithm: generator label, e.g. ``"sbt-broadcast"``.
        meta: free-form extra information from the generator (packet
            size used, port model targeted, ...).
    """

    rounds: list[tuple[Transfer, ...]]
    chunk_sizes: dict[Chunk, int]
    algorithm: str = ""
    meta: dict = field(default_factory=dict)

    _builders = {"rounds": _translated_rounds}

    @property
    def num_rounds(self) -> int:
        """Number of routing steps (the paper's cycle count)."""
        return len(self.rounds)

    @property
    def num_transfers(self) -> int:
        """Total packets sent."""
        return sum(len(r) for r in self.rounds)

    def transfer_elems(self, t: Transfer) -> int:
        """Size of one transfer in elements."""
        return sum(self.chunk_sizes[c] for c in t.chunks)

    def total_elems_moved(self) -> int:
        """Sum of transfer sizes over the whole schedule (link-time proxy)."""
        return sum(self.transfer_elems(t) for r in self.rounds for t in r)

    def max_transfer_elems(self) -> int:
        """Largest single packet in the schedule."""
        return max(
            (self.transfer_elems(t) for r in self.rounds for t in r),
            default=0,
        )

    def all_transfers(self) -> list[Transfer]:
        """All transfers in round order (the engines' program order)."""
        return [t for r in self.rounds for t in r]

    def compact(self) -> "Schedule":
        """Drop empty rounds (generators may emit them for alignment)."""
        return Schedule(
            rounds=[r for r in self.rounds if r],
            chunk_sizes=self.chunk_sizes,
            algorithm=self.algorithm,
            meta=dict(self.meta),
        )

    def reversed(self) -> "Schedule":
        """The time- and direction-reversed schedule.

        Running a broadcast schedule backwards yields the matching
        reduction/gather communication pattern: every transfer flips
        direction and the rounds play in reverse order.
        """
        return Schedule(
            rounds=[
                tuple(Transfer(t.dst, t.src, t.chunks) for t in r)
                for r in reversed(self.rounds)
            ],
            chunk_sizes=dict(self.chunk_sizes),
            algorithm=f"{self.algorithm}-reversed",
            meta=dict(self.meta),
        )

    def translated(self, cube: "Topology", by: int) -> "Schedule":
        """The schedule relabelled by the automorphism ``cube.translation(by)``.

        Every transfer's endpoints move through the translation (XOR
        with ``by`` on the hypercube); rounds, their order and the
        chunk ids stay as they are, so only schedules whose chunk ids
        name no node (broadcast packets) translate to the schedule of
        the moved source.  ``meta["source"]``, when present, is
        translated too.

        The rounds are built on first read: callers that only need the
        chunk sizes, or that run the translated lowering
        (:meth:`~repro.sim.lowering.LoweredSchedule.translated`), never
        pay for the ``Transfer`` objects.
        """
        perm = cube.translation(by)
        meta = dict(self.meta)
        if "source" in meta:
            meta["source"] = perm[meta["source"]]
        return Schedule.on_read(
            (perm, list(self.rounds)),
            chunk_sizes=dict(self.chunk_sizes),
            algorithm=self.algorithm,
            meta=meta,
        )

    def __repr__(self) -> str:
        return (
            f"Schedule({self.algorithm!r}, rounds={self.num_rounds}, "
            f"transfers={self.num_transfers})"
        )


def merge_schedules(
    schedules: list["Schedule"],
    tag_chunks: bool = True,
    algorithm: str = "merged",
) -> "Schedule":
    """Compose several schedules into one (rounds zipped side by side).

    The merged rounds simply concatenate the inputs' rounds index by
    index; the result usually violates a one-port model (two broadcasts
    share senders) and is meant to be re-packed with
    :func:`repro.routing.scheduler.reschedule` — this is how concurrent
    multi-source collectives are composed and costed.

    Args:
        schedules: the schedules to merge.
        tag_chunks: when True (default), chunk ids are namespaced by the
            schedule index (``(idx, chunk)``) so same-named chunks from
            different operations (e.g. two broadcasts both using
            ``("b", 0)``) do not alias.  Initial holdings must be
            namespaced the same way.
        algorithm: label of the merged schedule.
    """
    if not schedules:
        raise ValueError("need at least one schedule to merge")
    chunk_sizes: dict[Chunk, int] = {}
    depth = max(s.num_rounds for s in schedules)
    rounds: list[list[Transfer]] = [[] for _ in range(depth)]
    for idx, s in enumerate(schedules):
        def _tag(c: Chunk) -> Chunk:
            return (idx, c) if tag_chunks else c

        for c, size in s.chunk_sizes.items():
            key = _tag(c)
            if key in chunk_sizes and chunk_sizes[key] != size:
                raise ValueError(f"conflicting sizes for chunk {key!r}")
            chunk_sizes[key] = size
        for ri, r in enumerate(s.rounds):
            for t in r:
                rounds[ri].append(
                    Transfer(t.src, t.dst, frozenset(_tag(c) for c in t.chunks))
                )
    return Schedule(
        rounds=[tuple(r) for r in rounds],
        chunk_sizes=chunk_sizes,
        algorithm=algorithm,
        meta={"merged_from": [s.algorithm for s in schedules]},
    )
