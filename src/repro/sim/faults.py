"""Fault injection: dead links, dead nodes, and degraded-mode results.

§1 of the paper recalls that a Boolean cube has ``n = log N``
edge-disjoint paths between any node pair — exactly a fault-tolerance
guarantee: any ``n - 1`` link (or bypassed-node) failures leave every
pair connected, and the MSBT's ``n`` edge-disjoint spanning trees are
the collective-communication face of the same fact.  This module makes
failures a first-class simulation input so that guarantee can actually
be exercised:

* :class:`FaultPlan` — a declarative set of failed links and nodes,
  each optionally *time-activated* (healthy until ``at_time``, dead
  from then on);
* :class:`FaultError` — the structured exception both engines raise
  when a scheduled transfer would cross a dead channel, naming the
  edge, the time, and the pending chunks;
* :class:`DegradedResult` — the alternative outcome under
  ``on_fault="report"``: the run continues past failures, cancelled
  and starved transfers are recorded, and every undelivered
  ``(node, chunk)`` pair is named.  No scenario completes *silently*
  incomplete.

Timing semantics
----------------
A fault blocks a transfer when it is active at the instant the
transfer would *start*.  Transfers already in flight when a
time-activated fault triggers run to completion (store-and-forward
hardware does not lose a packet mid-wire in this model).  The
event-driven engines evaluate the activation against the transfer's
computed start time; the lock-step engine evaluates it against the
accumulated cost of the preceding rounds.  Immediate faults
(``at_time == 0.0``, the default) behave identically everywhere.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from dataclasses import dataclass, field

from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.sim.trace import LinkStats
from repro.topology.base import Topology, require_integer, topology_token

__all__ = [
    "FaultPlan",
    "FaultError",
    "FaultEvent",
    "DegradedResult",
    "TransferLog",
    "undelivered_map",
]


@dataclass(frozen=True)
class TransferLog:
    """Opt-in per-transfer execution provenance (event engines).

    Attributes:
        ids: executed transfer indices into the schedule's
            ``all_transfers()`` program order, in execution order.
        starts: matching start times, same execution order — unlike the
            results' ``start_times``, which are sorted ascending.

    The service layer (:mod:`repro.service`) uses this to split one
    merged multi-job run back into per-job completion times and link
    traffic; pair each id with its owning job via
    :attr:`repro.sim.multi.MergedProgram.owners`.
    """

    ids: list[int]
    starts: list[float]

#: ``on_fault`` modes accepted by the engines.
ON_FAULT_MODES = ("raise", "report")


def _check_mode(on_fault: str) -> str:
    if on_fault not in ON_FAULT_MODES:
        raise ValueError(
            f"on_fault must be one of {ON_FAULT_MODES}, got {on_fault!r}"
        )
    return on_fault


class FaultError(RuntimeError):
    """A transfer was scheduled over a failed link or node.

    Attributes:
        edge: the directed ``(src, dst)`` edge of the blocked transfer,
            when a transfer triggered the error.
        node: the dead endpoint responsible, for node faults.
        time: simulated time at which the transfer would have started.
        chunks: the chunk ids the blocked transfer was carrying.
        undelivered: nodes known to be unreachable/undelivered, when the
            error is raised by the routing layer for a disconnected
            surviving cube.
    """

    def __init__(
        self,
        message: str,
        *,
        edge: tuple[int, int] | None = None,
        node: int | None = None,
        time: float | None = None,
        chunks: frozenset[Chunk] = frozenset(),
        undelivered: tuple[int, ...] = (),
    ):
        super().__init__(message)
        self.edge = edge
        self.node = node
        self.time = time
        self.chunks = frozenset(chunks)
        self.undelivered = tuple(undelivered)


class FaultPlan:
    """A declarative set of link and node failures.

    Args:
        dead_links: failed links, each ``(a, b)`` (dead from time 0,
            direction-agnostic) or ``(a, b, at_time)`` (dead from
            ``at_time`` on).
        dead_nodes: failed nodes, each ``v`` (dead from time 0) or
            ``(v, at_time)``.

    A dead link blocks transfers in both directions; a dead node blocks
    every transfer it would send *or* receive.  The plan is immutable
    and hashable (via :meth:`cache_token`), so it can key caches.

    Addresses must be integers (``bool`` is rejected).  ``topology``
    optionally pins the plan to a host graph: the plan is checked
    against it (:meth:`check_topology`), and the topology identity
    becomes part of :meth:`cache_token`, so the same node/link
    addresses on a hypercube and on a torus of equal ``n`` can never
    share a cache entry (the addresses name different physical links).

    >>> plan = FaultPlan(dead_links=[(0, 1), (2, 6, 5.0)], dead_nodes=[3])
    >>> plan.blocks(1, 0, 0.0)
    ('link', (0, 1))
    >>> plan.blocks(2, 6, 1.0) is None   # not yet activated
    True
    """

    __slots__ = ("_links", "_nodes", "_topology")

    def __init__(
        self,
        dead_links: Iterable[tuple] = (),
        dead_nodes: Iterable[int | tuple] = (),
        topology: Topology | None = None,
    ):
        links: dict[tuple[int, int], float] = {}
        for item in dead_links:
            if len(item) == 2:
                a, b = item
                at = 0.0
            elif len(item) == 3:
                a, b, at = item
            else:
                raise ValueError(f"dead link must be (a, b) or (a, b, at_time), got {item!r}")
            a = require_integer(a, "dead link endpoint")
            b = require_integer(b, "dead link endpoint")
            if a == b:
                raise ValueError(f"a link needs two distinct endpoints, got {item!r}")
            if not at >= 0:  # NaN fails this too
                raise ValueError(f"activation time must be >= 0, got {item!r}")
            key = (min(a, b), max(a, b))
            prev = links.get(key)
            links[key] = float(at) if prev is None else min(prev, float(at))
        nodes: dict[int, float] = {}
        for item in dead_nodes:
            if isinstance(item, tuple):
                v, at = item
            else:
                v, at = item, 0.0
            v = require_integer(v, "dead node")
            if not at >= 0:  # NaN fails this too
                raise ValueError(f"activation time must be >= 0, got {item!r}")
            prev = nodes.get(v)
            nodes[v] = float(at) if prev is None else min(prev, float(at))
        self._links = links
        self._nodes = nodes
        if topology is None:
            self._topology: tuple | None = None
        else:
            self.check_topology(topology)
            self._topology = topology_token(topology)

    # -- structure ----------------------------------------------------------

    @property
    def dead_links(self) -> frozenset[tuple[int, int]]:
        """All failed links ``(min, max)``, regardless of activation time."""
        return frozenset(self._links)

    @property
    def dead_nodes(self) -> frozenset[int]:
        """All failed nodes, regardless of activation time."""
        return frozenset(self._nodes)

    @property
    def num_faults(self) -> int:
        """Total failure count (links + nodes)."""
        return len(self._links) + len(self._nodes)

    @property
    def is_immediate(self) -> bool:
        """True when every fault is active from time 0."""
        return all(t == 0.0 for t in self._links.values()) and all(
            t == 0.0 for t in self._nodes.values()
        )

    def link_activation(self, a: int, b: int) -> float | None:
        """Activation time of link ``(a, b)``, or ``None`` if healthy."""
        return self._links.get((min(a, b), max(a, b)))

    def node_activation(self, v: int) -> float | None:
        """Activation time of node ``v``, or ``None`` if healthy."""
        return self._nodes.get(v)

    def check_topology(self, topology: Topology) -> None:
        """Raise ``ValueError`` unless every dead node is a node of
        ``topology`` and every dead link one of its links."""
        for v in self._nodes:
            topology.check_node(v)
        for a, b in self._links:
            if not topology.are_adjacent(a, b):
                raise ValueError(f"dead link {(a, b)} is not a link of {topology!r}")

    # -- queries the engines use -------------------------------------------

    def blocks(
        self, src: int, dst: int, time: float = 0.0
    ) -> tuple[str, tuple[int, int] | int] | None:
        """Why a ``src -> dst`` transfer starting at ``time`` is blocked.

        Returns ``("node", v)`` or ``("link", (a, b))`` for the first
        active fault touching the transfer, or ``None`` when the
        transfer may proceed.
        """
        at = self._nodes.get(src)
        if at is not None and time >= at:
            return ("node", src)
        at = self._nodes.get(dst)
        if at is not None and time >= at:
            return ("node", dst)
        key = (min(src, dst), max(src, dst))
        at = self._links.get(key)
        if at is not None and time >= at:
            return ("link", key)
        return None

    def schedule_is_clean(self, schedule: Schedule) -> bool:
        """True when no transfer of ``schedule`` touches any fault,
        regardless of timing (a conservative static check)."""
        for t in schedule.all_transfers():
            if (
                t.src in self._nodes
                or t.dst in self._nodes
                or (min(t.src, t.dst), max(t.src, t.dst)) in self._links
            ):
                return False
        return True

    # -- identity -----------------------------------------------------------

    @property
    def topology_token(self) -> tuple | None:
        """Identity of the pinned host topology, or ``None`` if unpinned."""
        return self._topology

    def cache_token(self) -> tuple:
        """Hashable canonical identity, suitable as a cache-key component."""
        return (
            "faultplan",
            self._topology,
            tuple(sorted(self._links.items())),
            tuple(sorted(self._nodes.items())),
        )

    def __bool__(self) -> bool:
        return bool(self._links or self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.cache_token() == other.cache_token()

    def __hash__(self) -> int:
        return hash(self.cache_token())

    def __repr__(self) -> str:
        return (
            f"FaultPlan(links={sorted(self._links)}, "
            f"nodes={sorted(self._nodes)})"
        )


@dataclass(frozen=True)
class FaultEvent:
    """One transfer cancelled by an active fault (``on_fault="report"``).

    Attributes:
        transfer: the blocked transfer.
        time: simulated time at which it would have started.
        kind: ``"link"`` or ``"node"``.
        subject: the failed link ``(a, b)`` or the failed node.
    """

    __slots__ = ("transfer", "time", "kind", "subject")

    transfer: Transfer
    time: float
    kind: str
    subject: tuple[int, int] | int

    # frozen + manual __slots__ needs explicit pickle support (the
    # default slot-state restore goes through the frozen __setattr__)
    def __getstate__(self):
        return (self.transfer, self.time, self.kind, self.subject)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


@dataclass
class DegradedResult:
    """Outcome of a run that survived faults in ``report`` mode.

    Mirrors the shape of :class:`~repro.sim.result.AsyncResult` /
    :class:`~repro.sim.synchronous.SyncResult` (``time``, ``holdings``,
    ``link_stats``) and adds the damage report.

    Attributes:
        time: completion time of the transfers that did run.
        holdings: chunk ids held by every node at the end.
        link_stats: per-edge traffic of the executed transfers.
        fault_events: transfers cancelled directly by an active fault.
        undelivered: node -> chunks that were scheduled to reach it but
            never did (both direct cancellations and starvation
            cascades).  Empty when the degraded run still delivered
            everything.
        transfers_executed: transfers that ran.
        transfers_lost: transfers cancelled or starved.
        start_times: start times of executed transfers (event engines).
        cycles: non-empty rounds executed (lock-step engine).
        step_costs: per-round costs (lock-step engine).
        transfer_log: execution provenance when requested
            (``transfer_log=True`` on the vectorized engine).
    """

    time: float
    holdings: dict[int, set[Chunk]]
    link_stats: LinkStats
    fault_events: list[FaultEvent] = field(default_factory=list)
    undelivered: dict[int, frozenset[Chunk]] = field(default_factory=dict)
    transfers_executed: int = 0
    transfers_lost: int = 0
    start_times: list[float] | None = None
    cycles: int | None = None
    step_costs: list[float] | None = None
    transfer_log: TransferLog | None = None

    @property
    def complete(self) -> bool:
        """True when every scheduled delivery still happened."""
        return not self.undelivered

    @property
    def undelivered_nodes(self) -> tuple[int, ...]:
        """Nodes that missed at least one scheduled chunk, ascending."""
        return tuple(sorted(self.undelivered))

    def holds(self, node: int, chunk: Chunk) -> bool:
        """True when ``node`` ended the run holding ``chunk``."""
        return chunk in self.holdings.get(node, set())

    def __repr__(self) -> str:
        return (
            f"DegradedResult(time={self.time:.6g}, "
            f"lost={self.transfers_lost}, "
            f"undelivered_nodes={list(self.undelivered_nodes)})"
        )


def undelivered_map(
    lost_transfers: Collection[Transfer],
    holdings: dict[int, set[Chunk]],
) -> dict[int, frozenset[Chunk]]:
    """Deliveries the lost transfers owed that never happened anyway.

    A chunk a cancelled transfer was carrying may still reach its
    destination over another surviving path (merged schedules route
    redundantly), so only ``(dst, chunk)`` pairs absent from the final
    holdings count as undelivered.
    """
    missing: dict[int, set[Chunk]] = {}
    for t in lost_transfers:
        have = holdings.get(t.dst, set())
        gone = {c for c in t.chunks if c not in have}
        if gone:
            missing.setdefault(t.dst, set()).update(gone)
    return {v: frozenset(cs) for v, cs in sorted(missing.items())}
