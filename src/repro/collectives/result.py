"""Result object returned by the high-level collective API."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.sim.faults import DegradedResult, FaultPlan
from repro.sim.result import AsyncResult
from repro.sim.schedule import Schedule
from repro.sim.synchronous import SyncResult
from repro.sim.trace import LinkStats

__all__ = ["AllreduceResult", "CollectiveResult"]


@dataclass
class CollectiveResult:
    """Outcome of one simulated collective operation.

    Attributes:
        schedule: the generated routing schedule.
        sync: synchronous (lock-step) execution result — cycle counts
            and validation.
        async_: asynchronous (event-driven) execution result — wall
            clock under the machine model, or ``None`` when the caller
            skipped the event simulation.
        faults: the fault plan the collective routed around and ran
            under, or ``None`` for a fault-free run.
        undelivered_nodes: nodes the collective could not serve at all
            (dead, or cut off from the source by the faults); empty
            unless the fault set exceeds the ``log N - 1`` tolerance
            bound and ``on_fault="report"`` was requested.
        metrics: per-run observability snapshot — phase timings,
            canonical packet/element/link counts derived from the
            executed backend, and the registry counter deltas the run
            caused (see :class:`repro.obs.RunCollector`).  Empty when
            the metrics registry is disabled.
    """

    schedule: Schedule
    sync: SyncResult | DegradedResult
    async_: AsyncResult | DegradedResult | None = None
    faults: FaultPlan | None = None
    undelivered_nodes: frozenset[int] = field(default_factory=frozenset)
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """True when some node missed data (faults beat the schedule)."""
        return bool(self.undelivered_nodes) or isinstance(
            self.sync, DegradedResult
        )

    @property
    def cycles(self) -> int:
        """Routing steps used (the paper's cycle count)."""
        return self.sync.cycles

    @property
    def time(self) -> float:
        """Simulated completion time.

        The event-driven time when available (it models start-up
        overlap and hardware packetization), else the lock-step time.
        """
        return self.async_.time if self.async_ is not None else self.sync.time

    @property
    def link_stats(self) -> LinkStats:
        """Per-edge traffic of the run."""
        return self.sync.link_stats

    @property
    def algorithm(self) -> str:
        """Generator label of the schedule."""
        return self.schedule.algorithm

    def __repr__(self) -> str:
        return (
            f"CollectiveResult({self.algorithm!r}, cycles={self.cycles}, "
            f"time={self.time:.6g})"
        )


@dataclass
class AllreduceResult:
    """Outcome of the two-phase allreduce composition.

    The paper's trees make allreduce a *reverse broadcast* (the SBT
    reduce) followed by a broadcast of the combined operand from the
    same root; this object packages both phase results with the summed
    cost view and one uniform ``metrics`` dict, so allreduce reports
    exactly like the single-schedule collectives.

    Iterating or indexing yields ``(reduce, broadcast)`` — the tuple
    shape :func:`repro.collectives.allreduce` historically returned —
    so ``phase1, phase2 = allreduce(...)`` keeps working.
    """

    reduce: CollectiveResult
    broadcast: CollectiveResult
    metrics: dict[str, Any] = field(default_factory=dict)

    def __iter__(self):
        return iter((self.reduce, self.broadcast))

    def __getitem__(self, index):
        return (self.reduce, self.broadcast)[index]

    def __len__(self) -> int:
        return 2

    @property
    def phases(self) -> tuple[CollectiveResult, CollectiveResult]:
        """The two phase results, in execution order."""
        return (self.reduce, self.broadcast)

    @property
    def cycles(self) -> int:
        """Routing steps of both phases, summed (phases are serial)."""
        return self.reduce.cycles + self.broadcast.cycles

    @property
    def time(self) -> float:
        """Simulated completion time: the phases run back to back."""
        return self.reduce.time + self.broadcast.time

    @property
    def degraded(self) -> bool:
        """True when either phase missed data."""
        return self.reduce.degraded or self.broadcast.degraded

    @property
    def undelivered_nodes(self) -> frozenset[int]:
        """Nodes either phase could not serve."""
        return self.reduce.undelivered_nodes | self.broadcast.undelivered_nodes

    @property
    def link_stats(self) -> LinkStats:
        """Combined per-edge traffic of both phases."""
        return LinkStats.merged(
            [self.reduce.link_stats, self.broadcast.link_stats]
        )

    @property
    def algorithm(self) -> str:
        """Composition label."""
        return (
            f"{self.reduce.algorithm}+{self.broadcast.algorithm}"
        )

    # -- RunCollector compatibility ------------------------------------
    # finalize() reads ``result.async_``/``result.sync`` to find the
    # executed result's link stats; the composite exposes itself as the
    # executed view so the collector sees the merged traffic.

    @property
    def async_(self) -> None:
        return None

    @property
    def sync(self) -> "AllreduceResult":
        return self

    def __repr__(self) -> str:
        return (
            f"AllreduceResult({self.algorithm!r}, cycles={self.cycles}, "
            f"time={self.time:.6g})"
        )
