"""Job specifications and per-job results for the collective service.

A :class:`JobSpec` is what a tenant submits: which collective, from
which root, how big, with what priority, arriving when.  A
:class:`JobResult` is what the service hands back after the shared-cube
run: the job's own slice of the merged execution — admission instant,
first start, last delivery, link traffic, holdings — carved out of one
engine run via the transfer-provenance log
(:class:`repro.sim.faults.TransferLog` +
:attr:`repro.sim.multi.MergedProgram.owners`).

Latency vocabulary (all in simulated time):

* ``queueing_delay`` = admission − arrival (time spent waiting on
  admission control);
* ``service_time`` = finish − admission (time on the cube, including
  contention with other tenants);
* ``completion_time`` = finish − arrival (what the tenant experiences).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

from repro.collectives.api import SCHEDULE_OPS
from repro.routing.common import is_whole
from repro.routing.scatter_bst import check_subtree_order
from repro.sim.onread import OnRead
from repro.sim.schedule import Chunk
from repro.sim.trace import LinkStats
from repro.topology.base import require_integer

__all__ = ["JobSpec", "JobResult"]


@dataclass(frozen=True)
class JobSpec:
    """One tenant's collective job request.

    Attributes:
        tenant: tenant identity (accounting + fair-share bucket).
        op: collective kind — one of
            :data:`repro.collectives.api.SCHEDULE_OPS`.
        algorithm: algorithm within the op (default per op, see
            :data:`repro.collectives.api.DEFAULT_ALGORITHMS`).
        source: root node (rooted ops; ignored otherwise).
        message_elems: message size ``M`` (per destination for the
            personalized ops).
        packet_elems: maximum packet size ``B`` (default ``M``).
        priority: strict-priority rank (larger = more urgent; only the
            ``"priority"`` policy reads it).
        arrival: simulated instant the job enters the system.
        subtree_order: BST in-subtree transmission order (§5.2).
    """

    tenant: str
    op: str = "broadcast"
    algorithm: str | None = None
    source: int = 0
    message_elems: int = 1
    packet_elems: int | None = None
    priority: int = 0
    arrival: float = 0.0
    subtree_order: str = "depth_first"

    def __post_init__(self) -> None:
        if self.op not in SCHEDULE_OPS:
            raise ValueError(
                f"op must be one of {SCHEDULE_OPS}, got {self.op!r}"
            )
        if not (isfinite(self.arrival) and self.arrival >= 0):
            raise ValueError(
                f"arrival must be >= 0 and finite, got {self.arrival}"
            )
        if not is_whole(self.message_elems):
            raise ValueError(
                f"message_elems must be a whole number, got {self.message_elems!r}"
            )
        if self.message_elems < 1:
            raise ValueError(
                f"message_elems must be >= 1, got {self.message_elems}"
            )
        if self.packet_elems is not None and not (
            is_whole(self.packet_elems) and self.packet_elems >= 1
        ):
            raise ValueError(
                "packet_elems must be a whole number >= 1 or None, "
                f"got {self.packet_elems!r}"
            )
        check_subtree_order(self.subtree_order)
        # the priority feeds the strict-priority sort key
        require_integer(self.priority, "priority")


@dataclass
class JobResult(OnRead):
    """One job's slice of a shared-cube service run.

    Attributes:
        job_id: service-assigned id (submission order).
        spec: the submitted :class:`JobSpec`.
        accepted: False when admission control rejected the job
            outright (queue cap); every timing field is then ``nan``.
        reject_reason: why a rejected job was rejected.
        admit_time: instant the scheduler released the job onto the
            cube.
        start_time: first transfer start (>= ``admit_time``).
        finish_time: last delivery of the job's executed transfers.
        transfers: transfers executed for this job.
        elems: elements moved for this job.
        link_time: total busy link-time consumed (sum of per-transfer
            durations) — the fair-share policy's currency.
        link_stats: this job's own per-edge traffic.
        holdings: this job's final chunk placement, untagged (node ->
            chunks of *this* job only); an admitted job's is built on
            first read from the run's view
            (:meth:`~repro.service.exec.ExecutionView.job_holdings`).
        undelivered: node -> chunks the op should have delivered there
            but did not (non-empty only under faults).
        degraded: True when the job lost transfers or deliveries to a
            fault.
    """

    job_id: int
    spec: JobSpec
    accepted: bool = True
    reject_reason: str | None = None
    admit_time: float = float("nan")
    start_time: float = float("nan")
    finish_time: float = float("nan")
    transfers: int = 0
    elems: int = 0
    link_time: float = 0.0
    link_stats: LinkStats = field(default_factory=LinkStats)
    holdings: dict[int, set[Chunk]] = field(default_factory=dict)
    undelivered: dict[int, set[Chunk]] = field(default_factory=dict)
    degraded: bool = False

    _builders = {
        "holdings": lambda r: r._on_read[0].job_holdings(r._on_read[1])
    }

    @property
    def tenant(self) -> str:
        """The submitting tenant (shorthand for ``spec.tenant``)."""
        return self.spec.tenant

    @property
    def queueing_delay(self) -> float:
        """Simulated time spent waiting for admission."""
        return self.admit_time - self.spec.arrival

    @property
    def service_time(self) -> float:
        """Simulated time between admission and last delivery."""
        return self.finish_time - self.admit_time

    @property
    def completion_time(self) -> float:
        """Simulated time between arrival and last delivery."""
        return self.finish_time - self.spec.arrival

    @property
    def complete(self) -> bool:
        """True when every scheduled delivery of the job happened."""
        return self.accepted and not self.undelivered

    def __repr__(self) -> str:
        if not self.accepted:
            return (
                f"JobResult(#{self.job_id} {self.tenant}/{self.spec.op} "
                f"rejected: {self.reject_reason})"
            )
        return (
            f"JobResult(#{self.job_id} {self.tenant}/{self.spec.op} "
            f"arrival={self.spec.arrival:.6g} admit={self.admit_time:.6g} "
            f"finish={self.finish_time:.6g}"
            f"{' DEGRADED' if self.degraded else ''})"
        )
