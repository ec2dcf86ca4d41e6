"""Merged-program execution and per-job provenance accounting.

A service run or a workload step runs its jobs as one program on the
vectorized event engine, with release times baked into the lowering
and the transfer log on.  Through :class:`AdmissionRun`, jobs join one
resumable engine run (:class:`~repro.sim.vectorized.VectorizedRun`) at
their admission instants — all of them up front, when nothing the
engine computes can change an admission — and the run advances only
as far as the next event, never simulating an instant within ``_EPS``
of a pending admission.  A job joins with its lowering, which depends
only on its collective call, so the service and the workload layer
serve it from a cache
(:func:`~repro.collectives.api.collective_program`) instead of
lowering every job.  Each instant is simulated once, and the final
view equals :func:`execute_program` — the one-shot run of a
:class:`~repro.sim.multi.MergedProgram`, kept as the public API and as
the oracle — bit for bit.

Either way the run is split back into per-job views using the
provenance chain

    ``transfer_log.ids`` (executed, execution order)
    -> owners (transfer -> job position)
    -> per-job starts / ends / link traffic.

:func:`execute_program` reads the owners off the merged program;
:class:`AdmissionRun` takes them from the engine's own job column and
never merges: its view's program builds its ``owners`` list and its
chunk-tagged fields on first read (:mod:`repro.sim.onread`), and
:meth:`ExecutionView.job_holdings` builds one job's untagged holdings
from that job's held slots.

Transfer end times are reconstructed as ``start +
machine.send_cost(elems)`` — the exact float expression the engine
itself evaluates, so per-job finish times are bit-identical to what a
standalone run of the same schedule would report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from repro.sim.faults import DegradedResult, FaultPlan
from repro.sim.lowering import lower_schedule
from repro.sim.machine import MachineParams
from repro.sim.multi import JobEntry, MergedProgram, untag_holdings
from repro.sim.onread import OnRead
from repro.sim.ports import PortModel
from repro.sim.result import AsyncResult, holdings_from_slots
from repro.sim.schedule import Chunk
from repro.sim.trace import LinkStats
from repro.sim.vectorized import VectorizedRun, run_async_vectorized
from repro.topology.hypercube import DirectedEdge, Hypercube

__all__ = ["AdmissionRun", "JobSlice", "ExecutionView", "execute_program"]


def _edges(src: np.ndarray, dst: np.ndarray) -> list[DirectedEdge]:
    return list(map(DirectedEdge, src.tolist(), dst.tolist()))


def _link_busy(job: "JobSlice") -> dict[DirectedEdge, float]:
    """``link_busy`` of a slice made by :func:`_split`, from the
    ``(src, dst, busy)`` arrays of its used links."""
    src, dst, busy = job._on_read
    return dict(zip(_edges(src, dst), busy.tolist()))


@dataclass
class JobSlice(OnRead):
    """One job's share of a merged engine run.

    Attributes:
        position: the job's entry position in the merged program.
        scheduled: transfers the job's schedule contains.
        executed: transfers that actually ran (< ``scheduled`` only
            under faults).
        elems: elements moved.
        link_time: total busy link-time (sum of transfer durations).
        first_start: earliest transfer start (``nan`` if none ran).
        finish: latest transfer end (``nan`` if none ran).
        start_times: executed start times, sorted ascending — the
            same rendering a standalone run's ``start_times`` uses.
        link_stats: per-edge packet/element counters for this job
            (built on first read, see
            :meth:`~repro.sim.trace.LinkStats.from_links`).
        link_busy: per-edge busy time for this job (duration sums),
            built on first read.
    """

    position: int
    scheduled: int
    executed: int
    elems: int
    link_time: float
    first_start: float
    finish: float
    start_times: list[float]
    link_stats: LinkStats
    link_busy: dict[DirectedEdge, float]

    _builders = {"link_busy": _link_busy}


@dataclass
class ExecutionView:
    """A merged run plus its per-job decomposition.

    Attributes:
        program: the merged program that was executed.
        raw: the engine result (degraded under reported faults).
        slices: per-job accounting, indexed like ``program.entries``.
        ends: end time of every executed transfer, in transfer-log
            (execution) order.
        receivers: receiving node of every executed transfer, same
            order.
    """

    program: MergedProgram
    raw: "AsyncResult | DegradedResult"
    slices: list[JobSlice]
    ends: np.ndarray
    receivers: np.ndarray
    # (key_link, busy, link_src, link_dst): per (job, link) busy time,
    # keys in (job position, link id) order
    _busy: tuple = field(repr=False, compare=False)
    # (nodes, held slots per position) of a resumable run
    _held: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def makespan(self) -> float:
        """Completion time of the whole merged run."""
        return self.raw.time

    def job_holdings(self, position: int) -> dict[int, set[Chunk]]:
        """Final holdings of the job at ``position``, untagged — equal to
        :func:`~repro.sim.multi.untag_holdings` of ``raw.holdings``.

        A view of an :class:`AdmissionRun` builds them from the job's
        own held slots, without building ``raw.holdings``.
        """
        if self._held is None:
            return untag_holdings(
                self.raw.holdings, self.program.entries[position].tag
            )
        nodes, held = self._held
        slot_node, slot_chunk, chunks, _ = held[position]
        return holdings_from_slots(nodes, [(slot_node, slot_chunk, chunks, None)])

    def job_delivered(self, position: int) -> bool:
        """True when the job at ``position`` is known to deliver without
        building its holdings: a view of an :class:`AdmissionRun` counts
        the job's held slots, and its lowering's verdict holds for that
        count (:meth:`~repro.sim.lowering.LoweredSchedule.delivered_with`).
        False means unknown: check :meth:`job_holdings`."""
        if self._held is None:
            return False
        low = self.program.entries[position].lowering
        return low is not None and low.delivered_with(
            self._held[1][position][0].size
        )

    def link_busy_total(self) -> dict[DirectedEdge, float]:
        """Total busy time per directed link, over all jobs: each sum is
        accumulated job by job in position order, and the links are
        listed in the order the jobs' ``link_busy`` first name them."""
        key_link, busy, link_src, link_dst = self._busy
        # bincount adds in input order: per link, position order
        total = np.bincount(key_link, weights=busy, minlength=link_src.size)
        links, first = np.unique(key_link, return_index=True)
        links = links[np.argsort(first)]
        return dict(zip(
            _edges(link_src[links], link_dst[links]), total[links].tolist()
        ))


def execute_program(
    cube: Hypercube,
    program: MergedProgram,
    port_model: PortModel,
    machine: MachineParams | None = None,
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
) -> ExecutionView:
    """Run ``program`` from scratch on the vectorized engine and split
    the result.

    Release times gate each job to its admission instant; the transfer
    log is always requested (it is the provenance source).  This is the
    one-shot counterpart of :class:`AdmissionRun` — the oracle its
    final view must match bit for bit.
    """
    machine = machine or MachineParams()
    low = lower_schedule(
        cube, program.schedule, program.initial, program.release_times
    )
    raw = run_async_vectorized(
        cube, program.schedule, port_model, program.initial,
        machine, faults=faults, on_fault=on_fault, lowered=low,
        transfer_log=True,
    )
    # exact engine cost expression, computed once per distinct size
    uniq_sizes, size_inv = np.unique(low.elems, return_inverse=True)
    uniq_costs = np.asarray(
        [machine.send_cost(int(s)) for s in uniq_sizes.tolist()]
    )
    return _split(
        program, np.asarray(program.owners, dtype=np.int64), raw,
        low.elems, low.link, low.link_src, low.link_dst,
        uniq_costs[size_inv],
    )


class AdmissionRun:
    """A merged program that grows while it executes: the admission
    loop primitive shared by the service and the workload layer.

    Jobs join with :meth:`admit` at instants that never lie in the
    engine's past; :meth:`next_completion` advances the one resumable
    engine run (:class:`~repro.sim.vectorized.VectorizedRun`) just far
    enough to name the earliest job completion at or before a bound;
    :meth:`view` closes the run and splits it per job.  Jobs come with
    their lowering (:attr:`~repro.sim.multi.JobEntry.lowering`, served
    by :func:`~repro.collectives.api.collective_program` in the service
    and the workload layer), each instant is simulated once, and the
    final view is bit-identical to :func:`execute_program` on the final
    merged program.
    """

    def __init__(
        self,
        cube: Hypercube,
        port_model: PortModel,
        machine: MachineParams | None = None,
        faults: FaultPlan | None = None,
        on_fault: str = "raise",
    ):
        self.cube = cube
        self._run = VectorizedRun(
            cube, port_model, machine, faults, on_fault, transfer_log=True
        )
        self._completions: list[tuple[float, int]] = []
        self._tags: list = []  # per handle; in rank order once closed

    def admit(self, entry: JobEntry, rank) -> int:
        """Add ``entry`` with priority ``rank``; returns its handle (the
        admission index).  The entry's :attr:`~repro.sim.multi.JobEntry.
        lowering` is used as is; an entry without one is lowered here."""
        low = entry.lowering
        if low is None:
            low = lower_schedule(self.cube, entry.schedule, entry.initial)
        h = self._run.admit(entry, rank, low)
        self._tags.append(entry.tag)
        return h

    def next_completion(self, bound: float) -> tuple[float, int] | None:
        """The earliest unconsumed ``(completion, handle)`` at or before
        ``bound``, ties by handle; ``None`` if no job completes by then.

        Advances the engine until no job that is still running can
        complete earlier than the answer.
        """
        run = self._run
        heap = self._completions
        while True:
            limit = min(bound, heap[0][0]) if heap else bound
            run.advance(limit)
            new = run.take_resolved()
            for item in new:
                heappush(heap, item)
            if not any(c < limit for c, _ in new):
                break
        return heap[0] if heap and heap[0][0] <= bound else None

    def pop_completion(self) -> tuple[float, int]:
        """Consume the completion :meth:`next_completion` named."""
        return heappop(self._completions)

    def link_time(self, handle: int) -> float:
        """Busy link-time of a completed job."""
        return self._run.link_time(handle)

    def close(self) -> None:
        """Run to the end, keep the result, and free the engine state."""
        run = self._run
        raw = run.result()
        by_rank = run.rank_order()
        self._final = (raw, *run.link_columns(), run.costs())
        self._owners = run.owners()
        self._tags = [self._tags[h] for h in by_rank]
        self._held = (
            self.cube.nodes(), [run.held_slots[h] for h in by_rank]
        )
        self._run = None

    def view(self, entries: Sequence[JobEntry]) -> ExecutionView:
        """The closed run split per job; ``entries`` are the admitted
        entries in rank order (ties in admission order), the order
        ``merge_programs`` would be given.

        Nothing is merged: the view's program builds its ``owners``
        from the engine's owner array, and ``schedule``, ``initial``
        and ``release_times`` by :func:`~repro.sim.multi.merge_programs`,
        each on first read; :meth:`ExecutionView.job_holdings` reads
        each job's held slots.
        """
        if self._run is not None:
            self.close()
        if [e.tag for e in entries] != self._tags:
            raise ValueError("entries must be the admitted entries in rank order")
        owners = self._owners
        view = _split(
            MergedProgram.on_read(owners, entries=list(entries)), owners,
            *self._final,
        )
        view._held = self._held
        return view


def _split(
    program: MergedProgram,
    owners: np.ndarray,
    raw: "AsyncResult | DegradedResult",
    elems_all: np.ndarray,
    link_all: np.ndarray,
    link_src: np.ndarray,
    link_dst: np.ndarray,
    costs_all: np.ndarray,
) -> ExecutionView:
    """Per-job accounting of one merged run (see module docstring);
    ``owners`` is ``program.owners`` as an array."""
    log = raw.transfer_log
    assert log is not None
    n_jobs = program.num_jobs
    n_links = link_src.size
    scheduled = np.bincount(owners, minlength=n_jobs).tolist()

    ids = np.asarray(log.ids, dtype=np.int64)
    starts = np.asarray(log.starts, dtype=np.float64)
    costs = costs_all[ids]
    ends = starts + costs
    links = link_all[ids]
    owner = owners[ids]
    elems = elems_all[ids]

    # executed transfers job by job, each job's in execution order
    by_job = np.argsort(owner, kind="stable")
    bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(owner, minlength=n_jobs)))
    ).tolist()
    job_starts = starts[by_job]
    job_ends = ends[by_job]
    job_costs = costs[by_job]
    job_elems = elems[by_job]
    # per (job, link) counters; bincount adds in execution order
    keys, inv = np.unique(owner * n_links + links, return_inverse=True)
    inv = inv.reshape(-1)
    packets = np.bincount(inv)
    elems_per = np.bincount(
        inv, weights=elems.astype(np.float64)
    ).astype(np.int64)
    busy = np.bincount(inv, weights=costs)
    key_link = keys % n_links
    key_src = link_src[key_link]
    key_dst = link_dst[key_link]
    key_bounds = np.searchsorted(keys // n_links, np.arange(n_jobs + 1)).tolist()

    slices: list[JobSlice] = []
    for pos in range(n_jobs):
        a, b = bounds[pos], bounds[pos + 1]
        ka, kb = key_bounds[pos], key_bounds[pos + 1]
        slices.append(JobSlice.on_read(
            (key_src[ka:kb], key_dst[ka:kb], busy[ka:kb]),
            position=pos,
            scheduled=scheduled[pos],
            executed=b - a,
            elems=int(job_elems[a:b].sum()),
            link_time=float(job_costs[a:b].sum()),
            first_start=float(job_starts[a:b].min()) if b > a else float("nan"),
            finish=float(job_ends[a:b].max()) if b > a else float("nan"),
            start_times=sorted(job_starts[a:b].tolist()),
            link_stats=LinkStats.from_links(
                key_src[ka:kb], key_dst[ka:kb], packets[ka:kb],
                elems_per[ka:kb],
            ),
        ))
    return ExecutionView(
        program=program, raw=raw, slices=slices,
        ends=ends, receivers=link_dst[links].astype(np.int64),
        _busy=(key_link, busy, link_src, link_dst),
    )
