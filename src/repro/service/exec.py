"""Merged-program execution and per-job provenance accounting.

A service run or a workload step runs its jobs as one program on the
event engine, with the transfer log on.  Jobs join one resumable
engine run (:class:`~repro.sim.vectorized.VectorizedRun`) through
:class:`AdmissionRun` at their admission instants — all of them up
front, when nothing the engine computes can change an admission — and
the run advances only as far as the next event, never simulating an
instant within ``_EPS`` of a pending admission.  A job joins with its
lowering, which depends only on its collective call, so the service
and the workload layer serve it from a cache
(:func:`~repro.collectives.api.collective_program`) instead of
lowering every job.  Each instant is simulated once.
:func:`execute_program` runs a whole
:class:`~repro.sim.multi.MergedProgram` the same way, every entry
admitted up front at its position's rank.

The closed run is split back into per-job views using the provenance
chain

    ``transfer_log.ids`` (executed, execution order)
    -> owners (transfer -> job position, the engine's job column)
    -> per-job starts / ends / link traffic.

Nothing is merged: a view's program builds its ``owners`` list and its
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
from repro.sim.multi import JobEntry, MergedProgram
from repro.sim.onread import OnRead
from repro.sim.ports import PortModel
from repro.sim.result import AsyncResult, holdings_from_slots
from repro.sim.schedule import Chunk
from repro.sim.trace import LinkStats
from repro.sim.vectorized import VectorizedRun
# call-site tracers (benchmarks/e2e/tracing.py) look the engine up on
# this module
from repro.sim.vectorized import run_async_vectorized  # noqa: F401
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
        program: the merged program that was executed (that of
            :meth:`AdmissionRun.view` builds its fields on first read).
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
    # (nodes, held slots per position)
    _held: tuple = field(repr=False, compare=False)

    @property
    def makespan(self) -> float:
        """Completion time of the whole merged run."""
        return self.raw.time

    def job_holdings(self, position: int) -> dict[int, set[Chunk]]:
        """Final holdings of the job at ``position``, untagged: the
        chunks of ``raw.holdings`` tagged with the job's tag, built from
        the job's own held slots without building ``raw.holdings``."""
        nodes, held = self._held
        slot_node, slot_chunk, chunks, _ = held[position]
        return holdings_from_slots(nodes, [(slot_node, slot_chunk, chunks, None)])

    def job_delivered(self, position: int) -> bool:
        """True when the job at ``position`` is known to deliver without
        building its holdings: its lowering's verdict holds for the
        number of its held slots
        (:meth:`~repro.sim.lowering.LoweredSchedule.delivered_with`).
        False means unknown: check :meth:`job_holdings`."""
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
    """Run ``program`` to the end and split the result per job.

    Every entry is admitted up front into one :class:`AdmissionRun`,
    ranked by its position, so each job starts no earlier than its
    release time and the entry order is the contention priority.  The
    view's ``program`` is ``program`` itself.
    """
    run = AdmissionRun(cube, port_model, machine, faults, on_fault)
    for pos, entry in enumerate(program.entries):
        run.admit(entry, pos)
    view = run.view(program.entries)
    view.program = program
    return view


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
    and the workload layer), and each instant is simulated once: the
    final view is bit for bit that of one from-scratch run of the final
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
        """Run to the end, split the result per job, and free the engine
        state."""
        run = self._run
        raw = run.result()
        by_rank = run.rank_order()
        self._owners = run.owners()
        self._tags = [self._tags[h] for h in by_rank]
        self._parts = _split(
            raw, self._owners, *run.link_columns(), run.costs(),
            (self.cube.nodes(), [run.held_slots[h] for h in by_rank]),
        )
        self._run = None

    def view(self, entries: Sequence[JobEntry]) -> ExecutionView:
        """The closed run split per job; ``entries`` are the admitted
        entries in rank order (ties in admission order), the order
        :func:`~repro.sim.multi.merge_programs` would be given.  The
        view's program builds its fields on first read."""
        if self._run is not None:
            self.close()
        if [e.tag for e in entries] != self._tags:
            raise ValueError("entries must be the admitted entries in rank order")
        return ExecutionView(
            MergedProgram.on_read(self._owners, entries=list(entries)),
            **self._parts,
        )


def _split(
    raw: "AsyncResult | DegradedResult",
    owners: np.ndarray,
    elems_all: np.ndarray,
    link_all: np.ndarray,
    link_src: np.ndarray,
    link_dst: np.ndarray,
    costs_all: np.ndarray,
    held: tuple,
) -> dict:
    """Per-job accounting of one closed run (see module docstring): the
    fields of its :class:`ExecutionView` but the program.  ``owners``
    maps each transfer to its job's position; ``held`` is the nodes
    and the jobs' held slots by position."""
    log = raw.transfer_log
    assert log is not None
    n_jobs = len(held[1])
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
    return dict(
        raw=raw, slices=slices,
        ends=ends, receivers=link_dst[links].astype(np.int64),
        _busy=(key_link, busy, link_src, link_dst), _held=held,
    )
