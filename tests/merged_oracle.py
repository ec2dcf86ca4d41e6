"""The from-scratch run of a merged program: the admission run's oracle.

The library runs a merged program one way: its jobs join one resumable
engine run (:class:`repro.service.exec.AdmissionRun`), which never
merges, and :func:`repro.service.exec.execute_program` admits a whole
program into one.  This module keeps the from-scratch path that run is
checked against: merge the entries
(:func:`repro.sim.multi.merge_programs`), lower the tagged schedule
with every job's release time, run it once on the vectorized engine
with the transfer log on, and split the result per job over the owners
the merge recorded, transfer by transfer.  A job's holdings are the
merged holdings with its tag stripped (:func:`untag_holdings`), not its
held slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.service.exec import JobSlice
from repro.sim.faults import DegradedResult, FaultPlan
from repro.sim.lowering import lower_schedule
from repro.sim.machine import MachineParams
from repro.sim.multi import JobEntry, MergedProgram, merge_programs
from repro.sim.ports import PortModel
from repro.sim.result import AsyncResult
from repro.sim.schedule import Chunk
from repro.sim.trace import LinkStats
from repro.sim.vectorized import run_async_vectorized
from repro.topology.hypercube import DirectedEdge, Hypercube

__all__ = ["MergedRun", "run_merged", "untag_holdings", "view_key"]


def untag_holdings(
    holdings: dict[int, set[Chunk]], tag: Hashable
) -> dict[int, set[Chunk]]:
    """One job's view of merged holdings, with the namespace stripped:
    ``{node: {chunk for (tag, chunk) held}}``, the holdings a standalone
    run of the job's own schedule would produce."""
    return {
        node: {c for t, c in chunks if t == tag}
        for node, chunks in holdings.items()
    }


@dataclass
class MergedRun:
    """A from-scratch merged run and its per-job split, read like an
    :class:`~repro.service.exec.ExecutionView`."""

    program: MergedProgram
    raw: AsyncResult | DegradedResult
    slices: list[JobSlice]
    ends: np.ndarray
    receivers: np.ndarray

    @property
    def makespan(self) -> float:
        return self.raw.time

    def job_holdings(self, position: int) -> dict[int, set[Chunk]]:
        return untag_holdings(
            self.raw.holdings, self.program.entries[position].tag
        )

    def link_busy_total(self) -> dict[DirectedEdge, float]:
        """Busy time per link, summed slice by slice in position order."""
        total: dict[DirectedEdge, float] = {}
        for s in self.slices:
            for edge, busy in s.link_busy.items():
                total[edge] = total.get(edge, 0.0) + busy
        return total


def run_merged(
    cube: Hypercube,
    entries: Sequence[JobEntry],
    port_model: PortModel,
    machine: MachineParams | None = None,
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
) -> MergedRun:
    """Merge ``entries`` (in priority order), run the merged program
    from scratch and split the run per job."""
    machine = machine or MachineParams()
    program = merge_programs(entries)
    low = lower_schedule(
        cube, program.schedule, program.initial, program.release_times
    )
    raw = run_async_vectorized(
        cube, program.schedule, port_model, program.initial, machine,
        faults=faults, on_fault=on_fault, lowered=low, transfer_log=True,
    )
    transfers = program.schedule.all_transfers()
    sizes = program.schedule.chunk_sizes
    log = raw.transfer_log
    ids = list(log.ids)
    elems = [sum(sizes[c] for c in transfers[i].chunks) for i in ids]
    costs = np.asarray([machine.send_cost(e) for e in elems], dtype=np.float64)
    starts = np.asarray(log.starts, dtype=np.float64)
    ends = starts + costs
    owner = np.asarray([program.owners[i] for i in ids], dtype=np.int64)

    slices = []
    for pos in range(program.num_jobs):
        mine = np.flatnonzero(owner == pos)  # execution order
        stats, busy = LinkStats(), {}
        for k in mine.tolist():
            t = transfers[ids[k]]
            stats.record(t.src, t.dst, elems[k])
            edge = DirectedEdge(t.src, t.dst)
            busy[edge] = busy.get(edge, 0.0) + costs[k].item()
        ran = mine.size > 0
        slices.append(JobSlice(
            position=pos,
            scheduled=program.owners.count(pos),
            executed=int(mine.size),
            elems=sum(elems[k] for k in mine.tolist()),
            link_time=float(costs[mine].sum()),
            first_start=float(starts[mine].min()) if ran else float("nan"),
            finish=float(ends[mine].max()) if ran else float("nan"),
            start_times=sorted(starts[mine].tolist()),
            link_stats=stats,
            link_busy=dict(sorted(busy.items())),
        ))
    return MergedRun(
        program=program, raw=raw, slices=slices, ends=ends,
        receivers=np.asarray([transfers[i].dst for i in ids], dtype=np.int64),
    )


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in values]


def view_key(view) -> tuple:
    """Everything the differential compares, with floats as reprs (so
    that NaN compares equal to NaN and -0.0 differs from 0.0)."""
    raw = view.raw
    log = raw.transfer_log
    slices = tuple(
        (
            s.position, s.scheduled, s.executed, s.elems,
            _floats((s.link_time, s.first_start, s.finish)),
            _floats(s.start_times),
            sorted((repr(e), n) for e, n in s.link_stats.packets.items()),
            sorted((repr(e), n) for e, n in s.link_stats.elems.items()),
            sorted((repr(e), repr(b)) for e, b in s.link_busy.items()),
        )
        for s in view.slices
    )
    degraded = (
        type(raw).__name__,
        repr(getattr(raw, "fault_events", None)),
        sorted(
            (node, sorted(map(repr, chunks)))
            for node, chunks in getattr(raw, "undelivered", {}).items()
        ),
        getattr(raw, "transfers_lost", 0),
    )
    return (
        repr(raw.time), raw.transfers_executed,
        list(log.ids), _floats(log.starts), _floats(raw.start_times),
        sorted((node, sorted(map(repr, c))) for node, c in raw.holdings.items()),
        list(view.receivers), _floats(view.ends),
        slices, degraded,
        [
            sorted((node, sorted(map(repr, c)))
                   for node, c in view.job_holdings(pos).items())
            for pos in range(len(view.slices))
        ],
        [(repr(e), repr(b)) for e, b in view.link_busy_total().items()],
    )
