"""Merged-program execution and per-job provenance accounting.

One service step = one engine run: the scheduler merges every admitted
job into a single :class:`~repro.sim.multi.MergedProgram`, this module
executes it on the vectorized event engine (release times baked into
the lowering, transfer log enabled), and splits the run back into
per-job views using the provenance chain

    ``transfer_log.ids`` (executed, execution order)
    -> ``MergedProgram.owners`` (transfer -> job position)
    -> per-job starts / ends / link traffic.

Transfer end times are reconstructed as ``start +
machine.send_cost(elems)`` — the exact float expression the engine
itself evaluates, so per-job finish times are bit-identical to what a
standalone run of the same schedule would report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.faults import DegradedResult, FaultPlan
from repro.sim.lowering import lower_schedule
from repro.sim.machine import MachineParams
from repro.sim.multi import MergedProgram, untag_holdings
from repro.sim.ports import PortModel
from repro.sim.result import AsyncResult
from repro.sim.schedule import Chunk
from repro.sim.trace import LinkStats
from repro.sim.vectorized import run_async_vectorized
from repro.topology.hypercube import DirectedEdge, Hypercube

__all__ = ["JobSlice", "ExecutionView", "execute_program"]


@dataclass
class JobSlice:
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
        link_stats: per-edge packet/element counters for this job.
        link_busy: per-edge busy time for this job (duration sums).
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


@dataclass
class ExecutionView:
    """A merged run plus its per-job decomposition.

    Attributes:
        program: the merged program that was executed.
        raw: the engine result (degraded under reported faults).
        slices: per-job accounting, indexed like ``program.entries``.
    """

    program: MergedProgram
    raw: "AsyncResult | DegradedResult"
    slices: list[JobSlice]

    @property
    def makespan(self) -> float:
        """Completion time of the whole merged run."""
        return self.raw.time

    def job_holdings(self, position: int) -> dict[int, set[Chunk]]:
        """Final holdings of the job at ``position``, untagged."""
        return untag_holdings(
            self.raw.holdings, self.program.entries[position].tag
        )

    def link_busy_total(self) -> dict[DirectedEdge, float]:
        """Total busy time per directed link, over all jobs."""
        total: dict[DirectedEdge, float] = {}
        for s in self.slices:
            for edge, busy in s.link_busy.items():
                total[edge] = total.get(edge, 0.0) + busy
        return total


def execute_program(
    cube: Hypercube,
    program: MergedProgram,
    port_model: PortModel,
    machine: MachineParams | None = None,
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
) -> ExecutionView:
    """Run ``program`` on the vectorized engine and split the result.

    Release times gate each job to its admission instant; the transfer
    log is always requested (it is the provenance source).
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
    log = raw.transfer_log
    assert log is not None

    owners_all = np.asarray(program.owners, dtype=np.int64)
    scheduled_per = np.bincount(owners_all, minlength=program.num_jobs)

    ids = np.asarray(log.ids, dtype=np.int64)
    starts = np.asarray(log.starts, dtype=np.float64)
    # exact engine cost expression, computed once per distinct size
    uniq_sizes, size_inv = np.unique(low.elems, return_inverse=True)
    uniq_costs = np.asarray(
        [machine.send_cost(int(s)) for s in uniq_sizes.tolist()]
    )
    costs_all = uniq_costs[size_inv]

    lsrc = low.link_src.tolist()
    ldst = low.link_dst.tolist()

    slices: list[JobSlice] = []
    if ids.size:
        owners_exec = owners_all[ids]
        ends = starts + costs_all[ids]
        links_exec = low.link[ids]
        elems_exec = low.elems[ids]
        costs_exec = costs_all[ids]
    for pos in range(program.num_jobs):
        if ids.size:
            mask = owners_exec == pos
            n_exec = int(mask.sum())
        else:
            n_exec = 0
        if n_exec == 0:
            slices.append(JobSlice(
                position=pos,
                scheduled=int(scheduled_per[pos]),
                executed=0,
                elems=0,
                link_time=0.0,
                first_start=float("nan"),
                finish=float("nan"),
                start_times=[],
                link_stats=LinkStats(),
                link_busy={},
            ))
            continue
        job_starts = starts[mask]
        job_ends = ends[mask]
        job_links = links_exec[mask]
        job_elems = elems_exec[mask]
        job_costs = costs_exec[mask]
        packets = np.bincount(job_links, minlength=low.n_links)
        elems_per = np.bincount(
            job_links, weights=job_elems.astype(np.float64),
            minlength=low.n_links,
        )
        busy_per = np.bincount(
            job_links, weights=job_costs, minlength=low.n_links
        )
        stats = LinkStats()
        busy: dict[DirectedEdge, float] = {}
        pk = packets.tolist()
        el = elems_per.tolist()
        bz = busy_per.tolist()
        for li in np.flatnonzero(packets).tolist():
            edge = DirectedEdge(lsrc[li], ldst[li])
            stats.packets[edge] = pk[li]
            stats.elems[edge] = int(el[li])
            busy[edge] = bz[li]
        slices.append(JobSlice(
            position=pos,
            scheduled=int(scheduled_per[pos]),
            executed=n_exec,
            elems=int(job_elems.sum()),
            link_time=float(job_costs.sum()),
            first_start=float(job_starts.min()),
            finish=float(job_ends.max()),
            start_times=sorted(job_starts.tolist()),
            link_stats=stats,
            link_busy=busy,
        ))
    return ExecutionView(program=program, raw=raw, slices=slices)
