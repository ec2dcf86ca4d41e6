"""Workload execution: lowering a phase DAG onto the engines.

One step = one (growing) merged program.  Every collective phase
becomes a :class:`~repro.sim.multi.JobEntry` (chunks namespaced by the
phase name, release time = the instant its dependencies + compute gap
allow communication to start) and concurrent phases contend for links
exactly like concurrent service jobs do — through the port-model
admission rules of one shared engine run.

The dependency loop
-------------------
A phase's ready time depends on when its dependencies *finish*, which
the engine only knows after running — the same chicken-and-egg the
service's admission loop solves, and the same solution applies:

1. process completions in increasing simulated time (admission order
   breaks ties);
2. a phase becomes ready the instant its last dependency's completion
   is processed (at ``t`` = that finish time), and is admitted with
   ``release = t + compute``;
3. the admission adds the phase to the step's **one resumable run**
   (:class:`~repro.service.exec.AdmissionRun`, shared with the
   service), which then advances only as far as the next completion —
   never into an instant within ``_EPS`` of a pending admission.

Admitting at ``t`` cannot invalidate a completion already processed:
the new phase's transfers are release-gated to ``t + compute >= t``,
added contention only delays transfers that start later, and every
processed completion finished at or before ``t``.  Each instant is
simulated once, and the step's final view equals one from-scratch run
of its merged program bit for bit.  (A wave-greedy executor that
admits whole dependency "levels" at once does *not* have this
property — a small phase's successors would be frozen against a stale
finish time of a large concurrent phase — which is why the loop is
event-ordered.)

The final view of each step is authoritative for all reporting; steps
are serial (step ``s+1``'s program is released at step ``s``'s end),
so each step is its own merged program and cross-step contention is
structurally impossible.

Determinism: the loop consumes only simulated-time quantities, with
admission order (then declaration order) breaking every tie.  The
``jobs`` worker pool parallelizes schedule *generation* only — pure
functions reassembled in a deterministic order — so worker count and
start method never change a report bit.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from time import perf_counter

import numpy as np

from repro.collectives.api import (
    DEFAULT_ALGORITHMS,
    check_delivery,
)
from repro.obs.instruments import workload_run_finished
from repro.service.exec import AdmissionRun, ExecutionView
# the one-shot oracle of the incremental run; call-site tracers
# (benchmarks/e2e/tracing.py) look it up on this module
from repro.service.exec import execute_program  # noqa: F401
from repro.service.scheduler import pregenerate
from repro.sim.machine import MachineParams
from repro.sim.multi import JobEntry, merge_programs, untag_holdings
from repro.sim.schedule import Chunk, Schedule
from repro.topology.hypercube import Hypercube
from repro.workloads.dag import PhaseSpec, Workload, WorkloadDAG
from repro.workloads.report import (
    CriticalPath,
    LinkUtilization,
    PhaseReport,
    StepReport,
    StragglerReport,
    WorkloadReport,
)

__all__ = ["run_workload", "WORKLOAD_BACKENDS"]

#: execution backends: ``"sim"`` lowers each step onto one merged
#: vectorized-engine run (concurrent phases contend; full reporting);
#: ``"runtime"`` executes each phase on the distributed runtime — serial
#: DAGs only, runtime-supported ops only, summary reporting only.
WORKLOAD_BACKENDS = ("sim", "runtime")

#: top-k entries kept in the busiest-links / slowest-nodes tables
_TOP_K = 3


def _phase_key(dimension: int, port_value: str, p: PhaseSpec) -> tuple:
    """Schedule-cache key of a collective phase (normalized)."""
    assert p.op is not None
    algorithm = p.algorithm or DEFAULT_ALGORITHMS[p.op]
    packet = p.packet_elems if p.packet_elems is not None else p.message_elems
    source = p.source if p.rooted else 0
    return (
        dimension, p.op, algorithm, source, p.message_elems, packet,
        port_value, p.subtree_order,
    )


def _pregenerate(
    workload: Workload,
    steps: int,
    jobs: int | None,
) -> dict[tuple, tuple[Schedule, dict[int, set[Chunk]]]]:
    """Build every distinct schedule the run will need, once (keys in
    step, then declaration order; see
    :func:`repro.service.scheduler.pregenerate`)."""
    return pregenerate(
        (
            _phase_key(workload.dimension, workload.port_model.value, p)
            for s in range(steps)
            for p in workload.dag(s).collective_phases
        ),
        jobs,
    )


def _link_utilization(
    view: ExecutionView, duration: float
) -> LinkUtilization:
    """Busy-time / duration per used directed link, summarized."""
    busy = view.link_busy_total()
    if not busy or duration <= 0:
        return LinkUtilization()
    utils = sorted(
        ((f"{e.src}->{e.dst}", b / duration) for e, b in busy.items()),
        key=lambda item: (-item[1], item[0]),
    )
    vals = [u for _, u in utils]
    return LinkUtilization(
        links_used=len(vals),
        max=vals[0],
        mean=sum(vals) / len(vals),
        busiest=tuple(utils[:_TOP_K]),
    )


def _stragglers(view: ExecutionView, t0: float) -> StragglerReport:
    """Per-node last-delivery lag, from the transfer end times the
    provenance split already computed."""
    if not view.ends.size:
        return StragglerReport()
    last_np = np.full(int(view.receivers.max()) + 1, -np.inf)
    np.maximum.at(last_np, view.receivers, view.ends)
    nodes = np.flatnonzero(last_np != -np.inf)
    lags = [  # ascending node order
        (node, end - t0)
        for node, end in zip(nodes.tolist(), last_np[nodes].tolist())
    ]
    by_lag = sorted(lags, key=lambda item: (-item[1], item[0]))
    ordered = sorted(lag for _, lag in lags)
    max_lag = ordered[-1]
    n = len(ordered)
    mid = n // 2
    median = (
        ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    )
    return StragglerReport(
        nodes_observed=n,
        max_lag=max_lag,
        median_lag=median,
        ratio=max_lag / median if median > 0 else float("nan"),
        slowest=tuple(by_lag[:_TOP_K]),
    )


def _critical_path(
    dag: WorkloadDAG, reports: dict[str, PhaseReport]
) -> CriticalPath:
    """Walk back from the latest finish through the latest-finishing dep."""
    order = [p.name for p in dag.phases]
    # finish ties go to the later-declared phase: a zero-duration join
    # that closes the step is the path's true endpoint, not its input
    end_name = max(
        order, key=lambda n: (reports[n].finish, order.index(n))
    )
    path: list[str] = []
    current: str | None = end_name
    while current is not None:
        path.append(current)
        deps = dag.phase(current).deps
        if not deps:
            current = None
        else:
            current = max(
                deps, key=lambda d: (reports[d].finish, -deps.index(d))
            )
    path.reverse()
    compute = sum(reports[n].compute for n in path)
    comm = sum(max(reports[n].comm_time, 0.0) for n in path)
    return CriticalPath(
        phases=tuple(path), compute_time=compute, comm_time=comm
    )


def _run_step_sim(
    workload: Workload,
    step: int,
    t0: float,
    schedules: dict[tuple, tuple[Schedule, dict[int, set[Chunk]]]],
    cube: Hypercube,
    machine: MachineParams,
) -> StepReport:
    """Execute one step's DAG as an event-ordered merged program."""
    dag = workload.dag(step)
    topo = dag.topological()
    successors = dag.successors()
    specs = {p.name: p for p in dag.phases}

    ready: dict[str, float] = {}
    release: dict[str, float] = {}
    finish: dict[str, float] = {}
    admit_order: dict[str, int] = {}
    loop = AdmissionRun(
        cube, workload.port_model, machine,
        faults=workload.faults, on_fault=workload.on_fault,
    )
    entries: list[JobEntry] = []  # collective phases, admission order
    names: list[str] = []  # admission handle -> collective phase name
    # compute-only phases, by (finish, admission order)
    computes: list[tuple[float, int, str]] = []

    def _admit(p: PhaseSpec, t: float) -> None:
        """Admit ``p`` at ready time ``t``."""
        ready[p.name] = t
        release[p.name] = t + p.compute
        admit_order[p.name] = len(admit_order)
        if p.op is None:
            finish[p.name] = release[p.name]
            heappush(computes, (finish[p.name], admit_order[p.name], p.name))
            return
        sched, initial = schedules[
            _phase_key(workload.dimension, workload.port_model.value, p)
        ]
        entry = JobEntry(
            tag=p.name, schedule=sched, initial=initial,
            release=release[p.name],
        )
        # admission order is the merged program's priority order
        loop.admit(entry, len(entries))
        entries.append(entry)
        names.append(p.name)

    for p in topo:
        if not p.deps:
            _admit(p, t0)

    processed: set[str] = set()
    while len(processed) < len(topo):
        # the earliest completion, ties in admission order
        bound = computes[0][0] if computes else math.inf
        comm = loop.next_completion(bound)
        if comm is not None and (
            not computes
            or (comm[0], admit_order[names[comm[1]]]) < computes[0][:2]
        ):
            t, h = loop.pop_completion()
            current = names[h]
        else:
            t, _, current = heappop(computes)
        processed.add(current)
        for s in successors[current]:
            if s not in admit_order and all(
                d in processed for d in specs[s].deps
            ):
                # the just-processed dep finished at t, every other dep
                # at or before it (completions are processed in time
                # order), so the ready instant is exactly t
                _admit(specs[s], t)

    view: ExecutionView | None = None
    position: dict[str, int] = {}
    if names:
        loop.close()
        view = loop.view(merge_programs(entries))
        # admission order is the rank: position == admission index
        position = {name: pos for pos, name in enumerate(names)}
        for name, pos in position.items():
            f = view.slices[pos].finish
            finish[name] = release[name] if math.isnan(f) else f

    # -- reporting out of the authoritative final run -----------------
    reports: dict[str, PhaseReport] = {}
    for p in dag.phases:
        rep = PhaseReport(
            name=p.name,
            kind=p.kind,
            op=p.op,
            algorithm=(
                (p.algorithm or DEFAULT_ALGORITHMS[p.op])
                if p.op is not None else None
            ),
            ready=ready[p.name],
            release=release[p.name],
            finish=finish[p.name],
            compute=p.compute,
        )
        if p.op is not None:
            assert view is not None
            s = view.slices[position[p.name]]
            holdings = untag_holdings(view.raw.holdings, p.name)
            undelivered = check_delivery(
                cube, p.op, p.source,
                view.program.entries[position[p.name]].schedule, holdings,
            )
            rep.transfers_scheduled = s.scheduled
            rep.transfers_executed = s.executed
            rep.elems = s.elems
            rep.link_time = s.link_time
            rep.undelivered_nodes = tuple(sorted(undelivered))
            rep.degraded = bool(undelivered) or s.executed < s.scheduled
        reports[p.name] = rep

    end = max(r.finish for r in reports.values())
    duration = end - t0
    return StepReport(
        step=step,
        start=t0,
        duration=duration,
        phases=[reports[p.name] for p in dag.phases],
        link_utilization=(
            _link_utilization(view, duration)
            if view is not None else LinkUtilization()
        ),
        critical_path=_critical_path(dag, reports),
        stragglers=(
            _stragglers(view, t0)
            if view is not None else StragglerReport()
        ),
    )


def _run_step_runtime(
    workload: Workload,
    step: int,
    t0: float,
    cube: Hypercube,
    machine: MachineParams,
) -> StepReport:
    """Execute one serial step phase-by-phase on the distributed runtime.

    Each collective is one standalone runtime call (its locally derived
    sends run as their own engine run, not merged with other phases),
    which is only meaningful when no two collectives could overlap —
    enforced via :attr:`WorkloadDAG.serial`.  Reporting is
    summary-level: per-phase times and traffic, critical path, but no
    link-utilization or straggler analysis (the runtime result carries
    no transfer log).
    """
    from repro.collectives.api import broadcast as _broadcast
    from repro.collectives.api import scatter as _scatter

    dag = workload.dag(step)
    if not dag.serial:
        raise ValueError(
            f"step {step} of workload {workload.name!r} has concurrent "
            "collective phases; the runtime backend executes one "
            "collective at a time — use backend='sim'"
        )
    reports: dict[str, PhaseReport] = {}
    finish: dict[str, float] = {}
    for p in dag.topological():
        t = max((finish[d] for d in p.deps), default=t0)
        rel = t + p.compute
        rep = PhaseReport(
            name=p.name, kind=p.kind, op=p.op,
            algorithm=(
                (p.algorithm or DEFAULT_ALGORITHMS[p.op])
                if p.op is not None else None
            ),
            ready=t, release=rel, finish=rel, compute=p.compute,
        )
        if p.op is not None:
            if p.op not in ("broadcast", "scatter"):
                raise ValueError(
                    f"phase {p.name!r}: the runtime backend implements "
                    f"broadcast and scatter, not {p.op!r}"
                )
            fn = _broadcast if p.op == "broadcast" else _scatter
            result = fn(
                cube, p.source,
                p.algorithm or DEFAULT_ALGORITHMS[p.op],
                p.message_elems, p.packet_elems, workload.port_model,
                machine, backend="runtime",
                faults=workload.faults, on_fault=workload.on_fault,
            )
            rep.finish = rel + result.time
            rep.transfers_scheduled = result.schedule.num_transfers
            rep.transfers_executed = sum(
                result.link_stats.packets.values()
            )
            rep.elems = result.link_stats.total_elems()
            rep.undelivered_nodes = tuple(sorted(result.undelivered_nodes))
            rep.degraded = result.degraded
        finish[p.name] = rep.finish
        reports[p.name] = rep
    end = max(finish.values())
    return StepReport(
        step=step,
        start=t0,
        duration=end - t0,
        phases=[reports[p.name] for p in dag.phases],
        critical_path=_critical_path(dag, reports),
    )


def run_workload(
    workload: Workload,
    steps: int = 1,
    *,
    backend: str = "sim",
    jobs: int | None = None,
) -> WorkloadReport:
    """Execute ``steps`` steps of ``workload`` end to end.

    Args:
        workload: the workload to run (see
            :data:`repro.workloads.WORKLOAD_SCENARIOS` for named,
            seeded instances).
        steps: number of steps; step ``s+1`` starts at step ``s``'s
            finish, so steps never contend with each other.
        backend: ``"sim"`` (default) or ``"runtime"`` (serial DAGs of
            runtime-supported ops only).
        jobs: worker processes for schedule pregeneration (``None``/1 =
            inline, 0 = all cores).  Worker count never changes report
            bits.

    Returns:
        A :class:`~repro.workloads.report.WorkloadReport` with one
        :class:`~repro.workloads.report.StepReport` per step.
    """
    t_wall = perf_counter()
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if backend not in WORKLOAD_BACKENDS:
        raise ValueError(
            f"backend must be one of {WORKLOAD_BACKENDS}, got {backend!r}"
        )
    if workload.on_fault not in ("raise", "report"):
        raise ValueError(
            f"on_fault must be 'raise' or 'report', got {workload.on_fault!r}"
        )
    cube = Hypercube(workload.dimension)
    machine = workload.machine or MachineParams()
    report = WorkloadReport(
        workload=workload.name,
        dimension=workload.dimension,
        backend=backend,
    )
    if backend == "sim":
        schedules = _pregenerate(workload, steps, jobs)
        t0 = 0.0
        for s in range(steps):
            step_report = _run_step_sim(
                workload, s, t0, schedules, cube, machine
            )
            report.steps.append(step_report)
            t0 = step_report.end
    else:
        t0 = 0.0
        for s in range(steps):
            step_report = _run_step_runtime(workload, s, t0, cube, machine)
            report.steps.append(step_report)
            t0 = step_report.end
    workload_run_finished(report, seconds=perf_counter() - t_wall)
    return report
