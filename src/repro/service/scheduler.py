"""The multi-tenant collective service: admission loop + shared cube.

:class:`CollectiveService` admits a stream of :class:`~repro.service.
jobs.JobSpec` onto one shared hypercube and executes them concurrently
on the vectorized event engine — shared-link contention is enforced by
the same port-model admission rules every single-collective run obeys,
because concurrency is expressed *in the program itself*: admitted
jobs are merged into one :class:`~repro.sim.multi.MergedProgram`
(chunks namespaced per job, policy order = program order = contention
priority, admission instants as per-chunk release times) and the
merged program is executed whole.

Admission loop
--------------
Arrivals and admission control cannot be folded into one engine run —
whether a job may enter at time ``t`` depends on how many jobs are
still in flight at ``t``, which the engine only knows after running.
The scheduler therefore interleaves simulation and admission as a
fixpoint-free event loop:

1. process the earliest pending event (a job arrival, or a completion
   read off the current merged run);
2. completions free in-flight slots and accrue their tenant's
   link-time (the fair-share currency);
3. arrivals enter the wait queue (or are rejected by the queue cap);
4. every admission the control now allows gets ``release = t`` and a
   **frozen** policy key, and the merged program is re-simulated.

Re-simulating after an admission at time ``t`` cannot invalidate any
event already processed: the new job's transfers are release-gated to
start at or after ``t``, added contention only ever *delays* other
transfers, and every completion processed so far finished at or before
``t`` — a transfer that ended by ``t`` cannot be delayed by
occupations that begin at ``t`` or later.  The final run (after the
last admission) is therefore authoritative for all per-job accounting,
and the loop runs one merged simulation per admission batch, not per
event.

Determinism: the loop consumes only simulated-time quantities and
frozen keys — no wall clock, no hashing order.  The ``jobs`` worker
pool parallelizes *schedule generation* only (pure functions, results
reassembled in submission order), so worker count and start method
cannot change any result bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

from repro.collectives.api import ROOTED_OPS, check_delivery, collective_schedule
from repro.obs.instruments import service_run_finished
from repro.service.exec import ExecutionView, execute_program
from repro.service.jobs import JobResult, JobSpec
from repro.service.policies import SchedulingPolicy, resolve_policy
from repro.sim.faults import DegradedResult, FaultPlan
from repro.sim.machine import MachineParams
from repro.sim.multi import JobEntry, MergedProgram, merge_programs
from repro.sim.ports import PortModel
from repro.sim.result import AsyncResult
from repro.sim.schedule import Chunk, Schedule
from repro.topology.hypercube import Hypercube

__all__ = [
    "AdmissionControl",
    "CollectiveService",
    "ServiceResult",
    "run_service",
]


@dataclass(frozen=True)
class AdmissionControl:
    """Limits on how much work the service accepts at once.

    Attributes:
        max_in_flight_per_tenant: cap on one tenant's concurrently
            executing jobs (``None`` = unlimited).
        max_in_flight_total: cap on concurrently executing jobs across
            all tenants.
        queue_cap: cap on the wait queue; an arrival finding the queue
            full is rejected outright (``accepted=False``).  The cap is
            evaluated against the queue as it stands when the job
            arrives, after same-instant completions and admissions have
            been processed.
    """

    max_in_flight_per_tenant: int | None = None
    max_in_flight_total: int | None = None
    queue_cap: int | None = None

    def __post_init__(self) -> None:
        for name in (
            "max_in_flight_per_tenant", "max_in_flight_total", "queue_cap"
        ):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1 or None, got {v}")

    @property
    def unconstrained(self) -> bool:
        """True when every job can be admitted the instant it arrives."""
        return (
            self.max_in_flight_per_tenant is None
            and self.max_in_flight_total is None
        )


def _quantile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ascending ``sorted_samples``."""
    if not sorted_samples:
        return float("nan")
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[min(rank, len(sorted_samples)) - 1]


@dataclass
class ServiceResult:
    """Outcome of one service run.

    Attributes:
        policy: name of the scheduling policy that ran.
        jobs: per-job results, indexed by ``job_id`` (submission
            order) — including rejected jobs.
        makespan: completion time of the whole shared-cube run.
        admission: the admission control that was applied.
        program: the final merged program (``None`` for an empty run).
        view: the final engine run + per-job decomposition (``None``
            for an empty run) — the hook the differential and property
            tests reach through.
    """

    policy: str
    jobs: list[JobResult]
    makespan: float
    admission: AdmissionControl
    program: MergedProgram | None = None
    view: ExecutionView | None = None

    @property
    def raw(self) -> "AsyncResult | DegradedResult | None":
        """The underlying engine result of the final merged run."""
        return self.view.raw if self.view is not None else None

    @property
    def accepted(self) -> list[JobResult]:
        """Jobs that were admitted (eventually), in id order."""
        return [j for j in self.jobs if j.accepted]

    @property
    def rejected(self) -> list[JobResult]:
        """Jobs refused by admission control, in id order."""
        return [j for j in self.jobs if not j.accepted]

    @property
    def degraded(self) -> bool:
        """True when any accepted job lost transfers or deliveries."""
        return any(j.degraded for j in self.accepted)

    def tenants(self) -> list[str]:
        """All tenants that submitted jobs, sorted."""
        return sorted({j.tenant for j in self.jobs})

    def latency_summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """Exact per-tenant latency quantiles over accepted jobs.

        Returns ``{tenant: {metric: {"p50", "p99", "mean", "max",
        "count"}}}`` for ``completion_time`` and ``queueing_delay``,
        computed from the raw samples (nearest-rank), not from
        histogram buckets.
        """
        out: dict[str, dict[str, dict[str, float]]] = {}
        for tenant in self.tenants():
            mine = [j for j in self.accepted if j.tenant == tenant]
            if not mine:
                continue
            per: dict[str, dict[str, float]] = {}
            for metric in ("completion_time", "queueing_delay"):
                samples = sorted(getattr(j, metric) for j in mine)
                per[metric] = {
                    "p50": _quantile(samples, 0.50),
                    "p99": _quantile(samples, 0.99),
                    "mean": sum(samples) / len(samples),
                    "max": samples[-1],
                    "count": float(len(samples)),
                }
            out[tenant] = per
        return out

    def to_dict(self) -> dict:
        """JSON-ready summary (the ``--metrics-json`` service block)."""
        return {
            "policy": self.policy,
            "makespan": self.makespan,
            "jobs_submitted": len(self.jobs),
            "jobs_accepted": len(self.accepted),
            "jobs_rejected": len(self.rejected),
            "jobs_degraded": sum(1 for j in self.accepted if j.degraded),
            "tenants": self.latency_summary(),
            "jobs": [
                {
                    "job_id": j.job_id,
                    "tenant": j.tenant,
                    "op": j.spec.op,
                    "accepted": j.accepted,
                    "reject_reason": j.reject_reason,
                    "arrival": j.spec.arrival,
                    "admit_time": j.admit_time,
                    "start_time": j.start_time,
                    "finish_time": j.finish_time,
                    "queueing_delay": j.queueing_delay,
                    "completion_time": j.completion_time,
                    "transfers": j.transfers,
                    "elems": j.elems,
                    "link_time": j.link_time,
                    "degraded": j.degraded,
                }
                for j in self.jobs
            ],
        }


def _build_schedule(args: tuple) -> tuple[Schedule, dict[int, set[Chunk]]]:
    """Worker-side schedule generation (module-level for spawn pickling)."""
    dimension, op, algorithm, source, m, b, port_value, subtree = args
    return collective_schedule(
        Hypercube(dimension), op, algorithm, source, m, b,
        PortModel(port_value), subtree,
    )


@dataclass
class _Admitted:
    """Scheduler-internal record of a job on the cube."""

    job_id: int
    spec: JobSpec
    entry: JobEntry
    key: tuple
    release: float
    position: int = -1  # entry position in the current merged program
    completed: bool = False


class CollectiveService:
    """A long-lived scheduler for collective jobs on one shared cube.

    Args:
        cube: the shared hypercube.
        port_model: port model every schedule is generated for and the
            merged run is executed under.
        machine: cost parameters (default unit costs).
        policy: scheduling policy — a name from
            :data:`repro.service.policies.POLICIES` or an instance.
        admission: admission control limits (default: unlimited).
        faults: dead links/nodes active during the run; with
            ``on_fault="report"`` only the jobs whose trees cross a
            dead resource degrade, everything else completes.
        on_fault: ``"raise"`` (default) or ``"report"``.
        jobs: worker processes for schedule pregeneration (``None``/1 =
            inline, 0 = all cores).  Worker count never changes
            results.
        mp_context: multiprocessing start method for the worker pool
            (``"spawn"``/``"fork"``/``None`` = platform default).

    Typical use::

        service = CollectiveService(Hypercube(10), policy="fair-share")
        for spec in specs:
            service.submit(spec)
        result = service.run()
    """

    def __init__(
        self,
        cube: Hypercube,
        port_model: PortModel = PortModel.ONE_PORT_FULL,
        machine: MachineParams | None = None,
        policy: "str | SchedulingPolicy" = "fifo",
        admission: AdmissionControl | None = None,
        faults: FaultPlan | None = None,
        on_fault: str = "raise",
        jobs: int | None = None,
        mp_context: str | None = None,
    ):
        self.cube = cube
        self.port_model = port_model
        self.machine = machine or MachineParams()
        self.policy = resolve_policy(policy)
        self.admission = admission or AdmissionControl()
        self.faults = faults
        self.on_fault = on_fault
        self.jobs = jobs
        self.mp_context = mp_context
        self._specs: list[JobSpec] = []

    def submit(self, spec: JobSpec) -> int:
        """Register one job; returns its ``job_id`` (submission order)."""
        if spec.op in ROOTED_OPS:
            self.cube.check_node(spec.source)
        self._specs.append(spec)
        return len(self._specs) - 1

    def submit_many(self, specs: Iterable[JobSpec]) -> list[int]:
        """Register several jobs; returns their ids."""
        return [self.submit(s) for s in specs]

    # -- schedule pregeneration ---------------------------------------

    def _schedule_key(self, spec: JobSpec) -> tuple:
        return (
            self.cube.dimension, spec.op, spec.algorithm, spec.source,
            spec.message_elems, spec.packet_elems, self.port_model.value,
            spec.subtree_order,
        )

    def _pregenerate(self) -> dict[tuple, tuple[Schedule, dict[int, set[Chunk]]]]:
        keys: list[tuple] = []
        seen = set()
        for spec in self._specs:
            k = self._schedule_key(spec)
            if k not in seen:
                seen.add(k)
                keys.append(k)
        workers = self.jobs
        if workers == 0:
            workers = os.cpu_count() or 1
        built: dict[tuple, tuple[Schedule, dict[int, set[Chunk]]]] = {}
        if workers is None or workers <= 1 or len(keys) <= 1:
            for k in keys:
                built[k] = _build_schedule(k)
            return built
        import multiprocessing

        ctx = (
            multiprocessing.get_context(self.mp_context)
            if self.mp_context
            else None
        )
        with ProcessPoolExecutor(
            max_workers=min(workers, len(keys)), mp_context=ctx
        ) as pool:
            for k, out in zip(keys, pool.map(_build_schedule, keys)):
                built[k] = out
        return built

    # -- the admission event loop --------------------------------------

    def run(self) -> ServiceResult:
        """Admit and execute every submitted job; returns the result."""
        t0 = perf_counter()
        specs = self._specs
        results = [JobResult(job_id=i, spec=s) for i, s in enumerate(specs)]
        if not specs:
            result = ServiceResult(
                policy=self.policy.name, jobs=[], makespan=0.0,
                admission=self.admission,
            )
            service_run_finished(result, seconds=perf_counter() - t0)
            return result

        schedules = self._pregenerate()
        ctl = self.admission
        policy = self.policy
        # arrival processing order: time, then submission order
        arrivals = sorted(range(len(specs)), key=lambda i: (specs[i].arrival, i))
        ai = 0
        queue: list[int] = []  # job ids waiting for admission
        admitted: list[_Admitted] = []
        by_id: dict[int, _Admitted] = {}
        tenant_link_time: dict[str, float] = {}
        in_flight_total = 0
        in_flight_tenant: dict[str, int] = {}
        admit_seq = 0
        view: ExecutionView | None = None

        def _finish_of(a: _Admitted) -> float:
            assert view is not None
            f = view.slices[a.position].finish
            # a job whose every transfer was cancelled by a fault
            # resolves at its release instant
            return a.release if math.isnan(f) else f

        def _resimulate() -> None:
            nonlocal view
            order = sorted(admitted, key=lambda a: a.key)
            for pos, a in enumerate(order):
                a.position = pos
            program = merge_programs([a.entry for a in order])
            view = execute_program(
                self.cube, program, self.port_model, self.machine,
                faults=self.faults, on_fault=self.on_fault,
            )

        def _admit(job_id: int, t: float) -> None:
            nonlocal admit_seq, in_flight_total
            spec = specs[job_id]
            sched, initial = schedules[self._schedule_key(spec)]
            key = policy.admission_key(
                spec, admit_seq, tenant_link_time.get(spec.tenant, 0.0)
            )
            admit_seq += 1
            rec = _Admitted(
                job_id=job_id, spec=spec, key=key, release=t,
                entry=JobEntry(
                    tag=job_id, schedule=sched, initial=initial, release=t
                ),
            )
            admitted.append(rec)
            by_id[job_id] = rec
            results[job_id].admit_time = t
            in_flight_total += 1
            in_flight_tenant[spec.tenant] = (
                in_flight_tenant.get(spec.tenant, 0) + 1
            )

        def _drain_queue(t: float) -> bool:
            """Admit every queued job the control allows; True if any."""
            any_admitted = False
            while queue:
                # candidates whose tenant still has headroom
                viable = [
                    j for j in queue
                    if ctl.max_in_flight_per_tenant is None
                    or in_flight_tenant.get(specs[j].tenant, 0)
                    < ctl.max_in_flight_per_tenant
                ]
                if not viable:
                    break
                if (
                    ctl.max_in_flight_total is not None
                    and in_flight_total >= ctl.max_in_flight_total
                ):
                    break
                # the policy picks who goes first; arrival order breaks
                # ties (queue is kept in arrival order)
                best = min(
                    viable,
                    key=lambda j: policy.admission_key(
                        specs[j], queue.index(j),
                        tenant_link_time.get(specs[j].tenant, 0.0),
                    ),
                )
                queue.remove(best)
                _admit(best, t)
                any_admitted = True
            return any_admitted

        # Fast path: with no in-flight caps every job is admitted the
        # instant it arrives, and a static-key policy (fifo, priority)
        # fixes every admission key from the spec + arrival order alone
        # — so the event loop's interleaved re-simulations would all be
        # superseded by the final run anyway.  Admit everything up
        # front and simulate once; results are identical to the loop's
        # (the determinism suite pins this).
        if ctl.unconstrained and policy.static_keys:
            for j in arrivals:
                _admit(j, specs[j].arrival)
            _resimulate()
            ai = len(arrivals)

        while True:
            next_arrival = (
                specs[arrivals[ai]].arrival if ai < len(arrivals) else None
            )
            running = [a for a in admitted if not a.completed]
            next_completion = (
                min(_finish_of(a) for a in running) if running else None
            )
            if next_arrival is None and next_completion is None:
                break
            if next_completion is None or (
                next_arrival is not None and next_arrival <= next_completion
            ):
                t = next_arrival
            else:
                t = next_completion

            # 1. completions at t free slots and accrue fair-share usage
            for a in running:
                if not a.completed and _finish_of(a) <= t:
                    a.completed = True
                    in_flight_total -= 1
                    in_flight_tenant[a.spec.tenant] -= 1
                    assert view is not None
                    tenant_link_time[a.spec.tenant] = (
                        tenant_link_time.get(a.spec.tenant, 0.0)
                        + view.slices[a.position].link_time
                    )
            # 2. freed slots first serve the existing queue ...
            any_admitted = _drain_queue(t)
            # 3. ... then arrivals at t join (or bounce off the cap) ...
            while ai < len(arrivals) and specs[arrivals[ai]].arrival <= t:
                j = arrivals[ai]
                ai += 1
                if ctl.queue_cap is not None and len(queue) >= ctl.queue_cap:
                    results[j].accepted = False
                    results[j].reject_reason = (
                        f"queue full ({ctl.queue_cap} waiting)"
                    )
                    continue
                queue.append(j)
            # 4. ... and are admitted in turn if the control allows
            any_admitted = _drain_queue(t) or any_admitted
            if any_admitted:
                _resimulate()

        # -- final accounting out of the authoritative last run --------
        makespan = 0.0
        if view is not None:
            makespan = view.makespan
            for a in admitted:
                r = results[a.job_id]
                s = view.slices[a.position]
                r.start_time = s.first_start
                r.finish_time = _finish_of(a)
                r.transfers = s.executed
                r.elems = s.elems
                r.link_time = s.link_time
                r.link_stats = s.link_stats
                r.holdings = view.job_holdings(a.position)
                r.undelivered = check_delivery(
                    self.cube, a.spec.op, a.spec.source,
                    a.entry.schedule, r.holdings,
                )
                r.degraded = bool(r.undelivered) or s.executed < s.scheduled
        program = view.program if view is not None else None
        result = ServiceResult(
            policy=policy.name,
            jobs=results,
            makespan=makespan,
            admission=ctl,
            program=program,
            view=view,
        )
        service_run_finished(result, seconds=perf_counter() - t0)
        return result


def run_service(
    cube: Hypercube,
    specs: Iterable[JobSpec],
    port_model: PortModel = PortModel.ONE_PORT_FULL,
    machine: MachineParams | None = None,
    policy: "str | SchedulingPolicy" = "fifo",
    admission: AdmissionControl | None = None,
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
    jobs: int | None = None,
    mp_context: str | None = None,
) -> ServiceResult:
    """One-shot convenience: submit ``specs`` and run the service."""
    service = CollectiveService(
        cube, port_model, machine, policy, admission,
        faults=faults, on_fault=on_fault, jobs=jobs, mp_context=mp_context,
    )
    service.submit_many(specs)
    return service.run()
