"""The multi-tenant collective service: admission loop + shared cube.

:class:`CollectiveService` admits a stream of :class:`~repro.service.
jobs.JobSpec` onto one shared hypercube and executes them concurrently
on the vectorized event engine — shared-link contention is enforced by
the same port-model admission rules every single-collective run obeys,
because concurrency is expressed *in the program itself*: admitted
jobs join one resumable engine run (policy order = program order =
contention priority, admission instants as per-chunk release times),
and its chunk-tagged :class:`~repro.sim.multi.MergedProgram` is built
only when a caller reads it.

Admission loop
--------------
Arrivals and admission control cannot be folded into a run fixed up
front — whether a job may enter at time ``t`` depends on how many jobs
are still in flight at ``t``, which only the engine knows.  The
scheduler therefore interleaves simulation and admission as an event
loop over **one resumable run**
(:class:`~repro.service.exec.AdmissionRun`):

1. advance the run just far enough to name the earliest pending event
   (a job arrival, or a job completion);
2. completions free in-flight slots and accrue their tenant's
   link-time (the fair-share currency);
3. arrivals enter the wait queue (or are rejected by the queue cap);
4. every admission the control now allows gets ``release = t`` and a
   **frozen** policy key, and joins the running program — its rows are
   served from the lowering cache and merged into the live rows in
   the final program order.

The run never simulates an instant ``now`` with ``now + _EPS >= t``
before every admission at ``t`` is in (the full run would coalesce the
new job's release into that instant), and it stops right after the
instant in which a job resolves if that job's finish lies below the
next event.  Admitting at ``t`` therefore cannot invalidate any event
already processed: the new job's transfers are release-gated to start
at or after ``t``, and added contention only ever *delays* transfers
that start later.  Each instant is simulated once, and the final view
is bit-identical to one from-scratch run of the final merged program.

With no in-flight caps and a static-key policy (``fifo``,
``priority``) no completion can change an admission, so every job is
admitted up front — one staged flush — and the run plays out to
the end with no admission event in between.  Either way the final view
is split per job from the engine's own arrays; the chunk-tagged merged
program and holdings are built only when a caller reads them.

Determinism: the loop consumes only simulated-time quantities and
frozen keys — no wall clock, no hashing order.  The ``jobs`` worker
pool parallelizes *schedule generation* only (pure functions, results
reassembled in submission order), so worker count and start method
cannot change any result bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

from repro.collectives.api import (
    ROOTED_OPS,
    check_delivery,
    collective_program,
    collective_schedule,
)
from repro.experiments.parallel import resolve_jobs
from repro.obs.instruments import service_run_finished
from repro.routing.common import is_whole
from repro.service.exec import AdmissionRun, ExecutionView
# the one-shot run of a merged program and the merge a view builds on
# read; call-site tracers (benchmarks/e2e/tracing.py) look them up on
# this module
from repro.service.exec import execute_program  # noqa: F401
from repro.service.jobs import JobResult, JobSpec
from repro.service.policies import SchedulingPolicy, resolve_policy
from repro.sim.faults import DegradedResult, FaultPlan
from repro.sim.lowering import LoweredSchedule
from repro.sim.machine import MachineParams
from repro.sim.multi import JobEntry, MergedProgram
from repro.sim.multi import merge_programs  # noqa: F401
from repro.sim.ports import PortModel
from repro.sim.result import AsyncResult
from repro.sim.schedule import Chunk, Schedule
from repro.topology.hypercube import Hypercube

__all__ = [
    "AdmissionControl",
    "CollectiveService",
    "ServiceResult",
    "pregenerate",
    "run_service",
]


#: what :func:`pregenerate` builds per key: schedule, initial holdings
#: and lowering
Pregenerated = tuple[Schedule, dict[int, set[Chunk]], LoweredSchedule]


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
            if v is None:
                continue
            # a NaN cap would compare False and never block
            if not is_whole(v) or v < 1:
                raise ValueError(
                    f"{name} must be a whole number >= 1 or None, got {v!r}"
                )

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


def _program(
    key: tuple, built: tuple[Schedule, dict[int, set[Chunk]]] | None = None
) -> Pregenerated:
    dimension, op, algorithm, source, m, b, port_value, subtree = key
    return collective_program(
        Hypercube(dimension), op, algorithm, source, m, b,
        PortModel(port_value), subtree, built=built,
    )


def pregenerate(
    keys: Iterable[tuple], jobs: int | None
) -> dict[tuple, Pregenerated]:
    """Build every distinct schedule, once, keyed by
    ``(dimension, op, algorithm, source, M, B, port value, subtree
    order)``, with its initial holdings and its lowering.

    Keys are deduplicated in first-seen order and served inline by
    :func:`~repro.collectives.api.collective_program` (``jobs=None``),
    or built in a ``jobs``-worker pool (``0`` = all cores), reassembled
    positionally, and handed to ``collective_program`` as ``built`` —
    so the worker count cannot change anything.  ``jobs`` is checked by
    :func:`repro.experiments.parallel.resolve_jobs`.  The programs are
    cached in this process, where the memo lives.
    """
    workers = 1 if jobs is None else resolve_jobs(jobs)
    todo = list(dict.fromkeys(keys))
    if workers == 1 or len(todo) <= 1:
        return {k: _program(k) for k in todo}
    with ProcessPoolExecutor(max_workers=min(workers, len(todo))) as pool:
        built = list(pool.map(_build_schedule, todo))
    return {k: _program(k, b) for k, b in zip(todo, built)}


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
    ):
        if faults is not None:
            faults.check_topology(cube)
        self.cube = cube
        self.port_model = port_model
        self.machine = machine or MachineParams()
        self.policy = resolve_policy(policy)
        self.admission = admission or AdmissionControl()
        self.faults = faults
        self.on_fault = on_fault
        self.jobs = jobs
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

    def _pregenerate(self) -> dict[tuple, Pregenerated]:
        return pregenerate(
            (self._schedule_key(s) for s in self._specs), self.jobs
        )

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
        loop = AdmissionRun(
            self.cube, self.port_model, self.machine,
            faults=self.faults, on_fault=self.on_fault,
        )
        entries: list[JobEntry] = []  # admission order
        keys: list[tuple] = []
        job_of: list[int] = []  # admission index -> job id
        tenant_link_time: dict[str, float] = {}
        in_flight_total = 0
        in_flight_tenant: dict[str, int] = {}

        def _admit(job_id: int, t: float) -> None:
            nonlocal in_flight_total
            spec = specs[job_id]
            sched, initial, low = schedules[self._schedule_key(spec)]
            key = policy.admission_key(
                spec, len(job_of), tenant_link_time.get(spec.tenant, 0.0)
            )
            entry = JobEntry(
                tag=job_id, schedule=sched, initial=initial, release=t,
                lowering=low,
            )
            loop.admit(entry, key)
            entries.append(entry)
            keys.append(key)
            job_of.append(job_id)
            results[job_id].admit_time = t
            in_flight_total += 1
            in_flight_tenant[spec.tenant] = (
                in_flight_tenant.get(spec.tenant, 0) + 1
            )

        def _drain_queue(t: float) -> None:
            """Admit every queued job the control allows."""
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

        # Without in-flight caps every job is admitted the instant it
        # arrives, and a static-key policy fixes its priority from the
        # spec and arrival order alone: nothing the engine computes can
        # change an admission, so every job joins up front and the run
        # has no admission event left to stop at.
        if ctl.unconstrained and policy.static_keys:
            for j in arrivals:
                _admit(j, specs[j].arrival)
            ai = len(arrivals)

        # Completions only matter to later admissions (in-flight slots,
        # fair-share usage): once every arrival is in and the queue is
        # empty, the run just plays out to the end.
        while ai < len(arrivals) or queue:
            next_arrival = (
                specs[arrivals[ai]].arrival if ai < len(arrivals) else math.inf
            )
            first = loop.next_completion(next_arrival)
            if first is not None:
                t = first[0]
            elif ai < len(arrivals):
                t = next_arrival
            else:
                break  # pragma: no cover - a capped queue has jobs in flight

            # 1. completions at t free slots and accrue fair-share usage
            while loop.next_completion(t) is not None:
                _, h = loop.pop_completion()
                tenant = specs[job_of[h]].tenant
                in_flight_total -= 1
                in_flight_tenant[tenant] -= 1
                tenant_link_time[tenant] = (
                    tenant_link_time.get(tenant, 0.0) + loop.link_time(h)
                )
            # 2. freed slots first serve the existing queue ...
            _drain_queue(t)
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
            _drain_queue(t)

        # -- final accounting out of the one run -----------------------
        makespan = 0.0
        program = view = None
        if job_of:
            # the merged program lists entries in key order
            order = sorted(range(len(keys)), key=keys.__getitem__)
            view = loop.view([entries[h] for h in order])
            program = view.program
            makespan = view.makespan
            positions = [0] * len(order)
            for pos, h in enumerate(order):
                positions[h] = pos
            for h, job_id in enumerate(job_of):
                r = results[job_id]
                entry = entries[h]
                pos = positions[h]
                s = view.slices[pos]
                r.start_time = s.first_start
                # a job whose every transfer was cancelled by a fault
                # resolves at its release instant
                r.finish_time = entry.release if math.isnan(s.finish) else s.finish
                r.transfers = s.executed
                r.elems = s.elems
                r.link_time = s.link_time
                r.link_stats = s.link_stats
                r.read_later((view, pos))  # holdings built on read
                r.undelivered = {} if view.job_delivered(pos) else check_delivery(
                    self.cube, r.spec.op, r.spec.source, entry.schedule,
                    r.holdings,
                )
                r.degraded = bool(r.undelivered) or s.executed < s.scheduled
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
) -> ServiceResult:
    """One-shot convenience: submit ``specs`` and run the service."""
    service = CollectiveService(
        cube, port_model, machine, policy, admission,
        faults=faults, on_fault=on_fault, jobs=jobs,
    )
    service.submit_many(specs)
    return service.run()
