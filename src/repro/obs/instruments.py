"""The library's built-in instruments and per-subsystem flush helpers.

Every instrumented layer shares the instruments defined here (all in
the default :data:`~repro.obs.registry.REGISTRY`):

* **engines** — the event engine and the lock-step engine accumulate
  into *local* variables during a run and call
  :func:`engine_run_finished` once at the end, so the hot loops gain
  nothing but integer increments;
* **runtime** — :func:`repro.runtime.run_program` flushes through
  :func:`runtime_run_finished` when a run completes (its engine runs
  also flush the engine counters);
* **caches** — the LRUs update the ``always=True``
  cache counters synchronously (they double as the functional
  ``cache_stats()`` API, so they keep counting while telemetry is
  disabled);
* **sweeps** — the executor folds its per-point telemetry in through
  :func:`sweep_finished`, including the worker-process cache deltas
  that would otherwise die with the pool.

Naming follows Prometheus conventions: ``repro_`` prefix, ``_total``
suffix on counters, ``_seconds`` on timings.
"""

from __future__ import annotations

from typing import Any

from repro.obs.registry import REGISTRY

__all__ = [
    "CACHE_OPS",
    "COLLECTIVE_PHASE_SECONDS",
    "COLLECTIVE_RUNS",
    "ENGINE_ADMISSION_BLOCKS",
    "ENGINE_DEADLOCKS",
    "ENGINE_ELEMS",
    "ENGINE_EVENTS",
    "ENGINE_FAULTED_TRANSFERS",
    "ENGINE_RUN_SECONDS",
    "ENGINE_TABLE_BYTES_PEAK",
    "ENGINE_TRANSFERS",
    "RUNTIME_ELEMS",
    "RUNTIME_FAULTED_TRANSFERS",
    "RUNTIME_PACKETS",
    "RUNTIME_REPAIR_ROUNDS",
    "RUNTIME_RUN_SECONDS",
    "RUNTIME_TIMEOUTS",
    "SERVICE_COMPLETION_TIME",
    "SERVICE_JOBS",
    "SERVICE_QUANTILES",
    "SERVICE_QUEUEING_DELAY",
    "SERVICE_RUN_SECONDS",
    "SIM_TIME_BUCKETS",
    "SWEEP_CACHE_OPS",
    "SWEEP_POINT_SECONDS",
    "SWEEP_POINTS",
    "SWEEP_RUNS",
    "SWEEP_WALL_SECONDS",
    "SWEEP_WORKER_UTILIZATION",
    "WORKLOAD_LINK_UTILIZATION",
    "WORKLOAD_PHASES",
    "WORKLOAD_RUN_SECONDS",
    "WORKLOAD_STEP_TIME",
    "WORKLOAD_STEPS",
    "WORKLOAD_STRAGGLER_RATIO",
    "engine_run_finished",
    "runtime_run_finished",
    "service_run_finished",
    "sweep_finished",
    "workload_run_finished",
]

# -- engines ----------------------------------------------------------

ENGINE_EVENTS = REGISTRY.counter(
    "repro_engine_events_total",
    "Event-loop examinations processed by the async engine.",
    ("engine",),
)
ENGINE_TRANSFERS = REGISTRY.counter(
    "repro_engine_transfers_total",
    "Transfers (packets) executed by the simulation engines.",
    ("engine", "port_model"),
)
ENGINE_ELEMS = REGISTRY.counter(
    "repro_engine_elems_total",
    "Elements moved by the simulation engines.",
    ("engine", "port_model"),
)
ENGINE_ADMISSION_BLOCKS = REGISTRY.counter(
    "repro_engine_admission_blocks_total",
    "Transfer starts deferred by port-model admission or link serialization.",
    ("engine", "port_model"),
)
ENGINE_DEADLOCKS = REGISTRY.counter(
    "repro_engine_deadlocks_total",
    "Runs terminated by a deadlock diagnosis.",
    ("engine",),
)
ENGINE_FAULTED_TRANSFERS = REGISTRY.counter(
    "repro_engine_faulted_transfers_total",
    "Transfers cancelled by dead links/nodes (report mode).",
    ("engine",),
)
ENGINE_RUN_SECONDS = REGISTRY.histogram(
    "repro_engine_run_seconds",
    "Wall-clock seconds per engine run.",
    ("engine",),
)
ENGINE_TABLE_BYTES_PEAK = REGISTRY.gauge(
    "repro_engine_table_bytes_peak",
    "Largest lowered-schedule table (bytes) seen by the vectorized engine.",
)

# -- distributed runtime ----------------------------------------------

RUNTIME_PACKETS = REGISTRY.counter(
    "repro_runtime_packets_total",
    "Packets the runtime moved (each is one send and one receive).",
)
RUNTIME_ELEMS = REGISTRY.counter(
    "repro_runtime_elems_total",
    "Elements the runtime moved.",
)
RUNTIME_TIMEOUTS = REGISTRY.counter(
    "repro_runtime_receive_timeouts_total",
    "Receive timeouts fired on starved nodes (repair mode).",
)
RUNTIME_REPAIR_ROUNDS = REGISTRY.counter(
    "repro_runtime_repair_rounds_total",
    "Survivor-tree repair rounds executed.",
)
RUNTIME_FAULTED_TRANSFERS = REGISTRY.counter(
    "repro_runtime_faulted_transfers_total",
    "Runtime sends lost to dead links/nodes.",
)
RUNTIME_RUN_SECONDS = REGISTRY.histogram(
    "repro_runtime_run_seconds",
    "Wall-clock seconds per virtual-cluster run.",
)

# -- caches (always-on: these back repro.cache.cache_stats()) ---------

CACHE_OPS = REGISTRY.counter(
    "repro_cache_ops_total",
    "Cache operations per cache instance (hit/miss/eviction).",
    ("cache", "op"),
    always=True,
)

# -- sweep executor ---------------------------------------------------

SWEEP_RUNS = REGISTRY.counter(
    "repro_sweep_runs_total",
    "Sweeps executed.",
    ("executor",),
)
SWEEP_POINTS = REGISTRY.counter(
    "repro_sweep_points_total",
    "Sweep points executed.",
    ("executor",),
)
SWEEP_POINT_SECONDS = REGISTRY.histogram(
    "repro_sweep_point_seconds",
    "Per-point wall-clock seconds (measured inside the worker).",
)
SWEEP_WALL_SECONDS = REGISTRY.histogram(
    "repro_sweep_wall_seconds",
    "End-to-end wall-clock seconds per sweep.",
)
SWEEP_WORKER_UTILIZATION = REGISTRY.gauge(
    "repro_sweep_worker_utilization",
    "point_wall_s / (wall_s * jobs) of the most recent sweep.",
)
SWEEP_CACHE_OPS = REGISTRY.counter(
    "repro_sweep_cache_ops_total",
    "Cache ops summed over sweep workers (their registries die with the pool).",
    ("layer", "op"),
)

# -- multi-tenant service ---------------------------------------------

#: histogram buckets in *simulated* time units — queueing delays and
#: completion times scale with M/B and the machine's tau/t_c, so the
#: range spans sub-unit waits to very long saturated-cube tails
SIM_TIME_BUCKETS: tuple[float, ...] = (
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 5e5, 1e6,
)

SERVICE_JOBS = REGISTRY.counter(
    "repro_service_jobs_total",
    "Collective jobs handled by the multi-tenant service.",
    ("tenant", "policy", "outcome"),
)
SERVICE_QUEUEING_DELAY = REGISTRY.histogram(
    "repro_service_queueing_delay",
    "Simulated time between a job's arrival and its admission.",
    ("tenant", "policy"),
    buckets=SIM_TIME_BUCKETS,
)
SERVICE_COMPLETION_TIME = REGISTRY.histogram(
    "repro_service_completion_time",
    "Simulated time between a job's arrival and its last delivery.",
    ("tenant", "policy"),
    buckets=SIM_TIME_BUCKETS,
)
SERVICE_QUANTILES = REGISTRY.gauge(
    "repro_service_quantiles",
    "Exact per-run quantiles of the service latency distributions.",
    ("tenant", "policy", "metric", "quantile"),
)
SERVICE_RUN_SECONDS = REGISTRY.histogram(
    "repro_service_run_seconds",
    "Wall-clock seconds per service run (admission loop + engine).",
)

# -- workloads --------------------------------------------------------

WORKLOAD_STEPS = REGISTRY.counter(
    "repro_workload_steps_total",
    "Workload steps executed.",
    ("workload", "outcome"),
)
WORKLOAD_PHASES = REGISTRY.counter(
    "repro_workload_phases_total",
    "Workload phases executed, by phase kind / collective op.",
    ("workload", "kind"),
)
WORKLOAD_STEP_TIME = REGISTRY.histogram(
    "repro_workload_step_time",
    "Simulated duration per workload step.",
    ("workload",),
    buckets=SIM_TIME_BUCKETS,
)
WORKLOAD_LINK_UTILIZATION = REGISTRY.gauge(
    "repro_workload_link_utilization",
    "Per-link utilization of the most recent workload run's steps.",
    ("workload", "stat"),
)
WORKLOAD_STRAGGLER_RATIO = REGISTRY.gauge(
    "repro_workload_straggler_ratio",
    "max/median node-lag ratio of the most recent workload run (worst step).",
    ("workload",),
)
WORKLOAD_RUN_SECONDS = REGISTRY.histogram(
    "repro_workload_run_seconds",
    "Wall-clock seconds per workload run (dependency loop + engine).",
)

# -- collectives ------------------------------------------------------

COLLECTIVE_RUNS = REGISTRY.counter(
    "repro_collective_runs_total",
    "High-level collective operations executed.",
    ("op", "algorithm", "backend", "topology"),
)
COLLECTIVE_PHASE_SECONDS = REGISTRY.histogram(
    "repro_collective_phase_seconds",
    "Wall-clock seconds per collective phase (schedule/sync/async/runtime).",
    ("phase",),
)


def engine_run_finished(
    engine: str,
    port_model: Any,
    *,
    transfers: int,
    elems: int,
    seconds: float,
    events: int = 0,
    admission_blocks: int = 0,
    faulted: int = 0,
    deadlocked: bool = False,
    table_bytes: int = 0,
) -> None:
    """Flush one engine run's locally accumulated counters.

    Called once per :func:`repro.sim.run_async` /
    :func:`repro.sim.synchronous.run_synchronous` invocation (including
    aborted ones), so the engines' inner loops never touch the registry.
    """
    if not REGISTRY.enabled:
        return
    pm = getattr(port_model, "value", str(port_model))
    ENGINE_TRANSFERS.labels(engine=engine, port_model=pm).inc(transfers)
    ENGINE_ELEMS.labels(engine=engine, port_model=pm).inc(elems)
    if events:
        ENGINE_EVENTS.labels(engine=engine).inc(events)
    if admission_blocks:
        ENGINE_ADMISSION_BLOCKS.labels(engine=engine, port_model=pm).inc(
            admission_blocks
        )
    if faulted:
        ENGINE_FAULTED_TRANSFERS.labels(engine=engine).inc(faulted)
    if deadlocked:
        ENGINE_DEADLOCKS.labels(engine=engine).inc()
    if table_bytes > ENGINE_TABLE_BYTES_PEAK.value:
        ENGINE_TABLE_BYTES_PEAK.set(table_bytes)
    ENGINE_RUN_SECONDS.labels(engine=engine).observe(seconds)


def runtime_run_finished(
    *,
    packets: int,
    elems: int,
    seconds: float,
    timeouts: int = 0,
    repair_rounds: int = 0,
    faulted: int = 0,
) -> None:
    """Flush one runtime run's counters (called by ``run_program``)."""
    if not REGISTRY.enabled:
        return
    RUNTIME_PACKETS.inc(packets)
    RUNTIME_ELEMS.inc(elems)
    if timeouts:
        RUNTIME_TIMEOUTS.inc(timeouts)
    if repair_rounds:
        RUNTIME_REPAIR_ROUNDS.inc(repair_rounds)
    if faulted:
        RUNTIME_FAULTED_TRANSFERS.inc(faulted)
    RUNTIME_RUN_SECONDS.observe(seconds)


def service_run_finished(result: Any, *, seconds: float) -> None:
    """Flush one service run's telemetry (a ``ServiceResult``-like).

    Observes every completed job's queueing delay and completion time
    into the per-tenant histograms and publishes the run's *exact*
    p50/p99 (computed from the raw samples by
    ``ServiceResult.latency_summary``) as quantile gauges — the bucket
    histograms give the shape, the gauges give the numbers CI asserts
    on.
    """
    if not REGISTRY.enabled:
        return
    policy = result.policy
    for job in result.jobs:
        outcome = (
            "rejected" if not job.accepted
            else "degraded" if job.degraded
            else "completed"
        )
        SERVICE_JOBS.labels(
            tenant=job.tenant, policy=policy, outcome=outcome
        ).inc()
        if not job.accepted:
            continue
        SERVICE_QUEUEING_DELAY.labels(
            tenant=job.tenant, policy=policy
        ).observe(job.queueing_delay)
        SERVICE_COMPLETION_TIME.labels(
            tenant=job.tenant, policy=policy
        ).observe(job.completion_time)
    for tenant, summary in result.latency_summary().items():
        for metric in ("completion_time", "queueing_delay"):
            for quantile in ("p50", "p99"):
                SERVICE_QUANTILES.labels(
                    tenant=tenant, policy=policy,
                    metric=metric, quantile=quantile,
                ).set(summary[metric][quantile])
    SERVICE_RUN_SECONDS.observe(seconds)


def workload_run_finished(report: Any, *, seconds: float) -> None:
    """Flush one workload run's telemetry (a ``WorkloadReport``-like).

    Wall-clock time lives *only* here — the report object itself is
    pure simulated time so the determinism suite can fingerprint it.
    """
    if not REGISTRY.enabled:
        return
    import math

    name = report.workload
    util_max = 0.0
    util_mean_worst = 0.0
    ratio_worst = float("nan")
    for step in report.steps:
        outcome = "degraded" if step.degraded else "completed"
        WORKLOAD_STEPS.labels(workload=name, outcome=outcome).inc()
        WORKLOAD_STEP_TIME.labels(workload=name).observe(step.duration)
        for phase in step.phases:
            kind = phase.op if phase.op is not None else "compute"
            WORKLOAD_PHASES.labels(workload=name, kind=kind).inc()
        util_max = max(util_max, step.link_utilization.max)
        util_mean_worst = max(util_mean_worst, step.link_utilization.mean)
        r = step.stragglers.ratio
        if not math.isnan(r) and (math.isnan(ratio_worst) or r > ratio_worst):
            ratio_worst = r
    WORKLOAD_LINK_UTILIZATION.labels(workload=name, stat="max").set(util_max)
    WORKLOAD_LINK_UTILIZATION.labels(workload=name, stat="mean").set(
        util_mean_worst
    )
    if not math.isnan(ratio_worst):
        WORKLOAD_STRAGGLER_RATIO.labels(workload=name).set(ratio_worst)
    WORKLOAD_RUN_SECONDS.observe(seconds)


def sweep_finished(stats: Any) -> None:
    """Flush one sweep execution's telemetry (a ``SweepStats``-like).

    The per-point cache deltas were measured inside the worker
    processes; folding them into ``SWEEP_CACHE_OPS`` here is what keeps
    them visible after the pool exits.
    """
    if not REGISTRY.enabled:
        return
    SWEEP_RUNS.labels(executor=stats.executor).inc()
    SWEEP_POINTS.labels(executor=stats.executor).inc(stats.num_points)
    for point in stats.points:
        SWEEP_POINT_SECONDS.observe(point.wall_s)
    SWEEP_WALL_SECONDS.observe(stats.wall_s)
    if stats.wall_s > 0 and stats.jobs > 0:
        SWEEP_WORKER_UTILIZATION.set(
            min(1.0, stats.point_wall_s / (stats.wall_s * stats.jobs))
        )
    if stats.lru_hits:
        SWEEP_CACHE_OPS.labels(layer="lru", op="hit").inc(stats.lru_hits)
    if stats.lru_misses:
        SWEEP_CACHE_OPS.labels(layer="lru", op="miss").inc(stats.lru_misses)
