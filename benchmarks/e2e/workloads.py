"""The benchmark's workloads: one cycle of op kinds each, plus per-op
input generation, the timed library call, correctness checks and the
record of simulated outputs that ``sim_digest`` hashes.

Op ``i`` of a run has kind ``kinds[i % len(kinds)]`` and draws every
random input from ``random.Random(seed + i)``, so a seed fixes the
inputs and every seed runs the same mix of kinds.  The library is
called through module attributes (``api.broadcast``,
``service.run_service``, ``wl.run_workload``) at call time, so the
wrappers ``--trace`` installs on those attributes see every call.

Sizes are chosen so that one op takes at most about a quarter of a
second on a 2-CPU box with the default (``indexed``) engine: a run
then collects the 100 samples its 90th percentile needs within the
benchmark's ``run_seconds``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import repro.collectives.api as api
import repro.service as service
import repro.workloads as wl
from repro.service import JobSpec
from repro.sim.machine import IPSC_D7
from repro.sim.ports import PortModel
from repro.topology.hypercube import Hypercube
from repro.workloads import PhaseSpec, Workload as PhaseWorkload, WorkloadDAG

__all__ = ["Workload", "WORKLOADS"]

PORT_MODELS = (PortModel.ONE_PORT_HALF, PortModel.ONE_PORT_FULL, PortModel.ALL_PORT)
HALF, FULL, ALL = PORT_MODELS


@dataclass(frozen=True)
class Workload:
    """A named workload: how to build, run, check and digest one op.

    Attributes:
        name: the name ``--workload`` takes; ``BENCHMARK.json`` says why
            each workload exists.
        kinds: ``quick -> one cycle of op kinds``; ``quick=True`` gives
            the small scale the harness self-test runs.
        make: ``(kind, rng) -> op inputs``.
        run: ``inputs -> result``: the timed library call.
        check: ``(inputs, result) -> problems``; empty means correct.
        record: ``(inputs, result) -> tuple`` of simulated outputs.
    """

    name: str
    kinds: Callable[[bool], list]
    make: Callable[[Any, random.Random], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    record: Callable[[Any, Any], tuple]


# -- single collectives (paper-grid, cube-n10, runtime-n9) -------------


@dataclass(frozen=True)
class CollectiveOp:
    op: str
    algorithm: str
    dimension: int
    message_elems: int
    packet_elems: int
    port_model: PortModel
    backend: str
    source: int


def _collective_maker(backend: str) -> Callable[[tuple, random.Random], CollectiveOp]:
    def make(kind: tuple, rng: random.Random) -> CollectiveOp:
        op, algorithm, n, m, b, pm = kind
        return CollectiveOp(op, algorithm, n, m, b, pm, backend, rng.randrange(1 << n))

    return make


def _run_collective(c: CollectiveOp) -> Any:
    fn = api.broadcast if c.op == "broadcast" else api.scatter
    extra = {"backend": "runtime"} if c.backend == "runtime" else {"run_event_sim": True}
    return fn(
        Hypercube(c.dimension), c.source, c.algorithm, c.message_elems,
        c.packet_elems, c.port_model, IPSC_D7, **extra,
    )


def _check_collective(c: CollectiveOp, r: Any) -> list[str]:
    problems = []
    if r.degraded or r.undelivered_nodes:
        problems.append("degraded result")
    # the timed execution (engine or runtime) must deliver too, not
    # only the lock-step run the API already checks
    missing = api.check_delivery(
        Hypercube(c.dimension), c.op, c.source, r.schedule, r.async_.holdings
    )
    if missing:
        problems.append(f"{len(missing)} nodes short of their chunks")
    if not (r.time > 0 and math.isfinite(r.time)):
        problems.append(f"simulated time {r.time!r}")
    return problems


def _record_collective(c: CollectiveOp, r: Any) -> tuple:
    packets = sum(r.async_.link_stats.packets.values())
    return (
        c.op, c.algorithm, c.dimension, c.source, c.message_elems,
        c.packet_elems, c.port_model.value, r.time, r.cycles, packets,
    )


def _paper_grid(quick: bool) -> list[tuple]:
    # The iPSC/d7 points of Figs. 5, 6 and 8 with n <= 7, under all three
    # port models.  Fig. 5's B = 256 points are left out: at 240 packets
    # the default engine needs up to 13 s for one of them.  Fig. 6 runs
    # at M = 16 KB (a Fig. 5 size) instead of 60 KB for the same reason.
    points = [
        ("broadcast", "sbt", n, m, b)
        for n in (2, 4, 6)
        for m, b in ((4096, 1024), (4096, 4096), (16384, 1024), (16384, 4096), (61440, 4096))
    ]
    points += [("broadcast", alg, n, 16384, 1024) for n in (2, 3, 4, 5, 6) for alg in ("sbt", "msbt")]
    points += [("scatter", alg, n, 1024, 1024) for n in (2, 3, 4, 5, 6, 7) for alg in ("sbt", "bst")]
    points = list(dict.fromkeys(points))  # Fig. 5 and Fig. 6 share some SBT points
    if quick:
        points = [p for p in points if p[2] <= 3]
    return [(*p, pm) for p in points for pm in PORT_MODELS]


def _cube_n10(quick: bool) -> list[tuple]:
    # Broadcasts only: a BST scatter at n = 10 takes 3 s (one-port) or
    # 0.3 s (all-port) on the default engine, too long for 100 samples
    # in one run; paper-grid and runtime-n9 cover BST.
    n = 4 if quick else 10
    return [
        ("broadcast", alg, n, m, 1024, pm)
        for alg, m in (("msbt", 1024), ("sbt", 2048))
        for pm in PORT_MODELS
    ]


def _runtime_n9(quick: bool) -> list[tuple]:
    n = 4 if quick else 9
    return [
        ("broadcast", "sbt", n, 64, 64, FULL),
        ("broadcast", "msbt", n, 64, 32, FULL),
        ("broadcast", "sbt", n, 64, 32, HALF),
        ("broadcast", "msbt", n, 64, 64, HALF),
        ("broadcast", "sbt", n, 64, 64, ALL),
        ("broadcast", "msbt", n, 64, 32, ALL),
        ("scatter", "bst", n, 1, 1, ALL),
    ]


# -- the multi-tenant service (service-fifo, service-fair-share) -------

#: hog-vs-mice tenants, which submit in this order, round after round:
#: (tenant, op, M, B)
_TENANTS = (
    ("hog", "broadcast", 256, 64),
    ("mouse-1", "scatter", 8, 8),
    ("mouse-2", "broadcast", 8, 8),
)
_ROUNDS = 3
#: simulated time between consecutive arrivals; each arrival is jittered
#: by up to half of it.  The named scenario draws Poisson arrivals, but a
#: fixed order keeps the per-op cost steady enough that ~200 ops give a
#: stable median.
_GAP = 100.0


@dataclass(frozen=True)
class ServiceOp:
    dimension: int
    port_model: PortModel
    specs: tuple[JobSpec, ...]


def _make_service(kind: tuple, rng: random.Random) -> ServiceOp:
    n, pm = kind
    specs = []
    for k in range(_ROUNDS * len(_TENANTS)):
        tenant, op, m, b = _TENANTS[k % len(_TENANTS)]
        specs.append(JobSpec(
            tenant=tenant, op=op, source=rng.randrange(1 << n),
            message_elems=m, packet_elems=b, arrival=(k + rng.random() / 2) * _GAP,
        ))
    return ServiceOp(n, pm, tuple(specs))


def _service_runner(policy: str) -> Callable[[ServiceOp], Any]:
    def run(s: ServiceOp) -> Any:
        return service.run_service(
            Hypercube(s.dimension), s.specs, s.port_model, policy=policy, jobs=1
        )

    return run


def _check_service(s: ServiceOp, r: Any) -> list[str]:
    problems = []
    if r.degraded:
        problems.append("degraded service run")
    for j in r.jobs:
        if not j.accepted:
            problems.append(f"job {j.job_id} rejected: {j.reject_reason}")
        elif j.degraded or j.undelivered:
            problems.append(f"job {j.job_id} degraded")
        elif not (math.isfinite(j.finish_time) and j.finish_time > j.admit_time):
            problems.append(f"job {j.job_id} finish {j.finish_time!r}")
    return problems


def _record_service(s: ServiceOp, r: Any) -> tuple:
    return (
        s.port_model.value, r.makespan,
        tuple((j.job_id, j.tenant, j.admit_time, j.finish_time, j.transfers) for j in r.jobs),
    )


# -- the workload layer (workload-moe) ----------------------------------


def _make_moe(kind: tuple, rng: random.Random) -> PhaseWorkload:
    # the moe-alltoall scenario's step DAG, on a smaller cube so one step
    # takes tens of milliseconds instead of seconds
    n, pm = kind

    def jitter(base: float) -> float:
        return base * (0.9 + 0.2 * rng.random())

    dag = WorkloadDAG((
        PhaseSpec("gate", compute=jitter(15.0)),
        PhaseSpec("dispatch", op="alltoall", algorithm="dimension-exchange",
                  message_elems=8, deps=("gate",)),
        PhaseSpec("experts", compute=jitter(50.0), deps=("dispatch",)),
        PhaseSpec("combine", op="alltoall", algorithm="dimension-exchange",
                  message_elems=8, deps=("experts",)),
        PhaseSpec("gate-grad-reduce", op="reduce", algorithm="sbt", source=0,
                  message_elems=16, packet_elems=8, deps=("combine",)),
        PhaseSpec("gate-grad-bcast", op="broadcast", algorithm="msbt", source=0,
                  message_elems=16, packet_elems=8, deps=("gate-grad-reduce",)),
    ))
    return PhaseWorkload(
        name="moe-alltoall", dimension=n, dag_builder=lambda step: dag, port_model=pm
    )


def _run_moe(w: PhaseWorkload) -> Any:
    return wl.run_workload(w, steps=1, jobs=1)


def _check_moe(w: PhaseWorkload, report: Any) -> list[str]:
    problems = []
    if report.degraded:
        problems.append("degraded workload report")
    for p in report.steps[0].phases:
        if p.degraded or p.undelivered_nodes:
            problems.append(f"phase {p.name} degraded")
        elif not (math.isfinite(p.finish) and p.finish >= p.release):
            problems.append(f"phase {p.name} finish {p.finish!r}")
    return problems


def _record_moe(w: PhaseWorkload, report: Any) -> tuple:
    step = report.steps[0]
    return (
        w.port_model.value, step.duration,
        tuple((p.name, p.ready, p.release, p.finish, p.transfers_executed) for p in step.phases),
    )


def _small_cube_kinds(quick: bool) -> list[tuple]:
    """The service and workload kinds: an n = 5 cube under each port model."""
    n = 3 if quick else 5
    return [(n, pm) for pm in PORT_MODELS]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-grid",
            _paper_grid, _collective_maker("sim"), _run_collective,
            _check_collective, _record_collective,
        ),
        Workload(
            "cube-n10",
            _cube_n10, _collective_maker("sim"), _run_collective,
            _check_collective, _record_collective,
        ),
        Workload(
            "service-fair-share",
            _small_cube_kinds, _make_service, _service_runner("fair-share"),
            _check_service, _record_service,
        ),
        Workload(
            "service-fifo",
            _small_cube_kinds, _make_service, _service_runner("fifo"),
            _check_service, _record_service,
        ),
        Workload(
            "workload-moe",
            _small_cube_kinds, _make_moe, _run_moe, _check_moe, _record_moe,
        ),
        Workload(
            "runtime-n9",
            _runtime_n9, _collective_maker("runtime"), _run_collective,
            _check_collective, _record_collective,
        ),
    )
}
