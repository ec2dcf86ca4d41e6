"""Step reports: what a workload run tells you about itself.

Everything in these dataclasses — and in every ``to_dict()`` — is a
*simulated-time* quantity derived from the engine run.  Wall-clock
seconds are deliberately absent: the step report is the artifact the
determinism suite fingerprints byte-for-byte across runs, worker
counts and start methods, and wall time would break that.  Wall time
goes to the observability registry instead
(:func:`repro.obs.instruments.workload_run_finished`).

Three layers:

* :class:`PhaseReport` — one phase's timing (ready / release / finish),
  traffic and delivery outcome.
* :class:`StepReport` — one step: all its phases plus the three derived
  analyses the workload layer exists for — per-link utilization,
  critical-path breakdown (compute vs. communication along the path
  that sets the step time), and straggler analysis (which nodes saw
  their last byte latest, and by how much).
* :class:`WorkloadReport` — the whole run: per-step reports plus run
  totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "PhaseReport",
    "StepReport",
    "WorkloadReport",
    "LinkUtilization",
    "StragglerReport",
    "CriticalPath",
]


@dataclass
class PhaseReport:
    """One phase's outcome within a step.

    Times are absolute simulated instants (the run's clock, not the
    step's): ``ready`` = when the last dependency finished (step start
    for roots), ``release`` = ``ready + compute`` = when communication
    may begin, ``finish`` = when the phase's last transfer ended (for a
    compute phase: ``release``).

    ``comm_time`` is ``finish - release`` — it includes contention
    stalls against concurrent phases, which is exactly the number the
    critical-path breakdown needs.
    """

    name: str
    kind: str
    op: str | None
    algorithm: str | None
    ready: float
    release: float
    finish: float
    compute: float
    transfers_scheduled: int = 0
    transfers_executed: int = 0
    elems: int = 0
    link_time: float = 0.0
    degraded: bool = False
    undelivered_nodes: tuple[int, ...] = ()

    @property
    def comm_time(self) -> float:
        """Time from communication release to last delivery."""
        return self.finish - self.release

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "op": self.op,
            "algorithm": self.algorithm,
            "ready": self.ready,
            "release": self.release,
            "finish": self.finish,
            "compute": self.compute,
            "comm_time": self.comm_time,
            "transfers_scheduled": self.transfers_scheduled,
            "transfers_executed": self.transfers_executed,
            "elems": self.elems,
            "link_time": self.link_time,
            "degraded": self.degraded,
            "undelivered_nodes": list(self.undelivered_nodes),
        }


@dataclass
class LinkUtilization:
    """Per-link busy-time summary of one step.

    Utilization of a directed link = its busy time over the step
    duration; ``mean`` averages over *used* links only (a mostly idle
    cube would otherwise drown the signal in zeros).
    """

    links_used: int = 0
    max: float = 0.0
    mean: float = 0.0
    busiest: tuple[tuple[str, float], ...] = ()

    def to_dict(self) -> dict:
        return {
            "links_used": self.links_used,
            "max": self.max,
            "mean": self.mean,
            "busiest": [[edge, util] for edge, util in self.busiest],
        }


@dataclass
class StragglerReport:
    """Which nodes finished receiving latest, and by how much.

    ``lag`` of a node = last delivery instant at the node minus the
    step start.  ``ratio`` = ``max_lag / median_lag`` — the classic
    straggler indicator: ~1 means the step finishes evenly, > 1 means
    a tail of nodes (fault reroutes, contended links) holds the step
    open after the median node is done.
    """

    nodes_observed: int = 0
    max_lag: float = float("nan")
    median_lag: float = float("nan")
    ratio: float = float("nan")
    slowest: tuple[tuple[int, float], ...] = ()

    def to_dict(self) -> dict:
        return {
            "nodes_observed": self.nodes_observed,
            "max_lag": self.max_lag,
            "median_lag": self.median_lag,
            "ratio": self.ratio,
            "slowest": [[node, lag] for node, lag in self.slowest],
        }


@dataclass
class CriticalPath:
    """The dependency chain that sets the step duration.

    Found by walking back from the latest-finishing phase through, at
    each phase, the dependency that finished last.  Because a phase
    becomes ready the instant its last dependency finishes, the path
    segments tile the step exactly:
    ``duration == compute_time + comm_time`` (up to float addition).
    """

    phases: tuple[str, ...] = ()
    compute_time: float = 0.0
    comm_time: float = 0.0

    @property
    def length(self) -> int:
        return len(self.phases)

    def to_dict(self) -> dict:
        return {
            "phases": list(self.phases),
            "compute_time": self.compute_time,
            "comm_time": self.comm_time,
        }


@dataclass
class StepReport:
    """One workload step, fully accounted.

    Attributes:
        step: step index (0-based).
        start: absolute simulated instant the step began.
        duration: ``end - start``.
        phases: per-phase reports, in the DAG's declaration order.
        link_utilization: busy-time summary over the step's links.
        critical_path: the chain that set the duration.
        stragglers: per-node last-delivery lag analysis.
    """

    step: int
    start: float
    duration: float
    phases: list[PhaseReport] = field(default_factory=list)
    link_utilization: LinkUtilization = field(default_factory=LinkUtilization)
    critical_path: CriticalPath = field(default_factory=CriticalPath)
    stragglers: StragglerReport = field(default_factory=StragglerReport)

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def degraded(self) -> bool:
        """True when any phase lost transfers or deliveries."""
        return any(p.degraded for p in self.phases)

    def phase(self, name: str) -> PhaseReport:
        """The report of the phase called ``name``."""
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "start": self.start,
            "duration": self.duration,
            "end": self.end,
            "degraded": self.degraded,
            "phases": [p.to_dict() for p in self.phases],
            "link_utilization": self.link_utilization.to_dict(),
            "critical_path": self.critical_path.to_dict(),
            "stragglers": self.stragglers.to_dict(),
        }


@dataclass
class WorkloadReport:
    """Outcome of a whole workload run.

    The public result object of :func:`repro.workloads.run_workload`;
    ``to_dict()`` is the ``--metrics-json`` workload block and the
    determinism fingerprint.
    """

    workload: str
    dimension: int
    steps: list[StepReport] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def makespan(self) -> float:
        """Simulated completion time of the whole run."""
        return self.steps[-1].end if self.steps else 0.0

    @property
    def degraded(self) -> bool:
        return any(s.degraded for s in self.steps)

    def step_durations(self) -> list[float]:
        return [s.duration for s in self.steps]

    def summary(self) -> dict:
        """Run-level aggregates of the per-step numbers."""
        durs = self.step_durations()
        comm = sum(s.critical_path.comm_time for s in self.steps)
        comp = sum(s.critical_path.compute_time for s in self.steps)
        ratios = sorted(
            s.stragglers.ratio
            for s in self.steps
            if not math.isnan(s.stragglers.ratio)
        )
        return {
            "steps": len(durs),
            "makespan": self.makespan,
            "step_time_mean": sum(durs) / len(durs) if durs else 0.0,
            "step_time_max": max(durs, default=0.0),
            "critical_compute_time": comp,
            "critical_comm_time": comm,
            "straggler_ratio_max": ratios[-1] if ratios else float("nan"),
            "degraded_steps": sum(1 for s in self.steps if s.degraded),
        }

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "dimension": self.dimension,
            "summary": self.summary(),
            "steps": [s.to_dict() for s in self.steps],
        }
