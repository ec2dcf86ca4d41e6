"""The workload DAG model: collective phases with compute gaps.

Real training traffic is not one collective at a time — it is a *graph*
of them.  A data-parallel step interleaves compute with a gradient
allreduce (reduce-to-root + broadcast over the paper's trees), a
pipeline step chains activation transfers between stage roots, an MoE
step brackets expert compute with two alltoall exchanges, and
background "mice" flows ride along with no dependencies at all.

This module is the declarative half of that model:

* :class:`PhaseSpec` — one DAG node: either a **collective phase**
  (any op of :data:`repro.collectives.SCHEDULE_OPS`, built and lowered
  by :func:`repro.collectives.collective_program` at execution time)
  or a **compute phase** (``op=None``: a pure simulated-time gap).
  Every phase may carry a ``compute`` gap that elapses after its
  dependencies finish and before its communication starts — compute
  phases are the degenerate case with no communication at all.
* :class:`WorkloadDAG` — an immutable, validated set of phases:
  unique names, known dependencies, acyclic, with a deterministic
  topological order (declaration order among ready phases).
* :class:`Workload` — a multi-step workload: a cube dimension plus a
  per-step DAG builder (steps are serial; step ``s+1`` starts when
  every phase of step ``s`` has finished), and the fault/port/machine
  context the steps run under.

Execution lives in :mod:`repro.workloads.exec`; named, seeded
workloads in :mod:`repro.workloads.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Callable

from repro.collectives.api import ROOTED_OPS, SCHEDULE_OPS
from repro.routing.common import is_whole
from repro.routing.scatter_bst import check_subtree_order
from repro.sim.faults import FaultPlan
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel

__all__ = ["PhaseSpec", "WorkloadDAG", "Workload"]


@dataclass(frozen=True)
class PhaseSpec:
    """One node of a workload DAG.

    Attributes:
        name: phase identity, unique within its DAG (dependency target
            and report key).
        op: collective kind from
            :data:`repro.collectives.SCHEDULE_OPS`, or ``None`` for a
            pure compute phase.
        algorithm: algorithm within the op (``None`` = the op default,
            see :data:`repro.collectives.api.DEFAULT_ALGORITHMS`).
        source: root node (rooted ops only).
        message_elems: message size ``M`` (per destination for the
            personalized ops).
        packet_elems: maximum packet size ``B`` (default ``M``).
        subtree_order: BST in-subtree transmission order (§5.2).
        compute: simulated compute gap between the instant every
            dependency has finished and the instant this phase's
            communication may start (for a compute phase: its entire
            duration).  Also how mice flows stagger their start inside
            a step: a root phase's ``compute`` is its arrival offset.
        deps: names of phases that must finish first.
    """

    name: str
    op: str | None = None
    algorithm: str | None = None
    source: int = 0
    message_elems: int = 1
    packet_elems: int | None = None
    subtree_order: str = "depth_first"
    compute: float = 0.0
    deps: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("phase name must be non-empty")
        if self.op is not None and self.op not in SCHEDULE_OPS:
            raise ValueError(
                f"phase {self.name!r}: op must be None or one of "
                f"{SCHEDULE_OPS}, got {self.op!r}"
            )
        if isinstance(self.compute, bool) or not (
            isfinite(self.compute) and self.compute >= 0
        ):
            raise ValueError(
                f"phase {self.name!r}: compute must be >= 0 and finite, "
                f"got {self.compute}"
            )
        if not is_whole(self.message_elems):
            raise ValueError(
                f"phase {self.name!r}: message_elems must be a whole "
                f"number, got {self.message_elems!r}"
            )
        if self.message_elems < 1:
            raise ValueError(
                f"phase {self.name!r}: message_elems must be >= 1, "
                f"got {self.message_elems}"
            )
        if self.packet_elems is not None and not (
            is_whole(self.packet_elems) and self.packet_elems >= 1
        ):
            raise ValueError(
                f"phase {self.name!r}: packet_elems must be a whole number "
                f">= 1 or None, got {self.packet_elems!r}"
            )
        if len(set(self.deps)) != len(self.deps):
            raise ValueError(
                f"phase {self.name!r}: duplicate dependencies {self.deps}"
            )
        check_subtree_order(self.subtree_order)

    @property
    def kind(self) -> str:
        """``"collective"`` or ``"compute"``."""
        return "compute" if self.op is None else "collective"

    @property
    def rooted(self) -> bool:
        """True when ``source`` names a root node."""
        return self.op in ROOTED_OPS


@dataclass(frozen=True)
class WorkloadDAG:
    """A validated DAG of phases (one workload step).

    Raises:
        ValueError: on duplicate phase names, unknown dependencies, or
            a dependency cycle.
    """

    phases: tuple[PhaseSpec, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a workload DAG needs at least one phase")
        names = [p.name for p in self.phases]
        seen: set[str] = set()
        for n in names:
            if n in seen:
                raise ValueError(f"duplicate phase name {n!r}")
            seen.add(n)
        for p in self.phases:
            for d in p.deps:
                if d not in seen:
                    raise ValueError(
                        f"phase {p.name!r} depends on unknown phase {d!r}"
                    )
        self.topological()  # raises on cycles

    def __len__(self) -> int:
        return len(self.phases)

    def phase(self, name: str) -> PhaseSpec:
        """The phase registered under ``name``."""
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)

    def successors(self) -> dict[str, tuple[str, ...]]:
        """name -> names of phases depending on it (declaration order)."""
        out: dict[str, list[str]] = {p.name: [] for p in self.phases}
        for p in self.phases:
            for d in p.deps:
                out[d].append(p.name)
        return {k: tuple(v) for k, v in out.items()}

    def topological(self) -> tuple[PhaseSpec, ...]:
        """Phases in a deterministic topological order.

        Kahn's algorithm with declaration order breaking ties, so the
        order — and everything downstream that consumes it, like
        merged-program priority — is a pure function of the spec.
        """
        remaining = {p.name: set(p.deps) for p in self.phases}
        order: list[PhaseSpec] = []
        emitted: set[str] = set()
        while remaining:
            ready = [
                p for p in self.phases
                if p.name in remaining and not (remaining[p.name] - emitted)
            ]
            if not ready:
                cyclic = sorted(remaining)
                raise ValueError(
                    f"dependency cycle among phases {cyclic}"
                )
            for p in ready:
                order.append(p)
                emitted.add(p.name)
                del remaining[p.name]
        return tuple(order)

    @property
    def collective_phases(self) -> tuple[PhaseSpec, ...]:
        """The phases that move data, in declaration order."""
        return tuple(p for p in self.phases if p.op is not None)


@dataclass(frozen=True)
class Workload:
    """A multi-step workload on one cube.

    Attributes:
        name: workload identity (report + metrics label).
        dimension: hypercube dimension every phase runs on.
        dag_builder: ``step index -> WorkloadDAG`` — pure and
            deterministic (seeded scenarios close over their RNG
            derivation, never over shared mutable state), so the same
            workload object always produces the same step DAGs.
        port_model: port model all schedules are generated for.
        machine: cost parameters (default unit costs).
        faults: dead links/nodes active during the run.
        on_fault: ``"raise"`` (default) or ``"report"`` — with
            ``"report"``, phases crossing dead hardware degrade and the
            step report marks them, nothing crashes.
    """

    name: str
    dimension: int
    dag_builder: Callable[[int], WorkloadDAG]
    port_model: PortModel = PortModel.ONE_PORT_FULL
    machine: MachineParams | None = None
    faults: FaultPlan | None = field(default=None)
    on_fault: str = "raise"

    def dag(self, step: int) -> WorkloadDAG:
        """The DAG for step ``step`` (0-based)."""
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        return self.dag_builder(step)
