"""Named, seeded workload scenarios for the CLI and CI.

A :class:`WorkloadScenario` bundles a cube size with a seeded workload
builder, so a full training-style run is reproducible from its name +
seed alone (``repro workload run --scenario dp-train-n10 --seed 7``).
The builders are pure: the same ``(name, seed)`` always yields the
same per-step DAGs, byte for byte — the determinism suite pins this.

Registry (``WORKLOAD_SCENARIOS``, listing order):

==================== ==================================================
``dp-train-n10``     n=10 data-parallel training step: forward +
                     two-bucket backward, each gradient bucket
                     allreduced (SBT reduce + MSBT broadcast) as soon
                     as its backward half finishes — buckets overlap
                     each other and the remaining backward compute
``moe-alltoall``     n=8 expert-parallel step: gate, alltoall
                     dispatch, expert compute, alltoall combine, then
                     the gate-weight allreduce
``pipeline-4stage``  n=8 pipeline step: four stages, each a compute
                     gap followed by a BST scatter of activations from
                     the stage root, each stage waiting for the
                     previous one (a serial chain)
``train-under-faults`` the dp-train step on n=8 with two dead links
                     (``on_fault="report"``): degraded phases are
                     reported, nothing crashes
``train-with-mice``  the dp-train step on n=8 plus background "mice"
                     broadcasts with seeded arrival offsets and
                     sources, contending with the gradient traffic
==================== ==================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.experiments.registry import ScenarioRegistry
from repro.sim.faults import FaultPlan
from repro.workloads.dag import PhaseSpec, Workload, WorkloadDAG

__all__ = ["WorkloadScenario", "WORKLOAD_SCENARIOS", "get_workload_scenario"]


@dataclass(frozen=True)
class WorkloadScenario:
    """A named, seeded workload on a fixed cube size.

    Attributes:
        name: registry key.
        description: one-line summary for ``repro workload list``.
        dimension: hypercube dimension of the workload.
        builder: ``seed -> Workload`` (pure, deterministic).
    """

    name: str
    description: str
    dimension: int
    builder: Callable[[int], "Workload"]

    def build(self, seed: int = 0) -> "Workload":
        """The scenario's workload for ``seed``."""
        return self.builder(seed)


def _dp_train_phases(
    seed: int, step: int, dimension: int,
    grad_elems: int = 64, packet_elems: int = 16,
) -> tuple[PhaseSpec, ...]:
    """The shared data-parallel training step skeleton.

    Forward, two backward halves, and per half a gradient-bucket
    allreduce — spelled as the paper's composition, an SBT reduce (the
    reverse broadcast) into a root followed by an MSBT broadcast out of
    it.  Bucket 1 (produced by the *first* backward half: backward
    walks the layers in reverse) overlaps both the second backward half
    and bucket 0's communication.  Compute gaps get a small seeded
    per-step jitter, like real step-time variation.
    """
    rng = random.Random(f"{seed}:dp:{step}")
    jitter = lambda base: base * (0.9 + 0.2 * rng.random())  # noqa: E731
    root0, root1 = 0, (1 << dimension) - 1
    return (
        PhaseSpec("fwd", compute=jitter(40.0)),
        PhaseSpec("bwd-upper", compute=jitter(30.0), deps=("fwd",)),
        PhaseSpec("bwd-lower", compute=jitter(30.0), deps=("bwd-upper",)),
        PhaseSpec(
            "grad1-reduce", op="reduce", algorithm="sbt", source=root1,
            message_elems=grad_elems, packet_elems=packet_elems,
            deps=("bwd-upper",),
        ),
        PhaseSpec(
            "grad1-bcast", op="broadcast", algorithm="msbt", source=root1,
            message_elems=grad_elems, packet_elems=packet_elems,
            deps=("grad1-reduce",),
        ),
        PhaseSpec(
            "grad0-reduce", op="reduce", algorithm="sbt", source=root0,
            message_elems=grad_elems, packet_elems=packet_elems,
            deps=("bwd-lower",),
        ),
        PhaseSpec(
            "grad0-bcast", op="broadcast", algorithm="msbt", source=root0,
            message_elems=grad_elems, packet_elems=packet_elems,
            deps=("grad0-reduce",),
        ),
        PhaseSpec(
            "optimizer", compute=jitter(20.0),
            deps=("grad0-bcast", "grad1-bcast"),
        ),
    )


def _dp_train_n10(seed: int) -> Workload:
    def build(step: int) -> WorkloadDAG:
        return WorkloadDAG(_dp_train_phases(seed, step, 10))

    return Workload(name="dp-train-n10", dimension=10, dag_builder=build)


def _pipeline_4stage(seed: int) -> Workload:
    dimension = 8
    stage_span = (1 << dimension) // 4

    def build(step: int) -> WorkloadDAG:
        rng = random.Random(f"{seed}:pipe:{step}")
        phases: list[PhaseSpec] = []
        prev: tuple[str, ...] = ()
        for stage in range(4):
            comp = f"stage{stage}-compute"
            xfer = f"stage{stage}-acts"
            phases.append(PhaseSpec(
                comp, compute=25.0 * (0.9 + 0.2 * rng.random()), deps=prev,
            ))
            phases.append(PhaseSpec(
                xfer, op="scatter", algorithm="bst",
                source=stage * stage_span, message_elems=32,
                packet_elems=16, deps=(comp,),
            ))
            prev = (xfer,)
        return WorkloadDAG(tuple(phases))

    return Workload(
        name="pipeline-4stage", dimension=dimension, dag_builder=build
    )


def _moe_alltoall(seed: int) -> Workload:
    dimension = 8

    def build(step: int) -> WorkloadDAG:
        rng = random.Random(f"{seed}:moe:{step}")
        jitter = lambda base: base * (0.9 + 0.2 * rng.random())  # noqa: E731
        return WorkloadDAG((
            PhaseSpec("gate", compute=jitter(15.0)),
            PhaseSpec(
                "dispatch", op="alltoall", algorithm="dimension-exchange",
                message_elems=8, deps=("gate",),
            ),
            PhaseSpec("experts", compute=jitter(50.0), deps=("dispatch",)),
            PhaseSpec(
                "combine", op="alltoall", algorithm="dimension-exchange",
                message_elems=8, deps=("experts",),
            ),
            PhaseSpec(
                "gate-grad-reduce", op="reduce", algorithm="sbt",
                source=0, message_elems=16, packet_elems=8,
                deps=("combine",),
            ),
            PhaseSpec(
                "gate-grad-bcast", op="broadcast", algorithm="msbt",
                source=0, message_elems=16, packet_elems=8,
                deps=("gate-grad-reduce",),
            ),
        ))

    return Workload(
        name="moe-alltoall", dimension=dimension, dag_builder=build
    )


def _train_with_mice(seed: int) -> Workload:
    dimension = 8

    def build(step: int) -> WorkloadDAG:
        phases = list(_dp_train_phases(
            seed, step, dimension, grad_elems=48, packet_elems=16,
        ))
        # background mice: small root-only broadcasts with no deps —
        # their compute gap is the seeded arrival offset into the step
        rng = random.Random(f"{seed}:mice:{step}")
        for i in range(3):
            phases.append(PhaseSpec(
                f"mice{i}", op="broadcast", algorithm="sbt",
                source=rng.randrange(1 << dimension),
                message_elems=1 + rng.randrange(4),
                compute=rng.uniform(0.0, 80.0),
            ))
        return WorkloadDAG(tuple(phases))

    return Workload(
        name="train-with-mice", dimension=dimension, dag_builder=build
    )


def _train_under_faults(seed: int) -> Workload:
    dimension = 8

    def build(step: int) -> WorkloadDAG:
        return WorkloadDAG(_dp_train_phases(
            seed, step, dimension, grad_elems=48, packet_elems=16,
        ))

    # two dead links near the bucket roots: the reduce/broadcast trees
    # that cross them degrade (reported, not fatal), everything else
    # completes — the straggler ratio shows the reroute tail
    faults = FaultPlan(dead_links=[(0, 1), (254, 255)])
    return Workload(
        name="train-under-faults", dimension=dimension, dag_builder=build,
        faults=faults, on_fault="report",
    )


WORKLOAD_SCENARIOS: ScenarioRegistry[WorkloadScenario] = ScenarioRegistry(
    "workload scenario",
    (
        WorkloadScenario(
            name="dp-train-n10",
            description=(
                "n=10 data-parallel training step: overlapped two-bucket "
                "gradient allreduce (SBT reduce + MSBT broadcast)"
            ),
            dimension=10,
            builder=_dp_train_n10,
        ),
        WorkloadScenario(
            name="pipeline-4stage",
            description=(
                "n=8 pipeline step: four compute stages chained by BST "
                "activation scatters (a serial chain)"
            ),
            dimension=8,
            builder=_pipeline_4stage,
        ),
        WorkloadScenario(
            name="moe-alltoall",
            description=(
                "n=8 expert-parallel step: alltoall dispatch/combine "
                "around expert compute, plus the gate-weight allreduce"
            ),
            dimension=8,
            builder=_moe_alltoall,
        ),
        WorkloadScenario(
            name="train-with-mice",
            description=(
                "n=8 dp-train step with seeded background mice "
                "broadcasts contending with the gradient traffic"
            ),
            dimension=8,
            builder=_train_with_mice,
        ),
        WorkloadScenario(
            name="train-under-faults",
            description=(
                "n=8 dp-train step over two dead links, on_fault=report: "
                "degraded phases are reported, the run completes"
            ),
            dimension=8,
            builder=_train_under_faults,
        ),
    ),
)


def get_workload_scenario(name: str) -> WorkloadScenario:
    """The scenario registered under ``name`` (helpful error if absent)."""
    return WORKLOAD_SCENARIOS.get_or_raise(name)
